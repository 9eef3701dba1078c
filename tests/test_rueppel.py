import random
from itertools import islice

import pytest

from seqideal import (
    GF2,
    FieldError,
    Form,
    UniPoly,
    berlekamp_massey,
    closed_form,
    dai_ea,
    dehomogenize,
    delta_parity_check,
    is_plcp,
    matrix_recurrence,
    minimal_leading_forms,
    quad_ext_identity,
    quad_ext_sweep,
    ralg,
    ralg_lambda_sweep,
    reciprocal,
    rueppel_inverse_form,
    rueppel_sequence,
)
from seqideal.rueppel import (
    QuadExt,
    RHO,
    RHO_INV,
    clmul,
    rueppel_bits,
    synthesize_rueppel,
)
from seqideal.field import pack_bits, unpack_bits
from seqideal.vop_engine import synthesize_trace


def test_sequence_examples():
    assert rueppel_sequence(10) == [1, 1, 0, 1, 0, 0, 0, 1, 0, 0]
    assert rueppel_sequence(1) == [1]
    bits16 = rueppel_sequence(16)
    assert [i for i, b in enumerate(bits16) if b] == [0, 1, 3, 7, 15]
    # exactly floor(log2 n) + 1 ones among the first n bits
    for n in (1, 2, 5, 31, 32, 33, 100):
        assert sum(rueppel_sequence(n)) == n.bit_length()
    with pytest.raises(FieldError):
        rueppel_sequence(0)


def test_inverse_form_examples():
    assert str(rueppel_inverse_form(4)) == "x^-3+x^-1z^-2+z^-3"
    assert str(rueppel_inverse_form(1)) == "1"
    # past a block boundary the form is a z-shift of the previous block
    assert rueppel_inverse_form(9) == rueppel_inverse_form(8).augment(0)
    assert rueppel_inverse_form(9).seq == rueppel_inverse_form(8).seq + (0,)


def test_ralg_examples():
    assert str(ralg(10).f) == "x^5+x^4z+x^2z^3+xz^4+z^5"
    assert str(ralg(7).f) == "x^4+x^3z+x^2z^2+z^4"
    assert str(ralg(1).f) == "x+z" and str(ralg(1).g) == "z"
    with pytest.raises(FieldError):
        ralg(0)


def test_ralg_matches_generic_engine():
    for n in range(1, 257):
        vop, _ = synthesize_rueppel(n)
        r = ralg(n)
        assert r.f == vop.f and r.g == vop.g, n


def test_lambda_sweep_matches_conjecture():
    lams = ralg_lambda_sweep(512)
    assert lams == [(n + 1) // 2 for n in range(1, 513)]


def test_profile_is_perfect():
    _, profile = synthesize_rueppel(200)
    assert is_plcp(profile)


def test_delta_parity():
    assert delta_parity_check(2)
    assert delta_parity_check(10)
    assert delta_parity_check(333)
    _, profile = synthesize_rueppel(10)
    deltas = [e.delta for e in profile if e.delta is not None]
    assert deltas == [0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_matrix_recurrence_examples():
    # single applications of the step matrices reproduce the first rows
    E = [[Form(GF2, [1]), Form.zero(GF2)], [Form.zero(GF2), Form(GF2, [1, 0])]]
    U = [[Form(GF2, [0, 1]), Form(GF2, [1, 0])], [Form(GF2, [1]), Form.zero(GF2)]]

    def apply_row(row, M):
        return (
            row[0] * M[0][0] + row[1] * M[1][0],
            row[0] * M[0][1] + row[1] * M[1][1],
        )

    row0 = (Form(GF2, [1, 1]), Form(GF2, [1, 0]))  # (x+z, z)
    row1 = apply_row(row0, E)
    assert (str(row1[0]), str(row1[1])) == ("x+z", "z^2")
    row2 = apply_row(row1, U)
    assert (str(row2[0]), str(row2[1])) == ("x^2+xz+z^2", "xz+z^2")

    # P = U E advances two steps at once from the pair after one step
    P = [
        [U[0][0] * E[0][0], U[0][1] * E[1][1]],
        [U[1][0] * E[0][0], U[1][1] * E[1][1]],
    ]
    f3, g3 = apply_row(row1, P)
    assert (str(f3), str(g3)) == ("x^2+xz+z^2", "xz^2+z^3")
    v3, _ = synthesize_rueppel(4)
    assert (f3, g3) == (v3.f, v3.g)

    # accumulated product equals the direct loop
    for n in range(1, 600):
        assert matrix_recurrence(n) == ralg(n), n
    with pytest.raises(FieldError):
        matrix_recurrence(0)


def test_even_index_via_powers_of_p():
    # the pair after an even number of steps is (x+z, z^2) P^(i-1) U
    f_, g_ = Form(GF2, [1, 1]), Form(GF2, [1, 0, 0])  # (x+z, z^2)
    E = [[Form(GF2, [1]), Form.zero(GF2)], [Form.zero(GF2), Form(GF2, [1, 0])]]
    U = [[Form(GF2, [0, 1]), Form(GF2, [1, 0])], [Form(GF2, [1]), Form.zero(GF2)]]

    def mul_mat(A, B):
        return [
            [A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]],
            [A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]],
        ]

    P = mul_mat(U, E)
    acc = [[Form(GF2, [1]), Form.zero(GF2)], [Form.zero(GF2), Form(GF2, [1])]]
    for i in range(1, 6):
        # 2i steps in: row (x+z, z^2) P^(i-1) U
        M = mul_mat(acc, U)
        f = f_ * M[0][0] + g_ * M[1][0]
        g = f_ * M[0][1] + g_ * M[1][1]
        assert (f, g) == (ralg(2 * i + 1).f, ralg(2 * i + 1).g)
        acc = mul_mat(acc, P)


def test_closed_form():
    assert str(closed_form(1)) == "x+z"
    assert str(closed_form(2)) == "x^2+xz+z^2"
    assert str(closed_form(4)) == "x^4+x^3z+x^2z^2+z^4"
    for j in range(0, 9):
        l = 1 << j
        f = closed_form(l)
        assert f == ralg(2 * l).f
        # sparsity: log2(l) + 2 nonzero terms
        assert sum(1 for c in f.coeffs if c) == j + 2
    with pytest.raises(FieldError):
        closed_form(3)
    with pytest.raises(FieldError):
        closed_form(0)


def test_stability_and_odd_step_recurrence():
    _, _, trace = synthesize_trace(
        rueppel_inverse_form(64), basis=(Form(GF2, [1, 1]), Form(GF2, [1, 0]))
    )
    for k in range(1, 63):
        prev, cur = trace[k - 1], trace[k]
        if k % 2 == 1:  # even source index: nothing moves
            assert cur.f == prev.f
        else:  # odd source index k-1: f advances by x f + g
            assert cur.f == prev.f.shift(x_exp=1) + prev.g


def test_generators_evaluate_to_one():
    for n in (1, 2, 3, 10, 33, 100):
        vop, _ = synthesize_rueppel(n)
        assert vop.f.eval_at_01() == 1
        assert vop.g.eval_at_01() == 1
        assert dehomogenize(vop.f).coeff(0) == 1
        assert reciprocal(dehomogenize(vop.f)).degree == vop.f.degree


def test_theta_parity():
    for n in range(1, 40):
        vop, _ = synthesize_rueppel(n)
        th = minimal_leading_forms(vop)
        if (n - 1) % 2 == 1:
            assert th.unique
        else:
            assert not th.unique and th.count() == 2
            assert th.enumerate() == {vop.f, vop.f + vop.g}


def test_clmul():
    assert clmul(0b11, 0b11) == 0b101  # (x+1)^2 = x^2+1
    assert clmul(0b101, 0b10) == 0b1010
    assert clmul(0, 0b1111) == 0
    # lopsided operands, either way round, against GF(2)[x] multiplication
    rng = random.Random(11)
    for _ in range(50):
        a, b = rng.getrandbits(rng.randrange(1, 8)), rng.getrandbits(rng.randrange(200, 400))
        want = UniPoly(GF2, unpack_bits(a, 8)) * UniPoly(GF2, unpack_bits(b, 400))
        assert clmul(a, b) == clmul(b, a) == pack_bits(want.coeffs)


def test_quad_ext_ring():
    # rho * (rho + x) = 1
    assert RHO * RHO_INV == QuadExt(1, 0)
    # rho^2 = x rho + 1
    assert RHO * RHO == QuadExt(1, 0b10)
    # hand expansion at k = 1: eta = x^2 + x = x(x+1)
    from seqideal.rueppel import _eta

    assert _eta(1) == QuadExt(0b110, 0)
    assert _eta(2) == QuadExt(0b1110, 0)  # x(x^2+x+1)
    assert QuadExt(1, 1).pow(0) == QuadExt(1, 0)


def test_quad_ext_identity_small():
    from seqideal.rueppel import _eta, _eta_certifies

    assert all(quad_ext_identity(k) for k in range(1, 33))
    assert quad_ext_sweep(64)
    # the certificate rejects a wrong generator and a rho component
    for k in (1, 2, 5, 16):
        f_mask = pack_bits(ralg(2 * k).f.coeffs)
        assert _eta_certifies(k, _eta(k), f_mask)
        assert not _eta_certifies(k, _eta(k), f_mask ^ 1)
        assert not _eta_certifies(k, _eta(k) + RHO, f_mask)
    with pytest.raises(FieldError):
        quad_ext_identity(0)


def test_eta_ladder_matches_the_ring_products():
    from seqideal.rueppel import _eta, _eta_certifies, _eta_ladder

    ladder = list(islice(_eta_ladder(), 64))
    assert ladder == [_eta(k) for k in range(1, 65)]
    for k, eta in enumerate(ladder, start=1):
        f_mask = pack_bits(ralg(2 * k).f.coeffs)
        assert _eta_certifies(k, eta, f_mask)
        assert not _eta_certifies(k, eta, f_mask ^ 1)


def test_bm_matches_ralg_on_even_prefixes():
    for k in (1, 2, 3, 5, 9, 16):
        res = berlekamp_massey(rueppel_sequence(2 * k), GF2)
        assert res.L == k
        assert res.gamma == reciprocal(dehomogenize(ralg(2 * k).f))


def test_oracle_triangle():
    for k in range(1, 65):
        c = dehomogenize(ralg(2 * k).f)
        assert dai_ea(k, rueppel_sequence(2 * k), GF2).c == c
        bm = berlekamp_massey(rueppel_sequence(2 * k), GF2)
        assert bm.L == k == c.degree
        assert bm.gamma == reciprocal(c)


def test_rueppel_bits_packing():
    assert rueppel_bits(10) == 0b0010001011
    assert rueppel_sequence(33)[31] == 1  # 31 = 2^5 - 1
    assert rueppel_sequence(33)[32] == 0
