import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies

from seqideal import (
    GF,
    GF2,
    QQ,
    FieldError,
    InverseForm,
    UniPoly,
    berlekamp_massey,
    brute_force_min_poly,
    dai_ea,
    dehomogenize,
    linear_complexity,
    minimal_polynomial,
    reciprocal,
)
from seqideal import cli
from seqideal.field import unpack_bits
from seqideal.oracles import (
    ORACLE_LENGTH_BOUND,
    _berlekamp_massey_lists,
    _dai_ea_lists,
    _dai_steps,
    _packed,
    connection_equals,
    satisfies_recurrence,
)
from seqideal.rueppel import ralg, rueppel_sequence
from seqideal.vop_engine import _synthesize_fast, random_plcp_sequence
from tests.conftest import FIELD_VALUES, FITZ, ea_masks, value_runs


def q(v):
    return Fraction(v)


# -- Berlekamp-Massey --------------------------------------------------------


def test_bm_on_rational_example():
    res = berlekamp_massey(FITZ, QQ)
    assert res.L == 5
    # gamma keeps gamma_0 = 1; its reciprocal recovers the minimal
    # polynomial, whose own reciprocal made monic is x^5-x^4-1
    assert reciprocal(res.gamma) == UniPoly(QQ, [q(-1), q(1), 0, 0, 0, q(1)])
    assert str(reciprocal(UniPoly(QQ, [q(-1), q(1), 0, 0, 0, q(1)]))) == "x^5-x^4-1"
    assert connection_equals(res, minimal_polynomial(FITZ, QQ))


def test_bm_trivial_cases():
    res = berlekamp_massey([0, 0, 0, 0], GF2)
    assert res.L == 0 and str(res.gamma) == "1"
    res = berlekamp_massey([], GF2)
    assert res.L == 0
    # a single 1: constraints are vacuous, the textbook run emits x+1
    res = berlekamp_massey([1], GF2)
    assert res.L == 1
    assert str(res.gamma) == "x+1"
    assert connection_equals(res, UniPoly(GF2, [1, 1]))
    # gamma drops degree when the minimal polynomial is divisible by x
    res = berlekamp_massey([1, 0], GF2)
    assert res.L == 1 and str(res.gamma) == "1"
    assert connection_equals(res, UniPoly(GF2, [0, 1]))


def test_bm_connection_recurrence_holds(any_field):
    # gamma_0 s_j + ... + gamma_L s_(j-L) = 0 for L <= j <= n-1
    rng = random.Random(6)
    F = any_field
    for _ in range(150):
        n = rng.randrange(1, 12)
        seq = [F.random(rng) for _ in range(n)]
        res = berlekamp_massey(seq, F)
        gamma, L = res.gamma, res.L
        assert gamma.coeff(0) == F.one
        assert gamma.degree <= L
        for j in range(L, n):
            acc = F.zero
            for i in range(L + 1):
                acc = F.add(acc, F.mul(gamma.coeff(i), seq[j - i]))
            assert F.is_zero(acc)


def test_bm_length_equals_linear_complexity(any_field):
    rng = random.Random(8)
    F = any_field
    for _ in range(150):
        n = rng.randrange(1, 11)
        seq = [F.random(rng) for _ in range(n)]
        assert berlekamp_massey(seq, F).L == linear_complexity(seq, F)


def test_bm_on_rueppel_prefixes():
    for k in range(1, 33):
        seq = rueppel_sequence(2 * k)
        res = berlekamp_massey(seq, GF2)
        assert res.L == k
        assert res.gamma == reciprocal(dehomogenize(ralg(2 * k).f))


def test_bm_packed_matches_lists_exhaustively():
    # GF(2) runs packed; the list BM is the reference, with the empty,
    # every all-zero and every leading-zero sequence among the inputs
    for n in range(15):
        for bits in itertools.product((0, 1), repeat=n):
            assert berlekamp_massey(bits, GF2) == _berlekamp_massey_lists(list(bits), GF2), bits


def test_bm_packed_matches_lists_on_rueppel_prefixes():
    for k in range(1, 257):
        seq = rueppel_sequence(2 * k)
        assert berlekamp_massey(seq, GF2) == _berlekamp_massey_lists(seq, GF2), k


@settings(max_examples=60, deadline=None)
@given(n=strategies.integers(0, 1024), bits=strategies.integers(0, (1 << 1024) - 1))
@example(n=1024, bits=0)
@example(n=1024, bits=1)
@example(n=1024, bits=1 << 1023)
def test_bm_packed_matches_lists_property(n, bits):
    seq = unpack_bits(bits, n)
    assert berlekamp_massey(seq, GF2) == _berlekamp_massey_lists(seq, GF2)


@pytest.mark.parametrize("tag", sorted(FIELD_VALUES))
def test_engine_agrees_with_bm_property(tag):
    field, elements = FIELD_VALUES[tag]

    @settings(max_examples=40, deadline=None)
    @given(seq=value_runs(elements))
    @example(seq=[0] * 64)
    @example(seq=[0] * 63 + [1])
    def check(seq):
        seq = [field.coerce(v) for v in seq]
        bm = berlekamp_massey(seq, field)
        assert linear_complexity(seq, field) == bm.L
        vop, _ = _synthesize_fast(InverseForm(field, seq))
        if not vop.degenerate and vop.g.degree > vop.f.degree:
            # the minimal polynomial is unique, so BM must find it
            assert connection_equals(bm, minimal_polynomial(seq, field))

    check()


# -- brute force --------------------------------------------------------------


def test_brute_force_on_rational_example():
    res = brute_force_min_poly(FITZ, QQ)
    assert res.lam == 5
    assert res.witnesses == frozenset({UniPoly(QQ, [q(-1), q(1), 0, 0, 0, q(1)])})


def test_brute_force_examples():
    res = brute_force_min_poly(rueppel_sequence(10), GF2)
    assert res.lam == 5
    res = brute_force_min_poly([1], GF2)
    assert res.lam == 1
    assert res.witnesses == frozenset(
        {UniPoly(GF2, [0, 1]), UniPoly(GF2, [1, 1])}
    )
    res = brute_force_min_poly([0, 0], GF2)
    assert res.lam == 0 and res.witnesses == frozenset({UniPoly.one(GF2)})


def test_brute_force_length_guard():
    # the one bound, which the --check-oracle message also names
    assert ORACLE_LENGTH_BOUND == cli.ORACLE_LENGTH_BOUND == 16
    assert brute_force_min_poly([0] * 16, GF2).lam == 0
    with pytest.raises(FieldError):
        brute_force_min_poly([0] * 17, GF2)


def test_brute_force_witnesses_are_characteristic(any_field):
    rng = random.Random(13)
    F = any_field

    def is_char(c, seq):
        l = c.degree
        for k in range(len(seq) - l):
            acc = F.zero
            for i in range(l + 1):
                acc = F.add(acc, F.mul(c.coeff(i), seq[k + i]))
            if not F.is_zero(acc):
                return False
        return True

    for _ in range(80):
        n = rng.randrange(1, 8)
        seq = [F.random(rng) for _ in range(n)]
        res = brute_force_min_poly(seq, F)
        if res.witnesses is None:
            continue
        for w in res.witnesses:
            assert w.is_monic and w.degree == res.lam
            assert is_char(w, seq)


def test_brute_force_infinite_witness_set_over_q():
    # 0, 1 forces degree 2 with a free coefficient over the rationals
    res = brute_force_min_poly([0, 1], QQ)
    assert res.lam == 2 and res.witnesses is None


def test_brute_force_stops_enumerating_above_the_cap(monkeypatch):
    import seqideal.oracles as oracles_mod

    # lambda = n leaves p^n witnesses
    assert brute_force_min_poly([0, 1], GF(2**31 - 1)) == (2, None)
    assert brute_force_min_poly([0] * 9 + [1], GF(7)) == (10, None)
    monkeypatch.setattr(oracles_mod, "WITNESS_ENUMERATE_CAP", 4)
    assert len(brute_force_min_poly([0, 1], GF2).witnesses) == 4
    assert brute_force_min_poly([0, 0, 1], GF2) == (3, None)
    # a unique witness is never capped
    assert brute_force_min_poly(rueppel_sequence(10), GF2).witnesses is not None


def test_satisfies_recurrence_is_witness_membership(any_field):
    # every monic polynomial of degree lambda, over the first few
    # elements, is a witness exactly when it satisfies the recurrence
    F = any_field
    values = list(itertools.islice(F.elements(), 3)) if F.is_finite else [
        F.coerce(v) for v in (0, 1, -1)
    ]
    rng = random.Random(21)
    for _ in range(60):
        seq = [rng.choice(values) for _ in range(rng.randrange(1, 7))]
        res = brute_force_min_poly(seq, F)
        for low in itertools.product(values, repeat=res.lam):
            c = UniPoly(F, list(low) + [F.one])
            if res.witnesses is not None:  # None only over QQ here
                assert satisfies_recurrence(c, seq) == (c in res.witnesses), (seq, c)
        mp = minimal_polynomial(seq, F)
        assert mp.degree == res.lam and satisfies_recurrence(mp, seq)


# -- the division cascade -----------------------------------------------------


def test_dai_quotient_pattern_small():
    ea = dai_ea(1, rueppel_sequence(2), GF2)
    assert [str(p) for p in ea.quotients] == ["x+1"]
    assert str(ea.c) == "x+1"
    ea = dai_ea(2, rueppel_sequence(4), GF2)
    assert [str(p) for p in ea.quotients] == ["x+1", "x"]
    assert str(ea.c) == "x^2+x+1"
    for k in range(1, 33):
        ea = dai_ea(k, rueppel_sequence(2 * k), GF2)
        assert ea.c == dehomogenize(ralg(2 * k).f)


def test_dai_recurrence_invariants():
    for k in (3, 5, 8):
        ea = dai_ea(k, rueppel_sequence(2 * k), GF2)
        # c_i = q_i c_(i-1) + c_(i-2) reconstructs c
        c_prev, c_cur = UniPoly.zero(GF2), UniPoly.one(GF2)
        for quo in ea.quotients:
            c_prev, c_cur = c_cur, quo * c_cur + c_prev
        assert c_cur == ea.c
        degs = list(ea.remainder_degrees)
        assert degs == sorted(degs, reverse=True)
        assert degs[-1] < k


def test_dai_input_validation():
    with pytest.raises(FieldError):
        dai_ea(0, [], GF2)
    with pytest.raises(FieldError):
        dai_ea(2, [1, 1], GF2)


def test_dai_packed_cascade_matches_lists_exhaustively():
    # GF(2) runs packed; the list cascade is the reference, with every
    # all-zero and leading-zero sequence among the inputs
    for k in range(1, 7):
        for bits in itertools.product((0, 1), repeat=2 * k):
            assert dai_ea(k, bits, GF2) == _dai_ea_lists(k, list(bits), GF2), bits


def test_dai_packed_cascade_matches_lists_on_rueppel_prefixes():
    for k in range(1, 65):
        seq = rueppel_sequence(2 * k)
        assert dai_ea(k, seq, GF2) == _dai_ea_lists(k, seq, GF2), k


@settings(max_examples=60, deadline=None)
@given(k=strategies.integers(1, 64), bits=strategies.integers(0, (1 << 128) - 1))
@example(k=64, bits=0)
@example(k=64, bits=1)
def test_dai_packed_cascade_matches_lists_property(k, bits):
    seq = unpack_bits(bits, 2 * k)
    assert dai_ea(k, seq, GF2) == _dai_ea_lists(k, seq, GF2)


def _packed_by_string(s):
    """The MSB-first packing as a base-2 string, s_0 the leading digit."""
    return int("".join(map(str, s)) or "0", 2)


def test_packed_equals_the_string_form_on_every_short_sequence():
    for n in range(13):
        for seq in itertools.product((0, 1), repeat=n):
            assert _packed(list(seq)) == _packed_by_string(seq), seq


@settings(max_examples=60, deadline=None)
@given(n=strategies.integers(0, 4096), bits=strategies.integers(0, (1 << 4096) - 1))
@example(n=4096, bits=(1 << 4096) - 1)
def test_packed_equals_the_string_form_property(n, bits):
    seq = unpack_bits(bits, n)
    assert _packed(seq) == _packed_by_string(seq)


def test_dai_cascade_on_a_shifted_rueppel_prefix_matches_lists():
    # every k cut from one packed 512-term prefix by a shift
    seq = rueppel_sequence(512)
    s = _packed(seq)
    for k in range(1, 257):
        quotients, cs, degrees = zip(*_dai_steps(k, s >> (512 - 2 * k)))
        want = ea_masks(_dai_ea_lists(k, seq[: 2 * k], GF2))
        assert (cs[-1], quotients, degrees) == want, k


@settings(max_examples=80, deadline=None)
@given(
    k=strategies.integers(1, 64),
    surplus=strategies.integers(0, 64),
    bits=strategies.integers(0, (1 << 256) - 1),
)
@example(k=64, surplus=64, bits=0)  # all zero
@example(k=32, surplus=32, bits=1 << 127)  # the 2k-term prefix is all zero
@example(k=8, surplus=3, bits=0b1011 << 5)  # leading zeros
def test_dai_cascade_shifted_prefix_matches_packed_prefix(k, surplus, bits):
    m = k + surplus
    seq = unpack_bits(bits, 2 * m)
    prefix = seq[: 2 * k]
    assert list(_dai_steps(k, _packed(seq) >> 2 * surplus)) == list(_dai_steps(k, _packed(prefix)))
    assert dai_ea(k, prefix, GF2) == _dai_ea_lists(k, prefix, GF2)


def _first_steps_are_the_short_cascades(N, r, last_degree_exact):
    # the first k steps of the cascade on the 2N-term prefix r are the
    # cascade on its first 2k terms: the same quotients and convergent,
    # and remainder degrees 2(N - k) higher, except that the short
    # cascade's last remainder may drop lower, to zero included
    steps = list(_dai_steps(N, r))
    assert len(steps) == N
    for k in range(1, N + 1):
        short = list(_dai_steps(k, r >> 2 * (N - k)))
        head = steps[:k]
        assert [step[:2] for step in short] == [step[:2] for step in head], k
        degrees = [d for _, _, d in short]
        shifted = [d - 2 * (N - k) for _, _, d in head]
        assert degrees[:-1] == shifted[:-1], k
        if last_degree_exact:
            assert degrees[-1] == shifted[-1], k
        else:
            assert degrees[-1] <= shifted[-1], k


def test_one_cascade_yields_every_k_of_the_rueppel_prefix():
    _first_steps_are_the_short_cascades(512, _packed(rueppel_sequence(1024)), True)


@settings(max_examples=40, deadline=None)
@given(N=strategies.integers(1, 64), seed=strategies.integers(0, 2**32))
@example(N=2, seed=1)  # the 2-term cascade ends on a zero remainder
def test_one_cascade_yields_every_k_of_a_perfect_profile_prefix(N, seed):
    # a perfect profile makes every quotient degree 1
    seq = random_plcp_sequence(2 * N, seed)
    _first_steps_are_the_short_cascades(N, _packed(seq), False)
    ea = dai_ea(N, seq, GF2)
    assert ea == _dai_ea_lists(N, seq, GF2)
    assert all(q.degree == 1 for q in ea.quotients)


def test_dai_generalizes_to_rationals():
    # the stated recurrence r_i = q_i r_(i-1) + r_(i-2) fixes the sign of
    # the quotients over fields of odd characteristic too; whenever the
    # linear complexity fits in the first half, the final convergent
    # denominator is associate to a minimal polynomial
    ea = dai_ea(5, FITZ, QQ)
    assert ea.c.monic() == minimal_polynomial(FITZ, QQ)
    for field in (GF(5), GF(7), QQ):
        rng = random.Random(55)
        hits = 0
        for _ in range(120):
            k = rng.randrange(1, 5)
            seq = [field.random(rng) for _ in range(2 * k)]
            if all(field.is_zero(s) for s in seq):
                continue
            if linear_complexity(seq, field) > k:
                continue
            ea = dai_ea(k, seq, field)
            bf = brute_force_min_poly(seq, field)
            assert not ea.c.is_zero
            got = ea.c.monic()
            assert got.degree == bf.lam
            if bf.witnesses is not None:
                assert got in bf.witnesses
            hits += 1
        assert hits > 10  # the filter must leave real cases


# -- reciprocal ----------------------------------------------------------------


def test_reciprocal_examples():
    p = UniPoly(QQ, [q(-1), q(1), 0, 0, 0, q(1)])  # x^5+x-1
    assert str(reciprocal(p)) == "x^5-x^4-1"
    assert reciprocal(UniPoly(GF2, [1, 1])) == UniPoly(GF2, [1, 1])
    assert reciprocal(UniPoly(GF2, [0, 0, 0, 1])) == UniPoly.one(GF2)
    with pytest.raises(FieldError):
        reciprocal(UniPoly.zero(GF2))


def test_reciprocal_involution(any_field):
    rng = random.Random(21)
    F = any_field
    for _ in range(300):
        d = rng.randrange(0, 6)
        coeffs = [F.random(rng) for _ in range(d + 1)]
        coeffs[0] = F.random_nonzero(rng)  # nonzero constant term
        p = UniPoly(F, coeffs).monic() if not F.is_zero(coeffs[-1]) else UniPoly(F, coeffs)
        if p.is_zero:
            continue
        assert reciprocal(reciprocal(p)) == p.monic()
