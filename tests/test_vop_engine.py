import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies

from seqideal import (
    GF,
    GF2,
    QQ,
    EngineError,
    FieldError,
    FieldMismatchError,
    Form,
    InverseForm,
    VOPState,
    apply,
    brute_force_min_poly,
    dehomogenize,
    form_gcd,
    is_plcp,
    linear_complexity,
    minimal_leading_forms,
    minimal_polynomial,
    random_plcp_sequence,
    rueppel_sequence,
    synthesize,
    synthesize_trace,
)
from seqideal import cli, vop_engine
from seqideal.bivariate import discrepancy_window
from seqideal.field import SlotVectors, unpack_bits
from seqideal.vop_engine import _primitive, synthesize_packed, synthesize_rational
from seqideal.rueppel import rueppel_basis, rueppel_inverse_form, synthesize_rueppel
from tests.conftest import FIELD_VALUES, FIRST8_TABLE, FITZ, FITZ_TABLE, value_runs


def _basis_state(F):
    """The state right after the first nonzero term of F: the basis pair."""
    st = VOPState(F.field).push_many(F.seq)
    while st.vop().degenerate:
        st.advance()
    return st


def test_init_examples():
    st = _basis_state(InverseForm(GF2, [1, 0, 1]))
    assert str(st.f_form()) == "x+z" or str(st.f_form()) == "x"
    # the generic basis for a leading nonzero term is (x, z) with d = 0
    st = _basis_state(InverseForm(QQ, FITZ))
    assert str(st.f_form()) == "x" and str(st.g_form()) == "z" and st.d == 0
    # three leading zeros push the basis out to (x^4, z)
    st = _basis_state(InverseForm(GF2, [0, 0, 0, 1]))
    assert str(st.f_form()) == "x^4" and str(st.g_form()) == "z" and st.d == -3
    with pytest.raises(EngineError):
        _basis_state(InverseForm(GF2, [0, 0]))


def test_step_requires_pending_terms():
    st = _basis_state(InverseForm(GF2, [1]))
    with pytest.raises(EngineError):
        st.advance()


def test_step_zero_discrepancy_only_shifts_g():
    st = _basis_state(InverseForm(QQ, [1, 0]))
    f_before = st.f_form()
    st.advance()
    assert st.f_form() == f_before
    assert str(st.g_form()) == "z^2"
    assert st.d == 1


def test_fitz_trace_matches_frozen_table():
    vop, profile, trace = synthesize_trace(InverseForm(QQ, FITZ))
    assert str(trace[0].f) == "x" and str(trace[0].g) == "z"
    assert trace[0].delta is None
    for k, d, delta, q, f_str, g_str in FITZ_TABLE:
        row = trace[k]
        assert row.k == k
        assert row.d == d
        assert row.delta == Fraction(delta)
        assert row.q == Fraction(q)
        assert str(row.f) == f_str
        assert str(row.g) == g_str
    assert str(vop.f) == "x^5+xz^4-z^5"
    assert str(vop.g) == "x^4z^2+x^3z^3+x^2z^4+xz^5+z^6"
    assert vop.f.degree == 5


def test_first8_trace_matches_frozen_table():
    vop, profile, trace = synthesize_trace(
        rueppel_inverse_form(10), basis=rueppel_basis()
    )
    assert str(trace[0].f) == "x+z" and str(trace[0].g) == "z"
    for k, d, delta, f_str, g_str in FIRST8_TABLE:
        row = trace[k]
        assert (row.k, row.d, row.delta) == (k, d, delta)
        assert str(row.f) == f_str
        assert str(row.g) == g_str


def test_synthesize_examples():
    vop, _ = synthesize(rueppel_inverse_form(10))
    assert str(vop.f) == "x^5+x^4z+x^2z^3+xz^4+z^5"
    # all-zero input gets the degenerate convention
    vop, profile = synthesize(InverseForm(GF2, [0] * 6))
    assert vop.degenerate
    assert str(vop.f) == "1" and str(vop.g) == "z^7"
    assert all(e.lam == 0 for e in profile)


def test_linear_complexity_examples():
    assert linear_complexity(FITZ, QQ) == 5
    assert str(minimal_polynomial(FITZ, QQ)) == "x^5+x-1"
    assert linear_complexity([1, 1, 1, 1], GF2) == 1
    assert str(minimal_polynomial([1, 1, 1, 1], GF2)) == "x+1"
    assert linear_complexity([1], GF2) == 1
    assert str(minimal_polynomial([1], GF2)) == "x"
    assert linear_complexity([0, 0, 0], GF2) == 0
    assert str(minimal_polynomial([0, 0, 0], GF2)) == "1"


def test_library_helpers_use_the_fast_engines(monkeypatch):
    import seqideal.vop_engine as engine_mod

    cases = [(FITZ, QQ), (rueppel_sequence(96), GF2)]
    want = [(linear_complexity(s, F), minimal_polynomial(s, F)) for s, F in cases]
    assert want[0][0] == 5 and str(want[0][1]) == "x^5+x-1"
    assert want[1][0] == (96 + 1) // 2

    def generic_unavailable(F, basis=None):
        raise RuntimeError("generic engine called")

    monkeypatch.setattr(engine_mod, "synthesize", generic_unavailable)
    got = [(linear_complexity(s, F), minimal_polynomial(s, F)) for s, F in cases]
    assert got == want
    # no fast engine over GF(5): the generic one is the only path there
    with pytest.raises(RuntimeError, match="generic engine"):
        linear_complexity([1, 2, 0, 4], GF(5))
    with pytest.raises(RuntimeError, match="generic engine"):
        minimal_polynomial([1, 2, 0, 4], GF(5))


def test_fast_entries_run_one_loop_not_one_advance_per_term(monkeypatch):
    # the packed, fraction-free and perfect-profile entries drive their
    # kernel to the end in one loop, never through VOPState.advance, which
    # counts streamed terms only
    F96, FQ = rueppel_inverse_form(96), InverseForm(QQ, FITZ)
    want = [synthesize(F96, basis=rueppel_basis()), synthesize(FQ),
            _random_plcp_on_vopstate(300, 7)]

    def no_advance(self):
        raise RuntimeError("VOPState.advance called")

    monkeypatch.setattr(VOPState, "advance", no_advance)
    got = [synthesize_packed(F96, basis=rueppel_basis()), synthesize_rational(FQ),
           random_plcp_sequence(300, 7)]
    assert got == want
    with pytest.raises(RuntimeError, match="advance called"):
        synthesize(FQ)


def test_profile_lambdas_are_prefix_complexities():
    rng = random.Random(11)
    for field in (GF2, GF(5), QQ):
        for _ in range(40):
            seq = [field.random(rng) for _ in range(rng.randrange(1, 9))]
            _, profile = synthesize(InverseForm(field, seq))
            assert [e.k for e in profile] == list(range(len(seq)))
            for e in profile:
                assert e.lam == linear_complexity(seq[: e.k + 1], field)
            lams = [e.lam for e in profile]
            assert all(a <= b for a, b in zip(lams, lams[1:]))


def test_invariants_on_random_corpus(any_field):
    rng = random.Random(17)
    F = any_field
    one = Form(F, [F.one])
    for _ in range(150):
        n = rng.randrange(1, 10)
        seq = [F.random(rng) for _ in range(n)]
        G = InverseForm(F, seq)
        if G.is_zero:
            continue
        vop, profile = synthesize(G)
        f, g = vop.f, vop.g
        assert f.in_ll and f.is_monic
        assert g.z_divides and g.is_monic
        assert f.degree + g.degree == 2 - G.m
        assert apply(f, G).is_zero and apply(g, G).is_zero
        assert form_gcd(f, g) == one


def test_growth_rule_via_trace(any_field):
    # degree jumps to |g| exactly on a nonzero discrepancy with d > 0
    rng = random.Random(23)
    F = any_field
    for _ in range(100):
        n = rng.randrange(2, 10)
        seq = [F.one] + [F.random(rng) for _ in range(n - 1)]
        _, _, trace = synthesize_trace(InverseForm(F, seq))
        for prev, cur in zip(trace, trace[1:]):
            jumped = not F.is_zero(cur.delta) and cur.d > 0
            if jumped:
                assert cur.f.degree == prev.g.degree
                assert cur.f.degree == prev.f.degree + cur.d
            else:
                assert cur.f.degree == prev.f.degree


def test_streaming_matches_batch(any_field):
    rng = random.Random(3)
    F = any_field
    for _ in range(50):
        n = rng.randrange(1, 12)
        seq = [F.random(rng) for _ in range(n)]
        batch_vop, batch_profile = synthesize(InverseForm(F, seq))
        st = VOPState(F)
        for a in seq:
            st.push(a)
            st.advance()
        assert st.vop() == batch_vop
        assert st.finish_profile() == batch_profile


@pytest.mark.parametrize("tag", sorted(FIELD_VALUES))
def test_any_push_advance_split_matches_batch_property(tag):
    field, elements = FIELD_VALUES[tag]

    @settings(max_examples=40, deadline=None)
    @given(seq=value_runs(elements), data=strategies.data())
    @example(seq=[0] * 63 + [1], data=None)
    def check(seq, data):
        # pushes of any size, each followed by any number of advances; a
        # None draw (the explicit example) pushes one term at a time
        def draw(lo, hi):
            return lo if data is None else data.draw(strategies.integers(lo, hi))

        seq = [field.coerce(v) for v in seq]
        st = VOPState(field)
        while st.consumed < len(seq):
            fed = st.consumed + st.pending
            if fed < len(seq):
                st.push_many(seq[fed : fed + draw(1, len(seq) - fed)])
            for _ in range(draw(1, st.pending)):
                st.advance()
        assert (st.vop(), st.finish_profile()) == synthesize(InverseForm(field, seq))

    check()


def test_state_copy_is_independent():
    st = VOPState(GF2)
    st.push_many([1, 1, 0])
    st.run()
    fork = st.copy()
    fork.push_many([1, 0, 0, 0])
    fork.run()
    assert st.consumed == 3 and fork.consumed == 7
    assert st.vop() != fork.vop()


# Known defect, kept as a strict xfail until it is fixed: the benchmark's
# own test suite still asserts that such a fork fails.  The fix belongs
# in test_state_copy_is_independent as one more input.
@pytest.mark.xfail(raises=AttributeError, strict=True,
                   reason="VOPState.copy() does not copy the basis")
def test_fork_before_the_first_term_keeps_the_basis():
    fork = VOPState(GF2, basis=rueppel_basis()).copy()
    fork.push_many([1, 1, 0, 1]).run()
    assert fork.vop() == synthesize(InverseForm(GF2, [1, 1, 0, 1]), basis=rueppel_basis())[0]


def test_f_list_tracks_f_after_every_advance():
    # perfbench's tracer counts length changes by reading len(state._f)
    # around each advance, so _f stays f's coefficient list on slots too
    rng = random.Random(101)
    field = GF(101)
    st = VOPState(field)
    assert isinstance(st._vec, SlotVectors)
    for t in range(400):
        st.push(0 if t < 5 or rng.random() < 0.2 else rng.randrange(101)).advance()
        assert len(st._f) == st.f_form().degree + 1
        if t % 50 == 49:
            fork = st.copy().push_many([rng.randrange(101) for _ in range(9)])
            while fork.pending:
                fork.advance()
                assert len(fork._f) == fork.f_form().degree + 1


def test_vector_kind_follows_the_field():
    for field in (GF(3), GF(7), GF(2**31 - 1), GF(2**63 - 25)):
        assert isinstance(VOPState(field)._vec, SlotVectors)
    for field in (GF2, QQ, GF(2**63 + 29)):  # the first prime above 2^63
        assert isinstance(VOPState(field)._vec, vop_engine._ListVectors)


SLOT_FIELDS = [GF(7), GF(101), GF(2**31 - 1)]


def _shipped_and_on_lists(run):
    """run() as shipped and with every new VOPState on list vectors, the
    kind GF(2) and QQ use, which the field's own kernels update."""
    shipped = run()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(vop_engine, "_vectors", vop_engine._ListVectors)
        return shipped, run()


def _outcome(run):
    # a copy() taken before the first nonzero term has no _basis (the
    # known fork defect), so advancing it past that term raises
    try:
        return run()
    except (EngineError, AttributeError) as e:
        if isinstance(e, AttributeError) and "'_basis'" not in str(e):
            raise
        return type(e).__name__, str(e)


@strategies.composite
def _gfp_streams(draw, p):
    # short runs of repeated values with zero runs, or up to 300 seeded
    # random residues behind a zero prefix
    if draw(strategies.booleans()):
        return draw(value_runs(strategies.integers(0, p - 1)))
    rng = random.Random(draw(strategies.integers(0, 2**32)))
    return [0] * draw(strategies.integers(0, 4)) + [
        rng.randrange(p) for _ in range(draw(strategies.integers(1, 300)))
    ]


@pytest.mark.parametrize("field", SLOT_FIELDS, ids=lambda f: f.tag)
def test_slot_vectors_match_list_vectors(field):
    p = field.p

    @settings(max_examples=40, deadline=None)
    @given(
        seq=_gfp_streams(p),
        c=strategies.integers(0, p - 1),
        forks=strategies.lists(
            strategies.tuples(strategies.integers(0, 300), strategies.lists(
                strategies.integers(0, p - 1), max_size=12)), max_size=4),
    )
    def check(seq, c, forks):
        F = InverseForm(field, seq)
        basis = (Form(field, [c, 1]), Form(field, [1, 0]))  # (x + cz, z)

        def run():
            out = [synthesize(F), synthesize_trace(F), _outcome(lambda: synthesize(F, basis))]
            st = VOPState(field, trace=True)
            for t, a in enumerate(seq):
                st.push(a).advance()
                for at, more in forks:
                    if at == t:
                        fork = st.copy().push_many(more)
                        out.append(_outcome(lambda: (fork.run().vop(), fork.finish_profile())))
            out.append((st.vop(), st.finish_profile(), st.trace))
            return out

        shipped, on_lists = _shipped_and_on_lists(run)
        assert shipped == on_lists

    check()


def test_slot_vectors_match_list_vectors_under_debug_asserts(monkeypatch):
    monkeypatch.setenv("SEQIDEAL_DEBUG_ASSERTS", "1")
    rng = random.Random(31)
    for field in SLOT_FIELDS:
        for _ in range(15):
            seq = [0] * rng.randrange(3) + [field.random(rng) for _ in range(rng.randrange(1, 10))]
            F = InverseForm(field, seq)
            shipped, on_lists = _shipped_and_on_lists(lambda: synthesize_trace(F))
            assert shipped == on_lists


def test_slot_vectors_raise_the_list_vectors_errors():
    for field in SLOT_FIELDS:
        basis = (Form(field, [1, 1]), Form(field, [1, 0]))
        cases = [
            lambda: VOPState(field).advance(),
            lambda: VOPState(field).push(1).run().advance(),
            lambda: synthesize(InverseForm(field, [0, 1]), basis),
            lambda: synthesize(InverseForm(field, [1, 1]), (basis[0], Form(field, [1, 0, 0]))),
        ]
        for case in cases:
            shipped, on_lists = _shipped_and_on_lists(lambda: _outcome(case))
            assert shipped == on_lists and shipped[0] == "EngineError"


def test_packed_engine_matches_generic_exhaustively():
    basis = rueppel_basis()
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            F = InverseForm(GF2, bits)
            assert synthesize_packed(F) == synthesize(F), bits
            if bits[0] or not any(bits):  # where a custom basis applies
                assert synthesize_packed(F, basis) == synthesize(F, basis), bits


@settings(max_examples=60, deadline=None)
@given(
    n=strategies.integers(1, 1024),
    zeros=strategies.integers(0, 1024),
    bits=strategies.integers(0, (1 << 1024) - 1),
)
@example(n=1024, zeros=1024, bits=0)
@example(n=1024, zeros=1000, bits=(1 << 1024) - 1)
def test_packed_engine_matches_generic_property(n, zeros, bits):
    # a leading zero run of any length, up to the all-zero sequence
    zeros = min(zeros, n)
    F = InverseForm(GF2, [0] * zeros + unpack_bits(bits, n - zeros))
    assert synthesize_packed(F) == synthesize(F)


def test_packed_engine_from_the_rueppel_basis_matches_generic():
    for n in [*range(1, 301), 4096]:
        F = rueppel_inverse_form(n)
        assert synthesize_packed(F, basis=rueppel_basis()) == synthesize_rueppel(n), n


def test_packed_engine_needs_gf2():
    with pytest.raises(EngineError):
        synthesize_packed(InverseForm(GF(5), [1, 2, 3]))


def _seeded_rational_inputs():
    rng = random.Random(20261018)
    terms = (
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: Fraction(rng.randint(-99, 99)),  # integer-only
        lambda: Fraction(rng.randint(-10**30, 10**30), rng.choice([1, 7])),
    )
    for n in range(1, 65):
        term = terms[n % 3]
        # inner zero runs, and some leading ones
        seq = [term() if rng.random() < 0.7 else 0 for _ in range(n)]
        lead = rng.choice([0, 0, 1, 5])
        yield [0] * lead + seq[: n - lead] if lead < n else seq
    for n in (1, 2, 17, 64):
        yield [0] * n
    yield [Fraction(10**30, 7)] * 12
    yield [1, 0, 0, 0, 0, 0, 0, 0, 0, Fraction(-10**30, 7)]
    # 192 terms a/b with |a| <= 9 and 1 <= b <= 9, the shape of the
    # q-analyze benchmark input
    yield [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(192)]


def test_rational_engine_matches_generic_on_seeded_inputs():
    for seq in _seeded_rational_inputs():
        F = InverseForm(QQ, seq)
        got, want = synthesize_rational(F), synthesize(F)
        assert got == want, seq
        # equal and of the same type, so reports format the same
        assert [type(e.delta) for e in got[1]] == [type(e.delta) for e in want[1]]


_rationals = strategies.one_of(
    strategies.just(Fraction(0)),
    strategies.fractions(max_denominator=10**6),
    strategies.integers(-10**30, 10**30).map(Fraction),
)


_small_ratios = strategies.builds(
    Fraction,
    strategies.integers(-5, 5).filter(bool),
    strategies.integers(1, 5),
)

# sequences whose profile is not perfect: a periodic block or a
# geometric run c * r^k keeps lambda small for a while, and the tail that
# breaks the pattern then forces a long jump, so the runs have d < 0 and
# repeated length changes
_structured_rationals = strategies.one_of(
    strategies.builds(
        lambda block, reps, tail: block * reps + tail,
        strategies.lists(_rationals, min_size=1, max_size=6),
        strategies.integers(2, 10),
        strategies.lists(_rationals, max_size=6),
    ),
    strategies.builds(
        lambda c, r, n, tail: [c * r**k for k in range(n)] + tail,
        _small_ratios,
        _small_ratios,
        strategies.integers(1, 40),
        strategies.lists(_rationals, max_size=8),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    zeros=strategies.integers(0, 8),
    terms=strategies.one_of(
        strategies.lists(_rationals, min_size=1, max_size=64),
        _structured_rationals,
    ),
)
@example(zeros=8, terms=[Fraction(0)])
def test_rational_engine_matches_generic_property(zeros, terms):
    F = InverseForm(QQ, [0] * zeros + terms)
    assert synthesize_rational(F) == synthesize(F)


def test_rational_engine_reproduces_the_frozen_example():
    # FITZ is also the README's ten-term example
    F = InverseForm(QQ, FITZ)
    vop, profile = synthesize_rational(F)
    assert (vop, profile) == synthesize(F)
    for (k, d, delta, _q, _f, _g), e in zip(FITZ_TABLE, profile):
        assert (e.k, e.d, e.delta) == (k - 1, d, delta)
    assert (str(vop.f), str(vop.g)) == FITZ_TABLE[-1][4:]
    assert str(dehomogenize(vop.f)) == "x^5+x-1"


@pytest.mark.parametrize(
    "v",
    [
        [3, -4, 5, 7],  # content 1
        [-6, -10, -14, -4],  # all negative
        [-84],  # a single entry
        [0, 0, 12, 0, 18],  # zeros, and a candidate equal to the content
        # the candidate gcd(42, 42, 462) = 42 fails on the second entry,
        # so the quotients are rescaled to the content 6
        [6 * 7, 6 * 5, 6 * 7 * 11, 6 * 7],
        [2**200 * 3 * 5, 2**200 * 3 * 7, 2**200 * 5 * 7, 2**200 * 3 * 5],
    ],
)
def test_primitive_divides_out_the_content(v):
    content = functools.reduce(gcd, v, 0)
    assert _primitive(list(v)) == [x // content for x in v]


@settings(max_examples=100, deadline=None)
@given(
    v=strategies.lists(strategies.integers(-10**6, 10**6), min_size=1, max_size=12),
    scale=strategies.integers(1, 10**20),
)
def test_primitive_divides_out_the_content_property(v, scale):
    v = [x * scale for x in v[:-1]] + [(v[-1] or 1) * scale]
    content = functools.reduce(gcd, v, 0)
    assert _primitive(list(v)) == [x // content for x in v]


@pytest.mark.parametrize("field", [GF2, GF(5)])
def test_rational_engine_needs_qq(field):
    with pytest.raises(EngineError):
        synthesize_rational(InverseForm(field, [1, 0, 1]))


def test_replay_determinism():
    seq = [1, 0, 1, 1, 0, 0, 1, 0]
    a = synthesize(InverseForm(GF2, seq))
    b = synthesize(InverseForm(GF2, seq))
    assert a == b


def test_minimal_leading_forms_unique_and_parametric():
    vop, _ = synthesize(InverseForm(QQ, FITZ))
    th = minimal_leading_forms(vop)
    assert th.unique and th.describe() == "unique"
    assert th.enumerate() == {vop.f}

    # even last index: exactly two minimal leading forms over GF(2)
    vop, _ = synthesize(rueppel_inverse_form(9))
    th = minimal_leading_forms(vop)
    assert not th.unique and th.psi_degree == 0
    assert th.count() == 2
    assert th.enumerate() == {vop.f, vop.f + vop.g}

    # odd last index: unique again
    vop, _ = synthesize(rueppel_inverse_form(10))
    assert minimal_leading_forms(vop).describe() == "unique"


def test_theta_enumeration_error_over_rationals():
    # a leading zero leaves |f| = 2 > 1 = |g|: infinitely many minimal
    # leading forms over the rationals
    vop, _ = synthesize(InverseForm(QQ, [0, 1]))
    th = minimal_leading_forms(vop)
    assert not th.unique and th.describe() == "parametric(1)"
    with pytest.raises(FieldError):
        th.enumerate()
    with pytest.raises(FieldError):
        th.count()


def test_theta_matches_brute_force_forms():
    # enumerated families equal the directly enumerated annihilating
    # leading forms of minimal degree
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(1, 9)
        seq = [rng.randrange(2) for _ in range(n)]
        if not any(seq):
            continue
        G = InverseForm(GF2, seq)
        vop, _ = synthesize(G)
        lam = vop.f.degree
        brute = set()
        for mask in range(1 << lam):
            coeffs = [(mask >> i) & 1 for i in range(lam)] + [1]
            cand = Form(GF2, coeffs)
            if apply(cand, G).is_zero:
                brute.add(cand)
        assert minimal_leading_forms(vop).enumerate() == brute


def test_is_plcp_examples():
    _, profile = synthesize_rueppel(33)
    assert is_plcp(profile)
    _, profile = synthesize(rueppel_inverse_form(33))  # generic basis
    assert is_plcp(profile)
    _, profile = synthesize(InverseForm(GF2, [1, 1, 1]))
    assert not is_plcp(profile)  # lambda profile is 1,1,1 not 1,1,2
    _, profile = synthesize(InverseForm(GF2, [0, 1, 1]))
    assert not is_plcp(profile)  # leading zero
    _, profile = synthesize(InverseForm(GF2, [0, 0, 0]))
    assert not is_plcp(profile)


def test_random_plcp_sequences():
    for seed in range(10):
        seq = random_plcp_sequence(40, seed=seed)
        assert seq[0] == 1 and len(seq) == 40
        _, profile = synthesize(InverseForm(GF2, seq))
        assert is_plcp(profile)
        assert linear_complexity(seq, GF2) == (40 + 1) // 2


def _random_plcp_on_vopstate(n, seed=0):
    """The reference generator: the generic VOPState one term at a time,
    each term read off its discrepancy window."""
    rng = random.Random(seed)
    state = VOPState(GF2)
    state.push(1)
    state.advance()
    seq = [1]
    for k in range(n - 1):
        target = 1 if k % 2 == 1 else rng.randrange(2)
        seq.append(0)
        a = seq[-1] = target ^ discrepancy_window(GF2, state._f, seq, len(seq))
        state.push(a)
        state.advance()
    return seq


@pytest.mark.parametrize("n", [1, 2, 3, 17, 300, 1000, 4096])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_packed_random_plcp_matches_the_vopstate_generator(n, seed):
    assert random_plcp_sequence(n, seed) == _random_plcp_on_vopstate(n, seed)


@settings(max_examples=40, deadline=None)
@given(n=strategies.integers(1, 512), seed=strategies.integers(0, 2**32))
def test_packed_random_plcp_matches_the_vopstate_generator_property(n, seed):
    assert random_plcp_sequence(n, seed) == _random_plcp_on_vopstate(n, seed)


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_profile_random_plcp_output_is_unchanged(monkeypatch, capsys, fmt):
    argv = ["profile", "--random-plcp", "--n", "300", "--seed", "7", *fmt]
    assert cli.main(argv) == 0
    packed = capsys.readouterr()
    monkeypatch.setattr(cli, "random_plcp_sequence", _random_plcp_on_vopstate)
    assert cli.main(argv) == 0
    assert capsys.readouterr() == packed


def test_cross_example_with_vanishing_constant_term():
    # inverse form x^-6+x^-4z^-2+x^-3z^-3+z^-6: the leading generator has
    # f(0,1) = 0, but adding the cogenerator fixes that
    seq = [1, 0, 0, 1, 1, 0, 1]
    G = InverseForm(GF2, seq)
    vop, _ = synthesize(G)
    assert str(vop.f) == "x^4+x^3z+x^2z^2"
    assert str(vop.g) == "x^3z+x^2z^2+xz^3+z^4"
    assert vop.f.eval_at_01() == 0
    h = vop.f + vop.g
    assert h.eval_at_01() == 1 and apply(h, G).is_zero


def test_oracle_agreement_smoke(any_field):
    rng = random.Random(41)
    F = any_field
    for _ in range(60):
        n = rng.randrange(1, 9)
        seq = [F.random(rng) for _ in range(n)]
        lam = linear_complexity(seq, F)
        bf = brute_force_min_poly(seq, F)
        assert bf.lam == lam
        if bf.witnesses is not None:
            assert minimal_polynomial(seq, F) in bf.witnesses


def test_debug_asserts_run(monkeypatch):
    monkeypatch.setenv("SEQIDEAL_DEBUG_ASSERTS", "1")
    vop, _ = synthesize(InverseForm(GF2, [1, 1, 0, 1, 0, 0, 0, 1]))
    assert vop.f.degree == 4
    vop, _ = synthesize(InverseForm(QQ, FITZ))
    assert vop.f.degree == 5


def test_custom_basis_validation():
    # every engine checks the basis in one place and says the same
    def streamed(F, basis):
        return VOPState(F.field, basis=basis).push_many(F.seq).run()

    for engine in (synthesize, synthesize_packed, streamed):
        with pytest.raises(EngineError, match="only applies when the first term is nonzero"):
            engine(
                InverseForm(GF2, [0, 1]), basis=rueppel_basis()
            )  # basis needs a nonzero first term
        with pytest.raises(EngineError, match="not a valid pair for one term"):
            engine(
                InverseForm(GF2, [1, 1]),
                basis=(Form(GF2, [0, 1]), Form(GF2, [1, 0, 0])),  # degrees sum to 3
            )
        # a pair over another field is refused, not taken over
        with pytest.raises(FieldMismatchError, match="cannot mix"):
            engine(
                InverseForm(GF2, [1, 1, 0, 1]),
                basis=(Form(QQ, [1, 1]), Form(QQ, [1, 0])),
            )
    for field in (GF(5), GF(2**31 - 1), GF(2**63 + 29), QQ):
        for engine in (synthesize, streamed):
            with pytest.raises(FieldMismatchError, match="cannot mix"):
                engine(InverseForm(field, [1, 1, 0, 1]), basis=rueppel_basis())


def test_dehomogenized_f_is_a_minimal_polynomial(any_field):
    rng = random.Random(59)
    F = any_field
    for _ in range(40):
        n = rng.randrange(1, 9)
        seq = [F.random(rng) for _ in range(n)]
        if not any(not F.is_zero(s) for s in seq):
            continue
        vop, _ = synthesize(InverseForm(F, seq))
        c = dehomogenize(vop.f)
        bf = brute_force_min_poly(seq, F)
        assert c.degree == bf.lam
        if bf.witnesses is not None:
            assert c in bf.witnesses
