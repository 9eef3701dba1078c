import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies

from seqideal import (
    GF,
    GF2,
    QQ,
    FieldError,
    FieldMismatchError,
    Form,
    InverseForm,
    UniPoly,
    apply,
    dehomogenize,
    discrepancy,
    form_gcd,
    homogenize,
    linear_complexity,
    unipoly_gcd,
)
from tests.conftest import FIELD_VALUES, FITZ


def q(s):
    return Fraction(s)


def test_from_sequence_examples():
    F = InverseForm(GF2, [1, 1, 0, 1])
    assert str(F) == "x^-3+x^-1z^-2+z^-3"
    assert InverseForm(GF2, [1]).m == 0
    assert str(InverseForm(GF2, [1])) == "1"
    G = InverseForm(QQ, FITZ)
    assert str(G) == "-2x^-9+x^-8z^-1+x^-5z^-4-x^-4z^-5+z^-9"
    assert G.m == -9


def test_from_sequence_rejects_empty():
    with pytest.raises(FieldError):
        InverseForm(QQ, [])
    with pytest.raises(FieldError):
        linear_complexity([], GF2)


def test_sequence_round_trip(any_field):
    rng = random.Random(5)
    F = any_field
    for _ in range(200):
        seq = [F.random(rng) for _ in range(rng.randrange(1, 12))]
        G = InverseForm(F, seq)
        assert list(G.seq) == seq
        assert [G.coeff(-j) for j in range(G.n)] == seq


def test_inverse_form_coerces_raw_ints():
    F = InverseForm(GF(5), [-3, 7])
    assert F.field == GF(5) and F.seq == (2, 2)
    with pytest.raises(FieldError):
        InverseForm(GF2, [1, 2])  # GF(2) coercion is strict
    with pytest.raises(FieldError):
        InverseForm(QQ, [1, 0.5])  # no floats anywhere
    with pytest.raises(FieldMismatchError):
        apply(Form(GF(7), [1]), F)


def test_subform_table():
    F = InverseForm(QQ, FITZ)
    assert str(F.subform(-5)) == "x^-5-x^-4z^-1+z^-5"
    assert str(F.subform(-8)) == "x^-8+x^-5z^-3-x^-4z^-4+z^-8"
    assert str(F.subform(-4)) == "-x^-4+z^-4"
    assert F.subform(F.order) == InverseForm(QQ, [1])  # top subform is x^order
    assert F.subform(F.m) == F
    with pytest.raises(FieldError):
        F.subform(1)
    with pytest.raises(FieldError):
        F.subform(-10)


def test_order():
    assert InverseForm(GF2, [1, 0]).order == 0
    assert InverseForm(GF2, [0, 0, 0, 1]).order == -3
    with pytest.raises(FieldError):
        InverseForm(GF2, [0, 0]).order


def test_augment():
    # augmenting z^m appends a term below the existing ones
    zm = InverseForm(QQ, [1, 0, 0])  # z^-2
    assert str(zm.augment(5)) == "5x^-3+z^-3"
    assert str(InverseForm(GF2, [1]).augment(1)) == "x^-1+z^-1"
    F = InverseForm(QQ, FITZ[:4])
    assert F.augment(0).seq == F.seq + (q(0),)
    assert F.augment(0).m == F.m - 1


def test_form_construction_and_zero():
    f = Form(QQ, [0, 0, 0])
    assert f.is_zero and f.coeffs == ()
    g = Form(GF2, [1, 0, 0])  # z^2
    assert not g.is_zero and g.degree == 2
    assert str(Form.monomial(GF2, 2, 1)) == "x^2z"


def test_grlex_leading_term():
    f = Form(GF2, [1, 1, 1])  # x^2+xz+z^2
    assert f.grlex_lt() == (2, 1)
    assert f.in_ll
    z = Form(GF2, [1, 0])
    assert z.grlex_lt()[0] == 0 and not z.in_ll
    g = Form(GF2, [1, 1, 1, 1, 0])  # x^3z+x^2z^2+xz^3+z^4
    assert g.grlex_lt() == (3, 1) and not g.in_ll
    with pytest.raises(FieldError):
        Form.zero(GF2).grlex_lt()


def test_eval_at_01():
    assert Form(GF2, [1, 1]).eval_at_01() == 1  # x+z
    assert Form(GF2, [0, 1]).eval_at_01() == 0  # x
    assert Form(GF2, [0, 0, 1, 1, 1]).eval_at_01() == 0  # x^4+x^3z+x^2z^2


def test_form_addition_rules():
    f = Form(GF2, [1, 1])
    assert (f + Form.zero(GF2)) == f
    with pytest.raises(FieldError):
        f + Form(GF2, [1, 1, 1])
    assert (f + f).is_zero


def test_form_shift_and_mul():
    f = Form(GF2, [1, 1])  # x+z
    assert str(f.shift(x_exp=1)) == "x^2+xz"
    assert str(f.shift(z_exp=2)) == "xz^2+z^3"
    assert str(f * f) == "x^2+z^2"  # squaring over GF(2)
    p = Form(QQ, [1, 1]) * Form(QQ, [1, 1])
    assert str(p) == "x^2+2xz+z^2"


def _schoolbook(a, b):
    F = a.field
    out = [F.zero] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return Form(F, out)


def test_form_mul_matches_schoolbook(any_field):
    rng = random.Random(11)
    F = any_field

    def random_form():
        # zero runs at the top make the form z-divisible, at the bottom
        # x-divisible; all-zero coefficients give the zero form
        deg = rng.randrange(6)
        coeffs = [F.random(rng) for _ in range(deg + 1)]
        for i in rng.sample(range(deg + 1), rng.randrange(deg + 2)):
            coeffs[i] = F.zero
        return Form(F, coeffs)

    # the shape Theta.enumerate multiplies: psi times a z-divisible g
    g = Form(F, [F.one, F.one, F.zero, F.zero])  # x z^2 + z^3
    psi = Form(F, [F.one, F.one])  # x + z
    assert psi * g == _schoolbook(psi, g)
    assert str(psi * g) == ("x^2z^2+z^4" if F == GF2 else "x^2z^2+2xz^3+z^4")
    for _ in range(300):
        a, b = random_form(), random_form()
        assert a * b == _schoolbook(a, b) == b * a
        if not (a.is_zero or b.is_zero):
            assert (a * b).degree == a.degree + b.degree


def test_monic():
    f = Form(QQ, [q(2), q(0), q(4)])
    assert str(f.monic()) == "x^2+1/2z^2"
    assert Form(GF2, [1, 1]).monic() == Form(GF2, [1, 1])
    with pytest.raises(FieldError):
        Form.zero(QQ).monic()


def test_apply_monomial_cases():
    # x acting on x^-1 z^-1 peels one x
    F = InverseForm(GF2, [0, 1, 0])  # x^-1 z^-1
    out = apply(Form.monomial(GF2, 1, 0), F)
    assert str(out) == "z^-1"
    # overshooting the x degree truncates to zero
    xm = InverseForm(GF2, [0, 0, 1])  # x^-2
    big = Form.monomial(GF2, 3, 0)  # x^(1-m) = x^3
    assert apply(big, xm).is_zero
    # zero form acts as zero
    assert apply(Form.zero(GF2), F).is_zero


def test_apply_annihilates_known_generator():
    F = InverseForm(QQ, FITZ)
    f = Form(QQ, [q(-1), q(1), 0, 0, 0, q(1)])  # x^5+xz^4-z^5
    assert apply(f, F).is_zero
    g = Form(QQ, [1, 1, 1, 1, 1, 0, 0])  # x^4z^2+...+z^6
    assert apply(g, F).is_zero
    # a non-annihilator leaves a remainder
    assert not apply(Form(QQ, [1, 1]), F).is_zero


def test_apply_linearity(any_field):
    rng = random.Random(31)
    F = any_field
    for _ in range(1000):
        n = rng.randrange(1, 7)
        d = rng.randrange(0, 4)
        seq = InverseForm(F, [F.random(rng) for _ in range(n)])
        a = Form(F, [F.random(rng) for _ in range(d + 1)])
        b = Form(F, [F.random(rng) for _ in range(d + 1)])
        if a.is_zero or b.is_zero:
            continue  # the zero form collapses to the canonical zero
        left = apply(a + b, seq)
        right_a, right_b = apply(a, seq), apply(b, seq)
        combined = [F.add(x, y) for x, y in zip(right_a.seq, right_b.seq)]
        if left.is_zero:
            assert all(F.is_zero(c) for c in combined)
        else:
            assert list(left.seq) == combined
        # scalar compatibility
        c = F.random(rng)
        if not F.is_zero(c):
            assert apply(a.scale(c), seq).seq == tuple(
                F.mul(c, v) for v in right_a.seq
            )


def test_apply_z_shift_drops_tail(any_field):
    rng = random.Random(77)
    F = any_field
    for _ in range(200):
        n = rng.randrange(1, 9)
        k = rng.randrange(0, 4)
        seq = [F.random(rng) for _ in range(n)]
        tail = [F.random(rng) for _ in range(k)]
        big = InverseForm(F, seq + tail)
        zk = Form(F, [F.one] + [F.zero] * k)  # z^k
        assert apply(zk, big) == InverseForm(F, seq)


def test_discrepancy_examples():
    # against the three-bit prefix 1,1,0 the pair-extension obstruction is 1
    assert discrepancy(Form(GF2, [1, 1]), InverseForm(GF2, [1, 1, 0])) == 1
    # degree excess means no obstruction
    f = Form(GF2, [0, 0, 0, 1])
    assert discrepancy(f, InverseForm(GF2, [1])) == 0
    # rational case: x^4+z^4 against the six-term prefix
    F5 = InverseForm(QQ, FITZ[:6])
    assert discrepancy(Form(QQ, [1, 0, 0, 0, 1]), F5) == 1
    assert discrepancy(Form.zero(QQ), F5) == 0


def test_characteristic_recurrence_cross_check(any_field):
    # apply(homogenize(c), F) == 0 iff c satisfies the defining recurrence
    rng = random.Random(123)
    F = any_field

    def recurrence_holds(c: UniPoly, seq) -> bool:
        l = c.degree
        n = len(seq)
        for k in range(n - l):
            acc = F.zero
            for i in range(l + 1):
                acc = F.add(acc, F.mul(c.coeff(i), seq[k + i]))
            if not F.is_zero(acc):
                return False
        return True

    for _ in range(300):
        l = rng.randrange(1, 4)
        n = rng.randrange(l + 1, 10)
        c = UniPoly(F, [F.random(rng) for _ in range(l)] + [F.one])
        if rng.randrange(2):
            # build the sequence from the recurrence so c annihilates it
            seq = [F.random(rng) for _ in range(l)]
            while len(seq) < n:
                acc = F.zero
                for i in range(l):
                    acc = F.add(acc, F.mul(c.coeff(i), seq[len(seq) - l + i]))
                seq.append(F.neg(acc))
        else:
            seq = [F.random(rng) for _ in range(n)]
        annihilated = apply(homogenize(c), InverseForm(F, seq)).is_zero
        assert annihilated == recurrence_holds(c, seq)


def test_homogenize_examples():
    c = UniPoly(QQ, [q(-1), q(1), 0, 0, 0, q(1)])
    assert str(homogenize(c)) == "x^5+xz^4-z^5"
    assert str(homogenize(UniPoly.one(QQ))) == "1"
    assert str(dehomogenize(Form(GF2, [1, 1, 1]))) == "x^2+x+1"
    with pytest.raises(FieldError):
        dehomogenize(Form(GF2, [1, 0]))  # z is not a leading form


def test_homogenize_round_trip(any_field):
    rng = random.Random(2024)
    F = any_field
    for _ in range(1000):
        d = rng.randrange(0, 7)
        c = UniPoly(F, [F.random(rng) for _ in range(d)] + [F.one])
        f = homogenize(c)
        assert f.degree == c.degree and f.in_ll and f.is_monic
        assert dehomogenize(f) == c
    # and back from a random monic leading form
    for _ in range(1000):
        d = rng.randrange(0, 7)
        f = Form(F, [F.random(rng) for _ in range(d)] + [F.one])
        c = dehomogenize(f)
        assert c.degree == f.degree
        assert homogenize(c) == f


def test_form_gcd_examples():
    # generator pair of the rational example is coprime (gcd frozen by a
    # hand Euclidean run on the dehomogenized parts)
    f = Form(QQ, [q(-1), q(1), 0, 0, 0, q(1)])
    g = Form(QQ, [1, 1, 1, 1, 1, 0, 0])
    assert form_gcd(f, g) == Form(QQ, [1])
    assert form_gcd(Form(GF2, [0, 1, 0]), Form(GF2, [1, 0, 0])) == Form(GF2, [1, 0])
    got = form_gcd(Form(QQ, [q(2), q(2)]), Form.zero(QQ))
    assert got == Form(QQ, [1, 1])
    with pytest.raises(FieldError):
        form_gcd(Form.zero(QQ), Form.zero(QQ))


def test_form_gcd_divides(any_field):
    rng = random.Random(88)
    F = any_field
    for _ in range(200):
        da, db = rng.randrange(0, 4), rng.randrange(0, 4)
        a = Form(F, [F.random(rng) for _ in range(da + 1)])
        b = Form(F, [F.random(rng) for _ in range(db + 1)])
        if a.is_zero and b.is_zero:
            continue
        g = form_gcd(a, b)
        # the gcd of a common multiple pattern divides both:
        # verify by dividing the dehomogenized z-free parts
        for h in (a, b):
            if h.is_zero:
                continue
            top, _ = h.grlex_lt()
            w = UniPoly(F, h.coeffs[: top + 1])
            gt, _ = g.grlex_lt()
            wg = UniPoly(F, g.coeffs[: gt + 1])
            assert (w % wg).is_zero


def test_unipoly_divmod_and_gcd(any_field):
    rng = random.Random(4)
    F = any_field
    for _ in range(300):
        a = UniPoly(F, [F.random(rng) for _ in range(rng.randrange(0, 7))])
        b = UniPoly(F, [F.random(rng) for _ in range(rng.randrange(1, 5))])
        if b.is_zero:
            continue
        qq, r = divmod(a, b)
        assert qq * b + r == a
        assert r.degree < b.degree
        if not a.is_zero:
            g = unipoly_gcd(a, b)
            assert (a % g).is_zero and (b % g).is_zero and g.is_monic


def test_unipoly_eval_and_str():
    p = UniPoly(QQ, [q(-1), q(1), 0, 0, 0, q(1)])
    assert str(p) == "x^5+x-1"
    assert p(1) == Fraction(1)
    assert p(0) == Fraction(-1)
    assert str(UniPoly.zero(QQ)) == "0"
    assert UniPoly.zero(QQ).degree == -1


def test_cross_field_structures_raise():
    with pytest.raises(FieldError):
        Form(GF2, [1, 1]) + Form(GF(5), [1, 1])
    with pytest.raises(FieldError):
        apply(Form(GF2, [1, 1]), InverseForm(GF(5), [1]))


def test_form_and_unipoly_container_contract(any_field):
    F = any_field
    rng = random.Random(13)
    for _ in range(50):
        c = [F.random(rng) for _ in range(rng.randrange(1, 8))] + [F.one]
        f, p = Form(F, c), UniPoly(F, c)
        for a in (f, p):
            with pytest.raises(AttributeError):
                a.coeffs = ()
            with pytest.raises(AttributeError):
                a.field = F
            assert not hasattr(a, "__dict__")
            twin = type(a)(F, c)
            assert twin == a and hash(twin) == hash(a)
            assert repr(a) == f"{type(a).__name__}({F.name}, {a})"
            assert (a - a).is_zero and a - a == type(a).zero(F)
            with pytest.raises(FieldError):
                type(a).zero(F).monic()
        assert f != p and p != f
        assert homogenize(p) != p and homogenize(p) == f


@pytest.mark.parametrize("tag", sorted(FIELD_VALUES))
def test_raw_construction_equals_the_checked_one_property(tag):
    field, elements = FIELD_VALUES[tag]

    @settings(max_examples=60, deadline=None)
    @given(values=strategies.lists(strategies.one_of(strategies.just(0), elements), max_size=12))
    @example(values=[])
    @example(values=[0, 0, 0])
    @example(values=[1, 0, 0])
    @example(values=[0, 1, 0])
    def check(values):
        c = [field.coerce(v) for v in values]  # raw values of the field
        for cls in (Form, UniPoly):
            raw, checked = cls._raw(field, list(c)), cls(field, c)
            assert raw == checked and hash(raw) == hash(checked)
            assert raw.coeffs == checked.coeffs and raw.degree == checked.degree
            assert all(type(a) is type(field.zero) for a in raw.coeffs)

    check()


@pytest.mark.parametrize("field, value", [(GF2, 2), (QQ, 1.5), (GF(7), True)])
def test_public_constructors_still_check(field, value):
    for build in (Form, UniPoly, InverseForm):
        with pytest.raises(FieldError):
            build(field, [field.one, value])
