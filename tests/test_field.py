import random
import time
from fractions import Fraction

import pytest

from seqideal import (
    GF,
    GF2,
    QQ,
    FieldError,
    FieldMismatchError,
    ParseError,
    parse_element,
)
from seqideal.field import PRIME_BOUND, _is_prime, pack_bits, unpack_bits


def test_gf2_characteristic_two():
    assert GF2.add(1, 1) == 0
    assert GF2.mul(1, 1) == 1
    assert GF2.element(1) + GF2.element(1) == GF2.element(0)


def test_gf7_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.inv(3) == 5
    assert F.mul(3, F.inv(3)) == 1


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    a = QQ.element(Fraction(1, 2))
    assert (a + Fraction(1, 3)).value == Fraction(5, 6)


def test_inverse_of_zero_raises(any_field):
    with pytest.raises(ZeroDivisionError):
        any_field.inv(any_field.zero)


def test_parse_examples():
    assert GF(5).parse("-1") == 4
    assert QQ.parse("1/2") == Fraction(1, 2)
    assert parse_element("1/2", QQ).value == Fraction(1, 2)
    with pytest.raises(ParseError):
        GF2.parse("2")
    with pytest.raises(ParseError):
        GF2.parse("")
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        QQ.parse("1.5")
    with pytest.raises(ParseError):
        GF(7).parse("x")


def test_rationals_parse_only_a_or_a_over_b():
    assert QQ.parse("+3") == 3 and QQ.parse("-007") == -7
    assert QQ.parse("-4/6") == Fraction(-2, 3)
    # Fraction's own syntax goes further; 1e1000000 alone would build a
    # 3.3-million-bit integer
    for text in ("1e1000000", "1E3", "1_000", "1/-2", " 1", "1/", "/2", "\u0661", "inf", ""):
        with pytest.raises(ParseError, match="rationals are written a or a/b"):
            QQ.parse(text)


def test_prime_check():
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        GF(9)
    with pytest.raises(FieldError):
        GF(1)
    assert GF(2) is GF2  # the two-element field is the distinguished case
    assert GF(13).p == 13


def _by_trial_division(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    assert [p for p in range(-3, 20000) if _is_prime(p)] == [
        p for p in range(-3, 20000) if _by_trial_division(p)
    ]
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    assert not _is_prime(561)
    assert not _is_prime(3215031751)


def test_large_prime_moduli_are_decided_at_once():
    t0 = time.perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert GF(10**24 + 7).p == 10**24 + 7
    with pytest.raises(FieldError):
        GF(2**61 + 1)  # divisible by 3
    assert time.perf_counter() - t0 < 0.5
    # PRIME_BOUND is the least strong pseudoprime to all 13 bases, so
    # from there on the test refuses to answer
    for p in (PRIME_BOUND, 2**89 - 1):
        with pytest.raises(FieldError, match=str(PRIME_BOUND)):
            GF(p)


def test_field_identity():
    assert GF(7) == GF(7)
    assert GF(7) != GF(5)
    assert GF2 != QQ
    assert hash(GF(7)) == hash(GF(7))


def test_mismatched_fields_raise():
    a = GF(5).element(4)
    b = GF(7).element(4)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b
    with pytest.raises(FieldMismatchError):
        GF(7).coerce(a)


def test_gf2_coercion_is_strict():
    with pytest.raises(FieldError):
        GF2.coerce(2)
    assert GF(7).coerce(-1) == 6  # signed ints reduce over GF(p)
    assert QQ.coerce(3) == Fraction(3)
    with pytest.raises(FieldError):
        QQ.coerce(0.5)  # no floats anywhere


def test_element_wrapper_basics():
    a = GF(7).element(3)
    assert str(a) == "3"
    assert a.inv() == GF(7).element(5)
    assert (-a).value == 4
    assert bool(a) and not bool(GF(7).element(0))
    assert a != "junk"


def test_field_axioms_random(any_field):
    rng = random.Random(12345)
    F = any_field
    for _ in range(1000):
        a, b, c = F.random(rng), F.random(rng), F.random(rng)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one


def test_dot_and_submul_match_generic(any_field):
    rng = random.Random(99)
    F = any_field
    for _ in range(200):
        n = rng.randrange(1, 8)
        u = [F.random(rng) for _ in range(n)]
        v = [F.random(rng) for _ in range(n)]
        expected = F.zero
        for x, y in zip(u, v):
            expected = F.add(expected, F.mul(x, y))
        assert F.dot(u, v) == expected

        dst = [F.random(rng) for _ in range(n + 3)]
        src = [F.random(rng) for _ in range(n)]
        q = F.random(rng)
        want = list(dst)
        for i, s in enumerate(src):
            want[2 + i] = F.sub(want[2 + i], F.mul(q, s))
        got = list(dst)
        F.submul_at(got, 2, src, q)
        assert got == want


def test_gf2_bit_packing_round_trip():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 40)
        bits = [rng.randrange(2) for _ in range(n)]
        assert unpack_bits(pack_bits(bits), n) == bits


def test_finite_enumeration():
    assert list(GF2.elements()) == [0, 1]
    assert list(GF(5).elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(FieldError):
        list(QQ.elements())
