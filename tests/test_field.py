import random
import sys
import time
from decimal import Decimal
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
    ParseError,
    UniPoly,
)
from seqideal.field import (
    PRIME_BOUND,
    SlotVectors,
    _is_prime,
    field_from_tag,
    pack_bits,
    unpack_bits,
)


def test_gf2_characteristic_two():
    assert GF2.add(1, 1) == 0
    assert GF2.mul(1, 1) == 1
    assert GF2.add(GF2.coerce(1), GF2.coerce(1)) == GF2.coerce(0)


def test_gf7_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.inv(3) == 5
    assert F.mul(3, F.inv(3)) == 1


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert QQ.add(QQ.coerce(Fraction(1, 2)), QQ.coerce(Fraction(1, 3))) == Fraction(5, 6)


def test_inverse_of_zero_raises(any_field):
    with pytest.raises(ZeroDivisionError):
        any_field.inv(any_field.zero)


def test_parse_examples():
    assert GF(5).parse("-1") == 4
    assert QQ.parse("1/2") == Fraction(1, 2)
    assert QQ.parse("2/4") == Fraction(1, 2)
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
    # past int()'s digit limit the message names the limit, not the token
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        for text in ("1" * (limit + 1), "-1/" + "2" * (limit + 1)):
            with pytest.raises(ParseError, match=f"at most {limit} digits") as e:
                QQ.parse(text)
            assert f"got {limit + 1}" in str(e.value) and len(str(e.value)) < 100


def test_prime_field_parse_only_ascii_integers():
    F = GF(7)
    assert F.parse("+5") == 5 and F.parse("-1") == 6 and F.parse("0010") == 3
    # int alone would also take the separator, the spaces and the
    # Arabic-Indic digit one
    for text in ("1_000", " 1", "1 ", "\u0661", "+", "-", "", "0x1", "1.0"):
        with pytest.raises(ParseError, match="not an integer for GF\\(7\\)"):
            F.parse(text)
    # a token of any length reduces mod p, past int()'s 4300-digit limit too
    for p in (7, 2**61 - 1):
        for n in (640, 641, 5000, 12345):
            digits = "".join(str((i * 7 + 3) % 10) for i in range(n))
            want = sum(int(d) * pow(10, n - 1 - i, p) for i, d in enumerate(digits)) % p
            assert GF(p).parse(digits) == GF(p).parse("+" + digits) == want
            assert GF(p).parse("-" + digits) == -want % p


def test_field_from_tag_takes_only_ascii_moduli():
    assert field_from_tag("gf2") is GF2 and field_from_tag("q") is QQ
    assert field_from_tag("gfp:7") is GF(7) and field_from_tag("gfp:007") is GF(7)
    for tag in ("gfp:\u0667", "gfp:1_000_003", "gfp: 7", "gfp:7 ", "gfp:+7", "gfp:-7"):
        with pytest.raises(FieldError, match="needs a decimal modulus"):
            field_from_tag(tag)
    # more digits than PRIME_BOUND is past the bound, before int() sees them
    with pytest.raises(FieldError, match=f"below {PRIME_BOUND}, got a 5000-digit modulus"):
        field_from_tag("gfp:" + "1" * 5000)
    assert field_from_tag("gfp:" + "0" * 5000 + "7") is GF(7)


def test_prime_check():
    with pytest.raises(FieldError):
        GF(4)
    with pytest.raises(FieldError):
        GF(9)
    with pytest.raises(FieldError):
        GF(1)
    assert GF(2) is GF2  # the two-element field is the prime field at 2
    assert GF2.p == 2 and GF2.order == 2
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
    # GF(2) keeps its own kind and tag; gfp:2 names the same field
    assert GF2.kind == GF2.tag == "gf2" and GF2.name == "GF(2)" and GF2.order == 2
    assert field_from_tag("gfp:2") is GF2 and GF2 != GF(3)
    # its inherited prime-field arithmetic is XOR, AND and the identity
    for a in (0, 1):
        assert GF2.neg(a) == a and list(GF2.elements()) == [0, 1]
        for b in (0, 1):
            assert GF2.add(a, b) == GF2.sub(a, b) == a ^ b
            assert GF2.mul(a, b) == a & b
        assert GF2.div(a, 1) == a
    assert GF2.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF2.div(1, 0)


def test_mismatched_fields_raise():
    # raw values carry no field, so the containers refuse to mix fields
    a = Form(GF(5), [4])
    b = Form(GF(7), [4])
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b
    with pytest.raises(FieldMismatchError):
        UniPoly(GF(5), [4]) * UniPoly(GF(7), [4])


def test_gf2_coercion_is_strict():
    with pytest.raises(FieldError):
        GF2.coerce(2)
    assert GF(7).coerce(-1) == 6  # signed ints reduce over GF(p)
    assert QQ.coerce(3) == Fraction(3)
    with pytest.raises(FieldError):
        QQ.coerce(0.5)  # no floats anywhere


def test_rational_format_writes_values_past_the_int_digit_limit():
    # str() refuses an int of more than 4,300 digits; format writes it in full
    big = 7**6000  # 5,071 digits
    for a in (Fraction(big), Fraction(-big, 3), Fraction(3, big), Fraction(-2), Fraction(1, 3)):
        text = QQ.format(a)
        num, _, den = text.partition("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den or "1"))) == a
        if max(abs(a.numerator), a.denominator) < big:
            assert text == str(a)


def test_raw_kernels_basics():
    F = GF(7)
    assert F.format(3) == "3"
    assert F.inv(3) == 5
    assert F.neg(3) == 4
    assert not F.is_zero(3) and F.is_zero(0)
    with pytest.raises(FieldError):
        F.coerce("junk")


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


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0, 1, 1, 0],
        [True, False, 1],
        [1, 2, 0],
        [0, -1, 1],
        [1, 1.0],
        [0, "1"],
        [Fraction(1), 0],
        [True, Fraction(3, 2), "x"],
    ],
    ids=repr,
)
def test_coerce_all_matches_the_per_element_loop(any_field, values):
    # the same values, types and first error as coerce on each value
    try:
        want = [any_field.coerce(x) for x in values]
    except FieldError as e:
        with pytest.raises(FieldError) as got:
            any_field.coerce_all(values)
        assert str(got.value) == str(e)
        with pytest.raises(FieldError) as got:
            any_field.coerce_all(x for x in values)
        assert str(got.value) == str(e)
        return
    for got in (any_field.coerce_all(values), any_field.coerce_all(iter(values))):
        assert got == want and list(map(type, got)) == list(map(type, want))
        assert type(got) is list and got is not values


def test_gf2_bit_packing_round_trip():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 40)
        bits = [rng.randrange(2) for _ in range(n)]
        assert unpack_bits(pack_bits(bits), n) == bits


def _old_pack_bits(bits):
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise FieldError(f"not a bit: {b!r}")
        mask |= b << i
    return mask


def _old_unpack_bits(mask, n):
    return [(mask >> i) & 1 for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(mask=strategies.integers(0, (1 << 300) - 1), surplus=strategies.integers(-300, 40))
@example(mask=0, surplus=0)
@example(mask=0, surplus=5)
@example(mask=1 << 299, surplus=-299)
def test_bit_packing_matches_the_per_bit_loops(mask, surplus):
    # n below, at and above the bit length, and n = 0
    for n in (max(mask.bit_length() + surplus, 0), 0):
        bits = _old_unpack_bits(mask, n)
        got = unpack_bits(mask, n)
        assert got == bits and all(type(b) is int for b in got)
        want = _old_pack_bits(bits)
        for arg in (bits, tuple(bits), iter(bits), (b for b in bits), [bool(b) for b in bits]):
            got = pack_bits(arg)
            assert got == want and type(got) is int


_NON_BITS = [2, -1, 1.5, "1", True, 256, 1.0, None]


@pytest.mark.parametrize(
    "arg", [[b] for b in _NON_BITS] + [[1, 0, b, 1] for b in _NON_BITS] + ["101", 5]
)
def test_pack_bits_on_non_bits_behaves_as_the_per_bit_loop(arg):
    # the same FieldError text, or the same TypeError; True is a bit, and a
    # str or an int as the whole argument is refused as before
    args = (arg, iter(arg)) if isinstance(arg, list) else (arg,)
    try:
        want = _old_pack_bits(arg)
    except (FieldError, TypeError) as e:
        for a in args:
            with pytest.raises(type(e)) as got:
                pack_bits(a)
            assert type(got.value) is type(e) and str(got.value) == str(e)
    else:
        assert [pack_bits(a) for a in args] == [want] * len(args)


# one word per slot up to 2^31 - 1, two from 2^31 + 11 on; 2^63 - 25 is the
# largest prime that gets slots; over GF(41) the slot load 1599 makes
# Barrett's estimate fall two short, so both conditional subtractions run
SLOT_PRIMES = [3, 7, 41, 101, 2**31 - 1, 2**31 + 11, 2**32 - 5, 2**61 - 1, 2**63 - 25]


def _trimmed(v):
    # what SlotVectors.unpack returns: v up to its last nonzero entry
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


def test_slot_width_keeps_every_intermediate_inside_its_slot():
    for p in SLOT_PRIMES:
        sv = SlotVectors(p)
        assert sv.W == 64 * sv.words >= 2 * p.bit_length() + 2 > sv.W - 64
        assert sv.words == (1 if p < 2**31 else 2)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_slot_update_matches_the_list_kernel(p):
    # f - q x^shift g on every slot at once equals the per-coefficient
    # loop, from fresh masks and from masks longer than the operands
    F = GF(p)
    grown = SlotVectors(p)

    @settings(max_examples=50, deadline=None)
    @given(
        n=strategies.integers(0, 600),
        src_n=strategies.integers(0, 600),
        shift=strategies.integers(0, 600),
        q=strategies.sampled_from(["one", "minus_one", "random"]),
        full=strategies.booleans(),
        seed=strategies.integers(0, 2**32),
    )
    @example(n=600, src_n=600, shift=0, q="one", full=True, seed=0)
    @example(n=600, src_n=1, shift=599, q="minus_one", full=True, seed=0)
    @example(n=0, src_n=0, shift=0, q="random", full=False, seed=0)
    def check(n, src_n, shift, q, full, seed):
        # all-(p - 1) vectors with q = 1 load a slot with p^2 - p, the
        # most a nonzero q can put there
        rng = random.Random(seed)
        src_n = min(src_n, n)
        shift = min(shift, n - src_n)
        q = {"one": 1, "minus_one": p - 1, "random": rng.randrange(p)}[q]
        dst, src = ([p - 1 if full else rng.randrange(p) for _ in range(m)] for m in (n, src_n))
        want = list(dst)
        F.submul_at(want, shift, src, q)
        for sv in (SlotVectors(p), grown):
            got = sv.submul(sv.pack(dst), shift, sv.pack(src), q)
            assert sv.unpack(got) == _trimmed(want)

    check()
    assert grown.slots >= 600


def _barrett_shortfall(p, x):
    b = p.bit_length()
    return x // p - ((x >> b - 1) * ((1 << 2 * b) // p) >> b + 1)


@pytest.mark.parametrize("p, loads", [
    (41, [x for x in range(41 * 40) if _barrett_shortfall(41, x) == 2]),
    (2**31 + 11, [4611686039902224383]),
])
def test_slot_update_where_barrett_falls_two_short(p, loads):
    # slot loads f + (p - 1) g whose quotient estimate is two below x // p,
    # the case the second conditional subtraction of p is there for
    assert loads and all(_barrett_shortfall(p, x) == 2 for x in loads)
    g = [x // (p - 1) for x in loads]
    f = [x - (p - 1) * c for x, c in zip(loads, g)]
    want = list(f)
    GF(p).submul_at(want, 0, g, 1)
    sv = SlotVectors(p)
    assert sv.unpack(sv.submul(sv.pack(f), 0, sv.pack(g), 1)) == _trimmed(want)


@pytest.mark.parametrize("p", SLOT_PRIMES)
def test_slot_packing_round_trip(p):
    rng = random.Random(p)
    sv = SlotVectors(p)
    for v in ([], [0], [1], [0, 0, 3 % p], [p - 1] * 600):
        assert sv.unpack(sv.pack(v)) == _trimmed(v)
    for _ in range(200):
        v = [rng.choice((0, 1, p - 1, rng.randrange(p))) for _ in range(rng.randrange(601))]
        packed = sv.pack(v)
        assert packed == sum(c << sv.W * i for i, c in enumerate(v))
        assert sv.unpack(packed) == _trimmed(v)
        assert all(type(c) is int for c in sv.unpack(packed))


def test_finite_enumeration():
    assert list(GF2.elements()) == [0, 1]
    assert list(GF(5).elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(FieldError):
        list(QQ.elements())
