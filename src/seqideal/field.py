"""Exact field arithmetic for GF(2), GF(p) and the rationals.

Two field kinds sit behind one interface: prime fields GF(p) and the
rational numbers.  GF(2) is the prime field at p = 2; it shares GF(p)'s
arithmetic and keeps only its own token rules and a list kernel on bits.
Scalars use a raw representation chosen per field: residues in [0, p)
for GF(p), so the ints 0/1 for GF(2), and ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator) for the
rationals.  All arithmetic is exact; floating point is never used
anywhere in this package.

A :class:`Field` instance owns the arithmetic on raw values (``add``,
``mul``, ``inv``, ...) plus three vector kernels on lists: :meth:`Field.dot`
and :meth:`Field.submul_at`, which the list-based inner loops call (the
generic engine over GF(2) and QQ, the oracles and the polynomial
containers), and :meth:`Field.coerce_all`, which validates a whole
sequence once, where it enters the package through a public container
or oracle.
Raw values are the only scalar representation: containers elsewhere in
the package (forms, sequences, polynomials) store them, use the kernels
directly, build results from them unchecked and hand them back, and
refuse to mix fields with :class:`FieldMismatchError`.

This module also owns the packed vector formats.  GF(2) vectors are
ints with entry i at bit i (:func:`pack_bits`, :func:`unpack_bits`).
GF(p) vectors with p below 2^63 can be ints of W-bit slots
(:class:`SlotVectors`), entry i in slot i, with W the smallest multiple
of 64 with W >= 2b + 2 for b = p.bit_length().  That margin
lets f - q x^k g run on every slot at once, as a few whole-int
operations: a shifted multiply-add, one Barrett reduction of all slots
(Barrett, CRYPTO '86) and two masked conditional subtractions of p,
with no carry from one slot into the next.

Parsing is deliberately asymmetric.  GF(2) accepts only the literal
tokens ``0`` and ``1``: a stray ``2`` in a keystream is a data error, not
a residue, and coercing it would hide the bug.  GF(p) accepts a signed
integer in ASCII decimal digits, of any length, and reduces it mod p.
The rationals accept ``a`` or ``a/b`` with ``b != 0``.
"""

from __future__ import annotations

import operator
import re
import sys
from array import array
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "Field",
    "FieldError",
    "FieldMismatchError",
    "ParseError",
    "GF2",
    "QQ",
    "GF",
    "pack_bits",
    "unpack_bits",
    "SlotVectors",
]


class FieldError(ValueError):
    """Base class for field-level errors."""


class FieldMismatchError(FieldError):
    """Raised when values from different fields are combined."""


class ParseError(FieldError):
    """Raised when a token cannot be parsed as a field element."""


# Miller-Rabin with the 13 prime bases 2..41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError at or above
    PRIME_BOUND, where the fixed bases no longer decide primality."""
    if p >= PRIME_BOUND:
        raise FieldError(f"prime moduli must be below {PRIME_BOUND}, got {p}")
    if p < 2:
        return False
    for b in PRIME_BASES:
        if p % b == 0:
            return p == b
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Descriptor and raw-value arithmetic for one exact field.

    Subclasses fix the raw representation, set ``name`` and ``tag``, and
    override the kernels.  Two Field objects compare equal iff they
    describe the same field.
    """

    kind: str = ""
    name: str = ""  # GF(2), GF(7) or QQ
    tag: str = ""  # short machine tag used in reports: gf2, gfp:7 or q
    p = None  # the modulus of GF(p), 2 for GF(2); None only for QQ

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return self.name

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    order = None  # number of elements, None when infinite

    # -- scalar kernels (raw values in, raw values out, no checking) ----

    zero = 0
    one = 1

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    # -- vector kernels --------------------------------------------------

    def dot(self, u, v):
        """Sum of u[i] * v[i] over equal-length raw sequences."""
        raise NotImplementedError

    def submul_at(self, dst, offset, src, q):
        """In place dst[offset + i] -= q * src[i] for all i."""
        raise NotImplementedError

    def coerce_all(self, values) -> list:
        """A new list of :meth:`coerce` applied to each of values, in
        order; the first bad value raises coerce's error."""
        return [self.coerce(x) for x in values]

    # -- conversions -----------------------------------------------------

    def coerce(self, x):
        """Validate x (a raw value or an int) into a raw value; with
        :meth:`coerce_all`, the one check on values from outside."""
        raise NotImplementedError

    def parse(self, text: str):
        """Parse a text token into a raw value."""
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def elements(self):
        """Iterate over all raw values of a finite field."""
        raise FieldError(f"{self.name} is not finite")

    def random(self, rng):
        raise NotImplementedError

    def random_nonzero(self, rng):
        while True:
            a = self.random(rng)
            if not self.is_zero(a):
                return a


_INTEGER = re.compile(r"[+-]?[0-9]+")
# int() converts this many decimal digits under any digit limit
# (sys.int_info.str_digits_check_threshold)
_CHUNK = 640


class _PrimeField(Field):
    kind = "gfp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"GF(p) needs a prime modulus, got {p}")
        self.p = p
        self.order = p
        self.name = f"GF({p})"
        self.tag = f"gfp:{p}"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return pow(a, self.p - 2, self.p)

    def dot(self, u, v):
        return sum(map(operator.mul, u, v)) % self.p

    def submul_at(self, dst, offset, src, q):
        p = self.p
        j = offset
        for s in src:
            dst[j] = (dst[j] - q * s) % p
            j += 1

    def coerce(self, x):
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p
        raise FieldError(f"not a {self.name} value: {x!r}")

    def parse(self, text: str):
        # int alone would also take 1_000, spaces and non-ASCII digits
        if not _INTEGER.fullmatch(text):
            raise ParseError(f"not an integer for {self.name}: {text!r}")
        p, r = self.p, 0
        digits = text.lstrip("+-")
        for i in range(0, len(digits), _CHUNK):  # Horner, a chunk at a time
            chunk = digits[i : i + _CHUNK]
            r = (r * 10 ** len(chunk) + int(chunk)) % p
        return -r % p if text[0] == "-" else r

    def elements(self):
        return iter(range(self.p))

    def random(self, rng):
        return rng.randrange(self.p)


class _GF2(_PrimeField):
    kind = "gf2"

    def __init__(self):
        super().__init__(2)
        self.tag = "gf2"

    def submul_at(self, dst, offset, src, q):
        if not q:
            return
        j = offset
        for s in src:
            if s:
                dst[j] ^= 1
            j += 1

    def coerce_all(self, values) -> list:
        xs = list(values)
        if set(map(type, xs)) <= {int, bool} and set(xs) <= {0, 1}:
            return list(map(int, xs))
        return super().coerce_all(xs)  # raises at the first bad value

    def coerce(self, x):
        if isinstance(x, bool):
            return int(x)
        if isinstance(x, int) and x in (0, 1):
            return x
        raise FieldError(f"not a GF(2) value: {x!r}")

    def parse(self, text: str):
        if text == "0":
            return 0
        if text == "1":
            return 1
        raise ParseError(f"GF(2) accepts only the tokens 0 and 1, got {text!r}")


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class _Rationals(Field):
    kind = "q"
    name = "QQ"
    tag = "q"
    order = None

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b

    def dot(self, u, v):
        acc = Fraction(0)
        for x, y in zip(u, v):
            acc += x * y
        return acc

    def submul_at(self, dst, offset, src, q):
        j = offset
        for s in src:
            dst[j] = dst[j] - q * s
            j += 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldError(f"not a rational value: {x!r}")

    def parse(self, text: str):
        # Fraction alone would also take 1e1000000, 1E3 and 1_000
        if not _RATIONAL.fullmatch(text):
            raise ParseError(f"rationals are written a or a/b, got {text!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ParseError(f"not a rational: {text!r}") from None
        except ValueError:  # after the regex, only int()'s digit limit
            n = max(map(len, text.lstrip("+-").split("/")))
            raise ParseError(
                f"rationals take at most {sys.get_int_max_str_digits()} digits"
                f" in a and in b, got {n}"
            ) from None

    def format(self, a) -> str:
        try:
            return str(a)
        except ValueError:  # int's str digit limit; Decimal writes any int exactly
            num, den = str(Decimal(a.numerator)), str(Decimal(a.denominator))
            return num if den == "1" else f"{num}/{den}"

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


GF2 = _GF2()
QQ = _Rationals()

_prime_fields: dict[int, _PrimeField] = {2: GF2}


def GF(p: int) -> Field:
    """Return the field with p elements (p prime), one instance per p."""
    f = _prime_fields.get(p)
    if f is None:
        f = _PrimeField(p)
        _prime_fields[p] = f
    return f


def field_from_tag(tag: str) -> Field:
    """Inverse of Field.tag: gf2, gfp:<p> or q."""
    if tag == "gf2":
        return GF2
    if tag == "q":
        return QQ
    if tag.startswith("gfp:"):
        if not re.fullmatch(r"[0-9]+", tag[4:]):
            raise FieldError(
                f"field {tag!r} needs a decimal modulus (use gf2, gfp:<p> or q)"
            )
        digits = tag[4:].lstrip("0") or "0"
        if len(digits) > len(str(PRIME_BOUND)):  # int() may refuse that many
            raise FieldError(
                f"prime moduli must be below {PRIME_BOUND},"
                f" got a {len(digits)}-digit modulus"
            )
        return GF(int(digits))
    raise FieldError(f"unknown field {tag!r} (use gf2, gfp:<p> or q)")


_BIT_DIGITS, _DIGIT_BITS = bytes.maketrans(b"\0\1", b"01"), bytes.maketrans(b"01", b"\0\1")


def pack_bits(bits) -> int:
    """Pack an iterable of 0/1 into an int, index i at bit i: the GF(2)
    layout of sequences and (with their degree) of homogeneous forms.  A
    non-bit falls to the per-bit loop, which names it."""
    bits = list(bits)
    try:
        raw = bytes(bits)
        if not raw.translate(None, b"\0\1"):
            return int(raw[::-1].translate(_BIT_DIGITS) or b"0", 2)
    except (TypeError, ValueError):
        pass
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise FieldError(f"not a bit: {b!r}")
        mask |= b << i
    return mask


def unpack_bits(mask: int, n: int) -> list[int]:
    """Bits 0..n-1 of mask >= 0, from its zero-filled binary digits."""
    return list(format(mask, f"0{n}b")[: -n - 1 : -1].encode().translate(_DIGIT_BITS))


class SlotVectors:
    """GF(p) vectors packed as ints of W-bit slots, with the update
    f - q x^k g done on every slot at once; one instance per synthesis
    state, shared by its copies.

    A vector of n coefficients is an int whose slot i (bits W*i up to
    W*(i + 1)) holds the residue c_i in [0, p), so x^k is a shift by W*k
    bits.  W is 64 bits per word times ``words``, the fewest words with
    W >= 2b + 2 for b = p.bit_length(): one word below 2^31, two up to
    2^63.  The per-slot masks of the Barrett pass cover ``slots`` slots
    and double when an operand outgrows them; the slots above a shorter
    operand stay zero through every mask.
    """

    def __init__(self, p: int):
        b = p.bit_length()
        self.p, self.b = p, b
        self.words = -(-(2 * b + 2) // 64)
        self.W = 64 * self.words
        self.m = (1 << 2 * b) // p  # Barrett's constant
        self.slots = 0
        self.M = self.K = self.H = 0

    def _spread(self, c: int, n: int) -> int:
        return int.from_bytes(c.to_bytes(8 * self.words, "little") * n, "little")

    def _grow(self, n: int):
        # M takes a slot's b + 1 bits; the top bit of r + K is set
        # exactly where a residue r < 2^(W - 1) is at least p
        n = max(n, 2 * self.slots)
        self.M = self._spread((1 << self.b + 1) - 1, n)
        self.K = self._spread((1 << self.W - 1) - self.p, n)
        self.H = self._spread(1 << self.W - 1, n)
        self.slots = n

    def pack(self, coeffs) -> int:
        """The vector of raw residues coeffs, entry i in slot i."""
        a = array("Q", bytes(8 * self.words * len(coeffs)))
        a[:: self.words] = array("Q", coeffs)
        if sys.byteorder == "big":
            a.byteswap()
        return int.from_bytes(a, "little")

    def unpack(self, v: int) -> list:
        """The residues of v up to its last nonzero slot, as a list."""
        a = array("Q", v.to_bytes(8 * self.words * -(-v.bit_length() // self.W), "little"))
        if sys.byteorder == "big":
            a.byteswap()
        return a[:: self.words].tolist()

    def copy(self, v: int) -> int:
        return v

    def shift(self, v: int, d: int) -> int:
        """x^d v."""
        return v << self.W * d

    def submul(self, f: int, k: int, g: int, q) -> int:
        """f - q x^k g, reduced into [0, p) in every slot."""
        p, b, W = self.p, self.b, self.W
        x = f + ((p - q) * g << W * k)  # every slot below p^2 <= 2^(2b)
        if x.bit_length() > W * self.slots:
            self._grow(-(-x.bit_length() // W))
        M, K, H = self.M, self.K, self.H
        t = ((((x >> b - 1) & M) * self.m) >> b + 1) & M
        r = x - t * p  # every slot in [0, 3p)
        r -= (((r + K) & H) >> W - 1) * p
        r -= (((r + K) & H) >> W - 1) * p
        return r
