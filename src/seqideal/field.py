"""Exact field arithmetic for GF(2), GF(p) and the rationals.

Three field kinds sit behind one interface: the two-element field, prime
fields GF(p), and the rational numbers.  Scalars use a raw representation
chosen per field: the ints 0/1 for GF(2), residues in [0, p) for GF(p),
and ``fractions.Fraction`` (arbitrary precision, always reduced, positive
denominator) for the rationals.  All arithmetic is exact; floating point
is never used anywhere in this package.

A :class:`Field` instance owns the arithmetic on raw values (``add``,
``mul``, ``inv``, ...) plus two vector kernels (:meth:`Field.dot` and
:meth:`Field.submul_at`) that the synthesis engine calls in its inner
loops.  Raw values are the only scalar representation: containers
elsewhere in the package (forms, sequences, polynomials) store them,
use the kernels directly and hand them back, and refuse to combine
containers over different fields with :class:`FieldMismatchError`.

Parsing is deliberately asymmetric.  GF(2) accepts only the literal
tokens ``0`` and ``1``: a stray ``2`` in a keystream is a data error, not
a residue, and coercing it would hide the bug.  GF(p) accepts a signed
integer in ASCII decimal digits and reduces it mod p.  The rationals
accept ``a`` or ``a/b`` with ``b != 0``.
"""

from __future__ import annotations

import operator
import re
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
    p = None  # modulus for prime fields, None otherwise

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

    # -- conversions -----------------------------------------------------

    def coerce(self, x):
        """Validate x (a raw value or an int) into a raw value; the one
        place where values from outside the package are checked."""
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


class _GF2(Field):
    kind = "gf2"
    name = "GF(2)"
    tag = "gf2"
    order = 2

    def add(self, a, b):
        return a ^ b

    sub = add

    def mul(self, a, b):
        return a & b

    def neg(self, a):
        return a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(2)")
        return 1

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2)")
        return a

    def dot(self, u, v):
        return sum(map(operator.and_, u, v)) & 1

    def submul_at(self, dst, offset, src, q):
        if not q:
            return
        j = offset
        for s in src:
            if s:
                dst[j] ^= 1
            j += 1

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

    def elements(self):
        yield 0
        yield 1

    def random(self, rng):
        return rng.randrange(2)


_INTEGER = re.compile(r"[+-]?[0-9]+")


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
        return int(text) % self.p

    def elements(self):
        return iter(range(self.p))

    def random(self, rng):
        return rng.randrange(self.p)


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
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"not a rational: {text!r}") from None

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


GF2 = _GF2()
QQ = _Rationals()

_prime_fields: dict[int, _PrimeField] = {}


def GF(p: int) -> Field:
    """Return the field with p elements (p prime); GF(2) is a singleton."""
    if p == 2:
        return GF2
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
        return GF(int(tag[4:]))
    raise FieldError(f"unknown field {tag!r} (use gf2, gfp:<p> or q)")


def pack_bits(bits) -> int:
    """Pack an iterable of 0/1 into an int, index i at bit i: the GF(2)
    layout of sequences and (with their degree) of homogeneous forms."""
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise FieldError(f"not a bit: {b!r}")
        mask |= b << i
    return mask


def unpack_bits(mask: int, n: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(n)]
