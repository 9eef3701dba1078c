"""Homogeneous bivariate forms, inverse forms, and the contraction action.

The objects here live in two graded rings over an exact field F:

* ``Form``: a homogeneous polynomial in F[x, z], stored densely by
  x-exponent.  ``coeffs[i]`` is the coefficient of ``x^i z^(degree-i)``.
  The grlex order with x above z reduces, on the monomials of a single
  form, to comparison of x-exponents, so the leading term is the nonzero
  coefficient of highest index.  A form whose leading term is free of z
  (top coefficient nonzero) is called *leading*; these are exactly the
  forms that dehomogenize without losing degree.

* ``InverseForm``: a homogeneous polynomial in F[x^-1, z^-1] of total
  degree m <= 0, which is the same data as the finite sequence
  (s_0, ..., s_{n-1}) with n = 1 - m: the coefficient of
  ``x^-j z^(m+j)`` is s_j.  All indexing in this module is by sequence
  position, so the sign conventions for the negative exponents are
  encoded here once and nowhere else.

* ``UniPoly``: an ordinary univariate polynomial over F, coefficients
  ascending, trailing zeros stripped.  The zero polynomial has degree -1
  by convention.

``Form`` and ``UniPoly`` are one container, a field and an immutable
coefficient tuple indexed by x-exponent, and share its construction,
comparison, printing, negation, scaling and normalization.

F[x, z] acts on F[x^-1, z^-1] by contraction: x^p z^q sends
x^-u z^-v to x^(p-u) z^(q-v) when both result exponents stay
non-positive and to zero otherwise.  ``apply`` implements the linear
extension of that rule; ``discrepancy`` extracts the single coefficient
of the product that obstructs an annihilator of a sequence from
surviving one more appended term.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import Field, FieldError, FieldMismatchError

__all__ = [
    "Form",
    "InverseForm",
    "UniPoly",
    "apply",
    "discrepancy",
    "homogenize",
    "dehomogenize",
    "form_gcd",
    "unipoly_gcd",
]


def _check_same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatchError(f"cannot mix {a.name} and {b.name}")


def _fmt_term(field: Field, c, xe: int, ze: int) -> str:
    mono = ""
    if xe == 1:
        mono += "x"
    elif xe != 0:
        mono += f"x^{xe}"
    if ze == 1:
        mono += "z"
    elif ze != 0:
        mono += f"z^{ze}"
    if not mono:
        return field.format(c)
    if c == field.one:
        return mono
    if c == field.neg(field.one):
        return "-" + mono
    return field.format(c) + mono


def _render(field: Field, terms) -> str:
    """The text of the nonzero (coefficient, x-exponent, z-exponent)
    terms in the order given, joined by signs; "0" when none is nonzero."""
    out = ""
    for c, xe, ze in terms:
        if field.is_zero(c):
            continue
        t = _fmt_term(field, c, xe, ze)
        if out:
            t = "-" + t[1:] if t.startswith("-") else "+" + t
        out += t
    return out or "0"


class _Coeffs:
    """A field and a dense coefficient tuple indexed by x-exponent, the
    data shared by ``Form`` and ``UniPoly``.  Instances are immutable;
    the zero value has no coefficients and degree -1.  The constructor
    checks values from outside through ``Field.coerce_all``; internal
    arithmetic builds through :meth:`_raw`, which checks nothing.  A
    subclass supplies the canonical form of its coefficients, its
    leading coefficient and the z-exponent each term prints with."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", self._canonical(field, field.coerce_all(coeffs)))

    @classmethod
    def _raw(cls, field: Field, raw: list):
        """Unchecked: raw is a fresh list of raw values of field, and may be consumed."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "coeffs", cls._canonical(field, raw))
        return obj

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, field: Field):
        return cls(field, ())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree (total degree for a form); -1 for zero."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self._leading() == self.field.one

    def monic(self):
        if self.is_zero:
            raise FieldError(f"cannot normalize the zero {type(self).__name__}")
        lc = self._leading()
        if lc == self.field.one:
            return self
        inv = self.field.inv(lc)
        mul = self.field.mul
        return self._raw(self.field, [mul(inv, c) for c in self.coeffs])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        return self._raw(self.field, [neg(c) for c in self.coeffs])

    def scale(self, c):
        c = self.field.coerce(c)
        mul = self.field.mul
        return self._raw(self.field, [mul(c, a) for a in self.coeffs])

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __str__(self) -> str:
        terms = ((self.coeffs[i], i, self._z_exp(i)) for i in range(self.degree, -1, -1))
        return _render(self.field, terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.field.name}, {self})"


class Form(_Coeffs):
    """A homogeneous polynomial in F[x, z], dense by x-exponent.

    The zero form is stored canonically with an empty coefficient tuple
    and reports degree -1; a nonzero form of degree d always carries
    exactly d + 1 coefficients, even when the top ones are zero (that is
    how z-divisible forms look).
    """

    __slots__ = ()

    @staticmethod
    def _canonical(field: Field, raw: list) -> tuple:
        # the zero form has no coefficients, whatever its degree was
        return () if all(field.is_zero(c) for c in raw) else tuple(raw)

    # -- constructors ----------------------------------------------------

    @classmethod
    def monomial(cls, field: Field, x_exp: int, z_exp: int, coeff=1) -> "Form":
        coeffs = [field.zero] * (x_exp + z_exp + 1)
        coeffs[x_exp] = field.coerce(coeff)
        return cls._raw(field, coeffs)

    # -- structure -------------------------------------------------------

    def grlex_lt(self):
        """Leading term under grlex with x above z: (x-exponent, coefficient)."""
        if self.is_zero:
            raise FieldError("zero form has no leading term")
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.field.is_zero(self.coeffs[i]):
                return i, self.coeffs[i]
        raise AssertionError("unreachable")

    @property
    def in_ll(self) -> bool:
        """True when z does not divide the leading term."""
        return bool(self.coeffs) and not self.field.is_zero(self.coeffs[-1])

    @property
    def z_divides(self) -> bool:
        """True when z divides the whole form."""
        return bool(self.coeffs) and self.field.is_zero(self.coeffs[-1])

    def _leading(self):
        return self.grlex_lt()[1]

    def _z_exp(self, i: int) -> int:
        return self.degree - i

    def eval_at_01(self):
        """Evaluate at x = 0, z = 1, which is the coefficient of z^degree."""
        return self.coeffs[0] if self.coeffs else self.field.zero

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise FieldError("sum of forms of unequal degree is not homogeneous")
        add = self.field.add
        return Form._raw(self.field, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if self.is_zero or other.is_zero:
            return Form.zero(self.field)
        # the same coefficients as univariate polynomials; their product
        # drops the top zeros of z-divisible factors, which z restores
        f = self.field
        p = UniPoly._raw(f, list(self.coeffs)) * UniPoly._raw(f, list(other.coeffs))
        return homogenize(p).shift(z_exp=self.degree + other.degree - p.degree)

    def shift(self, x_exp: int = 0, z_exp: int = 0) -> "Form":
        """Multiply by the monomial x^x_exp z^z_exp.

        An x shift moves the coefficients up; a z shift raises the degree
        and leaves the x-indexed coefficients where they are.
        """
        f = self.field
        return Form._raw(f, [f.zero] * x_exp + list(self.coeffs) + [f.zero] * z_exp)


class InverseForm:
    """A homogeneous inverse polynomial, indexed by sequence position.

    ``seq[j]`` is s_j, the coefficient of x^-j z^(m+j) where
    m = 1 - len(seq) is the total degree.  The all-zero sequence is a
    legal value even though most operations downstream treat it as a
    degenerate case.
    """

    __slots__ = ("field", "seq")

    def __init__(self, field: Field, seq: Iterable):
        object.__setattr__(self, "field", field)
        raw = tuple(field.coerce_all(seq))
        if not raw:
            raise FieldError("an inverse form needs at least one coefficient")
        object.__setattr__(self, "seq", raw)

    def __setattr__(self, *_):
        raise AttributeError("InverseForm is immutable")

    @classmethod
    def zero(cls, field: Field) -> "InverseForm":
        return cls(field, (field.zero,))

    @property
    def n(self) -> int:
        """Sequence length."""
        return len(self.seq)

    @property
    def m(self) -> int:
        """Total degree, always <= 0."""
        return 1 - len(self.seq)

    @property
    def is_zero(self) -> bool:
        return all(self.field.is_zero(c) for c in self.seq)

    @property
    def order(self) -> int:
        """Largest j with a nonzero coefficient of x^j, i.e. minus the
        index of the first nonzero sequence term."""
        for i, c in enumerate(self.seq):
            if not self.field.is_zero(c):
                return -i
        raise FieldError("the zero inverse form has no order")

    def coeff(self, j: int):
        """Raw coefficient of x^j z^(m-j) for m <= j <= 0."""
        if not self.m <= j <= 0:
            raise FieldError(f"exponent {j} outside [{self.m}, 0]")
        return self.seq[-j]

    def subform(self, j: int) -> "InverseForm":
        """The inverse form of the prefix (s_0, ..., s_-j).

        Defined for m <= j <= order, mirroring the recursive peeling of
        the top coefficient.
        """
        if self.is_zero:
            raise FieldError("the zero inverse form has no subforms")
        if not self.m <= j <= self.order:
            raise FieldError(f"subform index {j} outside [{self.m}, {self.order}]")
        return InverseForm(self.field, self.seq[: 1 - j])

    def augment(self, a) -> "InverseForm":
        """Append one term to the sequence (degree drops by one)."""
        return InverseForm(self.field, self.seq + (self.field.coerce(a),))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InverseForm)
            and self.field == other.field
            and self.seq == other.seq
        )

    def __hash__(self) -> int:
        return hash((self.field, self.seq))

    def __str__(self) -> str:
        m = self.m
        return _render(self.field, ((self.seq[-j], j, m - j) for j in range(m, 1)))

    def __repr__(self) -> str:
        return f"InverseForm({self.field.name}, {self})"


class UniPoly(_Coeffs):
    """Univariate polynomial over an exact field, coefficients ascending."""

    __slots__ = ()

    @staticmethod
    def _canonical(field: Field, raw: list) -> tuple:
        # trailing zeros are stripped, in place
        while raw and field.is_zero(raw[-1]):
            raw.pop()
        return tuple(raw)

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (field.one,))

    @classmethod
    def x_power(cls, field: Field, k: int) -> "UniPoly":
        return cls(field, [field.zero] * k + [field.one])

    def _leading(self):
        return self.coeffs[-1]

    def _z_exp(self, i: int) -> int:
        return 0

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        _check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        return UniPoly._raw(self.field, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.field)
        f = self.field
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not f.is_zero(a):
                f.submul_at(out, i, other.coeffs, f.neg(a))
        return UniPoly._raw(f, out)

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        return UniPoly._raw(self.field, [self.field.zero] * k + list(self.coeffs))

    def __divmod__(self, other: "UniPoly"):
        if not isinstance(other, UniPoly):
            return NotImplemented
        _check_same_field(self.field, other.field)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        db = other.degree
        inv_lb = f.inv(other.coeffs[-1])
        q = [f.zero] * max(0, len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if f.is_zero(c):
                continue
            factor = f.mul(c, inv_lb)
            q[i - db] = factor
            f.submul_at(rem, i - db, other.coeffs, factor)
        return UniPoly._raw(f, q), UniPoly._raw(f, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def __call__(self, a):
        """Evaluate by Horner's rule at a raw value or int; returns a raw
        value."""
        f = self.field
        a = f.coerce(a)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc


def unipoly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    _check_same_field(a.field, b.field)
    if a.is_zero and b.is_zero:
        raise FieldError("gcd of two zero polynomials is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# -- the contraction action ---------------------------------------------


def apply(phi: Form, F: InverseForm) -> InverseForm:
    """Contract the inverse form F by the form phi.

    Returns the inverse form of degree d = |phi| + |F| whose x^j z^(d-j)
    coefficient is the (j, d-j) coefficient of the Laurent product, for
    d <= j <= 0; when d > 0 the action collapses to zero and the zero
    inverse form is returned.
    """
    _check_same_field(phi.field, F.field)
    f = phi.field
    if phi.is_zero:
        return InverseForm.zero(f)
    e = phi.degree
    d = e + F.m
    if d > 0:
        return InverseForm.zero(f)
    n_in = F.n
    n_out = 1 - d
    seq = F.seq
    out = []
    for t in range(n_out):
        hi = min(e, n_in - 1 - t)
        # out[t] is the x^-t coefficient: sum of phi_i * s_{t+i}
        out.append(f.dot(phi.coeffs[: hi + 1], seq[t : t + hi + 1]))
    return InverseForm(f, out)


def discrepancy_window(field: Field, fcoeffs: Sequence, seq: Sequence, n: int):
    """Raw kernel: the obstruction coefficient of fcoeffs against the
    first n terms of seq.  Both arguments are raw coefficient sequences;
    fcoeffs is indexed by x-exponent and must be nonempty."""
    e = len(fcoeffs) - 1
    if e + 1 - n > 0:
        return field.zero
    off = n - 1 - e
    i0 = -off if off < 0 else 0
    return field.dot(fcoeffs[i0:], seq[off + i0 : off + e + 1])


def discrepancy(f: Form, G: InverseForm):
    """The single product coefficient at total x-degree |f| + |G| and
    z-degree zero; zero when |f| + |G| > 0.

    This is the dot product of f's coefficients against the tail of the
    sequence, never a full polynomial product.
    """
    _check_same_field(f.field, G.field)
    if f.is_zero:
        return f.field.zero
    return discrepancy_window(f.field, f.coeffs, G.seq, G.n)


# -- homogenization ------------------------------------------------------


def homogenize(c: UniPoly) -> Form:
    """The form z^|c| * c(x/z); degree preserving on nonzero input."""
    return Form._raw(c.field, list(c.coeffs))


def dehomogenize(f: Form) -> UniPoly:
    """Evaluate at z = 1; requires a leading form so the degree survives."""
    if not f.in_ll:
        raise FieldError("dehomogenizing a non-leading form would drop its degree")
    return UniPoly._raw(f.field, list(f.coeffs))


def form_gcd(a: Form, b: Form) -> Form:
    """Monic gcd of two forms.

    Every nonzero form factors as z^e times the homogenization of its
    dehomogenized z-free part, so the gcd is z^min(e_a, e_b) times the
    homogenized univariate gcd.
    """
    _check_same_field(a.field, b.field)
    if a.is_zero and b.is_zero:
        raise FieldError("gcd of two zero forms is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()

    def split(phi: Form):
        top, _ = phi.grlex_lt()
        return phi.degree - top, UniPoly._raw(phi.field, list(phi.coeffs[: top + 1]))

    ea, wa = split(a)
    eb, wb = split(b)
    w = unipoly_gcd(wa, wb)
    return homogenize(w).shift(z_exp=min(ea, eb))
