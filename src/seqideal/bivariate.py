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


def _coerce_all(field: Field, values: Iterable) -> tuple:
    return tuple(field.coerce(v) for v in values)


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


def _join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += "-" + t[1:] if t.startswith("-") else "+" + t
    return out


class Form:
    """A homogeneous polynomial in F[x, z], dense by x-exponent.

    The zero form is stored canonically with an empty coefficient tuple
    and reports degree -1; a nonzero form of degree d always carries
    exactly d + 1 coefficients, even when the top ones are zero (that is
    how z-divisible forms look).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        object.__setattr__(self, "field", field)
        raw = _coerce_all(field, coeffs)
        if raw and all(field.is_zero(c) for c in raw):
            raw = ()
        object.__setattr__(self, "coeffs", raw)

    def __setattr__(self, *_):
        raise AttributeError("Form is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "Form":
        return cls(field, ())

    @classmethod
    def monomial(cls, field: Field, x_exp: int, z_exp: int, coeff=1) -> "Form":
        coeffs = [field.zero] * (x_exp + z_exp + 1)
        coeffs[x_exp] = field.coerce(coeff)
        return cls(field, coeffs)

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero form."""
        return len(self.coeffs) - 1

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
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.grlex_lt()[1] == self.field.one

    @property
    def z_divides(self) -> bool:
        """True when z divides the whole form."""
        return bool(self.coeffs) and self.field.is_zero(self.coeffs[-1])

    def monic(self) -> "Form":
        if self.is_zero:
            raise FieldError("cannot normalize the zero form")
        _, lc = self.grlex_lt()
        if lc == self.field.one:
            return self
        inv = self.field.inv(lc)
        return Form(self.field, [self.field.mul(inv, c) for c in self.coeffs])

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
        return Form(self.field, [add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Form":
        neg = self.field.neg
        return Form(self.field, [neg(c) for c in self.coeffs])

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

    def scale(self, c) -> "Form":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Form(self.field, [mul(c, a) for a in self.coeffs])

    def shift(self, x_exp: int = 0, z_exp: int = 0) -> "Form":
        """Multiply by the monomial x^x_exp z^z_exp.

        An x shift moves the coefficients up; a z shift raises the degree
        and leaves the x-indexed coefficients where they are.
        """
        if self.is_zero:
            return self
        f = self.field
        coeffs = [f.zero] * x_exp + list(self.coeffs) + [f.zero] * z_exp
        return Form(f, coeffs)

    # -- comparison / rendering ------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        d = self.degree
        terms = []
        for i in range(d, -1, -1):
            c = self.coeffs[i]
            if not self.field.is_zero(c):
                terms.append(_fmt_term(self.field, c, i, d - i))
        return _join_terms(terms)

    def __repr__(self) -> str:
        return f"Form({self.field.name}, {self})"


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
        raw = _coerce_all(field, seq)
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
        if self.is_zero:
            return "0"
        m = self.m
        terms = []
        for j in range(m, 1):
            c = self.seq[-j]
            if not self.field.is_zero(c):
                terms.append(_fmt_term(self.field, c, j, m - j))
        return _join_terms(terms)

    def __repr__(self) -> str:
        return f"InverseForm({self.field.name}, {self})"


class UniPoly:
    """Univariate polynomial over an exact field, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        self._set(field, list(_coerce_all(field, coeffs)))

    @classmethod
    def _raw(cls, field: Field, raw: list) -> "UniPoly":
        """Internal constructor for a list of values that are already raw
        elements of field, as arithmetic on raw values produces; skips
        the coercion and consumes the list."""
        p = cls.__new__(cls)
        p._set(field, raw)
        return p

    def _set(self, field: Field, raw: list):
        while raw and field.is_zero(raw[-1]):
            raw.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(raw))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (field.one,))

    @classmethod
    def x_power(cls, field: Field, k: int) -> "UniPoly":
        return cls(field, [field.zero] * k + [field.one])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if self.is_zero:
            raise FieldError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    def monic(self) -> "UniPoly":
        if self.is_zero:
            raise FieldError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        inv = self.field.inv(self.coeffs[-1])
        mul = self.field.mul
        return UniPoly(self.field, [mul(inv, c) for c in self.coeffs])

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        _check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        return UniPoly._raw(self.field, [add(x, y) for x, y in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        neg = self.field.neg
        return UniPoly._raw(self.field, [neg(c) for c in self.coeffs])

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

    def scale(self, c) -> "UniPoly":
        c = self.field.coerce(c)
        mul = self.field.mul
        return UniPoly(self.field, [mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "UniPoly":
        """Multiply by x^k."""
        if self.is_zero or k == 0:
            return self
        return UniPoly(self.field, [self.field.zero] * k + list(self.coeffs))

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not self.field.is_zero(c):
                terms.append(_fmt_term(self.field, c, i, 0))
        return _join_terms(terms)

    def __repr__(self) -> str:
        return f"UniPoly({self.field.name}, {self})"


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
    if c.is_zero:
        return Form.zero(c.field)
    return Form(c.field, c.coeffs)


def dehomogenize(f: Form) -> UniPoly:
    """Evaluate at z = 1; requires a leading form so the degree survives."""
    if not f.in_ll:
        raise FieldError("dehomogenizing a non-leading form would drop its degree")
    return UniPoly(f.field, f.coeffs)


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
        return phi.degree - top, UniPoly(phi.field, phi.coeffs[: top + 1])

    ea, wa = split(a)
    eb, wb = split(b)
    w = unipoly_gcd(wa, wb)
    return homogenize(w).shift(z_exp=min(ea, eb))
