"""Independent reference implementations for cross-validation.

Three classics live here, deliberately sharing no code with the
synthesis engine:

* the Berlekamp-Massey LFSR synthesis algorithm, in its textbook
  connection-polynomial formulation (gamma stored ascending with
  gamma_0 = 1; note gamma may have degree below L), with its own
  bit-packed path over GF(2);
* a brute-force minimal polynomial finder that solves the defining
  linear recurrence system by Gaussian elimination, degree by degree;
* the extended-Euclidean construction of minimal polynomials from
  convergent denominators (Dai's construction for the binary case,
  written field-generically, with its own bit-packed cascade over GF(2)).

The connection-polynomial convention is the reverse of the natural
coefficient order used everywhere else in this package, so comparisons
against minimal polynomials should go through :func:`reciprocal`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .bivariate import UniPoly
from .field import GF2, Field, FieldError, pack_bits, unpack_bits

__all__ = [
    "BMResult",
    "berlekamp_massey",
    "BruteForceResult",
    "brute_force_min_poly",
    "satisfies_recurrence",
    "EAResult",
    "dai_ea",
    "reciprocal",
    "connection_equals",
]


class BMResult(NamedTuple):
    L: int
    gamma: UniPoly


def berlekamp_massey(seq: Sequence, field: Field) -> BMResult:
    """Shortest LFSR for a finite sequence.

    Returns the register length L (the linear complexity) and the
    connection polynomial gamma with gamma_0 = 1 satisfying
    gamma_0 s_j + ... + gamma_L s_(j-L) = 0 for L <= j <= n - 1.
    Over GF(2) the registers are bit-packed ints.
    """
    s = field.coerce_all(seq)
    if field == GF2:
        return _berlekamp_massey_packed(s)
    return _berlekamp_massey_lists(s, field)


def _berlekamp_massey_lists(s: list, field: Field) -> BMResult:
    """The textbook iteration on coefficient lists, for any field."""
    n = len(s)
    c = [field.one]  # current connection polynomial, ascending
    b = [field.one]  # copy from before the last length change
    L = 0
    m = 1            # steps since the last length change
    bb = field.one   # discrepancy at the last length change
    for j in range(n):
        # discrepancy of the current register against s_j
        hi = min(L, j, len(c) - 1)
        d = field.dot(c[: hi + 1], s[j - hi : j + 1][::-1])
        if field.is_zero(d):
            m += 1
            continue
        coef = field.div(d, bb)
        new_c = list(c) + [field.zero] * max(0, m + len(b) - len(c))
        field.submul_at(new_c, m, b, coef)
        if 2 * L <= j:
            b = c
            bb = d
            L = j + 1 - L
            m = 1
        else:
            m += 1
        c = new_c
    return BMResult(L, UniPoly._raw(field, c))


def _berlekamp_massey_packed(s: list) -> BMResult:
    """The same iteration over GF(2) on ints, bit i the coefficient of x^i.

    With s_0 at the top bit of r, bit i of r >> (n - 1 - j) is s_(j-i),
    so the discrepancy at step j is the parity of c masked by that
    window; the update c - (d / bb) x^m b is c ^ (b << m).
    """
    n = len(s)
    r = _packed(s)
    c = b = 1
    L = 0
    m = 1
    for j in range(n):
        if not (c & (r >> (n - 1 - j))).bit_count() & 1:
            m += 1
            continue
        new_c = c ^ (b << m)
        if 2 * L <= j:
            b = c
            L = j + 1 - L
            m = 1
        else:
            m += 1
        c = new_c
    return BMResult(L, _unpacked(c))


WITNESS_ENUMERATE_CAP = 1 << 16
ORACLE_LENGTH_BOUND = 16


class BruteForceResult(NamedTuple):
    """``witnesses`` is the set of all monic minimal polynomials, or None
    when that set is infinite or too many: over the rationals, or above
    WITNESS_ENUMERATE_CAP polynomials.  :func:`satisfies_recurrence`
    decides membership without the set."""

    lam: int
    witnesses: Optional[frozenset]


def _solve_affine(field: Field, rows: list[list], rhs: list, cols: int):
    """Solve rows * c = rhs over the field, for c with cols entries.

    Returns None when inconsistent, otherwise (particular, basis) where
    basis spans the homogeneous solutions.  Plain exact elimination; all
    arithmetic stays in the field so there is no rounding anywhere.
    """
    m = len(rows)
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    piv_of_col: dict[int, int] = {}
    r = 0
    for col in range(cols):
        sel = None
        for i in range(r, m):
            if not field.is_zero(a[i][col]):
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = field.inv(a[r][col])
        a[r] = [field.mul(inv, v) for v in a[r]]
        for i in range(m):
            if i != r and not field.is_zero(a[i][col]):
                fct = a[i][col]
                a[i] = [field.sub(v, field.mul(fct, w)) for v, w in zip(a[i], a[r])]
        piv_of_col[col] = r
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not field.is_zero(a[i][cols]):
            return None
    particular = [field.zero] * cols
    for col, row in piv_of_col.items():
        particular[col] = a[row][cols]
    free_cols = [c for c in range(cols) if c not in piv_of_col]
    basis = []
    for fc in free_cols:
        vec = [field.zero] * cols
        vec[fc] = field.one
        for col, row in piv_of_col.items():
            vec[col] = field.neg(a[row][fc])
        basis.append(vec)
    return particular, basis


def _span(field: Field, particular: list, basis: list):
    """All points of the affine space particular + <basis> (finite field)."""
    points = [list(particular)]
    for vec in basis:
        extended = []
        for p in points:
            for t in field.elements():
                if field.is_zero(t):
                    extended.append(p)
                else:
                    extended.append(
                        [field.add(pi, field.mul(t, vi)) for pi, vi in zip(p, vec)]
                    )
        points = extended
    return points


def brute_force_min_poly(seq: Sequence, field: Field) -> BruteForceResult:
    """Minimal polynomials straight from the defining recurrence.

    For each candidate degree l the linear system
    c_l s_(k+l) + ... + c_0 s_k = 0, 0 <= k <= n - l - 1, c_l = 1,
    is solved by exact Gaussian elimination; the first feasible l is the
    linear complexity (at l = n the system has no rows, so every monic
    polynomial of degree n is a witness).  Cost grows quickly, hence the
    length guard, ORACLE_LENGTH_BOUND.
    """
    s = field.coerce_all(seq)
    n = len(s)
    if n > ORACLE_LENGTH_BOUND:
        raise FieldError(f"brute force is limited to length {ORACLE_LENGTH_BOUND}, got {n}")
    l, (particular, basis) = _least_degree(s, field)
    if not basis:
        pts = [particular]
    elif not field.is_finite or field.order ** len(basis) > WITNESS_ENUMERATE_CAP:
        return BruteForceResult(l, None)
    else:
        pts = _span(field, particular, basis)
    polys = frozenset(UniPoly._raw(field, p + [field.one]) for p in pts)
    return BruteForceResult(l, polys)


def _least_degree(s: list, field: Field) -> tuple:
    """The least degree l whose recurrence system over the raw terms s
    is feasible, with its solution (particular, basis) from
    :func:`_solve_affine`; l is the linear complexity."""
    n = len(s)
    for l in range(n + 1):
        rows = [[s[k + i] for i in range(l)] for k in range(n - l)]
        rhs = [field.neg(s[k + l]) for k in range(n - l)]
        sol = _solve_affine(field, rows, rhs, l)
        if sol is not None:
            return l, sol
    raise AssertionError("unreachable: degree n is always feasible")


def satisfies_recurrence(c: UniPoly, seq: Sequence) -> bool:
    """Whether c_l s_(k+l) + ... + c_0 s_k = 0 for 0 <= k <= n - l - 1,
    l = deg c: a monic c of degree lambda is then a minimal polynomial,
    one of :func:`brute_force_min_poly`'s witnesses."""
    field = c.field
    s = field.coerce_all(seq)
    l = c.degree
    return all(
        field.is_zero(field.dot(c.coeffs, s[k : k + l + 1])) for k in range(len(s) - l)
    )


class EAResult(NamedTuple):
    """Convergent denominator c with the quotient and remainder-degree
    history of the division cascade; c_i = q_i c_(i-1) + c_(i-2) with
    c_(-1) = 0 and c_0 = 1."""

    c: UniPoly
    quotients: tuple
    remainder_degrees: tuple


def dai_ea(k: int, seq: Sequence, field: Field) -> EAResult:
    """Minimal polynomial of a 2k-term sequence by the division cascade.

    Runs the Euclidean algorithm on x^(2k) and the sequence polynomial
    s_0 x^(2k-1) + ... + s_(2k-1), accumulating convergent denominators,
    and stops at the first remainder of degree below k (or zero).  The
    quotients are signed so that r_i = q_i r_(i-1) + r_(i-2) holds
    verbatim; over GF(2) they are the plain division quotients, and the
    cascade runs on bit-packed ints.
    """
    if k < 1:
        raise FieldError("need k >= 1")
    s = field.coerce_all(seq)
    if len(s) != 2 * k:
        raise FieldError(f"need exactly {2 * k} terms, got {len(s)}")
    if field != GF2:
        return _dai_ea_lists(k, s, field)
    c, quotients, degrees = 1, [], []
    for quot, c, degree in _dai_steps(k, _packed(s)):
        quotients.append(quot)
        degrees.append(degree)
    polys = {q: _unpacked(q) for q in set(quotients)}  # immutable, so shared
    return EAResult(_unpacked(c), tuple(map(polys.get, quotients)), tuple(degrees))


def _dai_ea_lists(k: int, s: list, field: Field) -> EAResult:
    """The cascade on UniPoly coefficient lists, for any field."""
    r_prev = UniPoly.x_power(field, 2 * k)
    r_cur = UniPoly._raw(field, s[::-1])
    c_prev = UniPoly.zero(field)
    c_cur = UniPoly.one(field)
    quotients = []
    degrees = []
    while not r_cur.is_zero and r_cur.degree >= k:
        quot, rem = divmod(r_prev, r_cur)
        q = -quot
        c_prev, c_cur = c_cur, q * c_cur + c_prev
        r_prev, r_cur = r_cur, rem
        quotients.append(q)
        degrees.append(rem.degree)
    return EAResult(c_cur, tuple(quotients), tuple(degrees))


def _dai_steps(k: int, r: int):
    """(quotient, convergent, remainder degree) per step of the GF(2) cascade
    on x^(2k) and the 2k-term prefix r, on ints with bit i the coefficient
    of x^i (r as :func:`_packed` lays it out).  Each long-division step XORs
    the divisor, shifted by the quotient bit's degree, into the remainder
    and the convergent, shifted the same, into the next one, so q c_cur is
    never formed.  While every quotient has degree 1, the first j quotients
    and convergents are those of the first 2j terms: one cascade, every j."""
    r_prev, r_cur = 1 << (2 * k), r
    c_prev, c_cur = 0, 1
    while r_cur.bit_length() > k:  # nonzero with degree >= k
        db = r_cur.bit_length()
        quot, rem, c_next = 0, r_prev, c_prev
        while rem.bit_length() >= db:
            shift = rem.bit_length() - db
            quot ^= 1 << shift
            rem ^= r_cur << shift
            c_next ^= c_cur << shift
        c_prev, c_cur = c_cur, c_next
        r_prev, r_cur = r_cur, rem
        yield quot, c_cur, rem.bit_length() - 1


def _packed(s: list) -> int:
    """GF(2) terms as one int with s_0 at the top bit, bit len(s) - 1."""
    return pack_bits(s[::-1])


def _unpacked(mask: int) -> UniPoly:
    return UniPoly._raw(GF2, unpack_bits(mask, mask.bit_length()))


def reciprocal(c: UniPoly) -> UniPoly:
    """Coefficient reversal at deg c, made monic.

    An involution on polynomials with nonzero constant term; a zero
    constant term collapses the degree instead.
    """
    if c.is_zero:
        raise FieldError("the zero polynomial has no reciprocal")
    return UniPoly._raw(c.field, list(reversed(c.coeffs))).monic()


def connection_equals(bm: BMResult, c: UniPoly) -> bool:
    """Whether the connection polynomial matches the minimal polynomial c.

    gamma relates to c by coefficient reversal at degree L.  The reversal
    is taken on the zero-padded length L + 1 vector because gamma's top
    coefficient (c's constant term) may vanish, and it preserves
    gamma_0 = 1 as c's leading coefficient, so monic c compares exactly.
    """
    field = bm.gamma.field
    if c.field != field or c.degree != bm.L:
        return False
    padded = list(bm.gamma.coeffs)
    padded += [field.zero] * (bm.L + 1 - len(padded))
    return tuple(reversed(padded)) == c.coeffs
