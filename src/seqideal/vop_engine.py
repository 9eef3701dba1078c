"""Inductive construction of annihilator generator pairs.

Given a finite sequence over an exact field, this module builds a pair
of monic homogeneous forms (f, g) generating the annihilator ideal of
its inverse form: f is a leading form (z does not divide its leading
term), z divides g, and the total degrees satisfy |f| + |g| = n + 1 for
a length-n sequence.  Such a pair is called a viable ordered pair, VOP
for short.  The total degree of f is the linear complexity of the
sequence and its dehomogenization is a minimal polynomial.

The construction consumes one sequence term at a time.  Each step costs
one windowed dot product (the discrepancy) plus one coefficient update,
so a full synthesis is O(n^2) coefficient operations.  Because the state
after k terms is exactly the state needed for k + 1, the engine supports
streaming: callers may push terms as they arrive.

The per-prefix records (k, lambda_k, delta_k, d_k) form the linear
complexity profile.  A profile is perfect when lambda of every length-n
prefix is floor((n + 1) / 2); ``is_plcp`` tests that via the profile and
independently via the equivalent shift pattern of the construction, and
insists the two agree.

Over GF(p) with p below 2^63, ``VOPState`` itself (and so ``synthesize``)
keeps f and g as slot vectors, one int each with a residue per slot
(:class:`~seqideal.field.SlotVectors`), so an update is one Barrett pass
over every coefficient; GF(2), QQ and larger primes keep lists that the
field's ``submul_at`` updates.  On both kinds the discrepancy dots f's
coefficient list, unpacked once per update, with the sequence.

Over GF(2), ``synthesize_packed`` runs the same construction on
bit-packed forms (a :func:`~seqideal.field.pack_bits` mask and a total
degree, read back by :func:`packed_form`; the Rueppel loops use the same
format): a discrepancy is the parity of an AND and an update is an XOR
of shifted ints.  Over QQ, ``synthesize_rational`` runs it fraction-free
on primitive integer forms over their leading entries, with integer
pivots as multipliers and one divmod pass per step for the content.  Both
return exactly what ``synthesize`` returns, which stays the generic
engine and the reference for them; ``linear_complexity`` and
``minimal_polynomial`` pick the engine from the field.

Setting the environment variable SEQIDEAL_DEBUG_ASSERTS=1 makes every
step re-verify the pair invariants (leading/monic/z-divisibility, degree
sum, annihilation, coprimality).  That turns the engine cubic; it is a
debugging aid, not a production mode.  It also makes every fast-engine
result be checked against ``synthesize``.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product as _cartesian
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .bivariate import (
    Form,
    InverseForm,
    UniPoly,
    apply,
    dehomogenize,
    discrepancy_window,
    form_gcd,
)
from .field import GF2, QQ, Field, FieldError, SlotVectors, pack_bits, unpack_bits

__all__ = [
    "VOP",
    "packed_form",
    "ProfileEntry",
    "StepRecord",
    "VOPState",
    "EngineError",
    "synthesize",
    "synthesize_packed",
    "synthesize_rational",
    "synthesize_trace",
    "linear_complexity",
    "minimal_polynomial",
    "Theta",
    "minimal_leading_forms",
    "is_plcp",
    "random_plcp_sequence",
]


class EngineError(ValueError):
    pass


class VOP(NamedTuple):
    """A viable ordered pair.  ``degenerate`` marks the all-zero-input
    convention (f = 1, g = z^(n+1)), which keeps the degree-sum property
    formally true but does not describe a nonzero inverse form."""

    f: Form
    g: Form
    degenerate: bool = False


class ProfileEntry(NamedTuple):
    """Per-prefix record: after k + 1 terms the pair has f of degree
    ``lam``; ``delta`` is the discrepancy met when consuming term k + 1
    (None on the final entry) and ``d`` is |g| - |f| at that moment."""

    k: int
    lam: int
    delta: object
    d: int


class StepRecord(NamedTuple):
    """Trace row k: the (d, delta', delta, q) that produced the pair
    (f, g) for the first k + 1 terms.  Row 0 is the basis; its update
    fields are None."""

    k: int
    d: Optional[int]
    delta_prime: object
    delta: object
    q: object
    f: Form
    g: Form


def _debug_enabled() -> bool:
    return os.environ.get("SEQIDEAL_DEBUG_ASSERTS") == "1"


def _checked_basis(basis: tuple[Form, Form], t0: int) -> tuple[Form, Form]:
    """A caller's starting pair (f, g), once the first nonzero term is
    known to sit at index t0; raises EngineError unless t0 is 0 and the
    pair is valid for the one-term prefix."""
    if t0 != 0:
        raise EngineError("a custom basis only applies when the first term is nonzero")
    bf, bg = basis
    if not (bf.in_ll and bf.is_monic and bg.z_divides and bg.is_monic
            and bf.degree >= 1 and bf.degree + bg.degree == 2):
        raise EngineError("custom basis is not a valid pair for one term")
    return bf, bg


class _ListVectors:
    """f and g as lists of raw coefficients, updated in place by the
    field's own kernel: the vector kind of fields without slots."""

    def __init__(self, field: Field):
        self.field = field

    pack = copy = staticmethod(list)

    @staticmethod
    def unpack(v: list) -> list:
        return v

    def shift(self, v: list, d: int) -> list:
        return [self.field.zero] * d + v

    def submul(self, f: list, k: int, g: list, q) -> list:
        self.field.submul_at(f, k, g, q)
        return f


def _vectors(field: Field):
    """The vector kind of a state over field: slots over GF(p) for p below
    2^63, where a slot takes one or two 64-bit words, else lists."""
    if field.kind == "gfp" and field.p < 1 << 63:
        return SlotVectors(field.p)
    return _ListVectors(field)


class VOPState:
    """Mutable synthesis state. Feed terms with :meth:`push`, advance with
    :meth:`advance`, fork with :meth:`copy`.  A single state must be
    advanced sequentially; copies are independent."""

    def __init__(
        self,
        field: Field,
        trace: bool = False,
        basis: Optional[tuple[Form, Form]] = None,
    ):
        self.field = field
        self._buf: list = []          # all pushed terms, raw
        self._consumed = 0            # how many terms the pair accounts for
        self._active = False          # basis found (first nonzero term seen)
        self._vec = _vectors(field)   # list or slot vectors, per field
        self._fv = self._vec.pack([field.one])  # f as a vector
        self._gv = self._vec.pack([field.one])  # g's x-coefficients as a vector
        # f's coefficients by x-exponent as a list; _fv itself on lists
        self._f: list = self._vec.unpack(self._fv)
        self._gdeg = 1                # total degree of g
        self._d = 1                   # |g| - |f|
        self._dp = field.one          # last pivot discrepancy, never zero
        self._basis = basis           # replaces (x, z) when s_0 is nonzero
        self.profile: list[ProfileEntry] = []
        self.trace: Optional[list[StepRecord]] = [] if trace else None
        self._debug = _debug_enabled()

    # -- feeding ---------------------------------------------------------

    def push(self, a) -> "VOPState":
        self._buf.append(self.field.coerce(a))
        return self

    def push_many(self, seq) -> "VOPState":
        for a in seq:
            self.push(a)
        return self

    @property
    def pending(self) -> int:
        return len(self._buf) - self._consumed

    @property
    def consumed(self) -> int:
        return self._consumed

    # -- views -----------------------------------------------------------

    @property
    def d(self) -> int:
        return self._d

    def f_form(self) -> Form:
        return Form._raw(self.field, list(self._f))

    def g_form(self) -> Form:
        g = self._vec.unpack(self._gv)
        return Form._raw(self.field, g + [self.field.zero] * (self._gdeg + 1 - len(g)))

    def vop(self) -> VOP:
        return VOP(self.f_form(), self.g_form(), degenerate=not self._active)

    def copy(self) -> "VOPState":
        other = VOPState.__new__(VOPState)
        other.field = self.field
        other._buf = list(self._buf)
        other._consumed = self._consumed
        other._active = self._active
        other._vec = vec = self._vec
        other._fv = vec.copy(self._fv)
        other._gv = vec.copy(self._gv)
        other._f = vec.unpack(other._fv)
        other._gdeg = self._gdeg
        other._d = self._d
        other._dp = self._dp
        other.profile = list(self.profile)
        other.trace = None if self.trace is None else list(self.trace)
        other._debug = self._debug
        return other

    # -- the inductive step ------------------------------------------------

    def advance(self) -> "VOPState":
        """Consume one pending term."""
        if self.pending <= 0:
            raise EngineError("no pending terms to consume")
        field = self.field
        t = self._consumed  # index of the term being consumed
        a = self._buf[t]

        if not self._active:
            if t >= 1:
                # all-zero prefix so far: the degenerate pair (1, z^(t+1))
                self.profile.append(ProfileEntry(t - 1, 0, a, t + 1))
            if field.is_zero(a):
                self._gdeg += 1
                self._d += 1
                self._consumed += 1
                return self
            # basis: first nonzero term at index t gives order v = -t,
            # and the starting pair is (x^(1-v), z) unless the caller
            # supplied another valid pair for the one-term prefix
            v = -t
            if self._basis is not None:
                bf, bg = _checked_basis(self._basis, t)
                f = bf.coeffs
                top = max(i for i, c in enumerate(bg.coeffs) if not field.is_zero(c))
                g = bg.coeffs[: top + 1]
                self._gdeg = bg.degree
                self._d = bg.degree - bf.degree
            else:
                f = [field.zero] * (1 - v) + [field.one]
                g = [field.one]
                self._gdeg = 1
                self._d = v
            self._fv, self._gv = self._vec.pack(f), self._vec.pack(g)
            self._f = self._vec.unpack(self._fv)
            # the cogenerator's own discrepancy against the next prefix is
            # the first nonzero term itself (z-shifting each augmentation
            # keeps it constant until a pivot swap replaces it), so an
            # unnormalized leading term lands in the pivot here
            self._dp = a
            self._active = True
            self._consumed += 1
            if self.trace is not None:
                self.trace.append(
                    StepRecord(t, None, self._dp, None, None, self.f_form(), self.g_form())
                )
            if self._debug:
                self._assert_invariants()
            return self

        n_new = t + 1  # prefix length after this step
        k = t - 1      # index of the discrepancy being resolved
        d = self._d
        dp = self._dp
        delta = discrepancy_window(field, self._f, self._buf, n_new)
        q = field.div(delta, dp)
        fdeg = len(self._f) - 1
        self.profile.append(ProfileEntry(k, fdeg, delta, d))

        if not field.is_zero(delta):
            vec = self._vec
            if d <= 0:
                self._fv = vec.submul(self._fv, -d, self._gv, q)
            else:
                new_f = vec.submul(vec.shift(self._fv, d), 0, self._gv, q)
                self._fv, self._gv = new_f, self._fv
                self._gdeg = fdeg
                self._dp = delta
                self._d = -d
            self._f = vec.unpack(self._fv)
        self._gdeg += 1
        self._d += 1
        self._consumed += 1

        if self.trace is not None:
            self.trace.append(
                StepRecord(t, d, dp, delta, q, self.f_form(), self.g_form())
            )
        if self._debug:
            self._assert_invariants()
        return self

    def run(self) -> "VOPState":
        while self.pending:
            self.advance()
        return self

    def finish_profile(self) -> list[ProfileEntry]:
        """Profile including the closing entry for the full prefix."""
        out = list(self.profile)
        if self._consumed:
            out.append(
                ProfileEntry(self._consumed - 1, len(self._f) - 1, None, self._d)
            )
        return out

    # -- slow invariant checks (debug mode) --------------------------------

    def _assert_invariants(self):
        if not self._active:
            return
        f, g = self.f_form(), self.g_form()
        n = self._consumed
        G = InverseForm(self.field, self._buf[:n])
        ok = (
            f.in_ll
            and f.is_monic
            and g.z_divides
            and g.is_monic
            and f.degree + g.degree == n + 1
            and apply(f, G).is_zero
            and apply(g, G).is_zero
            and form_gcd(f, g) == Form(self.field, [self.field.one])
        )
        if not ok:
            raise AssertionError(
                f"pair invariants violated after {n} terms: f={f}, g={g}"
            )


# -- module-level operations ----------------------------------------------


def _run(F: InverseForm, trace: bool, basis=None):
    state = VOPState(F.field, trace=trace, basis=basis)
    state.push_many(F.seq)
    state.run()
    return state


def synthesize(F: InverseForm, basis: Optional[tuple[Form, Form]] = None):
    """Full synthesis: returns (vop, profile).

    The all-zero sequence yields the degenerate convention f = 1,
    g = z^(n+1) with the ``degenerate`` flag set.  A caller that knows a
    different valid pair for the one-term prefix may pass it as
    ``basis``; later pairs (though not the linear complexity) depend on
    that choice.
    """
    state = _run(F, trace=False, basis=basis)
    return state.vop(), state.finish_profile()


def synthesize_trace(F: InverseForm, basis: Optional[tuple[Form, Form]] = None):
    """Like :func:`synthesize` but also returns the per-step trace rows."""
    state = _run(F, trace=True, basis=basis)
    return state.vop(), state.finish_profile(), list(state.trace or [])


def packed_form(mask: int, deg: int) -> Form:
    """The GF(2) form of total degree deg whose x^i coefficient is bit i
    of mask; adding packed forms is XOR, x is a left shift, z raises deg."""
    return Form._raw(GF2, unpack_bits(mask, deg + 1))


def _zero_prefix(seq, profile: list) -> int:
    """Index t0 of the first nonzero term (len(seq) when there is none).

    Appends the profile entries of the all-zero prefix: after t zero
    terms the pair is the degenerate (1, z^(t+1)), and the entry records
    term t as the discrepancy it meets.  When every term is zero this
    also appends the closing entry, and the result is
    :func:`_degenerate_vop`.
    """
    n = len(seq)
    t0 = 0
    while t0 < n and not seq[t0]:
        t0 += 1
    for t in range(1, min(t0 + 1, n)):
        profile.append(ProfileEntry(t - 1, 0, seq[t], t + 1))
    if t0 == n:
        profile.append(ProfileEntry(n - 1, 0, None, n + 1))
    return t0


def _degenerate_vop(field: Field, n: int) -> VOP:
    """The all-zero convention f = 1, g = z^(n+1)."""
    g = Form._raw(field, [field.one] + [field.zero] * (n + 1))
    return VOP(Form._raw(field, [field.one]), g, degenerate=True)


def synthesize_packed(F: InverseForm, basis: Optional[tuple[Form, Form]] = None):
    """:func:`synthesize` over GF(2) on bit-packed forms; returns the same
    (vop, profile), bit for bit, and raises the same EngineError for a
    ``basis`` that does not apply.

    f, g and the sequence are ints (bit i is the x^i coefficient, or
    s_i), so the discrepancy is the parity of ``f & (s >> off)`` and the
    update is one XOR of a shifted g.  The branches are those of
    :meth:`VOPState.advance`, and ``basis`` only changes the starting
    pair; there is no trace or streaming here, and no per-step debug
    checks.
    """
    if F.field != GF2:
        raise EngineError(f"the packed engine needs GF(2), got {F.field.name}")
    seq = F.seq
    n = len(seq)
    profile: list[ProfileEntry] = []
    t0 = _zero_prefix(seq, profile)
    if t0 == n:
        return _degenerate_vop(GF2, n), profile
    # basis (x^(1+t0), z) for the first nonzero term s_t0, or the
    # caller's, then one step per term; |f| + |g| = t + 1 with |g| >= 1
    # keeps the offset t - |f| of the discrepancy window non-negative
    s = pack_bits(seq)
    if basis is None:
        f, fdeg, g, gdeg, d = 1 << (t0 + 1), t0 + 1, 1, 1, -t0
    else:
        bf, bg = _checked_basis(basis, t0)
        f, fdeg, g, gdeg = pack_bits(bf.coeffs), bf.degree, pack_bits(bg.coeffs), bg.degree
        d = gdeg - fdeg
    for t in range(t0 + 1, n):
        delta = (f & (s >> (t - fdeg))).bit_count() & 1
        profile.append(ProfileEntry(t - 1, fdeg, delta, d))
        if delta:
            if d <= 0:
                f ^= g << -d
            else:
                f, fdeg, g, gdeg, d = (f << d) ^ g, fdeg + d, f, fdeg, -d
        gdeg += 1
        d += 1
    profile.append(ProfileEntry(n - 1, fdeg, None, d))
    return VOP(packed_form(f, fdeg), packed_form(g, gdeg)), profile


def _primitive(v: list) -> list:
    """The integer vector v (v[-1] nonzero) divided by its content, in one
    divmod pass: an entry the candidate content does not divide shrinks
    it by one gcd and rescales the quotients so far by the ratio."""
    c = gcd(v[-1], v[0], v[len(v) // 2])
    out = []
    for i, x in enumerate(v):
        if c == 1:
            return out + v[i:]
        q, r = divmod(x, c)
        if r:
            c2 = gcd(c, r)
            out = [y * (c // c2) for y in out]
            q, c = x // c2, c2
        out.append(q)
    return out


def synthesize_rational(F: InverseForm):
    """:func:`synthesize` over QQ, fraction-free; returns the same
    (vop, profile), with equal reduced fractions in f, g and every
    profile delta.

    The sequence is scaled to integers s by the lcm L of its
    denominators.  f is the primitive integer vector fn over fn[-1] (f is
    monic), which holds the numerators of f's reduced fractions up to
    sign; g is gn over gn[-1], with the integer pivot eg met when g was
    f.  A discrepancy is the integer dot ef of fn with a window of s, and
    the update f - (delta / delta') x^k g is, up to a scalar,
    eg x^max(d,0) fn - ef x^max(-d,0) gn, made primitive by
    :func:`_primitive`.  The branches are those of
    :meth:`VOPState.advance` with the standard basis; there is no trace,
    custom basis or streaming here, and no per-step debug checks.
    """
    if F.field != QQ:
        raise EngineError(f"the rational engine needs QQ, got {F.field.name}")
    seq = F.seq
    n = len(seq)
    profile: list[ProfileEntry] = []
    t0 = _zero_prefix(seq, profile)
    if t0 == n:
        return _degenerate_vop(QQ, n), profile
    L = lcm(*(a.denominator for a in seq))
    s = [a.numerator * (L // a.denominator) for a in seq]
    # the basis is (x^(1+t0), z), and g's pivot is the first nonzero term
    fn = [0] * (t0 + 1) + [1]
    gn, eg, gdeg, d = [1], s[t0], 1, -t0
    for t in range(t0 + 1, n):
        fdeg = len(fn) - 1
        ef = sum(map(mul, fn, s[t - fdeg : t + 1]))
        profile.append(ProfileEntry(t - 1, fdeg, Fraction(ef, L * fn[-1]), d))
        if ef:
            new = [0] * max(d, 0) + [eg * c for c in fn]
            k = max(-d, 0)
            new[k : k + len(gn)] = [x - ef * c for x, c in zip(new[k:], gn)]
            if d > 0:
                gn, eg, gdeg, d = fn, ef, fdeg, -d
            fn = _primitive(new)
        gdeg += 1
        d += 1
    profile.append(ProfileEntry(n - 1, len(fn) - 1, None, d))
    f = Form._raw(QQ, [Fraction(c, fn[-1]) for c in fn])
    g = Form._raw(QQ, [Fraction(c, gn[-1]) for c in gn] + [QQ.zero] * (gdeg + 1 - len(gn)))
    return VOP(f, g), profile


def _synthesize_fast(F: InverseForm):
    """:func:`synthesize` on the fastest engine for F's field: GF(2) runs
    packed, QQ fraction-free, any other field generic.  Under
    SEQIDEAL_DEBUG_ASSERTS=1 a fast engine's result is checked against
    :func:`synthesize`."""
    # the fast engines return exactly what the generic one does
    engine = {GF2: synthesize_packed, QQ: synthesize_rational}.get(F.field, synthesize)
    vop, profile = engine(F)
    if engine is not synthesize and _debug_enabled() and synthesize(F) != (vop, profile):
        raise AssertionError(f"the {F.field.name} engine disagrees with synthesize")
    return vop, profile


def _as_inverse_form(seq, field: Optional[Field]) -> InverseForm:
    if isinstance(seq, InverseForm):
        return seq
    if field is None:
        raise EngineError("field must be given for raw sequences")
    return InverseForm(field, seq)


def linear_complexity(seq, field: Optional[Field] = None) -> int:
    """Linear complexity of a finite sequence (0 for the zero sequence)."""
    vop, _ = _synthesize_fast(_as_inverse_form(seq, field))
    return 0 if vop.degenerate else vop.f.degree


def minimal_polynomial(seq, field: Optional[Field] = None) -> UniPoly:
    """A monic minimal polynomial of the sequence (1 for the zero one)."""
    vop, _ = _synthesize_fast(_as_inverse_form(seq, field))
    return dehomogenize(vop.f)


# -- minimal leading forms -------------------------------------------------


THETA_ENUMERATE_CAP = 1 << 16


class Theta:
    """The monic leading annihilating forms of minimal degree.

    Either the single form f (when |g| > |f|) or the family
    f + psi * g over all forms psi of degree |f| - |g|.  The family can
    be expanded over a finite field, up to THETA_ENUMERATE_CAP forms;
    over the rationals it is infinite.
    """

    def __init__(self, f: Form, g: Form):
        self.f = f
        self.g = g
        self.unique = g.degree > f.degree
        self.psi_degree = None if self.unique else f.degree - g.degree

    def describe(self) -> str:
        return "unique" if self.unique else f"parametric({self.psi_degree})"

    def count(self) -> int:
        """Number of minimal leading forms (finite fields only)."""
        if self.unique:
            return 1
        order = self.f.field.order
        if order is None:
            raise FieldError("infinitely many minimal leading forms over QQ")
        return order ** (self.psi_degree + 1)

    def enumerate(self) -> set[Form]:
        """Expand the family; errors over an infinite field and above
        THETA_ENUMERATE_CAP forms."""
        if self.unique:
            return {self.f}
        field = self.f.field
        if not field.is_finite:
            raise FieldError("cannot enumerate minimal leading forms over QQ")
        if self.count() > THETA_ENUMERATE_CAP:
            raise EngineError(
                f"refusing to enumerate {self.count()} minimal leading forms"
                f" (the cap is {THETA_ENUMERATE_CAP})"
            )
        out = set()
        universe = list(field.elements())
        for coeffs in _cartesian(universe, repeat=self.psi_degree + 1):
            psi = Form._raw(field, list(coeffs))
            out.add(self.f if psi.is_zero else self.f + psi * self.g)
        return out


def minimal_leading_forms(vop: VOP) -> Theta:
    return Theta(vop.f, vop.g)


# -- profile utilities ------------------------------------------------------


def is_plcp(profile: Sequence[ProfileEntry]) -> bool:
    """Whether a synthesis profile is a perfect linear complexity profile.

    Perfect means the first term is nonzero and lambda of every length-n
    prefix equals floor((n + 1) / 2).  The equivalent step-level pattern
    (a nonzero discrepancy with d = 1 exactly at odd k) is evaluated as
    well and the two answers are required to agree.
    """
    if not profile:
        return False
    entries = list(profile)
    starts_nonzero = entries[0].lam == 1  # lambda of the first prefix
    by_profile = starts_nonzero and all(
        e.lam == (e.k + 2) // 2 for e in entries
    )
    by_shifts = starts_nonzero
    if starts_nonzero:
        for e in entries:
            if e.delta is None:
                continue
            is_shift = e.delta != 0 and e.d == 1
            if is_shift != (e.k % 2 == 1):
                by_shifts = False
                break
    if by_profile != by_shifts:
        raise AssertionError(
            "profile and shift criteria disagree; engine invariant broken"
        )
    return by_profile


def random_plcp_sequence(n: int, seed: int = 0) -> list[int]:
    """A binary sequence of length n with a perfect profile.

    Starts with 1 and picks each next bit so the discrepancy comes out 1
    at odd steps and pseudo-random at even ones, which forces the perfect
    profile while staying statistically close to a random sequence.
    """
    import random as _random

    if n < 1:
        raise EngineError("need n >= 1")
    rng = _random.Random(seed)
    # synthesize_packed's pair after s_0 = 1: s_t enters the discrepancy
    # through f's leading bit, so s_t is the target plus the parity taken
    # with bit t still 0, and the discrepancy comes out as the target
    s, f, fdeg, g, d = 1, 2, 1, 1, 0
    for t in range(1, n):
        delta = 1 if t % 2 == 0 else rng.randrange(2)
        s |= (delta ^ (f & (s >> (t - fdeg))).bit_count() & 1) << t
        if delta:
            if d <= 0:
                f ^= g << -d
            else:
                f, fdeg, g, d = (f << d) ^ g, fdeg + d, f, -d
        d += 1
    return unpack_bits(s, n)
