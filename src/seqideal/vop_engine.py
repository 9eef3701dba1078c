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

One loop, in :class:`VOPState`, owns the inductive step for every engine:
the zero prefix, the basis, the profile entries, the swap rule and the
bookkeeping of |g| - |f|.  A kernel per representation of f and g
supplies the rest: the discrepancy at step t, the update f - q x^k g
(q the discrepancy over the pivot) with or without the swap, and the
conversion to and from the coefficient lists of forms.  ``VOPState``
and so ``synthesize`` run on lists that the field's ``submul_at``
updates, or over GF(p) with p below 2^63 on slot vectors, one int each
with a residue per slot (:class:`~seqideal.field.SlotVectors`), so an
update is one Barrett pass.  The fast entries run that loop once to
the end, never one ``advance`` per term, each on its own kernel:
``synthesize_packed`` over GF(2) on bit-packed forms (a
:func:`~seqideal.field.pack_bits` mask, read back by
:func:`packed_form`; the Rueppel loops use the same format), where a
discrepancy is the parity of an AND and an update an XOR of shifted
ints; ``synthesize_rational`` over QQ on primitive integer vectors; and
``random_plcp_sequence`` on bit-packed forms over a sequence it writes
as it goes.  They return exactly what ``synthesize`` returns;
``linear_complexity`` and ``minimal_polynomial`` pick the kernel from
the field.

Setting the environment variable SEQIDEAL_DEBUG_ASSERTS=1 makes every
``advance`` re-verify the pair invariants (leading/monic/z-divisibility,
degree sum, annihilation, coprimality).  That turns the engine cubic; it
is a debugging aid, not a production mode.  It also makes every
fast-engine result be checked against ``synthesize``.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from itertools import product as _cartesian
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .bivariate import (
    Form,
    InverseForm,
    UniPoly,
    _check_same_field,
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


def _checked_basis(basis: tuple[Form, Form], t0: int, field: Field):
    """A caller's pair (f, g) over field for the one-term prefix, once the
    first nonzero term is known to sit at index t0: f's coefficients, g's
    up to its last nonzero one, and |g|.  Raises FieldMismatchError for a
    pair over another field and EngineError for one that does not apply."""
    bf, bg = basis
    _check_same_field(bf.field, field)
    _check_same_field(bg.field, field)
    if t0 != 0:
        raise EngineError("a custom basis only applies when the first term is nonzero")
    if not (bf.in_ll and bf.is_monic and bg.z_divides and bg.is_monic
            and bf.degree >= 1 and bf.degree + bg.degree == 2):
        raise EngineError("custom basis is not a valid pair for one term")
    top = max(i for i, c in enumerate(bg.coeffs) if not field.is_zero(c))
    return bf.coeffs, bg.coeffs[: top + 1], bg.degree


# -- kernels ------------------------------------------------------------------
#
# A kernel holds f and g as vectors of one representation.  pack and unpack
# convert a coefficient list to a vector and back (up to the last nonzero
# entry), and copy forks a vector.  disc(buf, t, f, fdeg) is the discrepancy
# of f, of total degree fdeg, against s_0..s_t, buf holding the pushed terms;
# update(f, g, d, delta, dp) is f - (delta / dp) x^-d g for d <= 0, else
# x^d f - (delta / dp) g, and leaves g as it is.


class _ListVectors:
    """The list kernel: raw coefficient lists that the field's own kernels
    update in place; the kernel of fields without slots."""

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

    def disc(self, buf, t: int, f, fdeg: int):
        return discrepancy_window(self.field, self.unpack(f), buf, t + 1)

    def update(self, f, g, d: int, delta, dp):
        q = self.field.div(delta, dp)
        return self.submul(f, -d, g, q) if d <= 0 else self.submul(self.shift(f, d), 0, g, q)


class _SlotKernel(SlotVectors):
    """GF(p) slot vectors with the list kernel's step: the discrepancy dots
    f's unpacked residues, and an update is one Barrett pass."""

    def __init__(self, field: Field):
        super().__init__(field.p)
        self.field = field

    disc, update = _ListVectors.disc, _ListVectors.update


def _vectors(field: Field):
    """The kernel of a state over field: slots over GF(p) for p below
    2^63, where a slot takes one or two 64-bit words, else lists."""
    if field.kind == "gfp" and field.p < 1 << 63:
        return _SlotKernel(field)
    return _ListVectors(field)


class _PackedBits:
    """GF(2) vectors as ints, bit i the x^i coefficient, over the sequence
    packed alike: a discrepancy is the parity of an AND, an update one XOR."""

    field = GF2
    pack, copy = staticmethod(pack_bits), staticmethod(int)

    def __init__(self, seq):
        self.s = pack_bits(seq)

    @staticmethod
    def unpack(v: int) -> list:
        return unpack_bits(v, v.bit_length())

    def disc(self, buf, t: int, f: int, fdeg: int) -> int:
        return (f & (self.s >> (t - fdeg))).bit_count() & 1

    @staticmethod
    def update(f: int, g: int, d: int, delta, dp) -> int:
        return f ^ (g << -d) if d <= 0 else (f << d) ^ g


class _PerfectProfileBits(_PackedBits):
    """The packed kernel over a sequence it writes as it goes: the
    discrepancy at step t is to be 1 at even t and a draw from rng at odd
    t.  s_t enters it through f's leading bit, so bit t is that target
    XOR the parity taken with bit t still 0."""

    def __init__(self, rng):
        self.s, self.rng = 1, rng

    def disc(self, buf, t: int, f: int, fdeg: int) -> int:
        delta = 1 if t % 2 == 0 else self.rng.randrange(2)
        self.s |= (delta ^ (f & (self.s >> (t - fdeg))).bit_count() & 1) << t
        return delta


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


class _PrimitiveVectors:
    """QQ vectors fraction-free: a form is a primitive integer vector v
    over v[-1], and the sequence is scaled to integers s by the lcm L of
    its denominators.  A discrepancy is the integer dot e of v with a
    window of s, over L v[-1]; an update is e_g x^max(d,0) f minus
    e_f x^max(-d,0) g, made primitive.  No vector changes in place."""

    field = QQ
    copy = staticmethod(list)

    def __init__(self, seq):
        self.L = L = lcm(*(a.denominator for a in seq))
        self.s = [a.numerator * (L // a.denominator) for a in seq]

    @staticmethod
    def pack(coeffs) -> list:
        m = lcm(*(c.denominator for c in coeffs))
        return _primitive([c.numerator * (m // c.denominator) for c in coeffs])

    @staticmethod
    def unpack(v: list) -> list:
        return [Fraction(c, v[-1]) for c in v]

    def disc(self, buf, t: int, f: list, fdeg: int) -> Fraction:
        return Fraction(sum(map(mul, f, self.s[t - fdeg : t + 1])), self.L * f[-1])

    def update(self, f: list, g: list, d: int, delta, dp) -> list:
        # the integer dots behind delta = ef / (L f[-1]) and dp = eg / (L g[-1])
        L = self.L
        ef = delta.numerator * (L * f[-1] // delta.denominator)
        eg = dp.numerator * (L * g[-1] // dp.denominator)
        new = [0] * max(d, 0) + [eg * c for c in f]
        k = max(-d, 0)
        new[k : k + len(g)] = [x - ef * c for x, c in zip(new[k:], g)]
        return _primitive(new)


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
        self._vec = _vectors(field)   # the kernel: list or slot vectors, per field
        self._fv = self._vec.pack([field.one])  # f as a vector
        self._gv = self._vec.pack([field.one])  # g's x-coefficients as a vector
        self._fdeg = 0                # total degree of f
        self._gdeg = 1                # total degree of g
        self._d = 1                   # |g| - |f|
        self._dp = field.one          # last pivot discrepancy, never zero
        self._basis = basis           # replaces (x, z) when s_0 is nonzero
        self._rows: list[tuple] = []  # (k, lam, delta, d) per step, as in ProfileEntry
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

    @property
    def _f(self) -> list:
        """f's coefficients by x-exponent; the vector itself on lists."""
        return self._vec.unpack(self._fv)

    def _form(self, v, deg: int) -> Form:
        c = self._vec.unpack(self._vec.copy(v))
        c += [self.field.zero] * (deg + 1 - len(c))
        return Form._raw(self.field, c)

    def f_form(self) -> Form:
        return self._form(self._fv, self._fdeg)

    def g_form(self) -> Form:
        return self._form(self._gv, self._gdeg)

    def vop(self) -> VOP:
        return VOP(self.f_form(), self.g_form(), degenerate=not self._active)

    def copy(self) -> "VOPState":
        other = VOPState.__new__(VOPState)
        other.field, other._vec, other._debug = self.field, self._vec, self._debug
        other._buf, other._rows = list(self._buf), list(self._rows)
        other.trace = None if self.trace is None else list(self.trace)
        other._consumed, other._active = self._consumed, self._active
        other._fv, other._gv = self._vec.copy(self._fv), self._vec.copy(self._gv)
        other._fdeg, other._gdeg, other._d, other._dp = self._fdeg, self._gdeg, self._d, self._dp
        return other

    # -- the inductive step ------------------------------------------------

    def advance(self) -> "VOPState":
        """Consume one pending term."""
        if self.pending <= 0:
            raise EngineError("no pending terms to consume")
        t, was_active, dp = self._consumed, self._active, self._dp
        self._drive(t + 1)
        if self.trace is not None and self._active:
            if was_active:
                _, _, delta, d = self._rows[-1]
                row = StepRecord(t, d, dp, delta, self.field.div(delta, dp),
                                 self.f_form(), self.g_form())
            else:
                row = StepRecord(t, None, self._dp, None, None, self.f_form(), self.g_form())
            self.trace.append(row)
        if self._debug:
            self._assert_invariants()
        return self

    def _drive(self, stop: int):
        """Consume the terms before index stop, one inductive step each,
        on the state's kernel; the fast entries call this once."""
        buf, append = self._buf, self._rows.append
        t = self._consumed
        while not self._active:
            if t == stop:
                return
            # after t zero terms the pair is the degenerate (1, z^(t+1)),
            # and term t is the discrepancy it meets
            a = buf[t]
            if t:
                append((t - 1, 0, a, t + 1))
            if a:  # raw values are ints or Fractions, so zero is falsy
                self._start(t, a)
            else:
                self._gdeg = self._d = t + 2
            self._consumed = t = t + 1
        vec = self._vec
        disc, update = vec.disc, vec.update
        f, g, fdeg, gdeg, d, dp = self._fv, self._gv, self._fdeg, self._gdeg, self._d, self._dp
        for t in range(t, stop):
            delta = disc(buf, t, f, fdeg)
            append((t - 1, fdeg, delta, d))
            if delta:
                if d <= 0:
                    f = update(f, g, d, delta, dp)
                else:
                    # the swap: f grows to |g|, and the old f is the new g
                    f, g = update(f, g, d, delta, dp), f
                    fdeg, gdeg, dp, d = fdeg + d, fdeg, delta, -d
            gdeg += 1
            d += 1
        self._fv, self._gv, self._fdeg, self._gdeg, self._d, self._dp = f, g, fdeg, gdeg, d, dp
        self._consumed = stop

    def _start(self, t: int, a):
        """The basis at the first nonzero term a = s_t: order v = -t gives
        (x^(1-v), z), unless the caller supplied another valid pair for
        the one-term prefix."""
        field, vec = self.field, self._vec
        if self._basis is None:
            f, g, gdeg = [field.zero] * (t + 1) + [field.one], [field.one], 1
        else:
            f, g, gdeg = _checked_basis(self._basis, t, field)
        self._fv, self._gv = vec.pack(f), vec.pack(g)
        self._fdeg, self._gdeg, self._d = len(f) - 1, gdeg, gdeg - len(f) + 1
        # the cogenerator's own discrepancy against the next prefix is the
        # first nonzero term itself (z-shifting each augmentation keeps it
        # constant until a pivot swap replaces it), so an unnormalized
        # leading term lands in the pivot here
        self._dp = a
        self._active = True

    def run(self) -> "VOPState":
        while self.pending:
            self.advance()
        return self

    def finish_profile(self) -> list[ProfileEntry]:
        """Profile including the closing entry for the full prefix."""
        rows = self._rows
        if self._consumed:
            rows = rows + [(self._consumed - 1, self._fdeg, None, self._d)]
        return list(map(partial(tuple.__new__, ProfileEntry), rows))  # in C, no __new__ per row

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


def synthesize(F: InverseForm, basis: Optional[tuple[Form, Form]] = None):
    """Full synthesis: returns (vop, profile).

    The all-zero sequence yields the degenerate convention f = 1,
    g = z^(n+1) with the ``degenerate`` flag set.  A caller that knows a
    different valid pair for the one-term prefix may pass it as
    ``basis``; later pairs (though not the linear complexity) depend on
    that choice.
    """
    state = VOPState(F.field, basis=basis).push_many(F.seq).run()
    return state.vop(), state.finish_profile()


def synthesize_trace(F: InverseForm, basis: Optional[tuple[Form, Form]] = None):
    """Like :func:`synthesize` but also returns the per-step trace rows."""
    state = VOPState(F.field, trace=True, basis=basis).push_many(F.seq).run()
    return state.vop(), state.finish_profile(), list(state.trace or [])


def packed_form(mask: int, deg: int) -> Form:
    """The GF(2) form of total degree deg whose x^i coefficient is bit i
    of mask; adding packed forms is XOR, x is a left shift, z raises deg."""
    return Form._raw(GF2, unpack_bits(mask, deg + 1))


def _driven(vec, seq, n: int, basis=None) -> VOPState:
    """A state on the kernel vec over the checked terms seq, driven to
    term n in one run of the loop, never one advance() per term."""
    one = vec.field.one
    state = VOPState(vec.field, basis=basis)
    state._vec, state._buf = vec, seq
    state._fv, state._gv = vec.pack([one]), vec.pack([one])
    state._drive(n)
    return state


def synthesize_packed(F: InverseForm, basis: Optional[tuple[Form, Form]] = None):
    """:func:`synthesize` over GF(2) on the packed kernel; returns the
    same (vop, profile), bit for bit, and raises the same errors for a
    ``basis`` that does not apply.  There is no trace or streaming here,
    and no per-step debug checks."""
    if F.field != GF2:
        raise EngineError(f"the packed engine needs GF(2), got {F.field.name}")
    state = _driven(_PackedBits(F.seq), F.seq, F.n, basis)
    return state.vop(), state.finish_profile()


def synthesize_rational(F: InverseForm):
    """:func:`synthesize` over QQ on the fraction-free kernel; returns
    the same (vop, profile), with equal reduced fractions in f, g and
    every profile delta.  The basis is the standard one; there is no
    trace or streaming here, and no per-step debug checks."""
    if F.field != QQ:
        raise EngineError(f"the rational engine needs QQ, got {F.field.name}")
    state = _driven(_PrimitiveVectors(F.seq), F.seq, F.n)
    return state.vop(), state.finish_profile()


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
    vec = _PerfectProfileBits(_random.Random(seed))
    _driven(vec, [1], n)  # s_0 = 1 gives the basis; the kernel writes the rest
    return unpack_bits(vec.s, n)
