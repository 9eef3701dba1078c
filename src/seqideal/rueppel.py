"""The Rueppel sequence and its specialized machinery.

The Rueppel sequence is the binary sequence with ones exactly at the
indices 2^k - 1: it starts 1, 1, 0, 1, 0, 0, 0, 1, ...  Its linear
complexity profile is perfect, lambda of the first n terms is
floor((n + 1) / 2), and the annihilator pair construction specializes on
it to a loop with no field multiplications or divisions at all: the
update is gated purely by the parity of the loop index (``ralg``).

Everything here works on bit-packed GF(2) polynomials: a homogeneous
form of known degree is a Python int whose bit i is the coefficient of
x^i, read back by :func:`~seqideal.vop_engine.packed_form`, so adding
forms is XOR, multiplying by x is a left shift, and multiplying by z
just raises the recorded degree.  That packing makes the sweeps fast (n
up to 2^15), and ``rueppel --verify`` shares one per op among its checks.

Also here: the two-by-two matrix recurrence that replays the same pair
by accumulated products, the closed form of the leading generator at
power-of-two sizes, and the quadratic extension identity that certifies
the dehomogenized generators against the ring GF(2)[x][rho] with
rho^2 = x rho + 1 (rho is invertible there, with inverse rho + x).
"""

from __future__ import annotations

from itertools import compress, islice
from typing import NamedTuple

from .bivariate import Form, InverseForm
from .field import GF2, FieldError, unpack_bits
from .vop_engine import VOP, _driven_bits, packed_form, synthesize

__all__ = [
    "rueppel_sequence",
    "rueppel_bits",
    "rueppel_inverse_form",
    "rueppel_basis",
    "synthesize_rueppel",
    "ralg",
    "ralg_lambda_sweep",
    "closed_form",
    "matrix_recurrence",
    "delta_parity_check",
    "clmul",
    "QuadExt",
    "quad_ext_identity",
    "quad_ext_sweep",
]


def rueppel_bits(n: int) -> int:
    """The first n Rueppel bits packed into an int (bit i = r_i)."""
    if n < 1:
        raise FieldError("need n >= 1")
    return sum(1 << ((1 << j) - 1) for j in range(n.bit_length()))


def rueppel_sequence(n: int) -> list[int]:
    """The first n Rueppel bits as a list of 0/1 ints."""
    return unpack_bits(rueppel_bits(n), n)


def rueppel_inverse_form(n: int) -> InverseForm:
    """Inverse form of the first n Rueppel bits over GF(2)."""
    return InverseForm(GF2, rueppel_sequence(n))


def rueppel_basis() -> tuple[Form, Form]:
    """The distinguished starting pair (x + z, z) for the one-bit prefix.

    Both (x, z) and (x + z, z) generate the annihilators of a single
    nonzero bit; starting from the latter is what makes every generator
    evaluate to 1 at (0, 1) and the discrepancies come out as the parity
    of the step index.
    """
    return Form(GF2, [1, 1]), Form(GF2, [1, 0])


def synthesize_rueppel(n: int):
    """Run the generic engine on the first n Rueppel bits from the
    distinguished basis; returns (vop, profile).  :func:`delta_parity_check`
    runs the bit-packed engine on the same input."""
    return synthesize(rueppel_inverse_form(n), basis=rueppel_basis())


def _ralg_pairs(n: int):
    """The packed pair (f_mask, f_deg, g_mask, g_deg) after each of the
    first n Rueppel bits, starting from (x + z, z) after the first."""
    f_mask, f_deg, g_mask, g_deg = 0b11, 1, 0b01, 1
    yield f_mask, f_deg, g_mask, g_deg
    for i in range(n - 1):
        if i & 1:
            f_mask, f_deg, g_mask, g_deg = (f_mask << 1) ^ g_mask, f_deg + 1, f_mask, f_deg
        g_deg += 1  # times z
        yield f_mask, f_deg, g_mask, g_deg


def ralg(n: int) -> VOP:
    """Division-free pair construction for the first n Rueppel bits.

    Starts from (x + z, z) and per consumed term does at most one
    parity-gated update f <- x f + g, g <- old f, followed by g <- z g.
    No sequence storage, no multiplications, no divisions.
    """
    if n < 1:
        raise FieldError("need n >= 1")
    for f_mask, f_deg, g_mask, g_deg in _ralg_pairs(n):
        pass
    return VOP(packed_form(f_mask, f_deg), packed_form(g_mask, g_deg))


def ralg_lambda_sweep(max_n: int) -> list[int]:
    """Linear complexity of every Rueppel prefix up to max_n.

    One incremental run; entry i is lambda of the first i + 1 bits.
    """
    if max_n < 1:
        raise FieldError("need max_n >= 1")
    return [f_deg for _, f_deg, _, _ in _ralg_pairs(max_n)]


def closed_form(l: int) -> Form:
    """The leading generator for 2l Rueppel bits when l is a power of two:
    x^l plus the sum of x^(l - 2^j) z^(2^j) over 0 <= j <= log2(l)."""
    if l < 1 or l & (l - 1):
        raise FieldError(f"need a power of two, got {l}")
    mask = 1 << l
    p = 1
    while p <= l:
        mask |= 1 << (l - p)
        p <<= 1
    return packed_form(mask, l)


# -- matrix recurrence -----------------------------------------------------


def matrix_recurrence(n: int) -> VOP:
    """Replay the pair for n Rueppel bits as a row vector times an
    accumulated product of step matrices.

    The step matrix is diag(1, z) at even steps and ((x, z), (1, 0)) at
    odd ones; the product is accumulated on masks, with one degree per
    column, and applied once to the starting row (x + z, z).  Must agree
    bit for bit with :func:`ralg`.
    """
    if n < 1:
        raise FieldError("need n >= 1")
    # accumulated product, row-major 2x2, from the identity; column j has degree dj
    a11, a12, a21, a22 = 1, 0, 0, 1
    d1 = d2 = 0
    for i in range(n - 1):
        if i & 1:
            # right-multiply by U = ((x, z), (1, 0)): x col1 + col2 | z col1
            if d1 + 1 != d2:
                raise AssertionError("inhomogeneous matrix entry")
            a11, a12 = (a11 << 1) ^ a12, a11
            a21, a22 = (a21 << 1) ^ a22, a21
            d1 = d2 = d1 + 1
        else:
            # right-multiply by E = diag(1, z)
            d2 += 1
    # row (x + z, z) times the product: column j gives x p1j + z (p1j + p2j)
    f_mask, f_deg = (a11 << 1) ^ a11 ^ a21, d1 + 1
    g_mask, g_deg = (a12 << 1) ^ a12 ^ a22, d2 + 1
    if not f_mask or not g_mask:
        raise AssertionError("matrix recurrence produced a zero generator")
    return VOP(packed_form(f_mask, f_deg), packed_form(g_mask, g_deg))


# -- parity of the discrepancies -------------------------------------------


def delta_parity_check(n: int) -> bool:
    """Run the bit-packed engine on the n bits of :func:`rueppel_bits` (from
    the distinguished basis) and test on its plain (k, lam, delta, d) rows
    that the discrepancy at step k is exactly the parity of k, with d = 1
    whenever k is odd; no form or profile entry is built."""
    if n < 2:
        raise FieldError("need n >= 2")
    ks, _, deltas, ds = zip(*_driven_bits(rueppel_bits(n), n, rueppel_basis())._rows)
    # column by column: delta = k mod 2, then d over the odd k alone
    return deltas == tuple(map((2).__rmod__, ks)) and set(compress(ds, deltas)) <= {1}


# -- the quadratic extension ------------------------------------------------


def clmul(a: int, b: int) -> int:
    """Carryless product of two bit-packed GF(2) polynomials."""
    if a.bit_length() < b.bit_length():
        a, b = b, a  # loop over the shorter operand's bits
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


class QuadExt(NamedTuple):
    """Element a(x) + b(x) rho of GF(2)[x][rho] with rho^2 = x rho + 1.

    Components are bit-packed GF(2)[x] polynomials.  rho has the
    polynomial inverse rho + x, so all powers rho^k and rho^-k stay in
    this ring.
    """

    a: int
    b: int

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        if not isinstance(other, QuadExt):
            return NotImplemented
        ac = clmul(self.a, other.a)
        bd = clmul(self.b, other.b)
        ad_bc = clmul(self.a, other.b) ^ clmul(self.b, other.a)
        # rho^2 = x rho + 1 folds the bd rho^2 term back down
        return QuadExt(ac ^ bd, ad_bc ^ (bd << 1))

    def __add__(self, other: "QuadExt") -> "QuadExt":
        if not isinstance(other, QuadExt):
            return NotImplemented
        return QuadExt(self.a ^ other.a, self.b ^ other.b)

    def pow(self, e: int) -> "QuadExt":
        """Square and multiply; e >= 0."""
        result = QuadExt(1, 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


RHO = QuadExt(0, 1)
RHO_INV = QuadExt(0b10, 1)  # x + rho
ONE_PLUS_RHO = QuadExt(1, 1)
ONE_PLUS_RHO_INV = QuadExt(1, 0) + RHO_INV


def _eta(k: int) -> QuadExt:
    """(1 + rho) rho^k + (1 + rho^-1) rho^-k."""
    return ONE_PLUS_RHO * RHO.pow(k) + ONE_PLUS_RHO_INV * RHO_INV.pow(k)


def _eta_certifies(k: int, eta: tuple[int, int], f_mask: int) -> bool:
    """Whether eta = (a, b), a + b rho, is x f(x, 1) for the generator f of
    2k bits, given as its packed mask: b = 0, and a is x-divisible of degree k + 1."""
    a, b = eta
    return b == 0 and not a & 1 and a.bit_length() - 1 == k + 1 and a == f_mask << 1


def quad_ext_identity(k: int) -> bool:
    """Certify x f(x, 1) = (1 + rho) rho^k + (1 + rho^-1) rho^-k for the
    leading generator f of 2k Rueppel bits: the rho component vanishes,
    the rest is an x-divisible polynomial of degree k + 1 equal to x
    times the dehomogenized generator."""
    if k < 1:
        raise FieldError("need k >= 1")
    for f_mask, _, _, _ in _ralg_pairs(2 * k):
        pass
    return _eta_certifies(k, _eta(k), f_mask)


def _eta_ladder():
    """_eta(k) for k = 1, 2, ..., as plain (a, b) int pairs, from the
    ladders u = (1 + rho) rho^k and v = (1 + rho^-1) rho^-k, each step in
    closed form: (a + b rho) rho = b + (a + x b) rho and
    (a + b rho)(x + rho) = (x a + b) + a rho."""
    (ua, ub), (va, vb) = ONE_PLUS_RHO, ONE_PLUS_RHO_INV
    while True:
        ua, ub = ub, ua ^ (ub << 1)
        va, vb = (va << 1) ^ vb, va
        yield ua ^ va, ub ^ vb


def quad_ext_sweep(max_k: int) -> bool:
    """Run the identity for every k up to max_k, sharing the power
    ladders of :func:`_eta_ladder` (two shifts and four XORs per step)."""
    if max_k < 1:
        raise FieldError("need max_k >= 1")
    even_prefixes = islice(_ralg_pairs(2 * max_k), 1, None, 2)  # 2k bits in
    steps = zip(range(1, max_k + 1), _eta_ladder(), even_prefixes)
    for k, eta, (f_mask, _, _, _) in steps:
        if not _eta_certifies(k, eta, f_mask):
            return False
    return True
