"""Walkthrough: the Rueppel sequence at desk scale.

The binary sequence with ones exactly at indices 2^k - 1 has a perfect
linear complexity profile: the first n bits always have complexity
floor((n+1)/2).  The specialized construction needs no multiplications
or divisions, just a parity test per consumed bit, so sweeping to
n = 2^15 takes well under a second.
"""

import time

from seqideal import (
    closed_form,
    delta_parity_check,
    matrix_recurrence,
    quad_ext_sweep,
    ralg,
    ralg_lambda_sweep,
    rueppel_sequence,
)

print("first 20 bits:", "".join(map(str, rueppel_sequence(20))))
print()

# The full sweep: one incremental run reports lambda for every prefix.
N = 1 << 15
t0 = time.perf_counter()
lams = ralg_lambda_sweep(N)
elapsed = time.perf_counter() - t0
bad = [n for n, lam in enumerate(lams, start=1) if lam != (n + 1) // 2]
print(f"perfect profile up to n = {N}: {not bad}   ({elapsed:.3f}s)")
print("lambda of first 16 prefixes:", lams[:16])
print()

# The generator pairs themselves.  At n = 2l with l a power of two the
# leading generator collapses to a closed form with log2(l) + 2 terms.
for l in (1, 2, 4, 8):
    f = ralg(2 * l).f
    print(f"n = {2*l:>2}: f = {f}")
    assert f == closed_form(l)
print("(each equals the closed form x^l + sum of x^(l-2^j) z^(2^j))")
print()

# Same pairs via the two-by-two matrix recurrence: multiply an
# accumulated product of per-step matrices into the starting row.
print("matrix recurrence agrees with the loop for n <= 512:",
      all(matrix_recurrence(n) == ralg(n) for n in range(1, 513)))

# The bit-packed engine, run from the Rueppel basis, sees the predicted
# discrepancy pattern: zero at even steps, one (with a unit gap) at odd
# ones.
print("discrepancy parity pattern holds at n = 4096:",
      delta_parity_check(1 << 12))

# And the quadratic-extension certificate: x f(x, 1) equals
# (1 + rho) rho^k + (1 + rho^-1) rho^-k with rho^2 = x rho + 1.
print("quadratic extension identity holds for k <= 512:",
      quad_ext_sweep(512))
