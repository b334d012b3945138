# coding: utf-8

# # Interpolation tables
#
# Exact quantiles need root finding over quadrature, which is fine
# interactively but slow inside tight loops, especially for odd sizes
# where the integral is two-dimensional. The package ships pre-built
# monotone-spline tables over a transformed probability axis; lookups are
# sub-millisecond. Single-observation quantiles at 0.95 and 0.99 agree with
# the exact values to about 2e-4. Whole-dataset levels p**(1/n) miss more as
# n grows (2.3e-2 at n = 1000 and p = 0.99), and probabilities near the
# support edge q = 0.48 miss by up to 4.2e-2 (ROADMAP items 1 and 5).

import time

from msdstat import (
    build_table,
    default_table,
    interp_probability,
    interp_quantile,
    multi_quantile_adjusted,
    quantile,
)

table = default_table("odd")
print(f"bundled odd table: sizes {table.sizes[0]:g}..{table.sizes[-1]:g}, "
      f"{len(table.knots_t)} knots per size")


# Interpolated vs exact at n = 95, where the exact route is slowest:

start = time.perf_counter()
exact = quantile(0.95, 95)
t_exact = time.perf_counter() - start

start = time.perf_counter()
approx = interp_quantile(table, 95, 0.95)
t_interp = time.perf_counter() - start

print(f"exact  {exact:.6f}  ({t_exact*1e3:.0f} ms)")
print(f"interp {approx:.6f}  ({t_interp*1e3:.2f} ms), "
      f"error {abs(approx - exact):.2e}")


# The reverse lookup maps an observed score to its null probability:

print(f"\nP(Q <= 1.497 | n=95) = {interp_probability(table, 95, 1.497):.5f}")


# Whole-dataset screening uses a per-observation probability adjusted for
# the number of observations; the helper inverts it exactly:

print(f"95% whole-dataset critical value, n=13: "
      f"{multi_quantile_adjusted(13, 0.95):.4f}")


# Tables can be rebuilt from scratch (capped here to keep the demo quick)
# and saved/loaded as plain CSV. A rebuild is byte-identical to the bundled
# files on the numpy/scipy install that made them, and agrees to the last
# bits elsewhere.

small = build_table("even", max_n=8)
print(f"\nrebuilt even table up to n=8: sizes {small.sizes}")
print(f"interp from rebuilt table: {interp_quantile(small, 8, 0.95):.4f} "
      f"vs exact {quantile(0.95, 8):.4f}")
