"""Lower-bound curves for projected dimensions.

For a k-parameter non-degenerate family of orthogonal projections onto
m-planes in R^n, the dimension of almost every projected measure admits a
piecewise-linear lower bound in the original dimension d.  The curve is
controlled by the integer drop function p(l); this script prints the p
table and samples the curve for a few (n, m, k).
"""

import numpy as np

from projlab import p_of_l, theorem_lower_bound

for n, m, k in [(3, 2, 1), (4, 2, 3), (5, 3, 4), (6, 2, 7)]:
    ps = tuple(p_of_l(n, m, k, l) for l in range(m))
    print(f"\n(n, m, k) = ({n}, {m}, {k})")
    print(f"  p(l) for l = 0..{m - 1}: {ps}")
    print(f"  saturation threshold: d > {ps[-1] + m} gives bound {m}")
    ds = np.linspace(0.0, n, 2 * n + 1)
    vals = [theorem_lower_bound(n, m, k, float(d)) for d in ds]
    for d, v in zip(ds, vals):
        bar = "#" * int(round(8 * v))
        print(f"  d = {d:4.1f}  bound = {v:5.2f}  {bar}")

# the bound is always monotone, 1-Lipschitz, and squeezed between the
# trivial bounds max(0, d - (n - m)) and min(d, m); more parameters means
# a stronger curve
print("\nbound at d = 2.5 as k grows, (n, m) = (4, 2):")
for k in range(1, 4):  # admissible range is 1 <= k <= m(n-m) - 1 = 3
    print(f"  k = {k}: {theorem_lower_bound(4, 2, k, 2.5):.2f}")
