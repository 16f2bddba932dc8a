"""Rotation charts on the Grassmannian and analytic projection derivatives.

A plane near a base m-plane is parametrized by m*(n-m) rotation angles,
one per (plane direction, complement direction) pair.  The derivative of
the projected point with respect to an angle has a closed form; here we
verify it against central differences and look at distances between planes.
"""

import numpy as np

from projlab import (
    ChartPoint,
    chart_point_frame,
    chart_rows,
    projector,
    span_frame,
    span_projector,
    tangent_projection_derivative,
)


def plane_distance(f1, f2):
    """Spectral norm of the projector difference: the sine of the largest
    principal angle between the planes, a metric on G(n, m)."""
    return np.linalg.norm(projector(f1) - projector(f2), 2)


rng = np.random.default_rng(0)

# a chart around a tilted 2-plane in R^4
base = span_frame(rng.standard_normal((2, 4)))
angles = np.array([[0.2, -0.1], [0.05, 0.3]])
f = chart_point_frame(ChartPoint(base, angles))
print("base plane rows:\n", np.round(base.basis, 3))
print("chart point rows:\n", np.round(f.basis, 3))
print(f"distance from base: {plane_distance(base, f):.4f}")

# the analytic derivative of z |-> Pi_V(z) in chart slot (i, j), compared
# with central differences of the projector along that slot
c0 = ChartPoint(base, np.zeros((2, 2)))
B = np.vstack([c0.base.basis, c0.comp.basis])
z = rng.standard_normal(4)
print("\nslot   analytic vs central difference (max abs gap)")
for i in (1, 2):
    for j in (3, 4):
        an = B @ tangent_projection_derivative(c0, i, j, z)
        h = 1e-6
        a = np.zeros((2, 2))
        a[i - 1, j - 3] = h
        Pp = span_projector(chart_rows(ChartPoint(base, a, c0.comp)))
        Pm = span_projector(chart_rows(ChartPoint(base, -a, c0.comp)))
        fd = (Pp - Pm) @ (B @ z) / (2 * h)
        print(f"({i},{j})  {np.max(np.abs(an - fd)):.2e}")

# distances respect the metric axioms on a random triple of planes
f1, f2, f3 = (span_frame(rng.standard_normal((2, 5))) for _ in range(3))
d12 = plane_distance(f1, f2)
d13 = plane_distance(f1, f3)
d23 = plane_distance(f2, f3)
print(f"\ntriangle check: {d12:.3f} <= {d13:.3f} + {d23:.3f} ->",
      d12 <= d13 + d23)
