"""Rotation charts on the Grassmannian and the projection derivative of a
family.

A plane near a base m-plane is given by rotation angles, one per (plane
direction, complement direction) slot; a rotation-schedule family drives
those angles linearly from its parameters.  The derivative of the
projected point with respect to each parameter is what the non-degeneracy
check is built on; here we compare it with central differences and look
at distances between planes.
"""

import numpy as np

from projlab import (
    disjoint_slot_family,
    family_frame,
    family_rows,
    projector,
    span_frame,
    span_projector,
)
from projlab.family import projection_derivative_matrix


def plane_distance(f1, f2):
    """Spectral norm of the projector difference: the sine of the largest
    principal angle between the planes, a metric on G(n, m)."""
    return np.linalg.norm(projector(f1) - projector(f2), 2)


rng = np.random.default_rng(0)

# a 3-parameter family around a tilted 2-plane in R^4: parameter a drives
# the a-th slot (1,3), (1,4), (2,3) in the base's chart
base = span_frame(rng.standard_normal((2, 4)))
spec = disjoint_slot_family(4, 2, 3, base=base)
lam = np.array([0.2, -0.1, 0.3])
f = family_frame(spec, lam)
print("base plane rows:\n", np.round(base.basis, 3))
print(f"plane rows at lambda = {lam}:\n", np.round(f.basis, 3))
print(f"distance from base: {plane_distance(base, f):.4f}")

# the analytic derivative of lambda |-> Pi_{V_lambda}(z), compared with
# central differences of the projector along each parameter
z = rng.standard_normal(4)
D = projection_derivative_matrix(spec, lam, z)
h = 1e-6
print("\nparameter   analytic vs central difference (max abs gap)")
for a, e in enumerate(h * np.eye(3)):
    Pp = span_projector(family_rows(spec, lam + e)[0])
    Pm = span_projector(family_rows(spec, lam - e)[0])
    fd = (Pp - Pm) @ z / (2 * h)
    print(f"lambda_{a + 1}    {np.max(np.abs(D[:, a] - fd)):.2e}")

# distances respect the metric axioms on a random triple of planes
f1, f2, f3 = (span_frame(rng.standard_normal((2, 5))) for _ in range(3))
d12 = plane_distance(f1, f2)
d13 = plane_distance(f1, f3)
d23 = plane_distance(f2, f3)
print(f"\ntriangle check: {d12:.3f} <= {d13:.3f} + {d23:.3f} ->",
      d12 <= d13 + d23)
