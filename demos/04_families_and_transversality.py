"""Projection families: non-degeneracy, witness subspaces, extension, and
the transversality exponent.

A family is a rotation schedule: each parameter drives one or more chart
angles.  Non-degeneracy asks the k parameter-derivative maps to be
linearly independent as vectors in Hom(V^perp, V).  On top of a
non-degenerate family the extension construction adds p*t rotation
parameters to raise the vanishing order of |Pi_V(w)| along the kernel,
which a Monte-Carlo sublevel-volume fit can measure directly.
"""

import numpy as np

from projlab import (
    disjoint_slot_family,
    extend_family,
    family_jacobian,
    find_witness_subspace,
    nondegeneracy_check,
    transversality_probe,
)

# one-parameter family of 2-planes in R^3: rotate e1 toward e3
spec = disjoint_slot_family(3, 2, 1)
check = nondegeneracy_check(spec, np.zeros(1))
print(f"n=3 m=2 k=1 family: wedge norm {check['wedge_norm']:.3f}, "
      f"nondegenerate = {check['pass']}")

# the sublevel volume {lam : |Pi(w)| <= delta} of a kernel direction w
# shrinks like delta^1 for this family
w = np.array([0.0, 0.0, 1.0])
deltas = np.geomspace(1e-3, 0.2, 10)
[probe] = transversality_probe(spec.rows, 1, np.zeros(1), 0.3, [w],
                               deltas, samples=400_000, seed=0)
print(f"fitted sublevel exponent: {probe['exponent']:.3f} (target 1)")

# richer family: 3 parameters on 2-planes in R^4; at l = 1 the drop is
# p = 1, so one witness direction with uniformly independent images exists
spec4 = disjoint_slot_family(4, 2, 3)
J = family_jacobian(spec4, np.zeros(3))
witness = find_witness_subspace(J, t=1, l=1, seed=0)
print(f"\nn=4 m=2 k=3, witness line in V^perp: "
      f"{np.round(witness['W'].basis[0], 3)}")
print(f"worst-case image volume on the witness sphere: "
      f"{witness['d_prime_hat']:.3f}")

# extending by p*t = 1 parameter raises the vanishing order to l+1+p = 3
ext = extend_family(spec4, np.zeros(3), l=1, seed=0)
print(f"\nextended family: {ext.k_total} parameters, "
      f"{ext.spec.m + ext.p}-planes, target order {ext.target_order}")
[probe] = transversality_probe(ext.rows, ext.k_total, ext.center(),
                               0.5 * float(np.min(ext.domain_radii())),
                               witness['W'].basis,
                               np.geomspace(1e-3, 0.3, 10),
                               samples=400_000, seed=0)
print(f"fitted sublevel exponent: {probe['exponent']:.3f} "
      f"(target {ext.target_order})")
