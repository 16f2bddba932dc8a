"""End-to-end bound check: project a fractal measure through a family and
compare estimated dimensions with the lower-bound curve.

The four-corner Cantor set (dimension 1) is embedded in R^3 and projected
onto the planes of the one-parameter family; the theorem predicts
projected dimension >= 1 for almost every parameter, and the estimates
confirm it across the grid.
"""

from projlab import (
    ExperimentConfig,
    disjoint_slot_family,
    family_to_dict,
    run_bound_check,
)

cfg = ExperimentConfig(
    mode="bound_check",
    family=family_to_dict(disjoint_slot_family(3, 2, 1)),
    seed=11,
    measure={
        "variant": "embedded",
        "inner": {"variant": "four_corner_cantor", "level": 7},
        "frame": [[1.0, 0.4, 0.2], [0.1, 1.0, -0.3]],
    },
    lambda_grid=(16,),
    tolerance=0.12,
)
report = run_bound_check(cfg)

s = report.summary
print(f"bound from the theorem: {s['bound']:.3f} "
      f"(measure dimension {s['nominal_dim']:.3f})")
print(f"grid rows: {s['rows']}, violations beyond tolerance: "
      f"{s['violation_fraction'] * 100:.0f}%")
print(f"smallest margin est - bound: {s['min_margin']:+.3f}")
print("\nlambda     est_dim   margin")
for row in report.rows:
    print(f"{row['lambda'][0]:+.3f}    {row['est_dim']:.3f}   "
          f"{row['margin']:+.3f}")
