"""Generating reference measures and estimating their dimensions.

Three generators with known dimensions (four-corner Cantor set, a Cantor
measure on a line with adjustable dimension, Lebesgue measure on a ball)
are fed to the box-counting and correlation estimators to show the
calibration.
"""

import numpy as np

from projlab import (
    box_counting_dim,
    correlation_dim,
    four_corner_cantor,
    lebesgue_ball,
    line_cantor,
)

print("measure                      true dim   estimate   window r^2")

fc = four_corner_cantor(8)
est = box_counting_dim(fc)
print(f"four-corner Cantor (box)       1.000    {est.value:7.3f}   "
      f"{est.r_squared:.4f}")

s = np.log(2) / np.log(3)
lc = line_cantor(s, 12)
est = correlation_dim(lc)
print(f"middle-thirds Cantor (corr)    {s:.3f}    {est.value:7.3f}   "
      f"{est.r_squared:.4f}")

ball = lebesgue_ball(2, 60_000, seed=1)
est = box_counting_dim(ball)
print(f"uniform disc (box)             2.000    {est.value:7.3f}   "
      f"{est.r_squared:.4f}")
