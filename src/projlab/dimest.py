"""Dimension estimators for weighted point clouds: box counting with
scaling-window selection, Grassberger-Procaccia style correlation
dimension, and a truncated-energy finiteness diagnostic.

Both estimators work in intrinsic coordinates (weighted PCA with
near-zero variance directions dropped), which makes them invariant under
ambient rotations; projected clouds land in rotated planes, so this is a
contract, not an optimization.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .fractal import SampledMeasure
from .grassmann import Frame, projector

DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    method: str  # "box_counting" or "correlation"
    fit_window: tuple  # (scale_min, scale_max)
    slope_stderr: float
    r_squared: float
    point_count: int
    scales: np.ndarray = None  # log-log fit data
    counts: np.ndarray = None
    warning: str = None

    def to_dict(self):
        return {
            "value": self.value,
            "method": self.method,
            "fit_window": list(self.fit_window),
            "slope_stderr": self.slope_stderr,
            "r_squared": self.r_squared,
            "point_count": self.point_count,
            "warning": self.warning,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def save_fit_csv(self, path):
        with open(path, "w") as fh:
            fh.write("scale,count\n")
            for s, c in zip(self.scales, self.counts):
                fh.write(f"{s!r},{c!r}\n")


def project_points(f: Frame, measure: SampledMeasure) -> SampledMeasure:
    """Push the cloud through the orthogonal projection onto the frame's
    plane; weights unchanged, result still lives in R^n."""
    if f.ambient_dim != measure.ambient_dim:
        raise ValueError("frame and measure ambient dimensions differ")
    pts = measure.points @ projector(f).T
    return SampledMeasure(pts, measure.weights, measure.nominal_dim,
                          {"variant": "projected", "inner": measure.spec})


def _intrinsic_coords(points, weights):
    """Weighted-PCA coordinates with negligible-variance axes dropped."""
    center = weights @ points
    X = points - center
    C = (X * weights[:, None]).T @ X
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 0:
        return X[:, :0]
    keep = evals > 1e-16 * evals[0]
    return X @ evecs[:, keep]


def _linfit(x, y):
    """Least-squares line of y on x: (slope, r, slope stderr), by the same
    floating-point operations as scipy.stats.linregress."""
    if x.max() == x.min():
        raise ValueError("cannot fit a line when all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / (len(x) - 2))
    return slope, r, stderr


def _best_window(x, y, min_len=5, skip_top=2):
    """Sliding-window fit of y against x: the contiguous window of at
    least min_len points with the highest r^2, never touching the
    skip_top points of largest x (the sampling-noise floor).

    Returns (r2, lo, hi, slope, stderr)."""
    n = len(x) - skip_top
    if n < min_len:
        raise ValueError(f"need ≥ {min_len + skip_top} usable scales, "
                         f"got {len(x)}")
    best = None
    for lo in range(0, n - min_len + 1):
        for hi in range(lo + min_len, n + 1):
            slope, r, stderr = _linfit(x[lo:hi], y[lo:hi])
            r2 = r ** 2
            if best is None or r2 > best[0]:
                best = (r2, lo, hi, slope, stderr)
    return best


def _count_boxes(cols, span, weights, total, eps, offsets,
                 mass_floor_factor=10.0):
    """Occupied-box count at side eps, averaged over grid offsets; a box
    counts when its mass clears the outlier floor.

    cols holds the cloud as contiguous per-axis columns shifted to start
    at 0, span the per-axis extent and total the total weight.  Boxes get
    a mixed-radix key that bincount sums directly when the grid has at
    most 4N + 65536 boxes; sparser grids rank the occupied keys (or, past
    int64, the occupied index rows) with np.unique first.  Every path sums
    each box's weights in input order, so the count does not depend on
    the path taken.
    """
    per_axis = np.minimum(np.ceil(span / eps) + 1.0, 1e6)
    possible = float(np.prod(per_axis))
    floor = total / (mass_floor_factor * max(possible, 1.0))
    dense_limit = 4 * len(weights) + 65536
    counts = []
    for off in offsets:
        idx = [np.floor((c + o * eps) / eps).astype(np.int64)
               for c, o in zip(cols, off)]
        idx = [i - i.min() for i in idx]
        extents = [int(i.max()) + 1 for i in idx]
        size = math.prod(extents)
        if size < 2 ** 63:
            key = idx[0]
            for i, e in zip(idx[1:], extents[1:]):
                key = key * e + i
            if size > dense_limit:
                _, key = np.unique(key, return_inverse=True)
        else:
            _, key = np.unique(np.column_stack(idx), axis=0,
                               return_inverse=True)
        mass = np.bincount(key.ravel(), weights=weights)
        counts.append(int(np.count_nonzero(mass >= floor)))
    return float(np.mean(counts))


def box_counting_dim(measure: SampledMeasure, scales=None, n_offsets=3,
                     seed=0) -> DimensionEstimate:
    """Box-counting dimension: slope of log N(eps) against log(1/eps)
    over the best scaling window.

    Grids are anchored at n_offsets random offsets per scale and averaged,
    which removes alignment artifacts on self-similar sets.
    """
    pts = _intrinsic_coords(measure.points, measure.weights)
    if pts.shape[1] == 0:
        return DimensionEstimate(0.0, "box_counting", (0.0, 0.0), 0.0, 1.0,
                                 measure.count, np.array([]), np.array([]),
                                 warning="degenerate cloud")
    diam = float(np.max(np.ptp(pts, axis=0)))
    if scales is None:
        scales = np.geomspace(0.4 * diam, 2.5e-3 * diam, 18)
    scales = np.sort(np.asarray(scales, dtype=float))[::-1]
    rng = np.random.default_rng(seed)
    offsets = rng.random((n_offsets, pts.shape[1]))
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    cols = np.ascontiguousarray((pts - lo).T)
    total = measure.weights.sum()
    counts = np.array([
        _count_boxes(cols, span, measure.weights, total, eps, offsets)
        for eps in scales
    ])
    good = counts > 0
    if np.ptp(np.log(counts[good])) < 1e-12:
        # atomic cloud: N(eps) never grows
        return DimensionEstimate(0.0, "box_counting", (0.0, 0.0), 0.0, 1.0,
                                 measure.count, scales, counts,
                                 warning="no scaling range")
    x = np.log(1.0 / scales[good])
    y = np.log(counts[good])
    r2, lo, hi, slope, stderr = _best_window(x, y)
    window_scales = scales[good][lo:hi]
    return DimensionEstimate(
        float(slope), "box_counting",
        (float(window_scales.min()), float(window_scales.max())),
        float(stderr), float(r2), measure.count,
        scales, counts,
    )


def _sample_pair_distances(measure, pair_budget, rng):
    i = rng.choice(measure.count, size=pair_budget, p=measure.weights)
    j = rng.choice(measure.count, size=pair_budget, p=measure.weights)
    keep = i != j
    d = np.linalg.norm(measure.points[i[keep]] - measure.points[j[keep]],
                       axis=1)
    return d


def correlation_dim(measure: SampledMeasure, pair_budget=200_000,
                    seed=0) -> DimensionEstimate:
    """Correlation dimension: slope of the empirical pair-correlation
    integral log C(r) against log r over the best scaling window.

    Pairs are sampled by weight, so the plain fraction below r estimates
    the weighted correlation integral.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    d = _sample_pair_distances(measure, pair_budget, rng)
    d = d[d > DISTANCE_FLOOR]
    if len(d) == 0 or d.max() / d.min() < 10.0:
        # coincident or atomic cloud: C(r) is constant below separation
        return DimensionEstimate(0.0, "correlation", (0.0, 0.0), 0.0, 1.0,
                                 measure.count, np.array([]), np.array([]),
                                 warning="no scaling range")
    rmax = np.quantile(d, 0.5)
    rmin = max(np.quantile(d, 2e-4), rmax * 1e-4)
    radii = np.geomspace(rmax, rmin, 20)
    frac = np.array([np.count_nonzero(d <= r) for r in radii]) / len(d)
    good = frac * len(d) >= 8  # at least 8 hits per scale
    x = np.log(radii[good])
    y = np.log(frac[good])
    r2, lo, hi, slope, stderr = _best_window(x, y)
    window = radii[good][lo:hi]
    return DimensionEstimate(
        float(slope), "correlation",
        (float(window.min()), float(window.max())),
        float(stderr), float(r2), measure.count,
        radii, frac,
    )


def energy_diagnostic(measure: SampledMeasure, t, subsample=2048, seed=0,
                      levels=3, shrink=16.0):
    """Truncated t-energy refinement: cumulative pair sums down to
    distance cutoffs diam * shrink^-j.

    finite_trend is True when the annulus increments stop growing (every
    successive ratio below 1.5), the discrete signature of a finite
    energy integral and hence of dimension at least t.  Coincident
    sampled pairs are clipped at the distance floor and counted; more
    than 0.1% clipped flags the result.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    rng = np.random.default_rng(seed)
    S = min(subsample, measure.count)
    if S < measure.count:
        idx = rng.choice(measure.count, size=S, p=measure.weights)
        pts = measure.points[idx]
    else:
        pts = measure.points
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=-1))
    iu = np.triu_indices(S, k=1)
    d = d[iu]
    clipped = int(np.count_nonzero(d <= DISTANCE_FLOOR))
    d = np.maximum(d, DISTANCE_FLOOR)
    contrib = d ** (-t) * (2.0 / S ** 2)  # both (i,j) orientations
    diam = float(d.max())
    cutoffs = diam / shrink ** np.arange(0, levels + 1)
    values = np.array([contrib[d >= c].sum() for c in cutoffs])
    increments = np.diff(values)
    ratios = []
    for a in range(len(increments) - 1):
        if increments[a] <= 0:
            ratios.append(0.0)
        else:
            ratios.append(float(increments[a + 1] / increments[a]))
    finite = all(r < 1.5 for r in ratios)
    flagged = clipped > 1e-3 * len(d)
    return {
        "finite_trend": bool(finite),
        "values": values,
        "increments": increments,
        "ratios": ratios,
        "total": float(values[-1]),
        "clipped_pairs": clipped,
        "flagged": bool(flagged),
    }
