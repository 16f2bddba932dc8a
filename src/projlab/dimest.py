"""Dimension estimators for weighted point clouds: box counting with
scaling-window selection and Grassberger-Procaccia style correlation
dimension.

Both estimators are invariant under ambient rotations; projected clouds
land in rotated planes, so this is a contract, not an optimization.  Box
counting works in intrinsic coordinates (weighted PCA with near-zero
variance directions dropped); the correlation dimension uses raw pair
distances, which rotations keep.  Both are also invariant under scaling
across the float range; a cloud whose pair distances overflow gets the
zero correlation estimate.

Box counting runs its scales one after another on the calling thread and
reuses one float and two int64 buffers of length N for all its grids.
The grid modes spread whole grid rows, not scales, over the usable CPUs
(`lab`): each extra CPU holds one row's projected m-D cloud and those
three buffers, and a grid with fewer rows than CPUs leaves CPUs idle.
"""

from dataclasses import dataclass

import numpy as np

from .fractal import SampledMeasure, check_integer
from .grassmann import Frame

DISTANCE_FLOOR = 1e-12
# a fit window spans at least MIN_WINDOW scales and never touches the
# NOISE_SCALES finest ones, which sit at the sampling-noise floor
MIN_WINDOW = 5
NOISE_SCALES = 2


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


def project_points(f: Frame, measure: SampledMeasure) -> SampledMeasure:
    """The cloud's orthogonal projection onto the frame's plane, in the
    plane's own coordinates: point x goes to basis @ x, so the (N, m)
    result keeps every distance of the projection in R^n; weights
    unchanged."""
    if f.ambient_dim != measure.ambient_dim:
        raise ValueError("frame and measure ambient dimensions differ")
    return SampledMeasure(measure.points @ f.basis.T, measure.weights,
                          measure.nominal_dim)


def _intrinsic_coords(points, weights):
    """Weighted-PCA coordinates with round-off axes dropped, as the
    (N, d) transpose of contiguous per-axis columns.

    An axis is kept when its eigenvalue exceeds N n eps times the largest
    (N points in R^n): each covariance entry sums N terms bounded by the
    largest eigenvalue (Cauchy-Schwarz), so its round-off, and by Weyl's
    inequality every computed eigenvalue's, stays below the cut.  A
    dropped axis has a standard deviation under sqrt(N n eps) of the
    largest, 1e-5 for 200,000 points of R^2: far below the finest scale.

    The covariance is formed of the centred points scaled by 2**-e, where
    2**e bounds the points of positive weight, and the rotated points are
    scaled back: both steps are exact, and a cloud near either end of the
    float range neither overflows nor underflows the covariance.
    """
    center = weights @ points
    X = points - center
    pos = (weights > 0)[:, None]
    reach = max(np.max(X, initial=0.0, where=pos),
                -np.min(X, initial=0.0, where=pos))
    e = int(np.frexp(reach)[1])
    np.ldexp(X, -e, out=X)
    C = (X * weights[:, None]).T @ X
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 0:
        return X[:, :0]
    keep = evals > X.size * np.finfo(float).eps * evals[0]
    coords = (evecs[:, keep].T @ X.T).T
    return np.ldexp(coords, e, out=coords)


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


def _best_window(x, y):
    """Sliding-window fit of y against x: the contiguous window of at
    least MIN_WINDOW points with the highest r^2, never touching the last
    NOISE_SCALES points; both estimators order their scales coarse to
    fine.

    Returns (r2, lo, hi, slope, stderr)."""
    n = len(x) - NOISE_SCALES
    if n < MIN_WINDOW:
        raise ValueError(f"need ≥ {MIN_WINDOW + NOISE_SCALES} usable "
                         f"scales, got {len(x)}")
    best = None
    for lo in range(0, n - MIN_WINDOW + 1):
        for hi in range(lo + MIN_WINDOW, n + 1):
            slope, r, stderr = _linfit(x[lo:hi], y[lo:hi])
            r2 = r ** 2
            if best is None or r2 > best[0]:
                best = (r2, lo, hi, slope, stderr)
    return best


def _zero_estimate(method, count, warning, scales=(), values=()):
    """The 0.0 estimate of a cloud without a scaling range; warning says
    why."""
    return DimensionEstimate(0.0, method, (0.0, 0.0), 0.0, 1.0, count,
                             np.asarray(scales, dtype=float),
                             np.asarray(values, dtype=float), warning)


def _window_estimate(method, count, scales, values, good, x):
    """The estimate from the best window of log values[good] against x,
    the log-scale coordinate of scales[good]."""
    r2, lo, hi, slope, stderr = _best_window(x, np.log(values[good]))
    window = scales[good][lo:hi]
    return DimensionEstimate(
        float(slope), method, (float(window.min()), float(window.max())),
        float(stderr), float(r2), count, scales, values,
    )


def _count_boxes(cols, span, weights, total, eps, offsets, bufs):
    """Occupied-box count at side eps, averaged over grid offsets; a box
    counts when its mass clears the outlier floor, a tenth of the mean
    mass per box of the grid.

    cols holds the cloud as contiguous per-axis columns shifted to start
    at 0, span the per-axis extent (each column's maximum, exactly) and
    total the total weight; eps must be positive and keep each axis's
    extent, about span / eps, below 2**63 / N (`box_counting_dim`'s stay
    near 400).  bufs holds three length-N scratch arrays, float64, int64
    and int64, which the count overwrites and never reads first.  The
    columns are nonnegative and the offsets lie in [0, 1), so every box
    index is nonnegative, truncation equals floor, and each axis's extent
    comes from its span without a pass over the data: every rounding step
    is monotone, so the largest index is the span's.  Boxes get a
    mixed-radix key that bincount sums directly when the grid has at most
    4N + 65536 boxes; sparser grids rank the occupied keys with np.unique
    first, and so does the key built so far when the next axis would take
    it past int64.  Ranking relabels boxes one to one, and bincount sums
    each box's weights in input order, so the count does not depend on
    where the key is ranked.
    """
    per_axis = np.minimum(np.ceil(span / eps) + 1.0, 1e6)
    possible = float(np.prod(per_axis))
    floor = total / (10.0 * max(possible, 1.0))
    dense_limit = 4 * len(weights) + 65536
    buf, ibuf, kbuf = bufs

    def index(c, o, out):
        np.divide(np.add(c, o * eps, out=buf), eps, out=buf)
        np.copyto(out, buf, casting="unsafe")  # astype's truncation
        return out

    counts = []
    for off in offsets:
        extents = [int(t) + 1 for t in (span + off * eps) / eps]
        key, size = index(cols[0], off[0], kbuf), extents[0]
        for c, o, e in zip(cols[1:], off[1:], extents[1:]):
            if size * e >= 2 ** 63:
                boxes, key = np.unique(key, return_inverse=True)
                size = len(boxes)
            key *= e
            key += index(c, o, ibuf)
            size *= e
        if size > dense_limit:
            _, key = np.unique(key, return_inverse=True)
        mass = np.bincount(key, weights=weights)
        counts.append(int(np.count_nonzero(mass >= floor)))
    return float(np.mean(counts))


def box_counting_dim(measure: SampledMeasure, n_offsets=3,
                     seed=0) -> DimensionEstimate:
    """Box-counting dimension: slope of log N(eps) against log(1/eps)
    over the best scaling window.

    Grids are anchored at n_offsets random offsets per scale and averaged,
    which removes alignment artifacts on self-similar sets.  ValueError
    naming the argument unless n_offsets is a positive integer and seed a
    non-negative one.
    """
    check_integer(n_offsets, "n_offsets", 1)
    check_integer(seed, "seed", 0)
    pts = _intrinsic_coords(measure.points, measure.weights)
    if pts.shape[1] == 0:
        return _zero_estimate("box_counting", measure.count,
                              "degenerate cloud")
    # one contiguous row per axis: its bounds are row reductions, and the
    # PCA coordinates are a fresh array, so shifting them in place is safe
    cols = pts.T
    lo = cols.min(axis=1)
    span = cols.max(axis=1) - lo
    cols -= lo[:, None]
    diam = float(np.max(span))
    if not 2.5e-3 * diam < np.inf:  # no grid has finite extents
        return _zero_estimate("box_counting", measure.count,
                              "span outside the float range")
    if not 2.5e-3 * diam > 0:  # the finest box side underflows
        return _zero_estimate("box_counting", measure.count,
                              "degenerate cloud")
    scales = np.geomspace(0.4 * diam, 2.5e-3 * diam, 18)
    rng = np.random.default_rng(seed)
    offsets = rng.random((n_offsets, pts.shape[1]))
    total = measure.weights.sum()
    N = measure.count
    bufs = (np.empty(N), np.empty(N, np.int64), np.empty(N, np.int64))
    counts = np.array([_count_boxes(cols, span, measure.weights, total, eps,
                                    offsets, bufs) for eps in scales])
    good = counts > 0
    if np.ptp(np.log(counts[good])) < 1e-12:
        # atomic cloud: N(eps) never grows
        return _zero_estimate("box_counting", measure.count,
                              "no scaling range", scales, counts)
    return _window_estimate("box_counting", measure.count, scales, counts,
                            good, np.log(1.0 / scales[good]))


def correlation_dim(measure: SampledMeasure, seed=0) -> DimensionEstimate:
    """Correlation dimension: slope of the empirical pair-correlation
    integral log C(r) against log r over the best scaling window.

    Pairs are sampled by weight, so the plain fraction below r estimates
    the weighted correlation integral.  Deterministic per seed, which must
    be a non-negative integer (ValueError naming it otherwise).
    """
    rng = np.random.default_rng(check_integer(seed, "seed", 0))
    i = rng.choice(measure.count, size=200_000, p=measure.weights)
    j = rng.choice(measure.count, size=200_000, p=measure.weights)
    keep = i != j
    with np.errstate(over="ignore"):  # checked below
        diff = measure.points[i[keep]] - measure.points[j[keep]]
        # the norm squares the differences scaled by 2**-e, where 2**e
        # bounds them, so no square overflows or goes subnormal; both
        # scalings are exact, as in `_intrinsic_coords`
        e = int(np.frexp(np.max(np.abs(diff), initial=0.0))[1])
        d = np.ldexp(np.linalg.norm(np.ldexp(diff, -e), axis=1), e)
    if np.isinf(d).any():
        return _zero_estimate("correlation", measure.count,
                              "span outside the float range")
    # relative to the largest distance, so the cut scales with the cloud
    d = d[d > DISTANCE_FLOOR * d.max(initial=0.0)]
    if len(d) == 0 or d.max() / d.min() < 10.0:
        # coincident or atomic cloud: C(r) is constant below separation
        return _zero_estimate("correlation", measure.count,
                              "no scaling range")
    rmax = np.quantile(d, 0.5)
    rmin = max(np.quantile(d, 2e-4), rmax * 1e-4)
    radii = np.geomspace(rmax, rmin, 20)
    frac = np.array([np.count_nonzero(d <= r) for r in radii]) / len(d)
    good = frac * len(d) >= 8  # at least 8 hits per scale
    return _window_estimate("correlation", measure.count, radii, frac,
                            good, np.log(radii[good]))
