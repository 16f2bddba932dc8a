import functools
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import distance

from projlab.dimest import (
    _best_window,
    _count_boxes,
    _intrinsic_coords,
    _linfit,
    box_counting_dim,
    correlation_dim,
    project_points,
)
from projlab.family import p_of_l
from projlab.fractal import (
    SampledMeasure,
    four_corner_cantor,
    lebesgue_ball,
    line_cantor,
)
from projlab.grassmann import Frame, complement, projector, span_frame
from projlab.lab import (
    ExperimentConfig,
    ExperimentReport,
    build_measure,
    family_frame,
    lambda_grid,
    resolve_family,
    sharpness_measure,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _uniform_square(N, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((N, 2))
    return SampledMeasure(pts, np.full(N, 1.0 / N), 2.0)


def test_box_counting_four_corner():
    est = box_counting_dim(four_corner_cantor(8))
    assert est.value == pytest.approx(1.0, abs=0.08)
    assert est.r_squared > 0.99
    assert est.warning is None


def test_box_counting_uniform_square():
    est = box_counting_dim(_uniform_square(60_000, 0))
    assert est.value == pytest.approx(2.0, abs=0.1)


def test_box_counting_line_segment_in_r3():
    t = np.linspace(0.0, 1.0, 20_000)
    d = np.array([1.0, 2.0, -0.5]) / np.linalg.norm([1.0, 2.0, -0.5])
    pts = t[:, None] * d[None, :]
    m = SampledMeasure(pts, np.full(len(t), 1.0 / len(t)), 1.0)
    est = box_counting_dim(m)
    assert est.value == pytest.approx(1.0, abs=0.05)


def test_box_counting_rotation_invariance():
    # intrinsic coordinates make the estimate independent of ambient pose
    m = four_corner_cantor(8)
    f = span_frame(np.array([[1.0, 0.4, 0.2], [0.1, 1.0, -0.3]]))
    from projlab.fractal import embed
    me = embed(m, f)
    a = box_counting_dim(m).value
    b = box_counting_dim(me).value
    assert abs(a - b) < 0.02


def test_box_counting_subnormal_cloud_is_degenerate_without_warnings():
    # a span of one subnormal unit has zero variance in double precision:
    # the estimate stops at the box-side check: the finest side underflows
    m = SampledMeasure(np.array([[0.0], [5e-324]]), np.array([0.5, 0.5]),
                       0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = box_counting_dim(m)
    assert est.value == 0.0
    assert est.warning == "degenerate cloud"


def test_box_counting_span_past_the_float_range_is_a_zero_estimate():
    # a weightless point far out leaves the PCA finite, but rotating it
    # overflows, so the span and every grid extent would be infinite
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 1.0], [1.7e308, 1.7e308]])
    m = SampledMeasure(pts, np.array([0.5, 0.25, 0.25, 0.0]), 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        est = box_counting_dim(m)
    assert est.value == 0.0
    assert est.warning == "span outside the float range"


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e200])
def test_box_counting_is_scale_invariant_across_the_float_range(scale):
    # the PCA scales the cloud by a power of two before the covariance, so
    # neither its squares overflow nor underflow
    m = _uniform_square(5_000, 0)
    scaled = SampledMeasure(m.points * scale, m.weights, m.nominal_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = box_counting_dim(scaled)
    assert est.warning is None
    assert abs(est.value - box_counting_dim(m).value) <= 1e-9


def test_correlation_span_past_the_float_range_is_a_zero_estimate():
    # points spread over [-1.7e308, 1.7e308]^2: pair distances overflow
    m = _uniform_square(5_000, 0)
    big = SampledMeasure((2.0 * m.points - 1.0) * 1.7e308, m.weights,
                         m.nominal_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = correlation_dim(big, seed=0)
    assert est.value == 0.0
    assert est.warning == "span outside the float range"


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-150, 1e-100,
                                   1e-13, 1.0, 1e100, 1e150, 1e300])
def test_correlation_dim_is_scale_invariant(scale):
    # the distance floor is relative to the largest pair distance, so a
    # cloud scaled far below 1 keeps its scaling range, and the norm works
    # on differences scaled by a power of two, so no square underflows
    m = _uniform_square(5_000, 0)
    scaled = SampledMeasure(m.points * scale, m.weights, m.nominal_dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = correlation_dim(scaled, seed=0)
    assert est.warning is None
    assert est.value == pytest.approx(1.8674671506, abs=1e-9)


def test_box_counting_degenerate_inputs():
    one = SampledMeasure(np.zeros((1, 2)), np.array([1.0]), 0.0)
    est = box_counting_dim(one)
    assert est.value == 0.0
    assert est.warning is not None
    two = SampledMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                         np.array([0.5, 0.5]), 0.0)
    est2 = box_counting_dim(two)
    assert est2.value == 0.0
    assert est2.warning is not None


@pytest.mark.parametrize("axes", [1, 2, 3])
def test_box_counting_leaves_its_input_unchanged(axes):
    # the counter shifts its columns in place: they are a view of the PCA
    # coordinates, which must never be the input's points
    rng = np.random.default_rng(axes)
    pts = np.zeros((5000, 3))
    pts[:, :axes] = rng.random((5000, axes)) @ rng.normal(size=(axes, axes))
    w = rng.random(5000)
    m = SampledMeasure(pts, w / w.sum(), float(axes))
    assert _intrinsic_coords(m.points, m.weights).shape[1] == axes
    points, weights = m.points.tobytes(), m.weights.tobytes()
    first = box_counting_dim(m)
    assert m.points.tobytes() == points
    assert m.weights.tobytes() == weights
    second = box_counting_dim(m)
    assert second.value == first.value
    assert second.fit_window == first.fit_window
    assert second.counts.tobytes() == first.counts.tobytes()


def test_correlation_line_cantor():
    s = np.log(2) / np.log(3)
    est = correlation_dim(line_cantor(s, 12), seed=0)
    assert est.value == pytest.approx(s, abs=0.05)


def test_correlation_uniform_ball():
    est = correlation_dim(lebesgue_ball(2, 60_000, seed=1), seed=0)
    assert est.value == pytest.approx(2.0, abs=0.1)


def test_correlation_atoms():
    m = SampledMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]),
                       0.0)
    est = correlation_dim(m, seed=0)
    assert est.value == 0.0
    assert est.warning == "no scaling range"


def test_correlation_deterministic():
    m = line_cantor(0.7, 10)
    a = correlation_dim(m, seed=5)
    b = correlation_dim(m, seed=5)
    assert a.value == b.value
    assert np.array_equal(a.counts, b.counts)


@functools.cache
def _stretched_cantor():
    """A level-6 four-corner Cantor set stretched to unequal principal
    variances, so its PCA axes are unique up to sign, on a tilted plane
    of R^3; with its box-counting and correlation estimates."""
    m = four_corner_cantor(6)
    f = span_frame(np.array([[1.0, 0.4, 0.2], [0.1, 1.0, -0.3]]))
    cloud = SampledMeasure((m.points * [1.0, 0.6]) @ f.basis, m.weights,
                           m.nominal_dim)
    return (cloud, box_counting_dim(cloud, seed=1).value,
            correlation_dim(cloud, seed=1).value)


# Measured over 300 seeded similarities of the cloud above (scales
# 10^-3..10^3, shifts up to 10^3): box counting moved by at most 4.4e-16.
# Under a fixed cut of 1e-16 of the largest eigenvalue, 111 of them kept
# a third PCA axis of round-off size and moved by up to 0.0242; the cut
# of `dimest._intrinsic_coords`, scaled to the covariance's round-off,
# drops it.  Mirroring the cloud in its own plane leaves the estimate
# bitwise unchanged, so an axis's sign does not move it.  The
# correlation estimate moved by at most 9.3e-7, from lattice distances
# that tie exactly and that round-off splits.
BOX_SPREAD, CORRELATION_SPREAD = 1e-12, 1e-5


@settings(max_examples=20)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0),
       st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3))
def test_estimates_are_invariant_under_similarities(seed, log_scale, shift):
    cloud, box, corr = _stretched_cantor()
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    q *= np.sign(np.linalg.det(q))  # a rotation: det q = 1
    moved = SampledMeasure(10.0 ** log_scale * cloud.points @ q.T + shift,
                           cloud.weights, cloud.nominal_dim)
    assert abs(box_counting_dim(moved, seed=1).value - box) <= BOX_SPREAD
    assert (abs(correlation_dim(moved, seed=1).value - corr)
            <= CORRELATION_SPREAD)


@settings(max_examples=100)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.floats(-3.0, 3.0), st.floats(-1e3, 1e3))
def test_pca_keeps_the_axes_of_an_isometric_embedding(d, extra, seed,
                                                      log_scale, shift):
    # a cloud of intrinsic dimension d, placed in R^(d+extra) by a random
    # isometry, keeps exactly d axes: no round-off axis survives the cut
    rng = np.random.default_rng(seed)
    n = d + extra
    N = int(rng.integers(d + 1, 3_000))
    pts = 10.0 ** log_scale * rng.standard_normal((N, d))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0][:d]
    w = rng.random(N) + 0.1
    coords = _intrinsic_coords(pts @ q + shift, w / w.sum())
    assert coords.shape == (N, d)


def test_project_points():
    m = _uniform_square(500, 2)
    from projlab.fractal import embed
    f3 = span_frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    me = embed(m, f3)
    line = Frame(np.array([[1.0, 0.0, 0.0]]))
    proj = project_points(line, me)
    # the points come in the plane's own coordinates, (N, m)
    assert proj.points.shape == (500, 1)
    assert np.allclose(proj.points[:, 0], me.points[:, 0], atol=1e-12)
    assert np.array_equal(proj.weights, me.weights)


def test_project_points_keeps_the_distances_of_the_projection_in_rn():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(400, 4)) * 3.0
    m = SampledMeasure(pts, np.full(400, 1.0 / 400), 4.0)
    f = span_frame(rng.normal(size=(2, 4)))
    proj = project_points(f, m)
    assert proj.points.shape == (400, 2)
    assert np.array_equal(proj.weights, m.weights)
    old = pts @ projector(f).T  # the projection as points of R^4
    # both sides round each coordinate a few times over entries of size at
    # most max |x|, so distances differ by a few ulps of it: allow 64
    bound = 64 * np.finfo(float).eps * np.abs(pts).max()
    gap = np.abs(distance.pdist(proj.points) - distance.pdist(old))
    assert gap.max() <= bound


def test_estimate_serialization(tmp_path):
    est = box_counting_dim(four_corner_cantor(6))
    row = {"lambda": [0.0], "est_dim": est.value, "bound": 1.0,
           "margin": est.value - 1.0, "fit_r2": est.r_squared}
    ExperimentReport("bound_check", [row], {}, {}, [est]).save(tmp_path)
    path = tmp_path / "fitdata" / "row0000.csv"
    rows = path.read_text().strip().splitlines()
    assert len(rows) == len(est.scales) + 1  # header + one row per scale
    cells = [[float(c) for c in row.split(",")] for row in rows[1:]]
    assert cells == [[s, c] for s, c in zip(est.scales, est.counts)]


def test_box_counting_rejects_short_scale_list():
    # the window fit of six box-counting scales, log N against log 1/eps
    x = np.log(1.0 / np.geomspace(0.3, 0.01, 6))
    with pytest.raises(ValueError, match="need ≥ 7 usable scales, got 6"):
        _best_window(x, 1.5 * x)


@pytest.mark.parametrize("estimator, argument, value", [
    (box_counting_dim, "n_offsets", 0),
    (box_counting_dim, "n_offsets", 2.5),
    (box_counting_dim, "n_offsets", True),
    (box_counting_dim, "seed", -1),
    (box_counting_dim, "seed", 1.5),
    (correlation_dim, "seed", -1),
    (correlation_dim, "seed", 1.5),
    (correlation_dim, "seed", False),
], ids=["box_offsets_0", "box_offsets_float", "box_offsets_bool",
        "box_seed_negative", "box_seed_float", "correlation_seed_negative",
        "correlation_seed_float", "correlation_seed_bool"])
def test_estimators_name_bad_arguments(estimator, argument, value):
    # checked at entry, not left to numpy's reductions or SeedSequence
    measure = four_corner_cantor(4)
    with pytest.raises(ValueError, match=rf"^{argument} must be an integer"):
        estimator(measure, **{argument: value})


def test_correlation_rejects_too_few_usable_radii():
    # the window fit of six usable correlation radii, log C against log r
    x = np.log(np.geomspace(0.5, 0.005, 6))
    with pytest.raises(ValueError, match="need ≥ 7 usable scales"):
        _best_window(x, 0.6 * x - 1.0)


# ---------------------------------------------------------------------------
# The box counter against a reference that enumerates occupied rows
# ---------------------------------------------------------------------------

def _reference_count_boxes(pts, weights, eps, offsets,
                           mass_floor_factor=10.0):
    """Occupied boxes found by sorting the integer box rows, one offset at
    a time: the counter box counting used before the dense key, with the
    row sort done by lexsort, which gives np.unique(axis=0)'s grouping
    several times faster."""
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    per_axis = np.minimum(np.ceil(span / eps) + 1.0, 1e6)
    possible = float(np.prod(per_axis))
    floor = weights.sum() / (mass_floor_factor * max(possible, 1.0))
    counts = []
    for off in offsets:
        idx = np.floor((pts - lo + off * eps) / eps).astype(np.int64)
        idx -= idx.min(axis=0)
        order = np.lexsort(idx.T[::-1])
        rows = idx[order]
        starts = np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]
        box = np.empty(len(idx), dtype=np.int64)
        box[order] = np.cumsum(starts) - 1
        mass = np.bincount(box, weights=weights)
        counts.append(int(np.count_nonzero(mass >= floor)))
    return float(np.mean(counts))


def _new_count_boxes(pts, weights, eps, offsets):
    """One _count_boxes call with buffers of its own, filled with values
    the count must never read."""
    lo = pts.min(axis=0)
    cols = np.ascontiguousarray((pts - lo).T)
    N = len(weights)
    bufs = (np.full(N, np.nan), np.full(N, -1), np.full(N, -1))
    return _count_boxes(cols, pts.max(axis=0) - lo, weights, weights.sum(),
                        eps, offsets, bufs)


def _assert_counts_match(pts, weights, seed):
    """Every default scale and every offset of box_counting_dim(seed)."""
    diam = float(np.max(np.ptp(pts, axis=0)))
    offsets = np.random.default_rng(seed).random((3, pts.shape[1]))
    for eps in np.geomspace(0.4 * diam, 2.5e-3 * diam, 18):
        for off in offsets:
            one = off[None, :]
            assert (_new_count_boxes(pts, weights, eps, one)
                    == _reference_count_boxes(pts, weights, eps, one))


def _projected_rows(cfg, measure, rows):
    spec = resolve_family(cfg.family)
    for idx, lam in enumerate(lambda_grid(spec, (rows,))):
        projected = project_points(family_frame(spec, lam), measure)
        pts = _intrinsic_coords(projected.points, projected.weights)
        yield pts, projected.weights, cfg.seed ^ idx


def test_count_boxes_matches_reference_on_bound_check_rows():
    cfg = ExperimentConfig.load(CONFIGS / "bound_check_n3m2k1.json")
    measure = build_measure(cfg.measure, cfg.seed)
    dims = []
    for pts, weights, seed in _projected_rows(cfg, measure, 8):
        dims.append(pts.shape[1])
        _assert_counts_match(pts, weights, seed)
    # projected in the plane's own coordinates, every row keeps m = 2 axes
    assert dims == [2] * 8


@pytest.fixture(scope="module")
def sharpness_cloud():
    """The configured sharpness experiment and its measure."""
    cfg = ExperimentConfig.load(CONFIGS / "sharpness_n3m2k1.json")
    spec = resolve_family(cfg.family)
    p = p_of_l(spec.n, spec.m, spec.k, cfg.l)
    return cfg, sharpness_measure(spec.n, cfg.l, p, cfg.s, cfg.level,
                                  cfg.sample_count, cfg.seed)


def _thin_axis_row(cfg, measure):
    """Row 2 of the configured sharpness grid, projected by the n x n
    projector as points of R^3, then spread uniformly over 1e-4 along
    the plane's normal, by draws independent of the cloud's: its
    intrinsic coordinates keep a real third axis far thinner than the
    finest scale, so that axis has extent 1 at almost every scale and
    offset."""
    spec = resolve_family(cfg.family)
    lam = list(lambda_grid(spec, cfg.lambda_grid))[2]
    frame = family_frame(spec, lam)
    normal = complement(frame).basis[0]
    thin = 1e-4 * np.random.default_rng(1).random(measure.count)
    return SampledMeasure(measure.points @ projector(frame).T
                          + thin[:, None] * normal, measure.weights,
                          measure.nominal_dim)


def test_count_boxes_matches_reference_on_sharpness_row(sharpness_cloud):
    cfg, measure = sharpness_cloud
    pts, weights, seed = next(_projected_rows(cfg, measure, 8))
    assert pts.shape == (cfg.sample_count, 2)
    _assert_counts_match(pts, weights, seed)


def test_box_counting_counts_scales_as_the_serial_loop(sharpness_cloud):
    # the scales share one set of buffers, and each count is bit for bit
    # that of a _count_boxes call with fresh buffers
    row = _thin_axis_row(*sharpness_cloud)
    pts = _intrinsic_coords(row.points, row.weights)
    est = box_counting_dim(row, seed=5)
    assert pts.shape[1] == 3 and np.ptp(pts[:, 2]) < 0.05 * est.scales[-1]
    offsets = np.random.default_rng(5).random((3, 3))
    serial = [_new_count_boxes(pts, row.weights, eps, offsets)
              for eps in est.scales]
    assert est.counts.tobytes() == np.array(serial).tobytes()


def _same_estimate(a, b):
    assert (a.value, a.fit_window, a.slope_stderr, a.r_squared,
            a.warning) == (b.value, b.fit_window, b.slope_stderr,
                           b.r_squared, b.warning)
    assert a.scales.tobytes() == b.scales.tobytes()
    assert a.counts.tobytes() == b.counts.tobytes()


def test_concurrent_box_counting_matches_one_cpu_runs(sharpness_cloud):
    # two estimates at once on two threads, each with its own buffers
    clouds = [_thin_axis_row(*sharpness_cloud), four_corner_cantor(8)]
    serial = [box_counting_dim(m, seed=3) for m in clouds]
    start = threading.Barrier(len(clouds))

    def estimate(m):
        start.wait()
        return box_counting_dim(m, seed=3)

    with ThreadPoolExecutor(len(clouds)) as pool:
        for a, b in zip(pool.map(estimate, clouds), serial):
            _same_estimate(a, b)


@st.composite
def _weighted_clouds(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    # no subnormal coordinates: eps = span * 10^-x would underflow on a
    # span of a few subnormal units, and then both counters compare
    # platform-defined int64 casts of inf and NaN instead of counts
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False,
                      allow_subnormal=False)
    pts = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                               max_size=n)))
    w = (w + 1e-3) / (w + 1e-3).sum()
    span = float(np.max(np.ptp(pts, axis=0))) or 1.0
    eps = span * 10.0 ** -draw(st.floats(-0.5, 7.5))
    # two normal coordinates next to 2^-1022 can still differ by a
    # subnormal span
    assume(eps > 0.0)
    offsets = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=d,
                 max_size=d), min_size=1, max_size=3)))
    return pts, w, eps, offsets


# Dense key, ranked key and ranked rows: the first three explicit examples
# take one path each; the strategy draws grids from 1 box to 1e22.  The
# next three pin the extent formula int((span + o*eps)/eps) + 1: the
# largest offset below 1 (the top indices round up to 5), a span that is
# an exact multiple of eps (the last point on a box edge, where an extent
# one short merges box (0, 4) into (1, 0)), and a subnormal eps at which
# 0.9*eps rounds up to eps, so the smallest index is 1.  The last two
# put an extent-1 axis in the key: a unit axis beside one of span 1e-15
# (extent 1 at every offset), and a first axis of extent 1 before one
# that is not.
@settings(max_examples=200)
@given(_weighted_clouds())
@example((np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]]),
          np.array([0.2, 0.3, 0.5]), 0.1, np.array([[0.3, 0.7]])))
@example((np.array([[0.0], [0.25], [1.0]]), np.array([0.2, 0.3, 0.5]),
          1e-7, np.array([[0.5]])))
@example((np.array([[0.0, 0.0, 0.0], [0.5, 0.2, 0.1], [1.0, 1.0, 1.0]]),
          np.array([0.2, 0.3, 0.5]), 1e-7, np.array([[0.1, 0.2, 0.3]])))
@example((np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]),
          np.array([0.2, 0.3, 0.5]), 0.25, np.array([[1 - 2 ** -53] * 2])))
@example((np.array([[0.0, 0.0], [0.0, 1.0], [0.25, 0.0]]),
          np.array([0.2, 0.3, 0.5]), 0.25, np.array([[0.0, 0.0]])))
@example((np.array([[0.0, 0.0], [4.0, 2.0], [2.0, 6.0]]) * 2.0 ** -1074,
          np.array([0.2, 0.3, 0.5]), 3 * 2.0 ** -1074,
          np.array([[0.9, 0.9]])))
@example((np.array([[0.0, 0.0], [0.5, 1e-15], [1.0, 5e-16]]),
          np.array([0.2, 0.3, 0.5]), 0.1, np.array([[0.3, 0.7]])))
@example((np.array([[0.0, 0.0], [1e-15, 0.5], [0.0, 1.0]]),
          np.array([0.2, 0.3, 0.5]), 0.25, np.array([[0.6, 0.2]])))
def test_count_boxes_matches_reference_on_random_clouds(cloud):
    pts, w, eps, offsets = cloud
    assert (_new_count_boxes(pts, w, eps, offsets)
            == _reference_count_boxes(pts, w, eps, offsets))


# ---------------------------------------------------------------------------
# The window fit against scipy.stats.linregress, bit for bit
# ---------------------------------------------------------------------------

def _assert_linfit_is_linregress(x, y):
    slope, r, stderr = _linfit(x, y)
    ref = stats.linregress(x, y)
    assert slope == ref.slope
    assert r == ref.rvalue
    assert stderr == ref.stderr


def test_linfit_equals_linregress_on_random_windows():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(5, 19))
        x = np.sort(rng.normal(size=n)) * 10.0 ** rng.uniform(-3, 3)
        y = rng.uniform(-2, 2) * x + rng.normal(scale=10.0 ** rng.uniform(
            -8, 1), size=n)
        _assert_linfit_is_linregress(x, y)
    # exact lines clip r to +-1; a flat y has no correlation
    x = np.arange(6.0)
    _assert_linfit_is_linregress(x, 2.0 * x + 1.0)
    _assert_linfit_is_linregress(x, -3.0 * x)
    slope, r, _ = _linfit(x, np.full(6, 4.0))
    assert slope == 0.0 and np.isnan(r)


def test_linfit_equals_linregress_on_fixture_fit_data():
    fits = [box_counting_dim(four_corner_cantor(8)),
            box_counting_dim(_uniform_square(20_000, 0)),
            correlation_dim(line_cantor(0.7, 10), seed=0)]
    for est in fits:
        x = np.log(est.scales) if est.method == "correlation" else np.log(
            1.0 / est.scales)
        y = np.log(est.counts)
        for lo in range(len(x) - 6):
            for hi in range(lo + 5, len(x) - 1):
                _assert_linfit_is_linregress(x[lo:hi], y[lo:hi])
