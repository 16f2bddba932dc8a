"""Generators for the compactly supported measures used in the bound and
sharpness experiments: four-corner Cantor iterates, two-map line Cantor
measures of a prescribed dimension, uniform balls, and orthogonal product
embeddings into R^n.

Measures are weighted point clouds.  Cantor types are deterministic IFS
iterates; Lebesgue types are seeded uniform samples, so every generator is
reproducible from (spec, seed).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .grassmann import Frame

MAX_LEVEL = 12


@dataclass(frozen=True)
class SampledMeasure:
    """Weighted point cloud approximating a probability measure on R^n."""

    points: np.ndarray  # (N, n)
    weights: np.ndarray  # (N,)
    nominal_dim: float  # the generator's theoretical dimension

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights disagree in length")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all((0 <= w) & (w < np.inf)):  # NaN fails too
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def ambient_dim(self):
        return self.points.shape[1]

    @property
    def count(self):
        return self.points.shape[0]


def _ifs_iterate(maps, level):
    """Points of the level-th iterate of an IFS acting on the origin,
    equal weights.  maps: list of (ratio, offset) affine contractions."""
    pts = np.zeros((1, len(maps[0][1])))
    for _ in range(level):
        pts = np.concatenate([ratio * pts + off for ratio, off in maps])
    w = np.full(len(pts), 1.0 / len(pts))
    return pts, w


def four_corner_cantor(level) -> SampledMeasure:
    """Level-th iterate of the four-corner Cantor construction in R^2:
    four maps of ratio 1/4 at the corners of the unit square.  Dimension
    log 4 / log 4 = 1."""
    if not 1 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL}")
    offs = [np.array(c) for c in
            [(0.0, 0.0), (0.75, 0.0), (0.0, 0.75), (0.75, 0.75)]]
    pts, w = _ifs_iterate([(0.25, off) for off in offs], level)
    return SampledMeasure(pts, w, 1.0)


def line_cantor(s, level) -> SampledMeasure:
    """Two-map Cantor measure on [0, 1] with dimension s in (0, 1]:
    contraction ratio rho = 2^(-1/s), translations {0, 1 - rho}."""
    if not 0 < s <= 1:
        raise ValueError("target dimension s must lie in (0, 1]")
    if not 1 <= level <= 24:
        raise ValueError("level must be in 1..24")
    rho = 2.0 ** (-1.0 / s)
    pts, w = _ifs_iterate(
        [(rho, np.array([0.0])), (rho, np.array([1.0 - rho]))], level
    )
    return SampledMeasure(pts, w, float(s))


def check_integer(value, name, low):
    """value once checked to be an integer, not a bool, of at least low;
    ValueError naming the argument `name` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(f"{name} must be an integer of at least {low}, "
                         f"got {value!r}")
    return value


def ball(g, u, radius, scratch=None):
    """Overwrite normals g (count, dim) with uniform points of B(0, radius)
    in R^dim, radii from the uniforms u (count,) (Muller), which become
    the radii; return g.  The squares and norms of the normals go to the
    head of the flat buffer scratch, of count * (dim + 1) numbers at
    least (fresh when None): the steps of np.linalg.norm, bit for bit."""
    count, dim = g.shape
    if scratch is None:
        scratch = np.empty(count * (dim + 1))
    squares = scratch[:count * dim].reshape(count, dim)
    norms = scratch[count * dim:count * (dim + 1)].reshape(count, 1)
    np.multiply(g, g, out=squares)
    np.sqrt(np.add.reduce(squares, axis=1, keepdims=True, out=norms),
            out=norms)
    g /= norms
    u **= 1.0 / dim  # the same fast paths as u ** (1.0 / dim)
    u *= radius
    g *= u[:, None]
    return g


def lebesgue_ball(dim, N, seed) -> SampledMeasure:
    """N uniform samples from the unit ball of R^dim, equal weights."""
    if not 1 <= dim < 2 ** 63:
        raise ValueError(f"dim must be >= 1 and below 2**63, got {dim}")
    if not 1 <= N < 2 ** 63:
        raise ValueError(f"N must be >= 1 and below 2**63, got {N}")
    rng = np.random.default_rng(seed)
    pts = ball(rng.standard_normal((N, dim)), rng.random(N), 1.0)
    return SampledMeasure(pts, np.full(N, 1.0 / N), float(dim))


def _center_and_scale(pts):
    """Translate to the centroid and scale into the unit ball."""
    pts = pts - pts.mean(axis=0)
    r = np.max(np.linalg.norm(pts, axis=1))
    if r > 0:
        pts = pts / r
    return pts


def embed(measure: SampledMeasure, frame: Frame) -> SampledMeasure:
    """Map a measure, centred and scaled into the unit ball, into R^n along
    an orthonormal frame: point p goes to sum_i p_i * basis_i.  Requires
    plane_dim = measure dim."""
    if frame.plane_dim != measure.ambient_dim:
        raise ValueError("frame plane dimension must match measure dimension")
    out = _center_and_scale(measure.points) @ frame.basis
    return SampledMeasure(out, measure.weights, measure.nominal_dim)


def product_embed(parts, N, seed) -> SampledMeasure:
    """Product measure of (measure, frame) factors embedded along pairwise
    orthogonal frames in a common R^n: draws N independent product
    samples, each factor resampled by its weights.  Dimension adds across
    factors."""
    if not parts:
        raise ValueError("need at least one factor")
    if not 1 <= N < 2 ** 63:
        raise ValueError(f"N must be >= 1 and below 2**63, got {N}")
    n = parts[0][1].ambient_dim
    for a, (measure, frame) in enumerate(parts):
        if frame.plane_dim != measure.ambient_dim:
            raise ValueError("frame plane dimension must match measure "
                             "dimension")
        if frame.ambient_dim != n:
            raise ValueError("factors embed into different ambient spaces")
        for _, other in parts[a + 1:]:
            if np.max(np.abs(frame.basis @ other.basis.T)) > 1e-9:
                raise ValueError("embedding subspaces overlap")
    rng = np.random.default_rng(seed)
    out = np.zeros((N, n))
    dim = 0.0
    for measure, frame in parts:
        idx = rng.choice(measure.count, size=N, p=measure.weights)
        pts = _center_and_scale(measure.points)[idx]
        out += pts @ frame.basis
        dim += measure.nominal_dim
    return SampledMeasure(out, np.full(N, 1.0 / N), dim)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    """Write a CSV of numbers: the header line, then one line per row with
    each cell written as repr(float(v)), which reads back as the same
    float; a None cell is left empty."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else repr(float(v))
                              for v in row) + "\n")
