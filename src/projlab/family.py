"""Parametrized families of orthogonal projections driven by rotation
schedules, the piecewise dimension lower-bound curve, non-degeneracy and
partial-transversality diagnostics, and the plane-extension construction.

A family is a map lambda -> V_lambda from a box in R^k into G(n, m): each
parameter drives one or more rotation slots (i, j) of the chart around a
base frame.  All chart work happens in the orthonormal coordinates of
(base frame, complement frame).
"""

import itertools
import json
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grassmann import (
    Frame,
    complement,
    givens,
    orthonormalize,
    span_frame,
    standard_frame,
)
from .multivec import gram_norm
from .threads import cpu_pool, usable_cpus


# ---------------------------------------------------------------------------
# The bound function p(l) and the theorem's lower-bound curve
# ---------------------------------------------------------------------------

def bracket_ceil(x):
    """Smallest integer q >= 0 with x <= q (ceiling clamped at zero), for
    a Fraction or an int x, in exact arithmetic."""
    return max(0, -((-x.numerator) // x.denominator))


def _check_nmk(n, m, k):
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    if not 0 < k < m * (n - m):
        raise ValueError(f"need 0 < k < m(n-m)={m * (n - m)}, got k={k}")


def p_of_l(n, m, k, l):
    """Dimension-drop function p(l) = n - m - ]((k - l(n-m)) / (m-l))],
    in exact rational arithmetic."""
    _check_nmk(n, m, k)
    if not 0 <= l <= m - 1:
        raise ValueError(f"need 0 <= l <= m-1={m - 1}, got l={l}")
    return n - m - bracket_ceil(Fraction(k - l * (n - m), m - l))


def p_oracle_dots(n, m, k, l):
    """Dot-filling oracle for p(l): fill the l lowest rows of an
    m x (n-m) grid with dots, distribute the remaining k - l(n-m) dots
    column by column from the left, and count unoccupied columns."""
    _check_nmk(n, m, k)
    remaining = max(0, k - l * (n - m))
    free_per_column = m - l
    cols_used = 0
    while remaining > 0:
        remaining -= free_per_column
        cols_used += 1
    return (n - m) - cols_used


def theorem_lower_bound(n, m, k, d):
    """Best lower bound for the dimension of almost every projected
    measure of dimension d: the best over l of min(d - p(l), l + 1),
    clamped into the natural band [max(0, d-(n-m)), min(d, m)]."""
    _check_nmk(n, m, k)
    d = float(d)
    if not 0.0 <= d <= n:
        raise ValueError(f"d must lie in [0, {n}], got {d}")
    best = max(min(d - p_of_l(n, m, k, l), float(l + 1)) for l in range(m))
    return min(max(0.0, d - (n - m), best), d, float(m))


# ---------------------------------------------------------------------------
# Rotation-schedule families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilySpec:
    """A k-parameter family of m-planes in R^n given by a rotation schedule.

    schedule: tuple of (param, i, j, weight) entries, param in 1..k,
    i in 1..m, j in m+1..n; parameter `param` adds weight * lambda_param
    to the chart angle of slot (i, j).  radii: half-widths of the open
    parameter box around 0.
    """

    n: int
    m: int
    k: int
    base: Frame
    schedule: tuple
    radii: tuple

    def __post_init__(self):
        _check_nmk(self.n, self.m, self.k)
        if self.base.ambient_dim != self.n or self.base.plane_dim != self.m:
            raise ValueError("base frame does not match (n, m)")
        seen = set()
        for (a, i, j, w) in self.schedule:
            if not (1 <= a <= self.k):
                raise ValueError(f"parameter index {a} outside 1..{self.k}")
            if not (1 <= i <= self.m and self.m + 1 <= j <= self.n):
                raise ValueError(f"slot ({i}, {j}) out of range")
            if (a, i, j) in seen:
                raise ValueError(f"duplicate schedule entry for ({a}, {i}, {j})")
            seen.add((a, i, j))
        if len(self.radii) != self.k:
            raise ValueError("need one domain radius per parameter")
        if any(not 1e-300 < r <= np.pi / 4 for r in self.radii):
            raise ValueError("domain radii must lie in (1e-300, pi/4]")
        object.__setattr__(self, "comp", complement(self.base))

    def coordinate_matrix(self):
        """Rows = (base frame, complement frame): the orthonormal chart
        coordinate system of the family."""
        return np.vstack([self.base.basis, self.comp.basis])

    def angles(self, lam):
        """Chart angles at lam: (m, n-m) for one parameter (k,), and
        (m, n-m, B) for a batch (B, k)."""
        lam_cols = np.asarray(lam, dtype=float).T
        a = np.zeros((self.m, self.n - self.m) + lam_cols.shape[1:])
        for (par, i, j, w) in self.schedule:
            a[i - 1, j - self.m - 1] += w * lam_cols[par - 1]
        return a

    def rows(self, lam_batch):
        """Spanning rows of V_lambda for a batch of parameters, (B, m, n),
        a fresh array on every call: `family_rows(self, .)`."""
        return family_rows(self, lam_batch)


def slot_family(n, m, k, slots, radius, base=None):
    """Family whose parameter a drives slot slots[a - 1] with weight 1, for
    a = 1..k, each over (-radius, radius), around `base` (the standard
    frame by default)."""
    if k > len(slots):
        raise ValueError(f"k={k} exceeds the {len(slots)} admissible slots")
    if base is None:
        base = standard_frame(n, m)
    schedule = tuple((a + 1, i, j, 1.0)
                     for a, (i, j) in enumerate(slots[:k]))
    return FamilySpec(n, m, k, base, schedule, (radius,) * k)


def disjoint_slot_family(n, m, k, base=None, radius=np.pi / 8):
    """Family whose parameters drive the first k distinct slots (row-major
    over (i, j)); the standard non-degenerate example."""
    slots = [(i, j) for i in range(1, m + 1) for j in range(m + 1, n + 1)]
    return slot_family(n, m, k, slots, radius, base)


def _rotated_rows(basis, starts, targets, angles, out):
    """For each a, rotate the unit coordinate starts[a] toward each of the
    coordinates `targets` in turn, by the angles angles[a] (len(targets),
    B), and write basis.T @ x, ambient, into out[a] (n, B).  x holds the
    coordinates along the rows of basis, one contiguous length-B vector
    each."""
    x = np.empty((basis.shape[0], angles.shape[-1]))
    for a, i in enumerate(starts):
        x[:] = 0.0
        x[i] = 1.0
        for j, beta in zip(targets, angles[a]):
            givens(x, i, j, beta)
        np.matmul(basis.T, x, out=out[a])


def _ambient_rows(spec: FamilySpec, lam_batch, out):
    """Write the spanning rows of V_lambda, ambient coordinates, into
    out (m, n, B): row i of sample b is out[i, :, b]."""
    _rotated_rows(spec.coordinate_matrix(), range(spec.m),
                  range(spec.m, spec.n), spec.angles(lam_batch), out)


def family_rows(spec: FamilySpec, lam_batch):
    """Spanning rows of V_lambda in ambient coordinates, (B, m, n).  Not
    orthonormalized.  The result is a view of a fresh (m, n, B) buffer."""
    lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
    out = np.empty((spec.m, spec.n, lam_batch.shape[0]))
    _ambient_rows(spec, lam_batch, out)
    return np.moveaxis(out, -1, 0)


def _parameter(family, lam):
    """lam as an array, once checked to be a parameter of the family (a
    FamilySpec or an ExtendedFamily): k entries inside the open box of
    half-widths family.radii around 0; ValueError otherwise."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (family.k,) or not np.all(np.abs(lam) < family.radii):
        raise ValueError("parameter outside the family domain")
    return lam


def family_frame(family, lam) -> Frame:
    """Orthonormal frame of V_lambda of a FamilySpec or an ExtendedFamily
    (span-preserving orthonormalization of family.rows at lam)."""
    lam = _parameter(family, lam)
    return span_frame(family.rows(lam[None, :])[0])


# ---------------------------------------------------------------------------
# Jacobians and non-degeneracy
# ---------------------------------------------------------------------------

def _rows_and_derivs_chart(spec: FamilySpec, lam):
    """Chart-coordinate spanning rows at lam plus their derivatives with
    respect to each parameter: (rows (m, n), derivs (k, m, n)).

    Derivative of an ordered rotation chain by the product rule: each slot
    rotates the state and the derivatives accumulated so far, then adds
    its own derivative, the weight times the slot's (i, j) components of
    the rotated state turned a further quarter turn.
    """
    n, m, k = spec.n, spec.m, spec.k
    ang = spec.angles(lam)
    # weight of parameter a on slot (i, j): the angles are linear in lam
    wt = spec.angles(np.eye(k))  # (m, n-m, k)
    rows = np.empty((m, n))
    derivs = np.empty((k, m, n))
    for i in range(m):
        # column 0 is the state, columns 1..k its parameter derivatives
        x = np.zeros((n, k + 1))
        x[i, 0] = 1.0
        for j in range(m, n):
            givens(x, i, j, ang[i, j - m])
            w = wt[i, j - m]
            x[i, 1:] -= w * x[j, 0]
            x[j, 1:] += w * x[i, 0]
        rows[i] = x[:, 0]
        derivs[:, i] = x[:, 1:].T
    return rows, derivs


def _projector_derivs(spec: FamilySpec, lam):
    """Chart-coordinate spanning rows at lam, (m, n), and the parameter
    derivatives of the projector E (E^T E)^{-1} E^T, E = rows^T: (k, n, n)."""
    rows, derivs = _rows_and_derivs_chart(spec, lam)
    E = rows.T  # (n, m)
    Epinv = np.linalg.inv(E.T @ E) @ E.T  # (m, n)
    I_minus_Pi = np.eye(spec.n) - E @ Epinv
    dPis = []
    for dR in derivs:
        half = I_minus_Pi @ dR.T @ Epinv
        dPis.append(half + half.T)
    return rows, np.array(dPis)


@dataclass(frozen=True)
class FamilyJacobian:
    """Derivative data of a family at one site.

    A[a] is the m x (n-m) matrix of the map z -> d Pi_{V_lambda}(z) /
    d lambda_a restricted to the complement of V_{lam0}, written in an
    orthonormal basis of V_{lam0} and the basis of comp_frame (ambient
    coordinates).
    """

    n: int
    m: int
    k: int
    A: np.ndarray  # (k, m, n - m)
    comp_frame: Frame


def family_jacobian(spec: FamilySpec, lam0) -> FamilyJacobian:
    """Assemble the maps A_a : V^perp -> V at site lam0, analytically."""
    rows, dPis = _projector_derivs(spec, _parameter(spec, lam0))
    g = orthonormalize(rows)  # plane basis, chart coords
    f = complement(Frame(g)).basis  # complement basis, chart coords
    A = np.einsum("rm,amn,cn->arc", g, dPis, f)
    return FamilyJacobian(spec.n, spec.m, spec.k, A,
                          Frame(f @ spec.coordinate_matrix()))


def projection_derivative_matrix(spec: FamilySpec, lam0, z):
    """The n x k matrix whose columns are d Pi_{V_lambda}(z) / d lambda_a
    at lam0, for an arbitrary ambient z (ambient coordinates)."""
    _, dPis = _projector_derivs(spec, np.asarray(lam0, dtype=float))
    Bcoord = spec.coordinate_matrix()
    zeta = Bcoord @ np.asarray(z, dtype=float)
    cols = dPis @ zeta  # (k, n) in chart coords
    return (cols @ Bcoord).T


def nondegeneracy_check(spec: FamilySpec, lam0):
    """Wedge volume of the flattened maps A_1, ..., A_k; the family is
    non-degenerate at lam0 exactly when the volume is positive, taken as
    above 1e-8."""
    J = family_jacobian(spec, lam0)
    norm = gram_norm(J.A.reshape(J.k, -1))
    return {"wedge_norm": norm, "pass": bool(norm > 1e-8)}


# ---------------------------------------------------------------------------
# Witness subspaces (uniformly independent images)
# ---------------------------------------------------------------------------

def _unit_sphere_sample(t, count, rng):
    if t == 1:
        return np.array([[1.0]])
    z = rng.standard_normal((count, t))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def _witness_score(J: FamilyJacobian, W_rows, l, dirs):
    """min over sampled unit z in span(W) of the best (l+1)-wedge volume
    of the images A_j(z)."""
    zs = dirs @ W_rows  # (S, n-m)
    images = np.einsum("arc,sc->sar", J.A, zs)  # (S, k, m)
    best = np.zeros(len(zs))
    for combo in itertools.combinations(range(J.k), l + 1):
        M = images[:, list(combo), :]
        g = M @ np.swapaxes(M, 1, 2)
        vols = np.sqrt(np.maximum(np.linalg.det(g), 0.0))
        best = np.maximum(best, vols)
    return float(best.min())


def find_witness_subspace(J: FamilyJacobian, t, l, seed=0):
    """Search for a t-dimensional subspace W of the complement on which
    every unit z has l+1 images A_j(z) of uniformly positive wedge volume.

    200 random orthonormal t-frame restarts scored on a fixed sample of 512
    sphere points, then 50 steps of local hill-climbing.  The returned
    margin d_prime_hat is a certificate only for the sampled sphere
    points.
    """
    nm = J.n - J.m
    if not (1 <= t <= nm and 0 <= l <= J.m - 1 and seed >= 0):
        raise ValueError(f"need 1 <= t <= {nm}, 0 <= l <= {J.m - 1} and "
                         f"seed >= 0, got t={t}, l={l}, seed={seed}")
    if not J.k > J.m * (t - 1) + l * (nm - t + 1):
        raise ValueError(
            f"hypothesis k > m(t-1) + l(n-m-t+1) fails: "
            f"{J.k} <= {J.m * (t - 1) + l * (nm - t + 1)}"
        )
    rng = np.random.default_rng(seed)
    dirs = _unit_sphere_sample(t, 512, rng)
    best_W, best_score = None, -np.inf
    for _ in range(200):
        W = orthonormalize(rng.standard_normal((t, nm)))
        score = _witness_score(J, W, l, dirs)
        if score > best_score:
            best_W, best_score = W, score
    step = 0.2
    for _ in range(50):
        Wtry = orthonormalize(best_W + step * rng.standard_normal((t, nm)))
        score = _witness_score(J, Wtry, l, dirs)
        if score > best_score:
            best_W, best_score = Wtry, score
        else:
            step *= 0.9
    W_ambient = Frame(best_W @ J.comp_frame.basis)
    return {"W": W_ambient, "W_comp_coords": best_W,
            "d_prime_hat": float(best_score)}


# ---------------------------------------------------------------------------
# The extension construction
# ---------------------------------------------------------------------------

# half-width of the box of the added rotation parameters
EXTRA_RADIUS = 0.4


@dataclass(frozen=True)
class ExtendedFamily:
    """The (m+p)-plane family built over a base family at its center 0.

    Parameters are (lam1, lam2): lam1 the base family's parameters, lam2
    the p*t extra rotation angles that swing the added complement
    directions ehat_{m+t+1..n} toward the witness directions
    ehat_{m+1..m+t}.  Like a FamilySpec, its domain is the open box of
    half-widths `radii` around 0 in R^k.
    """

    spec: FamilySpec
    l: int
    p: int
    t: int
    ehat: np.ndarray  # (n - m, n) ambient rows: W basis then completion
    d_prime_hat: float  # the witness search's margin on W

    @property
    def k(self):
        return self.spec.k + self.p * self.t

    @property
    def radii(self):
        """The base family's radii, then EXTRA_RADIUS per added angle."""
        return self.spec.radii + (EXTRA_RADIUS,) * (self.p * self.t)

    @property
    def target_order(self):
        """Transversality order r = l + 1 + p aimed at by the construction."""
        return self.l + 1 + self.p

    def rows(self, lam_batch):
        """Spanning rows of the extended plane, ambient, (B, m+p, n).  The
        result is a view of a fresh (m+p, n, B) buffer.  The rotations of
        the added directions mix complement coordinates only, so their
        rows stay inside V_0^perp and are independent of lam1."""
        lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
        m, k, p, t = self.spec.m, self.spec.k, self.p, self.t
        B = lam_batch.shape[0]
        out = np.empty((m + p, self.spec.n, B))
        _ambient_rows(self.spec, lam_batch[:, :k], out[:m])
        _rotated_rows(self.ehat, range(t, t + p), range(t),
                      lam_batch[:, k:].T.reshape(p, t, B), out[m:])
        return np.moveaxis(out, -1, 0)

    def frame(self, lam) -> Frame:
        """`family_frame(self, lam)`, kept as a method only because the
        benchmark's traced runs wrap it by name."""
        return family_frame(self, lam)


def extend_family(spec: FamilySpec, l, seed=0) -> ExtendedFamily:
    """Build the extended (m+p)-plane family at the center 0 of spec's
    box, p = p(l).

    Finds a witness subspace W of dimension t = n - m - p, completes its
    basis inside the complement, and adds p*t rotation parameters driving
    the completed directions toward W.  When p = 0 no parameters are added
    and the extended family is the original one viewed through this
    interface.
    """
    n, m, k = spec.n, spec.m, spec.k
    p = p_of_l(n, m, k, l)
    if p >= n - m:
        raise ValueError(
            f"p(l)={p} >= n-m={n - m}: nothing to extend, bound is trivial"
        )
    t = n - m - p
    J = family_jacobian(spec, np.zeros(k))
    found = find_witness_subspace(J, t, l, seed=seed)
    W_coords = found["W_comp_coords"]  # (t, n-m) in comp-frame coords
    full = np.linalg.qr(
        np.vstack([W_coords, np.eye(n - m)]).T[:, : n - m], mode="complete"
    )[0].T
    ehat_coords = np.vstack([W_coords, full[t:]])
    ehat = ehat_coords @ J.comp_frame.basis
    return ExtendedFamily(spec, l, p, t, ehat, found["d_prime_hat"])


# ---------------------------------------------------------------------------
# Transversality probe
# ---------------------------------------------------------------------------

# Parameters drawn per batch.  Each batch draws its unit vectors and radii
# in one call each, so the RNG stream, and with it every fraction and
# exponent, depends on this size.  The draws are the calling thread's only
# per-batch buffers.  On one usable CPU a batch is drawn only after the
# previous batch's counts are summed; on more, the next batch is drawn
# while the pool scores this one, so at most two batches are alive.
SUBLEVEL_BATCH = 200_000

# Samples per pool task.  Every step after the draw works sample by sample,
# so the counts do not depend on this size.  It trades the per-slice Python
# overhead against how evenly the slices of a batch spread over the CPUs,
# and sizes each pool thread's rows and scratch: this size keeps the peak
# memory of two batches of draws near that of one batch with 32,768-sample
# slices.  It divides SUBLEVEL_BATCH, so a batch splits evenly over two
# CPUs.
SUBLEVEL_SLICE = 25_000


def _orthonormalize(E):
    """Overwrite the spanning rows E (d, n, B), column layout, with an
    orthonormal basis of their span, sample by sample, by modified
    Gram-Schmidt.  Singular rows give NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, q in enumerate(E):
            q /= np.sqrt(np.einsum("ab,ab->b", q, q))
            for r in E[j + 1:]:
                r -= np.einsum("ab,ab->b", q, r) * q


def _projection_norm(Q, w):
    """|Pi_{span rows} w| per sample, a length-B vector, from orthonormal
    rows Q (d, n, B) (`_orthonormalize`): the norm of the d dot products
    w . q_j.  Writes nothing shared, so threads may call it at once."""
    return np.sqrt(sum(np.square(w @ q) for q in Q))


def _sublevel_fractions(family, R, ws, deltas, samples, seed):
    """Fractions and counts, (D, len(deltas)) each, of the samples lam in
    the ball B(0, R) of the family's parameters with |Pi_{V_lam} w| <=
    delta, for each of the D directions w in ws and each delta (in the
    given order).  Every direction is scored on the same samples.

    Only the RNG runs on the calling thread; one `cpu_pool` scores the
    whole probe.  Each batch's draws are cut into slices of SUBLEVEL_SLICE
    samples, and a pool thread turns a slice into parameters, builds its
    fresh rows, orthonormalizes them in place and counts every direction's
    hits.  With more than one usable CPU the calling thread draws the next
    batch while the pool scores this one, then sums this one's counts.
    Counts are integers summed per slice, so they equal a one-CPU run's."""
    rng = np.random.default_rng(seed)
    deltas = np.asarray(deltas, dtype=float)

    def slice_counts(draws, a):
        # the first step is out of place, since the slice is a view of the
        # batch's draws, which other threads read; the rest works in place
        g, u = (x[a:a + SUBLEVEL_SLICE] for x in draws)
        lam = g / np.linalg.norm(g, axis=1, keepdims=True)
        lam *= (R * u ** (1.0 / family.k))[:, None]
        Q = np.ascontiguousarray(np.moveaxis(family.rows(lam), 0, -1))
        _orthonormalize(Q)
        counts = np.empty((len(ws), len(deltas)), dtype=np.int64)
        for c, w in zip(counts, ws):
            vals = _projection_norm(Q, w)
            # NaN lies below no delta, so a singular sample is never a hit
            c[:] = [np.count_nonzero(vals <= d) for d in deltas]
        return counts

    counts = np.zeros((len(ws), len(deltas)), dtype=np.int64)
    alive = 2 if usable_cpus() > 1 else 1  # batches of draws at a time
    scoring = []  # (draws, slice futures) of each batch, the oldest first
    with cpu_pool() as pool:
        for done in range(0, samples, SUBLEVEL_BATCH):
            if len(scoring) == alive:
                _add_batch(counts, *scoring.pop(0))
            B = min(SUBLEVEL_BATCH, samples - done)
            draws = [rng.standard_normal((B, family.k)), rng.random(B)]
            scoring.append((draws, [pool.submit(slice_counts, draws, a)
                                    for a in range(0, B, SUBLEVEL_SLICE)]))
        for batch in scoring:
            _add_batch(counts, *batch)
    return counts / samples, counts


def _add_batch(counts, draws, futures):
    """Add a batch's slice counts to counts, then free its draws.  The
    tasks hold the draws only through the list draws, which is emptied:
    a task the pool has not yet let go of keeps no batch alive."""
    for f in futures:
        counts += f.result()
    draws.clear()


def _fit_exponent(deltas, fractions, counts):
    """Probe result of one direction: the slope of log fraction against
    log delta over the deltas with at least 16 hits and a fraction of at
    most 0.5, or the reason there is none."""
    result = {"deltas": deltas, "fractions": fractions, "exponent": None}
    if counts[0] == 0:
        return {**result, "diagnostic": "direction never near kernel"}
    usable = (counts >= 16) & (fractions <= 0.5)
    if usable.sum() < 2:
        return {**result, "diagnostic": "fewer than two resolvable scales"}
    slope, intercept = np.polyfit(np.log(deltas[usable]),
                                  np.log(fractions[usable]), 1)
    return {**result, "exponent": float(slope),
            "intercept": float(intercept), "used": usable,
            "diagnostic": None}


def transversality_probe(family, R, ws, deltas, samples, seed):
    """Monte-Carlo estimate of the sublevel-set volume scaling exponent of
    each direction w in ws, (D, n), over a FamilySpec or an ExtendedFamily:
    one result dict per direction, whose 'deltas' are the given deltas in
    descending order.

    For each delta, estimates the volume fraction of parameters lam in the
    ball B(0, R) with |Pi_{V_lam}(w)| <= delta, then fits the slope of
    log fraction against log delta over the resolvable range: deltas with
    at least 16 hits and a fraction of at most 0.5 (saturated scales carry
    no exponent information).  All directions share one sample cloud drawn
    from the seed, so a direction's result does not depend on the others.
    The calling thread draws the samples; slices of each batch are turned
    into rows and scored against every direction on the usable CPUs
    (`cpu_pool`), and the results are bitwise those of a one-CPU run.
    family.rows must return a fresh (B, d, n) array per call, as
    `FamilySpec.rows` and `ExtendedFamily.rows` do: the kernel
    orthonormalizes it in place and writes no other buffer, so threads
    share none they write.  The ball must lie in the family's box, 0 < R
    <= min(family.radii), so every sample is a parameter of the family.
    Deterministic given the seed.  ValueError naming the argument when ws
    is not (D, n) with n the rows' width, R leaves that range, samples is
    not positive, or deltas is empty or not positive.
    """
    ws = np.asarray(ws, dtype=float)
    if ws.ndim != 2:
        raise ValueError(f"ws must be a (D, n) array of directions, got "
                         f"shape {ws.shape}")
    if not 0 < R <= min(family.radii):
        raise ValueError(f"R must lie in (0, {min(family.radii)}], the "
                         f"family's smallest radius, got {R}")
    if not (isinstance(samples, numbers.Integral) and samples > 0):
        raise ValueError(f"samples must be a positive integer, got "
                         f"{samples!r}")
    deltas = np.asarray(deltas, dtype=float)
    if not (deltas.ndim == 1 and deltas.size and np.all(deltas > 0)):
        raise ValueError(f"deltas must be a non-empty list of positive "
                         f"numbers, got {deltas.tolist()}")
    n = family.rows(np.zeros((1, family.k))).shape[-1]
    if ws.shape[1] != n:
        raise ValueError(f"ws must have n={n} columns, the width of the "
                         f"rows, got shape {ws.shape}")
    deltas = np.sort(deltas)[::-1]
    fractions, counts = _sublevel_fractions(family, R, ws, deltas,
                                            samples, seed)
    return [_fit_exponent(deltas, f, c) for f, c in zip(fractions, counts)]


# ---------------------------------------------------------------------------
# Serialization and config fields
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """A config or family file cannot run as asked; the message names the
    field or requirement it fails."""


REQUIRED = object()  # config_field default of a field that must be given
_KIND_NAMES = {int: "integer", float: "number", str: "string",
               dict: "object", list: "list", bool: "boolean",
               type(None): "null"}


def _is_kind(v, kind):
    """Whether a JSON value v is of kind: a type (float takes any number,
    and neither int nor float takes a bool), a tuple of kinds, or [kind]
    for a list of that kind."""
    if isinstance(kind, tuple):
        return any(_is_kind(v, kd) for kd in kind)
    if isinstance(kind, list):
        return isinstance(v, (list, tuple)) and all(_is_kind(x, kind[0])
                                                    for x in v)
    if isinstance(v, bool):
        return kind is bool
    return isinstance(v, {int: numbers.Integral,
                          float: numbers.Real}.get(kind, kind))


def _kind_name(kind, plural=False):
    """Phrase naming a kind: 'an integer', 'a list of lists of numbers'."""
    if isinstance(kind, tuple):
        return " or ".join(_kind_name(kd, plural) for kd in kind)
    if isinstance(kind, list):
        return (f"{'lists' if plural else 'a list'} of "
                f"{_kind_name(kind[0], True)}")
    name = _KIND_NAMES[kind]
    if plural:
        return name + "s"
    return ("an " if name[0] in "aeiou" else "a ") + name


def config_field(d, key, where, kind, default=REQUIRED):
    """d[key] once checked to be of kind (see `_is_kind`), or default when
    d has no key; ConfigError naming `where` and the field otherwise."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    if key not in d:
        if default is REQUIRED:
            raise ConfigError(f"{where} field {key!r} is required")
        return default
    if not _is_kind(d[key], kind):
        raise ConfigError(f"{where} field {key!r} must be "
                          f"{_kind_name(kind)}, got {d[key]!r}")
    return d[key]


def check_keys(d, keys, where):
    """ConfigError naming the keys of the object d that are not in keys."""
    extra = set(d) - set(keys)
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")


def family_to_dict(spec: FamilySpec):
    if np.allclose(spec.base.basis, np.eye(spec.n)[: spec.m], atol=0.0):
        base = "standard"
    else:
        base = [list(map(float, row)) for row in spec.base.basis]
    return {
        "n": spec.n,
        "m": spec.m,
        "k": spec.k,
        "base": base,
        "schedule": [
            {"param": a, "i": i, "j": j, "weight": float(w)}
            for (a, i, j, w) in spec.schedule
        ],
        "radii": [float(r) for r in spec.radii],
    }


def family_from_dict(d):
    """The FamilySpec of a family dict; ConfigError naming the field when
    a field is unknown, missing or of the wrong kind, or the spec is
    invalid."""
    n, m, k = (config_field(d, key, "family", int) for key in "nmk")
    check_keys(d, ("n", "m", "k", "base", "schedule", "radii"), "family")
    base = config_field(d, "base", "family", (str, [[float]]))
    if isinstance(base, str) and base != "standard":
        raise ConfigError(f"family field 'base' must be 'standard' or a "
                          f"matrix, got {base!r}")
    schedule = []
    for e in config_field(d, "schedule", "family", list):
        a, i, j = (config_field(e, key, "family schedule entry", int)
                   for key in ("param", "i", "j"))
        check_keys(e, ("param", "i", "j", "weight"), "family schedule entry")
        w = config_field(e, "weight", "family schedule entry", float, 1.0)
        if not np.isfinite(w):
            raise ConfigError(f"field 'weight' must be finite, got {w}")
        schedule.append((a, i, j, float(w)))
    radii = tuple(float(r)
                  for r in config_field(d, "radii", "family", [float]))
    try:
        base = (standard_frame(n, m) if base == "standard"
                else Frame(np.asarray(base, dtype=float)))
        return FamilySpec(n, m, k, base, tuple(schedule), radii)
    except ValueError as exc:
        raise ConfigError(f"family: {exc}") from None


def read_json(path):
    """The JSON value in the file at path; ConfigError naming the path
    when the file cannot be read or does not hold JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def load_family(path) -> FamilySpec:
    return family_from_dict(read_json(path))
