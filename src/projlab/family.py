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
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fractal import ball, check_integer
from .grassmann import (
    Frame,
    complement,
    givens,
    orthonormalize,
    span_frame,
    standard_frame,
)
from .multivec import gram_norm
from .threads import each_cpu


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

def _take(flat, shape):
    """A C-contiguous float array of the shape at the head of the flat
    buffer, and the rest of the buffer: the scratch convention of the
    probe's kernels, which write into the head of the buffer they are
    given and use the rest.  A fresh array, and None for the rest, when
    flat is None or too short."""
    size = math.prod(shape)
    if flat is None or len(flat) < size:
        return np.empty(shape), None
    return flat[:size].reshape(shape), flat[size:]


class _ChainFamily:
    """The rows of both family kinds: a kind gives k, its plane_shape (d, n)
    and `_write`, the chain writer of its rows and their tangents."""

    def rows(self, lam_batch, out=None):
        """Spanning rows of V_lambda for a batch of parameters, (B, d, n):
        `family_rows(self, lam_batch, out)`."""
        return family_rows(self, lam_batch, out)

    def rows_and_derivs(self, lam, *args):
        """Rows of V_lambda at lam, (d, n), and their derivatives along each
        parameter, (k, d, n), contiguous, in the coordinates `_write` takes
        with args: ambient by default."""
        lam = np.asarray(lam, dtype=float)
        out = np.empty(self.plane_shape + (1 + len(lam),))
        self._write(lam[None], np.eye(len(lam)), out.reshape(-1), *args)
        return out[..., 0].copy(), np.moveaxis(out[..., 1:], -1, 0).copy()


@dataclass(frozen=True)
class FamilySpec(_ChainFamily):
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

    def angles(self, lam, scratch=None):
        """Chart angles at lam: (m, n-m) for one parameter (k,), and
        (m, n-m, B) for a batch (B, k), at the head of the flat buffer
        scratch, with one term per parameter after them (`_take`)."""
        lam_cols = np.asarray(lam, dtype=float).T
        a, rest = _take(scratch, (self.m, self.n - self.m)
                        + lam_cols.shape[1:])
        term, _ = _take(rest, lam_cols.shape[1:])
        a[...] = 0.0
        for (par, i, j, w) in self.schedule:
            a[i - 1, j - self.m - 1] += np.multiply(w, lam_cols[par - 1],
                                                    out=term)
        return a

    @property
    def plane_shape(self):
        return (self.m, self.n)

    def _write(self, lam_batch, tangents, flat, basis=None):
        """`_rotated_rows` of the rows of V_lambda at lam_batch (B, k) and
        their tangents (T, k), as (m, n, B + T), into the head of the flat
        buffer, in the coordinates basis.T @ chart (ambient by default); the
        chart angles and the chain use the rest of it as scratch."""
        out, rest = _take(flat, (self.m, self.n,
                                 len(lam_batch) + len(tangents)))
        angles = self.angles(lam_batch, rest)
        _, rest = _take(rest, angles.shape)
        _rotated_rows(self.coordinate_matrix() if basis is None else basis,
                      range(self.m), range(self.m, self.n), angles,
                      self.angles(tangents), out, rest)


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


def _rotated_rows(basis, starts, targets, angles, rates, out, scratch=None):
    """For each a, rotate the unit coordinate starts[a] toward each of the
    coordinates `targets` in turn, by the angles angles[a] (len(targets),
    B), and write basis.T @ x, ambient, into out[a] (n, B + T).  Row c of x
    holds coordinate c of B states, then, for B = 1, of T tangents as the
    angles move at the rates rates[a] (len(targets), T): by the product
    rule, each turn also adds its rate times the turned state turned a
    further quarter turn.  x and the `givens` scratch come from the flat
    buffer scratch (`_take`)."""
    B = angles.shape[-1]
    x, rest = _take(scratch, (basis.shape[0], out.shape[-1]))
    turn, _ = _take(rest, (3, out.shape[-1]))
    for a, i in enumerate(starts):
        x[:] = 0.0
        x[i, :B] = 1.0
        for j, beta, rate in zip(targets, angles[a], rates[a]):
            givens(x, i, j, beta, turn)
            x[i, B:] -= rate * x[j, 0]
            x[j, B:] += rate * x[i, 0]
        # a one-column product sums in another order than a wider one
        np.matmul(basis.T, np.ascontiguousarray(x[:, :B]), out=out[a, :, :B])
        np.matmul(basis.T, x[:, B:], out=out[a, :, B:])


def family_rows(family, lam_batch, out=None):
    """Spanning rows of V_lambda of a FamilySpec or an ExtendedFamily in
    ambient coordinates, (B, d, n) for its plane_shape (d, n).  Not
    orthonormalized.  The result is a view of a (d, n, B) array: a fresh
    one when out is None, else the head of the flat float buffer out, of
    B * d * n numbers at least, whose rest the chain uses as scratch.
    Either way the rows have the same bits."""
    lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
    shape = family.plane_shape + (len(lam_batch),)
    if out is None:
        out = np.empty(math.prod(shape))
    elif len(out) < math.prod(shape):
        raise ValueError(f"out must hold the {math.prod(shape)} numbers of "
                         f"the rows, got {len(out)}")
    family._write(lam_batch, np.empty((0, family.k)), out)
    return np.moveaxis(_take(out, shape)[0], -1, 0)


def _floats(x, name):
    """x as a float array; ValueError naming the argument `name` unless
    numpy reads it as integers or floats (booleans and strings are not)."""
    try:
        kind = np.asarray(x).dtype.kind
    except (TypeError, ValueError):
        kind = None
    if kind not in ("i", "u", "f"):
        raise ValueError(f"{name} must be numeric, got {x!r}")
    return np.asarray(x, dtype=float)


def _parameter(family, lam, name="lam"):
    """lam as an array, once checked to be a parameter of the family (a
    FamilySpec or an ExtendedFamily): k numbers inside the open box of
    half-widths family.radii around 0; ValueError naming the argument
    `name` otherwise."""
    lam = _floats(lam, name)
    if lam.shape != (family.k,) or not np.all(np.abs(lam) < family.radii):
        raise ValueError(f"{name} {lam.tolist()} is outside the family "
                         f"domain: need k={family.k} entries below the "
                         f"radii {list(family.radii)} in size")
    return lam


def family_frame(family, lam) -> Frame:
    """Orthonormal frame of V_lambda of a FamilySpec or an ExtendedFamily
    (span-preserving orthonormalization of family.rows at lam)."""
    lam = _parameter(family, lam)
    return span_frame(family.rows(lam[None, :])[0])


# ---------------------------------------------------------------------------
# Jacobians and non-degeneracy
# ---------------------------------------------------------------------------

def _projector_derivs(rows, derivs):
    """Derivatives of the projector E (E^T E)^{-1} E^T onto the span of
    the rows (d, n), E = rows^T, from the rows' derivatives derivs
    (k, d, n): (k, n, n), in the coordinates of the rows."""
    E = rows.T  # (n, d)
    Epinv = np.linalg.inv(E.T @ E) @ E.T  # (d, n)
    half = (np.eye(len(E)) - E @ Epinv) @ np.swapaxes(derivs, 1, 2) @ Epinv
    return half + np.swapaxes(half, 1, 2)


@dataclass(frozen=True)
class FamilyJacobian:
    """Derivative data of a family at one site.

    A[a] is the m x (n-m) matrix of the map z -> d Pi_{V_lambda}(z) /
    d lambda_a restricted to the complement of V_{lam0}, written in an
    orthonormal basis of V_{lam0} and the basis of comp_frame (ambient
    coordinates).
    """

    A: np.ndarray  # (k, m, n - m)
    comp_frame: Frame


def family_jacobian(spec: FamilySpec, lam0) -> FamilyJacobian:
    """Assemble the maps A_a : V^perp -> V at site lam0, analytically."""
    rows, derivs = spec.rows_and_derivs(_parameter(spec, lam0, "lam0"),
                                        np.eye(spec.n))
    dPis = _projector_derivs(rows, derivs)
    g = orthonormalize(rows)  # plane basis, chart coords
    f = complement(Frame(g)).basis  # complement basis, chart coords
    A = np.einsum("rm,amn,cn->arc", g, dPis, f)
    return FamilyJacobian(A, Frame(f @ spec.coordinate_matrix()))


def projection_derivative_matrix(family, lam0, z):
    """The n x k matrix whose columns are d Pi_{V_lambda}(z) / d lambda_a
    at lam0, for a FamilySpec or an ExtendedFamily and an arbitrary
    ambient z (ambient coordinates).  ValueError naming the argument when
    lam0 is not a parameter of the family or z is not n numbers."""
    rows, derivs = family.rows_and_derivs(_parameter(family, lam0, "lam0"))
    z = _floats(z, "z")
    if z.shape != rows.shape[1:]:
        raise ValueError(f"z must be a vector of n={rows.shape[1]} "
                         f"entries, got shape {z.shape}")
    return (_projector_derivs(rows, derivs) @ z).T


def nondegeneracy_check(spec: FamilySpec, lam0):
    """Wedge volume of the flattened maps A_1, ..., A_k; the family is
    non-degenerate at lam0 exactly when the volume is positive, taken as
    above 1e-8."""
    J = family_jacobian(spec, lam0)
    norm = gram_norm(J.A.reshape(len(J.A), -1))
    return {"wedge_norm": norm, "pass": bool(norm > 1e-8)}


# ---------------------------------------------------------------------------
# Witness subspaces (uniformly independent images)
# ---------------------------------------------------------------------------

def _witness_score(J: FamilyJacobian, W_rows, l, dirs):
    """min over sampled unit z in span(W) of the best (l+1)-wedge volume
    of the images A_j(z), for one W (t, n-m) or a stack of them (..., t,
    n-m): a score of the shape (...)."""
    zs = dirs @ W_rows  # (..., S, n-m)
    images = np.einsum("arc,...sc->...sar", J.A, zs)  # (..., S, k, m)
    best = np.zeros(zs.shape[:-1])
    for combo in itertools.combinations(range(len(J.A)), l + 1):
        M = images[..., list(combo), :]
        g = M @ np.swapaxes(M, -1, -2)
        vols = np.sqrt(np.maximum(np.linalg.det(g), 0.0))
        best = np.maximum(best, vols)
    return best.min(axis=-1)


def find_witness_subspace(J: FamilyJacobian, t, l, seed=0):
    """Search for a t-dimensional subspace W of the complement on which
    every unit z has l+1 images A_j(z) of uniformly positive wedge volume.

    200 random orthonormal t-frame restarts, drawn at once and scored in
    one batch on a fixed sample of 512 sphere points, then 50 steps of
    local hill-climbing.  The returned margin d_prime_hat is a certificate
    only for the sampled sphere points.
    """
    k, m, nm = J.A.shape
    if not (1 <= t <= nm and 0 <= l <= m - 1 and seed >= 0):
        raise ValueError(f"need 1 <= t <= {nm}, 0 <= l <= {m - 1} and "
                         f"seed >= 0, got t={t}, l={l}, seed={seed}")
    if not k > m * (t - 1) + l * (nm - t + 1):
        raise ValueError(
            f"hypothesis k > m(t-1) + l(n-m-t+1) fails: "
            f"{k} <= {m * (t - 1) + l * (nm - t + 1)}"
        )
    rng = np.random.default_rng(seed)
    dirs = (np.ones((1, 1)) if t == 1 else
            ball(rng.standard_normal((512, t)), np.ones(512), 1.0))
    starts = np.array([orthonormalize(g)
                       for g in rng.standard_normal((200, t, nm))])
    best_W, best_score = None, -np.inf
    for W, score in zip(starts, _witness_score(J, starts, l, dirs)):
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
class ExtendedFamily(_ChainFamily):
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

    @property
    def plane_shape(self):
        return (self.spec.m + self.p, self.spec.n)

    def _write(self, lam_batch, tangents, flat):
        """`FamilySpec._write` for the extended plane, ambient.  The base
        rows take the head of the flat buffer, and the rest, where the added
        rows go next, is their scratch.  The added rows turn at unit rate in
        lam2 and mix complement coordinates only, so they stay inside
        V_0^perp and are independent of lam1."""
        m, n, k, p, t = self.spec.m, self.spec.n, self.spec.k, self.p, self.t
        self.spec._write(lam_batch[:, :k], tangents[:, :k], flat)
        cols = len(lam_batch) + len(tangents)
        out, rest = _take(flat[m * n * cols:], (p, n, cols))
        _rotated_rows(self.ehat, range(t, t + p), range(t),
                      lam_batch[:, k:].T.reshape(p, t, len(lam_batch)),
                      tangents[:, k:].T.reshape(p, t, len(tangents)),
                      out, rest)

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

# Samples per slice, the unit of the probe's random stream: slice i covers
# samples [i*S, min((i+1)*S, samples)) and draws its normals (B, k), then
# its uniforms (B,), from the stream built from (seed, i) alone,
# default_rng(SeedSequence(seed, spawn_key=(i,))): numpy defines child i of
# SeedSequence(seed).spawn(n_slices) as that sequence.  The counts,
# fractions and exponents therefore depend on this size, but not on the CPU
# count or on which worker scores which slice.
SUBLEVEL_SLICE = 25_000


def sublevel_workspace(k, d, n):
    """Float numbers per sample of a probe worker's workspace, for k
    parameters and planes of dimension d in R^n: the k parameters, then the
    d*n of the rows and n + 5 of scratch.  Before the rows exist, their
    place holds the uniforms and `ball`'s k + 1; the chain writers keep
    their state, angles and `givens` scratch behind the rows written so
    far; then `_orthonormalize` takes n + 1 behind the rows, and
    `_projection_norm` 2."""
    return k + d * n + n + 5


def _orthonormalize(E, scratch=None):
    """Overwrite the spanning rows E (d, n, B), column layout, with an
    orthonormal basis of their span, sample by sample, by modified
    Gram-Schmidt, with the n + 1 numbers per sample of scratch from the
    flat buffer scratch (`_take`).  Singular rows give NaN."""
    dots, rest = _take(scratch, E.shape[-1:])
    terms, _ = _take(rest, E.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, q in enumerate(E):
            q /= np.sqrt(np.einsum("ab,ab->b", q, q, out=dots), out=dots)
            for r in E[j + 1:]:
                r -= np.multiply(np.einsum("ab,ab->b", q, r, out=dots), q,
                                 out=terms)


def _projection_norm(Q, w, scratch=None):
    """|Pi_{span rows} w| per sample, a length-B vector at the head of the
    flat buffer scratch (`_take`, with one more vector after it), from
    orthonormal rows Q (d, n, B) (`_orthonormalize`): the norm of the d dot
    products w . q_j."""
    norms, rest = _take(scratch, Q.shape[-1:])
    term, _ = _take(rest, Q.shape[-1:])
    norms[...] = 0.0
    for q in Q:
        norms += np.square(np.matmul(w, q, out=term), out=term)
    return np.sqrt(norms, out=norms)


def _sublevel_fractions(family, R, ws, deltas, samples, seed):
    """Fractions and counts, (D, len(deltas)) each, of the samples lam in
    the ball B(0, R) of the family's parameters with |Pi_{V_lam} w| <=
    delta, for each of the D directions w in ws and each delta (in the
    given order).  Every direction is scored on the same samples.
    ValueError when ws is not n wide, n the width of the family's rows.

    One worker per usable CPU (`each_cpu`) allocates one workspace for a
    slice, `sublevel_workspace` numbers per sample, and a mask, then
    claims slice indices from one shared counter until none is left.  For
    slice i it draws from the stream of (seed, i) into the workspace,
    turns the draws into parameters in place (`ball`), writes their rows
    (`family.rows(lam, out)`), orthonormalizes them in place and counts
    every direction's hits, allocating no slice-sized array after its
    first slice.  Counts are integers summed per worker, so they equal a
    one-CPU run's."""
    deltas = np.asarray(deltas, dtype=float)
    k = family.k
    d, n = family.rows(np.zeros((1, k)), None).shape[1:]
    if ws.shape[1] != n:
        raise ValueError(f"ws must have n={n} columns, the width of the "
                         f"rows, got shape {ws.shape}")
    slices = -(-samples // SUBLEVEL_SLICE)
    # next() of a count is one step under the GIL, so every index is
    # claimed by exactly one worker
    claims = itertools.count()

    def worker():
        size = min(SUBLEVEL_SLICE, samples)
        space = np.empty(size * sublevel_workspace(k, d, n))
        hits = np.empty(size, dtype=bool)
        counts = np.zeros((len(ws), len(deltas)), dtype=np.int64)
        while (i := next(claims)) < slices:
            B = min(SUBLEVEL_SLICE, samples - i * SUBLEVEL_SLICE)
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i,)))
            lam, rest = _take(space, (B, k))
            u, scratch = _take(rest, (B,))
            rng.standard_normal(out=lam)
            rng.random(out=u)
            ball(lam, u, R, scratch)
            Q = np.ascontiguousarray(np.moveaxis(family.rows(lam, rest), 0,
                                                 -1))
            _, scratch = _take(rest, Q.shape)
            _orthonormalize(Q, scratch)
            for c, w in zip(counts, ws):
                vals = _projection_norm(Q, w, scratch)
                # NaN lies below no delta, so a singular sample is never a
                # hit
                for j, delta in enumerate(deltas):
                    c[j] += np.count_nonzero(np.less_equal(vals, delta,
                                                           out=hits[:B]))
        return counts

    counts = sum(each_cpu(worker, slices))
    return counts / samples, counts


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
    The cloud comes in slices of SUBLEVEL_SLICE samples, slice i drawn
    from the stream of (seed, i) by the task that scores it on the usable
    CPUs (`each_cpu`), bitwise as on one CPU.  family.rows(lam, out)
    returns the rows (B, d, n) at lam (B, k); out is None, or a flat float
    buffer of B * (d*n + n + 5) numbers that the call may write, as both
    family kinds' rows (`family_rows`) do: the rows at its head, scratch
    after them.  The ball must lie in the family's box, 0 < R <=
    min(family.radii), so every sample is a parameter of the family.
    Deterministic given the seed.  ValueError naming the argument when ws
    is not (D, n) with n the rows' width, R leaves that range, samples is
    not positive, seed is not a non-negative integer, or deltas is empty,
    not positive or repeated.
    """
    ws = np.asarray(ws, dtype=float)
    if ws.ndim != 2:
        raise ValueError(f"ws must be a (D, n) array of directions, got "
                         f"shape {ws.shape}")
    if not 0 < R <= min(family.radii):
        raise ValueError(f"R must lie in (0, {min(family.radii)}], the "
                         f"family's smallest radius, got {R}")
    check_integer(samples, "samples", 1)
    check_integer(seed, "seed", 0)
    deltas = np.asarray(deltas, dtype=float)
    if not (deltas.ndim == 1 and deltas.size and np.all(deltas > 0)
            and len(set(deltas.tolist())) == deltas.size):
        raise ValueError(f"deltas must be a non-empty list of distinct "
                         f"positive numbers, got {deltas.tolist()}")
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
    if np.array_equal(spec.base.basis, np.eye(spec.n)[: spec.m]):
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
