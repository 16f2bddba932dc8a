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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grassmann import (
    Frame,
    complement,
    orthonormalize,
    span_frame,
    standard_frame,
)
from .multivec import gram_norm


# ---------------------------------------------------------------------------
# The bound function p(l) and the theorem's lower-bound curve
# ---------------------------------------------------------------------------

def bracket_ceil(x):
    """Smallest integer q >= 0 with x <= q (ceiling clamped at zero).

    Accepts floats, ints and Fractions; exact for exact inputs.
    """
    if isinstance(x, Fraction):
        q = -((-x.numerator) // x.denominator)
    else:
        xf = float(x)
        if not np.isfinite(xf):
            raise ValueError("bracket_ceil needs a finite argument")
        q = int(np.ceil(xf))
    return max(0, int(q))


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


@dataclass(frozen=True)
class BoundTable:
    """Piecewise data of the lower-bound curve for one (n, m, k)."""

    n: int
    m: int
    k: int
    p_values: tuple  # p(0), ..., p(m-1)
    ac_threshold: int  # p(m-1) + m; above it the bound saturates at m

    @property
    def breakpoints(self):
        """Sorted d-values where the curve changes slope."""
        pts = set()
        for l, p in enumerate(self.p_values):
            pts.add(p + l)
            pts.add(p + l + 1)
        pts.add(self.ac_threshold)
        return tuple(sorted(pts))


def bound_table(n, m, k):
    _check_nmk(n, m, k)
    pv = tuple(p_of_l(n, m, k, l) for l in range(m))
    return BoundTable(n, m, k, pv, pv[-1] + m)


def theorem_lower_bound(n, m, k, d):
    """Best lower bound for the dimension of almost every projected
    measure of dimension d, maximized over the l-indexed branches.

    The two branches for each l: d - p(l) on [p(l)+l, p(l)+l+1] and the
    flat value l+1 on [p(l)+l+1, p(l+1)+l+1].  The last flat branch is
    closed at p(m-1) + m, above which the bound saturates at m.  The
    result is clamped into the natural band [max(0, d-(n-m)), min(d, m)].
    """
    _check_nmk(n, m, k)
    d = float(d)
    if not 0.0 <= d <= n:
        raise ValueError(f"d must lie in [0, {n}], got {d}")
    tab = bound_table(n, m, k)
    best = max(0.0, d - (n - m))
    for l in range(m):
        p = tab.p_values[l]
        if p + l <= d <= p + l + 1:
            best = max(best, d - p)
        top = tab.p_values[l + 1] + l + 1 if l + 1 < m else tab.ac_threshold
        if p + l + 1 <= d <= top:
            best = max(best, float(l + 1))
    if d >= tab.ac_threshold:
        best = float(m)
    return min(best, d, float(m))


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
        if any(not 0 < r <= np.pi / 4 for r in self.radii):
            raise ValueError("domain radii must lie in (0, pi/4]")
        object.__setattr__(self, "comp", complement(self.base))

    def contains(self, lam):
        lam = np.asarray(lam, dtype=float)
        return lam.shape == (self.k,) and bool(
            np.all(np.abs(lam) < np.asarray(self.radii))
        )

    def coordinate_matrix(self):
        """Rows = (base frame, complement frame)."""
        return np.vstack([self.base.basis, self.comp.basis])

    def angles(self, lam):
        """Chart angle array (m, n-m) at parameter lam."""
        lam = np.asarray(lam, dtype=float)
        a = np.zeros((self.m, self.n - self.m))
        for (par, i, j, w) in self.schedule:
            a[i - 1, j - self.m - 1] += w * lam[par - 1]
        return a


def disjoint_slot_family(n, m, k, base=None, radius=None):
    """Family whose parameters drive the first k distinct slots (row-major
    over (i, j)); the standard non-degenerate example."""
    if base is None:
        base = standard_frame(n, m)
    if radius is None:
        radius = np.pi / 8
    slots = [(i, j) for i in range(1, m + 1) for j in range(m + 1, n + 1)]
    schedule = tuple(
        (a + 1, slots[a][0], slots[a][1], 1.0) for a in range(k)
    )
    return FamilySpec(n, m, k, base, schedule, (radius,) * k)


def _rows_batch_chart(spec: FamilySpec, lam_batch):
    """Spanning rows of V_lambda for a batch of parameters, in chart
    coordinates: shape (B, m, n).  Not orthonormalized."""
    lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
    B = lam_batch.shape[0]
    n, m = spec.n, spec.m
    # angle per (sample, i, j)
    ang = np.zeros((B, m, n - m))
    for (par, i, j, w) in spec.schedule:
        ang[:, i - 1, j - m - 1] += w * lam_batch[:, par - 1]
    rows = np.broadcast_to(np.eye(n)[:m], (B, m, n)).copy()
    for i in range(1, m + 1):
        for j in range(m + 1, n + 1):
            beta = ang[:, i - 1, j - m - 1]
            if not np.any(beta):
                continue
            c, s = np.cos(beta), np.sin(beta)
            xi = rows[:, i - 1, i - 1].copy()
            xj = rows[:, i - 1, j - 1].copy()
            rows[:, i - 1, i - 1] = c * xi - s * xj
            rows[:, i - 1, j - 1] = s * xi + c * xj
    return rows


def family_rows(spec: FamilySpec, lam_batch):
    """Spanning rows of V_lambda in ambient coordinates, (B, m, n)."""
    return _rows_batch_chart(spec, lam_batch) @ spec.coordinate_matrix()


def family_frame(spec: FamilySpec, lam) -> Frame:
    """Orthonormal frame of V_lambda (span-preserving orthonormalization
    of the rotated chart rows)."""
    lam = np.asarray(lam, dtype=float)
    if not spec.contains(lam):
        raise ValueError("parameter outside the family domain")
    rows = family_rows(spec, lam[None, :])[0]
    return span_frame(rows)


# ---------------------------------------------------------------------------
# Jacobians and non-degeneracy
# ---------------------------------------------------------------------------

def _rows_and_derivs_chart(spec: FamilySpec, lam):
    """Chart-coordinate spanning rows at lam plus their derivatives with
    respect to each parameter: (rows (m, n), derivs (k, m, n)).

    Derivative of an ordered rotation chain by the product rule; the slot
    derivative zeroes all coordinates except (i, j), which it rotates by
    the slot angle plus a quarter turn.
    """
    n, m, k = spec.n, spec.m, spec.k
    ang = spec.angles(lam)
    # weight of parameter a on slot (i, j)
    wt = np.zeros((k, m, n - m))
    for (par, i, j, w) in spec.schedule:
        wt[par - 1, i - 1, j - m - 1] += w
    rows = np.eye(n)[:m].copy()
    derivs = np.zeros((k, m, n))
    for i in range(1, m + 1):
        x = np.eye(n)[i - 1]
        dx = np.zeros((k, n))
        for j in range(m + 1, n + 1):
            beta = ang[i - 1, j - m - 1]
            c, s = np.cos(beta), np.sin(beta)
            # slot derivative applied to the current state
            slot = np.zeros(n)
            slot[i - 1] = -s * x[i - 1] - c * x[j - 1]
            slot[j - 1] = c * x[i - 1] - s * x[j - 1]
            # rotate accumulated derivatives through this slot
            di, dj = dx[:, i - 1].copy(), dx[:, j - 1].copy()
            dx[:, i - 1] = c * di - s * dj
            dx[:, j - 1] = s * di + c * dj
            dx += wt[:, i - 1, j - m - 1][:, None] * slot[None, :]
            # advance the state
            xi, xj = x[i - 1], x[j - 1]
            x = x.copy()
            x[i - 1] = c * xi - s * xj
            x[j - 1] = s * xi + c * xj
        rows[i - 1] = x
        derivs[:, i - 1, :] = dx
    return rows, derivs


def _projector_and_derivs(rows, derivs):
    """Projector onto the span of `rows` and its derivatives given row
    derivatives, via Pi = E (E^T E)^{-1} E^T."""
    E = rows.T  # (n, m)
    G = E.T @ E
    Ginv = np.linalg.inv(G)
    Epinv = Ginv @ E.T  # (m, n)
    Pi = E @ Epinv
    n = rows.shape[1]
    I = np.eye(n)
    dPis = []
    for dR in derivs:
        dE = dR.T
        half = (I - Pi) @ dE @ Epinv
        dPis.append(half + half.T)
    return Pi, np.array(dPis)


@dataclass(frozen=True)
class FamilyJacobian:
    """Derivative data of a family at one site.

    A[a] is the m x (n-m) matrix of the map z -> d Pi_{V_lambda}(z) /
    d lambda_a restricted to the complement of V_{lam0}, written in the
    orthonormal bases (plane_frame rows, comp_frame rows); both frames are
    in ambient coordinates.
    """

    n: int
    m: int
    k: int
    lam0: np.ndarray
    A: np.ndarray  # (k, m, n - m)
    plane_frame: Frame
    comp_frame: Frame

    def flattened(self):
        """The k maps as vectors in R^{m(n-m)}."""
        return self.A.reshape(self.k, -1)

    def apply(self, z_perp):
        """Images A_a(z) for z given in comp_frame coordinates: (k, m)."""
        z_perp = np.asarray(z_perp, dtype=float)
        return self.A @ z_perp


def family_jacobian(spec: FamilySpec, lam0) -> FamilyJacobian:
    """Assemble the maps A_a : V^perp -> V at site lam0, analytically."""
    lam0 = np.asarray(lam0, dtype=float)
    if not spec.contains(lam0):
        raise ValueError("site outside the family domain")
    rows, derivs = _rows_and_derivs_chart(spec, lam0)
    _, dPis = _projector_and_derivs(rows, derivs)
    g = orthonormalize(rows)  # plane basis, chart coords
    Q = np.linalg.qr(g.T, mode="complete")[0]
    f = Q[:, spec.m:].T  # complement basis, chart coords
    A = np.einsum("rm,amn,cn->arc", g, dPis, f)
    Bcoord = spec.coordinate_matrix()
    return FamilyJacobian(
        spec.n, spec.m, spec.k, lam0, A,
        Frame(g @ Bcoord), Frame(f @ Bcoord),
    )


def projection_derivative_matrix(spec: FamilySpec, lam0, z):
    """The n x k matrix whose columns are d Pi_{V_lambda}(z) / d lambda_a
    at lam0, for an arbitrary ambient z (ambient coordinates)."""
    lam0 = np.asarray(lam0, dtype=float)
    rows, derivs = _rows_and_derivs_chart(spec, lam0)
    _, dPis = _projector_and_derivs(rows, derivs)
    Bcoord = spec.coordinate_matrix()
    zeta = Bcoord @ np.asarray(z, dtype=float)
    cols = dPis @ zeta  # (k, n) in chart coords
    return (cols @ Bcoord).T


def nondegeneracy_check(spec: FamilySpec, lam0, tol=1e-8):
    """Wedge volume of the flattened maps A_1, ..., A_k; the family is
    non-degenerate at lam0 exactly when the volume is positive."""
    J = family_jacobian(spec, lam0)
    norm = gram_norm(J.flattened())
    return {"wedge_norm": norm, "pass": bool(norm > tol)}


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


def find_witness_subspace(J: FamilyJacobian, t, l, trials=200,
                          sphere_samples=512, refine_steps=50, seed=0):
    """Search for a t-dimensional subspace W of the complement on which
    every unit z has l+1 images A_j(z) of uniformly positive wedge volume.

    Random orthonormal t-frame restarts scored on a fixed sphere sample,
    then local hill-climbing.  The returned margin d_prime_hat is a
    certificate only for the sampled sphere points.
    """
    nm = J.n - J.m
    if not (1 <= t <= nm and 0 <= l <= J.m - 1):
        raise ValueError(f"need 1 <= t <= {nm} and 0 <= l <= {J.m - 1}")
    if not J.k > J.m * (t - 1) + l * (nm - t + 1):
        raise ValueError(
            f"hypothesis k > m(t-1) + l(n-m-t+1) fails: "
            f"{J.k} <= {J.m * (t - 1) + l * (nm - t + 1)}"
        )
    rng = np.random.default_rng(seed)
    dirs = _unit_sphere_sample(t, sphere_samples, rng)
    best_W, best_score = None, -np.inf
    for _ in range(trials):
        W = orthonormalize(rng.standard_normal((t, nm)))
        score = _witness_score(J, W, l, dirs)
        if score > best_score:
            best_W, best_score = W, score
    step = 0.2
    for _ in range(refine_steps):
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

@dataclass(frozen=True)
class ExtendedFamily:
    """The (m+p)-plane family built over a base family at a site.

    Parameters are (lam1, lam2): lam1 the k original parameters, lam2 the
    p*t extra rotation angles that swing the added complement directions
    ehat_{m+t+1..n} toward the witness directions ehat_{m+1..m+t}.
    """

    spec: FamilySpec
    lam0: np.ndarray
    l: int
    p: int
    t: int
    witness: Frame  # W, ambient
    ehat: np.ndarray  # (n - m, n) ambient rows: W basis then completion
    extra_radius: float

    @property
    def k_total(self):
        return self.spec.k + self.p * self.t

    @property
    def plane_dim(self):
        return self.spec.m + self.p

    @property
    def target_order(self):
        """Transversality order r = l + 1 + p aimed at by the construction."""
        return self.l + 1 + self.p

    def center(self):
        return np.concatenate([self.lam0, np.zeros(self.p * self.t)])

    def _extra_rows(self, lam2_batch):
        """Rotated added directions, ambient, (B, p, n).  The rotations mix
        complement coordinates only, so the rows stay inside V_{lam0}^perp
        and are independent of lam1."""
        m, t, p = self.spec.m, self.t, self.p
        B = lam2_batch.shape[0]
        if p == 0:
            return np.zeros((B, 0, self.spec.n))
        coords = np.zeros((B, p, self.spec.n - m))
        for a, i in enumerate(range(t, t + p)):
            coords[:, a, i] = 1.0
        for a, i in enumerate(range(t, t + p)):  # i: added-direction index
            for j in range(t):  # j: witness-direction index
                beta = lam2_batch[:, a * t + j]
                c, s = np.cos(beta), np.sin(beta)
                xi = coords[:, a, i].copy()
                xj = coords[:, a, j].copy()
                coords[:, a, i] = c * xi - s * xj
                coords[:, a, j] = s * xi + c * xj
        return coords @ self.ehat

    def rows(self, lam_batch):
        """Spanning rows of the extended plane, ambient, (B, m+p, n)."""
        lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
        k = self.spec.k
        base_rows = family_rows(self.spec, lam_batch[:, :k])
        extra = self._extra_rows(lam_batch[:, k:])
        return np.concatenate([base_rows, extra], axis=1)

    def frame(self, lam) -> Frame:
        lam = np.asarray(lam, dtype=float)
        return span_frame(self.rows(lam[None, :])[0])

    def domain_radii(self):
        base = np.minimum(
            np.asarray(self.spec.radii) - np.abs(self.lam0),
            np.asarray(self.spec.radii),
        )
        return np.concatenate([base, np.full(self.p * self.t,
                                             self.extra_radius)])


def extend_family(spec: FamilySpec, lam0, l, seed=0, extra_radius=0.4,
                  **witness_kwargs) -> ExtendedFamily:
    """Build the extended (m+p)-plane family at a site, p = p(l).

    Finds a witness subspace W of dimension t = n - m - p, completes its
    basis inside the complement, and adds p*t rotation parameters driving
    the completed directions toward W.  When p = 0 no parameters are added
    and the extended family is the original one viewed through this
    interface.
    """
    lam0 = np.asarray(lam0, dtype=float)
    n, m, k = spec.n, spec.m, spec.k
    p = p_of_l(n, m, k, l)
    if p >= n - m:
        raise ValueError(
            f"p(l)={p} >= n-m={n - m}: nothing to extend, bound is trivial"
        )
    t = n - m - p
    J = family_jacobian(spec, lam0)
    found = find_witness_subspace(J, t, l, seed=seed, **witness_kwargs)
    W_coords = found["W_comp_coords"]  # (t, n-m) in comp-frame coords
    full = np.linalg.qr(
        np.vstack([W_coords, np.eye(n - m)]).T[:, : n - m], mode="complete"
    )[0].T
    ehat_coords = np.vstack([W_coords, full[t:]])
    ehat = ehat_coords @ J.comp_frame.basis
    return ExtendedFamily(spec, lam0, l, p, t, found["W"], ehat,
                          extra_radius)


# ---------------------------------------------------------------------------
# Derivative-agreement check for extended planes
# ---------------------------------------------------------------------------

def extended_plane_derivative_check(V_path, c, U: Frame,
                                    hs=(1e-1, 1e-2, 1e-3, 1e-4),
                                    n_z=3, seed=0):
    """Verify that projections onto V_s and onto the extended plane
    <V_s, U> agree to second order at s = c, for test vectors z orthogonal
    to <V_c, U>.

    Returns the fitted log-log slope of the projection difference against
    |s - c|; pass means slope >= 1.9.
    """
    from .grassmann import span_projector

    Vc = V_path(c)
    n = Vc.ambient_dim
    if U.ambient_dim != n:
        raise ValueError("U lives in the wrong ambient space")
    if np.max(np.abs(U.basis @ Vc.basis.T)) > 1e-8:
        raise ValueError("U must lie inside the complement of V_c")
    joint = np.vstack([Vc.basis, U.basis])
    Pjoint = span_projector(joint)
    rng = np.random.default_rng(seed)
    zs = []
    while len(zs) < n_z:
        z = rng.standard_normal(n)
        z = z - Pjoint @ z
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            zs.append(z / nz)
    hs = np.asarray(hs, dtype=float)
    diffs = np.zeros_like(hs)
    for a, h in enumerate(hs):
        acc = 0.0
        for s in (c - h, c + h):
            Vs = V_path(s)
            Pv = span_projector(Vs.basis)
            Pext = span_projector(np.vstack([Vs.basis, U.basis]))
            for z in zs:
                acc += np.linalg.norm(Pv @ z - Pext @ z)
        diffs[a] = acc / (2 * len(zs))
    good = diffs > 1e-14
    if good.sum() < 2:
        return {"order": np.inf, "pass": True, "h": hs, "diff": diffs}
    slope = np.polyfit(np.log(hs[good]), np.log(diffs[good]), 1)[0]
    return {"order": float(slope), "pass": bool(slope >= 1.9),
            "h": hs, "diff": diffs}


# ---------------------------------------------------------------------------
# Transversality probe
# ---------------------------------------------------------------------------

def _sublevel_fractions(rows_fn, k, lam0, R, w, deltas, samples, seed,
                        batch=200_000):
    rng = np.random.default_rng(seed)
    lam0 = np.asarray(lam0, dtype=float)
    w = np.asarray(w, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    counts = np.zeros(len(deltas), dtype=np.int64)
    done = 0
    while done < samples:
        B = min(batch, samples - done)
        g = rng.standard_normal((B, k))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = R * rng.random(B) ** (1.0 / k)
        lam = lam0 + g * radii[:, None]
        E = rows_fn(lam)  # (B, dim, n)
        G = E @ np.swapaxes(E, 1, 2)
        cvec = E @ w
        sol = np.linalg.solve(G, cvec[..., None])[..., 0]
        proj2 = np.einsum("bd,bd->b", cvec, sol)
        vals = np.sqrt(np.maximum(proj2, 0.0))
        counts += (vals[:, None] <= deltas[None, :]).sum(axis=0)
        done += B
    return counts / samples, counts


def transversality_probe(rows_fn, k, lam0, R, w, deltas, samples,
                         seed, min_hits=16, max_fraction=0.5):
    """Monte-Carlo estimate of the sublevel-set volume scaling exponent.

    For each delta, estimates the volume fraction of parameters lam in the
    ball B(lam0, R) with |Pi_{V_lam}(w)| <= delta, then fits the slope of
    log fraction against log delta over the resolvable range: deltas with
    at least min_hits hits and a fraction below max_fraction (saturated
    scales carry no exponent information).  Deterministic given the seed.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))[::-1]
    fractions, counts = _sublevel_fractions(
        rows_fn, k, lam0, R, w, deltas, samples, seed
    )
    if counts[0] == 0:
        return {"deltas": deltas, "fractions": fractions,
                "exponent": None,
                "diagnostic": "direction never near kernel"}
    usable = (counts >= min_hits) & (fractions <= max_fraction)
    if usable.sum() < 2:
        return {"deltas": deltas, "fractions": fractions,
                "exponent": None,
                "diagnostic": "fewer than two resolvable scales"}
    x = np.log(deltas[usable])
    y = np.log(fractions[usable])
    slope, intercept = np.polyfit(x, y, 1)
    return {"deltas": deltas, "fractions": fractions,
            "exponent": float(slope), "intercept": float(intercept),
            "used": usable, "diagnostic": None}


def family_rows_fn(spec: FamilySpec):
    """Batched rows callable for transversality_probe."""
    return lambda lam_batch: family_rows(spec, lam_batch)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

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
    n, m, k = int(d["n"]), int(d["m"]), int(d["k"])
    if d["base"] == "standard":
        base = standard_frame(n, m)
    else:
        base = Frame(np.asarray(d["base"], dtype=float))
    schedule = tuple(
        (int(e["param"]), int(e["i"]), int(e["j"]),
         float(e.get("weight", 1.0)))
        for e in d["schedule"]
    )
    radii = tuple(float(r) for r in d["radii"])
    return FamilySpec(n, m, k, base, schedule, radii)


def save_family(spec: FamilySpec, path):
    with open(path, "w") as fh:
        json.dump(family_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_family(path) -> FamilySpec:
    with open(path) as fh:
        return family_from_dict(json.load(fh))
