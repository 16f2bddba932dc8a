"""Concrete Grassmannian geometry: orthonormal frames, rotation charts,
projection operators and analytic tangent maps.

A point of G(n, m) is carried as a Frame, an (m, n) array of orthonormal row
vectors.  Chart computations happen in the orthonormal coordinate system
given by (base frame, complement frame); conversion back to ambient
coordinates happens at the boundary of each operation.
"""

from dataclasses import dataclass, field

import numpy as np

CHART_LIMIT = np.pi / 4


@dataclass(frozen=True)
class Frame:
    """Orthonormal basis of an m-plane in R^n, rows of `basis`."""

    basis: np.ndarray  # (m, n)

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        object.__setattr__(self, "basis", b)
        m, n = b.shape
        if not 1 <= m < n:
            raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
        G = b @ b.T
        if np.max(np.abs(G - np.eye(m))) > 1e-8:
            raise ValueError("basis rows are not orthonormal")

    @property
    def ambient_dim(self):
        return self.basis.shape[1]

    @property
    def plane_dim(self):
        return self.basis.shape[0]


def orthonormalize(rows):
    """Gram-Schmidt in row order; preserves the span and the first
    direction.  Rows must be linearly independent."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    out = np.empty_like(rows)
    for i, v in enumerate(rows):
        w = v - out[:i].T @ (out[:i] @ v)
        nw = np.linalg.norm(w)
        if nw < 1e-12:
            raise ValueError("rows are numerically dependent")
        out[i] = w / nw
    return out


def span_frame(rows):
    """Frame spanned by the given (independent) row vectors."""
    return Frame(orthonormalize(rows))


def standard_frame(n, m):
    """The coordinate m-plane <e_1, ..., e_m> in R^n."""
    return Frame(np.eye(n)[:m])


def complement(f: Frame) -> Frame:
    """Orthonormal frame of the orthogonal complement, from the unused
    columns of a full QR of basis^T."""
    m = f.plane_dim
    Q, _ = np.linalg.qr(f.basis.T, mode="complete")
    comp = Q[:, m:].T
    # QR may flip orientation; irrelevant, rows are orthonormal by construction
    return Frame(comp)


def givens(x, i, j, beta):
    """Rotate coordinate i toward coordinate j by beta in place, 0-based;
    x holds coordinates on axis 0 and any batch on the rest, and beta
    broadcasts against x[i].  A zero angle leaves x as it is.  Every
    rotation chain of the package is built from this update."""
    if not np.any(beta):
        return
    c, s = np.cos(beta), np.sin(beta)
    xi = c * x[i]
    xi -= s * x[j]
    x[j] *= c
    x[j] += s * x[i]
    x[i] = xi


@dataclass(frozen=True)
class ChartPoint:
    """Rotation-chart coordinates around a base frame.

    angles[i-1, j-m-1] is the rotation angle of basis vector i toward
    complement vector j, for i in 1..m and j in m+1..n; all |angles| < pi/4.
    """

    base: Frame
    angles: np.ndarray  # (m, n - m)
    comp: Frame = field(default=None)

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        m, n = self.base.plane_dim, self.base.ambient_dim
        if a.shape != (m, n - m):
            raise ValueError(f"angles must be shaped ({m}, {n - m})")
        if np.any(np.abs(a) >= CHART_LIMIT):
            raise ValueError("chart angles must satisfy |a_ij| < pi/4")
        object.__setattr__(self, "angles", a)
        if self.comp is None:
            object.__setattr__(self, "comp", complement(self.base))


def coordinate_matrix(c):
    """Rows = (base frame, complement frame): the working orthonormal
    coordinate system of a chart point or a family."""
    return np.vstack([c.base.basis, c.comp.basis])


def chart_rows(c: ChartPoint):
    """The m rotated spanning vectors e_i(angles), in chart coordinates.

    e_i(a) applies the slot rotations with j ascending from m+1 to n;
    rotations in distinct slots of the same row do not commute, so the
    order is part of the contract.  The rows span V(a) but are not exactly
    orthonormal when two rows rotate toward the same complement direction.
    """
    m, n = c.base.plane_dim, c.base.ambient_dim
    rows = np.eye(n)[:m]
    for i in range(m):
        for j in range(m, n):
            givens(rows[i], i, j, c.angles[i, j - m])
    return rows


def chart_point_frame(c: ChartPoint) -> Frame:
    """Frame of the plane V(angles), in ambient coordinates.

    The spanning rows are re-orthonormalized (span-preserving) so the
    result always satisfies the Frame invariants.
    """
    B = coordinate_matrix(c)
    rows = chart_rows(c) @ B
    return span_frame(rows)


def projector(f: Frame):
    """Orthogonal projection matrix onto the plane, as a map R^n -> R^n."""
    return f.basis.T @ f.basis


def span_projector(rows):
    """Projection matrix onto the span of possibly non-orthonormal rows,
    E (E^T E)^{-1} E^T with E = rows^T."""
    E = np.atleast_2d(np.asarray(rows, dtype=float)).T
    G = E.T @ E
    return E @ np.linalg.solve(G, E.T)


def tangent_projection_derivative(c: ChartPoint, i, j, z):
    """Analytic derivative of a |-> Pi_{V(a)}(z) in the slot (i, j), at
    a = 0 of the given chart.

    In chart coordinates the derivative is z_j e_i + z_i e_j (the two cases
    for z in the complement and z in the plane, summed for general z).
    """
    m, n = c.base.plane_dim, c.base.ambient_dim
    if not (1 <= i <= m and m + 1 <= j <= n):
        raise ValueError(f"slot ({i}, {j}) outside 1..{m} x {m + 1}..{n}")
    B = coordinate_matrix(c)
    zeta = B @ np.asarray(z, dtype=float)
    out = np.zeros(n)
    out[i - 1] = zeta[j - 1]
    out[j - 1] = zeta[i - 1]
    return B.T @ out
