"""Concrete Grassmannian geometry: orthonormal frames, complements, the
Givens update and projection operators.

A point of G(n, m) is carried as a Frame, an (m, n) array of orthonormal row
vectors.  The rotation charts built from these pieces are the families of
`projlab.family`.
"""

from dataclasses import dataclass

import numpy as np


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
        finite = np.isfinite(b).all()
        if not (finite and np.max(np.abs(b @ b.T - np.eye(m))) <= 1e-8):
            raise ValueError("basis rows are not finite and orthonormal")

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


def projector(f: Frame):
    """Orthogonal projection matrix onto the plane, as a map R^n -> R^n."""
    return f.basis.T @ f.basis


def span_projector(rows):
    """Projection matrix onto the span of possibly non-orthonormal rows,
    E (E^T E)^{-1} E^T with E = rows^T."""
    E = np.atleast_2d(np.asarray(rows, dtype=float)).T
    G = E.T @ E
    return E @ np.linalg.solve(G, E.T)
