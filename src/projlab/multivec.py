"""Exterior-algebra kernel: norms of simple r-vectors and of wedge powers of
linear maps.

A simple r-vector is represented by the list of its factor vectors, stacked
as the rows of an (r, n) array.  Its norm is the r-dimensional volume of the
parallelepiped they span, sqrt(det(D D^T)).
"""

import itertools

import numpy as np


class DimensionMismatchError(ValueError):
    pass


def _as_matrix(vectors):
    D = np.atleast_2d(np.asarray(vectors, dtype=float))
    if D.ndim != 2:
        raise DimensionMismatchError("vectors must form an (r, n) matrix")
    r, n = D.shape
    if r > n:
        raise DimensionMismatchError(f"r={r} factors in R^{n} (need r <= n)")
    if not np.all(np.isfinite(D)):
        raise ValueError("non-finite entries")
    return D


def gram_norm(vectors):
    """Norm of v_1 ^ ... ^ v_r, the r-volume of the spanned parallelepiped.

    Computed through the R factor of a QR decomposition of D^T rather than
    det(D D^T) directly; the product of |R_ii| is the same volume and behaves
    better for nearly dependent factors.
    """
    D = _as_matrix(vectors)
    R = np.linalg.qr(D.T, mode="r")
    return float(np.prod(np.abs(np.diag(R))))


def cauchy_binet_norm(vectors):
    """Same norm via the Cauchy-Binet formula: sqrt of the sum of squared
    maximal (r x r) minors of D.

    Enumerates all C(n, r) minors explicitly; intended as an independent
    oracle for gram_norm on small n, not as a fast path.
    """
    D = _as_matrix(vectors)
    r, n = D.shape
    total = 0.0
    for cols in itertools.combinations(range(n), r):
        total += np.linalg.det(D[:, cols]) ** 2
    return float(np.sqrt(total))


def wedge_operator_norm(L, r):
    """Operator norm of the r-th wedge power of a linear map.

    Equals the product of the r largest singular values of L; for a square
    map with r = n this is |det L|.
    """
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if not (1 <= r <= min(L.shape)):
        raise ValueError(f"r={r} out of range for a {L.shape} map")
    s = np.linalg.svd(L, compute_uv=False)
    return float(np.prod(s[:r]))
