import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlab.grassmann import (
    Frame,
    complement,
    givens,
    projector,
    span_frame,
    span_projector,
)


def test_frame_requires_orthonormal_rows():
    # NaN fails every comparison, so a NaN entry must fail the check too
    for rows in ([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
                 [[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]],
                 [[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match="not finite and orthonormal"):
            Frame(np.array(rows))


def test_rotate_coordinate_plane():
    # beta = pi/2 in the plane of coordinates 0 and 2 sends e1 to e3
    x = np.array([1.0, 0.0, 0.0])
    givens(x, 0, 2, np.pi / 2)
    assert np.allclose(x, [0.0, 0.0, 1.0], atol=1e-12)
    # untouched coordinate is preserved
    z = np.array([0.0, 1.0, 0.0])
    givens(z, 0, 2, 0.7)
    assert np.allclose(z, [0.0, 1.0, 0.0], atol=1e-12)


def test_rotate_is_orthogonal_and_invertible():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(5)
        b = rng.uniform(-np.pi, np.pi)
        y = x.copy()
        givens(y, 1, 3, b)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x))
        givens(y, 1, 3, -b)
        assert np.allclose(y, x, atol=1e-12)


def _random_frame(data):
    """A frame spanned by standard normal rows: 1 <= m < n <= 8."""
    n = data.draw(st.integers(2, 8), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    return span_frame(np.random.default_rng(seed).standard_normal((m, n)))


@settings(max_examples=100)
@given(data=st.data())
def test_projector_properties(data):
    f = _random_frame(data)
    P = projector(f)
    assert np.allclose(P, P.T, atol=1e-12)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.trace(P) == pytest.approx(f.plane_dim)


def test_span_projector_non_orthonormal_basis():
    P1 = span_projector([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    P2 = span_projector([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(P1, P2, atol=1e-12)


@settings(max_examples=100)
@given(data=st.data())
def test_complement_frame(data):
    f = _random_frame(data)
    n, m = f.ambient_dim, f.plane_dim
    g = complement(f)
    assert g.basis.shape == (n - m, n)
    assert np.allclose(f.basis @ g.basis.T, 0.0, atol=1e-12)
    # the two frames together are an orthonormal basis of R^n
    both = np.vstack([f.basis, g.basis])
    assert np.allclose(both @ both.T, np.eye(n), atol=1e-12)


# --- givens against the pre-merge formula ----------------------------------

def _ref_rotate(x, i, j, beta):
    """The rotation of coordinate i toward j (1-based, coordinates on the
    last axis) as written before every chain used `grassmann.givens`."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    c, s = np.cos(beta), np.sin(beta)
    out[..., i - 1] = c * x[..., i - 1] - s * x[..., j - 1]
    out[..., j - 1] = s * x[..., i - 1] + c * x[..., j - 1]
    return out


def test_givens_equals_pre_merge_formula():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        x = rng.standard_normal((4, n))
        i, j = (int(v) for v in rng.choice(np.arange(1, n + 1), 2,
                                            replace=False))
        beta = rng.uniform(-np.pi, np.pi, size=4)
        beta[0] = 0.0  # a zero angle is skipped
        y = x.T.copy()  # givens takes the coordinates on axis 0
        givens(y, i - 1, j - 1, beta)
        assert np.array_equal(y.T, _ref_rotate(x, i, j, beta))
        y1 = x[1].copy()
        givens(y1, i - 1, j - 1, beta[1])
        assert np.array_equal(y1, _ref_rotate(x[1], i, j, beta[1]))
