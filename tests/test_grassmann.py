import numpy as np
import pytest

from projlab.grassmann import (
    ChartPoint,
    Frame,
    chart_point_frame,
    chart_rows,
    complement,
    givens,
    projector,
    span_frame,
    span_projector,
    standard_frame,
    tangent_projection_derivative,
)


def test_frame_requires_orthonormal_rows():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))


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


def test_chart_rows_at_zero_is_base():
    base = standard_frame(4, 2)
    c = ChartPoint(base, np.zeros((2, 2)))
    assert np.allclose(chart_rows(c), base.basis, atol=1e-15)


def test_chart_rows_first_order_tilt():
    # a single small angle alpha_{1,1} tilts e_1 toward the first
    # complement direction with slope 1
    base = standard_frame(3, 2)
    eps = 1e-6
    a = np.zeros((2, 1))
    a[0, 0] = eps
    rows = chart_rows(ChartPoint(base, a))
    assert rows[0, 2] == pytest.approx(eps, rel=1e-6)
    assert np.allclose(rows[1], [0, 1, 0], atol=1e-12)


def test_chart_point_frame_spans_chart_rows():
    rng = np.random.default_rng(1)
    base = standard_frame(5, 3)
    a = rng.uniform(-0.6, 0.6, size=(3, 2))
    rows = chart_rows(ChartPoint(base, a))
    f = chart_point_frame(ChartPoint(base, a))
    # same span: projector of the frame fixes every chart row
    P = projector(f)
    assert np.allclose(rows @ P, rows, atol=1e-10)


def test_projector_properties():
    rng = np.random.default_rng(2)
    f = span_frame(rng.standard_normal((3, 6)))
    P = projector(f)
    assert np.allclose(P, P.T, atol=1e-12)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.trace(P) == pytest.approx(3.0)


def test_span_projector_non_orthonormal_basis():
    P1 = span_projector([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    P2 = span_projector([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(P1, P2, atol=1e-12)


def test_complement_frame():
    rng = np.random.default_rng(3)
    f = span_frame(rng.standard_normal((2, 5)))
    g = complement(f)
    assert g.basis.shape == (3, 5)
    assert np.allclose(f.basis @ g.basis.T, 0.0, atol=1e-12)


def test_tangent_projection_derivative_swaps_coordinates():
    # d/d alpha_{i,j} Pi(z) at alpha=0 equals z_j e_i + z_i e_j
    # in chart coordinates, for the standard base frame
    base = standard_frame(4, 2)
    c = ChartPoint(base, np.zeros((2, 2)))
    z = np.array([1.0, 2.0, 3.0, 4.0])
    # i=1, j=3 (third ambient coordinate = first complement direction)
    d = tangent_projection_derivative(c, 1, 3, z)
    assert np.allclose(d, [3.0, 0.0, 1.0, 0.0], atol=1e-12)
    d2 = tangent_projection_derivative(c, 2, 4, z)
    assert np.allclose(d2, [0.0, 4.0, 0.0, 2.0], atol=1e-12)


def test_tangent_projection_derivative_matches_finite_difference():
    rng = np.random.default_rng(4)
    base = span_frame(rng.standard_normal((2, 4)))
    c0 = ChartPoint(base, np.zeros((2, 2)))
    B = np.vstack([c0.base.basis, c0.comp.basis])
    z = rng.standard_normal(4)
    zeta = B @ z  # chart coordinates of z
    h = 1e-6
    for i in (1, 2):
        for j in (3, 4):
            a = np.zeros((2, 2))
            a[i - 1, j - 3] = h
            # chart_rows works in chart coordinates throughout
            Pp = span_projector(chart_rows(ChartPoint(base, a, c0.comp)))
            Pm = span_projector(chart_rows(ChartPoint(base, -a, c0.comp)))
            fd = (Pp - Pm) @ zeta / (2 * h)
            an = tangent_projection_derivative(c0, i, j, z)
            assert np.allclose(B @ an, fd, atol=1e-6)


# --- givens and chart_rows against the pre-merge formulas -------------------

def _ref_rotate(x, i, j, beta):
    """The rotation of coordinate i toward j (1-based, coordinates on the
    last axis) as written before every chain used `grassmann.givens`."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    c, s = np.cos(beta), np.sin(beta)
    out[..., i - 1] = c * x[..., i - 1] - s * x[..., j - 1]
    out[..., j - 1] = s * x[..., i - 1] + c * x[..., j - 1]
    return out


def _ref_chart_rows(c):
    m, n = c.base.plane_dim, c.base.ambient_dim
    rows = np.eye(n)[:m]
    for i in range(1, m + 1):
        for j in range(m + 1, n + 1):
            rows[i - 1] = _ref_rotate(rows[i - 1], i, j,
                                      c.angles[i - 1, j - m - 1])
    return rows


def test_rotate_and_chart_rows_equal_pre_merge_formulas():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        a = rng.uniform(-0.7, 0.7, size=(m, n - m))
        a[rng.random((m, n - m)) < 0.3] = 0.0  # zero angles are skipped
        c = ChartPoint(span_frame(rng.standard_normal((m, n))), a)
        assert np.array_equal(chart_rows(c), _ref_chart_rows(c))
        x = rng.standard_normal((4, n))
        i, j = (int(v) for v in rng.choice(np.arange(1, n + 1), 2,
                                            replace=False))
        beta = rng.uniform(-np.pi, np.pi, size=4)
        beta[0] = 0.0
        y = x.T.copy()  # givens takes the coordinates on axis 0
        givens(y, i - 1, j - 1, beta)
        assert np.array_equal(y.T, _ref_rotate(x, i, j, beta))
        y1 = x[1].copy()
        givens(y1, i - 1, j - 1, beta[1])
        assert np.array_equal(y1, _ref_rotate(x[1], i, j, beta[1]))
