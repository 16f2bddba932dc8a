import numpy as np
import pytest

from projlab.multivec import (
    DimensionMismatchError,
    cauchy_binet_norm,
    gram_norm,
    wedge_operator_norm,
)


def test_gram_norm_orthonormal_pair():
    assert gram_norm([[1, 0, 0], [0, 1, 0]]) == pytest.approx(1.0)


def test_gram_norm_hand_computed():
    # det([[1,1],[1,2]]) = 1
    assert gram_norm([[1, 0, 0], [1, 1, 0]]) == pytest.approx(1.0)


def test_gram_norm_dependent_vectors():
    assert gram_norm([[1, 2, 3], [2, 4, 6]]) == pytest.approx(0.0, abs=1e-12)


def test_gram_norm_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        gram_norm(np.ones((3, 2)))  # 3 vectors in R^2
    with pytest.raises(DimensionMismatchError):
        gram_norm(np.ones((2, 2, 2)))


def test_cauchy_binet_matches_examples():
    assert cauchy_binet_norm([[1, 0, 0], [0, 1, 0]]) == pytest.approx(1.0)
    assert cauchy_binet_norm([[1, 0, 0], [1, 1, 0]]) == pytest.approx(1.0)


def test_cauchy_binet_agrees_with_gram_on_random_integer_input():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        D = rng.integers(-3, 4, size=(r, n)).astype(float)
        g = gram_norm(D)
        cb = cauchy_binet_norm(D)
        assert abs(g - cb) <= 1e-9 * (1.0 + g)


def test_gram_norm_orthogonal_invariance_and_scaling():
    rng = np.random.default_rng(1)
    D = rng.standard_normal((3, 5))
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    assert gram_norm(D @ Q) == pytest.approx(gram_norm(D), rel=1e-10)
    D2 = D.copy()
    D2[0] *= -2.5
    assert gram_norm(D2) == pytest.approx(2.5 * gram_norm(D), rel=1e-10)


def test_wedge_operator_norm_identity_and_diagonal():
    assert wedge_operator_norm(np.eye(3), 2) == pytest.approx(1.0)
    assert wedge_operator_norm(np.diag([2.0, 3.0]), 2) == pytest.approx(6.0)


def test_wedge_operator_norm_full_rank_is_determinant():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        L = rng.standard_normal((n, n))
        det = abs(np.linalg.det(L))
        assert wedge_operator_norm(L, n) == pytest.approx(det, abs=1e-9,
                                                          rel=1e-9)


def test_wedge_operator_norm_bounds_image_volumes():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m, n, r = 4, 5, 2
        L = rng.standard_normal((m, n))
        frame = np.linalg.qr(rng.standard_normal((n, r)))[0].T
        image_vol = gram_norm(frame @ L.T)
        assert wedge_operator_norm(L, r) >= image_vol - 1e-9


def test_wedge_operator_norm_range_check():
    with pytest.raises(ValueError):
        wedge_operator_norm(np.eye(3), 4)
