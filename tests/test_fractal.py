import numpy as np
import pytest

from projlab.fractal import (
    SampledMeasure,
    embed,
    four_corner_cantor,
    lebesgue_ball,
    line_cantor,
    product_embed,
    write_csv,
)
from projlab.grassmann import Frame, span_frame


def test_sampled_measure_invariants():
    with pytest.raises(ValueError):
        SampledMeasure(np.zeros((3, 2)), np.array([0.5, 0.5, 0.5]), 1.0)
    with pytest.raises(ValueError):
        SampledMeasure(np.zeros((3, 2)), np.array([0.6, 0.5, -0.1]), 1.0)
    m = SampledMeasure(np.zeros((2, 3)), np.array([0.25, 0.75]), 1.0)
    assert m.ambient_dim == 3
    assert m.count == 2


@pytest.mark.parametrize("points, weights, name", [
    (np.zeros((100, 2)), np.full(100, np.nan), "weights"),
    (np.zeros((2, 2)), np.array([np.inf, 0.5]), "weights"),
    (np.array([[0.0, np.nan], [1.0, 1.0]]), np.full(2, 0.5), "points"),
    (np.array([[0.0, -np.inf], [1.0, 1.0]]), np.full(2, 0.5), "points"),
], ids=["nan_weights", "infinite_weight", "nan_point", "infinite_point"])
def test_sampled_measure_rejects_non_finite_input(points, weights, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        SampledMeasure(points, weights, 2.0)


def test_four_corner_cantor_geometry():
    m = four_corner_cantor(3)
    assert m.count == 4 ** 3
    assert m.nominal_dim == 1.0
    assert np.allclose(m.weights, 1.0 / 64)
    assert m.points.min() >= 0.0
    assert m.points.max() <= 1.0
    # level-1 atoms sit at the four corner cells
    m1 = four_corner_cantor(1)
    got = set(map(tuple, np.round(m1.points, 6)))
    assert got == {(0.0, 0.0), (0.75, 0.0), (0.0, 0.75), (0.75, 0.75)}


def test_four_corner_cantor_nesting():
    # level L+1 points refine level L: every point of level L is within
    # 4^-L of some level-L+1 point
    a = four_corner_cantor(2).points
    b = four_corner_cantor(3).points
    d = np.min(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2), axis=1)
    assert d.max() <= 0.25 ** 2 + 1e-12


def test_line_cantor_classic_middle_third():
    # s = log2/log3 gives rho = 1/3: the standard middle-thirds set
    s = np.log(2) / np.log(3)
    m = line_cantor(s, 2)
    pts = sorted(float(x) for x in m.points[:, 0])
    expect = [0.0, 2 / 9, 2 / 3, 8 / 9]
    assert np.allclose(pts, expect, atol=1e-12)
    assert m.count == 4
    assert m.nominal_dim == pytest.approx(s)


def test_line_cantor_validates():
    with pytest.raises(ValueError):
        line_cantor(0.0, 4)
    with pytest.raises(ValueError):
        line_cantor(1.5, 4)


def test_lebesgue_ball_support_and_determinism():
    m = lebesgue_ball(3, 5000, seed=42)
    r = np.linalg.norm(m.points, axis=1)
    assert r.max() <= 1.0 + 1e-12
    # radius^3 should be uniform: mean 0.5
    assert np.mean(r ** 3) == pytest.approx(0.5, abs=0.02)
    m2 = lebesgue_ball(3, 5000, seed=42)
    assert np.array_equal(m.points, m2.points)


@pytest.mark.parametrize("seed", [0, 7, 12])
def test_lebesgue_ball_points_are_bitwise_the_old_formula(seed):
    # the shared in-place sampler against the out-of-place formula it
    # replaced: normals scaled to unit length, then by u^(1/dim)
    for dim in range(1, 14):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((2000, dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        want = g * (rng.random(2000) ** (1.0 / dim))[:, None]
        got = lebesgue_ball(dim, 2000, seed).points
        assert got.tobytes() == want.tobytes(), dim


def test_embed_isometry():
    m = four_corner_cantor(4)
    f = span_frame(np.array([[1.0, 0.4, 0.2], [0.1, 1.0, -0.3]]))
    e = embed(m, f)
    assert e.ambient_dim == 3
    # centring, scaling and embedding along an orthonormal frame scale
    # every pairwise distance by one common factor
    rng = np.random.default_rng(0)
    idx = rng.integers(0, m.count, size=(50, 2))
    d0 = np.linalg.norm(m.points[idx[:, 0]] - m.points[idx[:, 1]], axis=1)
    d1 = np.linalg.norm(e.points[idx[:, 0]] - e.points[idx[:, 1]], axis=1)
    keep = d0 > 0
    ratio = d1[keep] / d0[keep]
    assert ratio[0] > 0
    assert np.allclose(ratio, ratio[0], rtol=1e-12)
    assert np.allclose(d1[~keep], 0.0)


def test_embed_dimension_mismatch():
    m = line_cantor(0.5, 4)
    f = span_frame(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        embed(m, f)


def test_product_embed_orthogonality_enforced():
    m1 = line_cantor(0.5, 4)
    f1 = Frame(np.array([[1.0, 0.0, 0.0]]))
    f2 = Frame(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        product_embed([(m1, f1), (m1, f2)], 100, seed=0)


def test_product_embed_splits_coordinates():
    m1 = line_cantor(0.5, 6)
    m2 = line_cantor(0.7, 6)
    f1 = Frame(np.array([[1.0, 0.0, 0.0]]))
    f2 = Frame(np.array([[0.0, 0.0, 1.0]]))
    prod = product_embed([(m1, f1), (m2, f2)], 2000, seed=1)
    assert prod.ambient_dim == 3
    assert prod.nominal_dim == pytest.approx(1.2)
    # second coordinate untouched by either factor
    assert np.allclose(prod.points[:, 1], 0.0, atol=1e-12)
    # marginal supports come from the (normalized) factors
    assert prod.points[:, 0].std() > 0
    assert prod.points[:, 2].std() > 0


def test_csv_round_trip_exact(tmp_path):
    m = embed(four_corner_cantor(3),
              span_frame(np.array([[1.0, 0.3, 0.1], [0.2, 1.0, 0.4]])))
    path = tmp_path / "m.csv"
    write_csv(path, ["x_1", "x_2", "x_3", "weight"],
              np.column_stack([m.points, m.weights]))
    lines = path.read_text().splitlines()
    assert lines[0] == "x_1,x_2,x_3,weight"
    back = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    assert np.array_equal(back[:, :3], m.points)
    assert np.array_equal(back[:, 3], m.weights)
