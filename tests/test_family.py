import contextlib
import io
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_family, usable_cpus
from projlab import family
from projlab.cli import main
from projlab.family import (
    SUBLEVEL_SLICE,
    FamilySpec,
    _fit_exponent,
    _orthonormalize,
    _projection_norm,
    _sublevel_fractions,
    bracket_ceil,
    disjoint_slot_family,
    extend_family,
    family_from_dict,
    family_jacobian,
    family_frame,
    family_rows,
    family_to_dict,
    find_witness_subspace,
    load_family,
    nondegeneracy_check,
    p_of_l,
    p_oracle_dots,
    projection_derivative_matrix,
    sublevel_workspace,
    theorem_lower_bound,
    transversality_probe,
)
from projlab.grassmann import (
    Frame,
    complement,
    span_frame,
    span_projector,
    standard_frame,
)
from projlab.lab import (
    _random_extended_site,
    extended_plane_derivative_check,
)


# --- arithmetic layer ------------------------------------------------------

def test_bracket_ceil():
    from fractions import Fraction
    assert bracket_ceil(-2) == 0
    assert bracket_ceil(0) == 0
    assert bracket_ceil(Fraction(1, 2)) == 1
    assert bracket_ceil(2) == 2
    assert bracket_ceil(Fraction(7, 3)) == 3
    assert bracket_ceil(Fraction(6, 3)) == 2
    assert bracket_ceil(Fraction(-1, 2)) == 0


@settings(max_examples=300)
@given(data=st.data())
def test_p_matches_dot_oracle_and_grows_with_l_past_n8(data):
    # criterion 1 scans every tuple up to n = 8; this samples 9 <= n <= 30
    # and checks every l of the drawn (n, m, k)
    n = data.draw(st.integers(9, 30), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    k = data.draw(st.integers(1, m * (n - m) - 1), label="k")
    ps = [p_of_l(n, m, k, l) for l in range(m)]
    assert ps == [p_oracle_dots(n, m, k, l) for l in range(m)]
    assert ps == sorted(ps)


def test_p_of_l_hand_values():
    # k=1 in any (n, m): one dot fills one grid cell, so one column is
    # touched and p(0) = n - m - 1; for l >= ceil(k/(n-m)) rows are full
    # and p(l) = n - m.
    assert p_of_l(3, 2, 1, 0) == 0
    assert p_of_l(3, 2, 1, 1) == 1
    assert p_of_l(4, 2, 3, 0) == 0
    assert p_of_l(4, 2, 3, 1) == 1
    assert p_of_l(4, 2, 1, 0) == 1
    assert p_of_l(4, 2, 1, 1) == 2
    assert p_of_l(5, 3, 4, 0) == 0
    assert p_of_l(5, 3, 4, 1) == 1
    assert p_of_l(5, 3, 4, 2) == 2


def test_p_monotone_in_l_and_antitone_in_k():
    for n in range(2, 8):
        for m in range(1, n):
            for k in range(1, m * (n - m)):
                pv = [p_of_l(n, m, k, l) for l in range(m)]
                assert all(a <= b for a, b in zip(pv, pv[1:]))
                if k > 1:
                    pv2 = [p_of_l(n, m, k - 1, l) for l in range(m)]
                    assert all(a <= b for a, b in zip(pv, pv2))


def test_theorem_lower_bound_hand_values():
    # (n, m, k) = (4, 2, 3): p = (0, 1); curve d, 1, d-1, then 2 from d=3
    assert theorem_lower_bound(4, 2, 3, 0.5) == pytest.approx(0.5)
    assert theorem_lower_bound(4, 2, 3, 1.0) == pytest.approx(1.0)
    assert theorem_lower_bound(4, 2, 3, 1.5) == pytest.approx(1.0)
    assert theorem_lower_bound(4, 2, 3, 2.5) == pytest.approx(1.5)
    assert theorem_lower_bound(4, 2, 3, 3.0) == pytest.approx(2.0)
    assert theorem_lower_bound(4, 2, 3, 3.7) == pytest.approx(2.0)
    # (n, m, k) = (3, 2, 1): same shape, threshold at d = 3
    assert theorem_lower_bound(3, 2, 1, 0.6) == pytest.approx(0.6)
    assert theorem_lower_bound(3, 2, 1, 1.5) == pytest.approx(1.0)
    assert theorem_lower_bound(3, 2, 1, 2.5) == pytest.approx(1.5)
    assert theorem_lower_bound(3, 2, 1, 3.0) == pytest.approx(2.0)


def test_theorem_lower_bound_full_rank_family_is_sharp_everywhere():
    # k = m(n-m) - 1 is the largest admissible k; with one more parameter
    # the family would be locally surjective and the bound min(d, m).
    n, m = 4, 2
    k = m * (n - m) - 1
    for d in np.linspace(0.1, n, 25):
        lb = theorem_lower_bound(n, m, k, d)
        assert lb <= min(d, m) + 1e-12


def test_theorem_lower_bound_structure():
    for n, m in [(3, 2), (4, 2), (5, 3), (6, 2)]:
        for k in range(1, m * (n - m)):
            ds = np.linspace(0.0, n, 241)
            vals = np.array([theorem_lower_bound(n, m, k, d) for d in ds])
            # within band
            lower = np.maximum(0.0, ds - (n - m))
            upper = np.minimum(ds, m)
            assert np.all(vals >= lower - 1e-12)
            assert np.all(vals <= upper + 1e-12)
            # nondecreasing, 1-Lipschitz
            dv = np.diff(vals)
            assert np.all(dv >= -1e-12)
            assert np.all(dv <= np.diff(ds) + 1e-12)
            # saturation above the threshold p(m-1) + m
            threshold = p_of_l(n, m, k, m - 1) + m
            if threshold <= n:
                assert theorem_lower_bound(n, m, k, threshold) == float(m)


def _branch_walk_lower_bound(n, m, k, d):
    """Reference for `theorem_lower_bound`: the walk over the branches
    d - p(l) on [p(l)+l, p(l)+l+1] and l+1 on [p(l)+l+1, p(l+1)+l+1],
    saturated at m from p(m-1)+m on, clamped into [max(0, d-(n-m)),
    min(d, m)]."""
    pv = [p_of_l(n, m, k, l) for l in range(m)]
    threshold = pv[-1] + m
    best = max(0.0, d - (n - m))
    for l, p in enumerate(pv):
        if p + l <= d <= p + l + 1:
            best = max(best, d - p)
        top = pv[l + 1] + l + 1 if l + 1 < m else threshold
        if p + l + 1 <= d <= top:
            best = max(best, float(l + 1))
    if d >= threshold:
        best = float(m)
    return min(best, d, float(m))


@settings(max_examples=500)
@given(data=st.data())
def test_theorem_lower_bound_equals_branch_walk(data):
    # d is a breakpoint p(l)+l or p(l)+l+1, or any point of [0, n]
    n = data.draw(st.integers(3, 30), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    k = data.draw(st.integers(1, m * (n - m) - 1), label="k")
    breaks = sorted({float(p_of_l(n, m, k, l) + l + e)
                     for l in range(m) for e in (0, 1)})
    d = data.draw(st.one_of(st.sampled_from(breaks), st.floats(0.0, n)),
                  label="d")
    d2 = min(d + data.draw(st.floats(0.0, n - d), label="step"), float(n))
    lb, lb2 = (theorem_lower_bound(n, m, k, x) for x in (d, d2))
    assert lb == _branch_walk_lower_bound(n, m, k, d)
    assert lb2 == _branch_walk_lower_bound(n, m, k, d2)
    # nondecreasing and 1-Lipschitz in d, inside the natural band
    assert 0.0 <= lb2 - lb <= d2 - d + 1e-12
    assert max(0.0, d - (n - m)) <= lb <= min(d, m)


def _printed_threshold(n, m, k):
    """The absolute-continuity threshold `projlab bound` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bound", "--n", str(n), "--m", str(m), "--k", str(k),
                     "--d", "0"]) == 0
    [line] = [x for x in out.getvalue().splitlines()
              if x.startswith("# absolute-continuity threshold")]
    return int(line.rsplit(">", 1)[1])


@settings(max_examples=300)
@given(data=st.data())
def test_theorem_lower_bound_properties(data):
    # every admissible (n, m, k) with n <= 8, and d, d2 anywhere in [0, n]
    n = data.draw(st.integers(3, 8), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    k = data.draw(st.integers(1, m * (n - m) - 1), label="k")
    d, d2 = sorted(data.draw(st.floats(0.0, n), label=f"d{i}")
                   for i in (1, 2))
    lb, lb2 = (theorem_lower_bound(n, m, k, x) for x in (d, d2))
    for x, b in ((d, lb), (d2, lb2)):
        assert max(0.0, x - (n - m)) <= b <= min(x, m)
    # nondecreasing and 1-Lipschitz in d
    assert 0.0 <= lb2 - lb <= d2 - d + 1e-12
    # the bound is m past the threshold p(m-1) + m that `projlab bound`
    # prints
    threshold = _printed_threshold(n, m, k)
    assert threshold == p_of_l(n, m, k, m - 1) + m
    above = data.draw(st.floats(threshold, n, exclude_min=True),
                      label="above") if threshold < n else None
    if above is not None:
        assert theorem_lower_bound(n, m, k, above) == float(m)


def test_theorem_lower_bound_validates_input():
    with pytest.raises(ValueError):
        theorem_lower_bound(4, 2, 3, -0.1)
    with pytest.raises(ValueError):
        theorem_lower_bound(4, 2, 3, 4.5)
    with pytest.raises(ValueError):
        theorem_lower_bound(4, 2, 4, 1.0)  # k = m(n-m) not allowed


# --- families and Jacobians ------------------------------------------------

def test_family_frame_at_zero_is_base():
    spec = disjoint_slot_family(4, 2, 3)
    f = family_frame(spec, np.zeros(3))
    assert np.allclose(f.basis, spec.base.basis, atol=1e-12)


def test_family_rows_batched_consistency():
    spec = disjoint_slot_family(4, 2, 3)
    rng = np.random.default_rng(0)
    lams = rng.uniform(-0.3, 0.3, size=(7, 3))
    rows = family_rows(spec, lams)
    assert rows.shape == (7, 2, 4)
    for b in range(7):
        single = family_rows(spec, lams[b][None, :])[0]
        assert np.allclose(rows[b], single, atol=1e-14)


def test_family_spec_validation():
    base = standard_frame(4, 2)
    with pytest.raises(ValueError):
        FamilySpec(4, 2, 3, base, ((1, 1, 2, 1.0),), (0.1,) * 3)  # j too small
    with pytest.raises(ValueError):
        FamilySpec(4, 2, 3, base, ((4, 1, 3, 1.0),), (0.1,) * 3)  # param > k
    with pytest.raises(ValueError):
        FamilySpec(4, 2, 3, base,
                   ((1, 1, 3, 1.0), (1, 1, 3, 0.5)), (0.1,) * 3)  # dup slot


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    base = span_frame(rng.standard_normal((2, 4)))
    spec = disjoint_slot_family(4, 2, 3, base=base)
    lam0 = np.array([0.05, -0.1, 0.08])
    J = family_jacobian(spec, lam0)
    z = rng.standard_normal(4)
    z_perp = z - J.comp_frame.basis.T @ (J.comp_frame.basis @ z) * 0  # keep z
    D = projection_derivative_matrix(spec, lam0, z)
    h = 1e-6
    from projlab.grassmann import span_projector
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        Pp = span_projector(family_rows(spec, (lam0 + e)[None, :])[0])
        Pm = span_projector(family_rows(spec, (lam0 - e)[None, :])[0])
        fd = (Pp - Pm) @ z / (2 * h)
        assert np.allclose(D[:, a], fd, atol=1e-6)


@pytest.mark.parametrize("extended", [False, True])
def test_projection_derivative_matrix_names_bad_arguments(extended):
    # checked at the boundary, not left to a numpy shape error
    spec = disjoint_slot_family(4, 2, 3)
    fam = extend_family(spec, l=1) if extended else spec
    lam0, z = np.zeros(fam.k), np.ones(4)
    assert projection_derivative_matrix(fam, lam0, z).shape == (4, fam.k)
    for bad in (np.zeros(fam.k + 1), np.zeros((1, fam.k)),
                np.full(fam.k, 0.5)):  # 0.5 lies outside every radius
        with pytest.raises(ValueError, match="^lam0 .* outside the family"):
            projection_derivative_matrix(fam, bad, z)
    for bad in (np.ones(3), np.ones(5), np.ones((1, 4))):
        with pytest.raises(ValueError, match="^z must be a vector of n=4 "):
            projection_derivative_matrix(fam, lam0, bad)
    # booleans and numeric strings are not numbers either, though numpy
    # would cast them to floats
    for bad in (["a"] * fam.k, "a", [0.0, {}], [False] * fam.k,
                ["0.1"] + ["0"] * (fam.k - 1), np.zeros(fam.k, dtype=bool),
                np.array(["1"] * fam.k)):
        with pytest.raises(ValueError, match="^lam0 must be numeric"):
            projection_derivative_matrix(fam, bad, z)
    for bad in (["a"] * 4, "a", [0.0, {}], [True] * 4, ["1"] * 4):
        with pytest.raises(ValueError, match="^z must be numeric"):
            projection_derivative_matrix(fam, lam0, bad)
    with pytest.raises(ValueError, match="^lam must be numeric"):
        family_frame(fam, [False] * fam.k)


def test_jacobian_at_zero_matches_linear_formula():
    # at lam = 0 with the standard base, parameter a driving slot (i, j)
    # maps z to z_j e_i + z_i e_j
    spec = disjoint_slot_family(4, 2, 3)
    z = np.array([1.0, 2.0, 3.0, 4.0])
    D = projection_derivative_matrix(spec, np.zeros(3), z)
    # slots in row-major order: (1,3), (1,4), (2,3)
    assert np.allclose(D[:, 0], [3, 0, 1, 0], atol=1e-10)
    assert np.allclose(D[:, 1], [4, 0, 0, 1], atol=1e-10)
    assert np.allclose(D[:, 2], [0, 3, 2, 0], atol=1e-10)


def test_nondegeneracy_disjoint_slots():
    # disjoint slots give orthogonal flattened Jacobian vectors: volume 1
    spec = disjoint_slot_family(4, 2, 3)
    res = nondegeneracy_check(spec, np.zeros(3))
    assert res["pass"]
    assert res["wedge_norm"] == pytest.approx(1.0, rel=1e-8)


def test_nondegeneracy_detects_duplicate_parameters():
    base = standard_frame(4, 2)
    schedule = ((1, 1, 3, 1.0), (2, 1, 3, 1.0), (3, 2, 4, 1.0))
    spec = FamilySpec(4, 2, 3, base, schedule, (0.2,) * 3)
    res = nondegeneracy_check(spec, np.zeros(3))
    assert not res["pass"]
    assert res["wedge_norm"] == pytest.approx(0.0, abs=1e-10)


def test_nondegeneracy_open_condition():
    # nondegenerate at 0 stays nondegenerate at nearby parameters
    spec = disjoint_slot_family(4, 2, 3)
    rng = np.random.default_rng(3)
    for _ in range(10):
        lam = rng.uniform(-0.2, 0.2, size=3)
        assert nondegeneracy_check(spec, lam)["pass"]


# --- witness and extension -------------------------------------------------

def test_find_witness_subspace_full_parameter_family():
    # k = m(n-m) - 1 = 3, t = 1, l = 1: hypothesis 3 > 2*0 + 1*1 holds
    spec = disjoint_slot_family(4, 2, 3)
    J = family_jacobian(spec, np.zeros(3))
    found = find_witness_subspace(J, t=1, l=1, seed=0)
    assert found["W"].basis.shape == (1, 4)
    assert found["d_prime_hat"] > 0.05
    # every witness direction lies in the complement of the plane
    f = family_frame(spec, np.zeros(3))
    assert np.max(np.abs(found["W"].basis @ f.basis.T)) < 1e-9


def test_find_witness_rejects_failed_hypothesis():
    spec = disjoint_slot_family(4, 2, 1)
    J = family_jacobian(spec, np.zeros(1))
    with pytest.raises(ValueError):
        find_witness_subspace(J, t=2, l=1)


def test_extend_family_shapes_and_center():
    spec = disjoint_slot_family(4, 2, 3)
    ext = extend_family(spec, l=1, seed=0)
    assert (ext.p, ext.t) == (1, 1)
    assert ext.k == 4
    assert ext.spec.m + ext.p == 3
    assert ext.target_order == 3
    rows = ext.rows(np.zeros((1, ext.k)))[0]
    assert rows.shape == (3, 4)
    # at the center the extra row is the completed direction, orthogonal
    # to the base plane
    assert np.max(np.abs(rows[2] @ rows[:2].T)) < 1e-9


def test_extend_family_rejects_trivial_p():
    spec = disjoint_slot_family(4, 2, 1)
    with pytest.raises(ValueError):
        extend_family(spec, l=1)  # p(1) = 2 = n - m


def test_extended_frame_rejects_parameters_outside_its_box():
    # the box: radius pi/8 for each base parameter, EXTRA_RADIUS = 0.4 for
    # the added angle
    ext = extend_family(disjoint_slot_family(4, 2, 3), l=1)
    assert ext.radii == (np.pi / 8,) * 3 + (0.4,)
    for lam in (np.full(4, 3.0), [0.0, 0.0, 0.0, 0.4], [0.0, 0.0, 0.4, 0.0],
                np.zeros(3)):
        with pytest.raises(ValueError, match="outside the family domain"):
            ext.frame(lam)
    assert ext.frame([0.0, 0.0, 0.38, 0.39]).basis.shape == (3, 4)


def test_extended_plane_derivative_check_passes_for_orthogonal_u():
    # V_s rotates e1 toward e3; U = <e4> stays orthogonal to the motion,
    # so the projections agree to second order
    def V_path(s):
        rows = np.array([[np.cos(s), 0.0, np.sin(s), 0.0],
                         [0.0, 1.0, 0.0, 0.0]])
        return Frame(rows)

    U = Frame(np.array([[0.0, 0.0, 0.0, 1.0]]))
    slope = extended_plane_derivative_check(V_path, 0.3, U, seed=0)
    assert slope >= 1.9, slope


def test_extended_plane_derivative_check_rejects_u_inside_plane():
    def V_path(s):
        rows = np.array([[np.cos(s), 0.0, np.sin(s), 0.0],
                         [0.0, 1.0, 0.0, 0.0]])
        return Frame(rows)

    U = Frame(np.array([[0.0, 1.0, 0.0, 0.0]]))  # e2 lies in V_c
    with pytest.raises(ValueError):
        extended_plane_derivative_check(V_path, 0.3, U)


def test_extended_plane_derivative_second_order_vs_first_order_control():
    # the projection onto V_s alone moves at first order in s for the same
    # test vectors; the difference to the extended-plane projection is one
    # order better
    from projlab.grassmann import span_projector

    def V_path(s):
        rows = np.array([[np.cos(s), 0.0, np.sin(s), 0.0],
                         [0.0, np.cos(s), 0.0, np.sin(s)]])
        return Frame(span_frame(rows).basis)

    c = 0.2
    Vc = V_path(c)
    from projlab.grassmann import complement
    U = Frame(complement(Vc).basis[:1])
    slope = extended_plane_derivative_check(V_path, c, U, seed=1)
    assert slope >= 1.9, slope
    # control: |Pi_{V_s} z| itself is first order
    hs = np.array([1e-1, 1e-2, 1e-3])
    z = complement(Vc).basis[1]
    raw = []
    for h in hs:
        P = span_projector(V_path(c + h).basis)
        raw.append(np.linalg.norm(P @ z))
    slope = np.polyfit(np.log(hs), np.log(raw), 1)[0]
    assert 0.8 <= slope <= 1.2


# --- transversality probe --------------------------------------------------

def test_transversality_probe_known_exponent():
    # n=3, m=2, k=1: the kernel direction sweeps at unit speed, exponent 1
    spec = disjoint_slot_family(3, 2, 1)
    w = np.array([0.0, 0.0, 1.0])  # complement vector at lam = 0
    deltas = np.geomspace(1e-3, 1e-1, 8)
    [res] = transversality_probe(spec, 0.3, [w], deltas, samples=200_000,
                                 seed=0)
    assert res["exponent"] is not None
    assert res["exponent"] == pytest.approx(1.0, abs=0.1)


def _tilted_planes(r):
    """The r-parameter family of r-planes of R^(r+1) spanned by the rows
    e_i + lam_i e_(r+1), i = 1..r, in the probe's family contract; the
    rows are fresh, so the buffer out is left as it is."""
    def rows(lam, out):
        eye = np.broadcast_to(np.eye(r), (len(lam), r, r))
        return np.concatenate([eye, np.asarray(lam)[:, :, None]], axis=2)
    return types.SimpleNamespace(k=r, radii=(1.0,) * r, rows=rows)


# Closed forms of the sublevel fraction over the ball B(0, R):
# - order 1: the slot family rotates e1 toward e3, |Pi_lam e3| = |sin lam|,
#   so the fraction is arcsin(delta) / R, capped at 1;
# - order r: |Pi_lam e_(r+1)| = |lam| / sqrt(1 + |lam|^2), so the fraction
#   is (delta / (R sqrt(1 - delta^2)))^r while that ball fits in B(0, R),
#   which it does at every delta below for R = 0.4.
_ORACLES = {
    "order 1": (disjoint_slot_family(3, 2, 1), 0.3, np.eye(3)[2],
                lambda d: np.minimum(np.arcsin(d) / 0.3, 1.0)),
    **{f"order {r} tilt": (_tilted_planes(r), 0.4, np.eye(r + 1)[r],
                           lambda d, r=r: (d / (0.4 * np.sqrt(1 - d * d)))
                           ** r) for r in range(1, 5)},
}


# Measured at 10^6 samples over these 15 probes: the worst |z| was 3.01 and
# the fitted exponent stayed within 0.068 of the closed form's slope.  The
# finest delta with 16 hits is 1e-3 for order 1 and r = 1, 1.9e-3 for
# r = 2, 0.0126 for r = 3 and 0.0448 for r = 4.
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_transversality_probe_matches_closed_forms(oracle, seed):
    fam, R, w, exact = _ORACLES[oracle]
    N = 1_000_000
    [res] = transversality_probe(fam, R, [w], np.geomspace(0.3, 1e-3, 10),
                                 samples=N, seed=seed)
    d, frac = res["deltas"], res["fractions"]
    p = exact(d)
    hits = np.rint(frac * N) >= 16
    # binomial: at least 16 hits, within 4 standard deviations
    assert np.all(np.abs(frac - p)[hits]
                  <= 4 * np.sqrt(p * (1 - p) / N)[hits])
    used = res["used"]
    slope = np.polyfit(np.log(d[used]), np.log(p[used]), 1)[0]
    assert abs(res["exponent"] - slope) <= 0.15


def test_transversality_probe_never_small():
    # w inside every plane of the family: |Pi(w)| stays near 1
    spec = disjoint_slot_family(4, 2, 1)
    w = np.array([0.0, 1.0, 0.0, 0.0])  # e2 is fixed by slot (1, 3)
    deltas = np.geomspace(1e-4, 1e-2, 6)
    [res] = transversality_probe(spec, 0.2, [w], deltas, samples=20_000,
                                 seed=0)
    assert res["exponent"] is None
    assert res["diagnostic"] == "direction never near kernel"


def test_transversality_probe_deterministic():
    spec = disjoint_slot_family(3, 2, 1)
    ws = [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]]
    deltas = np.geomspace(1e-3, 1e-1, 6)
    a = transversality_probe(spec, 0.3, ws, deltas, samples=50_000, seed=7)
    b = transversality_probe(spec, 0.3, ws, deltas, samples=50_000, seed=7)
    assert len(a) == len(b) == 2
    for ra, rb in zip(a, b):
        assert np.array_equal(ra["fractions"], rb["fractions"])
        assert ra["exponent"] == rb["exponent"]


def test_transversality_probe_rejects_a_single_vector():
    spec = disjoint_slot_family(3, 2, 1)
    with pytest.raises(ValueError, match=r"\(D, n\)"):
        transversality_probe(spec, 0.3, np.array([0.0, 0.0, 1.0]), [0.1],
                             100, seed=0)


def test_transversality_probe_empty_panel():
    spec = disjoint_slot_family(3, 2, 1)
    assert transversality_probe(spec, 0.3, np.zeros((0, 3)), [0.1], 100,
                                seed=0) == []


@pytest.mark.parametrize("argument, edit", [
    ("samples", dict(samples=0)),
    ("samples", dict(samples=True)),
    ("seed", dict(seed=-1)),
    ("seed", dict(seed=1.5)),
    ("seed", dict(seed=True)),
    ("ws", dict(ws=[[0.0, 0.0, 0.0, 1.0]])),
    ("deltas", dict(deltas=[0.1, -0.01])),
    ("deltas", dict(deltas=[])),
    ("deltas", dict(deltas=[0.01, 0.1, 0.01])),
    ("R", dict(R=0.0)),
    ("R", dict(R=-0.3)),
    ("R", dict(R=0.5)),  # the ball leaves the box of radius pi/8
], ids=["samples_0", "samples_bool", "seed_negative", "seed_float",
        "seed_bool", "ws_width", "delta_negative", "deltas_empty",
        "deltas_repeated", "R_0", "R_negative", "R_outside"])
def test_transversality_probe_rejects_bad_arguments(argument, edit):
    spec = disjoint_slot_family(3, 2, 1)
    args = dict(family=spec, R=0.3, ws=[[0.0, 0.0, 1.0]],
                deltas=[0.1, 0.01], samples=100, seed=0)
    with pytest.raises(ValueError, match=rf"^{argument} must"):
        transversality_probe(**{**args, **edit})


# --- batched rows and the sublevel kernel against the (B, m, n) loops ------
#
# The references below are sample-major oracles: rows built as (B, m, n)
# arrays one strided slot at a time, |Pi w| from a batched np.linalg.solve
# on the Gram, and hits from the B x D comparison matrix.

def _ref_family_rows(spec, lam_batch):
    lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
    B = lam_batch.shape[0]
    n, m = spec.n, spec.m
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
    return rows @ spec.coordinate_matrix()


def _ref_extended_rows(ext, lam_batch):
    lam_batch = np.atleast_2d(np.asarray(lam_batch, dtype=float))
    k, m, t, p = ext.spec.k, ext.spec.m, ext.t, ext.p
    lam2 = lam_batch[:, k:]
    B = lam_batch.shape[0]
    coords = np.zeros((B, p, ext.spec.n - m))
    for a, i in enumerate(range(t, t + p)):
        coords[:, a, i] = 1.0
    for a, i in enumerate(range(t, t + p)):
        for j in range(t):
            beta = lam2[:, a * t + j]
            c, s = np.cos(beta), np.sin(beta)
            xi = coords[:, a, i].copy()
            xj = coords[:, a, j].copy()
            coords[:, a, i] = c * xi - s * xj
            coords[:, a, j] = s * xi + c * xj
    return np.concatenate(
        [_ref_family_rows(ext.spec, lam_batch[:, :k]), coords @ ext.ehat],
        axis=1)


def _solve_norms(E, w):
    G = E @ np.swapaxes(E, 1, 2)
    cvec = E @ w
    sol = np.linalg.solve(G, cvec[..., None])[..., 0]
    return np.sqrt(np.maximum(np.einsum("bd,bd->b", cvec, sol), 0.0))


def _kernel_norms(E, w):
    Q = np.ascontiguousarray(np.moveaxis(E, 0, -1))
    _orthonormalize(Q)
    return _projection_norm(Q, w)


def _ref_counts(rows_fn, k, R, w, deltas, samples, seed,
                norms=_solve_norms, size=SUBLEVEL_SLICE):
    """Hit counts per delta on the probe's stream, counted as vals <=
    delta on the values `norms` gives: slice i of `size` samples draws
    its normals, then its uniforms, from child i of
    SeedSequence(seed).spawn(number of slices)."""
    deltas = np.asarray(deltas, dtype=float)
    starts = range(0, samples, size)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    values = []
    for a, child in zip(starts, children):
        rng = np.random.default_rng(child)
        B = min(size, samples - a)
        g = rng.standard_normal((B, k))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = R * rng.random(B) ** (1.0 / k)
        values.append(norms(rows_fn(g * radii[:, None]), w))
    vals = np.concatenate(values)
    return (vals[:, None] <= deltas[None, :]).sum(axis=0), vals


@pytest.fixture(scope="module")
def probe_families():
    """(name, family, reference rows) for the base family of
    configs/family_n3m2k1.json and the extension of
    configs/family_n4m2k3.json at l = 1."""
    from pathlib import Path

    configs = Path(__file__).resolve().parent.parent / "configs"
    base = load_family(configs / "family_n3m2k1.json")
    ext = extend_family(load_family(configs / "family_n4m2k3.json"), 1,
                        seed=2718)
    return [
        ("base", base, lambda lam: _ref_family_rows(base, lam)),
        ("ext", ext, lambda lam: _ref_extended_rows(ext, lam)),
    ]


def _probe_radius(fam):
    """The radius of the transversality runner's probe ball."""
    return 0.5 * min(fam.radii)


def _kernel_direction(fam, R, seed):
    """A unit vector orthogonal to the plane at a random parameter of the
    probe ball, as the transversality runner draws them."""
    rng = np.random.default_rng(seed)
    lam_star = (rng.random(fam.k) - 0.5) * R
    comp = complement(family_frame(fam, lam_star))
    w = rng.standard_normal(comp.plane_dim) @ comp.basis
    return w / np.linalg.norm(w)


def _panel(fam, R, seed, count=3):
    return np.array([_kernel_direction(fam, R, seed + i)
                     for i in range(count)])


@pytest.mark.parametrize("seed", [3, 17, 2718])
def test_sublevel_counts_equal_solve_reference(probe_families, seed):
    # every direction of a panel, scored on the one shared cloud, counts
    # exactly what the one-direction reference counts on the seed's cloud.
    # 200,001 samples cross eight slice boundaries and leave a ragged last
    # slice; the deltas are unsorted and repeat two values
    deltas = np.array([0.05, 0.3, 0.002, 0.05, 0.1, 0.01, 0.02, 0.002])
    samples = 8 * SUBLEVEL_SLICE + 1
    for name, fam, ref_rows in probe_families:
        R = _probe_radius(fam)
        ws = _panel(fam, R, seed)
        fractions, counts = _sublevel_fractions(fam, R, ws, deltas, samples,
                                                seed)
        assert counts.shape == fractions.shape == (len(ws), len(deltas))
        for i, w in enumerate(ws):
            ref, _ = _ref_counts(ref_rows, fam.k, R, w, deltas, samples,
                                 seed)
            assert counts[i].tolist() == ref.tolist(), (name, i)
            assert counts[i, 0] > 0 and counts[i, 2] < samples, (name, i)
            assert np.array_equal(fractions[i], ref / samples), (name, i)


@pytest.mark.parametrize("seed", [3, 17, 2718])
def test_sublevel_counts_at_tied_deltas(probe_families, seed):
    # deltas equal to sampled values count the sample (vals <= delta).
    # Solve and Gram-Schmidt round differently in the last bits, so the tie
    # is checked on the values the kernel itself produces, with deltas
    # picked from the first direction's values
    samples = 50_000
    for name, fam, _ in probe_families:
        R = _probe_radius(fam)
        ws = _panel(fam, R, seed, count=2)
        _, vals = _ref_counts(fam.rows, fam.k, R, ws[0], [1.0], samples,
                              seed, norms=_kernel_norms)
        picks = np.sort(vals)[[0, 1, 100, 2_000, 25_000, 25_000, -1]]
        deltas = np.concatenate([picks, np.nextafter(picks, 0.0)])[::-1]
        _, counts = _sublevel_fractions(fam, R, ws, deltas, samples, seed)
        for i, w in enumerate(ws):
            ref, _ = _ref_counts(fam.rows, fam.k, R, w, deltas, samples,
                                 seed, norms=_kernel_norms)
            assert counts[i].tolist() == ref.tolist(), (name, i)
        at_pick, below = counts[0, len(picks):], counts[0, :len(picks)]
        assert np.all(at_pick > below) and at_pick[0] == samples, name


def test_panel_directions_equal_one_direction_probes(probe_families):
    # the shared cloud is drawn from the seed alone: direction i of a
    # panel, and direction 0 in particular, equals a probe of w_i alone
    deltas = np.geomspace(0.3, 1e-3, 10)
    for name, fam, _ in probe_families:
        R = _probe_radius(fam)
        ws = _panel(fam, R, 5)
        panel = transversality_probe(fam, R, ws, deltas, samples=60_000,
                                     seed=2718)
        assert len(panel) == len(ws)
        for w, res in zip(ws, panel):
            [alone] = transversality_probe(fam, R, [w], deltas,
                                           samples=60_000, seed=2718)
            assert np.array_equal(res["fractions"], alone["fractions"]), name
            assert res["exponent"] == alone["exponent"], name
            assert res["diagnostic"] == alone["diagnostic"], name


def test_rows_are_fresh_on_every_call(probe_families):
    # the probe orthonormalizes the rows in place, so two calls of
    # family_rows or ExtendedFamily.rows must not share a buffer
    rng = np.random.default_rng(4)
    for name, fam, _ in probe_families:
        R = _probe_radius(fam)
        lam = rng.uniform(-R, R, size=(9, fam.k))
        assert not np.shares_memory(fam.rows(lam), fam.rows(lam)), name


def test_probe_samples_lie_in_the_family_box(probe_families):
    # every lam the probe hands to family.rows is a parameter of the
    # family, even when its ball reaches the box's smallest radius
    deltas = np.geomspace(0.3, 1e-3, 4)
    for name, fam, _ in probe_families:
        R = min(fam.radii)
        seen = []

        def rows(lam, out, fam=fam, seen=seen):
            seen.append(np.array(lam))
            return fam.rows(lam, out)

        recorder = types.SimpleNamespace(rows=rows, k=fam.k, radii=fam.radii)
        transversality_probe(recorder, R, _panel(fam, R, 3, count=2), deltas,
                             samples=50_000, seed=7)
        lam = np.concatenate(seen)
        assert len(lam) == 50_001, name  # and the probe's width check
        assert np.all(np.abs(lam) < np.asarray(fam.radii)), name
        assert np.max(np.linalg.norm(lam, axis=1)) > 0.99 * R, name


def test_sublevel_counts_leave_nan_uncounted():
    spec = disjoint_slot_family(3, 2, 1)

    def rows_fn(lam, out=None):
        E = family_rows(spec, lam, out)
        E[::3, 1, :] = np.nan
        return E

    stand_in = types.SimpleNamespace(rows=rows_fn, k=1, radii=spec.radii)
    ws = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
    deltas = np.array([0.01, 0.1, np.inf])
    _, counts = _sublevel_fractions(stand_in, 0.3, ws, deltas, 3_000, 5)
    for i, w in enumerate(ws):
        ref, vals = _ref_counts(rows_fn, 1, 0.3, w, deltas, 3_000, 5)
        assert np.isnan(vals).sum() == 1_000
        assert counts[i].tolist() == ref.tolist()
        assert counts[i, -1] == 2_000


def test_concurrent_probes_match_one_cpu_runs(probe_families, monkeypatch):
    # probes of the base and the extended family run at once from two
    # threads, each spreading its directions over the usable CPUs, and
    # count exactly what one-CPU runs count
    deltas = np.geomspace(0.3, 1e-3, 10)
    args = [(fam, _probe_radius(fam),
             _panel(fam, _probe_radius(fam), 11, count=5), deltas,
             8 * SUBLEVEL_SLICE + 1, 9)
            for _, fam, _ in probe_families]
    with monkeypatch.context() as one_cpu:
        usable_cpus(one_cpu, 1)
        serial = [_sublevel_fractions(*a)[1] for a in args]
    start = threading.Barrier(len(args))

    def probe(a):
        start.wait(timeout=60)
        return _sublevel_fractions(*a)[1]

    with ThreadPoolExecutor(len(args)) as pool:
        for got, want in zip(pool.map(probe, args), serial):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_sublevel_memory_is_one_workspace_per_worker(probe_families,
                                                     monkeypatch, cpus):
    # each worker allocates one workspace for a slice and reuses it for
    # every slice it claims, so the peak is the same at one and three times
    # the samples, and within one workspace per worker: the bound is
    # derived from (k, d, n) by `sublevel_workspace`, 25 numbers and one
    # mask byte per sample for the extended family, (k, d, n) = (4, 3, 4),
    # 5,025,000 B per worker.  2**18 bytes cover the pool's Python objects
    # and each slice's random generator
    _, fam, _ = probe_families[1]
    R, k = _probe_radius(fam), fam.k
    ws = _panel(fam, R, 4)
    deltas = np.geomspace(0.3, 1e-3, 10)
    d, n = fam.rows(np.zeros((1, k))).shape[1:]
    workspaces = cpus * SUBLEVEL_SLICE * (8 * sublevel_workspace(k, d, n) + 1)
    usable_cpus(monkeypatch, cpus)
    # a first call imports the pool's modules, which are not the probe's
    _sublevel_fractions(fam, R, ws, deltas, 1_000, 1)
    peaks = []
    for times in (1, 3):
        tracemalloc.start()
        try:
            _sublevel_fractions(fam, R, ws, deltas,
                                times * 8 * SUBLEVEL_SLICE, 2718)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2 ** 18, peaks
    assert max(peaks) <= workspaces + 2 ** 18, (peaks, workspaces)


def test_sublevel_results_are_equal_on_one_two_and_three_cpus(
        probe_families, monkeypatch):
    # 1, 2 and 3 workers give the same counts, fractions and exponents:
    # each slice's draws come from its own stream, whichever worker claims
    # it.  Slices of 1,000 keep the run quick and give each worker many
    # slices; the sample count leaves a ragged last slice
    monkeypatch.setattr(family, "SUBLEVEL_SLICE", 1_000)
    samples = 7 * 1_000 + 457
    deltas = np.geomspace(0.3, 1e-3, 10)
    for name, fam, _ in probe_families:
        R = _probe_radius(fam)
        ws = _panel(fam, R, 6)
        results = []
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            fractions, counts = _sublevel_fractions(fam, R, ws, deltas,
                                                    samples, 2718)
            exponents = [_fit_exponent(deltas, f, c)["exponent"]
                         for f, c in zip(fractions, counts)]
            results.append((counts, fractions, exponents))
        (counts, fractions, exponents), *others = results
        assert counts.sum() > 0 and None not in exponents, name
        for c, f, e in others:
            assert np.array_equal(c, counts), name
            assert np.array_equal(f, fractions), name
            assert e == exponents, name


@settings(max_examples=60)
@given(data=st.data())
def test_projection_norms_match_span_projector(data):
    n = data.draw(st.integers(2, 6), label="n")
    d = data.draw(st.integers(1, min(4, n - 1)), label="d")
    B = data.draw(st.integers(1, 4), label="B")
    D = data.draw(st.integers(1, 4), label="D")
    unit = st.floats(-0.5, 0.5)
    # a dominant diagonal block keeps every sample's rows independent
    # (smallest singular value above 0.5), so 1e-12 is a fixed budget
    A = np.array(data.draw(st.lists(unit, min_size=B * d * n,
                                    max_size=B * d * n), label="A"))
    perm = data.draw(st.permutations(range(n)), label="perm")
    rows = (3.0 * np.eye(d, n) + A.reshape(B, d, n))[:, :, perm]
    ws = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=D * n,
                                     max_size=D * n), label="ws"))
    ws = ws.reshape(D, n)
    Q = np.ascontiguousarray(np.moveaxis(rows, 0, -1))
    _orthonormalize(Q)
    for w in ws:
        vals = _projection_norm(Q, w)
        for b in range(B):
            expected = np.linalg.norm(span_projector(rows[b]) @ w)
            assert abs(vals[b] - expected) <= 1e-12


def test_rows_equal_sample_major_construction(probe_families):
    rng = np.random.default_rng(8)
    base = span_frame(rng.standard_normal((2, 5)))
    schedule = ((1, 1, 3, 1.0), (2, 2, 4, 0.5), (3, 1, 5, -1.0),
                (1, 2, 4, 0.25))  # parameters 1 and 2 share slot (2, 4)
    specs = [disjoint_slot_family(4, 2, 3), disjoint_slot_family(6, 3, 5),
             FamilySpec(5, 2, 3, base, schedule, (0.2, 0.3, 0.1))]
    for spec in specs:
        lam = rng.uniform(-0.2, 0.2, size=(1_001, spec.k))
        lam[::7, 0] = 0.0  # a zero-angle slot is skipped in both
        rows = family_rows(spec, lam)
        assert rows.shape == (1_001, spec.m, spec.n)
        assert np.array_equal(rows, _ref_family_rows(spec, lam))
    for name, fam, ref_rows in probe_families:
        R = _probe_radius(fam)
        lam = rng.uniform(-R, R, size=(1_001, fam.k))
        rows, ref = fam.rows(lam), ref_rows(lam)
        assert rows.shape == ref.shape and rows.nbytes == ref.nbytes
        if name == "base":
            assert np.array_equal(rows, ref)
        else:
            # the one added row's ambient map: the reference multiplies
            # (B, 1, n-m) by ehat through a gemv kernel, the column layout
            # through gemm, and the two fuse multiply-adds differently;
            # the base block and everything before the map are exact
            m = rows.shape[1] - 1
            assert np.array_equal(rows[:, :m], ref[:, :m])
            assert np.max(np.abs(rows - ref)) <= 4 * np.finfo(float).eps


def test_extended_rows_equal_sample_major_construction_p2():
    # p(0) = 2 for (n, m, k) = (6, 2, 3): two added rows go through one
    # gemm in both constructions, so every entry is exact
    spec = disjoint_slot_family(6, 2, 3)
    ext = extend_family(spec, 0, seed=1)
    assert ext.p == 2
    rng = np.random.default_rng(9)
    lam = rng.uniform(-0.1, 0.1, size=(999, ext.k))
    for rows in (ext.rows(lam), family_rows(ext, lam)):
        assert np.array_equal(rows, _ref_extended_rows(ext, lam))


# --- chart rows and parameter derivatives against the pre-merge chain ------

def _ref_rows_and_derivs_chart(spec, lam):
    """The product-rule chain as written before every rotation chain used
    `grassmann.givens`: explicit rotation formulas for the state and the
    derivatives, the slot derivative taken from the state before the
    rotation, every slot rotated even at angle zero."""
    n, m, k = spec.n, spec.m, spec.k
    ang = np.zeros((m, n - m))
    wt = np.zeros((k, m, n - m))
    for (par, i, j, w) in spec.schedule:
        ang[i - 1, j - m - 1] += w * lam[par - 1]
        wt[par - 1, i - 1, j - m - 1] += w
    rows = np.eye(n)[:m].copy()
    derivs = np.zeros((k, m, n))
    for i in range(1, m + 1):
        x = np.eye(n)[i - 1]
        dx = np.zeros((k, n))
        for j in range(m + 1, n + 1):
            beta = ang[i - 1, j - m - 1]
            c, s = np.cos(beta), np.sin(beta)
            slot = np.zeros(n)
            slot[i - 1] = -s * x[i - 1] - c * x[j - 1]
            slot[j - 1] = c * x[i - 1] - s * x[j - 1]
            di, dj = dx[:, i - 1].copy(), dx[:, j - 1].copy()
            dx[:, i - 1] = c * di - s * dj
            dx[:, j - 1] = s * di + c * dj
            dx += wt[:, i - 1, j - m - 1][:, None] * slot[None, :]
            xi, xj = x[i - 1], x[j - 1]
            x = x.copy()
            x[i - 1] = c * xi - s * xj
            x[j - 1] = s * xi + c * xj
        rows[i - 1] = x
        derivs[:, i - 1, :] = dx
    return rows, derivs


def _random_family(rng):
    """A family on a random base: each row rotates toward one to three
    complement directions, each slot driven by a random parameter with a
    random weight, and a second parameter on one slot when k > 1."""
    n = int(rng.integers(3, 7))
    m = int(rng.integers(1, n))
    k = int(rng.integers(1, m * (n - m)))
    schedule = []
    for i in range(1, m + 1):
        cols = rng.choice(np.arange(m + 1, n + 1), replace=False,
                          size=min(int(rng.integers(1, 4)), n - m))
        for j in cols:
            schedule.append((int(rng.integers(1, k + 1)), i, int(j),
                             float(rng.uniform(-2.0, 2.0))))
    if k > 1:
        par, i, j, _ = schedule[0]
        schedule.append((par % k + 1, i, j, float(rng.uniform(-2.0, 2.0))))
    base = span_frame(rng.standard_normal((m, n)))
    return FamilySpec(n, m, k, base, tuple(schedule), (0.3,) * k)


def test_rows_and_derivs_equal_pre_merge_chain():
    rng = np.random.default_rng(31)
    for trial in range(300):
        spec = _random_family(rng)
        if trial % 3 == 0:
            lam = np.zeros(spec.k)
        else:
            lam = rng.uniform(-0.25, 0.25, size=spec.k)
        # chart coordinates, as family_jacobian takes them
        rows, derivs = spec.rows_and_derivs(lam, np.eye(spec.n))
        ref_rows, ref_derivs = _ref_rows_and_derivs_chart(spec, lam)
        assert np.array_equal(rows, ref_rows), spec
        assert np.array_equal(derivs, ref_derivs), spec


def test_rows_and_derivs_rows_equal_batch_rows():
    # the tangents ride along without changing a row's bits, for both
    # family kinds; the extended families swing random bases of V_0^perp
    rng = np.random.default_rng(37)
    for trial in range(200):
        if trial % 2:
            fam, lam = _random_extended_site(rng)
        else:
            fam = _random_family(rng)
            lam = rng.uniform(-0.25, 0.25, size=fam.k)
        rows, derivs = fam.rows_and_derivs(lam)
        assert np.array_equal(rows, fam.rows(lam[None])[0])
        assert derivs.shape == (fam.k,) + rows.shape


# --- serialization ---------------------------------------------------------

@settings(max_examples=100)
@given(data=st.data())
def test_family_round_trip_dict(data):
    n = data.draw(st.integers(3, 7), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    k = data.draw(st.integers(1, m * (n - m) - 1), label="k")
    slots = [(a, i, j) for a in range(1, k + 1) for i in range(1, m + 1)
             for j in range(m + 1, n + 1)]
    entries = data.draw(st.lists(st.sampled_from(slots), unique=True,
                                 max_size=8), label="slots")
    weights = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(entries),
                                 max_size=len(entries)), label="weights")
    radii = data.draw(st.lists(st.floats(1e-300, np.pi / 4, exclude_min=True),
                               min_size=k, max_size=k), label="radii")
    if data.draw(st.booleans(), label="standard base"):
        base = standard_frame(n, m)
    else:
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="base seed")
        base = span_frame(np.random.default_rng(seed).standard_normal((m, n)))
    spec = FamilySpec(n, m, k, base,
                      tuple(e + (w,) for e, w in zip(entries, weights)),
                      tuple(radii))
    spec2 = family_from_dict(family_to_dict(spec))
    for name in ("n", "m", "k", "schedule", "radii"):
        assert getattr(spec2, name) == getattr(spec, name), name
    assert np.array_equal(spec2.base.basis, spec.base.basis)


def test_family_round_trip_file(tmp_path):
    rng = np.random.default_rng(4)
    base = span_frame(rng.standard_normal((2, 5)))
    schedule = ((1, 1, 3, 1.0), (2, 2, 4, 0.5), (3, 1, 5, -1.0))
    spec = FamilySpec(5, 2, 3, base, schedule, (0.2, 0.3, 0.1))
    path = tmp_path / "fam.json"
    save_family(spec, path)
    spec2 = load_family(path)
    lam = np.array([0.05, -0.1, 0.02])
    assert np.allclose(family_rows(spec2, lam[None, :]),
                       family_rows(spec, lam[None, :]), atol=1e-12)


@pytest.mark.parametrize("cpus", [1, 2])
def test_sublevel_slice_size_leaves_results_unchanged(probe_families,
                                                      monkeypatch, cpus):
    # the slice size fixes the probe's stream, so it leaves the counts,
    # fractions and exponents unchanged while the samples fit one slice
    # (sizes of the sample count, one more, and the default).  Sizes that
    # cut the samples into many slices, 7, 4,096 and 5,000, each with a
    # ragged last slice, count exactly what the reference counts on the
    # stream that size defines
    usable_cpus(monkeypatch, cpus)
    samples = 2 * 5_000 + 4_099
    deltas = np.geomspace(0.3, 1e-3, 10)
    for name, fam, _ in probe_families:
        R = _probe_radius(fam)
        ws = _panel(fam, R, 6)
        results = []
        for size in (samples, samples + 1, SUBLEVEL_SLICE):
            monkeypatch.setattr(family, "SUBLEVEL_SLICE", size)
            fractions, counts = _sublevel_fractions(fam, R, ws, deltas,
                                                    samples, 2718)
            exponents = [_fit_exponent(deltas, f, c)["exponent"]
                         for f, c in zip(fractions, counts)]
            results.append((counts, fractions, exponents))
        (counts, fractions, exponents), *others = results
        assert counts.sum() > 0 and None not in exponents, name
        for c, f, e in others:
            assert np.array_equal(c, counts), name
            assert np.array_equal(f, fractions), name
            assert e == exponents, name
        for size in (7, 4_096, 5_000):
            monkeypatch.setattr(family, "SUBLEVEL_SLICE", size)
            _, counts = _sublevel_fractions(fam, R, ws, deltas, samples,
                                            2718)
            for i, w in enumerate(ws):
                ref, _ = _ref_counts(fam.rows, fam.k, R, w, deltas, samples,
                                     2718, norms=_kernel_norms, size=size)
                assert counts[i].tolist() == ref.tolist(), (name, size, i)
