"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line.

Criteria 1-7 run the property checks of `projlab.lab` at full size (the
`projlab verify` suite runs the same checks smaller).  The heavy
experiment modes (criteria 8-10) run twice inside module-scoped fixtures;
criterion 11 compares the two runs' report files byte for byte.
"""

import json
import time

import numpy as np
import pytest

from conftest import save_family
from projlab.family import disjoint_slot_family
from projlab.lab import (
    ExperimentConfig,
    estimator_calibration,
    extended_projection_order,
    multivec_oracle_gaps,
    p_dot_oracle_scan,
    parameter_bracket_scan,
    run_bound_check,
    run_sharpness,
    run_transversality,
    tangent_derivative_order,
    wedge_split_margin,
)


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{num:02d}: {detail}")
    assert ok, detail


# --- criterion 1: p(l) vs the dot-filling oracle ---------------------------

def test_criterion_01_p_correctness():
    t0 = time.perf_counter()
    checked, failures = p_dot_oracle_scan(8)
    assert not failures, failures
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 1.0,
            f"{checked} tuples agree with the dot oracle, nondecreasing "
            f"in l ({elapsed:.2f}s)")


# --- criterion 2: parameter-count bracket ----------------------------------

def test_criterion_02_parameter_bracket_scan():
    # the upper bound on every tuple, the strict lower bound where p < n-m,
    # and k <= l(n-m) on the clamped tuples (p = n-m)
    t0 = time.perf_counter()
    checked, excluded, failures = parameter_bracket_scan(8)
    assert not failures, failures
    elapsed = time.perf_counter() - t0
    _report(2, elapsed < 1.0,
            f"bracket exact on {checked} tuples with p < n-m; "
            f"{excluded} clamped tuples (p = n-m) verified degenerate "
            f"({elapsed:.2f}s)")


# --- criterion 3: exterior-algebra oracle ----------------------------------

def test_criterion_03_multivec_oracle():
    t0 = time.perf_counter()
    worst_gram, worst_det = multivec_oracle_gaps(10_000, seed=2024)
    elapsed = time.perf_counter() - t0
    ok = worst_gram <= 1e-9 and worst_det <= 1e-9 and elapsed < 10.0
    _report(3, ok,
            f"10000 matrices: max gram/Cauchy-Binet gap {worst_gram:.2e}, "
            f"max wedge/det gap {worst_det:.2e} ({elapsed:.1f}s)")


# --- criterion 4: analytic tangent map vs central differences --------------

def test_criterion_04_derivative_order():
    t0 = time.perf_counter()
    worst = tangent_derivative_order(100, seed=77)
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.9 and elapsed < 5.0
    _report(4, ok,
            f"100 cases: min central-difference convergence order "
            f"{worst:.2f} >= 1.9 ({elapsed:.1f}s)")


# --- criterion 5: second-order agreement of extended projections -----------

def test_criterion_05_extended_projection_order():
    t0 = time.perf_counter()
    worst = extended_projection_order(20, seed=303)
    elapsed = time.perf_counter() - t0
    ok = worst >= 1.9 and elapsed < 5.0
    _report(5, ok,
            f"20 random paths: min log-log slope {worst:.2f} >= 1.9 "
            f"({elapsed:.1f}s)")


# --- criterion 6: wedge norm can only grow under perpendicular splits ------

def test_criterion_06_wedge_split_inequality():
    t0 = time.perf_counter()
    worst = wedge_split_margin(100, seed=555)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and elapsed < 10.0
    _report(6, ok,
            f"100 random splits: min wedge-norm margin {worst:.2e} "
            f">= -1e-9 ({elapsed:.1f}s)")


# --- criterion 7: estimator calibration ------------------------------------

def test_criterion_07_estimator_calibration():
    t0 = time.perf_counter()
    b, c, u = estimator_calibration(8, 100_000, seed=9)
    elapsed = time.perf_counter() - t0
    ok = (0.9 <= b <= 1.1 and 0.58 <= c <= 0.68 and 1.9 <= u <= 2.1
          and elapsed < 60.0)
    _report(7, ok,
            f"four-corner box {b:.3f} in [0.9,1.1], line-Cantor corr "
            f"{c:.3f} in [0.58,0.68], square box {u:.3f} in [1.9,2.1] "
            f"({elapsed:.1f}s)")


# --- criteria 8-11: experiment modes, run twice for determinism ------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    fam3 = root / "family_n3m2k1.json"
    save_family(disjoint_slot_family(3, 2, 1), fam3)
    fam4 = root / "family_n4m2k3.json"
    save_family(disjoint_slot_family(4, 2, 3), fam4)
    return root


@pytest.fixture(scope="module")
def transversality_runs(workdir):
    outs = []
    for tag in ("a", "b"):
        out = {}
        for name, fam, l in (("base", "family_n3m2k1.json", None),
                             ("ext", "family_n4m2k3.json", 1)):
            cfg = ExperimentConfig(
                mode="transversality",
                family=str(workdir / fam),
                seed=2718,
                l=l,
                mc_samples=1_000_000,
                n_directions=8,
            )
            report = run_transversality(cfg)
            outdir = workdir / f"transversality_{name}_{tag}"
            report.save(outdir)
            out[name] = (report, outdir / "transversality.json")
        outs.append(out)
    return outs


@pytest.fixture(scope="module")
def bound_runs(workdir):
    cfg = ExperimentConfig(
        mode="bound_check",
        family=str(workdir / "family_n3m2k1.json"),
        seed=11,
        measure={
            "variant": "embedded",
            "inner": {"variant": "four_corner_cantor", "level": 8},
            "frame": [[1.0, 0.4, 0.2], [0.1, 1.0, -0.3]],
        },
        lambda_grid=(64,),
        tolerance=0.12,
    )
    dirs = []
    for tag in ("a", "b"):
        out = workdir / f"bound_{tag}"
        run_bound_check(cfg).save(out)
        dirs.append(out)
    return dirs


@pytest.fixture(scope="module")
def sharpness_runs(workdir):
    from projlab.lab import sharpness_family

    fam = workdir / "sharp_family.json"
    save_family(sharpness_family(3, 2, 1, l=1, p=1), fam)
    cfg = ExperimentConfig(
        mode="sharpness",
        family=str(fam),
        seed=12,
        l=1,
        s=float(np.log(2) / np.log(3)),
        level=14,
        sample_count=200_000,
        lambda_grid=(64,),
        tolerance=0.14,
    )
    dirs = []
    for tag in ("a", "b"):
        out = workdir / f"sharp_{tag}"
        run_sharpness(cfg).save(out)
        dirs.append(out)
    return dirs


def test_criterion_08_transversality_exponents(transversality_runs):
    base_report = transversality_runs[0]["base"][0]
    ext_report = transversality_runs[0]["ext"][0]
    r_base = base_report.summary["median_exponent"]
    r_ext = ext_report.summary["median_exponent"]
    ok = (r_base is not None and 0.85 <= r_base <= 1.15
          and r_ext is not None and 2.6 <= r_ext <= 3.4)
    _report(8, ok,
            f"base family exponent {r_base:.3f} in [0.85,1.15]; extended "
            f"family exponent {r_ext:.3f} in [2.6,3.4] (target 3)")


def test_criterion_09_bound_check(bound_runs):
    report = json.loads((bound_runs[0] / "report.json").read_text())
    rows = report["rows"]
    frac = np.mean([r["est_dim"] >= 0.88 for r in rows])
    ok = len(rows) == 64 and frac >= 0.95
    _report(9, ok,
            f"{frac * 100:.1f}% of {len(rows)} grid rows have estimated "
            f"projected dimension >= 0.88 (bound 1)")


def test_criterion_10_sharpness_pinch(sharpness_runs):
    report = json.loads((sharpness_runs[0] / "report.json").read_text())
    rows = report["rows"]
    frac = np.mean([1.50 <= r["est_dim"] <= 1.78 for r in rows])
    ok = len(rows) == 64 and frac >= 0.90
    _report(10, ok,
            f"{frac * 100:.1f}% of {len(rows)} grid rows inside "
            f"[1.50,1.78] around target 1.631")


def test_criterion_11_determinism(transversality_runs, bound_runs,
                                  sharpness_runs):
    mismatches = []
    for name in ("base", "ext"):
        a = transversality_runs[0][name][1].read_bytes()
        b = transversality_runs[1][name][1].read_bytes()
        if a != b:
            mismatches.append(f"transversality/{name}")
    for label, (da, db) in (("bound", bound_runs),
                            ("sharpness", sharpness_runs)):
        for f in ("report.json", "per-lambda.csv"):
            if (da / f).read_bytes() != (db / f).read_bytes():
                mismatches.append(f"{label}/{f}")
    ok = not mismatches
    _report(11, ok,
            "criteria 8-10 reruns byte-identical"
            if ok else f"mismatched files: {mismatches}")
