import json
import os
import re
import statistics
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import save_family
from projlab.family import (
    disjoint_slot_family,
    family_from_dict,
    family_to_dict,
    load_family,
)
from projlab.fractal import lebesgue_ball, line_cantor, product_embed
from projlab.grassmann import Frame
from projlab.lab import (
    _FIELD_KINDS,
    _MODE_FIELDS,
    ConfigError,
    ExperimentConfig,
    _canonical,
    _provenance,
    build_measure,
    lambda_grid,
    resolve_family,
    run_bound_check,
    run_sharpness,
    run_transversality,
    run_verify_suite,
    sharpness_family,
    sharpness_measure,
    tangent_derivative_order,
)


def _tiny_bound_cfg(tmp_path, seed=11, grid=4):
    fam = tmp_path / "fam.json"
    save_family(disjoint_slot_family(3, 2, 1), fam)
    return ExperimentConfig(
        mode="bound_check",
        family=str(fam),
        seed=seed,
        measure={
            "variant": "embedded",
            "inner": {"variant": "four_corner_cantor", "level": 6},
            "frame": [[1.0, 0.4, 0.2], [0.1, 1.0, -0.3]],
        },
        lambda_grid=(grid,),
        tolerance=0.15,
    )


def _provenance_hash(cfg):
    """The config hash a run of cfg records in its provenance."""
    return _provenance(cfg, resolve_family(cfg.family))["config_hash"]


def test_config_round_trip_and_hash(tmp_path):
    cfg = _tiny_bound_cfg(tmp_path)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg.__dict__, default=list))
    cfg2 = ExperimentConfig.load(path)
    assert _provenance_hash(cfg2) == _provenance_hash(cfg)
    cfg2.seed += 1
    assert _provenance_hash(cfg2) != _provenance_hash(cfg)


def test_content_hash_follows_the_family_file(tmp_path):
    # two different families written in turn to one path hash differently
    cfg = _tiny_bound_cfg(tmp_path)
    first = _provenance_hash(cfg)
    save_family(disjoint_slot_family(3, 2, 1, radius=0.3), cfg.family)
    second = _provenance_hash(cfg)
    assert second != first
    save_family(disjoint_slot_family(3, 2, 1), cfg.family)
    assert _provenance_hash(cfg) == first


def test_family_dict_keeps_a_base_near_the_standard_one():
    # a base 4e-9 off the standard one is saved as its matrix: it reads
    # back unchanged, and its runs hash apart from the standard family's
    standard = disjoint_slot_family(3, 2, 1)
    basis = np.eye(3)[:2]
    basis[0, 0] = 1 - 4e-9
    near = disjoint_slot_family(3, 2, 1, base=Frame(basis))
    assert np.array_equal(
        family_from_dict(family_to_dict(near)).base.basis, basis)
    hashes = {_provenance_hash(ExperimentConfig("transversality",
                                                family_to_dict(spec), 1))
              for spec in (standard, near)}
    assert len(hashes) == 2


def test_provenance_hashes_the_family_that_ran(tmp_path, monkeypatch):
    # the run reads its family file once; a rewrite after that read is
    # neither run nor hashed
    fam = tmp_path / "fam.json"
    save_family(disjoint_slot_family(3, 2, 1), fam)
    cfg = ExperimentConfig(mode="transversality", family=str(fam), seed=5,
                           mc_samples=2_000, n_directions=1)
    expected = _provenance_hash(cfg)
    reads = []

    def load_then_rewrite(path):
        reads.append(path)
        spec = load_family(path)
        save_family(disjoint_slot_family(3, 2, 1, radius=0.3), path)
        return spec

    monkeypatch.setattr("projlab.lab.load_family", load_then_rewrite)
    report = run_transversality(cfg)
    assert reads == [str(fam)]
    assert report.provenance["config_hash"] == expected


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"mode": "bound_check", "family": {},
                                    "seed": 0, "typo_key": 1})


@pytest.mark.parametrize("extra, field", [
    ({"seed": None}, "seed"), ({"seed": True}, "seed"),
    ({"family": 3}, "family"), ({"deltas": [0.1, "x"]}, "deltas"),
    ({"tolerance": "0.1"}, "tolerance"), ({"force": 1}, "force"),
])
def test_config_from_dict_names_the_bad_field(extra, field):
    d = {"mode": "bound_check", "family": {}, "seed": 0, **extra}
    if d["seed"] is None:
        del d["seed"]
    with pytest.raises(ConfigError, match=f"config field '{field}'"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("field, value, kind", [
    ("seed", "x", "an integer"), ("seed", 1.5, "an integer"),
    ("mc_samples", "10", "an integer"),
    ("deltas", ("a",), "a list of numbers"),
    ("n_directions", None, "an integer"), ("l", "1", "an integer"),
])
def test_config_built_in_python_names_the_bad_field(field, value, kind):
    # the CLI's transversality command and library callers build the config
    # directly; it meets the kind check a JSON config meets
    fields = {"mode": "transversality", "seed": 1,
              "family": str(CONFIGS / "family_n3m2k1.json"), field: value}
    with pytest.raises(ConfigError, match=re.escape(
            f"config field {field!r} must be {kind}, got {value!r}")):
        run_transversality(ExperimentConfig(**fields))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("n"), "family field 'n' is required"),
    (lambda d: d.update(k=1.5), "family field 'k' must be an integer"),
    (lambda d: d.update(base="skew"), "family field 'base' must be"),
    (lambda d: d["schedule"][0].pop("j"),
     "family schedule entry field 'j' is required"),
    (lambda d: d.update(radii=0.2), "family field 'radii' must be a list"),
    (lambda d: d.update(radii=[2.0]), "family: domain radii"),
])
def test_family_from_dict_names_the_bad_field(edit, message):
    d = family_to_dict(disjoint_slot_family(3, 2, 1))
    edit(d)
    with pytest.raises(ConfigError, match=message):
        resolve_family(d)


def test_build_measure_names_the_bad_field():
    with pytest.raises(ConfigError, match="measure field 'frame'"):
        build_measure({"variant": "embedded", "frame": [[1.0, "a"]],
                       "inner": {"variant": "four_corner_cantor",
                                 "level": 3}}, seed=0)
    with pytest.raises(ConfigError, match="variant 'cube'"):
        build_measure({"variant": "cube"}, seed=0)


def test_build_measure_variants():
    m = build_measure({"variant": "line_cantor", "s": 0.5, "level": 6},
                      seed=0)
    assert m.count == 64
    b = build_measure({"variant": "lebesgue_ball", "dim": 2, "N": 100},
                      seed=1)
    assert b.ambient_dim == 2
    e = build_measure({
        "variant": "embedded",
        "inner": {"variant": "four_corner_cantor", "level": 3},
        "frame": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    }, seed=2)
    assert e.ambient_dim == 3
    with pytest.raises(ValueError):
        build_measure({"variant": "nonsense"}, seed=0)


def test_build_measure_draws_from_the_run_seed():
    ball = build_measure({"variant": "lebesgue_ball", "dim": 2, "N": 500},
                         seed=7)
    assert np.array_equal(ball.points, lebesgue_ball(2, 500, 7).points)
    cantor = {"variant": "line_cantor", "s": 0.5, "level": 6}
    prod = build_measure({"variant": "product", "N": 300, "factors": [
        {"measure": cantor, "frame": [[1.0, 0.0, 0.0]]},
        {"measure": cantor, "frame": [[0.0, 0.0, 1.0]]}]}, seed=7)
    frames = [Frame(np.eye(3)[[0]]), Frame(np.eye(3)[[2]])]
    ref = product_embed([(line_cantor(0.5, 6), f) for f in frames], 300, 7)
    assert np.array_equal(prod.points, ref.points)
    assert prod.nominal_dim == 1.0


def test_lambda_grid_shapes():
    spec = disjoint_slot_family(4, 2, 2, radius=0.2)
    grid = lambda_grid(spec, (3,))
    assert len(grid) == 9
    arr = np.array(grid)
    assert np.all(np.abs(arr) <= 0.9 * 0.2 + 1e-12)
    with pytest.raises(ValueError):
        lambda_grid(spec, (3, 3, 3))


def test_run_bound_check_tiny(tmp_path):
    cfg = _tiny_bound_cfg(tmp_path)
    report = run_bound_check(cfg)
    assert report.mode == "bound_check"
    assert len(report.rows) == 4
    assert report.summary["bound"] == pytest.approx(1.0)
    # no violations for the four-corner measure in a 1-parameter family
    assert report.summary["violation_fraction"] == 0.0


def test_report_save_layout_and_determinism(tmp_path):
    cfg = _tiny_bound_cfg(tmp_path)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    run_bound_check(cfg).save(out1)
    run_bound_check(cfg).save(out2)
    for name in ("report.json", "per-lambda.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    fits = sorted(os.listdir(out1 / "fitdata"))
    assert fits == [f"row{i:04d}.csv" for i in range(4)]
    for name in fits:
        lines = (out1 / "fitdata" / name).read_text().splitlines()
        assert lines[0] == "scale,count"
        for line in lines[1:]:
            assert [float(cell) for cell in line.split(",")]
    rep = json.loads((out1 / "report.json").read_text())
    assert "runtime_seconds" not in json.dumps(rep)
    meta = json.loads((out1 / "run_meta.json").read_text())
    assert meta["runtime_seconds"] >= 0.0


def test_bound_check_gates_degenerate_family(tmp_path):
    from projlab.family import FamilySpec
    from projlab.grassmann import standard_frame

    fam = tmp_path / "degenerate.json"
    schedule = ((1, 1, 3, 1.0), (2, 1, 3, 2.0))  # parallel parameters
    save_family(FamilySpec(4, 2, 2, standard_frame(4, 2), schedule,
                           (0.2, 0.2)), fam)
    cfg = _tiny_bound_cfg(tmp_path)
    cfg.family = str(fam)
    cfg.measure["frame"] = [[1.0, 0.4, 0.2, 0.0], [0.1, 1.0, -0.3, 0.2]]
    with pytest.raises(ConfigError, match="--force"):
        run_bound_check(cfg)
    cfg.force = True
    report = run_bound_check(cfg)  # runs, but records the tiny wedge norm
    assert report.summary["nondegeneracy_wedge_norm"] < 1e-8


def test_sharpness_family_schedule():
    # (n, m, k) = (3, 2, 1) at l = 1: p(1) = 1; the single slot sits in
    # row 1 (the filled row); row 2 never rotates toward column n
    spec = sharpness_family(3, 2, 1, l=1, p=1)
    assert spec.schedule == ((1, 1, 3, 1.0),)
    with pytest.raises(ValueError):
        sharpness_family(3, 2, 3, l=1, p=1)  # only 1 admissible slot


def test_sharpness_measure_dimension():
    s = 0.6
    m = sharpness_measure(3, 1, 1, s, level=8, N=2000, seed=0)
    assert m.ambient_dim == 3
    assert m.nominal_dim == pytest.approx(1.0 + s + 1.0)


def test_run_sharpness_validates_bracket(tmp_path):
    fam = tmp_path / "fam.json"
    save_family(disjoint_slot_family(4, 2, 1), fam)  # p(1) = 2 = n - m
    cfg = ExperimentConfig(mode="sharpness", family=str(fam), seed=1,
                           l=1, s=0.5, sample_count=1000)
    with pytest.raises(ValueError):
        run_sharpness(cfg)


def test_run_transversality_base_family(tmp_path):
    fam = tmp_path / "fam.json"
    save_family(disjoint_slot_family(3, 2, 1), fam)
    cfg = ExperimentConfig(
        mode="transversality", family=str(fam), seed=5,
        deltas=tuple(np.geomspace(1e-3, 0.2, 8)),
        mc_samples=60_000, n_directions=3,
    )
    report = run_transversality(cfg)
    assert report.summary["target_order"] == 1
    assert not report.summary["extended"]
    med = report.summary["median_exponent"]
    assert med == pytest.approx(1.0, abs=0.15)
    assert report.runtime_seconds >= 0.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=9))
def test_summary_median_is_bitwise_numpy_median(xs):
    # run_transversality's median_exponent takes statistics.median, which
    # does not import numpy.ma as np.median does; for odd and even lengths
    # it gives the float np.median gives, bit for bit
    got, want = statistics.median(xs), float(np.median(xs))
    assert struct.pack("<d", got) == struct.pack("<d", want), (got, want)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_grid_runners_reject_mismatched_or_incomplete_config():
    sharp = json.loads((CONFIGS / "sharpness_n3m2k1.json").read_text())
    bound = json.loads((CONFIGS / "bound_check_n3m2k1.json").read_text())
    with pytest.raises(ValueError, match="'mode'.*'bound_check'"):
        run_bound_check(ExperimentConfig.from_dict(sharp))
    with pytest.raises(ValueError, match="'mode'.*'sharpness'"):
        run_sharpness(ExperimentConfig.from_dict(bound))
    with pytest.raises(ValueError, match="'measure'"):
        run_bound_check(ExperimentConfig.from_dict(
            {**bound, "measure": None}))
    with pytest.raises(ValueError, match="'s'"):
        run_sharpness(ExperimentConfig.from_dict({**sharp, "s": None}))


@pytest.mark.parametrize("field, value", [
    ("mc_samples", 0), ("n_directions", 0), ("deltas", (0.1, 0.0)),
    ("deltas", (-0.01,)), ("deltas", (float("nan"),)),
    ("mode", "sharpness"),
])
def test_run_transversality_rejects_bad_config(field, value):
    cfg = ExperimentConfig(mode="transversality",
                           family=str(CONFIGS / "family_n3m2k1.json"),
                           seed=1, mc_samples=1000, n_directions=1)
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match=repr(field)):
        run_transversality(cfg)


def _value_of(kind):
    """Strategy for a JSON value of a `_FIELD_KINDS` kind."""
    if isinstance(kind, list):
        return st.lists(_value_of(kind[0]), max_size=3)
    return {int: st.integers(-3, 10 ** 6), float: st.floats(-10.0, 10.0),
            bool: st.booleans(),
            dict: st.dictionaries(st.sampled_from("ab"), st.integers(),
                                  max_size=2)}[kind]


def _no_measure(*args, **kwargs):
    raise AssertionError("a measure was built for a rejected config")


@settings(max_examples=60)
@given(data=st.data())
def test_runner_rejects_a_foreign_field_before_any_measure(data):
    runners = {"bound_check": run_bound_check, "sharpness": run_sharpness,
               "transversality": run_transversality}
    mode = data.draw(st.sampled_from(sorted(runners)), label="mode")
    required, optional = _MODE_FIELDS[mode]
    foreign = [f for f in _FIELD_KINDS if f not in
               ("mode", "family", "seed") + required + optional]
    name = data.draw(st.sampled_from(foreign), label="field")
    value = data.draw(_value_of(_FIELD_KINDS[name]), label="value")
    if mode == "transversality":
        cfg = ExperimentConfig(mode, str(CONFIGS / "family_n3m2k1.json"), 1)
    else:
        cfg = ExperimentConfig.load(CONFIGS / f"{mode}_n3m2k1.json")
    assume(_canonical(value) != _canonical(getattr(cfg, name)))
    setattr(cfg, name, value)
    with mock.patch("projlab.lab.build_measure", _no_measure), \
            mock.patch("projlab.lab.sharpness_measure", _no_measure):
        with pytest.raises(ConfigError, match=re.escape(
                f"mode {mode!r} does not read field(s) {name!r}")):
            runners[mode](cfg)


@settings(max_examples=60)
@given(data=st.data())
def test_config_dict_round_trip(data):
    # any values of a mode's own fields survive JSON and from_dict, with
    # the same content hash
    mode = data.draw(st.sampled_from(sorted(_MODE_FIELDS)), label="mode")
    required, optional = _MODE_FIELDS[mode]
    d = {"mode": mode, "family": str(CONFIGS / "family_n3m2k1.json"),
         "seed": data.draw(st.integers(0, 10 ** 6), label="seed")}
    for name in required + optional:
        if name in required or data.draw(st.booleans(), label=name):
            d[name] = data.draw(_value_of(_FIELD_KINDS[name]), label=name)
    cfg = ExperimentConfig.from_dict(d)
    cfg2 = ExperimentConfig.from_dict(json.loads(json.dumps(
        cfg.__dict__, default=list)))
    for name in _FIELD_KINDS:
        assert _canonical(getattr(cfg2, name)) == _canonical(
            getattr(cfg, name)), name
    assert _provenance_hash(cfg2) == _provenance_hash(cfg)


def test_verify_suite_filter():
    rows, ok = run_verify_suite("p_enumeration")
    assert len(rows) == 1
    assert rows[0]["pass"]
    assert ok


def test_extension_key_inequality_has_slack():
    # at t = 1 the minimum wedge equals the margin; the row must run where
    # the margin sits clearly below the wedge volumes
    rows, ok = run_verify_suite("extension_key_inequality")
    assert len(rows) == 1 and ok
    words = rows[0]["detail"].split()
    assert words[:2] == ["min", "wedge"] and words[3:5] == ["vs", "margin"]
    worst, margin = float(words[2]), float(words[5])
    assert margin < 0.5 * worst


def test_resolve_family_accepts_spec_dict_and_path(tmp_path):
    spec = disjoint_slot_family(3, 2, 1)
    spec2 = resolve_family(family_to_dict(spec))
    assert spec2.schedule == spec.schedule
    path = tmp_path / "fam.json"
    save_family(spec, path)
    spec3 = resolve_family(str(path))
    assert spec3.schedule == spec.schedule


def _scale_derivs(monkeypatch, kind):
    """Patch kind.rows_and_derivs to return its derivatives times 1.01."""
    def scaled(self, *args, exact=kind.rows_and_derivs):
        rows, derivs = exact(self, *args)
        return rows, 1.01 * derivs

    monkeypatch.setattr(kind, "rows_and_derivs", scaled)


def test_derivative_order_sees_a_wrong_family_derivative(monkeypatch):
    # criterion 4 checks the derivative the runs use: scaling the plain
    # families' row derivatives alone by 1.01 must break the second-order
    # convergence
    from projlab import family
    _scale_derivs(monkeypatch, family.FamilySpec)
    assert tangent_derivative_order(25, seed=11) < 1.9


def test_derivative_order_sees_a_wrong_extended_derivative(monkeypatch):
    # the extended families' half of the check sees their derivative alone
    from projlab import family
    _scale_derivs(monkeypatch, family.ExtendedFamily)
    assert tangent_derivative_order(25, seed=11) < 1.9
