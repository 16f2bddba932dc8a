import json
from pathlib import Path

import numpy as np
import pytest

from projlab.cli import main
from projlab.family import FamilySpec, disjoint_slot_family, save_family
from projlab.grassmann import standard_frame

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def fam_path(tmp_path):
    path = tmp_path / "fam.json"
    save_family(disjoint_slot_family(3, 2, 1), path)
    return str(path)


def test_bound_table_output(capsys):
    assert main(["bound", "--n", "4", "--m", "2", "--k", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "l,p" in lines
    assert "0,0" in lines
    assert "1,1" in lines
    assert any("threshold" in ln and "3" in ln for ln in lines)


def test_bound_single_d(capsys):
    assert main(["bound", "--n", "4", "--m", "2", "--k", "3",
                 "--d", "2.5"]) == 0
    out = capsys.readouterr().out
    assert "2.5,1.5" in out


def test_check_family_pass_and_fail(tmp_path, fam_path, capsys):
    assert main(["check-family", fam_path]) == 0
    assert "PASS" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    schedule = ((1, 1, 3, 1.0), (2, 1, 3, 2.0))
    save_family(FamilySpec(4, 2, 2, standard_frame(4, 2), schedule,
                           (0.2, 0.2)), bad)
    assert main(["check-family", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_witness_json(tmp_path, capsys):
    path = tmp_path / "fam.json"
    save_family(disjoint_slot_family(4, 2, 3), path)
    assert main(["witness", str(path), "--t", "1", "--l", "1",
                 "--seed", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d_prime_hat"] > 0.0
    assert len(out["W"]) == 1 and len(out["W"][0]) == 4


def test_transversality_writes_artifacts(tmp_path, fam_path, capsys):
    out = tmp_path / "tr"
    assert main(["transversality", fam_path, "--seed", "3",
                 "--samples", "40000", "--directions", "2",
                 "--deltas", "0.001,0.003,0.01,0.03,0.1,0.2",
                 "--out", str(out)]) == 0
    report = json.loads((out / "transversality.json").read_text())
    assert report["summary"]["target_order"] == 1
    assert report["summary"]["median_exponent"] == pytest.approx(1.0,
                                                                 abs=0.2)
    header = (out / "loglog.csv").read_text().splitlines()[0]
    assert header.startswith("delta,fraction_0")


def test_project_subcommand(tmp_path, fam_path, capsys):
    exp = tmp_path / "exp.json"
    exp.write_text(json.dumps({
        "mode": "bound_check",
        "family": fam_path,
        "seed": 11,
        "measure": {
            "variant": "embedded",
            "inner": {"variant": "four_corner_cantor", "level": 6},
            "frame": [[1.0, 0.4, 0.2], [0.1, 1.0, -0.3]],
        },
        "lambda_grid": [4],
        "tolerance": 0.15,
    }))
    out = tmp_path / "run"
    assert main(["project", str(exp), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violation_fraction"] == 0.0
    assert (out / "report.json").exists()
    assert (out / "per-lambda.csv").exists()


def test_grid_subcommands_reject_mismatched_or_incomplete_config(
        tmp_path, capsys):
    out = str(tmp_path / "run")
    sharp = CONFIGS / "sharpness_n3m2k1.json"
    assert main(["project", str(sharp), "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'mode'" in err and "'sharpness'" in err
    assert main(["sharpness", str(CONFIGS / "bound_check_n3m2k1.json"),
                 "--out", out]) == 2
    assert "'mode'" in capsys.readouterr().err
    cfg = json.loads(sharp.read_text())
    del cfg["s"]
    no_s = tmp_path / "no_s.json"
    no_s.write_text(json.dumps(cfg))
    assert main(["sharpness", str(no_s), "--out", out]) == 2
    assert "'s'" in capsys.readouterr().err
    cfg = json.loads((CONFIGS / "bound_check_n3m2k1.json").read_text())
    del cfg["measure"]
    no_measure = tmp_path / "no_measure.json"
    no_measure.write_text(json.dumps(cfg))
    assert main(["project", str(no_measure), "--out", out]) == 2
    assert "'measure'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_verify_subcommand(capsys):
    assert main(["verify", "--filter", "p_enumeration"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "check\tpass\tdetail\tseconds"
    assert "p_enumeration_vs_dots\tpass" in out
