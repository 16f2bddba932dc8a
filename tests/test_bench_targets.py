"""The benchmark's traced runs wrap projlab functions by name; every name
they wrap, and every argument they read, must exist."""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from projlab.dimest import box_counting_dim
from projlab.family import transversality_probe

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # defines TARGETS, wraps nothing
    missing = []
    for module_name, path, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert not missing


def test_traced_arguments_exist():
    assert {"measure", "n_offsets"} <= set(
        inspect.signature(box_counting_dim).parameters)
    assert "samples" in inspect.signature(transversality_probe).parameters


def test_bench_records_name_only_declared_workloads_and_metrics():
    # every committed pair record (scripts/bench_pairs.py) parses and
    # speaks of the workloads and metrics BENCHMARK.json declares
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    problems = []
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        if record["workload"] not in workloads:
            problems.append(f"{path.name}: workload {record['workload']!r}")
        named = set(record["summary"]) | set(
            record.get("smallest_resolvable_gap", {}))
        for pair in record["pairs"]:
            for side in ("parent", "change"):
                named |= set(pair[side].get("metrics", {}))
        problems += [f"{path.name}: metric {m!r}"
                     for m in sorted(named - metrics)]
    assert not problems, "\n".join(problems)
