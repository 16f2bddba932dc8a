"""The benchmark's traced runs wrap projlab functions by name; every name
they wrap, and every argument they read, must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from projlab.dimest import box_counting_dim
from projlab.family import transversality_probe

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


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
