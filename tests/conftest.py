import json
import os

from hypothesis import settings

from projlab.family import family_to_dict

# no per-example deadline (timings vary with the host), and a fixed
# example sequence so every run of the suite draws the same cases
settings.register_profile("projlab", deadline=None, derandomize=True)
settings.load_profile("projlab")


def save_family(spec, path):
    """Write a family spec to a JSON family file, as `load_family` reads
    it."""
    with open(path, "w") as fh:
        json.dump(family_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def usable_cpus(monkeypatch, count):
    """Make `threads.usable_cpus` report `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
