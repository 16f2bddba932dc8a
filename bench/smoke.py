"""Smoke test for the benchmark.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at tiny size (--size tiny), untraced
and traced, and checks that the last stdout line is the result object with
every end-to-end or per-layer metric named there, in its unit.  Then runs
the benchmark from a directory that holds only BENCHMARK.json and bench/,
where it must fail without printing a result.  About a minute on 2 cores.
"""

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace, proc):
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit {proc.returncode}: "
                f"{proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace {trace}: keys {sorted(result)}")
    if not isinstance(result["correct"], bool) or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: bad verdict {result}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    odd = set(result["metrics"]) ^ {m["name"] for m in wanted}
    if odd:
        problems.append(f"{workload} trace {trace}: metric names differ: "
                        f"{sorted(odd)}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{workload} trace {trace}: {m['name']} unit "
                            f"{got.get('unit')!r}, want {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            problems.append(f"{workload} trace {trace}: {m['name']} value "
                            f"{value!r} is not a number")
    return problems


def check_bare_directory(workload):
    """Without the program the benchmark must fail and print no result."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, workload, 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, wl["name"], trace,
                                     _run(ROOT, wl["name"], trace))
            print(f"{wl['name']} trace {trace}: done", flush=True)
    problems += check_bare_directory(spec["workloads"][0]["name"])
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
