"""projlab benchmark: the three acceptance experiments, run through the
public CLI entry point `projlab.cli.main`, one fresh process per call.

    python3 bench/run.py --workload bound_check --seed 11 --trace 0

Run from the root of a checkout.  The load is a closed loop: one client runs
sets of calls back to back, one process at a time, until --seconds is used
up (at least one set); setup-only processes fill the time left.  A set is
one `main([...])` call for the grid workloads and the base plus extended
call for `transversality`.

Workloads (the seed defaults are the acceptance seeds):
  bound_check     `projlab project configs/bound_check_n3m2k1.json` on an
                  8-row lambda grid: 65,536-point sparse cloud, box counting
                  dominates; family/grassmann/fractal cost almost nothing.
  sharpness       `projlab sharpness configs/sharpness_n3m2k1.json` on a
                  10-row grid: 200,000-point dense cloud whose per-offset
                  temporaries exceed L2, and a heavier measure build.
  transversality  `projlab transversality` on the base family and on the
                  extended family (--extend --l 1), 10^6 samples and 8
                  directions each: all time in family rows and the sublevel
                  kernel; dimest and fractal never run.

Only the grid-row count is cut from the configs' 64 rows, to fit a run;
points per cloud, samples per direction and the deltas are as configured.

With --trace 0 each set runs untraced and the last stdout line carries the
end-to-end metrics.  With --trace 1 traced and untraced sets alternate (at
least one of each): the traced sets give the per-layer metrics, and the
untraced ones the end-to-end numbers the tracing overhead is measured
against.  Every set is checked against the acceptance bands and for
byte-identical outputs; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_work")  # relative to ROOT, where the children run

# BLAS threads per child.  One client process at a time on a 2-core
# machine; one thread keeps the timings steady and leaves a core free.
BLAS_THREADS = 1
SETUP_PROBES = 3  # least setup-only processes after an untraced run's sets
HARD_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "ratio"),
)


class Grid:
    """bound_check / sharpness: one `main()` call over a lambda grid."""

    grid = True
    det_files = ("report.json", "per-lambda.csv")

    def __init__(self, subcommand, config, seed, rows, row_ok, min_share):
        self.subcommand = subcommand
        self.config = config
        self.seed = seed
        self.rows = rows
        self.row_ok = row_ok
        self.min_share = min_share
        self.inputs = [config]

    def prepare(self, work, tiny):
        cfg = json.loads((ROOT / self.config).read_text())
        self.rows = 2 if tiny else self.rows
        cfg["lambda_grid"] = [self.rows]
        self.experiment = work / "experiment.json"
        (ROOT / self.experiment).write_text(
            json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        self.inputs = [str(self.experiment)]

    def calls(self, seed, setdir):
        out = setdir / "out"
        return [("main", [self.subcommand, str(self.experiment),
                          "--out", str(out), "--seed", str(seed)], out)]

    def check(self, outs):
        """(ok, pass_frac, exponent_err, detail) from the set's outputs."""
        rows = json.loads((ROOT / outs["main"] / "report.json")
                          .read_text())["rows"]
        hits = sum(self.row_ok(r["est_dim"]) for r in rows)
        share = hits / max(len(rows), 1)
        ok = len(rows) == self.rows and share >= self.min_share
        return ok, share, None, (f"{share:.3f} of {len(rows)} rows pass "
                                 f"(need {self.min_share})")

    def working_set(self):
        cfg = json.loads((ROOT / self.config).read_text())
        m = cfg["family"]["m"]
        if cfg["mode"] == "sharpness":
            points = cfg["sample_count"]
        else:
            points = 4 ** cfg["measure"]["inner"]["level"]
        return (f"intrinsic cloud {points} points x {m} dims x 8 B = "
                f"{points * m * 8 / 2**20:.2f} MiB (computed)")


class Transversality:
    """Base family (target 1) and extended family (target 3), criterion 8."""

    grid = False
    CALLS = (
        ("base", "configs/family_n3m2k1.json", [], (0.85, 1.15)),
        ("ext", "configs/family_n4m2k3.json", ["--extend", "--l", "1"],
         (2.6, 3.4)),
    )
    det_files = ("transversality.json",)

    def __init__(self, seed):
        self.seed = seed
        self.inputs = [fam for _, fam, _, _ in self.CALLS]
        self.size = []

    def prepare(self, work, tiny):
        self.size = ["--samples", "20000", "--directions", "2"] if tiny else []

    def calls(self, seed, setdir):
        # the family path is the same string on every run: the config hash
        # in the report covers it
        return [(label, ["transversality", fam, *flags, "--seed", str(seed),
                         *self.size, "--out", str(setdir / label)],
                 setdir / label)
                for label, fam, flags, _ in self.CALLS]

    def check(self, outs):
        ok, hits, total, err, detail = True, 0, 0, 0.0, []
        for label, _, _, (lo, hi) in self.CALLS:
            rep = json.loads((ROOT / outs[label] / "transversality.json")
                             .read_text())
            med = rep["summary"]["median_exponent"]
            exps = [p["exponent"] for p in rep["panel"]]
            hits += sum(e is not None and lo <= e <= hi for e in exps)
            total += len(exps)
            ok = ok and med is not None and lo <= med <= hi
            if med is not None:
                err = max(err, abs(med - rep["summary"]["target_order"]))
            detail.append(f"{label} median {med} in [{lo}, {hi}]")
        return ok, hits / max(total, 1), err, "; ".join(detail)

    def working_set(self):
        return ("rows of one 200,000-sample batch: base 200000 x 2 x 3 x 8 B"
                " = 9.6 MB, extended 200000 x 3 x 4 x 8 B = 19.2 MB "
                "(computed; traced runs measure family.rows_batch_bytes)")


WORKLOADS = {
    "bound_check": Grid("project", "configs/bound_check_n3m2k1.json", 11, 8,
                        lambda d: d >= 0.88, 0.95),
    "sharpness": Grid("sharpness", "configs/sharpness_n3m2k1.json", 12, 10,
                      lambda d: 1.50 <= d <= 1.78, 0.90),
    "transversality": Transversality(2718),
}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _cache_sizes():
    """L2 and L3 sizes in bytes from glibc sysconf (CPUID on x86)."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        # _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
        return libc.sysconf(191), libc.sysconf(194)
    except (OSError, AttributeError):
        return None, None


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_record():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l2, l3 = _cache_sizes()
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
    }


# ---------------------------------------------------------------------------
# Child processes and sets
# ---------------------------------------------------------------------------

def spawn(workdir, name, argv, inputs, limit, trace=False, setup_only=False):
    """Run one child to completion; its result dict, or None on timeout."""
    result = workdir / f"{name}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    with open(ROOT / workdir / f"{name}.log", "w") as log:
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), "--result",
               str(result), "--spawned", repr(spawned), "--run-id", name,
               "--inputs", ",".join(inputs)]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        proc = subprocess.Popen(cmd + ["--", *argv], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=max(1.0, limit - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:  # timed out, or this process is stopping
                proc.kill()
                proc.wait()
    path = ROOT / result
    if not path.exists():
        return {"rc": proc.returncode, "error": "child wrote no result"}
    return json.loads(path.read_text())


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_set(wl, seed, idx, traced, limit, work):
    setdir = work / f"set{idx:02d}{'t' if traced else ''}"
    (ROOT / setdir).mkdir()
    out = {"traced": traced, "calls": {}, "ok": False, "detail": ""}
    outs = {}
    for label, argv, outdir in wl.calls(seed, setdir):
        res = spawn(setdir, label, argv, wl.inputs, limit, trace=traced)
        if res is None:
            out["detail"] = f"{label}: timed out"
            out["timeout"] = True
            return out
        out["calls"][label] = res
        outs[label] = outdir
        if res["rc"] != 0:
            out["detail"] = (f"{label}: exit {res['rc']}: "
                             f"{res.get('error', '')[-2000:]}")
            return out
    out["wall"] = sum(c["run_s"] for c in out["calls"].values())
    out["cpu"] = sum(c["cpu_s"] for c in out["calls"].values())
    out["rss_mib"] = max(c["maxrss_kib"] for c in out["calls"].values()) / 1024
    try:
        ok, share, err, detail = wl.check(outs)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        out["detail"] = f"output check raised {exc!r}"
        return out
    out.update(ok=ok, pass_frac=share, exponent_err=err, detail=detail)
    out["digests"] = {f"{label}/{name}": _digest(ROOT / d / name)
                      for label, d in outs.items() for name in wl.det_files}
    out["bytes"] = sum(p.stat().st_size for d in outs.values()
                       for p in (ROOT / d).rglob("*") if p.is_file())
    return out


def closed_loop(wl, seed, seconds, trace, work):
    """Sets back to back until the next would pass the deadline (at least
    one; a traced run needs one traced and one untraced set), then
    setup-only processes in the time left (at least SETUP_PROBES)."""
    start = time.monotonic()
    deadline, limit = start + seconds, start + HARD_LIMIT_S
    sets, took = [], {}
    while True:
        traced = trace and len(sets) % 2 == 0
        t0 = time.monotonic()
        s = run_set(wl, seed, len(sets), traced, limit, work)
        took[traced] = time.monotonic() - t0
        sets.append(s)
        if s.get("timeout"):
            break
        need = took.get(trace and len(sets) % 2 == 0, took[traced])
        if time.monotonic() + need > limit:
            break
        if trace and len(took) < 2:
            continue
        if time.monotonic() + need > deadline:
            break
    setups = [c["setup_s"] for s in sets for c in s["calls"].values()]
    probes = 0
    while not trace:
        t0 = time.monotonic()
        res = spawn(work, f"setup{probes}", [], wl.inputs, limit,
                    setup_only=True)
        if res is None:  # out of time; the sets' own setups remain
            break
        if res["rc"] != 0:
            raise SystemExit(f"setup failed: {res}")
        setups.append(res["setup_s"])
        probes += 1
        if probes >= SETUP_PROBES and (
                time.monotonic() + (time.monotonic() - t0) > deadline):
            break
    return sets, setups


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------

def end_to_end(sets, setups):
    untraced = [s for s in sets if not s["traced"] and "wall" in s]
    timed = [s for s in untraced if s["ok"]] or untraced
    if not timed:
        return None
    med = statistics.median
    shares = [s["pass_frac"] for s in timed if "pass_frac" in s]
    return {
        "run_s": med(s["wall"] for s in timed),
        "setup_s": med(setups),
        "peak_rss_mb": med(s["rss_mib"] for s in timed),
        "pass_frac": med(shares) if shares else 0.0,
    }


def traced_metrics(wl, sets):
    traced = [s for s in sets if s["traced"] and "wall" in s]
    untraced = [s for s in sets if not s["traced"] and "wall" in s]
    if not traced or not untraced:
        return None, [], None, [], []
    summaries = [[layers.call_summary(c["spans"])
                  for c in s["calls"].values()] for s in traced]
    values, not_run, tail_q = layers.per_layer_metrics(
        summaries, [s["wall"] for s in untraced],
        [s["cpu"] for s in untraced], wl.grid,
        traced[0].get("exponent_err"), traced[0].get("bytes", 0))
    missing = sorted({m for s in traced for c in s["calls"].values()
                      for m in c.get("missing_wraps", [])})
    checks = [(summary["layer_self"], summary["self_sum"], call["run_s"])
              for s, calls in zip(traced, summaries)
              for summary, call in zip(calls, s["calls"].values())]
    return values, not_run, tail_q, missing, checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: its acceptance seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: 2 grid rows or 20,000 samples x 2 "
                             "directions, for the smoke test")
    args = parser.parse_args(argv)
    # a terminated run still stops its child: SystemExit unwinds spawn()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wl = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "projlab" / "cli.py"] + [ROOT / p
                                                     for p in wl.inputs]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"bench: not a projlab checkout, missing {absent}",
              file=sys.stderr)
        return 2
    seed = wl.seed if args.seed is None else args.seed
    work = WORK / args.workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    wl.prepare(work, args.size == "tiny")

    env = env_record()
    sets, setups = closed_loop(wl, seed, args.seconds, bool(args.trace), work)
    ref = next((s["digests"] for s in sets if "digests" in s), {})
    for s in sets:
        if "digests" in s and s["digests"] != ref:
            s["ok"] = False
            s["detail"] += "; output bytes differ from the first set"
    failed = [s for s in sets if not s["ok"]]
    e2e = end_to_end(sets, setups)

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(sets)} sets, {len(failed)} failed")
    for key, value in env.items():
        print(f"env {key} {value}")
    print(f"env working_set {wl.working_set()}")
    for s in sets:
        wall = f"{s['wall']:.3f}s" if "wall" in s else "-"
        print(f"set {'traced  ' if s['traced'] else 'untraced'} {wall} "
              f"{'ok' if s['ok'] else 'FAIL'}  {s['detail']}")
    for name, digest in ref.items():
        print(f"sha256 {name} {digest}")
    if e2e is None:
        print("bench: no set produced a timing", file=sys.stderr)
        return 1
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"end_to_end {name} {value!r} {units[name]}")
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}
    record = {"workload": args.workload, "seed": seed, "env": env,
              "end_to_end": e2e}
    if args.trace:
        values, not_run, tail_q, missing, checks = traced_metrics(wl, sets)
        if values is None:
            print("bench: traced run lacks a traced or untraced set",
                  file=sys.stderr)
            return 1
        for layer_self, self_sum, wall in checks:
            parts = ", ".join(f"{k} {v:.4f}s" for k, v in layer_self.items())
            print(f"spans self time by layer: {parts}; sum {self_sum:.6f}s "
                  f"of traced call wall {wall:.6f}s")
        print(f"per_layer lab.row_s_tail is the {100 * tail_q:.1f}th "
              f"percentile of {values['lab.rows_timed']} rows")
        for name, unit in layers.PER_LAYER:
            note = "  (layer not run: reads 0)" if name in not_run else ""
            print(f"per_layer {name} {values[name]!r} {unit}{note}")
        for name in missing:
            print(f"per_layer missing span: {name} not found, not traced")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
        record.update(per_layer=values, not_run=not_run,
                      missing_spans=missing)
    print(f"correct {not failed}")
    (ROOT / work / "result.json").write_text(json.dumps(
        {**record, "sets": [{k: v for k, v in s.items() if k != "calls"}
                            for s in sets]}, indent=2, default=str) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(sets),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
