"""Alternating benchmark pairs of a parent revision and the working tree.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload transversality \
        --pairs 10 --label probe_workspace --seconds 8

Run from the root of a checkout.  The parent tree is exported from the local
repository with `git archive` into .bench_work/pairs/parent (no network),
and the change, the working tree's files that git tracks or does not
ignore, is copied into .bench_work/pairs/change, so both sides run from
fresh trees at paths of the same length.  Each pair runs
`python3 bench/run.py --workload W --trace 0` once on each side, and the
side that runs first alternates from pair to pair, so a drift of the host's
speed over the session hits both sides alike.  A run's metrics are the
`metrics` of the last JSON line it prints; a run that exits non-zero or
prints no such line is kept with its exit code and the tail of its output.

The record goes to BENCH_<label>.json at the root: both revisions, every
run's end-to-end metrics, each side's median and quartiles, and per metric
the pairs the change wins (the better direction comes from BENCHMARK.json),
the median gap (positive when the change is better) and the parent's
interquartile range.  A gain is resolved when the change wins at least 9 of
10 pairs and its median gap exceeds the parent's interquartile range.  An
A/A record (parent = HEAD on a clean tree) also states, per metric, that
range as the smallest gap the protocol can resolve.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "pairs"
TAIL = 2000  # characters of a failed run's output kept in the record


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The tree of rev, unpacked from `git archive` into dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = dest.parent / f"{dest.name}.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def copy_worktree(dest):
    """The working tree's files that git tracks or does not ignore, copied
    into dest."""
    shutil.rmtree(dest, ignore_errors=True)
    names = _git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree, workload, seconds, seed):
    """One `bench/run.py` run in tree: its metrics, or its exit code and
    the tail of its output when it failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--trace", "0", "--seconds", str(seconds)]
    cmd += [] if seed is None else ["--seed", str(seed)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = {"rc": proc.returncode, "started": started,
           "wall_s": round(time.time() - started, 3)}
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in last["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        last, metrics = None, None
    if proc.returncode != 0 or metrics is None:
        return {**run, "failed": True,
                "output_tail": (proc.stdout + proc.stderr)[-TAIL:]}
    return {**run, "failed": False, "correct": last["correct"],
            "attempted": last["attempted"], "sets_failed": last["failed"],
            "metrics": metrics,
            "env": dict(line.split(" ", 2)[1:] for line in lines
                        if line.startswith("env ")
                        and len(line.split(" ", 2)) == 3)}


def quartiles(values):
    """(q1, median, q3) by the inclusive method; all three equal for one
    value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, metrics):
    """Per metric: each side's quartiles, the change's wins, the median gap
    signed so that positive is better, and the parent's IQR."""
    out = {}
    for name, better in metrics.items():
        sign = 1.0 if better == "lower" else -1.0
        ok = [p for p in pairs if not (p["parent"]["failed"]
                                       or p["change"]["failed"])]
        side = {s: [p[s]["metrics"][name] for p in ok]
                for s in ("parent", "change")}
        if not ok:
            out[name] = {"better": better, "pairs": 0}
            continue
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (quartiles(side[s])
                                              for s in ("parent", "change"))
        gap = sign * (pmed - cmed)
        wins = sum(sign * (a - b) > 0
                   for a, b in zip(side["parent"], side["change"]))
        out[name] = {
            "better": better, "pairs": len(ok), "change_wins": wins,
            "parent": {"q1": pq1, "median": pmed, "q3": pq3},
            "change": {"q1": cq1, "median": cmed, "q3": cq3},
            "median_gap": gap, "parent_iqr": pq3 - pq1,
            "resolved_gain": wins >= 0.9 * len(ok) and gap > pq3 - pq1,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: its acceptance seed)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    parent_rev = _git("rev-parse", args.parent)
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    change_rev = _git("rev-parse", "HEAD") + ("+dirty" if dirty else "")
    sides = {"parent": WORK / "parent", "change": WORK / "change"}
    export(parent_rev, sides["parent"])
    copy_worktree(sides["change"])

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, args.seconds,
                                  args.seed)
            print(f"pair {i} {side}: " + (
                "FAILED rc=%d" % pair[side]["rc"] if pair[side]["failed"]
                else " ".join(f"{k}={v:.4g}"
                              for k, v in pair[side]["metrics"].items())),
                flush=True)
        pairs.append(pair)

    record = {
        "label": args.label, "workload": args.workload,
        "parent_revision": parent_rev, "change_revision": change_rev,
        "seed": args.seed, "seconds": args.seconds, "pairs": pairs,
        "summary": summarize(pairs, metrics),
    }
    if change_rev == parent_rev:
        record["smallest_resolvable_gap"] = {
            name: s["parent_iqr"] for name, s in record["summary"].items()
            if s["pairs"]}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for name, s in record["summary"].items():
        if s["pairs"]:
            print(f"{name}: parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], "
                  f"change {s['change']['median']:.4g} "
                  f"[{s['change']['q1']:.4g}, {s['change']['q3']:.4g}], "
                  f"change wins {s['change_wins']}/{s['pairs']}, gap "
                  f"{s['median_gap']:.4g} vs parent IQR "
                  f"{s['parent_iqr']:.4g}")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
