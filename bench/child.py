"""One benchmark call in a fresh process: import projlab, locate the inputs,
then run one `projlab.cli.main([...])` call, optionally traced.

Usage (run.py starts it; the argument after `--` is the CLI argv):

    python3 bench/child.py --result R.json --spawned T [--trace] \
        [--inputs a,b] [--setup-only] -- project cfg.json --out D --seed 11

`--spawned` is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so setup_s covers the
interpreter start too.  The result file holds setup_s, run_s, CPU seconds,
peak RSS, the exit code, any traceback, and with --trace the spans.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--run-id", default="0")
    parser.add_argument("--inputs", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    from projlab.cli import main as cli_main

    missing = [p for p in args.inputs.split(",")
               if p and not os.path.exists(p)]
    result = {"setup_s": time.monotonic() - args.spawned, "rc": 0}
    if missing:
        result.update(rc=2, error=f"missing inputs: {missing}")
    elif not args.setup_only:
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
            cli_main = tracer.wrap(cli_main, "lab.main")
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = cli_main(cli_argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the failure is counted by the parent
            rc = 1
            result["error"] = traceback.format_exc()
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_seconds() - cpu0
        result["rc"] = 0 if rc is None else rc
        if tracer is not None:
            result["spans"] = tracer.finish()
            result["missing_wraps"] = tracer.missing
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    text = json.dumps(result)  # before opening, so a result is whole
    with open(args.result, "w") as fh:
        fh.write(text)
    return 0 if result["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
