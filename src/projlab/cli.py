"""Command-line interface for the projection laboratory.

Subcommands: bound, check-family, witness, transversality, project,
sharpness, verify.  JSON in, JSON/CSV/TSV out; stochastic modes require an
explicit seed.
"""

import argparse
import json
import sys

import numpy as np

from .family import (
    bound_table,
    extend_family,
    family_rows_fn,
    find_witness_subspace,
    load_family,
    nondegeneracy_check,
    p_of_l,
    theorem_lower_bound,
    transversality_probe,
)
from .family import family_jacobian
from .lab import (
    ExperimentConfig,
    run_bound_check,
    run_sharpness,
    run_transversality,
    run_verify_suite,
)


def _cmd_bound(args):
    tab = bound_table(args.n, args.m, args.k)
    print(f"# p(l) for n={args.n} m={args.m} k={args.k}")
    print("l,p")
    for l, p in enumerate(tab.p_values):
        print(f"{l},{p}")
    print(f"# absolute-continuity threshold: dim mu > {tab.ac_threshold}")
    if args.d is not None:
        print("d,bound")
        print(f"{args.d!r},{theorem_lower_bound(args.n, args.m, args.k, args.d)!r}")
    else:
        print("d,bound")
        for d in np.linspace(0.0, float(args.n), 4 * args.n + 1):
            b = theorem_lower_bound(args.n, args.m, args.k, float(d))
            print(f"{float(d)!r},{b!r}")
    return 0


def _cmd_check_family(args):
    spec = load_family(args.family)
    res = nondegeneracy_check(spec, np.zeros(spec.k))
    status = "PASS" if res["pass"] else "FAIL"
    print(f"wedge_norm={res['wedge_norm']!r} {status}")
    return 0 if res["pass"] else 1


def _cmd_witness(args):
    spec = load_family(args.family)
    J = family_jacobian(spec, np.zeros(spec.k))
    res = find_witness_subspace(J, args.t, args.l, seed=args.seed)
    out = {
        "t": args.t,
        "l": args.l,
        "d_prime_hat": res["d_prime_hat"],
        "W": [[float(v) for v in row] for row in res["W"].basis],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_transversality(args):
    spec = load_family(args.family)
    deltas = [float(x) for x in args.deltas.split(",")] if args.deltas else []
    cfg = ExperimentConfig(
        mode="transversality",
        family=args.family,
        seed=args.seed,
        l=args.l if args.extend else None,
        deltas=tuple(deltas),
        mc_samples=args.samples,
        n_directions=args.directions,
        force=args.force,
    )
    report, runtime = run_transversality(cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "transversality.json"), "w") as fh:
            fh.write(text + "\n")
        with open(os.path.join(args.out, "loglog.csv"), "w") as fh:
            fh.write("delta," + ",".join(
                f"fraction_{i}" for i in range(len(report["panel"]))) + "\n")
            for di, d in enumerate(report["deltas"]):
                cells = [repr(d)]
                for entry in report["panel"]:
                    fr = entry.get("fractions")
                    cells.append(repr(fr[di]) if fr else "")
                fh.write(",".join(cells) + "\n")
        print(f"wrote {args.out}/transversality.json "
              f"(runtime {runtime:.1f}s)", file=sys.stderr)
    else:
        print(text)
    return 0


# config fields each grid mode reads beyond the common ones
_REQUIRED_FIELDS = {"bound_check": ("measure",), "sharpness": ("l", "s")}


def _config_problem(cfg, mode):
    """Why cfg cannot run as the given grid mode, or None."""
    if cfg.mode != mode:
        return f"field 'mode' is {cfg.mode!r}, this subcommand runs {mode!r}"
    missing = [f for f in _REQUIRED_FIELDS[mode] if getattr(cfg, f) is None]
    if missing:
        return (f"mode {mode!r} requires field(s) "
                f"{', '.join(repr(f) for f in missing)}")
    return None


def _run_experiment(args, runner, mode):
    cfg = ExperimentConfig.load(args.experiment)
    problem = _config_problem(cfg, mode)
    if problem:
        print(f"projlab {args.command}: {args.experiment}: {problem}",
              file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    if args.force:
        cfg.force = True
    report = runner(cfg)
    report.save(args.out)
    print(f"wrote {args.out}/report.json", file=sys.stderr)
    summary = report.summary
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args):
    rows, ok = run_verify_suite(args.filter)
    print("check\tpass\tdetail\tseconds")
    for row in rows:
        print(f"{row['check']}\t{'pass' if row['pass'] else 'FAIL'}\t"
              f"{row['detail']}\t{row['seconds']}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="projlab",
        description="Numerical laboratory for dimension bounds under "
                    "parametrized projection families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="p(l) table and bound curve samples")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--d", type=float, default=None)
    b.set_defaults(fn=_cmd_bound)

    c = sub.add_parser("check-family", help="non-degeneracy wedge norm")
    c.add_argument("family")
    c.set_defaults(fn=_cmd_check_family)

    w = sub.add_parser("witness", help="witness subspace search")
    w.add_argument("family")
    w.add_argument("--t", type=int, required=True)
    w.add_argument("--l", type=int, required=True)
    w.add_argument("--seed", type=int, required=True)
    w.set_defaults(fn=_cmd_witness)

    t = sub.add_parser("transversality", help="sublevel-exponent report")
    t.add_argument("family")
    t.add_argument("--extend", action="store_true")
    t.add_argument("--l", type=int, default=None)
    t.add_argument("--deltas", type=str, default=None)
    t.add_argument("--samples", type=int, default=1_000_000)
    t.add_argument("--directions", type=int, default=8)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--force", action="store_true")
    t.add_argument("--out", type=str, default=None)
    t.set_defaults(fn=_cmd_transversality)

    for name, runner, mode in (("project", run_bound_check, "bound_check"),
                               ("sharpness", run_sharpness, "sharpness")):
        p = sub.add_parser(name)
        p.add_argument("experiment")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--force", action="store_true")
        p.set_defaults(fn=lambda a, r=runner, md=mode:
                       _run_experiment(a, r, md))

    v = sub.add_parser("verify", help="cross-module property suite")
    v.add_argument("--filter", type=str, default=None)
    v.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
