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
    family_jacobian,
    find_witness_subspace,
    load_family,
    nondegeneracy_check,
    p_of_l,
    theorem_lower_bound,
)
from .lab import (
    ConfigError,
    ExperimentConfig,
    run_bound_check,
    run_sharpness,
    run_transversality,
    run_verify_suite,
)


def _cmd_bound(args):
    n, m, k = args.n, args.m, args.k
    try:  # the library's range checks name the argument
        threshold = p_of_l(n, m, k, m - 1) + m  # the bound is m above it
        ps = [p_of_l(n, m, k, l) for l in range(m)]
        ds = ([args.d] if args.d is not None
              else np.linspace(0.0, float(n), 4 * n + 1))
        bounds = [theorem_lower_bound(n, m, k, float(d)) for d in ds]
    except ValueError as exc:
        return _reject(args, "arguments", exc)
    print(f"# p(l) for n={n} m={m} k={k}")
    print("l,p")
    for l, p in enumerate(ps):
        print(f"{l},{p}")
    print(f"# absolute-continuity threshold: dim mu > {threshold}")
    print("d,bound")
    for d, b in zip(ds, bounds):
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
    try:  # the library's range and hypothesis checks name t, l and seed
        res = find_witness_subspace(J, args.t, args.l, seed=args.seed)
    except ValueError as exc:
        return _reject(args, args.family, exc)
    out = {
        "t": args.t,
        "l": args.l,
        "d_prime_hat": res["d_prime_hat"],
        "W": [[float(v) for v in row] for row in res["W"].basis],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _reject(args, source, problem):
    print(f"projlab {args.command}: {source}: {problem}", file=sys.stderr)
    return 2


def _cmd_transversality(args):
    if args.extend and args.l is None:
        return _reject(args, args.family, "--extend requires --l")
    if args.l is not None and not args.extend:
        return _reject(args, args.family, "--l requires --extend")
    deltas = ()
    if args.deltas:
        try:
            deltas = tuple(float(x) for x in args.deltas.split(","))
        except ValueError:
            return _reject(args, args.family, f"--deltas must be comma-"
                           f"separated numbers, got {args.deltas!r}")
    cfg = ExperimentConfig(
        mode="transversality",
        family=args.family,
        seed=args.seed,
        l=args.l,
        deltas=deltas,
        mc_samples=args.samples,
        n_directions=args.directions,
    )
    report = run_transversality(cfg)
    if args.out:
        try:
            report.save(args.out)
        except OSError as exc:  # say, --out names an existing file
            return _reject(args, "--out", exc)
        print(f"wrote {args.out}/transversality.json "
              f"(runtime {report.runtime_seconds:.1f}s)", file=sys.stderr)
    else:
        print(report.to_json())
    return 0


def _run_experiment(args, runner):
    cfg = ExperimentConfig.load(args.experiment)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.force:
        cfg.force = True
    report = runner(cfg)
    try:
        report.save(args.out)
    except OSError as exc:  # say, --out lies below a file
        return _reject(args, "--out", exc)
    print(f"wrote {args.out}/report.json", file=sys.stderr)
    print(json.dumps(report.summary, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args):
    rows, ok = run_verify_suite(args.filter)
    if not rows:  # a mistyped filter must not read as a pass
        return _reject(args, "--filter", f"{args.filter!r} matches no check")
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
    t.add_argument("--samples", type=int,
                   default=ExperimentConfig.mc_samples)
    t.add_argument("--directions", type=int,
                   default=ExperimentConfig.n_directions)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", type=str, default=None)
    t.set_defaults(fn=_cmd_transversality)

    for name, runner in (("project", run_bound_check),
                         ("sharpness", run_sharpness)):
        p = sub.add_parser(name)
        p.add_argument("experiment")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--force", action="store_true")
        p.set_defaults(fn=lambda a, r=runner: _run_experiment(a, r))

    v = sub.add_parser("verify", help="cross-module property suite")
    v.add_argument("--filter", type=str, default=None)
    v.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    source = (getattr(args, "experiment", None)
              or getattr(args, "family", None) or "arguments")
    try:
        return args.fn(args)
    except ConfigError as exc:  # exit 2 naming the input and the field
        return _reject(args, source, exc)
    except MemoryError as exc:  # sizes in range that this machine cannot hold
        return _reject(args, source, f"out of memory: {exc}")


if __name__ == "__main__":
    sys.exit(main())
