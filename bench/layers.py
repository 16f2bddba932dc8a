"""Span tracing for the benchmark's traced runs, and the per-layer metrics
computed from the spans.

The child process wraps public projlab functions at the names the program
looks them up at call time, so no source file changes.  A wrapper records
one span per call: name, start, end, parent span and the child's run id,
plus a few counts taken from the call's arguments and result.  Spans stay
in memory and are written with the child's result when it exits.

A span's layer is the part of its name before the first dot.  Self time is
a span's duration minus the durations of its direct children; the self
times of one call's spans add up to its root span, the whole `main()`.
"""

import functools
import importlib
import inspect
import statistics
import time

# (module, attribute path, span name).  The module is the one whose globals
# the program reads at call time; a class attribute wraps the method.
TARGETS = (
    ("projlab.cli", "run_bound_check", "lab.run"),
    ("projlab.cli", "run_sharpness", "lab.run"),
    ("projlab.cli", "run_transversality", "lab.run"),
    ("projlab.lab", "ExperimentReport.save", "lab.save"),
    ("projlab.lab", "nondegeneracy_check", "family.gate"),
    ("projlab.lab", "extend_family", "family.extend"),
    ("projlab.lab", "family_frame", "family.frame"),
    ("projlab.family", "ExtendedFamily.frame", "family.frame"),
    ("projlab.lab", "transversality_probe", "family.probe"),
    ("projlab.family", "family_rows", "family.rows"),
    ("projlab.family", "ExtendedFamily.rows", "family.rows_ext"),
    ("projlab.family", "span_frame", "grassmann.span_frame"),
    ("projlab.lab", "span_frame", "grassmann.span_frame"),
    ("projlab.family", "complement", "grassmann.complement"),
    ("projlab.lab", "complement", "grassmann.complement"),
    ("projlab.lab", "build_measure", "fractal.build"),
    ("projlab.lab", "sharpness_measure", "fractal.build"),
    ("projlab.lab", "project_points", "dimest.project"),
    ("projlab.lab", "box_counting_dim", "dimest.box"),
)


def _intrinsic_dim(measure):
    """Rank of the weighted covariance, by the same cut-off as the
    estimator's PCA: eigenvalues above 1e-16 of the largest."""
    import numpy as np

    X = measure.points - measure.weights @ measure.points
    evals = np.linalg.eigvalsh((X * measure.weights[:, None]).T @ X)
    if evals[-1] <= 0:
        return 0
    return int(np.count_nonzero(evals > 1e-16 * evals[-1]))


def _box_info(bound, est):
    window = est.fit_window
    scales = list(est.scales)
    offsets = bound.arguments.get("n_offsets")
    return {
        "points": int(est.point_count),
        "scales": len(scales),
        "in_window": int(sum(window[0] <= s <= window[1] for s in scales)),
        "boxes": float(sum(est.counts)),
        "offsets": int(offsets),
        "measure": bound.arguments["measure"],  # finish() takes its rank
    }


def _probe_info(bound, probe):
    used = probe.get("used")
    return {
        "samples": int(bound.arguments["samples"]),
        "accepted": probe.get("exponent") is not None,
        "used": int(sum(used)) if used is not None else 0,
        "deltas": len(probe["deltas"]),
    }


def _rows_info(bound, rows):
    return {"lambdas": int(rows.shape[0]), "bytes": int(rows.nbytes)}


def _build_info(bound, measure):
    return {"points": int(measure.count)}


# span name -> (bound arguments, result) -> counts kept with the span
INFO = {
    "dimest.box": _box_info,
    "family.probe": _probe_info,
    "family.rows": _rows_info,
    "family.rows_ext": _rows_info,
    "fractal.build": _build_info,
}


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, fn, name):
        info = INFO.get(name)
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if info:
                # a renamed argument or field loses the counts, not the run
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["info"] = info(bound, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    span["info_error"] = repr(exc)
            return result

        return traced

    def finish(self):
        """Work left until the timed call is over: the intrinsic dimension
        of each box-counted cloud."""
        for span in self.spans:
            info = span.get("info", {})
            if "measure" in info:
                info["dim"] = _intrinsic_dim(info.pop("measure"))
        return self.spans

    def install(self):
        """Wrap every target that exists; record the others as missing."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self.wrap(fn, name))


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of traced sets
# ---------------------------------------------------------------------------

PER_LAYER = (
    ("lab.row_s_p50", "s"),
    ("lab.row_s_tail", "s"),
    ("lab.rows_timed", "count"),
    ("lab.direction_s_p50", "s"),
    ("lab.save_s", "s"),
    ("lab.report_bytes", "bytes"),
    ("lab.self_s", "s"),
    ("lab.cpu_util", "ratio"),
    ("lab.trace_overhead_frac", "ratio"),
    ("family.gate_s", "s"),
    ("family.extend_s", "s"),
    ("family.frame_s", "s"),
    ("family.rows_base_s_per_Mlambda", "s"),
    ("family.rows_ext_s_per_Mlambda", "s"),
    ("family.sublevel_base_s_per_Msample", "s"),
    ("family.sublevel_ext_s_per_Msample", "s"),
    ("family.samples_drawn", "count"),
    ("family.probe_accept_ratio", "ratio"),
    ("family.usable_delta_ratio", "ratio"),
    ("family.exponent_err", "exponent"),
    ("family.rows_batch_bytes", "bytes"),
    ("grassmann.span_frame_s", "s"),
    ("grassmann.complement_s", "s"),
    ("fractal.build_s", "s"),
    ("fractal.points", "count"),
    ("dimest.project_s", "s"),
    ("dimest.box_s", "s"),
    ("dimest.box_points_per_s", "1/s"),
    ("dimest.boxes_occupied", "count"),
    ("dimest.fit_scale_ratio", "ratio"),
    ("dimest.box_bytes_computed", "bytes"),
    ("dimest.cloud_bytes", "bytes"),
)


def _dur(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Self time of every span: its duration minus its direct children."""
    out = [_dur(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _dur(s)
    return out


def _enclosing(spans, span, name):
    """Index of the nearest ancestor span with this name, or None."""
    while span["parent"] is not None:
        if spans[span["parent"]]["name"] == name:
            return span["parent"]
        span = spans[span["parent"]]
    return None


def _top(spans, name):
    """Spans of one name that are not nested inside another of that name."""
    return [s for s in spans
            if s["name"] == name and _enclosing(spans, s, name) is None]


def _units(spans):
    """Grid rows or panel directions: each starts at a family.frame span
    directly under lab.run and ends with the last sibling before the next
    one."""
    units = []
    for idx, run in enumerate(spans):
        if run["name"] != "lab.run":
            continue
        children = [s for s in spans if s["parent"] == idx]
        start = None
        for pos, child in enumerate(children):
            if child["name"] == "family.frame":
                start = child["start"]
            nxt = children[pos + 1] if pos + 1 < len(children) else None
            if start is not None and (nxt is None
                                      or nxt["name"] == "family.frame"):
                units.append(child["end"] - start)
                start = None
    return units


def call_summary(spans):
    """Totals for one traced call: layer times, counts and rates."""
    selfs = self_times(spans)
    root = [s for s in spans if s["parent"] is None]
    runs = [s for s in spans if s["name"] == "lab.run"]
    out = {
        "wall": sum(_dur(s) for s in root),
        "self_sum": sum(selfs),
        "layer_self": {},
        # output writing: from the runner's return to main()'s return
        "save": (max(s["end"] for s in root) - max(s["end"] for s in runs)
                 if runs and root else 0.0),
        "units": _units(spans),
    }
    for s, t in zip(spans, selfs):
        layer = s["name"].split(".")[0]
        out["layer_self"][layer] = out["layer_self"].get(layer, 0.0) + t
    for name in ("family.gate", "family.extend", "family.frame",
                 "grassmann.span_frame", "grassmann.complement",
                 "fractal.build", "dimest.project", "dimest.box"):
        out[name] = sum((_dur(s) for s in _top(spans, name)), 0.0)
    out["fractal.points"] = sum(s["info"]["points"]
                                for s in _top(spans, "fractal.build")
                                if "info" in s)
    boxes = [s["info"] for s in spans
             if s["name"] == "dimest.box" and "info" in s]
    out["box"] = {
        "points": sum(i["points"] for i in boxes),
        "scales": sum(i["scales"] for i in boxes),
        "in_window": sum(i["in_window"] for i in boxes),
        "boxes": sum(i["boxes"] for i in boxes),
        "bytes": sum(8 * i["scales"] * i["offsets"] * i["points"] * i["dim"]
                     for i in boxes),
        "cloud": max((8 * i["points"] * i["dim"] for i in boxes), default=0),
    }
    # rows handed to the probe: the extended family's rows_ext spans, or
    # the base family's rows spans that no rows_ext span encloses
    rows_in = {}
    for s in spans:
        probe = _enclosing(spans, s, "family.probe")
        if probe is None or "info" not in s:
            continue
        if s["name"] == "family.rows_ext" or (
                s["name"] == "family.rows"
                and _enclosing(spans, s, "family.rows_ext") is None):
            rows_in.setdefault(probe, []).append(s)
    # per kind: [rows s, sublevel s, lambdas, samples]
    kinds = {"base": [0.0, 0.0, 0, 0], "ext": [0.0, 0.0, 0, 0]}
    counts = {"samples": 0, "probes": 0, "accepted": 0, "used": 0,
              "deltas": 0, "batch_bytes": 0}
    for idx, s in enumerate(spans):
        if s["name"] != "family.probe" or "info" not in s:
            continue
        rows = rows_in.get(idx, [])
        ext = any(r["name"] == "family.rows_ext" for r in rows)
        acc = kinds["ext" if ext else "base"]
        rows_s = sum(_dur(r) for r in rows)
        acc[0] += rows_s
        acc[1] += _dur(s) - rows_s
        acc[2] += sum(r["info"]["lambdas"] for r in rows)
        acc[3] += s["info"]["samples"]
        counts["samples"] += s["info"]["samples"]
        counts["probes"] += 1
        counts["accepted"] += s["info"]["accepted"]
        counts["used"] += s["info"]["used"]
        counts["deltas"] += s["info"]["deltas"]
        counts["batch_bytes"] = max([counts["batch_bytes"]]
                                    + [r["info"]["bytes"] for r in rows])
    out["probes"] = kinds
    out["probe_counts"] = counts
    return out


def _quantile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(traced_sets, untraced_walls, untraced_cpu, grid,
                      exponent_err, report_bytes):
    """Per-layer metrics of one traced run.

    traced_sets: per traced set, the list of call summaries of its calls.
    untraced_walls / untraced_cpu: wall and CPU seconds of the run's
    untraced sets.  exponent_err and report_bytes come from the outputs.
    A metric whose layer does not run on this workload reads 0; `not_run`
    names them.
    """
    med = statistics.median

    def per_set(key):
        return med(sum(c[key] for c in calls) for calls in traced_sets)

    calls = [c for calls in traced_sets for c in calls]
    units = [u for c in calls for u in c["units"]]
    rows = units if grid else []
    dirs = [] if grid else units
    tail_q = max(0.5, 1.0 - 10.0 / len(rows)) if len(rows) > 10 else 0.5
    probes = {k: [sum(c["probes"][k][i] for c in calls) for i in range(4)]
              for k in ("base", "ext")}
    counts = traced_sets[0]
    pc = {k: sum(c["probe_counts"][k] for c in counts)
          for k in ("samples", "probes", "accepted", "used", "deltas")}
    box = {k: sum(c["box"][k] for c in calls)
           for k in ("points", "scales", "in_window")}
    box_time = sum(c["dimest.box"] for c in calls)
    traced_walls = [sum(c["wall"] for c in calls) for calls in traced_sets]
    values = {
        "lab.row_s_p50": med(rows) if rows else 0.0,
        "lab.row_s_tail": _quantile(rows, tail_q) if rows else 0.0,
        "lab.rows_timed": len(rows),
        "lab.direction_s_p50": med(dirs) if dirs else 0.0,
        "lab.save_s": per_set("save"),
        "lab.report_bytes": report_bytes,
        "lab.self_s": med(sum(c["layer_self"].get("lab", 0.0) for c in cs)
                          for cs in traced_sets),
        "lab.cpu_util": _ratio(sum(untraced_cpu), sum(untraced_walls)),
        "lab.trace_overhead_frac": (med(traced_walls) / med(untraced_walls)
                                    - 1.0),
        "family.gate_s": per_set("family.gate"),
        "family.extend_s": per_set("family.extend"),
        "family.frame_s": per_set("family.frame"),
        "family.rows_base_s_per_Mlambda":
            _ratio(probes["base"][0], probes["base"][2]) * 1e6,
        "family.rows_ext_s_per_Mlambda":
            _ratio(probes["ext"][0], probes["ext"][2]) * 1e6,
        "family.sublevel_base_s_per_Msample":
            _ratio(probes["base"][1], probes["base"][3]) * 1e6,
        "family.sublevel_ext_s_per_Msample":
            _ratio(probes["ext"][1], probes["ext"][3]) * 1e6,
        "family.samples_drawn": pc["samples"],
        "family.probe_accept_ratio": _ratio(pc["accepted"], pc["probes"]),
        "family.usable_delta_ratio": _ratio(pc["used"], pc["deltas"]),
        "family.exponent_err": exponent_err if exponent_err is not None
        else 0.0,
        "family.rows_batch_bytes": max(c["probe_counts"]["batch_bytes"]
                                       for c in calls),
        "grassmann.span_frame_s": per_set("grassmann.span_frame"),
        "grassmann.complement_s": per_set("grassmann.complement"),
        "fractal.build_s": per_set("fractal.build"),
        "fractal.points": sum(c["fractal.points"] for c in counts),
        "dimest.project_s": per_set("dimest.project"),
        "dimest.box_s": per_set("dimest.box"),
        "dimest.box_points_per_s": _ratio(box["points"], box_time),
        "dimest.boxes_occupied": sum(c["box"]["boxes"] for c in counts),
        "dimest.fit_scale_ratio": _ratio(box["in_window"], box["scales"]),
        "dimest.box_bytes_computed": sum(c["box"]["bytes"] for c in counts),
        "dimest.cloud_bytes": max(c["box"]["cloud"] for c in calls),
    }
    # every metric is 0 exactly when the spans it comes from did not occur
    not_run = [name for name, _ in PER_LAYER if values[name] == 0]
    return values, not_run, tail_q
