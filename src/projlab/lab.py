"""Experiment harness: wires families, measures and estimators into
reproducible bound-check, sharpness and transversality runs, plus the
cross-module verification suite.

Reports are a pure function of (config, seed); wall-clock timing goes to a
separate meta file so report.json and per-lambda.csv stay bit-identical
across reruns.
"""

import hashlib
import itertools
import json
import os
import time
from dataclasses import MISSING, dataclass, field

import numpy as np

from . import __version__
from .dimest import box_counting_dim, correlation_dim, project_points
from .family import (
    REQUIRED,
    ConfigError,
    FamilySpec,
    check_keys,
    config_field,
    disjoint_slot_family,
    extend_family,
    family_frame,
    family_from_dict,
    family_to_dict,
    load_family,
    nondegeneracy_check,
    p_of_l,
    p_oracle_dots,
    projection_derivative_matrix,
    read_json,
    slot_family,
    theorem_lower_bound,
    transversality_probe,
)
from .fractal import (
    SampledMeasure,
    embed,
    four_corner_cantor,
    lebesgue_ball,
    line_cantor,
    product_embed,
    write_csv,
)
from .grassmann import (
    Frame,
    complement,
    projector,
    span_frame,
    span_projector,
)
from .multivec import cauchy_binet_norm, gram_norm, wedge_operator_norm
from .threads import cpu_pool


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    mode: str  # bound_check | sharpness | transversality
    family: dict
    seed: int
    measure: dict = None
    lambda_grid: tuple = ()
    estimator: dict = field(default_factory=lambda: {"method": "box_counting"})
    tolerance: float = 0.12
    l: int = None
    s: float = None
    level: int = 12
    sample_count: int = 200_000
    deltas: tuple = ()
    mc_samples: int = 1_000_000
    n_directions: int = 8
    force: bool = False

    @classmethod
    def from_dict(cls, d):
        """The config of a JSON object; ConfigError naming the field when
        a key is unknown, a required field is missing or a field is of the
        wrong kind.  A null is accepted where the default is None."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be an object, got {d!r}")
        check_keys(d, cls.__dataclass_fields__, "config")
        for name, fld in cls.__dataclass_fields__.items():
            if fld.default is None and d.get(name) is None:
                continue
            has_default = (fld.default is not MISSING
                           or fld.default_factory is not MISSING)
            config_field(d, name, "config", _FIELD_KINDS[name],
                         None if has_default else REQUIRED)
        return cls(**d)

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path))

    def content_hash(self):
        """Hash of the config with its family resolved to the family dict,
        so two family files at one path hash differently."""
        return _config_hash(self, resolve_family(self.family))


def _config_hash(cfg: ExperimentConfig, spec: FamilySpec):
    """`content_hash` of cfg with spec as its resolved family."""
    body = dict(cfg.__dict__, family=family_to_dict(spec))
    return hashlib.sha256(_canonical(body).encode()).hexdigest()[:16]


def _canonical(value):
    """JSON text of a config value, as `content_hash` hashes it."""
    return json.dumps(value, sort_keys=True, default=list)


# JSON kind of each config field, as `config_field` checks it
_FIELD_KINDS = {
    "mode": str, "family": (dict, str), "seed": int, "measure": dict,
    "lambda_grid": [int], "estimator": dict, "tolerance": float, "l": int,
    "s": float, "level": int, "sample_count": int, "deltas": [float],
    "mc_samples": int, "n_directions": int, "force": bool,
}


# config fields each mode reads beside mode, family and seed: (required,
# optional); check_config rejects any other field set off its default
_GRID_FIELDS = ("lambda_grid", "estimator", "tolerance", "force")
_MODE_FIELDS = {
    "bound_check": (("measure",), _GRID_FIELDS),
    "sharpness": (("l", "s"), _GRID_FIELDS + ("level", "sample_count")),
    "transversality": ((), ("l", "deltas", "mc_samples", "n_directions")),
}


def check_config(cfg: ExperimentConfig, mode) -> FamilySpec:
    """The family of cfg once cfg is checked for a run of the given mode;
    ConfigError naming the first requirement it fails otherwise, before
    any measure is built."""
    if cfg.mode != mode:
        raise ConfigError(f"field 'mode' is {cfg.mode!r}, this run needs "
                          f"{mode!r}")
    required, optional = _MODE_FIELDS[mode]
    missing = [f for f in required if getattr(cfg, f) is None]
    if missing:
        raise ConfigError(f"mode {mode!r} requires field(s) "
                          f"{', '.join(repr(f) for f in missing)}")
    default = ExperimentConfig(mode, cfg.family, cfg.seed)
    read = ("mode", "family", "seed") + required + optional
    foreign = [f for f in _FIELD_KINDS if f not in read and
               _canonical(getattr(cfg, f)) != _canonical(getattr(default, f))]
    if foreign:
        raise ConfigError(f"mode {mode!r} does not read field(s) "
                          f"{', '.join(repr(f) for f in foreign)}")
    for name, low in (("seed", 0), ("tolerance", 0)):
        if not low <= getattr(cfg, name) < np.inf:  # NaN fails too
            raise ConfigError(f"field {name!r} must be finite and at least "
                              f"{low}, got {getattr(cfg, name)}")
    for name in ("sample_count", "mc_samples", "n_directions"):
        if not 0 < getattr(cfg, name) < 2 ** 63:
            raise ConfigError(f"field {name!r} must lie in 1..2**63-1, got "
                              f"{getattr(cfg, name)}")
    if not all(0 < d < np.inf for d in cfg.deltas):
        raise ConfigError(f"field 'deltas' must be positive and finite, "
                          f"got {list(cfg.deltas)}")
    spec = resolve_family(cfg.family)
    n, m, k, l = spec.n, spec.m, spec.k, cfg.l
    if l is not None and not 0 <= l <= m - 1:
        raise ConfigError(f"field 'l' must lie in 0..m-1={m - 1}, got {l}")
    if mode == "transversality" and l is not None:
        p = p_of_l(n, m, k, l)
        if p >= n - m:
            raise ConfigError(f"field 'l'={l} leaves nothing to extend: "
                              f"p(l)={p} >= n-m={n - m}")
    check_keys(cfg.estimator, ("method",), "estimator")
    method = cfg.estimator.get("method", "box_counting")
    if method not in ("box_counting", "correlation"):
        raise ConfigError(f"field 'estimator' names the unknown method "
                          f"{method!r}")
    if mode == "sharpness":
        if not 0 <= cfg.s <= 1:
            raise ConfigError(f"field 's' must lie in [0, 1], got {cfg.s}")
        lhs, rhs = parameter_bracket(n, m, l, p_of_l(n, m, k, l))
        if not lhs < k <= rhs:
            raise ConfigError(f"field 'l'={l} and the family's k={k} violate "
                              f"the parameter-count bracket {lhs} < k <= "
                              f"{rhs}")
    return spec


def resolve_family(family) -> FamilySpec:
    if isinstance(family, str):
        try:
            return load_family(family)
        except ConfigError as exc:  # the file's own errors name no field
            raise ConfigError(f"field 'family': {exc}") from None
    return family_from_dict(family)


# keys of each measure variant beside 'variant'
_MEASURE_KEYS = {
    "four_corner_cantor": ("level",),
    "line_cantor": ("s", "level"),
    "lebesgue_ball": ("dim", "N"),
    "embedded": ("inner", "frame"),
    "product": ("factors", "N"),
}


def build_measure(spec, seed) -> SampledMeasure:
    """Instantiate a measure from its config dict; ConfigError naming the
    field when one is unknown, missing or of the wrong kind."""
    def get(d, key, kind, default=REQUIRED):
        return config_field(d, key, "measure", kind, default)

    def frame_of(d):
        return span_frame(np.asarray(get(d, "frame", [[float]]),
                                     dtype=float))

    variant = get(spec, "variant", str)
    if variant not in _MEASURE_KEYS:
        raise ConfigError(f"unknown measure variant {variant!r}")
    check_keys(spec, ("variant",) + _MEASURE_KEYS[variant], "measure")
    if variant == "four_corner_cantor":
        return four_corner_cantor(get(spec, "level", int))
    if variant == "line_cantor":
        return line_cantor(get(spec, "s", float), get(spec, "level", int))
    if variant == "lebesgue_ball":
        return lebesgue_ball(get(spec, "dim", int),
                             get(spec, "N", int, 100_000), seed)
    if variant == "embedded":
        inner = build_measure(get(spec, "inner", dict), seed)
        return embed(inner, frame_of(spec))
    parts = []
    for factor in get(spec, "factors", list):
        measure = get(factor, "measure", dict)
        check_keys(factor, ("measure", "frame"), "product factor")
        parts.append((build_measure(measure, seed), frame_of(factor)))
    return product_embed(parts, get(spec, "N", int, 200_000), seed)


def _build(builder, *args) -> SampledMeasure:
    """builder(*args), with a generator's ValueError (a level, dimension
    or frame out of its range) turned into a ConfigError."""
    try:
        return builder(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"measure: {exc}") from None


def _estimate(measure, estimator_cfg, seed):
    """The estimate of `check_config`'s estimator method."""
    if estimator_cfg.get("method") == "correlation":
        return correlation_dim(measure, seed=seed)
    return box_counting_dim(measure, seed=seed)


def lambda_grid(spec: FamilySpec, counts):
    """Cartesian grid over the family domain, per-axis counts (one count
    serves every axis), spanning 0.9 of each radius so that it stays
    inside the open box, in ascending lexicographic order of lambda;
    ConfigError naming the field when the counts do not fit the family."""
    per_axis = list(counts)
    if len(per_axis) == 1:
        per_axis *= spec.k
    if len(per_axis) != spec.k or not all(0 < c < 2 ** 63 for c in per_axis):
        raise ConfigError(f"field 'lambda_grid' must hold one count or one "
                          f"per parameter (k={spec.k}), each in 1..2**63-1, "
                          f"got {list(counts)}")
    axes = [np.linspace(-0.9 * r, 0.9 * r, c)
            for r, c in zip(spec.radii, per_axis)]
    return [np.array(pt) for pt in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

ROW_FIELDS = ("est_dim", "bound", "margin", "fit_r2")  # after lambda_*


@dataclass
class ExperimentReport:
    """The deterministic result of one run: one row per grid point (grid
    modes) or per panel direction (transversality)."""

    mode: str
    rows: list  # grid rows (lambda, ROW_FIELDS) or panel directions
    summary: dict
    provenance: dict
    fit_data: list = None  # grid modes: each row's DimensionEstimate
    runtime_seconds: float = None  # excluded from the deterministic files
    deltas: list = None  # transversality: the probed deltas, descending

    def to_json(self):
        """Text of the deterministic report file."""
        body = ({"deltas": self.deltas, "panel": self.rows}
                if self.mode == "transversality" else {"rows": self.rows})
        return json.dumps({"mode": self.mode, "summary": self.summary,
                           "provenance": self.provenance, **body},
                          indent=2, sort_keys=True)

    def save(self, outdir):
        """Write report.json, per-lambda.csv and fitdata/rowNNNN.csv (grid
        order) for a grid mode, transversality.json and loglog.csv for
        transversality, and run_meta.json, the one file with the runtime."""
        os.makedirs(outdir, exist_ok=True)
        if self.mode == "transversality":
            name = "transversality.json"
            cols = [e.get("fractions") or [None] * len(self.deltas)
                    for e in self.rows]
            write_csv(os.path.join(outdir, "loglog.csv"),
                      ["delta"] + [f"fraction_{i}" for i in range(len(cols))],
                      zip(self.deltas, *cols))
        else:
            name = "report.json"
            k = len(self.rows[0]["lambda"]) if self.rows else 0
            write_csv(os.path.join(outdir, "per-lambda.csv"),
                      [f"lambda_{a + 1}" for a in range(k)] + list(ROW_FIELDS),
                      (row["lambda"] + [row[f] for f in ROW_FIELDS]
                       for row in self.rows))
            fitdir = os.path.join(outdir, "fitdata")
            if self.fit_data:
                os.makedirs(fitdir, exist_ok=True)
            for idx, est in enumerate(self.fit_data or ()):
                est.save_fit_csv(os.path.join(fitdir, f"row{idx:04d}.csv"))
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(self.to_json() + "\n")
        with open(os.path.join(outdir, "run_meta.json"), "w") as fh:
            json.dump({"runtime_seconds": self.runtime_seconds}, fh)
            fh.write("\n")


def _provenance(cfg: ExperimentConfig, spec: FamilySpec):
    """Provenance of a run of cfg on spec, the family that ran."""
    return {"config_hash": _config_hash(cfg, spec), "version": __version__,
            "seed": cfg.seed}


# ---------------------------------------------------------------------------
# Experiment modes
# ---------------------------------------------------------------------------

def _gate_nondegenerate(spec, force):
    check = nondegeneracy_check(spec, np.zeros(spec.k))
    if not check["pass"] and not force:
        raise ConfigError(
            f"field 'family' fails the non-degeneracy check at the grid "
            f"center (wedge norm {check['wedge_norm']:.3e}); set 'force' "
            f"or pass --force to run anyway")
    return check


def _grid_rows(cfg: ExperimentConfig, spec, grid, measure, bound):
    """Project the measure onto V_lambda at every grid point and estimate
    its dimension, rows spread over the usable CPUs: the report rows
    against `bound` and the estimates, both in grid order (lambda order)."""
    def estimate(row):
        projected = project_points(family_frame(spec, row[1]), measure)
        return _estimate(projected, cfg.estimator, cfg.seed ^ row[0])

    with cpu_pool() as pool:
        fit_data = list(pool.map(estimate, enumerate(grid)))
    rows = [{
        "lambda": [float(v) for v in lam],
        "est_dim": float(est.value),
        "bound": float(bound),
        "margin": float(est.value - bound),
        "fit_r2": float(est.r_squared),
    } for lam, est in zip(grid, fit_data)]
    return rows, fit_data


def run_bound_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Project the measure over a parameter grid and compare estimated
    dimensions against the theorem's lower-bound curve evaluated at the
    generator's nominal dimension."""
    t0 = time.perf_counter()
    spec = check_config(cfg, "bound_check")
    grid = lambda_grid(spec, cfg.lambda_grid or (8,))
    gate = _gate_nondegenerate(spec, cfg.force)
    measure = _build(build_measure, cfg.measure, cfg.seed)
    if measure.ambient_dim != spec.n:
        raise ConfigError(f"field 'measure' lives in R^{measure.ambient_dim},"
                          f" the family's planes in R^{spec.n}")
    bound = theorem_lower_bound(spec.n, spec.m, spec.k, measure.nominal_dim)
    rows, fit_data = _grid_rows(cfg, spec, grid, measure, bound)
    violations = sum(r["est_dim"] < bound - cfg.tolerance for r in rows)
    summary = {
        "bound": float(bound),
        "nominal_dim": float(measure.nominal_dim),
        "violation_fraction": violations / len(rows),
        "min_margin": min(r["margin"] for r in rows),
        "nondegeneracy_wedge_norm": gate["wedge_norm"],
        "rows": len(rows),
    }
    return ExperimentReport("bound_check", rows, summary,
                            _provenance(cfg, spec), fit_data,
                            time.perf_counter() - t0)


def sharpness_family(n, m, k, l, p) -> FamilySpec:
    """The rotation schedule of the sharpness construction: fill the first
    l rows over all columns, then the remaining rows restricted to the
    first n-m-p columns, one parameter per dot, column-major in the tail."""
    slots = [(i, j) for i in range(1, l + 1) for j in range(m + 1, n + 1)]
    slots += [(i, j) for j in range(m + 1, n - p + 1)
              for i in range(l + 1, m + 1)]
    return slot_family(n, m, k, slots, np.pi / 8)


def sharpness_measure(n, l, p, s, level, N, seed) -> SampledMeasure:
    """The pinch measure: an s-dimensional Cantor factor on the e_{l+1}
    axis times a uniform ball on <e_1..e_l, e_{n-p+1}..e_n>."""
    axes = list(range(l)) + list(range(n - p, n))
    parts = [(line_cantor(s, level), Frame(np.eye(n)[[l]]))] if s > 0 else []
    parts.append((lebesgue_ball(l + p, N, seed), Frame(np.eye(n)[axes])))
    return product_embed(parts, N, seed)


def run_sharpness(cfg: ExperimentConfig) -> ExperimentReport:
    """Check that the constructed family/measure pair pinches the bound:
    estimated projected dimensions concentrate at l + s."""
    t0 = time.perf_counter()
    spec = check_config(cfg, "sharpness")
    n, m, k = spec.n, spec.m, spec.k
    l, s = cfg.l, cfg.s
    p = p_of_l(n, m, k, l)
    grid = lambda_grid(spec, cfg.lambda_grid or (8,))
    _gate_nondegenerate(spec, cfg.force)
    measure = _build(sharpness_measure, n, l, p, s, cfg.level,
                     cfg.sample_count, cfg.seed)
    target = l + s
    rows, fit_data = _grid_rows(cfg, spec, grid, measure, target)
    in_band = sum(abs(r["est_dim"] - target) <= cfg.tolerance for r in rows)
    summary = {
        "target": float(target),
        "nominal_dim": float(measure.nominal_dim),
        "p": p,
        "in_band_fraction": in_band / len(rows),
        "band": [float(target - cfg.tolerance),
                 float(target + cfg.tolerance)],
        "rows": len(rows),
    }
    return ExperimentReport("sharpness", rows, summary,
                            _provenance(cfg, spec), fit_data,
                            time.perf_counter() - t0)


def run_transversality(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit sublevel-volume exponents over a panel of kernel directions and
    compare with the target order r = l + 1 + p (or 1 for an unextended
    family at l = 0)."""
    t0 = time.perf_counter()
    spec = check_config(cfg, "transversality")
    rng = np.random.default_rng(cfg.seed)
    if cfg.l is not None and p_of_l(spec.n, spec.m, spec.k, cfg.l) > 0:
        family = extend_family(spec, cfg.l, seed=cfg.seed)
        target = family.target_order
    else:
        family, target = spec, (cfg.l or 0) + 1
    R = 0.5 * min(family.radii)
    deltas = (np.asarray(cfg.deltas, dtype=float) if cfg.deltas
              else np.geomspace(0.3, 1e-3, 10))
    # the panel's directions first, then one probe call scores them all
    # on one parameter cloud drawn from cfg.seed
    ws = []
    for _ in range(cfg.n_directions):
        lam_star = (rng.random(family.k) - 0.5) * R
        comp = complement(family_frame(family, lam_star))
        w = rng.standard_normal(comp.plane_dim) @ comp.basis
        ws.append(w / np.linalg.norm(w))
    probes = transversality_probe(family, R, ws, deltas, cfg.mc_samples,
                                  seed=cfg.seed)
    exponents, panel = [], []
    for w, probe in zip(ws, probes):
        entry = {"w": [float(v) for v in w], "exponent": None,
                 "diagnostic": probe["diagnostic"]}
        if probe["exponent"] is not None:
            exponents.append(probe["exponent"])
            entry["exponent"] = float(probe["exponent"])
            entry["fractions"] = [float(v) for v in probe["fractions"]]
        panel.append(entry)
    summary = {
        "target_order": int(target),
        "extended": family is not spec,
        "median_exponent": float(np.median(exponents)) if exponents else None,
        "min_exponent": float(np.min(exponents)) if exponents else None,
        "max_exponent": float(np.max(exponents)) if exponents else None,
        "directions": len(panel),
    }
    return ExperimentReport("transversality", panel, summary,
                            _provenance(cfg, spec),
                            runtime_seconds=time.perf_counter() - t0,
                            deltas=[float(v) for v in probes[0]["deltas"]])


# ---------------------------------------------------------------------------
# Property checks: each measures one claim at a given size and seed and
# returns numbers only, never a pass flag.  `projlab verify` (the
# VERIFY_CHECKS rows below) and acceptance criteria 1-7 run them at their
# own sizes and apply their own thresholds.
# ---------------------------------------------------------------------------

def _nmkl_tuples(n_max):
    """Every admissible (n, m, k, l) with n <= n_max."""
    for n in range(2, n_max + 1):
        for m in range(1, n):
            for k in range(1, m * (n - m)):
                for l in range(m):
                    yield n, m, k, l


def p_dot_oracle_scan(n_max):
    """Compare p(l) with the dot-filling oracle and with p(l-1) on every
    tuple up to n_max.  Returns (tuples checked, the tuples where p(l)
    differs from the oracle or is below p(l-1))."""
    checked, failures = 0, []
    for n, m, k, l in _nmkl_tuples(n_max):
        p = p_of_l(n, m, k, l)
        if p != p_oracle_dots(n, m, k, l) or (
                l > 0 and p < p_of_l(n, m, k, l - 1)):
            failures.append((n, m, k, l))
        checked += 1
    return checked, failures


def parameter_bracket(n, m, l, p):
    """The parameter-count bracket (lhs, rhs) of p = p(l): a k-parameter
    family has lhs < k <= rhs."""
    return (l * (n - m) + (n - m - p - 1) * (m - l),
            l * (n - m) + (n - m - p) * (m - l))


def parameter_bracket_scan(n_max):
    """Check the parameter-count bracket lhs < k <= rhs on every tuple up
    to n_max.  The strict lower bound is derived under p(l) < n-m, so a
    clamped tuple (p = n-m) must have k <= l(n-m) instead.  Returns
    (tuples with p < n-m, clamped tuples, failing tuples)."""
    checked = clamped = 0
    failures = []
    for n, m, k, l in _nmkl_tuples(n_max):
        p = p_of_l(n, m, k, l)
        lhs, rhs = parameter_bracket(n, m, l, p)
        if p < n - m:
            checked += 1
            ok = lhs < k <= rhs
        else:
            clamped += 1
            ok = k <= rhs and k <= l * (n - m)
        if not ok:
            failures.append((n, m, k, l))
    return checked, clamped, failures


def multivec_oracle_gaps(count, seed):
    """Largest relative gaps over `count` random integer matrices: (Gram
    vs Cauchy-Binet wedge norm, top wedge norm vs |det| when square)."""
    rng = np.random.default_rng(seed)
    worst_gram = worst_det = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(1, n + 1))
        D = rng.integers(-3, 4, size=(r, n)).astype(float)
        g = gram_norm(D)
        cb = cauchy_binet_norm(D)
        worst_gram = max(worst_gram, abs(g - cb) / (1.0 + g))
        if r == n:
            d = abs(np.linalg.det(D))
            worst_det = max(worst_det,
                            abs(wedge_operator_norm(D, n) - d) / (1.0 + d))
    return worst_gram, worst_det


def _random_site(rng, n_high):
    """A random disjoint-slot family (3 <= n < n_high, random m, k and
    base) and a random site lam0 in [-0.2, 0.2]^k."""
    n = int(rng.integers(3, n_high))
    m = int(rng.integers(1, n))
    k = int(rng.integers(1, m * (n - m)))  # n >= 3, so m(n-m) >= 2
    base = span_frame(rng.standard_normal((m, n)))
    lam0 = rng.uniform(-0.2, 0.2, size=k)
    return disjoint_slot_family(n, m, k, base=base), lam0


def _central_differences(rows_fn, lam0, z, h):
    """n x k central differences, step h, of lam -> Pi_{V_lam} z at lam0,
    for V_lam spanned by rows_fn(lam)[0]."""
    cols = []
    for e in h * np.eye(len(lam0)):
        Pp = span_projector(rows_fn(lam0 + e)[0])
        Pm = span_projector(rows_fn(lam0 - e)[0])
        cols.append((Pp - Pm) @ z / (2 * h))
    return np.array(cols).T


def tangent_derivative_order(count, seed):
    """Smallest order, over `count` random families at random sites
    lam0, at which central differences of lam -> Pi_{V_lam} z converge to
    `projection_derivative_matrix`, the derivative the non-degeneracy
    gate, the witness search and the extension use; 2 when it is right."""
    rng = np.random.default_rng(seed)
    hs = np.array([1e-2, 1e-3, 1e-4])
    worst = np.inf
    for _ in range(count):
        spec, lam0 = _random_site(rng, 7)
        z = rng.standard_normal(spec.n)
        an = projection_derivative_matrix(spec, lam0, z)
        errs = [np.linalg.norm(_central_differences(spec.rows, lam0, z, h)
                               - an) for h in hs]
        errs = np.maximum(errs, 1e-15)
        worst = min(worst, np.polyfit(np.log(hs), np.log(errs), 1)[0])
    return worst


def extended_plane_derivative_check(V_path, c, U: Frame, seed=0):
    """Fitted log-log slope of the difference between the projections
    onto V_s and onto the extended plane <V_s, U> against |s - c|, for
    three random unit test vectors z orthogonal to <V_c, U> and steps
    1e-1 down to 1e-4; 2 when they agree to second order at s = c, and
    inf when fewer than two differences clear round-off."""
    Vc = V_path(c)
    n = Vc.ambient_dim
    if U.ambient_dim != n:
        raise ValueError("U lives in the wrong ambient space")
    if np.max(np.abs(U.basis @ Vc.basis.T)) > 1e-8:
        raise ValueError("U must lie inside the complement of V_c")
    joint = np.vstack([Vc.basis, U.basis])
    Pjoint = span_projector(joint)
    rng = np.random.default_rng(seed)
    zs = []
    while len(zs) < 3:
        z = rng.standard_normal(n)
        z = z - Pjoint @ z
        nz = np.linalg.norm(z)
        if nz > 1e-8:
            zs.append(z / nz)
    hs = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    diffs = np.zeros_like(hs)
    for a, h in enumerate(hs):
        acc = 0.0
        for s in (c - h, c + h):
            Vs = V_path(s)
            Pv = span_projector(Vs.basis)
            Pext = span_projector(np.vstack([Vs.basis, U.basis]))
            for z in zs:
                acc += np.linalg.norm(Pv @ z - Pext @ z)
        diffs[a] = acc / (2 * len(zs))
    good = diffs > 1e-14
    if good.sum() < 2:
        return np.inf
    return float(np.polyfit(np.log(hs[good]), np.log(diffs[good]), 1)[0])


def extended_projection_order(count, seed):
    """Smallest `extended_plane_derivative_check` slope over `count`
    random family paths V_s = V_{s * direction} and planes U inside
    V_0^perp; 2 when the projections onto V_s and <V_s, U> agree to
    second order."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for trial in range(count):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n - 1))
        p = int(rng.integers(1, n - m))  # so m + p < n
        base = span_frame(rng.standard_normal((m, n)))
        k = m * (n - m) - 1
        spec = disjoint_slot_family(n, m, k, base, radius=np.pi / 4)
        direction = rng.standard_normal(k)

        def path(sv, spec=spec, direction=direction):
            # the clip keeps the path inside the domain |lam_a| < pi/4
            return family_frame(spec, np.clip(sv * direction, -0.7, 0.7))

        U = Frame(spec.comp.basis[:p])
        worst = min(worst, extended_plane_derivative_check(path, 0.0, U,
                                                           seed=trial))
    return worst


def extension_wedge_margin(count, seed):
    """Key inequality of the extension at (n, m, k, l) = (5, 2, 5, 1):
    (smallest wedge volume of the extended Jacobian over `count` random
    unit witness vectors, the margin d'/sqrt(t)^p it must clear).  Here
    t = 2; at t = 1 the witness sphere is one point and the smallest
    wedge equals the margin, so the check could show no slack."""
    ext = extend_family(disjoint_slot_family(5, 2, 5), l=1, seed=0)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(count):
        z = rng.standard_normal(ext.t) @ ext.ehat[:ext.t]
        z /= np.linalg.norm(z)
        M = _central_differences(ext.rows, np.zeros(ext.k), z, 1e-5)
        worst = min(worst, wedge_operator_norm(M, ext.target_order))
    return worst, ext.d_prime_hat / np.sqrt(ext.t) ** ext.p


def wedge_split_margin(count, seed):
    """Smallest margin |/\\^r D(z)| - |/\\^r D(z2)| over `count` random
    families on a random base, where D(z) holds the projection
    derivatives at a random site and z2 is the V^perp part of z; the
    margin is never negative beyond round-off."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(count):
        spec, lam0 = _random_site(rng, 6)
        P = projector(family_frame(spec, lam0))
        z = rng.standard_normal(spec.n)
        z2 = z - P @ z
        r = int(rng.integers(1, min(spec.k, spec.m) + 1))
        full = wedge_operator_norm(
            projection_derivative_matrix(spec, lam0, z), r)
        part = wedge_operator_norm(
            projection_derivative_matrix(spec, lam0, z2), r)
        worst = min(worst, full - part)
    return worst


def estimator_calibration(level, n_points, seed):
    """Estimates of known dimensions: (box counting on the four-corner
    Cantor set at `level`, 1; correlation on the middle-thirds Cantor
    set, 0.63; box counting on `n_points` uniform points of a square, 2)."""
    b = box_counting_dim(four_corner_cantor(level)).value
    c = correlation_dim(line_cantor(np.log(2) / np.log(3), 10)).value
    pts = np.random.default_rng(seed).random((n_points, 2))
    sq = SampledMeasure(pts, np.full(n_points, 1.0 / n_points), 2.0)
    u = box_counting_dim(sq).value
    return b, c, u


# ---------------------------------------------------------------------------
# Verification suite: one row per property check, (name, value, passes,
# detail).  value() runs the check at its verify size and returns its
# numbers, passes(v) is the row's pass rule, detail(v) the text it prints.
# ---------------------------------------------------------------------------

def _exhaustive(bad):
    return f"fails at {bad[0]}" if bad else "exhaustive n <= 8"


VERIFY_CHECKS = [
    ("multivec_oracle", lambda: max(multivec_oracle_gaps(500, 101)),
     lambda v: v <= 1e-9, lambda v: f"max rel gap {v:.2e}"),
    ("tangent_derivative_order", lambda: tangent_derivative_order(25, 11),
     lambda v: v >= 1.9, lambda v: f"min empirical order {v:.3f}"),
    ("p_enumeration_vs_dots", lambda: p_dot_oracle_scan(8)[-1],
     lambda bad: not bad, _exhaustive),
    ("parameter_count_bracket", lambda: parameter_bracket_scan(8)[-1],
     lambda bad: not bad, _exhaustive),
    ("projection_wedge_monotonicity", lambda: wedge_split_margin(50, 202),
     lambda v: v >= -1e-9, lambda v: f"min wedge-norm margin {v:.2e}"),
    ("extended_plane_second_order", lambda: extended_projection_order(8, 303),
     lambda v: v >= 1.9, lambda v: f"min slope {v:.3f} over 8 paths"),
    ("extension_key_inequality", lambda: extension_wedge_margin(8, 505),
     lambda v: v[0] > 0.999 * v[1],
     lambda v: f"min wedge {v[0]:.3f} vs margin {v[1]:.3f}"),
    ("estimator_calibration", lambda: estimator_calibration(7, 50_000, 404),
     lambda v: 0.9 <= v[0] <= 1.1 and 0.58 <= v[1] <= 0.68
     and 1.9 <= v[2] <= 2.1,
     lambda v: f"box {v[0]:.3f}/{v[2]:.3f}, corr {v[1]:.3f}"),
]


def run_verify_suite(filter_pattern=None):
    """Run the VERIFY_CHECKS rows whose name contains filter_pattern
    (every row without one); returns (rows, all_pass)."""
    rows = []
    for name, value, passes, detail in VERIFY_CHECKS:
        if filter_pattern and filter_pattern not in name:
            continue
        t0 = time.perf_counter()
        try:
            v = value()
            ok, text = passes(v), detail(v)
        except Exception as exc:  # a crashed check is a failing row
            ok, text = False, f"error: {exc}"
        rows.append({"check": name, "pass": bool(ok), "detail": text,
                     "seconds": round(time.perf_counter() - t0, 2)})
    return rows, all(r["pass"] for r in rows)
