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
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dimest import box_counting_dim, correlation_dim, project_points
from .family import (
    FamilySpec,
    extend_family,
    family_frame,
    family_from_dict,
    family_rows_fn,
    family_to_dict,
    load_family,
    nondegeneracy_check,
    p_of_l,
    p_oracle_dots,
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
)
from .grassmann import Frame, complement, projector, span_frame


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    mode: str  # bound_check | sharpness | transversality | verify_suite
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
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def canonical_json(self):
        return json.dumps(self.__dict__, sort_keys=True, default=list)

    def content_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


class ConfigError(ValueError):
    """A config cannot run as the requested mode; the message names the
    field or requirement it fails."""


# config fields each grid mode reads beyond the common ones
_REQUIRED_FIELDS = {"bound_check": ("measure",), "sharpness": ("l", "s")}


def check_config(cfg: ExperimentConfig, mode):
    """Raise ConfigError naming the first requirement cfg fails for a run
    of the given mode."""
    if cfg.mode != mode:
        raise ConfigError(f"field 'mode' is {cfg.mode!r}, this run needs "
                          f"{mode!r}")
    missing = [f for f in _REQUIRED_FIELDS.get(mode, ())
               if getattr(cfg, f) is None]
    if missing:
        raise ConfigError(f"mode {mode!r} requires field(s) "
                          f"{', '.join(repr(f) for f in missing)}")
    if mode == "transversality":
        for name in ("mc_samples", "n_directions"):
            if getattr(cfg, name) < 1:
                raise ConfigError(f"field {name!r} must be at least 1, got "
                                  f"{getattr(cfg, name)}")
        if not all(0 < d < np.inf for d in cfg.deltas):
            raise ConfigError(f"field 'deltas' must be positive and finite, "
                              f"got {list(cfg.deltas)}")


def resolve_family(family) -> FamilySpec:
    if isinstance(family, FamilySpec):
        return family
    if isinstance(family, str):
        return load_family(family)
    return family_from_dict(family)


def build_measure(spec, seed) -> SampledMeasure:
    """Instantiate a measure from its config dict."""
    variant = spec["variant"]
    if variant == "four_corner_cantor":
        return four_corner_cantor(spec["level"])
    if variant == "line_cantor":
        return line_cantor(spec["s"], spec["level"])
    if variant == "lebesgue_ball":
        return lebesgue_ball(spec["dim"], spec.get("N", 100_000),
                             spec.get("seed", seed))
    if variant == "embedded":
        inner = build_measure(spec["inner"], seed)
        frame = span_frame(np.asarray(spec["frame"], dtype=float))
        return embed(inner, frame, spec.get("offset"))
    if variant == "product":
        parts = []
        for factor in spec["factors"]:
            inner = build_measure(factor["measure"], seed)
            frame = span_frame(np.asarray(factor["frame"], dtype=float))
            parts.append((inner, frame, factor.get("offset")))
        return product_embed(parts, spec.get("N", 200_000),
                             spec.get("seed", seed))
    raise ValueError(f"unknown measure variant {variant!r}")


def _estimate(measure, estimator_cfg, seed):
    method = estimator_cfg.get("method", "box_counting")
    if method == "box_counting":
        return box_counting_dim(measure, scales=estimator_cfg.get("scales"),
                                seed=seed)
    if method == "correlation":
        return correlation_dim(
            measure, pair_budget=estimator_cfg.get("pair_budget", 200_000),
            seed=seed)
    raise ValueError(f"unknown estimator {method!r}")


def lambda_grid(spec: FamilySpec, counts, margin=0.9):
    """Cartesian grid over the family domain, per-axis counts, kept inside
    the open box by the margin factor."""
    counts = list(counts)
    if len(counts) == 1 and spec.k > 1:
        counts = counts * spec.k
    if len(counts) != spec.k:
        raise ValueError("need one grid count per parameter")
    axes = [np.linspace(-margin * r, margin * r, c)
            for r, c in zip(spec.radii, counts)]
    return [np.array(pt) for pt in itertools.product(*axes)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    mode: str
    rows: list  # dicts with lambda, est_dim, bound, margin, fit_r2
    summary: dict
    provenance: dict
    fit_data: list = None  # optional per-row (scales, counts)
    runtime_seconds: float = None  # excluded from the deterministic files

    def to_dict(self):
        return {
            "mode": self.mode,
            "rows": self.rows,
            "summary": self.summary,
            "provenance": self.provenance,
        }

    def save(self, outdir):
        import os

        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        k = len(self.rows[0]["lambda"]) if self.rows else 0
        with open(os.path.join(outdir, "per-lambda.csv"), "w") as fh:
            head = [f"lambda_{a + 1}" for a in range(k)]
            fh.write(",".join(head + ["est_dim", "bound", "margin",
                                      "fit_r2"]) + "\n")
            for row in self.rows:
                cells = [repr(v) for v in row["lambda"]]
                cells += [repr(row["est_dim"]), repr(row["bound"]),
                          repr(row["margin"]), repr(row["fit_r2"])]
                fh.write(",".join(cells) + "\n")
        if self.fit_data:
            fitdir = os.path.join(outdir, "fitdata")
            os.makedirs(fitdir, exist_ok=True)
            for idx, (scales, counts) in enumerate(self.fit_data):
                with open(os.path.join(fitdir, f"row{idx:04d}.csv"),
                          "w") as fh:
                    fh.write("scale,count\n")
                    for sc, ct in zip(scales, counts):
                        fh.write(f"{sc!r},{ct!r}\n")
        with open(os.path.join(outdir, "run_meta.json"), "w") as fh:
            json.dump({"runtime_seconds": self.runtime_seconds}, fh)
            fh.write("\n")


def _provenance(cfg: ExperimentConfig):
    return {"config_hash": cfg.content_hash(), "version": __version__,
            "seed": cfg.seed}


# ---------------------------------------------------------------------------
# Experiment modes
# ---------------------------------------------------------------------------

def _gate_nondegenerate(spec, lam_center, force):
    check = nondegeneracy_check(spec, lam_center)
    if not check["pass"] and not force:
        raise RuntimeError(
            f"family fails the non-degeneracy check at the grid center "
            f"(wedge norm {check['wedge_norm']:.3e}); pass force=True to "
            f"run anyway"
        )
    return check


def run_bound_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Project the measure over a parameter grid and compare estimated
    dimensions against the theorem's lower-bound curve evaluated at the
    generator's nominal dimension."""
    check_config(cfg, "bound_check")
    t0 = time.time()
    spec = resolve_family(cfg.family)
    center = np.zeros(spec.k)
    gate = _gate_nondegenerate(spec, center, cfg.force)
    measure = build_measure(cfg.measure, cfg.seed)
    bound = theorem_lower_bound(spec.n, spec.m, spec.k, measure.nominal_dim)
    grid = lambda_grid(spec, cfg.lambda_grid or (8,))
    rows, fit_data = [], []
    for idx, lam in enumerate(grid):
        frame = family_frame(spec, lam)
        projected = project_points(frame, measure)
        est = _estimate(projected, cfg.estimator, cfg.seed ^ idx)
        rows.append({
            "lambda": [float(v) for v in lam],
            "est_dim": float(est.value),
            "bound": float(bound),
            "margin": float(est.value - bound),
            "fit_r2": float(est.r_squared),
        })
        fit_data.append((est.scales, est.counts))
    rows.sort(key=lambda r: tuple(r["lambda"]))
    violations = sum(r["est_dim"] < bound - cfg.tolerance for r in rows)
    summary = {
        "bound": float(bound),
        "nominal_dim": float(measure.nominal_dim),
        "violation_fraction": violations / len(rows),
        "min_margin": min(r["margin"] for r in rows),
        "nondegeneracy_wedge_norm": gate["wedge_norm"],
        "rows": len(rows),
    }
    return ExperimentReport("bound_check", rows, summary, _provenance(cfg),
                            fit_data, time.time() - t0)


def sharpness_family(n, m, k, l, p, radius=np.pi / 8) -> FamilySpec:
    """The rotation schedule of the sharpness construction: fill the first
    l rows over all columns, then the remaining rows restricted to the
    first n-m-p columns, one parameter per dot, column-major in the tail."""
    from .grassmann import standard_frame

    slots = []
    for i in range(1, l + 1):
        for j in range(m + 1, n + 1):
            slots.append((i, j))
    for j in range(m + 1, n - p + 1):
        for i in range(l + 1, m + 1):
            slots.append((i, j))
    if k > len(slots):
        raise ValueError(
            f"k={k} exceeds the {len(slots)} admissible slots for "
            f"(l={l}, p={p})"
        )
    schedule = tuple((a + 1, slots[a][0], slots[a][1], 1.0)
                     for a in range(k))
    return FamilySpec(n, m, k, standard_frame(n, m), schedule,
                      (radius,) * k)


def sharpness_measure(n, l, p, s, level, N, seed) -> SampledMeasure:
    """The pinch measure: an s-dimensional Cantor factor on the e_{l+1}
    axis times a uniform ball on <e_1..e_l, e_{n-p+1}..e_n>."""
    nu1 = line_cantor(s, level) if s > 0 else None
    axes = list(range(l)) + list(range(n - p, n))
    X_rows = np.eye(n)[axes]
    nu2 = lebesgue_ball(l + p, N, seed)
    parts = []
    if nu1 is not None:
        parts.append((nu1, Frame(np.eye(n)[[l]]), None))
    parts.append((nu2, Frame(X_rows), None))
    return product_embed(parts, N, seed)


def run_sharpness(cfg: ExperimentConfig) -> ExperimentReport:
    """Check that the constructed family/measure pair pinches the bound:
    estimated projected dimensions concentrate at l + s."""
    check_config(cfg, "sharpness")
    t0 = time.time()
    spec = resolve_family(cfg.family)
    n, m, k = spec.n, spec.m, spec.k
    l, s = cfg.l, cfg.s
    p = p_of_l(n, m, k, l)
    lhs = l * (n - m) + (n - m - p - 1) * (m - l)
    rhs = l * (n - m) + (n - m - p) * (m - l)
    if not lhs < k <= rhs:
        raise ValueError(
            f"(l, p, k) violate the parameter-count bracket: "
            f"need {lhs} < k <= {rhs}, got k={k}"
        )
    _gate_nondegenerate(spec, np.zeros(k), cfg.force)
    measure = sharpness_measure(n, l, p, s, cfg.level, cfg.sample_count,
                                cfg.seed)
    target = l + s
    grid = lambda_grid(spec, cfg.lambda_grid or (8,))
    rows, fit_data = [], []
    for idx, lam in enumerate(grid):
        frame = family_frame(spec, lam)
        projected = project_points(frame, measure)
        est = _estimate(projected, cfg.estimator, cfg.seed ^ idx)
        rows.append({
            "lambda": [float(v) for v in lam],
            "est_dim": float(est.value),
            "bound": float(target),
            "margin": float(est.value - target),
            "fit_r2": float(est.r_squared),
        })
        fit_data.append((est.scales, est.counts))
    rows.sort(key=lambda r: tuple(r["lambda"]))
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
    return ExperimentReport("sharpness", rows, summary, _provenance(cfg),
                            fit_data, time.time() - t0)


def run_transversality(cfg: ExperimentConfig):
    """Fit sublevel-volume exponents over a panel of kernel directions and
    compare with the target order r = l + 1 + p (or 1 for an unextended
    family at l = 0)."""
    check_config(cfg, "transversality")
    t0 = time.time()
    spec = resolve_family(cfg.family)
    rng = np.random.default_rng(cfg.seed)
    if cfg.l is not None and p_of_l(spec.n, spec.m, spec.k, cfg.l) > 0:
        ext = extend_family(spec, np.zeros(spec.k), cfg.l, seed=cfg.seed)
        rows_fn = ext.rows
        k_total = ext.k_total
        center = ext.center()
        radii = ext.domain_radii()
        target = ext.target_order
        frame_at = ext.frame
    else:
        ext = None
        rows_fn = family_rows_fn(spec)
        k_total = spec.k
        center = np.zeros(spec.k)
        radii = np.asarray(spec.radii)
        target = (cfg.l or 0) + 1
        frame_at = lambda lam: family_frame(spec, lam)
    R = 0.5 * float(np.min(radii))
    deltas = (np.asarray(cfg.deltas, dtype=float) if cfg.deltas
              else np.geomspace(0.3, 1e-3, 10))
    exponents, panel = [], []
    tries = 0
    while len(panel) < cfg.n_directions and tries < 10 * cfg.n_directions:
        tries += 1
        lam_star = center + (rng.random(k_total) - 0.5) * R
        frame = frame_at(lam_star)
        comp = complement(frame)
        coeff = rng.standard_normal(comp.plane_dim)
        w = coeff @ comp.basis
        w /= np.linalg.norm(w)
        probe = transversality_probe(
            rows_fn, k_total, center, R, w, deltas, cfg.mc_samples,
            seed=cfg.seed ^ len(panel),
        )
        if probe["exponent"] is None:
            panel.append({"w": [float(v) for v in w], "exponent": None,
                          "diagnostic": probe["diagnostic"]})
            continue
        exponents.append(probe["exponent"])
        panel.append({
            "w": [float(v) for v in w],
            "exponent": float(probe["exponent"]),
            "fractions": [float(v) for v in probe["fractions"]],
            "diagnostic": None,
        })
    summary = {
        "target_order": int(target),
        "extended": ext is not None,
        "median_exponent": float(np.median(exponents)) if exponents else None,
        "min_exponent": float(np.min(exponents)) if exponents else None,
        "max_exponent": float(np.max(exponents)) if exponents else None,
        "directions": len(panel),
    }
    report = {
        "mode": "transversality",
        "deltas": [float(v) for v in deltas],
        "panel": panel,
        "summary": summary,
        "provenance": _provenance(cfg),
    }
    return report, time.time() - t0


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _check_multivec_oracle():
    from .multivec import cauchy_binet_norm, gram_norm, wedge_operator_norm

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        D = rng.integers(-3, 4, size=(r, n)).astype(float)
        g, cb = gram_norm(D), cauchy_binet_norm(D)
        worst = max(worst, abs(g - cb) / (1.0 + g))
        if r == n:
            det = abs(np.linalg.det(D))
            worst = max(worst, abs(wedge_operator_norm(D, n) - det)
                        / (1.0 + det))
    return worst <= 1e-9, f"max rel gap {worst:.2e}"


def _check_derivative_order():
    from .grassmann import (ChartPoint, chart_point_frame,
                            tangent_projection_derivative)
    from .grassmann import projector as proj

    rng = np.random.default_rng(11)
    orders = []
    for _ in range(25):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n))
        base = span_frame(rng.standard_normal((m, n)))
        cp = ChartPoint(base, np.zeros((m, n - m)))
        i = int(rng.integers(1, m + 1))
        j = int(rng.integers(m + 1, n + 1))
        z = rng.standard_normal(n)
        analytic = tangent_projection_derivative(cp, i, j, z)
        hs = np.array([1e-2, 1e-3, 1e-4])
        errs = []
        for h in hs:
            ang = np.zeros((m, n - m))
            ang[i - 1, j - m - 1] = h
            Pp = proj(chart_point_frame(ChartPoint(base, ang, cp.comp)))
            Pm = proj(chart_point_frame(ChartPoint(base, -ang, cp.comp)))
            fd = (Pp - Pm) @ z / (2 * h)
            errs.append(max(np.linalg.norm(fd - analytic), 1e-16))
        orders.append(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    worst = min(orders)
    return worst >= 1.9, f"min empirical order {worst:.3f}"


def _check_p_enumeration():
    for n in range(2, 9):
        for m in range(1, n):
            for k in range(1, m * (n - m)):
                prev = -1
                for l in range(m):
                    p = p_of_l(n, m, k, l)
                    if p != p_oracle_dots(n, m, k, l):
                        return False, f"mismatch at {(n, m, k, l)}"
                    if p < prev:
                        return False, f"not nondecreasing at {(n, m, k, l)}"
                    prev = p
    return True, "exhaustive n <= 8"


def _check_parameter_bracket():
    # the bracket is derived under p(l) < n-m; with k <= l(n-m) the
    # clamped p equals n-m and the strict lower bound is vacuous
    for n in range(2, 9):
        for m in range(1, n):
            for k in range(1, m * (n - m)):
                for l in range(m):
                    p = p_of_l(n, m, k, l)
                    lhs = l * (n - m) + (n - m - p - 1) * (m - l)
                    rhs = l * (n - m) + (n - m - p) * (m - l)
                    if not k <= rhs:
                        return False, f"upper bound fails at {(n, m, k, l)}"
                    if p < n - m and not lhs < k:
                        return False, f"lower bound fails at {(n, m, k, l)}"
    return True, "exhaustive n <= 8"


def _check_wedge_monotonicity():
    from .family import disjoint_slot_family, projection_derivative_matrix
    from .multivec import wedge_operator_norm

    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n))
        kmax = m * (n - m) - 1
        if kmax < 1:
            continue
        k = int(rng.integers(1, kmax + 1))
        spec = disjoint_slot_family(n, m, k)
        lam = (rng.random(k) - 0.5) * 0.3
        frame = family_frame(spec, lam)
        P = projector(frame)
        z = rng.standard_normal(n)
        z2 = z - P @ z
        r = int(rng.integers(1, min(m, k) + 1))
        full = wedge_operator_norm(
            projection_derivative_matrix(spec, lam, z), r)
        part = wedge_operator_norm(
            projection_derivative_matrix(spec, lam, z2), r)
        worst = max(worst, part - full)
    return worst <= 1e-9, f"max violation {worst:.2e}"


def _check_extended_order():
    from .family import extended_plane_derivative_check

    rng = np.random.default_rng(303)
    orders = []
    for trial in range(8):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n - 1))
        p = int(rng.integers(1, n - m))
        if m + p >= n:
            p = n - m - 1
        if p < 1:
            continue
        base = span_frame(rng.standard_normal((m, n)))
        comp = complement(base)
        direction = rng.standard_normal((m, n - m))

        def path(sv, base=base, comp=comp, direction=direction):
            from .grassmann import ChartPoint, chart_point_frame

            ang = np.clip(sv * direction, -0.7, 0.7)
            return chart_point_frame(ChartPoint(base, ang, comp))

        U = Frame(comp.basis[:p])
        if m + p >= n:
            continue
        try:
            res = extended_plane_derivative_check(path, 0.0, U,
                                                  seed=trial)
        except ValueError:
            continue
        orders.append(res["order"])
    worst = min(orders)
    return worst >= 1.9, f"min slope {worst:.3f} over {len(orders)} paths"


def _check_estimators():
    rng = np.random.default_rng(404)
    fc = four_corner_cantor(7)
    b = box_counting_dim(fc).value
    if not 0.9 <= b <= 1.1:
        return False, f"four-corner box {b:.3f}"
    lc = line_cantor(np.log(2) / np.log(3), 10)
    c = correlation_dim(lc).value
    if not 0.58 <= c <= 0.68:
        return False, f"line-Cantor correlation {c:.3f}"
    pts = rng.random((50_000, 2))
    sq = SampledMeasure(pts, np.full(50_000, 1.0 / 50_000), 2.0,
                        {"variant": "uniform_square"})
    u = box_counting_dim(sq).value
    if not 1.9 <= u <= 2.1:
        return False, f"uniform square box {u:.3f}"
    return True, f"box {b:.3f}/{u:.3f}, corr {c:.3f}"


def _check_extension_inequality():
    """Key inequality of the extension: wedge volumes of the extended
    Jacobian on witness vectors clear the d'/sqrt(t)^p margin."""
    from .family import disjoint_slot_family, find_witness_subspace
    from .multivec import wedge_operator_norm
    from .family import family_jacobian as fj

    spec = disjoint_slot_family(4, 2, 3)
    lam0 = np.zeros(3)
    ext = extend_family(spec, lam0, l=1, seed=0)
    J = fj(spec, lam0)
    found = find_witness_subspace(J, ext.t, ext.l, seed=0)
    dprime = found["d_prime_hat"]
    margin = dprime / np.sqrt(ext.t) ** ext.p
    r = ext.target_order
    h = 1e-5
    center = ext.center()
    rng = np.random.default_rng(505)
    worst = np.inf
    for _ in range(8):
        coeff = rng.standard_normal(ext.t)
        z = coeff @ ext.witness.basis
        z /= np.linalg.norm(z)
        cols = []
        for a in range(ext.k_total):
            e = np.zeros(ext.k_total)
            e[a] = h
            from .grassmann import span_projector

            Pp = span_projector(ext.rows((center + e)[None, :])[0])
            Pm = span_projector(ext.rows((center - e)[None, :])[0])
            cols.append((Pp - Pm) @ z / (2 * h))
        M = np.array(cols).T  # n x k_total
        worst = min(worst, wedge_operator_norm(M, r))
    ok = worst > margin * 0.999
    return ok, f"min wedge {worst:.3f} vs margin {margin:.3f}"


VERIFY_CHECKS = [
    ("multivec_oracle", _check_multivec_oracle),
    ("tangent_derivative_order", _check_derivative_order),
    ("p_enumeration_vs_dots", _check_p_enumeration),
    ("parameter_count_bracket", _check_parameter_bracket),
    ("projection_wedge_monotonicity", _check_wedge_monotonicity),
    ("extended_plane_second_order", _check_extended_order),
    ("extension_key_inequality", _check_extension_inequality),
    ("estimator_calibration", _check_estimators),
]


def run_verify_suite(filter_pattern=None):
    """Run every cross-module property check; returns (rows, all_pass)."""
    rows = []
    for name, fn in VERIFY_CHECKS:
        if filter_pattern and filter_pattern not in name:
            continue
        t0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failing row
            ok, detail = False, f"error: {exc}"
        rows.append({"check": name, "pass": bool(ok), "detail": detail,
                     "seconds": round(time.time() - t0, 2)})
    return rows, all(r["pass"] for r in rows)
