"""Experiment harness: seeded test families, experiment runners, CSV/JSON IO.

Each experiment is a pure function of its config: identical config and seed
reproduce byte-identical outputs.  Constant-existence claims are checked as
"one recorded constant certifies the whole family, stable under refinement";
ratios with vanishing denominators become skipped rows, never infinities.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from .lattice import Cube, GridFunction, Window, moments, whole_number
from .polyproj import Polynomial, multi_indices
from .spaces import (
    NormParams,
    SearchConfig,
    amalgam_norm,
    jn_con_norm,
    norm_pair,
    rm_con_norm,
)
from .czkernel import (
    CorrectionSpec,
    KernelSpec,
    _check_padding,
    apply_cz,
    apply_modified,
    apply_truncated,
    kernel_by_name,
    kernel_transpose,
    modified_on_monomial,
    poly_distance,
)
from .hardy import (
    MoleculeRecord,
    _monomial_columns,
    decompose_molecule,
    epsilon_window,
    hk_upper_bound,
    make_atom,
    make_molecule,
    pairing,
    repair_moments,
    validate_molecule,
)

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "ExperimentResult",
    "ConfigError",
    "TOLERANCES",
    "make_family",
    "run_experiment",
    "run_jn_boundedness",
    "run_rm_boundedness",
    "run_equivalence",
    "run_atom_image",
    "run_duality",
    "run_decomposition",
    "EXPERIMENTS",
    "default_config",
    "write_csv",
]

SCHEMA_VERSION = 1
INF = math.inf
_JSON_TYPES = {bool: "boolean", int: "number", float: "number", str: "string", dict: "object", type(None): "null"}

# every experiment tolerance and its default, which a config's `tolerances` overrides by name
TOLERANCES = {"bracket": 64.0, "refine_factor": 2.0, "rm_amalgam_factor": 4.0,
              "pairing_mismatch": 1e-3, "residual": 1e-6, "bound_spread": 4.0}
_ATOM_FAMILIES = ("atom-image", "decomposition", "duality")  # the experiments whose family draws atoms


class ConfigError(ValueError):
    """Experiment configuration does not resolve."""


@dataclass
class ExperimentConfig:
    experiment: str
    window: dict = field(default_factory=lambda: {"n": 1, "lower": [-1.0], "upper": [1.0], "cells": [256]})
    kernel: dict = field(default_factory=lambda: {"name": "hilbert"})
    params: dict = field(default_factory=lambda: {"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.1})
    family: dict = field(default_factory=lambda: {"kind": "random-osc", "count": 20, "seed": 7})
    padding: float = 8.0
    radii: list = field(default_factory=list)
    refine: bool = True
    tolerances: dict = field(default_factory=dict)
    epsilon: float | None = None
    levels: int = 4

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
            return cls(**data)
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            raise ConfigError(f"cannot load config {path}: {exc}") from exc

    def build_window(self) -> Window:
        w = self.window
        return Window(w["n"], tuple(w["lower"]), tuple(w["upper"]), tuple(w["cells"]))

    def build_kernel(self) -> KernelSpec:
        spec = dict(self.kernel)
        try:
            name = spec.pop("name")
            return kernel_by_name(name, **spec)
        except KeyError as exc:
            raise ConfigError(f"kernel does not resolve: {exc}") from exc

    def build_params(self) -> NormParams:
        try:
            return NormParams(*(self.params[key] for key in ("p", "q", "s", "alpha")))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad norm parameters: {exc}") from exc

    def tol(self, name: str) -> float:
        """The tolerance `name` of TOLERANCES, as `tolerances` overrides it."""
        return float(self.tolerances.get(name, TOLERANCES[name]))

    def check(self) -> None:
        """ConfigError unless each field has the JSON type and keys of CONFIG_SCHEMA and meets its rule."""
        for name, (kind, keys, rule, meets) in CONFIG_SCHEMA.items():
            value = getattr(self, name)
            for key, item in value.items() if keys and isinstance(value, dict) else ():
                if not _json_type(want := keys.get(key, keys.get("*", "known key")), item):
                    raise ConfigError(f"{name} {key} must be a {want}, got {item!r}")
            try:
                if _json_type(kind, value) and meets(self) is not False:
                    continue
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from None
            raise ConfigError(f"{name} must be {rule}, got {value!r}")


@dataclass
class ExperimentResult:
    name: str
    rows: list
    summary: dict
    passed: bool
    violations: list
    config: dict
    environment: dict = field(default_factory=dict)

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        csv_path = out / f"{self.name}.csv"
        json_path = out / f"{self.name}.json"
        write_csv(csv_path, self.rows)  # makes out_dir
        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.name,
            "summary": self.summary,
            "passed": self.passed,
            "violations": self.violations,
            "config": self.config,
            "environment": self.environment,
        }
        json_path.write_text(json.dumps(payload, sort_keys=True, default=_fmt))
        return csv_path, json_path


def write_csv(path: Path, rows: list[dict]) -> None:
    """Write rows, with the first row's keys as the header, each value through
    _fmt; no rows give an empty file.  Makes the parent directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({k: _fmt(v) for k, v in row.items()} for row in rows)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating, np.integer)):
        return repr(float(v))
    if isinstance(v, tuple):
        return list(v)
    return v


def _environment() -> dict:
    return {
        "package": "jnlab 0.1.0",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------------------
# seeded test families


def _bump_specs(rng, window: Window, count: int):
    lo = np.asarray(window.lower)
    hi = np.asarray(window.upper)
    span = hi - lo
    specs = []
    for _ in range(count):
        kind = "indicator" if rng.random() < 0.5 else "sinusoid"
        center = lo + rng.uniform(0.15, 0.85, size=window.n) * span
        width = rng.uniform(0.08, 0.35) * float(span.min())
        amp = rng.uniform(0.3, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        freq = rng.uniform(1.0, 6.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        specs.append((kind, tuple(center), width, amp, freq, phase))
    return specs


def _eval_bumps(specs, window: Window) -> GridFunction:
    pts = window.midpoints()
    vals = np.zeros(pts.shape[0])
    for kind, center, width, amp, freq, phase in specs:
        c = np.asarray(center)
        inside = np.all(np.abs(pts - c) < width / 2.0, axis=1)
        if kind == "indicator":
            vals[inside] += amp
        else:
            radial = np.linalg.norm(pts[inside] - c, axis=1)
            vals[inside] += amp * np.sin(freq * 2 * math.pi * radial / width + phase)
    return GridFunction(window, vals.reshape(window.cells))


def make_family(kind: str, window: Window, count: int, seed: int, params: NormParams | None = None):
    """Deterministic function family; bump parameters are drawn once, so the
    same seed resamples the same underlying functions on refined grids."""
    rng = np.random.default_rng(seed)
    out = []
    if kind == "random-osc":
        for _ in range(count):
            n_bumps = int(rng.integers(3, 9))
            out.append(_eval_bumps(_bump_specs(rng, window, n_bumps), window))
        return out
    if kind == "polynomial":
        s = params.s if params is not None else 1
        for _ in range(count):
            coeffs = {g: rng.uniform(-1, 1) for g in multi_indices(window.n, s)}
            P = Polynomial(window.n, s, tuple(window.center), 1.0, coeffs)
            out.append(P.on_grid(window))
        return out
    raise ConfigError(f"unknown family kind {kind!r}")


def _central_correction(window: Window, s: int) -> CorrectionSpec:
    return CorrectionSpec(tuple(window.center), 0.375 * window.span, s)


def _ratio_rows(values):
    """Rows of (numerator, denominator) pairs and the list of their finite
    ratios; a vanishing denominator gives a skipped row, never an infinity."""
    rows = []
    for i, (num, den) in enumerate(values):
        skip = den <= 1e-12 * max(1.0, abs(num))
        ratio, status = ("", "skipped") if skip else (num / den, "ok")
        rows.append({"case": i, "numerator": num, "denominator": den, "ratio": ratio, "status": status})
    return rows, [r["ratio"] for r in rows if r["status"] == "ok"]


def _family(config: ExperimentConfig, count: int, key: str = "count") -> tuple[str, int, int]:
    """Kind, size and seed of the experiment's function family.  The size is
    family[key], `count` if the config names none; ValueError unless it is a
    whole number >= 1, or if the kind is not one the experiment draws: atoms
    for the experiments that draw them, else make_family's."""
    what = f"the test family needs at least one function: family {key}"
    size = whole_number(config.family.get(key, count), what, 1)
    seed = whole_number(config.family.get("seed", 7), "family seed")
    # the kinds the experiment draws, its default first
    kinds = ("atom",) if config.experiment in _ATOM_FAMILIES else ("random-osc", "polynomial")
    kind = config.family.get("kind", kinds[0])
    if kind not in kinds:
        raise ValueError(f"{config.experiment} family kind must be {' or '.join(map(repr, kinds))}, got {kind!r}")
    return kind, size, seed


def _family_ratios(config: ExperimentConfig, win: Window, params, pairs_of) -> list:
    """_ratio_rows of each ratio over the family sampled on win (the window
    or its refinement); pairs_of(f) gives one (numerator, denominator) pair
    per ratio for the family member f."""
    kind, count, seed = _family(config, 20)
    pairs = [pairs_of(f) for f in make_family(kind, win, count, seed, params)]
    return [_ratio_rows(column) for column in zip(*pairs)]


def _refine_check(config: ExperimentConfig, coarse: float, fine: float, violations: list, message: str):
    """The factor hi/lo between a statistic on the window and on its
    refinement; a zero statistic or a factor above tol("refine_factor")
    appends the violation."""
    lo, hi = sorted([coarse, fine])
    if lo == 0 or hi / lo > config.tol("refine_factor"):
        violations.append(message)
    return hi / lo if lo > 0 else INF


def _result(name: str, rows: list, summary: dict, violations: list, config: ExperimentConfig):
    return ExperimentResult(name, rows, summary, not violations, violations, asdict(config), _environment())


# ---------------------------------------------------------------------------
# experiments


def run_jn_boundedness(config: ExperimentConfig) -> ExperimentResult:
    """Ratio table ||T~ f|| / ||f|| for the cube-oscillation norm, with a
    refinement-stability check and the monomial blow-up indicator."""
    window = config.build_window()
    params = config.build_params()
    tilde = kernel_transpose(config.build_kernel())
    search = SearchConfig()

    def pairs(f):
        tf = apply_modified(tilde, _central_correction(f.window, params.s), f).result
        return ((jn_con_norm(tf, params, search).value, jn_con_norm(f, params, search).value),)

    ((rows, ratios),) = _family_ratios(config, window, params, pairs)
    max_ratio = max(ratios, default=0.0)
    summary = {"max_ratio": max_ratio}
    violations = []
    if config.refine:
        ((_, fine),) = _family_ratios(config, window.refine(), params, pairs)
        summary["max_ratio_refined"] = max(fine, default=0.0)
        summary["refinement_factor"] = _refine_check(
            config, max_ratio, summary["max_ratio_refined"], violations,
            "max ratio unstable under grid refinement",
        )

    # monomial indicator: images of x^gamma must stay polynomial iff the
    # kernel has vanishing moments
    corr = _central_correction(window, params.s)
    mono_rows = []
    for g in multi_indices(window.n, params.s):
        img = modified_on_monomial(tilde, corr, g, window, padding=config.padding, check_doubling=False)
        dist = poly_distance(
            img.values, window.reference_cube(), params.s,
            floor=float(np.abs(GridFunction.monomial(window, g).flat).max()),
        )
        mono_rows.append({"case": f"monomial {g}", "numerator": dist, "denominator": 1.0, "ratio": dist, "status": "ok"})
    summary["monomial_poly_distance_max"] = max(r["ratio"] for r in mono_rows)
    return _result("jn_boundedness", rows + mono_rows, summary, violations, config)


def run_rm_boundedness(config: ExperimentConfig) -> ExperimentResult:
    """Ratio tables for the L^q cube aggregate and the amalgam norm under the
    principal-value operator."""
    window = config.build_window()
    params = config.build_params()
    kernel = config.build_kernel()
    search = SearchConfig()
    p, q, alpha = params.p, params.q, params.alpha
    radius = config.radii[0] if config.radii else 8 * window.h

    def rm_pair(f, tf):
        return rm_con_norm(tf, p, q, alpha, search).value, rm_con_norm(f, p, q, alpha, search).value

    def pairs(f):
        tf = apply_cz(kernel, f).result
        return rm_pair(f, tf), (amalgam_norm(tf, p, q, radius), amalgam_norm(f, p, q, radius))

    (rm_rows, rm_ratios), (am_rows, am_ratios) = _family_ratios(config, window, params, pairs)
    rm_max, am_max = max(rm_ratios, default=0.0), max(am_ratios, default=0.0)
    for name, table in (("rm_con", rm_rows), ("amalgam", am_rows)):
        for row in table:
            row["norm"] = name
    summary = {"max_rm_ratio": rm_max, "max_amalgam_ratio": am_max}
    violations = []
    if rm_max > 0 and am_max > 0:
        agree = max(rm_max / am_max, am_max / rm_max)
        summary["rm_vs_amalgam_factor"] = agree
        if agree > (factor := config.tol("rm_amalgam_factor")):
            violations.append(f"amalgam and cube-aggregate ratios disagree beyond factor {factor:g}")
    if config.refine:
        ((_, fine),) = _family_ratios(
            config, window.refine(), params, lambda f: (rm_pair(f, apply_cz(kernel, f).result),)
        )
        summary["max_rm_ratio_refined"] = max(fine, default=0.0)
        _refine_check(
            config, rm_max, summary["max_rm_ratio_refined"], violations,
            "cube-aggregate ratio unstable under refinement",
        )
    return _result("rm_boundedness", rm_rows + am_rows, summary, violations, config)


def run_equivalence(config: ExperimentConfig) -> ExperimentResult:
    """Ball-seminorm/cube-norm ratio bracket for both norm flavors."""
    window = config.build_window()
    params = config.build_params()
    bracket = config.tol("bracket")

    def pairs(f):
        h, span = f.window.h, f.window.span
        radii = config.radii or [h * 2**k for k in range(2, 7) if h * 2**k < span]
        norms = norm_pair(f, params, None, radii)
        return tuple((norms[f"{name}_ball"].value, norms[f"{name}_con"].value) for name in ("jn", "rm"))

    base = _family_ratios(config, window, params, pairs)
    rows = [
        {"case": r["case"], "norm": name, "ratio": r["ratio"], "status": r["status"]}
        for name, (table, _) in zip(("jn", "rm"), base)
        for r in table
    ]
    summary = {}
    violations = []
    # a user-supplied radius set that cannot resolve the window is reported as
    # search insufficiency, not as a property failure
    insufficient = bool(config.radii) and (len(config.radii) < 3 or max(config.radii) < window.span / 8)
    summary["search_insufficiency"] = insufficient
    for name, (_, ratios) in zip(("jn", "rm"), base):
        if not ratios:
            summary[f"{name}_bracket"] = "skipped"
            continue
        lo, hi = min(ratios), max(ratios)
        summary[f"{name}_ratio_min"] = lo
        summary[f"{name}_ratio_max"] = hi
        spread = hi / lo if lo > 0 else INF
        summary[f"{name}_spread"] = spread
        if spread > bracket:
            if insufficient:
                summary[f"{name}_bracket"] = "search-insufficiency"
            else:
                violations.append(f"{name} ball/cube ratio spread {spread:.3g} exceeds bracket {bracket}")
    if config.refine:
        fine = _family_ratios(config, window.refine(), params, pairs)
        factor = config.tol("refine_factor")
        for name, (_, coarse), (_, refined) in zip(("jn", "rm"), base, fine):
            if not coarse or not refined:
                continue
            for stat in (min, max):
                summary[f"{name}_{stat.__name__}_refine_factor"] = _refine_check(
                    config, stat(coarse), stat(refined), violations,
                    f"{name} bracket {stat.__name__} moved beyond factor {factor:g} under refinement",
                )
    return _result("equivalence", rows, summary, violations, config)


def _atom_image_setup(config: ExperimentConfig, diagonal: bool):
    """Window, parameters, kernel, the atoms' support cube, epsilon, and the
    molecule centre cube with its deepest dyadic level j_max.  The centre
    cube is twice the support cube, times sqrt(n) when `diagonal`, snapped
    to whole cells."""
    window = config.build_window()
    params = config.build_params()
    kernel = config.build_kernel()
    n = window.n
    support_side = window.span / 2 ** config.levels
    cube = Cube(tuple(window.center), support_side)
    eps = config.epsilon
    if eps is None:
        win_eps = epsilon_window(params.p, params.q, params.s, params.alpha, kernel.delta, n)
        if win_eps.empty:
            raise ConfigError("epsilon window is empty for these parameters")
        eps = float(win_eps.midpoint())
    center_side = cube.side * (2 * math.sqrt(n) if diagonal else 2)
    center_cells = max(2, round(center_side / window.h))
    j_max = int(math.floor(math.log2(min(window.cells) / center_cells)))
    return window, params, kernel, cube, float(eps), Cube(cube.center, center_cells * window.h), j_max


def _operator_molecule(kernel, atom, center_cube: Cube, params, eps, j_max, window) -> tuple:
    """T(atom) on the window with moment-defect triage.

    The image's global moments carry a truncation error that shrinks with the
    window; a genuine vanishing-moment failure does not.  Defects that decay
    under window-halving are classified as truncation artifacts and repaired
    by the dual-basis core correction before certification; a non-decaying
    defect is structural and is left in place so certification fails on the
    moment condition, as it should.
    """
    ta = apply_truncated(kernel, atom.values, window.h, eval_window=window)
    half = window.padded(0.5) if min(window.cells) >= 8 else window
    # a truncated sum at a cell does not depend on which other cells are
    # evaluated, so the image on the half window is a slice of the full one
    ta_half = ta.values[tuple(slice(o, o + c) for o, c in zip(half.lattice_offset(window), half.cells))]
    gammas = multi_indices(window.n, params.s)
    fulls = moments(ta.flat, _monomial_columns(window, params.s).T, window.cell_measure)
    halves = moments(ta_half.reshape(-1), _monomial_columns(half, params.s).T, half.cell_measure)
    m_l1 = float(np.abs(ta.flat).sum()) * window.cell_measure
    defects = {}
    decaying = True
    for g, full, half_v in zip(gammas, fulls, halves):
        scale = max(m_l1 * center_cube.side ** sum(g), 1e-300)
        defects[g] = abs(full) / scale
        if abs(full) > 1e-8 * scale and abs(full) > abs(half_v) / 1.3:
            decaying = False
    if decaying:
        ta = repair_moments(ta, center_cube, params.s, fulls)
    cert = validate_molecule(ta, center_cube, params, eps, j_max)
    c_needed = cert.constant_needed * (1.0 + 1e-9)
    info = {"pre_repair_defect": max(defects.values()), "repaired": decaying}
    return ta, cert, c_needed, info


def run_atom_image(config: ExperimentConfig) -> ExperimentResult:
    """Operator images of atoms certify as molecules with one constant."""
    window, params, kernel, cube, eps, center_cube, j_max = _atom_image_setup(config, diagonal=True)
    _, count, seed = _family(config, 10)
    rows = []
    images = []
    violations = []
    for i in range(count):
        atom = make_atom(seed + i, cube, params, window)
        ta, cert, c_needed, info = _operator_molecule(
            kernel, atom, center_cube, params, eps, j_max, window
        )
        images.append(ta)
        moments_pass = not any("moment" in f for f in cert.failures)
        if not moments_pass:
            violations.append(f"atom {i} image breaks the moment condition (structural defect)")
        rows.append(
            {
                "case": i,
                "constant_needed": c_needed,
                "core_ratio": cert.core_ratio,
                "max_annulus_ratio": max(cert.annulus_ratios) if cert.annulus_ratios else 0.0,
                "moments_pass": moments_pass,
                "pre_repair_defect": info["pre_repair_defect"],
                "repaired": info["repaired"],
            }
        )
    c_family = max(r["constant_needed"] for r in rows)
    # one constant must certify every image: rescale by the family constant
    for i, ta in enumerate(images):
        cert = validate_molecule(ta * (1.0 / c_family), center_cube, params, eps, j_max)
        if not cert.passed:
            violations.append(f"atom {i} image fails certification at the family constant")
    summary = {
        "epsilon": eps,
        "family_constant": c_family,
        "j_max": j_max,
        "max_pre_repair_defect": max(r["pre_repair_defect"] for r in rows),
    }
    return _result("atom_image", rows, summary, violations, config)


def run_duality(config: ExperimentConfig) -> ExperimentResult:
    """Pairing identity <T a, f> = <a, T~ f> across atoms x test functions,
    with padding-doubling certification of the truncation error."""
    window = config.build_window()
    params = config.build_params()
    kernel = config.build_kernel()
    tilde = kernel_transpose(kernel)
    _, n_atoms, seed = _family(config, 10)
    n_funcs = _family(config, 5, "functions")[1]
    tol = config.tol("pairing_mismatch")
    cube = Cube(tuple(window.center), window.span / 8.0)
    corr = _central_correction(window, params.s)
    funcs = make_family("random-osc", window.padded(0.5), n_funcs, seed + 1000)  # on the window's lattice

    def embed(f_small: GridFunction, win: Window) -> GridFunction:
        off = f_small.window.lattice_offset(win)
        vals = np.zeros(win.cells)
        vals[tuple(slice(o, o + c) for o, c in zip(off, f_small.window.cells))] = f_small.values
        return GridFunction(win, vals)

    def mismatches(win: Window):
        out = []
        # each test function's corrected image depends on the window only
        fs = [embed(f_small, win) for f_small in funcs]
        tfs = [apply_modified(tilde, corr, f, eval_window=win, eta_cells=(1,)).result for f in fs]
        for i in range(n_atoms):
            atom = make_atom(seed + i, cube, params, win)
            ta = apply_truncated(kernel, atom.values, win.h, eval_window=win)
            for jf, (f, tf) in enumerate(zip(fs, tfs)):
                lhs = pairing(ta, f)
                rhs = pairing(atom.values, tf)
                scale = max(abs(lhs), abs(rhs), 1e-12)
                out.append({"atom": i, "func": jf, "lhs": lhs, "rhs": rhs, "mismatch": abs(lhs - rhs) / scale})
        return out

    rows = mismatches(window)
    big = window.padded(2.0)
    rows_big = mismatches(big)
    max_mm = max(r["mismatch"] for r in rows)
    drift = max(
        abs(a["lhs"] - b["lhs"]) / max(abs(a["lhs"]), abs(b["lhs"]), 1e-12)
        for a, b in zip(rows, rows_big)
    )
    violations = []
    if max_mm > tol:
        violations.append(f"pairing mismatch {max_mm:.3e} exceeds {tol}")
    summary = {"max_mismatch": max_mm, "padding_doubling_drift": drift}
    return _result("duality", rows, summary, violations, config)


def run_decomposition(config: ExperimentConfig) -> ExperimentResult:
    """Decompose generated molecules and operator images; check residuals,
    coefficient sums against the geometric bound, and bound uniformity."""
    window, params, kernel, cube, eps, center_cube, j_max = _atom_image_setup(config, diagonal=False)
    _, count, seed = _family(config, 5)
    res_tol = config.tol("residual")
    rows = []
    violations = []

    def record(kind: str, i: int, rep) -> None:
        worst = max(rep.residuals)
        rows.append({
            "case": f"{kind}-{i}",
            "hk_bound": hk_upper_bound(rep.hk_groups(), params.p),
            "max_residual": worst,
            "coef_p_sum": rep.coef_p_sum_core,
            "geometric_bound": rep.geometric_bound,
            "atoms": len(rep.atoms),
        })
        if worst > res_tol:
            violations.append(f"{kind} {i}: reconstruction residual {worst:.3e} exceeds {res_tol}")

    for i in range(count):
        atom = make_atom(seed + i, cube, params, window)
        ta, _, c_needed, _ = _operator_molecule(kernel, atom, center_cube, params, eps, j_max, window)
        rep = decompose_molecule(MoleculeRecord(center_cube, params, eps, ta * (1.0 / c_needed)), j_max)
        record("image", i, rep)
        if rep.coef_p_sum_core > rep.geometric_bound * (1 + 1e-9):
            violations.append(f"image {i}: coefficient sum exceeds the geometric bound")
    for i in range(count):
        mol = make_molecule(seed + 500 + i, center_cube, params, eps, window, j_max)
        record("molecule", i, decompose_molecule(mol, j_max))
    bounds_images = [r["hk_bound"] for r in rows[:count]]
    summary = {"max_image_bound": max(bounds_images), "min_image_bound": min(bounds_images)}
    spread = summary["max_image_bound"] / summary["min_image_bound"] if summary["min_image_bound"] > 0 else INF
    summary["image_bound_spread"] = spread
    if spread > (bound := config.tol("bound_spread")):
        violations.append(f"operator-image bounds spread {spread:.3g} beyond factor {bound:g}")
    return _result("decomposition", rows, summary, violations, config)


EXPERIMENTS = {
    "jn-boundedness": run_jn_boundedness,
    "rm-boundedness": run_rm_boundedness,
    "equivalence": run_equivalence,
    "atom-image": run_atom_image,
    "duality": run_duality,
    "decomposition": run_decomposition,
}


def _json_type(kind: str, value) -> bool:
    """Whether value, as json.loads gives it, has the JSON type `kind` ("a or b": either one)."""
    if isinstance(value, (list, tuple)):
        return kind == "list of numbers" and all(_JSON_TYPES.get(type(v)) == "number" for v in value)
    return _JSON_TYPES.get(type(value)) in kind.split(" or ")


# field: JSON type, keys an object may hold with their types ("*": any other), rule, check (False or ValueError: broken)
CONFIG_SCHEMA = {
    "experiment": ("string", None, "one of " + ", ".join(EXPERIMENTS), lambda c: c.experiment in EXPERIMENTS),
    "window": ("object", {"n": "number", "lower": "list of numbers", "upper": "list of numbers",
                          "cells": "list of numbers"}, "an object that makes a Window", lambda c: c.build_window()),
    "kernel": ("object", {"name": "string", "*": "number"}, "an object naming a kernel of the window's dimension",
               lambda c: c.build_kernel().n == c.window["n"]),
    "params": ("object", {"p": "number or string", "q": "number or string", "s": "number", "alpha": "number"},
               "an object that makes NormParams", lambda c: c.build_params()),
    "family": ("object", {"kind": "string", "count": "number", "seed": "number", "functions": "number"},
               "an object of family settings", lambda c: (_family(c, 1), _family(c, 1, "functions"))),
    "padding": ("number", None, "a finite number >= 4", lambda c: _check_padding(c.padding)),
    "radii": ("list of numbers", None, "a list of finite numbers > 0, at most one for rm-boundedness",
              lambda c: all(0 < r < INF for r in c.radii) and (c.experiment != "rm-boundedness" or len(c.radii) < 2)),
    "refine": ("boolean", None, "true or false", lambda c: True),
    "tolerances": ("object", dict.fromkeys(TOLERANCES, "number"), "an object of finite numbers > 0 by tolerance name",
                   lambda c: all(0 < v < INF for v in c.tolerances.values())),
    "epsilon": ("number or null", None, "null or a number in (0, 1)", lambda c: c.epsilon is None or 0 < c.epsilon < 1),
    "levels": ("number", None, "an integer >= 2", lambda c: whole_number(c.levels, "levels", 2)),
}


def default_config(name: str) -> ExperimentConfig:
    base = ExperimentConfig(experiment=name)
    if name in ("atom-image", "decomposition"):
        base.window = {"n": 1, "lower": [-2.0], "upper": [2.0], "cells": [512]}
        base.params = {"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.25}
        base.epsilon = 0.3
        base.family = {"kind": "atom", "count": 10 if name == "atom-image" else 4, "seed": 7}
        base.levels = 5
    elif name == "duality":
        base.window = {"n": 1, "lower": [-2.0], "upper": [2.0], "cells": [256]}
        base.params = {"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.25}
        base.family = {"kind": "atom", "count": 10, "seed": 7, "functions": 5}
    elif name == "equivalence":
        base.window = {"n": 1, "lower": [0.0], "upper": [1.0], "cells": [128]}
        base.params = {"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.0}
        base.family = {"kind": "random-osc", "count": 50, "seed": 11}
    elif name == "rm-boundedness":
        base.params = {"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.0}
    return base


def run_experiment(name: str, config: ExperimentConfig | None = None) -> ExperimentResult:
    cfg = replace(config or default_config(name), experiment=name)  # the echo names the experiment that ran
    cfg.check()
    return EXPERIMENTS[name](cfg)
