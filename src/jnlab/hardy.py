"""Atoms, molecules, admissible decay exponents, and the constructive
annulus decomposition of a molecule into atoms.

An atom is supported in a cube, L^q-normalized against the cube measure, and
moment-free up to degree s.  A molecule relaxes compact support to a dyadic
decay bound on annuli governed by an exponent epsilon.  The decomposition
splits a molecule over dyadic annuli: per-annulus projection residuals become
core atoms, and the projections themselves telescope (summation by parts on
tail moments) into correction atoms built from dual polynomial bases, plus an
explicit tail term at the outermost level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import (
    Cube,
    GridFunction,
    Window,
    _window_memo,
    annulus,
    check_packing,
    lq_norm,
    moments,
    region_mask,
    region_measure,
    whole_number,
)
from .polyproj import Projector, multi_indices

__all__ = [
    "ParameterError",
    "ZeroAtomError",
    "CertificationError",
    "WindowMismatchError",
    "AtomCertification",
    "AtomRecord",
    "MoleculeCertification",
    "MoleculeRecord",
    "make_atom",
    "validate_atom",
    "make_molecule",
    "validate_molecule",
    "repair_moments",
    "epsilon_window",
    "EpsilonWindow",
    "abel_transform",
    "decompose_molecule",
    "DecompositionReport",
    "DecompositionAtom",
    "pairing",
    "hk_upper_bound",
]

ATOM_NORM_RTOL = 1e-10
ATOM_MOMENT_RTOL = 1e-8
INF = math.inf


class ParameterError(ValueError):
    """Exponent hypothesis violated."""


class ZeroAtomError(ValueError):
    """Projection removed everything; no atom can be normalized."""


class CertificationError(ValueError):
    """An object failed atom/molecule certification."""


class WindowMismatchError(ValueError):
    """Pairing requires both functions on one lattice."""


def _inv(p: float) -> float:
    return 0.0 if p == INF else 1.0 / p


def norm_exponent(params) -> float:
    """1/q - 1/p - alpha: the size exponent of atom and molecule bounds."""
    return _inv(params.q) - _inv(params.p) - params.alpha


@dataclass
class AtomCertification:
    support_exact: bool
    norm_ratio: float
    moment_defects: dict
    moment_scales: dict
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class AtomRecord:
    cube: Cube
    params: object
    values: GridFunction
    seed: int | None
    certification: AtomCertification


@_window_memo(8)
def _monomial_columns(window: Window, s: int) -> np.ndarray:
    """The monomials x^gamma, |gamma| <= s, on every cell of the window: one
    column each, ordered like multi_indices."""
    return np.stack([GridFunction.monomial(window, g).flat for g in multi_indices(window.n, s)], axis=1)


def _moment_defects(values: GridFunction, s: int, side: float, tol: float, failures: list):
    """|moment| and its scale ||f||_1 side^|gamma| per gamma with |gamma| <= s;
    a defect above tol * scale appends a failure."""
    window = values.window
    gammas = multi_indices(window.n, s)
    nz = np.nonzero(values.flat)[0]
    found = moments(values.flat[nz], _monomial_columns(window, s)[nz], window.cell_measure)
    l1 = float(np.abs(values.flat).sum()) * window.cell_measure
    defects, scales = {}, {}
    for g, m in zip(gammas, found):
        defects[g] = abs(m)
        scales[g] = l1 * side ** sum(g)
        if defects[g] > tol * scales[g]:
            failures.append(f"moment {g}: defect {defects[g]:.3e} exceeds tolerance")
    return defects, scales


def validate_atom(values: GridFunction, cube: Cube, params) -> AtomCertification:
    """Check support, L^q size, and vanishing moments; failures are data."""
    window = values.window
    mask = region_mask(window, cube)
    outside = values.flat[~mask]
    support_exact = bool(np.all(outside == 0.0))
    measure = region_measure(window, cube)
    bound = measure ** norm_exponent(params)
    norm = lq_norm(values, cube, params.q)
    norm_ratio = norm / bound if bound > 0 else INF
    failures = []
    if not support_exact:
        failures.append("support: nonzero cells outside the cube")
    if norm_ratio > 1.0 + ATOM_NORM_RTOL:
        failures.append(f"size: L^q ratio {norm_ratio:.12g} exceeds 1")
    defects, scales = _moment_defects(values, params.s, cube.side, ATOM_MOMENT_RTOL, failures)
    return AtomCertification(support_exact, norm_ratio, defects, scales, failures)


def _certified_atom(window: Window, flat: np.ndarray, cube: Cube, params, what: str, seed=None) -> AtomRecord:
    """The record of the atom with these flat values on the cube; raises
    CertificationError naming `what` if validate_atom fails it."""
    values = GridFunction(window, flat.reshape(window.cells))
    cert = validate_atom(values, cube, params)
    if not cert.passed:
        raise CertificationError(f"{what} failed: {cert.failures}")
    return AtomRecord(cube, params, values, seed, cert)


def make_atom(
    seed: int,
    cube: Cube,
    params,
    window: Window,
    seed_values=None,
) -> AtomRecord:
    """Seeded random atom: noise on the cube, moment projection removed,
    rescaled to meet the L^q bound with equality."""
    if params.q == INF:
        raise ParameterError("q = inf atoms are excluded (sup-norm certification is fragile)")
    mask = region_mask(window, cube)
    count = int(np.count_nonzero(mask))
    if count < (params.s + 2) ** window.n:
        raise ValueError(f"cube holds {count} cells; need at least {(params.s + 2) ** window.n}")
    if seed_values is None:
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, size=count)
    else:
        raw = np.broadcast_to(np.asarray(seed_values, dtype=float), (count,))
    vals = np.zeros(window.cell_count)
    vals[mask] = raw
    g = GridFunction(window, vals)
    resid = np.zeros(window.cell_count)
    resid[mask] = Projector.on_region(window, cube, params.s)[0].residual(g.flat[mask])
    norm = lq_norm(GridFunction(window, resid.reshape(window.cells)), cube, params.q)
    ref = lq_norm(g, cube, params.q)
    if norm <= 1e-13 * max(ref, 1.0):
        raise ZeroAtomError("projection removed the seed function entirely")
    bound = region_measure(window, cube) ** norm_exponent(params)
    resid *= bound / norm
    seed = seed if seed_values is None else None
    return _certified_atom(window, resid, cube, params, "constructed atom", seed)


@dataclass
class MoleculeCertification:
    core_ratio: float
    annulus_ratios: list
    moment_defects: dict
    moment_scales: dict
    moment_tol: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def constant_needed(self) -> float:
        """Smallest C such that M / C meets the size conditions."""
        return max([self.core_ratio] + list(self.annulus_ratios))


@dataclass
class MoleculeRecord:
    cube: Cube
    params: object
    epsilon: float
    values: GridFunction
    certification: MoleculeCertification


def validate_molecule(
    values: GridFunction,
    cube: Cube,
    params,
    epsilon: float,
    j_max: int,
    moment_tol: float = ATOM_MOMENT_RTOL,
) -> MoleculeCertification:
    """Per-annulus decay margins, core margin, and global moment defects."""
    j_max = whole_number(j_max, "j_max")
    window = values.window
    c = norm_exponent(params)
    if c >= 0:
        raise ParameterError("molecules need alpha > 1/q - 1/p (negative size exponent)")
    if not 0 < epsilon < 1:
        raise ParameterError("the decay exponent must lie in (0, 1)")
    core_measure = region_measure(window, cube)
    core_bound = core_measure**c
    core_ratio = lq_norm(values, cube, params.q) / core_bound
    ratios = []
    failures = []
    if core_ratio > 1.0 + ATOM_NORM_RTOL:
        failures.append(f"core size ratio {core_ratio:.12g} exceeds 1")
    for j in range(1, j_max + 1):
        bound = 2.0 ** (j * window.n / epsilon * c) * core_bound
        ratio = lq_norm(values, annulus(cube.center, cube.side, j), params.q) / bound
        ratios.append(ratio)
        if ratio > 1.0 + ATOM_NORM_RTOL:
            failures.append(f"annulus j={j} decay ratio {ratio:.12g} exceeds 1")
    defects, scales = _moment_defects(values, params.s, cube.side * 2**j_max, moment_tol, failures)
    return MoleculeCertification(core_ratio, ratios, defects, scales, moment_tol, failures)


def repair_moments(values: GridFunction, cube: Cube, s: int) -> GridFunction:
    """Cancel the global moments by a dual-basis correction on the core cube.

    Wide-window operator images carry a truncation-level moment defect; this
    subtracts sum_nu (int M x^nu) psi_nu 1_core / |core|, which has exactly
    the same moments, leaving the tails untouched.
    """
    window = values.window
    mask, _, duals, measure = _annulus_levels(window, cube, s, 0)[0]
    m = moments(values.flat, _monomial_columns(window, s), window.cell_measure)
    # moments must be removed jointly: build the correction, then subtract
    corr = np.zeros(window.cell_count)
    for m_nu, psi in zip(m, duals):
        corr[mask] += m_nu * psi / measure
    return GridFunction(window, (values.flat - corr).reshape(window.cells))


@_window_memo(16)
def _annulus_level(window: Window, cube: Cube, s: int, j: int) -> tuple:
    """Level j of the dyadic ladder around the core cube Q: the mask of
    L_j = Q_j minus Q_{j-1} (Q_0 at j = 0; Q_j = 2^j Q), the projector on its
    cells, the duals psi_nu there (each caller divides them by |L_j| at its
    own place in the product) and |L_j|.  It holds no values, so each
    geometry is built once and shared, read-only."""
    q = cube.dilate(2**j)
    mask = region_mask(window, annulus(cube.center, cube.side, j))
    if not mask.any():
        raise ValueError(f"window does not reach annulus level {j}")
    pts = window.cell_midpoints(np.flatnonzero(mask))
    proj = Projector(pts, s, q.center, q.scale)
    return mask, proj, tuple(psi(pts) for psi in proj.bases()[1]), float(mask.sum()) * window.cell_measure


def _annulus_levels(window: Window, cube: Cube, s: int, j_max: int) -> tuple:
    """The dyadic ladder around the core cube, levels 0 to j_max."""
    return tuple(_annulus_level(window, cube, s, j) for j in range(j_max + 1))


def _dual_step(levels, j: int, nu: int, size: int) -> np.ndarray:
    """psi_nu^{(j+1)} 1_{L_{j+1}} / |L_{j+1}| - psi_nu^{(j)} 1_{L_j} / |L_j|."""
    (hi, _, psi_hi, m_hi), (lo, _, psi_lo, m_lo) = levels[j + 1], levels[j]
    out = np.zeros(size)
    out[hi] = psi_hi[nu] / m_hi
    out[lo] -= psi_lo[nu] / m_lo
    return out


def make_molecule(
    seed: int,
    cube: Cube,
    params,
    epsilon: float,
    window: Window,
    j_max: int,
    margin: float = 0.8,
    tail_weight: float = 0.1,
) -> MoleculeRecord:
    """Seeded molecule with nonzero tail moments and decay margins < 1.

    Per-annulus moment-free noise supplies the bulk; dual-basis pair terms on
    adjacent annuli (jointly moment-free, but with nonzero dyadic tail
    moments) make the decomposition's correction atoms nondegenerate.
    """
    if params.q == INF:
        raise ParameterError("q = inf molecules are excluded")
    if not 0 < margin <= 1:
        raise ParameterError(f"the margin must lie in (0, 1], got {margin!r}")
    if not 0 <= tail_weight < INF:
        raise ParameterError(f"the tail weight must be finite and >= 0, got {tail_weight!r}")
    j_max = whole_number(j_max, "j_max")
    rng = np.random.default_rng(seed)
    c = norm_exponent(params)
    total = np.zeros(window.cell_count)
    levels = _annulus_levels(window, cube, params.s, j_max)
    regions = [annulus(cube.center, cube.side, j) for j in range(j_max + 1)]
    core_bound = levels[0][3] ** c
    bounds = [core_bound * (2.0 ** (j * window.n / epsilon * c) if j else 1.0) for j in range(j_max + 1)]
    for j, (mask, proj, _, _) in enumerate(levels):
        resid = np.zeros(window.cell_count)
        raw = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
        resid[mask] = proj.residual(raw)
        norm = lq_norm(GridFunction(window, resid), regions[j], params.q)
        if norm <= 0:
            raise ZeroAtomError("degenerate annulus piece")
        total += resid * (margin * bounds[j] / norm)
    gammas = multi_indices(window.n, params.s)
    for j in range(j_max):
        for gi in range(len(gammas)):
            pair = _dual_step(levels, j, gi, window.cell_count)
            gf = GridFunction(window, pair)
            norm_lo = lq_norm(gf, regions[j], params.q)
            norm_hi = lq_norm(gf, regions[j + 1], params.q)
            cap = min(
                bounds[j] / norm_lo if norm_lo > 0 else INF,
                bounds[j + 1] / norm_hi if norm_hi > 0 else INF,
            )
            amp = tail_weight * cap * rng.uniform(0.5, 1.0) / len(gammas)
            total += amp * pair * (1 if rng.random() < 0.5 else -1)
    values = GridFunction(window, total.reshape(window.cells))
    cert = validate_molecule(values, cube, params, epsilon, j_max)
    if not cert.passed:
        raise CertificationError(f"constructed molecule failed: {cert.failures}")
    return MoleculeRecord(cube, params, epsilon, values, cert)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x == INF:
            raise ParameterError("use finite exponents for the epsilon window")
        return Fraction(str(x))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


@dataclass
class EpsilonWindow:
    """Admissible decay exponents [lo, hi) intersected with (0, 1).

    The closed lower endpoint comes from the operator-image decay
    requirement, the open upper endpoint from the pairing summability
    requirement.
    """

    lo: Fraction
    hi: Fraction
    violations: list = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.lo >= self.hi

    def contains(self, eps) -> bool:
        e = _as_fraction(eps)
        return (not self.empty) and self.lo <= e < self.hi and 0 < e < 1

    def midpoint(self) -> Fraction | None:
        if self.empty:
            return None
        return (self.lo + min(self.hi, Fraction(1))) / 2


def epsilon_window(p, q, s, alpha, delta, n) -> EpsilonWindow:
    """Exact rational interval of admissible epsilon for given exponents.

    Requires alpha > 1/q - 1/p.  With c := 1/q - 1/p - alpha < 0 the two
    constraints (1/eps) c < -(1/q' + s/n) and (1/eps) c >= -(1/q' + (s+delta)/n)
    give eps in [ (-c)/(1/q' + (s+delta)/n), (-c)/(1/q' + s/n) ), then
    intersect with (0, 1).
    """
    p, q, alpha, delta = (_as_fraction(v) for v in (p, q, alpha, delta))
    s = int(s)
    n = int(n)
    if q <= 1 or p <= 1:
        raise ParameterError("p and q must exceed 1")
    c = 1 / q - 1 / p - alpha
    if c >= 0:
        raise ParameterError("alpha must exceed 1/q - 1/p")
    inv_q_conj = 1 - 1 / q  # positive, since q > 1
    lo = (-c) / (inv_q_conj + (s + delta) / Fraction(n))
    hi = (-c) / (inv_q_conj + Fraction(s, n))
    violations = []
    if not (alpha < (s + delta) / Fraction(n)):
        violations.append("alpha >= (s + delta)/n: outside the operator-extension range")
    hi = min(hi, Fraction(1))
    if lo <= 0:
        lo = Fraction(0)
    return EpsilonWindow(lo, hi, violations)


def abel_transform(a, b, k: int):
    """Summation by parts: both sides of
    sum_{j=1..k} a_j b_j = a_k sum b_j - sum_{j<k} (prefix b)(a_{j+1}-a_j)."""
    if len(a) < k or len(b) < k:
        raise ValueError("need at least k terms in both sequences")
    lhs = sum(a[j] * b[j] for j in range(k))
    prefix = list(np.cumsum(b[:k]))
    rhs = a[k - 1] * prefix[k - 1] - sum(prefix[j] * (a[j + 1] - a[j]) for j in range(k - 1))
    return lhs, rhs


def pairing(g: GridFunction, f: GridFunction) -> float:
    """Discrete integral of g * f; both functions must share one lattice."""
    if not g.window.same_lattice(f.window):
        raise WindowMismatchError("pairing requires identical windows; resample first")
    return float((g.flat * f.flat).sum()) * g.window.cell_measure


@dataclass
class DecompositionAtom:
    level: int
    kind: str  # "core" or "correction"
    nu: tuple | None
    lam: float
    record: AtomRecord


@dataclass
class DecompositionReport:
    atoms: list
    tail_term: GridFunction
    tail_level: int
    residuals: list
    coef_p_sum_core: float
    coef_p_sum_all: float
    geometric_bound: float
    constants: dict
    epsilon: float

    def hk_groups(self):
        """Each produced atom is its own single-atom polymer (their support
        cubes are nested, never disjoint)."""
        return [[(a.lam, a.record)] for a in self.atoms]

    def to_json(self) -> dict:
        return {
            "atoms": [
                {
                    "level": a.level,
                    "kind": a.kind,
                    "nu": None if a.nu is None else list(a.nu),
                    "lambda": a.lam,
                    "cube": a.record.cube.to_dict(),
                }
                for a in self.atoms
            ],
            "tail": {"level": self.tail_level, "values_ref": "tail_term"},
            "residuals": self.residuals,
            "coef_p_sum": self.coef_p_sum_core,
            "coef_p_sum_all": self.coef_p_sum_all,
            "geometric_bound": self.geometric_bound,
            "constants": self.constants,
            "epsilon": self.epsilon,
        }


def decompose_molecule(
    mol: MoleculeRecord, l_max: int, moment_tol: float = ATOM_MOMENT_RTOL
) -> DecompositionReport:
    """Constructive decomposition of a molecule into certified atoms.

    Level-j residuals (M - P_j) 1_{L_j} give core atoms A_j with coefficients
    lambda_j = (1 + C) 2^{j n (1/eps - 1)(1/q - 1/p - alpha)}, where C is the
    measured annulus-projection constant.  Summation by parts on the tail
    moments eta_nu^{(j)} turns the projections into correction atoms built
    from dual bases on adjacent annuli, leaving the explicit tail term at the
    top level.  The reconstruction residual is checked at every level.
    """
    l_max = whole_number(l_max, "l_max")
    params = mol.params
    window = mol.values.window
    cube = mol.cube
    n = window.n
    h = window.h
    eps = float(mol.epsilon)
    s = params.s
    side_cells = round(cube.side / h)
    if abs(cube.side - side_cells * h) > 1e-9 * h:
        raise CertificationError("core cube side must be a whole number of cells")
    # the dyadic cubes Q_j = 2^j Q, j <= l_max; the innermost and outermost
    # are checked before the ladder can raise
    cubes = [cube.dilate(2**j) for j in range(l_max + 1)]
    if int(np.count_nonzero(region_mask(window, cubes[0]))) != side_cells**n:
        raise CertificationError("core cube must be cell-aligned inside the window")
    if int(np.count_nonzero(region_mask(window, cubes[l_max]))) != (side_cells * 2**l_max) ** n:
        raise CertificationError(f"window does not fully contain level {l_max}")

    cert = validate_molecule(mol.values, cube, params, eps, l_max, moment_tol)
    if not cert.passed:
        raise CertificationError(f"molecule certification failed: {cert.failures}")

    c_exp = norm_exponent(params)
    decay = 2.0 ** (n * (1.0 / eps - 1.0) * c_exp)
    vals = mol.values.flat
    gammas = multi_indices(n, s)

    levels = _annulus_levels(window, cube, s, l_max)
    inside = list(itertools.accumulate((mask for mask, *_ in levels), np.logical_or))  # Q_j = L_0 + ... + L_j
    resids, c_proj = [], 0.0
    for mask, proj, _, _ in levels:
        fit = proj.fit(vals[mask])
        resid = np.zeros(window.cell_count)
        resid[mask] = vals[mask] - fit
        resids.append(resid)
        mean_abs = float(np.abs(vals[mask]).mean())
        if mean_abs > 0:
            c_proj = max(c_proj, float(np.abs(fit).max()) / mean_abs)

    lam_core = 1.0 + c_proj

    atoms: list[DecompositionAtom] = []
    partial_core = np.zeros(window.cell_count)
    core_partials = []
    for j in range(l_max + 1):
        lam_j = lam_core * decay**j
        if np.any(resids[j]):
            a_vals = resids[j] / lam_j
            rec = _certified_atom(window, a_vals, cubes[j], params, f"core atom at level {j}")
            atoms.append(DecompositionAtom(j, "core", None, lam_j, rec))
            partial_core = partial_core + lam_j * a_vals
        core_partials.append(partial_core)

    # tail moments over the window beyond each dyadic cube
    cols = _monomial_columns(window, s)
    eta = np.zeros((l_max + 1, len(gammas)))
    for j in range(l_max + 1):
        outside = ~inside[j]
        eta[j] = moments(vals[outside], cols[outside], window.cell_measure)

    # correction pieces eta_nu^{(j)} [ psi^{(j+1)} 1_{L_{j+1}} / |L_{j+1}| - psi^{(j)} 1_{L_j} / |L_j| ]
    tilde_raw = {}
    tilde_norm_max = 0.0
    for j in range(l_max):
        bound = decay**j * region_measure(window, cubes[j + 1]) ** c_exp
        for gi, g in enumerate(gammas):
            piece = _dual_step(levels, j, gi, window.cell_count) * eta[j, gi]
            norm = lq_norm(GridFunction(window, piece), cubes[j + 1], params.q)
            tilde_raw[(j, g)] = (piece, norm)
            if norm > 0:
                tilde_norm_max = max(tilde_norm_max, norm / bound)

    c_tilde = tilde_norm_max * (1.0 + 1e-8)
    corr_partial = np.zeros(window.cell_count)
    corr_partials = [corr_partial]  # corrections up to level l-1 for l = 0
    for j in range(l_max):
        lam_t = c_tilde * decay**j
        for g in gammas:
            piece, norm = tilde_raw[(j, g)]
            if norm == 0.0 or c_tilde == 0.0:
                continue
            what = f"correction atom level {j}, nu={g}"
            rec = _certified_atom(window, piece / lam_t, cubes[j + 1], params, what)
            atoms.append(DecompositionAtom(j, "correction", g, lam_t, rec))
            corr_partial = corr_partial + piece
        corr_partials.append(corr_partial)

    # tail term and reconstruction residual per level
    residuals = []
    m_l1 = float(np.abs(vals).sum()) * window.cell_measure
    for l, (mask, _, duals, measure) in enumerate(levels):
        tail = np.zeros(window.cell_count)
        for gi, psi in enumerate(duals):
            tail[mask] -= eta[l, gi] * (psi / measure)
        recon = core_partials[l] + corr_partials[l] + tail
        diff = np.where(inside[l], vals, 0.0) - recon
        residuals.append(float(np.abs(diff).sum()) * window.cell_measure / max(m_l1, 1e-300))

    p = params.p
    lam_values = [a.lam for a in atoms if a.kind == "core"]
    coef_core = float(sum(l**p for l in lam_values))
    coef_all = float(sum(a.lam**p for a in atoms))
    ratio_p = decay**p
    geometric = lam_core**p / (1.0 - ratio_p) if ratio_p < 1 else INF

    return DecompositionReport(
        atoms=atoms,
        tail_term=GridFunction(window, tail.reshape(window.cells)),  # level l_max's, the loop's last
        tail_level=l_max,
        residuals=residuals,
        coef_p_sum_core=coef_core,
        coef_p_sum_all=coef_all,
        geometric_bound=geometric,
        constants={"annulus_projection": c_proj, "core_factor": lam_core, "correction_factor": c_tilde},
        epsilon=eps,
    )


def hk_upper_bound(groups, p: float) -> float:
    """Finite-decomposition upper bound: sum over polymers of (sum |lam|^p)^(1/p).

    Each group must consist of atoms on congruent, pairwise-disjoint cubes.
    """
    total = 0.0
    for group in groups:
        if not group:
            continue
        cubes = [rec.cube for _, rec in group]
        check_packing(cubes, cubes[0].side, "polymer group")
        lams = np.asarray([abs(l) for l, _ in group])
        total += float((lams**p).sum() ** (1.0 / p)) if p != INF else float(lams.max())
    return total
