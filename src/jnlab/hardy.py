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

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .lattice import (
    Cube,
    GridFunction,
    Window,
    _lq,
    _memo,
    _real_number,
    annulus,
    check_packing,
    lq_norm,
    moments,
    region_cells,
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
    "decompose_molecule",
    "DecompositionReport",
    "DecompositionAtom",
    "pairing",
    "hk_upper_bound",
]

ATOM_NORM_RTOL = 1e-10
ATOM_MOMENT_RTOL = 1e-8
INF = math.inf
# make_molecule's annulus pieces and dual-basis tail pairs, as fractions of their bounds
_MARGIN = 0.8
_TAIL_WEIGHT = 0.1


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
    route: str = "support"  # "support": every cell read lies in the cube; "window": some lie beyond it
    cells_read: int = 0  # cells whose values the check read; in no output file

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class AtomRecord:
    """An atom as built: cell_values on the flat cells of the window, zero elsewhere."""

    cube: Cube
    params: object
    window: Window
    cells: np.ndarray
    cell_values: np.ndarray
    seed: int | None
    certification: AtomCertification

    @functools.cached_property
    def values(self) -> GridFunction:
        """The atom on the whole window, built on the first read."""
        flat = np.zeros(self.window.cell_count)
        flat[self.cells] = self.cell_values
        return GridFunction(self.window, flat.reshape(self.window.cells))


@_memo
def _monomial_columns(window: Window, s: int) -> np.ndarray:
    """The monomials x^gamma, |gamma| <= s, on every cell of the window: one
    contiguous row each, ordered like multi_indices, shape (dim, cells)."""
    return np.stack([GridFunction.monomial(window, g).flat for g in multi_indices(window.n, s)])


@_memo
def _cube_axes(window: Window, cube: Cube) -> tuple:
    """Per axis, which indices the cube's cells take.  They form a box, so a
    cell lies in the cube iff each of its indices is taken: a lookup per axis
    and nothing window-sized kept per cube."""
    mask = region_mask(window, cube).reshape(window.cells)
    return tuple(mask.any(axis=tuple(b for b in range(window.n) if b != a)) for a in range(window.n))


def _moment_defects(window: Window, vals, nz, s: int, side: float, l1: float, failures: list):
    """|moment| of vals on the flat cells nz and its scale l1 side^|gamma|, l1 the L^1
    mass, per |gamma| <= s; a defect above ATOM_MOMENT_RTOL * scale appends a failure."""
    found = moments(vals, np.take(_monomial_columns(window, s), nz, axis=1).T, window.cell_measure)
    defects, scales = {}, {}
    for g, m in zip(multi_indices(window.n, s), found):
        defects[g] = abs(m)
        scales[g] = l1 * side ** sum(g)
        if defects[g] > ATOM_MOMENT_RTOL * scales[g]:
            failures.append(f"moment {g}: defect {defects[g]:.3e} exceeds tolerance")
    return defects, scales


def _certify(window: Window, cells: np.ndarray, vals: np.ndarray, cube: Cube, params, l1: float,
             inside=None) -> AtomCertification:
    """Certify vals on the flat cells (zero elsewhere) as an atom on the cube,
    reading those cells alone; l1 is its L^1 mass, and inside says which cells
    lie in the cube when the caller holds it (else they are looked up per
    axis).  Support: every nonzero cell lies in the cube.  Size: the L^q norm
    over the cells in the cube, and moments: the sums over the nonzero cells,
    each in the order given."""
    if inside is None:
        marks = _cube_axes(window, cube)
        if window.n == 1:
            inside = marks[0][cells]
        else:  # a floor division by a scalar is fast, np.divmod and % are not
            rows = cells // window.cells[1]
            inside = marks[0][rows] & marks[1][cells - rows * window.cells[1]]
    whole = inside.all()  # as for every constructed atom: no cell to sort out
    inner, count = vals if whole else vals[inside], np.count_nonzero(vals)
    support_exact = whole or np.count_nonzero(inner) == count
    bound = region_measure(window, cube) ** norm_exponent(params)
    norm_ratio = _lq(inner, params.q, window.cell_measure) / bound if bound > 0 else INF
    failures = [] if support_exact else ["support: nonzero cells outside the cube"]
    if norm_ratio > 1.0 + ATOM_NORM_RTOL:
        failures.append(f"size: L^q ratio {norm_ratio:.12g} exceeds 1")
    nz = slice(None) if count == vals.size else np.flatnonzero(vals)
    defects, scales = _moment_defects(window, vals[nz], cells[nz], params.s, cube.side, l1, failures)
    route = "support" if whole else "window"
    return AtomCertification(bool(support_exact), norm_ratio, defects, scales, failures, route, cells.size)


def validate_atom(values: GridFunction, cube: Cube, params) -> AtomCertification:
    """Check support, L^q size, and vanishing moments; failures are data.

    _certify reads the cube's cells (route "support") if they hold every
    nonzero cell, else every window cell (route "window"), in row-major
    order either way, with the window's L^1 mass as the moment scale."""
    window, flat = values.window, values.flat
    cells = region_cells(window, cube)
    vals, inside = flat[cells], np.ones(cells.size, bool)  # region_cells lists the cube's cells
    if np.count_nonzero(flat != 0.0) != np.count_nonzero(vals):  # bool counts are fast
        cells, vals, inside = np.arange(window.cell_count), flat, region_mask(window, cube)
    cert = _certify(window, cells, vals, cube, params, float(np.abs(flat).sum()) * window.cell_measure, inside)
    cert.cells_read = window.cell_count  # the nonzero count and the L^1 mass read the window
    return cert


def _certified_atom(window: Window, cells, vals, cube: Cube, params, what: str, seed=None) -> AtomRecord:
    """The record of the atom vals on the flat cells (zero elsewhere) on the cube, certified
    on those cells alone; raises CertificationError naming `what` if it fails."""
    cert = _certify(window, cells, vals, cube, params, float(np.abs(vals).sum()) * window.cell_measure)
    if not cert.passed:
        raise CertificationError(f"{what} failed: {cert.failures}")
    return AtomRecord(cube, params, window, cells, vals, seed, cert)


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
    cells = region_cells(window, cube)
    count = cells.size
    if count < (params.s + 2) ** window.n:
        raise ValueError(f"cube holds {count} cells; need at least {(params.s + 2) ** window.n}")
    if seed_values is None:
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, size=count)
    else:
        raw = np.broadcast_to(np.asarray(seed_values, dtype=float), (count,))
    resid = Projector.on_region(window, cube, params.s)[0].residual(raw)
    norm = _lq(resid, params.q, window.cell_measure)
    ref = _lq(raw, params.q, window.cell_measure)
    if norm <= 1e-13 * max(ref, 1.0):
        raise ZeroAtomError("projection removed the seed function entirely")
    bound = region_measure(window, cube) ** norm_exponent(params)
    seed = seed if seed_values is None else None
    return _certified_atom(window, cells, resid * (bound / norm), cube, params, "constructed atom", seed)


@dataclass
class MoleculeCertification:
    core_ratio: float
    annulus_ratios: list
    moment_defects: dict
    moment_scales: dict
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
    certification: MoleculeCertification | None = None  # None until something certifies it


def validate_molecule(
    values: GridFunction,
    cube: Cube,
    params,
    epsilon: float,
    j_max: int,
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
    nz = np.flatnonzero(values.flat)
    l1 = float(np.abs(values.flat).sum()) * window.cell_measure
    defects, scales = _moment_defects(window, values.flat[nz], nz, params.s, cube.side * 2**j_max, l1, failures)
    return MoleculeCertification(core_ratio, ratios, defects, scales, failures)


def repair_moments(values: GridFunction, cube: Cube, s: int) -> GridFunction:
    """Cancel the global moments by a dual-basis correction on the core cube.

    Wide-window operator images carry a truncation-level moment defect; this
    subtracts sum_nu (int M x^nu) psi_nu 1_core / |core|, which has exactly
    the same moments, leaving the tails untouched.
    """
    window = values.window
    cells, _, duals, measure = _annulus_levels(window, cube, s, 0)[0]
    m = moments(values.flat, _monomial_columns(window, s).T, window.cell_measure)
    # moments must be removed jointly: build the correction, then subtract
    corr = np.zeros(window.cell_count)
    for m_nu, psi in zip(m, duals):
        corr[cells] += m_nu * psi / measure
    return GridFunction(window, (values.flat - corr).reshape(window.cells))


@_memo
def _annulus_level(window: Window, cube: Cube, s: int, j: int) -> tuple:
    """Level j of the dyadic ladder around the core cube Q: the cells of
    L_j = Q_j minus Q_{j-1} (Q_0 at j = 0; Q_j = 2^j Q) as region_cells lists
    them, the projector on them, the duals psi_nu there (each caller divides
    them by |L_j| at its own place in the product) and |L_j|.  It holds no
    values, so each geometry is built once and shared, read-only."""
    q = cube.dilate(2**j)
    cells = region_cells(window, annulus(cube.center, cube.side, j))
    if not cells.size:
        raise ValueError(f"window does not reach annulus level {j}")
    pts = window.cell_midpoints(cells)
    proj = Projector(pts, s, q.center, q.scale)
    return cells, proj, tuple(psi(pts) for psi in proj.bases()[1]), float(cells.size) * window.cell_measure


def _annulus_levels(window: Window, cube: Cube, s: int, j_max: int) -> tuple:
    """The dyadic ladder around the core cube, levels 0 to j_max."""
    return tuple(_annulus_level(window, cube, s, j) for j in range(j_max + 1))


@_memo
def _outside_cells(window: Window, cube: Cube) -> np.ndarray:
    """The sorted flat indices of the window cells outside the cube: the
    cells of a tail moment."""
    return np.flatnonzero(~region_mask(window, cube))


def _dual_step(levels, j: int, nu: int) -> tuple:
    """psi_nu^{(j+1)} 1_{L_{j+1}} / |L_{j+1}| - psi_nu^{(j)} 1_{L_j} / |L_j|
    as its values (lo, hi) on the cells of L_j and of L_{j+1}."""
    (_, _, psi_lo, m_lo), (_, _, psi_hi, m_hi) = levels[j], levels[j + 1]
    return 0.0 - psi_lo[nu] / m_lo, psi_hi[nu] / m_hi


def make_molecule(
    seed: int, cube: Cube, params, epsilon: float, window: Window, j_max: int
) -> MoleculeRecord:
    """Seeded molecule with nonzero tail moments and decay margins < 1.

    Per-annulus moment-free noise supplies the bulk; dual-basis pair terms on
    adjacent annuli (jointly moment-free, but with nonzero dyadic tail
    moments) make the decomposition's correction atoms nondegenerate.
    """
    if params.q == INF:
        raise ParameterError("q = inf molecules are excluded")
    j_max = whole_number(j_max, "j_max")
    rng = np.random.default_rng(seed)
    c = norm_exponent(params)
    cm = window.cell_measure
    total = np.zeros(window.cell_count)
    levels = _annulus_levels(window, cube, params.s, j_max)
    core_bound = levels[0][3] ** c
    bounds = [core_bound * (2.0 ** (j * window.n / epsilon * c) if j else 1.0) for j in range(j_max + 1)]
    for j, (cells, proj, _, _) in enumerate(levels):
        piece = proj.residual(rng.uniform(-1.0, 1.0, size=cells.size))
        norm = _lq(piece, params.q, cm)
        if norm <= 0:
            raise ZeroAtomError("degenerate annulus piece")
        total[cells] += piece * (_MARGIN * bounds[j] / norm)
    gammas = multi_indices(window.n, params.s)
    for j in range(j_max):
        for gi in range(len(gammas)):
            lo, hi = _dual_step(levels, j, gi)
            norm_lo, norm_hi = _lq(lo, params.q, cm), _lq(hi, params.q, cm)
            cap = min(
                bounds[j] / norm_lo if norm_lo > 0 else INF,
                bounds[j + 1] / norm_hi if norm_hi > 0 else INF,
            )
            amp = _TAIL_WEIGHT * cap * rng.uniform(0.5, 1.0) / len(gammas)
            sign = 1 if rng.random() < 0.5 else -1
            total[levels[j][0]] += amp * lo * sign
            total[levels[j + 1][0]] += amp * hi * sign
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
    s = whole_number(s, "s")
    n = whole_number(n, "n", 1)
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


def pairing(g: GridFunction, f: GridFunction) -> float:
    """Discrete integral of g * f; both functions must share one lattice."""
    if g.window != f.window:
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


def decompose_molecule(mol: MoleculeRecord, l_max: int) -> DecompositionReport:
    """Constructive decomposition of a molecule into certified atoms.

    Level-j residuals (M - P_j) 1_{L_j} give core atoms A_j with coefficients
    lambda_j = (1 + C) 2^{j n (1/eps - 1)(1/q - 1/p - alpha)}, where C is the
    measured annulus-projection constant.  Summation by parts on the tail
    moments eta_nu^{(j)} turns the projections into correction atoms built
    from dual bases on adjacent annuli, leaving the explicit tail term at the
    top level.  The reconstruction residual is checked at every level.
    The molecule is certified here whatever mol.certification holds.
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
    if region_cells(window, cubes[0]).size != side_cells**n:
        raise CertificationError("core cube must be cell-aligned inside the window")
    if region_cells(window, cubes[l_max]).size != (side_cells * 2**l_max) ** n:
        raise CertificationError(f"window does not fully contain level {l_max}")

    cert = validate_molecule(mol.values, cube, params, eps, l_max)
    if not cert.passed:
        raise CertificationError(f"molecule certification failed: {cert.failures}")

    c_exp = norm_exponent(params)
    decay = 2.0 ** (n * (1.0 / eps - 1.0) * c_exp)
    vals = mol.values.flat
    cm = window.cell_measure
    gammas = multi_indices(n, s)

    # each per-level array holds the values on the cells of one L_j, in the
    # ladder's order, as each atom's record does; only the tail term fills a window
    levels = _annulus_levels(window, cube, s, l_max)
    on = [vals[cells] for cells, *_ in levels]
    core, c_proj = [], 0.0
    for v, (_, proj, _, _) in zip(on, levels):
        fit = proj.fit(v)
        core.append(v - fit)
        mean_abs = float(np.abs(v).mean())
        if mean_abs > 0:
            c_proj = max(c_proj, float(np.abs(fit).max()) / mean_abs)

    lam_core = 1.0 + c_proj

    atoms: list[DecompositionAtom] = []
    for j, (cells, *_) in enumerate(levels):
        lam_j = lam_core * decay**j
        if np.any(core[j]):
            a_vals = core[j] / lam_j
            rec = _certified_atom(window, cells, a_vals, cubes[j], params, f"core atom at level {j}")
            atoms.append(DecompositionAtom(j, "core", None, lam_j, rec))
            core[j] = lam_j * a_vals  # from here on, level j's share of the core partial sums

    # tail moments over the window beyond each dyadic cube
    eta = np.zeros((l_max + 1, len(gammas)))
    for j in range(l_max + 1):
        out = _outside_cells(window, cubes[j])
        eta[j] = moments(vals[out], np.take(_monomial_columns(window, s), out, axis=1).T, cm)

    # correction pieces eta_nu^{(j)} [ psi^{(j+1)} 1_{L_{j+1}} / |L_{j+1}| - psi^{(j)} 1_{L_j} / |L_j| ]
    # on the cells of L_j then L_{j+1}; a norm over Q_{j+1} reads them back
    # from buf in the window's order, with Q_{j-1}'s zeros
    buf = np.zeros(window.cell_count)
    pairs = [np.concatenate((levels[j][0], levels[j + 1][0])) for j in range(l_max)]
    tilde_raw = {}
    tilde_norm_max = 0.0
    for j, pair in enumerate(pairs):
        bound = decay**j * region_measure(window, cubes[j + 1]) ** c_exp
        for gi, g in enumerate(gammas):
            piece = np.concatenate(_dual_step(levels, j, gi)) * eta[j, gi]
            buf[pair] = piece
            norm = _lq(buf[region_cells(window, cubes[j + 1])], params.q, cm)
            tilde_raw[(j, g)] = (piece, norm)
            if norm > 0:
                tilde_norm_max = max(tilde_norm_max, norm / bound)
        buf[pair] = 0.0

    # per level l: the reconstruction residual from the partial sums of the
    # atoms below l and the tail term, then level l's correction atoms.
    # buf holds M 1_{Q_l} - reconstruction on Q_l and zeros beyond, so the
    # L^1 sum keeps the window's order; L_k's entry is final once k < l
    c_tilde = tilde_norm_max * (1.0 + 1e-8)
    corr = [np.zeros(v.size) for v in on]
    residuals = []
    m_l1 = float(np.abs(vals).sum()) * cm
    for l, (cells, _, duals, measure) in enumerate(levels):
        if l:
            buf[levels[l - 1][0]] = on[l - 1] - (core[l - 1] + corr[l - 1])
        tail = np.zeros(cells.size)
        for gi, psi in enumerate(duals):
            tail -= eta[l, gi] * (psi / measure)
        buf[cells] = on[l] - ((core[l] + corr[l]) + tail)
        residuals.append(float(np.abs(buf).sum()) * cm / max(m_l1, 1e-300))
        if l == l_max:
            break
        lam_t = c_tilde * decay**l
        for g in gammas:
            piece, norm = tilde_raw[(l, g)]
            if norm == 0.0 or c_tilde == 0.0:
                continue
            what = f"correction atom level {l}, nu={g}"
            rec = _certified_atom(window, pairs[l], piece / lam_t, cubes[l + 1], params, what)
            atoms.append(DecompositionAtom(l, "correction", g, lam_t, rec))
            corr[l] += piece[: cells.size]
            corr[l + 1] += piece[cells.size :]
    tail_term = np.zeros(window.cell_count)
    tail_term[cells] = tail  # level l_max's, the loop's last

    p = params.p
    lam_values = [a.lam for a in atoms if a.kind == "core"]
    coef_core = float(sum(l**p for l in lam_values))
    coef_all = float(sum(a.lam**p for a in atoms))
    ratio_p = decay**p
    geometric = lam_core**p / (1.0 - ratio_p) if ratio_p < 1 else INF

    return DecompositionReport(
        atoms=atoms,
        tail_term=GridFunction(window, tail_term.reshape(window.cells)),
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
    p = _real_number(p, "p", 1)
    total = 0.0
    for group in groups:
        if not group:
            continue
        cubes = [rec.cube for _, rec in group]
        check_packing(cubes, cubes[0].side, "polymer group")
        lams = np.asarray([abs(l) for l, _ in group])
        total += float((lams**p).sum() ** (1.0 / p)) if p != INF else float(lams.max())
    return total
