"""Congruent-cube oscillation norms, ball seminorms, and amalgam norms.

The cube norms take a supremum over congruent tilings of the window: side
lengths come from a search set, offsets run over the cell sublattice modulo
the side, and at a fixed (side, offset) the maximal tiling is used (per-cube
terms are nonnegative, so dropping cubes never helps).  In one dimension an
exhaustive mode additionally maximizes over *all* cell-aligned packings of a
given side via dynamic programming, which realizes the supremum over
collections at lattice resolution; a brute-force enumeration oracle is kept
alongside as an independent check.

Cubes partially outside the window are dropped under the default ``restrict``
policy or kept with the function zero-extended under ``zero-extend``.  The
window truncation itself is a documented approximation: the continuum
supremum ranges over arbitrary placements in the whole space.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Ball, Cube, GridFunction, Window, grid_points, region_mask, whole_number
from .polyproj import (
    ConditioningError,
    Projector,
    moment_projection,
    space_dimension,
)

__all__ = [
    "NormParams",
    "SearchConfig",
    "NormReport",
    "PartitionSpec",
    "partition",
    "jn_con_norm",
    "rm_con_norm",
    "jn_partition_oracle",
    "jn_ball_seminorm",
    "rm_ball_seminorm",
    "amalgam_norm",
    "tail_integral_check",
    "TailDiagnostic",
]

INF = math.inf
_BALL_BATCH = 1 << 18  # clipped-ball entries (balls x offsets) per masked stack


def conjugate(p: float) -> float:
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormParams:
    """Exponents (p, q, s, alpha) of a cube norm."""

    p: float
    q: float
    s: int
    alpha: float

    def __post_init__(self):
        # written so that NaN fails every test
        if not self.p >= 1:
            raise ValueError("p must be >= 1 or inf")
        if not self.q >= 1:
            raise ValueError("q must be >= 1 or inf")
        object.__setattr__(self, "s", whole_number(self.s, "s"))
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def p_conj(self) -> float:
        return conjugate(self.p)

    @property
    def q_conj(self) -> float:
        return conjugate(self.q)

    def dual(self) -> "NormParams":
        return NormParams(self.p_conj, self.q_conj, self.s, self.alpha)

    def admissibility(self, delta: float, n: int) -> list[str]:
        """Violated hypotheses of the operator-boundedness statements."""
        out = []
        if not (1 < self.q < INF):
            out.append("q must lie in (1, inf)")
        if not (self.alpha < (self.s + delta) / n):
            out.append(f"alpha must be < (s + delta)/n = {(self.s + delta) / n}")
        return out

    def hk_admissibility(self, delta: float, n: int) -> list[str]:
        out = self.admissibility(delta, n)
        if not (1 < self.p < INF):
            out.append("p must lie in (1, inf)")
        gap = (1.0 / self.q if self.q != INF else 0.0) - (1.0 / self.p if self.p != INF else 0.0)
        if not (self.alpha > gap):
            out.append("alpha must exceed 1/q - 1/p")
        return out


@dataclass
class SearchConfig:
    """Search space for the congruent-cube supremum.

    side_cells: cube sides in cells per axis (None = dyadic default).
    offset_stride: stride through the cell offsets modulo the side.
    policy: 'restrict' drops partial cubes, 'zero-extend' keeps them padded.
    packings: 'tiling' uses one offset phase per collection; 'exhaustive'
        (1-D, restrict only) maximizes over all cell-aligned packings.
    """

    side_cells: list[int] | None = None
    offset_stride: int = 1
    policy: str = "restrict"
    packings: str = "tiling"
    min_cells_per_cube: int = 4

    def __post_init__(self):
        if self.policy not in ("restrict", "zero-extend"):
            raise ValueError(f"unknown policy {self.policy!r}; have 'restrict', 'zero-extend'")
        if self.packings not in ("tiling", "exhaustive"):
            raise ValueError(f"unknown packings {self.packings!r}; have 'tiling', 'exhaustive'")
        self.offset_stride = whole_number(self.offset_stride, "offset_stride", 1)

    def sides(self, window: Window, s: int) -> list[int]:
        n = window.n
        max_m = min(window.cells)
        dim = space_dimension(n, s)
        if self.side_cells is not None:
            sides = [int(m) for m in self.side_cells if 1 <= m <= max_m and m**n >= dim]
        else:
            sides = []
            m = 1
            while m <= max_m:
                if m**n >= max(self.min_cells_per_cube, dim):
                    sides.append(m)
                m *= 2
        if not sides:
            raise ValueError("no admissible cube side in the search set")
        return sides

    @classmethod
    def full(cls, window: Window) -> "SearchConfig":
        """Every cell side, every offset, exhaustive packings (1-D)."""
        return cls(
            side_cells=list(range(1, min(window.cells) + 1)),
            offset_stride=1,
            policy="restrict",
            packings="exhaustive" if window.n == 1 else "tiling",
            min_cells_per_cube=1,
        )


@dataclass
class NormReport:
    """Value of a cube-norm search plus enough data to recompute it."""

    name: str
    value: float
    p: float
    q: float
    s: int | None
    alpha: float
    argmax_side: float | None
    argmax_offset: tuple | None
    cubes: list = field(default_factory=list)  # dicts: center, side, term
    policy: str = "restrict"
    grid_cells: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def recompute(self) -> float:
        terms = np.asarray([c["term"] for c in self.cubes], dtype=float)
        if terms.size == 0:
            return 0.0
        if self.p == INF:
            return float(terms.max())
        return float(terms.sum() ** (1.0 / self.p))

    def csv_row(self) -> dict:
        off = self.argmax_offset
        return {
            "norm_name": self.name,
            "p": self.p,
            "q": self.q,
            "s": "" if self.s is None else self.s,
            "alpha": self.alpha,
            "value": self.value,
            "argmax_side": "" if self.argmax_side is None else self.argmax_side,
            "argmax_offset": "" if off is None else "x".join(str(o) for o in off),
            "grid_cells": "x".join(str(c) for c in self.grid_cells),
            "policy": self.policy,
        }


@dataclass
class PartitionSpec:
    """One congruent tiling of the window: side, offset phase, cube list.

    Cubes are congruent and interior pairwise disjoint; under ``restrict``
    every cube lies fully inside the window, under ``zero-extend`` partial
    boundary cubes are kept.
    """

    side: float
    offset: tuple
    cubes: list
    policy: str

    def __post_init__(self):
        if not self.cubes:
            raise ValueError("a partition needs at least one cube")
        for c in self.cubes:
            if abs(c.side - self.side) > 1e-12 * self.side:
                raise ValueError("partition cubes must be congruent")
        for i in range(len(self.cubes)):
            for j in range(i + 1, len(self.cubes)):
                ci = np.asarray(self.cubes[i].center)
                cj = np.asarray(self.cubes[j].center)
                if np.all(np.abs(ci - cj) < self.side * (1 - 1e-12)):
                    raise ValueError("partition cubes must be interior disjoint")


def partition(window: Window, side_cells: int, offset, policy: str = "restrict") -> PartitionSpec:
    """The maximal congruent tiling of the window at one (side, offset)."""
    offset = tuple(int(o) for o in np.atleast_1d(offset))
    if len(offset) != window.n or any(not 0 <= o < side_cells for o in offset):
        raise ValueError("offset must have one entry per axis in [0, side_cells)")
    _, layout = _tiling_blocks(np.zeros(window.cells), window.n, side_cells, offset, policy)
    if layout is None:
        raise ValueError("no cube of this side fits the window at this offset")
    h = window.h
    lower = np.asarray(window.lower)
    cubes = [Cube(tuple(lower + c * h), side_cells * h) for c in _tile_centers(layout, side_cells)]
    return PartitionSpec(side_cells * h, offset, cubes, policy)


def _projector(pts, s: int | None, anchor, scale: float, keep=None) -> Projector | None:
    """Degree-s projector on pts; None for the plain-L^q variant s = None."""
    return None if s is None else Projector(pts, s, anchor, scale, keep)


def _residual(projector: Projector | None, batch: np.ndarray) -> np.ndarray:
    return batch if projector is None else projector.residual(batch)


def _qmean(resid: np.ndarray, q: float, counts=None) -> np.ndarray:
    """Per-row L^q mean; rows padded with zeros pass their true cell counts."""
    if q == INF:
        return np.abs(resid).max(axis=1)
    counts = resid.shape[1] if counts is None else counts
    return ((np.abs(resid) ** q).sum(axis=1) / counts) ** (1.0 / q)


def _tiling_blocks(values: np.ndarray, n: int, m: int, offset: tuple, policy: str):
    """Cube-value batches (one row per cube, row-major over cubes) and the
    tiling's layout: per axis the first cube's start cell and the cube count."""
    if policy == "restrict":
        firsts = list(offset)
        counts = [(N - o) // m for N, o in zip(values.shape, offset)]
        if min(counts) <= 0:
            return None, None
        box = values[tuple(slice(o, o + k * m) for o, k in zip(offset, counts))]
    else:
        firsts = [o - m if o else 0 for o in offset]  # first cube starts at or before 0
        counts = [math.ceil((N - f) / m) for N, f in zip(values.shape, firsts)]
        box = np.pad(
            values[tuple(slice(max(f, 0), None) for f in firsts)],
            [(max(-f, 0), f + k * m - N) for f, k, N in zip(firsts, counts, values.shape)],
        )
    # (k0, m, k1, m) -> (k0, k1, m, m): one row per cube, row-major over cubes
    split = box.reshape([d for k in counts for d in (k, m)])
    cubes = split.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(-1, m**n)
    return cubes, (firsts, counts)


def _tile_centers(layout, m: int) -> np.ndarray:
    """Cube centers in cell units, one per batch row of _tiling_blocks."""
    firsts, counts = layout
    return grid_points([f + m * np.arange(k) + m / 2.0 for f, k in zip(firsts, counts)])


def _cube_norm(f: GridFunction, p, q, s, alpha, search: SearchConfig, name: str) -> NormReport:
    """Shared engine: s is None for the plain-L^q (Riesz-Morrey) variant."""
    window = f.window
    n = window.n
    h = window.h
    if search.packings == "exhaustive" and (n != 1 or search.policy != "restrict"):
        raise ValueError("exhaustive packings are available in 1-D under restrict only")
    sides = search.sides(window, 0 if s is None else s)
    values = f.values
    best_value = -1.0
    best: dict | None = None
    skipped: list[int] = []

    for m in sides:
        try:
            # one projector serves every cube of m cells per axis: cell
            # midpoints in cell units, anchored at the center, half-side scale
            projector = _projector(grid_points([np.arange(m) + 0.5] * n), s, (m / 2.0,) * n, m / 2.0)
        except ConditioningError:
            skipped.append(m)
            continue
        measure = float(m**n) * window.cell_measure
        weight = measure ** (-alpha)
        if search.packings == "exhaustive":
            cand = _exhaustive_side(values, projector, m, measure, weight, p, q)
            if cand is not None and cand["value"] > best_value:
                best_value = cand["value"]
                best = cand
            continue
        for offset in itertools.product(range(0, m, search.offset_stride), repeat=n):
            block, layout = _tiling_blocks(values, n, m, offset, search.policy)
            if block is None:
                continue
            qm = _qmean(_residual(projector, block), q)
            if p == INF:
                terms = weight * qm
                idx = int(np.argmax(terms))
                val = float(terms[idx])
                if val > best_value:
                    best_value = val
                    best = {
                        "value": val,
                        "side": m,
                        "offset": offset,
                        "centers": _tile_centers(layout, m)[idx : idx + 1],
                        "terms": terms[idx : idx + 1],
                    }
            else:
                terms = measure * (weight * qm) ** p
                val = float(terms.sum() ** (1.0 / p))
                if val > best_value:
                    best_value = val
                    best = {
                        "value": val,
                        "side": m,
                        "offset": offset,
                        "centers": _tile_centers(layout, m),
                        "terms": terms,
                    }

    if best is None:
        raise ValueError("search produced no admissible cube")
    lower = np.asarray(window.lower)
    cubes = [
        {
            "center": tuple(lower + np.atleast_1d(c) * h),
            "side": best["side"] * h,
            "term": float(t),
        }
        for c, t in zip(best["centers"], best["terms"])
    ]
    return NormReport(
        name=name,
        value=best_value,
        p=p,
        q=q,
        s=s,
        alpha=alpha,
        argmax_side=best["side"] * h,
        argmax_offset=best.get("offset"),
        cubes=cubes,
        policy=search.policy,
        grid_cells=window.cells,
        diagnostics={"skipped_sides": skipped, "packings": search.packings},
    )


def _exhaustive_side(values, projector, m, measure, weight, p, q):
    """Best packing of side-m cubes over all cell positions (1-D DP)."""
    N = values.shape[0]
    if m > N:
        return None
    sw = np.lib.stride_tricks.sliding_window_view(values, m)
    qm = _qmean(_residual(projector, np.ascontiguousarray(sw)), q)
    if p == INF:
        idx = int(np.argmax(weight * qm))
        val = float(weight * qm[idx])
        return {
            "value": val,
            "side": m,
            "offset": None,
            "centers": np.asarray([[idx + m / 2.0]]),
            "terms": np.asarray([val]),
        }
    c = measure * (weight * qm) ** p
    dp = np.zeros(N + 1)
    take = np.zeros(N + 1, dtype=bool)
    for i in range(1, N + 1):
        dp[i] = dp[i - 1]
        if i >= m and dp[i - m] + c[i - m] > dp[i]:
            dp[i] = dp[i - m] + c[i - m]
            take[i] = True
    positions = []
    i = N
    while i > 0:
        if take[i]:
            positions.append(i - m)
            i -= m
        else:
            i -= 1
    positions.reverse()
    terms = np.asarray([c[pos] for pos in positions])
    centers = np.asarray([[pos + m / 2.0] for pos in positions])
    return {
        "value": float(dp[N] ** (1.0 / p)),
        "side": m,
        "offset": None,
        "centers": centers,
        "terms": terms,
    }


def jn_con_norm(f: GridFunction, params: NormParams, search: SearchConfig | None = None) -> NormReport:
    """Congruent-cube mean-oscillation norm (Campanato branch at p = inf)."""
    search = search or SearchConfig()
    return _cube_norm(f, params.p, params.q, params.s, params.alpha, search, "jn_con")


def rm_con_norm(
    f: GridFunction, p: float, q: float, alpha: float, search: SearchConfig | None = None
) -> NormReport:
    """Congruent-cube L^q aggregate with weight |Q|^(-alpha - 1/q)."""
    search = search or SearchConfig()
    return _cube_norm(f, p, q, None, alpha, search, "rm_con")


def jn_partition_oracle(f: GridFunction, params: NormParams) -> float:
    """Brute-force supremum over all cell-aligned congruent packings (1-D).

    Enumerates every maximal packing recursively; per-cube terms are
    nonnegative, so maximal packings dominate all collections.  Instances are
    capped at 16 cells.
    """
    window = f.window
    if window.n != 1:
        raise ValueError("oracle is 1-D only")
    N = window.cells[0]
    if N > 16:
        raise ValueError("oracle instances are capped at 16 cells")
    if params.p == INF or params.q == INF:
        raise ValueError("oracle needs finite p and q")
    h = window.h
    vals = f.values
    mids = window.axis_midpoints(0)
    dim = params.s + 1
    best_total = 0.0

    for m in range(1, N + 1):
        if m < dim:
            continue
        contrib = np.empty(N - m + 1)
        for pos in range(N - m + 1):
            seg = vals[pos : pos + m]
            x = mids[pos : pos + m]
            if params.s == 0:
                resid = seg - seg.mean()
            else:
                design = np.vander(x, dim, increasing=True)
                coef, *_ = np.linalg.lstsq(design, seg, rcond=None)
                resid = seg - design @ coef
            measure = m * h
            qm = float((np.abs(resid) ** params.q).mean() ** (1.0 / params.q))
            contrib[pos] = measure * (measure ** (-params.alpha) * qm) ** params.p

        def walk(start: int, total: float):
            nonlocal best_total
            placed = False
            for pos in range(start, min(start + m, N - m + 1)):
                placed = True
                walk(pos + m, total + contrib[pos])
            if not placed and total > best_total:
                best_total = total

        walk(0, 0.0)

    return best_total ** (1.0 / params.p)


def _ball_sweep(f: GridFunction, radius: float, s: int | None, q: float):
    """Per-center q-means over balls B(y, radius), y over all midpoints.

    Returns (qmeans, counts).  Interior balls share cell geometry and run
    batched through one projector.  Balls clipped by the window edge run as
    masked stacks: each row keeps the offsets that stay inside the window.
    """
    window = f.window
    n = window.n
    h = window.h
    if not (math.isfinite(radius) and radius > 2 * h):
        raise ValueError("radius must be finite and exceed 2h")
    K = math.ceil(radius / h) - 1  # lattice offsets k with |k| h < radius
    offs = grid_points([np.arange(-K, K + 1)] * n)
    offs = offs[(offs**2).sum(axis=1) * h**2 < radius**2]
    rel = offs * h  # the projector's points, relative to the ball center
    cells = np.asarray(window.cells)
    flat_offs = offs @ np.asarray([int(np.prod(cells[a + 1 :])) for a in range(n)])
    centers = np.stack(np.unravel_index(np.arange(window.cell_count), window.cells), axis=1)
    interior = np.all((centers >= K) & (centers < cells - K), axis=1)
    vals = f.flat
    qmeans = np.empty(window.cell_count)
    counts = np.full(window.cell_count, offs.shape[0])
    if interior.any():
        batch = vals[np.nonzero(interior)[0][:, None] + flat_offs]
        qmeans[interior] = _qmean(_residual(_projector(rel, s, None, radius), batch), q)
    boundary = np.nonzero(~interior)[0]
    chunk = max(1, _BALL_BATCH // offs.shape[0])
    for start in range(0, boundary.size, chunk):
        c = boundary[start : start + chunk]
        pos = centers[c][:, None, :] + offs
        keep = np.all((pos >= 0) & (pos < cells), axis=2)
        batch = np.where(keep, vals[np.where(keep, c[:, None] + flat_offs, 0)], 0.0)
        counts[c] = keep.sum(axis=1)
        resid = _residual(_projector(rel, s, None, radius, keep), batch)
        qmeans[c] = _qmean(resid, q, counts[c])
    return qmeans, counts


def _ball_aggregate(f: GridFunction, p, q, alpha, s, radii, name) -> NormReport:
    window = f.window
    hn = window.cell_measure
    best_val = -1.0
    best_r = None
    per_radius = {}
    for r in radii:
        qmeans, counts = _ball_sweep(f, float(r), s, q)
        meas = counts * hn
        terms = meas ** (-alpha) * qmeans if alpha != 0 else qmeans
        if p == INF:
            val = float(terms.max())
        else:
            val = float(((terms**p) * hn).sum() ** (1.0 / p))
        per_radius[float(r)] = val
        if val > best_val:
            best_val = val
            best_r = float(r)
    return NormReport(
        name=name,
        value=best_val,
        p=p,
        q=q,
        s=s,
        alpha=alpha,
        argmax_side=best_r,
        argmax_offset=None,
        cubes=[],
        policy="restrict",
        grid_cells=window.cells,
        diagnostics={"per_radius": per_radius, "centers": "all cell midpoints"},
    )


def jn_ball_seminorm(f: GridFunction, params: NormParams, radii) -> NormReport:
    """Ball-based equivalent seminorm: centers integrate over the window."""
    return _ball_aggregate(f, params.p, params.q, params.alpha, params.s, radii, "jn_ball")


def rm_ball_seminorm(f: GridFunction, p: float, q: float, alpha: float, radii) -> NormReport:
    return _ball_aggregate(f, p, q, alpha, None, radii, "rm_ball")


def amalgam_norm(f: GridFunction, p: float, q: float, r: float) -> float:
    """Wiener-amalgam style norm: l^p over centers of ball L^q means."""
    qmeans, _ = _ball_sweep(f, float(r), None, q)
    if p == INF:
        return float(qmeans.max())
    return float(((qmeans**p) * f.window.cell_measure).sum() ** (1.0 / p))


@dataclass
class TailDiagnostic:
    lhs: float
    rhs: float
    ratio: float
    jn_value: float
    hypothesis_violations: list

    @property
    def hypothesis_ok(self) -> bool:
        return not self.hypothesis_violations


def tail_integral_check(
    f: GridFunction,
    ball: Ball,
    s: int,
    beta: float,
    params: NormParams,
    search: SearchConfig | None = None,
) -> TailDiagnostic:
    """Decay of the projected tail integral against the cube-norm bound.

    lhs = sum over window cells outside the ball of
    |f - P_B f| / |x - y|^(n + beta) h^n; rhs is
    r^(-n/p - beta + alpha n) times the cube norm.
    """
    window = f.window
    n = window.n
    violations = []
    if not beta > s:
        violations.append("beta must exceed s")
    inv_p = 0.0 if params.p == INF else 1.0 / params.p
    if not params.alpha < inv_p + beta / n:
        violations.append("alpha must be < 1/p + beta/n")
    P = moment_projection(f, ball, s)
    pts = window.midpoints()
    resid = np.abs(f.flat - P(pts))
    outside = ~region_mask(window, ball)
    d = np.linalg.norm(pts - np.asarray(ball.center), axis=1)
    lhs = float(
        (resid[outside] / d[outside] ** (n + beta)).sum() * window.cell_measure
    )
    jn = jn_con_norm(f, params, search).value
    rhs = ball.radius ** (-n * inv_p - beta + params.alpha * n) * jn
    ratio = lhs / rhs if rhs > 0 else INF
    return TailDiagnostic(lhs, rhs, ratio, jn, violations)
