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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lattice import (
    Ball, Cube, GridFunction, Window, _frozen, check_packing, grid_points, region_mask, whole_number
)
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
_BALL_BATCH = 1 << 18  # ball entries (centers x offsets) per row band
_TABLE_BATCH = 1 << 14  # cube entries (cubes x cells per cube) per projection batch


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
        if self.side_cells is not None:
            self.side_cells = [whole_number(m, "side_cells entry", 1) for m in self.side_cells]

    def sides(self, window: Window, s: int) -> list[int]:
        n = window.n
        max_m = min(window.cells)
        dim = space_dimension(n, s)
        if self.side_cells is not None:
            sides = [m for m in self.side_cells if m <= max_m and m**n >= dim]
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
        check_packing(self.cubes, self.side, "partition")


def partition(window: Window, side_cells: int, offset, policy: str = "restrict") -> PartitionSpec:
    """The maximal congruent tiling of the window at one (side, offset)."""
    offset = tuple(int(o) for o in np.atleast_1d(offset))
    if len(offset) != window.n or any(not 0 <= o < side_cells for o in offset):
        raise ValueError("offset must have one entry per axis in [0, side_cells)")
    layout = [_tiling_layout(N, side_cells, o, policy) for N, o in zip(window.cells, offset)]
    if min(k for _, k in layout) <= 0:
        raise ValueError("no cube of this side fits the window at this offset")
    h = window.h
    lower = np.asarray(window.lower)
    cubes = [Cube(tuple(lower + c * h), side_cells * h) for c in _tile_centers(layout, side_cells)]
    return PartitionSpec(side_cells * h, offset, cubes, policy)


def _qmean(resid: np.ndarray, q: float, counts=None) -> np.ndarray:
    """Per-row L^q mean; rows padded with zeros pass their true cell counts."""
    if q == INF:
        return np.abs(resid).max(axis=1)
    counts = resid.shape[1] if counts is None else counts
    return ((np.abs(resid) ** q).sum(axis=1) / counts) ** (1.0 / q)


def _tiling_layout(cells: int, m: int, offset, policy: str):
    """Along one axis of `cells` cells, the maximal side-m tiling at each
    offset in [0, m): its first cube's start cell and its cube count."""
    offset = np.asarray(offset)
    if policy == "restrict":
        return offset, (cells - offset) // m
    first = np.where(offset > 0, offset - m, 0)  # the first cube starts at or before cell 0
    return first, (cells - first + m - 1) // m


def _tile_centers(layout, m: int) -> np.ndarray:
    """Cube centers in cell units, row-major over the cubes of one tiling."""
    return grid_points([f + m * np.arange(k) + m / 2.0 for f, k in layout])


@functools.lru_cache(maxsize=32)
def _cube_projector(n: int, m: int, s: int) -> Projector:
    """The projector of every cube of m cells per axis: cell midpoints in
    cell units, anchored at the center, half-side scale."""
    return Projector(grid_points([np.arange(m) + 0.5] * n), s, (m / 2.0,) * n, m / 2.0)


class _SidePlan(NamedTuple):
    """Geometry of one side's search on one window shape (see _side_plan)."""

    pad: int
    axes: list  # per axis: offsets that hold a cube, first start cells, cube counts
    chunks: list  # the used start cells in the padded values, per-axis indices, in chunks
    groups: list  # per offset group: agg index, table index, count cut, row shape
    offsets_evaluated: int
    cubes_evaluated: int


@functools.lru_cache(maxsize=256)
def _side_plan(cells: tuple, m: int, policy: str, stride: int, packings: str, batch: int) -> _SidePlan:
    """The search geometry of side m on a window of `cells`, which holds no
    values: tiling layouts, the start cells in those tilings' phases cut
    into chunks of about `batch` entries, and the offset groups of
    _best_tiling.  zero-extend pads the values by m - 1 zeros per side."""
    n = len(cells)
    exhaustive = packings == "exhaustive"
    pad = m - 1 if policy == "zero-extend" else 0
    offsets = np.arange(0, m, 1 if exhaustive else stride)
    axes, starts = [], []
    for N in cells:
        first, k = _tiling_layout(N, m, offsets, policy)
        axes.append((offsets[k > 0], first[k > 0], k[k > 0]))
        used = np.bincount(first[k > 0] + pad, minlength=m) > 0
        starts.append(np.flatnonzero(used[np.arange(N + 2 * pad - m + 1) % m]))
    grid = [g.ravel() for g in np.meshgrid(*starts, indexing="ij")]
    step = max(1, batch // m**n)
    chunks = [tuple(g[i : i + step] for g in grid) for i in range(0, grid[0].size, step)]
    groups = []
    # offsets with the same cube counts reduce together, each tiling as one
    # contiguous row, as a lone tiling would
    per_axis = [[(np.flatnonzero(k == c), c) for c in set(k.tolist())] for _, _, k in axes]
    for combo in [] if exhaustive else itertools.product(*per_axis):
        idx, counts = zip(*combo)
        phase = np.ix_(*(first[i] + pad for (_, first, _), i in zip(axes, idx)))
        cut = (Ellipsis, *(slice(c) for c in counts))
        groups.append((np.ix_(*idx), phase, cut, (*map(len, idx), -1)))
    return _frozen(_SidePlan(
        pad, axes, chunks, groups,
        0 if exhaustive else math.prod(len(o) for o, _, _ in axes),
        math.prod(len(x) for x in starts),
    ))


def _qmean_table(values, projector, m: int, plan: _SidePlan, q):
    """Table of the q-means of the side-m cubes starting at the plan's start
    cells in the (padded) values (entry x: cube at cell x; others stay 0),
    gathered from a sliding-window view chunk by chunk."""
    table = np.zeros([N // m * m for N in values.shape])
    windows = np.lib.stride_tricks.sliding_window_view(values, (m,) * values.ndim)
    for at in plan.chunks:
        batch = windows[at].reshape(len(at[0]), -1)
        table[at] = _qmean(batch if projector is None else projector.residual(batch), q)
    return table


def _best_tiling(table, m: int, plan: _SidePlan, p):
    """Offset, value, layout and terms of the first maximal tiling in
    itertools.product order."""
    n = table.ndim
    # R[phase..., cube...]: (k0, m, k1, m) -> (m, m, k0, k1); phase = first + pad
    R = table.reshape([d for N in table.shape for d in (N // m, m)])
    R = R.transpose([*range(1, 2 * n, 2), *range(0, 2 * n, 2)])
    agg = np.empty([len(o) for o, _, _ in plan.axes])  # per tiling: sum (p finite) or max of terms
    for agg_at, at, cut, shape in plan.groups:
        rows = R[at][cut].reshape(shape)
        agg[agg_at] = rows.max(axis=-1) if p == INF else rows.sum(axis=-1)
    # the value sum^(1/p) can round sums that differ in the last bits to one
    # value, so the first maximal value is sought among the near-maximal sums
    flat = agg.ravel()
    near = np.flatnonzero(flat >= flat.max() * (1 - 1e-12))
    vals = [float(flat[i] ** (1.0 if p == INF else 1.0 / p)) for i in near]
    i, val = int(near[int(np.argmax(vals))]), max(vals)
    at = np.unravel_index(i, agg.shape)
    pick = [(o[j], first[j], k[j]) for (o, first, k), j in zip(plan.axes, at)]
    terms = R[tuple(f + plan.pad for _, f, _ in pick)][tuple(slice(k) for _, _, k in pick)].reshape(-1)
    return tuple(int(o) for o, _, _ in pick), val, [(f, k) for _, f, k in pick], terms


def _cube_norm(f: GridFunction, p, q, s, alpha, search: SearchConfig, name: str) -> NormReport:
    """Shared engine: s is None for the plain-L^q (Riesz-Morrey) variant.

    Per side, one table holds the term of the cube at every start cell in
    use, and every offset tiling (or 1-D packing) is read from it; the
    geometry comes from the memoised side plan.
    """
    window = f.window
    n = window.n
    h = window.h
    exhaustive = search.packings == "exhaustive"
    if exhaustive and (n != 1 or search.policy != "restrict"):
        raise ValueError("exhaustive packings are available in 1-D under restrict only")
    sides = search.sides(window, 0 if s is None else s)
    best_value = -1.0
    best = None
    reasons: dict[int, str] = {}  # skipped side -> conditioning message
    offsets_evaluated = cubes_evaluated = 0

    for m in sides:
        try:
            projector = None if s is None else _cube_projector(n, m, s)
        except ConditioningError as err:
            reasons[m] = str(err)
            continue
        plan = _side_plan(window.cells, m, search.policy, search.offset_stride, search.packings, _TABLE_BATCH)
        measure = float(m**n) * window.cell_measure
        weight = measure ** (-alpha)
        values = np.pad(f.values, plan.pad) if plan.pad else f.values
        table = _qmean_table(values, projector, m, plan, q)
        cubes_evaluated += plan.cubes_evaluated
        offsets_evaluated += plan.offsets_evaluated
        table = weight * table if p == INF else measure * (weight * table) ** p
        if exhaustive:
            table = table[: window.cells[0] - m + 1]
            val, at = _exhaustive_side(table, m, p)
            found = (None, np.asarray([[x + m / 2.0] for x in at]), table[at])
        else:
            offset, val, layout, terms = _best_tiling(table, m, plan, p)
            found = (offset, layout, terms)
        if val > best_value:
            best_value, best = val, (m, *found)

    if best is None:
        raise ValueError("search produced no admissible cube")
    side, offset, centers, terms = best
    if offset is not None:  # a tiling: its layout; under p = inf, its first maximal cube
        centers = _tile_centers(centers, side)
        if p == INF:
            j = int(np.argmax(terms))
            centers, terms = centers[j : j + 1], terms[j : j + 1]
    cubes = [
        {"center": tuple(c), "side": side * h, "term": float(t)}
        for c, t in zip(np.asarray(window.lower) + centers * h, terms)
    ]
    return NormReport(
        name=name,
        value=best_value,
        p=p,
        q=q,
        s=s,
        alpha=alpha,
        argmax_side=side * h,
        argmax_offset=offset,
        cubes=cubes,
        policy=search.policy,
        grid_cells=window.cells,
        diagnostics={
            "engine": "per-side cube table", "packings": search.packings, "sides": sides,
            "offsets_evaluated": offsets_evaluated, "cubes_evaluated": cubes_evaluated,
            "skipped_sides": list(reasons), "skip_reasons": reasons,
        },
    )


def _exhaustive_side(c, m, p):
    """The best packing of side-m cubes at any cell positions (1-D DP over
    c, the term of the cube at each start cell): its value and start cells."""
    if p == INF:
        idx = int(np.argmax(c))
        return float(c[idx]), [idx]
    N = len(c) + m - 1
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
    return float(dp[N] ** (1.0 / p)), positions[::-1]


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


class _BallPlan(NamedTuple):
    """Geometry of the balls B(y, radius) on one window shape (see _ball_plan)."""

    offsets: np.ndarray  # padded flat offsets of a ball's cells from its (2K+1)^n box corner
    corners: np.ndarray  # per center: padded flat index of its box corner
    inside: np.ndarray  # the padded frame's indicator of window cells, flat
    counts: np.ndarray  # per center: cells of its ball inside the window
    projector: Projector | None  # on the unclipped ball, relative to its center
    gram: np.ndarray | None  # per center: Gram matrix on its clipped ball

    def bands(self):
        """Row bands of at most _BALL_BATCH entries (one center at least): the
        centers' rows and, per center, the padded flat indices of its ball."""
        step = max(1, _BALL_BATCH // self.offsets.size)
        for lo in range(0, self.corners.size, step):
            yield slice(lo, lo + step), self.corners[lo : lo + step, None] + self.offsets


@functools.lru_cache(maxsize=32)
def _ball_plan(cells: tuple, h: float, radius: float, s: int | None) -> _BallPlan:
    """The balls of every center on a window of `cells`, which hold no
    values: lattice offsets k with |k| h < radius into the frame padded by
    K = ceil(radius/h) - 1 zeros per side, the clipped cell counts, and for
    s not None the clipped Gram stack, checked once here."""
    n = len(cells)
    K = math.ceil(radius / h) - 1
    grid = grid_points([np.arange(-K, K + 1)] * n)
    offs = grid[(grid**2).sum(axis=1) * h**2 < radius**2]
    padded = tuple(N + 2 * K for N in cells)
    plan = _BallPlan(
        np.ravel_multi_index(tuple((offs + K).T), padded),
        np.ravel_multi_index(tuple(np.indices(cells).reshape(n, -1)), padded),
        np.pad(np.ones(cells, dtype=bool), K).ravel(),
        np.empty(math.prod(cells), dtype=int),
        None if s is None else Projector(offs * h, s, None, radius),
        None,
    )
    grams = []
    for rows, at in plan.bands():
        keep = plan.inside[at]
        plan.counts[rows] = keep.sum(axis=1)
        if s is not None:
            grams.append(Projector(offs * h, s, None, radius, keep).gram)
    return _frozen(plan._replace(gram=np.concatenate(grams) if grams else None))


def _ball_sweep(f: GridFunction, radius: float, s: int | None, q: float):
    """Per-center q-means over balls B(y, radius), y over all midpoints.

    Returns (qmeans, counts).  Every center reads its ball from the values
    zero-padded by the plan's K cells, in row bands; a ball clipped by the
    window edge is projected on the cells it keeps.
    """
    window = f.window
    if not (math.isfinite(radius) and radius > 2 * window.h):
        raise ValueError("radius must be finite and exceed 2h")
    plan = _ball_plan(window.cells, window.h, radius, s)
    vals = np.zeros(plan.inside.size)
    vals[plan.inside] = f.flat
    qmeans = np.empty(window.cell_count)
    for rows, at in plan.bands():
        batch = vals[at]
        if plan.projector is not None:
            batch = plan.projector.clipped(plan.inside[at], plan.gram[rows]).residual(batch)
        qmeans[rows] = _qmean(batch, q, plan.counts[rows])
    return qmeans, plan.counts


def _ball_aggregate(f: GridFunction, p, q, alpha, s, radii, name) -> NormReport:
    window = f.window
    hn = window.cell_measure
    best_val = -1.0
    best_r = None
    per_radius, offsets, clipped = {}, {}, {}
    for r in map(float, radii):
        qmeans, counts = _ball_sweep(f, r, s, q)
        meas = counts * hn
        terms = meas ** (-alpha) * qmeans if alpha != 0 else qmeans
        if p == INF:
            val = float(terms.max())
        else:
            val = float(((terms**p) * hn).sum() ** (1.0 / p))
        per_radius[r] = val
        offsets[r] = int(_ball_plan(window.cells, window.h, r, s).offsets.size)
        clipped[r] = int(np.count_nonzero(counts < offsets[r]))
        if val > best_val:
            best_val = val
            best_r = r
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
        diagnostics={
            "engine": "zero-padded ball sweep", "per_radius": per_radius,
            "centers": "all cell midpoints", "offsets": offsets, "clipped_centers": clipped,
        },
    )


def jn_ball_seminorm(f: GridFunction, params: NormParams, radii) -> NormReport:
    """Ball-based equivalent seminorm: centers integrate over the window."""
    return _ball_aggregate(f, params.p, params.q, params.alpha, params.s, radii, "jn_ball")


def rm_ball_seminorm(f: GridFunction, p: float, q: float, alpha: float, radii) -> NormReport:
    return _ball_aggregate(f, p, q, alpha, None, radii, "rm_ball")


def amalgam_norm(f: GridFunction, p: float, q: float, r: float) -> float:
    """Wiener-amalgam style norm: l^p over centers of ball L^q means, which
    is the Riesz-Morrey ball seminorm at alpha = 0 and the one radius r."""
    return rm_ball_seminorm(f, p, q, 0.0, [r]).value


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
