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
from typing import NamedTuple

import numpy as np

from .lattice import GridFunction, Window, _memo, _real_number, grid_points, monomials, whole_number
from .polyproj import MAX_DEGREE, ConditioningError, Projector, gram_condition, multi_indices, space_dimension

__all__ = [
    "NormParams",
    "SearchConfig",
    "NormReport",
    "jn_con_norm",
    "rm_con_norm",
    "jn_partition_oracle",
    "jn_ball_seminorm",
    "rm_ball_seminorm",
    "amalgam_norm",
    "norm_pair",
]

INF = math.inf
_BALL_BATCH = 1 << 18  # ball entries (centers x offsets) per row band
_TABLE_BATCH = 1 << 14  # cube entries (cubes x cells per cube) per projection batch
_TIE_RTOL = 1e-12  # candidates this close to the largest value tie (see _first_near_max)
_FALLBACK_RATIO = 1e-6  # residual energy / energy at or below which box sums are not trusted
_CUBE_COUNTS = ("offsets_evaluated", "cubes_evaluated", "table_positions", "fallback_positions")


def conjugate(p: float) -> float:
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormParams:
    """Exponents (p, q, s, alpha) of a cube norm: 1 <= p, q <= inf, s a whole
    number at most MAX_DEGREE, alpha finite; p, q and alpha go through
    float(), "inf" included."""

    p: float
    q: float
    s: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "p", _real_number(self.p, "p", 1))
        object.__setattr__(self, "q", _real_number(self.q, "q", 1))
        object.__setattr__(self, "s", whole_number(self.s, "s"))
        if self.s > MAX_DEGREE:
            raise ValueError(f"s must be at most {MAX_DEGREE}, the degree cap")
        object.__setattr__(self, "alpha", _real_number(self.alpha, "alpha"))
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


@dataclass
class SearchConfig:
    """Search space for the congruent-cube supremum.

    side_cells: cube sides in cells per axis (None = every power of two m with m**n >= max(4, dim)).
    offset_stride: stride through the cell offsets modulo the side.
    policy: 'restrict' drops partial cubes, 'zero-extend' keeps them padded.
    packings: 'tiling' uses one offset phase per collection; 'exhaustive'
        (1-D, restrict only) maximizes over all cell-aligned packings.
    """

    side_cells: list[int] | None = None
    offset_stride: int = 1
    policy: str = "restrict"
    packings: str = "tiling"

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
                if m**n >= max(4, dim):
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
    # the reported tiling's k cubes of side argmax_side: centers (k, n), terms (k,)
    centers: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    terms: np.ndarray = field(default_factory=lambda: np.empty(0))
    policy: str = "restrict"
    grid_cells: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    def recompute(self) -> float:
        if self.terms.size == 0:
            return 0.0
        if self.p == INF:
            return float(self.terms.max())
        return float(self.terms.sum() ** (1.0 / self.p))

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


def _qmean(resid: np.ndarray, q: float, counts=None) -> np.ndarray:
    """Per-row L^q mean; rows padded with zeros pass their true cell counts."""
    if q == INF:
        return np.abs(resid).max(axis=1)
    counts = resid.shape[1] if counts is None else counts
    powers = np.abs(resid)
    powers **= q  # in place: the same scalar-power path as np.abs(resid) ** q
    return (powers.sum(axis=1) / counts) ** (1.0 / q)


def _first_near_max(values) -> int:
    """The tie rule of every argmax: the first index whose value is at least
    max * (1 - 1e-12).  Values that differ in their last bits only by
    summation order so pick the same candidate on every route."""
    values = np.asarray(values)
    return int(np.argmax(values >= values.max() * (1 - _TIE_RTOL)))


def _moments(values: np.ndarray, flavours, q):
    """The stacked arrays whose box sums give the cube and ball q-means of
    the flavours (s, or None for Riesz-Morrey) at q, and per flavour the
    slice of its rows, None on the projector route: f and f^2 for s = 0 at
    q = 2, |f|^q (the last row) for s = None at finite q.  numpy takes
    |f| ** 2 as np.square, the floats of f * f: at q = 2 both read that row."""
    jn, rm = q == 2 and 0 in flavours, q != INF and None in flavours
    rows = {s: slice(0, 2) if jn and s == 0 else slice(-1, None) if rm and s is None else None for s in flavours}
    if not (jn or rm):
        return None, rows
    return np.stack([values, values * values] if jn else [np.abs(values) ** q]), rows


class _Frame:
    """One function's values zero-padded by `pad` cells per side, once for
    every cube side and ball radius read from them; the doubling run tables
    (see _runs) of their moments at q, None if no flavour reads one; and per
    flavour the rows of those that it reads (see _moments)."""

    def __init__(self, f: GridFunction, q: float, flavours, pad: int):
        self.window, self.q, self.pad = f.window, q, pad
        self.values = _padded(f.values, pad)
        stack, self.rows = _moments(self.values, flavours, q)
        self.tables = None if stack is None else [stack]


def _moment_qmeans(sums, counts, q):
    """q-means from the box sums of _moments over boxes of `counts` cells,
    and the mask of those to recompute directly.  Sums of |f|^q cancel
    nothing.  From the sums S1 of f and S2 of f^2 the residual energy
    E = S2 - S1^2/k keeps few digits where E <= 1e-6 S2; where S2 = 0 every
    cell squares to 0 and so does its residual."""
    if len(sums) == 1:
        return (sums[0] / counts) ** (1.0 / q), np.zeros(sums[0].shape, dtype=bool)
    s1, s2 = sums
    energy = s2 - s1 * s1 / counts
    redo = (energy <= _FALLBACK_RATIO * s2) & (s2 > 0)
    return (np.maximum(energy, 0.0) / counts) ** 0.5, redo


def _padded(a: np.ndarray, pad: int) -> np.ndarray:
    """a with `pad` zeros on each side of every axis."""
    if not pad:
        return a
    out = np.zeros([N + 2 * pad for N in a.shape])
    out[(slice(pad, -pad),) * a.ndim] = a
    return out


def _runs(tables: list, m: int, at=(), lo: int = 0, size: int | None = None) -> np.ndarray:
    """Sums of the runs of m consecutive cells along the last axis of
    tables[0] that start at cells lo, ..., lo + size - 1 (every run from lo
    on by default), at the index `at` of the axes before it.

    tables[j] holds the runs of 2^j cells, each the sum of two runs of
    2^(j-1); the list is extended here as far as m needs, so callers that
    share it share those tables.  A run of m cells adds the runs of m's
    binary digits, longest first.  Every sum so adds its own cells and
    subtracts nothing: its error scales with those cells alone, never with
    a prefix sum of the whole axis."""
    while 1 << len(tables) <= m:
        t, w = tables[-1], 1 << (len(tables) - 1)
        tables.append(t[..., :-w] + t[..., w:])
    size = tables[0].shape[-1] - m + 1 - lo if size is None else size
    out = None
    for j in reversed(range(m.bit_length())):
        if m >> j & 1:
            piece = tables[j][(..., *at, slice(lo, lo + size))]
            out = piece if out is None else out + piece
            lo += 1 << j
    return out


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


@_memo
def _cube_projector(n: int, m: int, s: int) -> Projector:
    """The projector of every cube of m cells per axis: cell midpoints in
    cell units, anchored at the center, half-side scale."""
    return Projector(grid_points([np.arange(m) + 0.5] * n), s, (m / 2.0,) * n, m / 2.0)


class _SidePlan(NamedTuple):
    """Geometry of one side's search on one window shape (see _side_plan)."""

    pad: int
    axes: list  # per axis: offsets that hold a cube, first start cells, cube counts
    groups: list  # per offset group: agg index, table index, count cut, row shape


@_memo
def _side_plan(cells: tuple, m: int, policy: str, stride: int, packings: str) -> _SidePlan:
    """The search geometry of side m on a window of `cells`, which holds no
    values: tiling layouts and the offset groups of _tiling_sums.
    zero-extend pads the values by m - 1 zeros per side."""
    exhaustive = packings == "exhaustive"
    pad = m - 1 if policy == "zero-extend" else 0
    offsets = np.arange(0, m, 1 if exhaustive else stride)
    layouts = [_tiling_layout(N, m, offsets, policy) for N in cells]
    axes = [(offsets[k > 0], first[k > 0], k[k > 0]) for first, k in layouts]
    groups = []
    # offsets with the same cube counts reduce together, each tiling as one
    # contiguous row, as a lone tiling would
    per_axis = [[(np.flatnonzero(k == c), c) for c in set(k.tolist())] for _, _, k in axes]
    for combo in [] if exhaustive else itertools.product(*per_axis):
        idx, counts = zip(*combo)
        phase = np.ix_(*(first[i] + pad for (_, first, _), i in zip(axes, idx)))
        cut = (Ellipsis, *(slice(c) for c in counts))
        groups.append((np.ix_(*idx), phase, cut, (*map(len, idx), -1)))
    return _SidePlan(pad, axes, groups)


def _qmean_table(values, projector, m: int, q, sums=None):
    """Table of the q-means of the side-m cubes in the (padded) values
    (entry x: the cube at cell x; 0 past the last start cell), and the
    counts of positions taken from box sums and recomputed.

    With `sums` (the box sums of _moments at every start cell) every
    position's q-mean comes from them, and the positions _moment_qmeans
    marks are recomputed.  Otherwise every start cell is computed.  Cubes
    recomputed or computed are gathered from a sliding-window view in
    chunks of about _TABLE_BATCH entries and go through the projector."""
    n = values.ndim
    table = np.zeros([N // m * m for N in values.shape])
    if sums is None:
        at, positions, redone = np.indices([N - m + 1 for N in values.shape]).reshape(n, -1), 0, 0
    else:
        qmeans, redo = _moment_qmeans(sums, m**n, q)
        table[tuple(slice(k) for k in qmeans.shape)] = qmeans
        at = np.nonzero(redo)
        positions, redone = qmeans.size, at[0].size
    if at[0].size:
        windows = np.lib.stride_tricks.sliding_window_view(values, (m,) * n)
    step = max(1, _TABLE_BATCH // m**n)
    for lo in range(0, at[0].size, step):
        chunk = tuple(a[lo : lo + step] for a in at)
        batch = windows[chunk].reshape(len(chunk[0]), -1)
        if projector is not None:
            # a recomputed cube is shifted by its first cell: the same
            # residual in exact arithmetic, and exactly 0 for a constant cube
            batch = projector.residual(batch if sums is None else batch - batch[:, :1])
        table[chunk] = _qmean(batch, q)
    return table, positions, redone


def _box_sums(tables: list, m: int, lo: int, shape) -> np.ndarray:
    """Sums of tables[0] (see _runs) over every box of m cells on each of
    its last len(shape) axes whose start cell lies in [lo, lo + N - m] on
    each axis of `shape`."""
    out = _runs(tables, m, [slice(lo, lo + N) for N in shape[:-1]], lo, shape[-1] - m + 1)
    for axis in range(-2, -len(shape) - 1, -1):
        out = _runs([out.swapaxes(axis, -1)], m).swapaxes(axis, -1)
    return out


def _tiling_sums(table, m: int, plan: _SidePlan, p):
    """Per offset tiling, in itertools.product order, the sum (p finite) or
    maximum of its terms, and the table viewed as R[phase..., cube...]."""
    n = table.ndim
    # R[phase..., cube...]: (k0, m, k1, m) -> (m, m, k0, k1); phase = first + pad
    R = table.reshape([d for N in table.shape for d in (N // m, m)])
    R = R.transpose([*range(1, 2 * n, 2), *range(0, 2 * n, 2)])
    agg = np.empty([len(o) for o, _, _ in plan.axes])
    for agg_at, at, cut, shape in plan.groups:
        rows = R[at][cut].reshape(shape)
        agg[agg_at] = rows.max(axis=-1) if p == INF else rows.sum(axis=-1)
    return agg.ravel(), R


def _norms(f: GridFunction, params: NormParams, search, radii, cubes=(), balls=()) -> list[NormReport]:
    """The cube norms of the flavours `cubes`, then the ball seminorms of the
    flavours `balls` (s, or None for Riesz-Morrey at params' p, q, alpha),
    all read from one frame of f: each side's box sums and each radius's
    ball sums of its moments are taken once, and every flavour reads them."""
    window, h = f.window, f.window.h
    search, own, pad = search or SearchConfig(), [], 0
    if cubes:
        if search.packings == "exhaustive" and (window.n != 1 or search.policy != "restrict"):
            raise ValueError("exhaustive packings are available in 1-D under restrict only")
        own = [search.sides(window, s or 0) for s in cubes]
        if search.policy == "zero-extend":  # side m reads m - 1 zeros per side
            pad = max(map(max, own)) - 1
    radii = [float(r) for r in radii] if balls else []
    if balls:
        if not radii:
            raise ValueError("a ball seminorm needs at least one radius")
        if not all(math.isfinite(r) and r > 2 * h for r in radii):
            raise ValueError("radius must be finite and exceed 2h")
        pad = max(pad, *(math.ceil(r / h) - 1 for r in radii))  # each radius's K (see _ball_plan)
    frame = _Frame(f, params.q, [*cubes, *balls], pad)
    return _cube_norms(frame, params, search, cubes, own) + _ball_norms(frame, params, radii, balls)


def _cube_norms(frame: _Frame, params: NormParams, search: SearchConfig, flavours, own) -> list[NormReport]:
    """The cube norms of the flavours, own[i] the sides of the i-th, in one
    pass over the sides.

    Per side, one table per flavour holds the term of the cube at every
    start cell in use, and every offset tiling (or 1-D packing) is read
    from it; the geometry comes from the memoised side plan, and flavours
    on the moment route read the side's one set of box sums.  The reported
    tiling is the first candidate (sides in search order, offsets in
    itertools.product order) that _first_near_max picks.
    """
    window = frame.window
    n, h, p = window.n, window.h, params.p
    exhaustive = search.packings == "exhaustive"
    # per flavour: per evaluated side (m, candidate values, what the argmax is read from),
    # skipped side -> conditioning message, and per evaluated side its Gram condition and _CUBE_COUNTS
    state = [([], {}, [], []) for _ in flavours]
    for m in max(own, key=len, default=()):  # every flavour's sides, in search order
        plan = _side_plan(window.cells, m, search.policy, search.offset_stride, search.packings)
        measure = float(m**n) * window.cell_measure
        weight = measure ** (-params.alpha)
        lo = frame.pad - plan.pad
        shape = [N + 2 * plan.pad for N in window.cells]
        values = frame.values[tuple(slice(lo, lo + N) for N in shape)]
        # offset tilings searched, and cubes evaluated: every start cell
        tilings = 0 if exhaustive else math.prod(len(o) for o, _, _ in plan.axes)
        tried = tilings, math.prod(N - m + 1 for N in shape)
        box = None
        for s, sides, (found, reasons, conditions, counts) in zip(flavours, own, state):
            if m not in sides:
                continue
            try:
                projector = None if s is None else _cube_projector(n, m, s)
            except ConditioningError as err:
                reasons[m] = str(err)
                continue
            rows = frame.rows[s]
            if rows is not None and box is None:
                box = _box_sums(frame.tables, m, lo, shape)
            table, positions, redone = _qmean_table(
                values, projector, m, params.q, None if rows is None else box[rows]
            )
            counts.append((*tried, positions, redone))
            if projector is not None:
                conditions.append(projector.condition)
            table = weight * table if p == INF else measure * (weight * table) ** p
            if exhaustive:
                table = table[: window.cells[0] - m + 1]
                val, at = _exhaustive_side(table, m, p)
                found.append((m, np.array([val]), (np.asarray([[x + m / 2.0] for x in at]), table[at])))
            else:
                sums, R = _tiling_sums(table, m, plan, p)
                found.append((m, sums if p == INF else sums ** (1.0 / p), (sums, R, plan)))

    reports = []
    for s, sides, (found, reasons, conditions, counts) in zip(flavours, own, state):
        if not found:
            raise ValueError("search produced no admissible cube")
        i = _first_near_max(np.concatenate([vals for _, vals, _ in found]))
        for side, vals, picked in found:
            if i < vals.size:
                break
            i -= vals.size
        if exhaustive:
            value, offset, (centers, terms) = float(vals[0]), None, picked
        else:  # a tiling: its layout; under p = inf, its first maximal cube
            sums, R, plan = picked
            value = float(sums[i] ** (1.0 if p == INF else 1.0 / p))
            at = np.unravel_index(i, [len(o) for o, _, _ in plan.axes])
            pick = [(o[j], first[j], k[j]) for (o, first, k), j in zip(plan.axes, at)]
            terms = R[tuple(f + plan.pad for _, f, _ in pick)][tuple(slice(k) for _, _, k in pick)].reshape(-1)
            offset = tuple(int(o) for o, _, _ in pick)
            centers = _tile_centers([(f, k) for _, f, k in pick], side)
            if p == INF:
                j = _first_near_max(terms)
                centers, terms = centers[j : j + 1], terms[j : j + 1]
        diagnostics = {
            "engine": "per-side " + ("projector" if frame.rows[s] is None else "moment") + " table",
            "packings": search.packings, "sides": sides, "skipped_sides": list(reasons), "skip_reasons": reasons,
            **dict(zip(_CUBE_COUNTS, map(sum, zip(*counts)))),
            "gram_condition_max": max(conditions, default=None),
        }
        reports.append(NormReport(
            ("rm" if s is None else "jn") + "_con", value, p, params.q, s, params.alpha, side * h, offset,
            np.asarray(window.lower) + centers * h, np.array(terms, dtype=float), search.policy, window.cells,
            diagnostics,
        ))
    return reports


def _exhaustive_side(c, m, p):
    """The best packing of side-m cubes at any cell positions (1-D DP over
    c, the term of the cube at each start cell): its value and start cells.

    dp[i], the best packing of the first i cells, is the larger of dp[i - 1]
    and dp[i - m] + c[i - m]; on [km, km + m) the latter reads the block
    before, so a block is one running maximum from dp[km - 1]."""
    if p == INF:
        idx = _first_near_max(c)
        return float(c[idx]), [idx]
    N = len(c) + m - 1
    dp = np.zeros(N + 1)
    take = np.zeros(N + 1, dtype=bool)
    for lo in range(m, N + 1, m):
        hi = min(lo + m, N + 1)
        cand = dp[lo - m : hi - m] + c[lo - m : hi - m]
        dp[lo:hi] = np.maximum(np.maximum.accumulate(cand), dp[lo - 1])
        take[lo:hi] = cand > dp[lo - 1 : hi - 1]
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
    return _norms(f, params, search, (), cubes=[params.s])[0]


def rm_con_norm(
    f: GridFunction, p: float, q: float, alpha: float, search: SearchConfig | None = None
) -> NormReport:
    """Congruent-cube L^q aggregate with weight |Q|^(-alpha - 1/q)."""
    return _norms(f, NormParams(p, q, 0, alpha), search, (), cubes=[None])[0]


def norm_pair(f: GridFunction, params: NormParams, search: SearchConfig | None, radii) -> dict:
    """The reports of jn_con_norm, rm_con_norm (at params' p, q, alpha),
    jn_ball_seminorm and rm_ball_seminorm, keyed by name, from one frame."""
    names = ("jn_con", "rm_con", "jn_ball", "rm_ball")
    return dict(zip(names, _norms(f, params, search, radii, [params.s, None], [params.s, None])))


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

    pad: int  # K: zeros per side of the padded frame
    runs: tuple  # the ball as runs along the last axis: (leading offsets, half-width) per run
    offsets: np.ndarray  # padded flat offsets of a ball's cells from its (2K+1)^n box corner
    inside: np.ndarray  # the padded frame's indicator of window cells, flat
    counts: np.ndarray  # per center: cells of its ball inside the window
    phi: np.ndarray | None  # s >= 1: the monomials at the ball's offsets, relative to its center
    gram: np.ndarray | None  # s >= 1: per center, the Gram matrix on its clipped ball

    def bands(self, cells: tuple, centers=None):
        """Row bands of at most _BALL_BATCH entries (one center at least) over
        the given center indices (all by default) of the window of `cells`:
        the centers' rows and, per center, the padded flat indices of its
        ball.  The center at cell i has its box corner at cell i of the frame."""
        every = np.arange(math.prod(cells)) if centers is None else centers
        corners = np.ravel_multi_index(np.unravel_index(every, cells), [N + 2 * self.pad for N in cells])
        step = max(1, _BALL_BATCH // self.offsets.size)
        for lo in range(0, corners.size, step):
            rows = slice(lo, lo + step) if centers is None else centers[lo : lo + step]
            yield rows, corners[lo : lo + step, None] + self.offsets

    def sums(self, tables: list, pad: int) -> np.ndarray:
        """Per stacked array of tables[0] (see _runs), values padded by
        pad >= K zeros per side, and per center (flat), the sum over the
        center's ball: the sum of its runs, each read from the runs of
        2w + 1 cells along the last axis at the run's leading offsets."""
        cells = tuple(N - 2 * pad for N in tables[0].shape[1:])
        out = np.zeros(tables[0].shape[:1] + cells)
        for lead, w in self.runs:
            at = [slice(pad + d, pad + d + N) for d, N in zip(lead, cells)]
            out += _runs(tables, 2 * w + 1, at, pad - w, cells[-1])
        return out.reshape(len(out), -1)


@_memo
def _ball_plan(cells: tuple, h: float, radius: float, s: int | None) -> _BallPlan:
    """The balls of every center on a window of `cells`, which hold no
    values: lattice offsets k with |k| h < radius into the frame padded by
    K = ceil(radius/h) - 1 zeros per side, the same ball as runs along the
    last axis, the clipped cell counts, and for s >= 1 the monomials at the
    offsets and the clipped Gram stack, checked once here.  s = 0 and
    s = None need neither and share the plan of s = None."""
    n = len(cells)
    K = math.ceil(radius / h) - 1
    grid = grid_points([np.arange(-K, K + 1)] * n)
    offs = grid[(grid**2).sum(axis=1) * h**2 < radius**2]
    runs: dict[tuple, int] = {}  # leading offsets -> half-width of the ball's run there
    for *lead, last in offs.tolist():
        runs[tuple(lead)] = max(runs.get(tuple(lead), 0), last)
    padded = tuple(N + 2 * K for N in cells)
    inside = _padded(np.ones(cells), K)
    plan = _BallPlan(
        K,
        tuple(runs.items()),
        np.ravel_multi_index(tuple((offs + K).T), padded),
        inside.ravel() > 0,
        None,
        None if not s else monomials(offs * h, multi_indices(n, s), None, radius),
        None,
    )
    plan = plan._replace(counts=plan.sums([inside[None]], K)[0].astype(int))
    if not s:
        return plan
    gram = np.concatenate([_clipped_gram(plan.phi, plan.inside[at]) for _, at in plan.bands(cells)])
    gram_condition(gram)
    return plan._replace(gram=gram)


def _clipped_gram(phi: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Per row of keep (rows, m), the Gram matrix of the design matrix phi
    (m, dim) on the points the row keeps."""
    design = phi * keep[..., None]
    return np.swapaxes(design, -1, -2) @ design


def _clipped_residual(batch: np.ndarray, phi: np.ndarray, keep: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Each row of batch (rows, m), zero off the points its row of keep
    marks, minus its projection on those points: the row's own system, gram
    its _clipped_gram, solved against its moment vector."""
    coef = np.linalg.solve(gram, (batch @ phi)[..., None])[..., 0]
    return batch - (coef @ phi.T) * keep


def _ball_sweep(frame: _Frame, radius: float, flavours):
    """The plan of the balls B(y, radius), y over all midpoints, and per
    flavour s (None: Riesz-Morrey) the q-means over them and the number of
    centers recomputed, None off the moment route.

    On the moment route every flavour reads one set of ball sums of the
    frame's moments (plan.sums), and the centers _moment_qmeans marks are
    recomputed.  Those, and every center elsewhere, read their balls from
    the frame's values in row bands; a ball clipped by the window edge
    keeps the cells inside it, and its residual is taken on those cells:
    for s = 0 by the mean, for s >= 1 through its own Gram matrix.
    """
    window = frame.window
    sums = vals = None
    out = []
    for s in flavours:
        plan = _ball_plan(window.cells, window.h, radius, s or None)
        qmeans, redo, rows = np.empty(window.cell_count), None, frame.rows[s]
        if rows is not None:
            if sums is None:
                sums = plan.sums(frame.tables, frame.pad)
            qmeans, redo = _moment_qmeans(sums[rows], plan.counts, frame.q)
            redo = np.flatnonzero(redo)
        if redo is None or redo.size:
            if vals is None:  # the values padded by K, flat, as the bands index them
                at = tuple(slice(frame.pad - plan.pad, frame.pad + N + plan.pad) for N in window.cells)
                vals = frame.values[at].reshape(-1)
            center = plan.offsets.size // 2  # the ball's offsets are symmetric: 0 is the middle one
            for band, at in plan.bands(window.cells, redo):
                batch, keep, counts = vals[at], plan.inside[at], plan.counts[band]
                if s == 0:
                    # shifted by the center's value first: the same residual in
                    # exact arithmetic, and exactly 0 for a constant ball
                    batch = (batch - batch[:, center, None]) * keep
                    batch = (batch - (batch.sum(axis=1) / counts)[:, None]) * keep
                elif s is not None:
                    batch = _clipped_residual(batch, plan.phi, keep, plan.gram[band])
                qmeans[band] = _qmean(batch, frame.q, counts)
        out.append((qmeans, None if redo is None else redo.size))
    return plan, out


def _ball_norms(frame: _Frame, params: NormParams, radii, flavours) -> list[NormReport]:
    """The ball seminorms of the flavours, as _cube_norms, one sweep per
    radius; the radius, in the given order, is the one _first_near_max picks."""
    hn, p = frame.window.cell_measure, params.p
    per_radius, offsets, clipped = [{} for _ in flavours], {}, {}
    positions = [[0, 0] for _ in flavours]  # table and fallback positions
    for r in radii:
        plan, sweeps = _ball_sweep(frame, r, flavours)
        offsets[r] = int(plan.offsets.size)
        clipped[r] = int(np.count_nonzero(plan.counts < offsets[r]))
        weight = (plan.counts * hn) ** (-params.alpha)
        for values, counts, (qmeans, redone) in zip(per_radius, positions, sweeps):
            terms = weight * qmeans if params.alpha != 0 else qmeans
            values[r] = float(terms.max()) if p == INF else float(((terms**p) * hn).sum() ** (1.0 / p))
            if redone is not None:
                counts[:] = counts[0] + qmeans.size, counts[1] + redone
    reports = []
    for s, values, (table_positions, fallback_positions) in zip(flavours, per_radius, positions):
        best_r = list(values)[_first_near_max(list(values.values()))]
        diagnostics = {
            "engine": ("projector" if frame.rows[s] is None else "moment") + " ball sweep", "per_radius": values,
            "centers": "all cell midpoints", "offsets": dict(offsets), "clipped_centers": dict(clipped),
            "table_positions": table_positions, "fallback_positions": fallback_positions,
        }
        reports.append(NormReport(
            ("rm" if s is None else "jn") + "_ball", values[best_r], p, params.q, s, params.alpha, best_r, None,
            policy="restrict", grid_cells=frame.window.cells, diagnostics=diagnostics,
        ))
    return reports


def jn_ball_seminorm(f: GridFunction, params: NormParams, radii) -> NormReport:
    """Ball-based equivalent seminorm: centers integrate over the window."""
    return _norms(f, params, None, radii, balls=[params.s])[0]


def rm_ball_seminorm(f: GridFunction, p: float, q: float, alpha: float, radii) -> NormReport:
    return _norms(f, NormParams(p, q, 0, alpha), None, radii, balls=[None])[0]


def amalgam_norm(f: GridFunction, p: float, q: float, r: float) -> float:
    """Wiener-amalgam style norm: l^p over centers of ball L^q means, which
    is the Riesz-Morrey ball seminorm at alpha = 0 and the one radius r."""
    return rm_ball_seminorm(f, p, q, 0.0, [r]).value
