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

from .lattice import GridFunction, Window, _memo, _real_number, grid_points, whole_number
from .polyproj import MAX_DEGREE, ConditioningError, Projector, space_dimension

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
]

INF = math.inf
_BALL_BATCH = 1 << 18  # ball entries (centers x offsets) per row band
_TABLE_BATCH = 1 << 14  # cube entries (cubes x cells per cube) per projection batch
_TIE_RTOL = 1e-12  # candidates this close to the largest value tie (see _first_near_max)
_FALLBACK_RATIO = 1e-6  # residual energy / energy at or below which box sums are not trusted


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


def _moments(values: np.ndarray, s, q):
    """The arrays whose box sums give every cube or ball q-mean at (s, q),
    stacked on a new first axis, or None where the projector route runs:
    |f|^q for s = None at finite q, f and f^2 for s = 0 at q = 2."""
    if s is None and q != INF:
        return np.abs(values)[None] ** q
    if s == 0 and q == 2:
        return np.stack([values, values * values])
    return None


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


def _runs(tables: list, m: int) -> np.ndarray:
    """Sums of every run of m consecutive cells along the last axis of
    tables[0], indexed by the run's first cell (length L - m + 1).

    tables[j] holds the runs of 2^j cells, each the sum of two runs of
    2^(j-1); the list is extended here as far as m needs, so callers that
    share it share those tables.  A run of m cells adds the runs of m's
    binary digits, longest first.  Every sum so adds its own cells and
    subtracts nothing: its error scales with those cells alone, never with
    a prefix sum of the whole axis."""
    while 1 << len(tables) <= m:
        t, w = tables[-1], 1 << (len(tables) - 1)
        tables.append(t[..., :-w] + t[..., w:])
    L = tables[0].shape[-1] - m + 1
    out, at = None, 0
    for j in reversed(range(m.bit_length())):
        if m >> j & 1:
            piece = tables[j][..., at : at + L]
            out = piece if out is None else out + piece
            at += 1 << j
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
    starts: list  # per axis: the used start cells in the padded values
    step: int  # cubes per chunk of the projector route
    groups: list  # per offset group: agg index, table index, count cut, row shape
    offsets_evaluated: int
    cubes_evaluated: int

    @property
    def chunks(self) -> list:
        """Every used start cell, as per-axis indices, in chunks of `step`."""
        return _chunks([g.ravel() for g in np.meshgrid(*self.starts, indexing="ij")], self.step)


def _chunks(at, step: int) -> list:
    """Per-axis index arrays cut into chunks of `step` positions."""
    return [tuple(a[i : i + step] for a in at) for i in range(0, at[0].size, step)]


@_memo
def _side_plan(cells: tuple, m: int, policy: str, stride: int, packings: str, batch: int) -> _SidePlan:
    """The search geometry of side m on a window of `cells`, which holds no
    values: tiling layouts, the start cells in those tilings' phases, the
    chunk length of about `batch` entries, and the offset groups of
    _tiling_sums.  zero-extend pads the values by m - 1 zeros per side."""
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
    groups = []
    # offsets with the same cube counts reduce together, each tiling as one
    # contiguous row, as a lone tiling would
    per_axis = [[(np.flatnonzero(k == c), c) for c in set(k.tolist())] for _, _, k in axes]
    for combo in [] if exhaustive else itertools.product(*per_axis):
        idx, counts = zip(*combo)
        phase = np.ix_(*(first[i] + pad for (_, first, _), i in zip(axes, idx)))
        cut = (Ellipsis, *(slice(c) for c in counts))
        groups.append((np.ix_(*idx), phase, cut, (*map(len, idx), -1)))
    return _SidePlan(
        pad, axes, starts, max(1, batch // m**n), groups,
        0 if exhaustive else math.prod(len(o) for o, _, _ in axes),
        math.prod(len(x) for x in starts),
    )


def _qmean_table(values, projector, m: int, plan: _SidePlan, q, sums=None):
    """Table of the q-means of the side-m cubes in the (padded) values
    (entry x: the cube at cell x; 0 where no cube is computed), and the
    counts of positions taken from box sums and recomputed.

    With `sums` (the box sums of _moments at every start cell) every
    position's q-mean comes from them, and the positions _moment_qmeans
    marks are recomputed.  Otherwise the plan's start cells are computed.
    Cubes recomputed or computed are gathered from a sliding-window view
    chunk by chunk and go through the projector."""
    n = values.ndim
    table = np.zeros([N // m * m for N in values.shape])
    if sums is None:
        chunks, positions, redone = plan.chunks, 0, 0
    else:
        qmeans, redo = _moment_qmeans(sums, m**n, q)
        table[tuple(slice(k) for k in qmeans.shape)] = qmeans
        redo = np.nonzero(redo)
        chunks, positions, redone = _chunks(redo, plan.step), qmeans.size, redo[0].size
    if chunks:
        windows = np.lib.stride_tricks.sliding_window_view(values, (m,) * n)
    for at in chunks:
        batch = windows[at].reshape(len(at[0]), -1)
        if projector is not None:
            # a recomputed cube is shifted by its first cell: the same
            # residual in exact arithmetic, and exactly 0 for a constant cube
            batch = projector.residual(batch if sums is None else batch - batch[:, :1])
        table[at] = _qmean(batch, q)
    return table, positions, redone


def _box_sums(tables: list, m: int, lo: int, shape) -> np.ndarray:
    """Sums of tables[0] (see _runs) over every box of m cells on each of
    its last len(shape) axes whose start cell lies in [lo, lo + N - m] on
    each axis of `shape`."""
    out = _runs(tables, m)[..., lo : lo + shape[-1] - m + 1]
    for axis in range(-2, -len(shape) - 1, -1):
        out = _runs([out.swapaxes(axis, -1)[..., lo : lo + shape[axis]]], m).swapaxes(axis, -1)
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


def _cube_norm(f: GridFunction, params: NormParams, s, search: SearchConfig, name: str) -> NormReport:
    """Shared engine: s is None for the plain-L^q (Riesz-Morrey) variant.

    Per side, one table holds the term of the cube at every start cell in
    use, and every offset tiling (or 1-D packing) is read from it; the
    geometry comes from the memoised side plan.  The reported tiling is the
    first candidate (sides in search order, offsets in itertools.product
    order) that _first_near_max picks.
    """
    window = f.window
    n = window.n
    h = window.h
    p = params.p
    exhaustive = search.packings == "exhaustive"
    if exhaustive and (n != 1 or search.policy != "restrict"):
        raise ValueError("exhaustive packings are available in 1-D under restrict only")
    sides = search.sides(window, 0 if s is None else s)
    # the values and moments padded once for the largest side; each side
    # reads its own padding from them, and every side shares the moments'
    # runs along the last axis
    P = max(sides) - 1 if search.policy == "zero-extend" else 0
    padded = _padded(f.values, P)
    moments = _moments(padded, s, params.q)
    tables = None if moments is None else [moments]
    found = []  # per evaluated side: m, candidate values, what the argmax is read from
    reasons: dict[int, str] = {}  # skipped side -> conditioning message
    offsets_evaluated = cubes_evaluated = table_positions = fallback_positions = 0

    for m in sides:
        try:
            projector = None if s is None else _cube_projector(n, m, s)
        except ConditioningError as err:
            reasons[m] = str(err)
            continue
        plan = _side_plan(window.cells, m, search.policy, search.offset_stride, search.packings, _TABLE_BATCH)
        measure = float(m**n) * window.cell_measure
        weight = measure ** (-params.alpha)
        lo = P - plan.pad
        shape = [N + 2 * plan.pad for N in window.cells]
        values = padded[tuple(slice(lo, lo + N) for N in shape)]
        box = None if tables is None else _box_sums(tables, m, lo, shape)
        table, positions, redone = _qmean_table(values, projector, m, plan, params.q, box)
        table_positions += positions
        fallback_positions += redone
        cubes_evaluated += plan.cubes_evaluated
        offsets_evaluated += plan.offsets_evaluated
        table = weight * table if p == INF else measure * (weight * table) ** p
        if exhaustive:
            table = table[: window.cells[0] - m + 1]
            val, at = _exhaustive_side(table, m, p)
            found.append((m, np.array([val]), (np.asarray([[x + m / 2.0] for x in at]), table[at])))
        else:
            sums, R = _tiling_sums(table, m, plan, p)
            found.append((m, sums if p == INF else sums ** (1.0 / p), (sums, R, plan)))

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
    return NormReport(
        name=name,
        value=value,
        p=p,
        q=params.q,
        s=s,
        alpha=params.alpha,
        argmax_side=side * h,
        argmax_offset=offset,
        centers=np.asarray(window.lower) + centers * h,
        terms=np.array(terms, dtype=float),
        policy=search.policy,
        grid_cells=window.cells,
        diagnostics={
            "engine": "per-side " + ("projector" if moments is None else "moment") + " table",
            "packings": search.packings, "sides": sides,
            "offsets_evaluated": offsets_evaluated, "cubes_evaluated": cubes_evaluated,
            "table_positions": table_positions, "fallback_positions": fallback_positions,
            "skipped_sides": list(reasons), "skip_reasons": reasons,
        },
    )


def _exhaustive_side(c, m, p):
    """The best packing of side-m cubes at any cell positions (1-D DP over
    c, the term of the cube at each start cell): its value and start cells."""
    if p == INF:
        idx = _first_near_max(c)
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
    return _cube_norm(f, params, params.s, search or SearchConfig(), "jn_con")


def rm_con_norm(
    f: GridFunction, p: float, q: float, alpha: float, search: SearchConfig | None = None
) -> NormReport:
    """Congruent-cube L^q aggregate with weight |Q|^(-alpha - 1/q)."""
    return _cube_norm(f, NormParams(p, q, 0, alpha), None, search or SearchConfig(), "rm_con")


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
    corners: np.ndarray  # per center: padded flat index of its box corner
    inside: np.ndarray  # the padded frame's indicator of window cells, flat
    counts: np.ndarray  # per center: cells of its ball inside the window
    projector: Projector | None  # s >= 1: on the unclipped ball, relative to its center
    gram: np.ndarray | None  # s >= 1: per center, the Gram matrix on its clipped ball

    def bands(self, centers=None):
        """Row bands of at most _BALL_BATCH entries (one center at least) over
        the given center indices (all by default): the centers' rows and, per
        center, the padded flat indices of its ball."""
        corners = self.corners if centers is None else self.corners[centers]
        step = max(1, _BALL_BATCH // self.offsets.size)
        for lo in range(0, corners.size, step):
            rows = slice(lo, lo + step) if centers is None else centers[lo : lo + step]
            yield rows, corners[lo : lo + step, None] + self.offsets

    def sums(self, padded: np.ndarray) -> np.ndarray:
        """Per stacked array of the padded values (first axis) and center
        (flat), the sum over the center's ball: the sum of its runs, each
        read from the sums of every 2w + 1 cells along the last axis at the
        run's leading offsets."""
        K, cells = self.pad, tuple(N - 2 * self.pad for N in padded.shape[1:])
        out = np.zeros(padded.shape[:1] + cells)
        tables = [padded]
        for lead, w in self.runs:
            at = (slice(K + d, K + d + N) for d, N in zip(lead, cells))
            out += _runs(tables, 2 * w + 1)[(..., *at, slice(K - w, K - w + cells[-1]))]
        return out.reshape(len(out), -1)


@_memo
def _ball_plan(cells: tuple, h: float, radius: float, s: int | None) -> _BallPlan:
    """The balls of every center on a window of `cells`, which hold no
    values: lattice offsets k with |k| h < radius into the frame padded by
    K = ceil(radius/h) - 1 zeros per side, the same ball as runs along the
    last axis, the clipped cell counts, and for s >= 1 the clipped Gram
    stack, checked once here."""
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
        np.ravel_multi_index(tuple(np.indices(cells).reshape(n, -1)), padded),
        inside.ravel() > 0,
        None,
        None if not s else Projector(offs * h, s, None, radius),
        None,
    )
    plan = plan._replace(counts=plan.sums(inside[None])[0].astype(int))
    if not s:
        return plan
    grams = [Projector(offs * h, s, None, radius, plan.inside[at]).gram for _, at in plan.bands()]
    return plan._replace(gram=np.concatenate(grams))


def _ball_sweep(f: GridFunction, radius: float, s: int | None, q: float):
    """Per-center q-means over balls B(y, radius), y over all midpoints.

    Returns (qmeans, counts, recomputed), recomputed the number of centers
    recomputed, or None off the moment route.  Where _moments applies,
    each ball's sums come from plan.sums of the values zero-padded by the
    plan's K cells, and the centers _moment_qmeans marks are recomputed.
    Those, and every center elsewhere, read their balls from the padded
    values in row bands; a ball clipped by the window edge keeps the cells
    inside it, and its residual is taken on those cells: for s = 0 by the
    mean, for s >= 1 through its own Gram matrix.
    """
    window = f.window
    if not (math.isfinite(radius) and radius > 2 * window.h):
        raise ValueError("radius must be finite and exceed 2h")
    plan = _ball_plan(window.cells, window.h, radius, s)
    moments = _moments(_padded(f.values, plan.pad), s, q)
    qmeans = np.empty(window.cell_count)
    redo = None  # centers to read from the padded values: all of them off the moment route
    if moments is not None:
        qmeans[:], redo = _moment_qmeans(plan.sums(moments), plan.counts, q)
        redo = np.flatnonzero(redo)
        if not redo.size:
            return qmeans, plan.counts, 0
    vals = np.zeros(plan.inside.size)
    vals[plan.inside] = f.flat
    center = plan.offsets.size // 2  # the ball's offsets are symmetric: 0 is the middle one
    for rows, at in plan.bands(redo):
        batch, keep, counts = vals[at], plan.inside[at], plan.counts[rows]
        if s == 0:
            # shifted by the center's value first: the same residual in exact
            # arithmetic, and exactly 0 for a constant ball
            batch = (batch - batch[:, center, None]) * keep
            batch = (batch - (batch.sum(axis=1) / counts)[:, None]) * keep
        elif s is not None:
            batch = plan.projector.clipped(keep, plan.gram[rows]).residual(batch)
        qmeans[rows] = _qmean(batch, q, counts)
    return qmeans, plan.counts, None if redo is None else redo.size


def _ball_aggregate(f: GridFunction, params: NormParams, s, radii, name) -> NormReport:
    """Shared engine, as _cube_norm (s None: Riesz-Morrey); the radius, in
    the given order, is the one _first_near_max picks."""
    window = f.window
    hn = window.cell_measure
    per_radius, offsets, clipped = {}, {}, {}
    table_positions = fallback_positions = 0
    for r in map(float, radii):
        qmeans, counts, redone = _ball_sweep(f, r, s, params.q)
        if redone is not None:
            table_positions += qmeans.size
            fallback_positions += redone
        meas = counts * hn
        terms = meas ** (-params.alpha) * qmeans if params.alpha != 0 else qmeans
        if params.p == INF:
            val = float(terms.max())
        else:
            val = float(((terms**params.p) * hn).sum() ** (1.0 / params.p))
        per_radius[r] = val
        offsets[r] = int(_ball_plan(window.cells, window.h, r, s).offsets.size)
        clipped[r] = int(np.count_nonzero(counts < offsets[r]))
    if not per_radius:
        raise ValueError("a ball seminorm needs at least one radius")
    best_r = list(per_radius)[_first_near_max(list(per_radius.values()))]
    return NormReport(
        name=name,
        value=per_radius[best_r],
        p=params.p,
        q=params.q,
        s=s,
        alpha=params.alpha,
        argmax_side=best_r,
        argmax_offset=None,
        policy="restrict",
        grid_cells=window.cells,
        diagnostics={
            "engine": ("projector" if redone is None else "moment") + " ball sweep", "per_radius": per_radius,
            "centers": "all cell midpoints", "offsets": offsets, "clipped_centers": clipped,
            "table_positions": table_positions, "fallback_positions": fallback_positions,
        },
    )


def jn_ball_seminorm(f: GridFunction, params: NormParams, radii) -> NormReport:
    """Ball-based equivalent seminorm: centers integrate over the window."""
    return _ball_aggregate(f, params, params.s, radii, "jn_ball")


def rm_ball_seminorm(f: GridFunction, p: float, q: float, alpha: float, radii) -> NormReport:
    return _ball_aggregate(f, NormParams(p, q, 0, alpha), None, radii, "rm_ball")


def amalgam_norm(f: GridFunction, p: float, q: float, r: float) -> float:
    """Wiener-amalgam style norm: l^p over centers of ball L^q means, which
    is the Riesz-Morrey ball seminorm at alpha = 0 and the one radius r."""
    return rm_ball_seminorm(f, p, q, 0.0, [r]).value
