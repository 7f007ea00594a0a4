"""Uniform lattices on rectangular windows, regions, and midpoint quadrature.

Everything downstream (norms, operators, decompositions) is computed in one
consistent discrete model:

* functions are sampled at cell midpoints of a uniform grid,
* a region contains a cell iff it contains the cell midpoint,
* the measure of a region is ``(number of contained cells) * h**n``,
* integrals are midpoint-rule sums.

Cubes are half-open, ``[z - r/2, z + r/2)`` per axis, so congruent tilings
partition the window with no double counting.  Dimensions 1 and 2 only.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Window",
    "GridFunction",
    "Cube",
    "Ball",
    "Annulus",
    "Region",
    "annulus",
    "check_packing",
    "region_mask",
    "region_cells",
    "region_measure",
    "grid_points",
    "whole_number",
    "monomials",
    "monomial_factors",
    "moments",
    "integrate",
    "average",
    "lq_norm",
    "EmptyRegionError",
    "LatticeError",
]


_MEMO_BYTES = 64 << 20  # the bytes of arrays the memos may hold (see _memo)
_MEMO = OrderedDict()  # (fn, args) -> (result, bytes), oldest first; .held sums the bytes


class LatticeError(ValueError):
    """Invalid window/grid construction."""


class EmptyRegionError(ValueError):
    """Region contains no cell midpoint of the window."""


def grid_points(axes) -> np.ndarray:
    """Points of the product grid of per-axis coordinates, shape (count, n),
    row-major (the last axis varies fastest), in the coordinates' dtype."""
    axes = [np.asarray(x) for x in axes]
    out = np.empty(tuple(x.size for x in axes) + (len(axes),), dtype=np.result_type(*axes))
    for a, x in enumerate(np.ix_(*axes)):
        out[..., a] = x
    return out.reshape(-1, len(axes))


def whole_number(value, what: str, least: int = 0) -> int:
    """value as an int if it is a whole number >= least, integral floats such
    as 2.0 from a JSON file included; ValueError otherwise."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (v.is_integer() and v >= least):
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(v)


def _real_number(value, what: str, least: float | None = None) -> float:
    """float(value) ("inf" included), >= least if given; ValueError otherwise."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if least is not None and not v >= least:
        raise ValueError(f"{what} must be >= {least:g}, got {value!r}")
    return v


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangular window with a uniform cell pitch.

    The pitch h = (upper - lower) / cells must agree across axes to 1e-12
    relative; every axis needs at least 2 cells.
    """

    n: int
    lower: tuple
    upper: tuple
    cells: tuple

    def __post_init__(self):
        if self.n not in (1, 2):
            raise LatticeError("only dimensions 1 and 2 are supported")
        object.__setattr__(self, "n", int(self.n))  # 2.0 from a JSON file counts as 2
        lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        upper = tuple(float(v) for v in np.atleast_1d(self.upper))
        try:
            cells = tuple(whole_number(c, "window cells") for c in np.atleast_1d(self.cells).tolist())
        except ValueError as exc:
            raise LatticeError(str(exc)) from None
        if not (len(lower) == len(upper) == len(cells) == self.n):
            raise LatticeError("lower/upper/cells must all have length n")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "cells", cells)
        if not all(math.isfinite(v) for v in lower + upper):
            raise LatticeError("window bounds must be finite")
        if any(u <= l for l, u in zip(lower, upper)):
            raise LatticeError("upper must exceed lower componentwise")
        if any(c < 2 for c in cells):
            raise LatticeError("need at least 2 cells per axis")
        pitches = [(u - l) / c for l, u, c in zip(lower, upper, cells)]
        h0 = pitches[0]
        if any(abs(h - h0) > 1e-12 * abs(h0) for h in pitches):
            raise LatticeError("cell pitch must be identical on all axes")

    @property
    def h(self) -> float:
        return (self.upper[0] - self.lower[0]) / self.cells[0]

    @property
    def cell_count(self) -> int:
        return math.prod(self.cells)

    @property
    def cell_measure(self) -> float:
        return self.h**self.n

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lower) + np.asarray(self.upper)) / 2.0

    @property
    def span(self) -> float:
        """Shortest side length."""
        return min(u - l for l, u in zip(self.lower, self.upper))

    def reference_cube(self) -> "Cube":
        """Central cube of half the shortest side."""
        return Cube(tuple(self.center), self.span / 2.0)

    def axis_midpoints(self, axis: int) -> np.ndarray:
        return self.lower[axis] + (np.arange(self.cells[axis]) + 0.5) * self.h

    def midpoints(self) -> np.ndarray:
        """All cell midpoints, shape (cell_count, n), row-major cell order."""
        return grid_points([self.axis_midpoints(a) for a in range(self.n)])

    def cell_midpoints(self, flat_idx) -> np.ndarray:
        """Midpoints of the cells with the given flat (row-major) indices,
        shape (len(flat_idx), n), taken per axis: the rows of midpoints()."""
        idx = np.unravel_index(np.asarray(flat_idx, dtype=int), self.cells)
        return np.stack([self.axis_midpoints(a)[i] for a, i in enumerate(idx)], axis=1)

    def refine(self) -> "Window":
        """The same window at half the pitch."""
        return Window(self.n, self.lower, self.upper, tuple(c * 2 for c in self.cells))

    def padded(self, factor: float) -> "Window":
        """Extend (factor > 1) or shrink (factor < 1) the window symmetrically
        by about `factor` per axis, keeping pitch and midpoint phase."""
        h = self.h
        extra = [math.ceil(c * (factor - 1.0) / 2.0) for c in self.cells]
        return Window(
            self.n,
            tuple(l - e * h for l, e in zip(self.lower, extra)),
            tuple(u + e * h for u, e in zip(self.upper, extra)),
            tuple(c + 2 * e for c, e in zip(self.cells, extra)),
        )

    def lattice_offset(self, other: "Window") -> np.ndarray | None:
        """Index of this window's first cell in the other window's lattice
        (negative below it), or None if the two lattices differ in dimension,
        pitch (beyond 1e-12 relative) or midpoint phase (beyond 1e-9 cells)."""
        if self.n != other.n or abs(self.h - other.h) > 1e-12 * other.h:
            return None
        off = (np.asarray(self.lower) - np.asarray(other.lower)) / other.h
        rounded = np.round(off).astype(int)
        if np.max(np.abs(off - rounded)) > 1e-9:
            return None
        return rounded

    def to_dict(self) -> dict:
        return {"n": self.n, "lower": list(self.lower), "upper": list(self.upper), "cells": list(self.cells)}


def _finite_center(center, size: float, what: str) -> tuple:
    """The center as a tuple of floats; ValueError unless it and the region's
    size (side or radius) are finite."""
    center = tuple(float(v) for v in np.atleast_1d(center))
    if not all(math.isfinite(v) for v in center + (size,)):
        raise ValueError(f"{what} and center must be finite")
    return center


@dataclass(frozen=True)
class Cube:
    """Half-open cube Q_z(r): [z_i - r/2, z_i + r/2) on every axis."""

    center: tuple
    side: float

    def __post_init__(self):
        object.__setattr__(self, "side", float(self.side))
        object.__setattr__(self, "center", _finite_center(self.center, self.side, "cube side"))
        if self.side <= 0:
            raise ValueError("cube side must be positive")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def scale(self) -> float:
        return self.side / 2.0

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        lo = c - self.side / 2.0
        hi = c + self.side / 2.0
        return np.all((pts >= lo) & (pts < hi), axis=-1)

    def grid_contains(self, axes) -> np.ndarray:
        inside = True
        for x, c in zip(axes, self.center):
            inside = inside & (x >= c - self.side / 2.0) & (x < c + self.side / 2.0)
        return inside

    def dilate(self, lam: float) -> "Cube":
        return Cube(self.center, lam * self.side)

    def to_dict(self) -> dict:
        return {"kind": "cube", "center": list(self.center), "side": self.side}


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball B(x, r)."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "center", _finite_center(self.center, self.radius, "ball radius"))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def scale(self) -> float:
        return self.radius

    def contains(self, pts: np.ndarray) -> np.ndarray:
        d = pts - np.asarray(self.center)
        return np.sum(d * d, axis=-1) < self.radius**2

    def grid_contains(self, axes) -> np.ndarray:
        return sum((x - c) * (x - c) for x, c in zip(axes, self.center)) < self.radius**2


@dataclass(frozen=True)
class Annulus:
    """Dyadic cube annulus Q_z(2^j r) minus Q_z(2^(j-1) r), level j >= 1."""

    center: tuple
    base_side: float
    level: int

    def __post_init__(self):
        object.__setattr__(self, "base_side", float(self.base_side))
        object.__setattr__(self, "center", _finite_center(self.center, self.base_side, "base side"))
        object.__setattr__(self, "level", whole_number(self.level, "annulus level (0 is the core cube)", 1))
        if self.base_side <= 0:
            raise ValueError("base side must be positive")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def outer(self) -> Cube:
        return Cube(self.center, self.base_side * 2**self.level)

    @property
    def inner(self) -> Cube:
        return Cube(self.center, self.base_side * 2 ** (self.level - 1))

    @property
    def scale(self) -> float:
        return self.outer.scale

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return self.outer.contains(pts) & ~self.inner.contains(pts)

    def grid_contains(self, axes) -> np.ndarray:
        return self.outer.grid_contains(axes) & ~self.inner.grid_contains(axes)


# Every region has contains(pts), the pointwise membership of points of shape
# (..., n), and grid_contains(axes), the same rule on the product grid of
# per-axis coordinate arrays that broadcast against each other (as from
# np.ix_): a mask costs per-axis comparisons plus one outer and/or.
Region = Cube | Ball | Annulus


def annulus(z, r: float, j: int) -> Region:
    """Dyadic annulus around Q_z(r); by convention j = 0 returns the core cube."""
    if j == 0:
        return Cube(tuple(np.atleast_1d(z)), r)
    return Annulus(tuple(np.atleast_1d(z)), r, j)


@dataclass
class GridFunction:
    """Real values sampled at the cell midpoints of a window.

    ``values`` has shape ``window.cells`` (row-major over axes).
    """

    window: Window
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape == (self.window.cell_count,):
            v = v.reshape(self.window.cells)
        elif v.shape != self.window.cells:
            raise LatticeError(
                f"values of shape {v.shape} do not fit a window of {self.window.cells} cells"
            )
        if not np.all(np.isfinite(v)):
            raise LatticeError("grid function values must be finite")
        self.values = v

    @classmethod
    def from_callable(cls, window: Window, fn) -> "GridFunction":
        pts = window.midpoints()
        if window.n == 1:
            vals = np.asarray(fn(pts[:, 0]), dtype=float)
        else:
            vals = np.asarray(fn(pts[:, 0], pts[:, 1]), dtype=float)
        return cls(window, np.broadcast_to(vals, (window.cell_count,)).reshape(window.cells))

    @classmethod
    def zeros(cls, window: Window) -> "GridFunction":
        return cls(window, np.zeros(window.cells))

    @classmethod
    def monomial(cls, window: Window, gamma) -> "GridFunction":
        """y^gamma sampled on the window; LatticeError unless gamma has one
        entry per axis."""
        return cls(window, functools.reduce(np.multiply.outer, monomial_factors(window, gamma)))

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            if self.window != other.window:
                raise LatticeError("window mismatch in grid-function arithmetic")
            return GridFunction(self.window, self.values + other.values)
        return GridFunction(self.window, self.values + other)

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            if self.window != other.window:
                raise LatticeError("window mismatch in grid-function arithmetic")
            return GridFunction(self.window, self.values - other.values)
        return GridFunction(self.window, self.values - other)

    def __mul__(self, scalar):
        return GridFunction(self.window, self.values * float(scalar))

    __rmul__ = __mul__

    def save(self, path) -> None:
        payload = self.window.to_dict()
        payload["values"] = [float(v) for v in self.flat]
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path) -> "GridFunction":
        d = json.loads(Path(path).read_text())
        window = Window(d["n"], tuple(d["lower"]), tuple(d["upper"]), tuple(d["cells"]))
        return cls(window, np.asarray(d["values"], dtype=float))


def monomial_factors(window: Window, gamma) -> tuple:
    """y^gamma on the window as per-axis factors, whose outer product is it at the
    midpoints() rows, bit for bit; LatticeError unless gamma has one entry per axis."""
    gamma = tuple(int(g) for g in np.atleast_1d(gamma))
    if len(gamma) != window.n:
        raise LatticeError(f"multi-index {gamma} needs {window.n} entries, one per window axis")
    # a zero entry's factor is all ones, as monomials gives it, as a read-only view: no
    # midpoints and no array are built (a 1-D frame's would be frame-sized)
    return tuple(monomials(window.axis_midpoints(a)[:, None], [(g,)])[:, 0] if g else np.broadcast_to(1.0, (c,))
                 for a, (g, c) in enumerate(zip(gamma, window.cells)))


def monomials(pts: np.ndarray, gammas, anchor=None, scale: float = 1.0) -> np.ndarray:
    """Columns ((x - anchor)/scale)^gamma at the points, shape (len(pts), len(gammas))."""
    pts = np.asarray(pts, dtype=float)
    out = np.ones((pts.shape[0], len(gammas)))
    for axis in range(pts.shape[1]):
        if not any(g[axis] for g in gammas):
            continue
        z = pts[:, axis] if anchor is None else pts[:, axis] - anchor[axis]
        if scale != 1.0:
            z = z / scale
        for k, g in enumerate(gammas):
            if g[axis]:
                out[:, k] *= z ** g[axis]
    return out


def moments(values: np.ndarray, columns: np.ndarray, cell_measure: float) -> list[float]:
    """Midpoint-rule moments: the sums of values * column * cell_measure over
    the cells, one per column of `columns` (e.g. a :func:`monomials` matrix).
    The columns are made C-contiguous rows first, so each row's sum is the
    pairwise sum of that product alone, bit for bit."""
    return ((np.ascontiguousarray(columns.T) * values).sum(axis=1) * cell_measure).tolist()


def check_packing(cubes, side: float, what: str) -> None:
    """Raise ValueError unless the cubes all have this side and are interior
    pairwise disjoint.  Two such cubes overlap iff their centers are closer
    than a side on every axis; a chunk of rows i meets every j > i at once."""
    if any(abs(c.side - side) > 1e-12 * side for c in cubes):
        raise ValueError(f"{what} cubes must be congruent")
    if len(cubes) < 2:  # nothing to overlap
        return
    ctr = np.asarray([c.center for c in cubes], dtype=float)
    chunk = max(1, (1 << 18) // len(ctr))
    for i in range(0, len(ctr), chunk):
        near = np.all(np.abs(ctr[i : i + chunk, None] - ctr) < side * (1 - 1e-12), axis=2)
        if np.triu(near, i + 1).any():
            raise ValueError(f"{what} cubes must be interior disjoint")


def _frozen(tree) -> int:
    """Make a result's arrays read-only, as memos share them, through tuples,
    lists and objects' attributes; return their bytes."""
    if isinstance(tree, np.ndarray):
        tree.flags.writeable = False
        return tree.nbytes
    if isinstance(tree, (tuple, list)):
        return sum(map(_frozen, tree))
    return sum(map(_frozen, vars(tree).values())) if hasattr(tree, "__dict__") else 0


def _memo(fn):
    """Memoise fn, a function of hashable geometry and kernels that reads no
    values and has no defaulted arguments, in _MEMO under fn and its arguments
    in positional order, however passed.  Results are read-only, as callers
    share them.  A hit is one lookup and leaves the order alone; a miss evicts
    the oldest entries until the arrays held fit in _MEMO_BYTES.  Keys hold
    their arguments: a built-in kernel and its transpose are one object each
    (czkernel.kernel_by_name, kernel_transpose) and live on anyway."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if kwargs:
            args = sig.bind(*args, **kwargs).args
        key = call, args
        hit = _MEMO.get(key)
        if hit is not None:
            return hit[0]
        result = fn(*args)
        size = _frozen(result)
        if size <= _MEMO_BYTES:
            _MEMO[key] = result, size
            _MEMO.held = size + (_MEMO.held if len(_MEMO) > 1 else 0)  # a lone entry: as after _MEMO.clear()
            while _MEMO.held > _MEMO_BYTES:
                _MEMO.held -= _MEMO.popitem(last=False)[1][1]
        return result

    return call


def region_mask(window: Window, region: Region) -> np.ndarray:
    """Boolean mask (flat, row-major) of window cells with midpoint in region,
    built on each call and owned by the caller."""
    if region.n != window.n:
        raise LatticeError(f"a {region.n}-D region on a {window.n}-D window")
    axes = np.ix_(*(window.axis_midpoints(a) for a in range(window.n)))
    return region.grid_contains(axes).reshape(-1)


@_memo
def region_cells(window: Window, region: Region) -> np.ndarray:
    """The flat indices of region_mask's cells, sorted, so a gather through
    them reads the region's values in row-major order, as a mask does;
    read-only and memoised per (window, region)."""
    return np.flatnonzero(region_mask(window, region))


def region_measure(window: Window, region: Region) -> float:
    """Cell-counted measure of a region: its window cells times h^n."""
    return float(region_cells(window, region).size) * window.cell_measure


def integrate(f: GridFunction, region: Region) -> float:
    """Midpoint-rule integral of f over the region (0 for a disjoint region)."""
    return float(f.flat[region_cells(f.window, region)].sum()) * f.window.cell_measure


def average(f: GridFunction, region: Region) -> float:
    """Mean of f over the region's window cells (the cell-counted measure)."""
    cells = region_cells(f.window, region)
    if not cells.size:
        raise EmptyRegionError(f"region {region} contains no cell midpoint")
    return float(f.flat[cells].sum()) / cells.size


def lq_norm(f: GridFunction, region: Region, q) -> float:
    """L^q norm over the region; q = inf gives the midpoint sup."""
    q = _real_number(q, "q", 1)
    return _lq(f.flat[region_cells(f.window, region)], q, f.window.cell_measure)


def _lq(values: np.ndarray, q, cell_measure: float) -> float:
    """The L^q norm of a region's values, listed in row-major order with
    the region's zeros: the sum keeps lq_norm's grouping, bit for bit."""
    vals = np.abs(values)
    if vals.size == 0:
        return 0.0
    if q == math.inf:
        return float(vals.max())
    return float((vals**q).sum() * cell_measure) ** (1.0 / q)
