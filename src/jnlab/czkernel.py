"""Singular kernels, truncated principal-value operators, and the corrected
operator that is well defined modulo polynomials.

The principal value is realized by symmetric cell exclusion: the truncation
radius eta is an integer multiple of the pitch h, so the excluded midpoint set
is symmetric about each evaluation point and odd kernels annihilate locally
even integrands exactly.  The limit eta -> 0+ is reported as a three-rung
ladder {4h, 2h, h} with Cauchy increments, never extrapolated.

Integrals over the whole space are truncated to the source window (functions
are zero-extended outside); wide-window helpers carry padding-doubling
sensitivity diagnostics so the truncation error is visible, not hidden.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Cube, GridFunction, Window, _memo, grid_points, monomial_factors, moments, monomials, whole_number
from .polyproj import Projector, index_factorial, moment_projection, multi_indices

__all__ = [
    "KernelSpec",
    "CorrectionSpec",
    "kernel_transpose",
    "hilbert_kernel",
    "riesz_kernel",
    "perturbed_kernel",
    "smooth_bump_kernel",
    "kernel_by_name",
    "apply_truncated",
    "apply_cz",
    "apply_modified",
    "modified_on_monomial",
    "poly_distance",
    "vanishing_moment_defect",
    "CZResult",
    "ModifiedResult",
    "MonomialImage",
    "DefectReport",
]

_PAIR_BUDGET = 4_000_000  # max pairwise entries held at once
_BAND_CELLS = 1 << 15  # cells per row band of a full-frame pass (fits in cache)
_TILE = 64  # cells per side of a 2-D point-sum tile (see _conv_at_points)


@dataclass(frozen=True)
class KernelSpec:
    """Off-diagonal kernel with closed-form slot derivatives up to `order`.

    k(x, y), d1(gamma, x, y), d2(gamma, x, y) accept arrays of shape (..., n)
    and return (...).  Values on the diagonal are never used (masked off).

    A kernel of the form K(x, y) = a(x) kappa(x - y) also carries its
    difference kernel `kappa(u)` and, if it has one, the modulation `a(z)`
    together with the slot it multiplies (`modulation_slot` 1 for a(x), 2 for
    a(y)).  On a shared midpoint lattice such a kernel runs through one
    difference table of kappa that covers only the differences x - y between
    the evaluation cells and the bounding box of the source cells; the
    modulation then scales the evaluation side (slot 1) or the source weights
    (slot 2).  Kernels without kappa, and explicit off-lattice evaluation
    points, take the pairwise sum of k.  The Taylor correction always uses
    the closed-form d1.
    """

    name: str
    n: int
    order: int
    delta: float
    k: callable
    d1: callable
    d2: callable
    kappa: callable | None = None
    modulation: callable | None = None
    modulation_slot: int = 1

    def __post_init__(self):
        object.__setattr__(self, "order", whole_number(self.order, "kernel order"))
        if self.modulation_slot not in (1, 2):
            raise ValueError("modulation_slot must be 1 or 2")
        if self.modulation is not None and self.kappa is None:
            raise ValueError("a modulated kernel needs its difference kernel kappa")


@dataclass(frozen=True)
class CorrectionSpec:
    """Base ball B0 = B(x0, r0) and Taylor order of the kernel correction."""

    center: tuple
    radius: float
    order: int

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        object.__setattr__(self, "center", center)
        if not center:
            raise ValueError("correction ball center needs a coordinate per axis")
        object.__setattr__(self, "radius", float(self.radius))
        if not all(math.isfinite(c) for c in center):
            raise ValueError("correction ball center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("correction ball radius must be positive and finite")
        object.__setattr__(self, "order", whole_number(self.order, "correction order"))


def kernel_transpose(kernel: KernelSpec) -> KernelSpec:
    """Swap the kernel slots; slot derivatives swap along, kappa is reflected
    and the modulation moves to the other slot."""
    kappa = kernel.kappa
    return KernelSpec(
        name=kernel.name + "_t",
        n=kernel.n,
        order=kernel.order,
        delta=kernel.delta,
        k=lambda x, y: kernel.k(y, x),
        d1=lambda g, x, y: kernel.d2(g, y, x),
        d2=lambda g, x, y: kernel.d1(g, y, x),
        # 0.0 - u rather than -u: zero components stay +0.0, as in y - x
        kappa=None if kappa is None else (lambda u: kappa(0.0 - u)),
        modulation=kernel.modulation,
        modulation_slot=3 - kernel.modulation_slot,
    )


def _convolution(name, n, order, delta, dkappa, dmod=None) -> KernelSpec:
    """K(x, y) = a(x) kappa(x - y) from dkappa(gamma, u), the derivatives of
    kappa, and dmod(gamma, z), those of the modulation a (a = 1 when dmod is
    None).  The second slot's derivatives follow from the chain rule, the
    first slot's from the Leibniz rule."""
    zero = (0,) * n

    def kappa(u):
        return dkappa(zero, u)

    def d2k(gamma, x, y):
        g = tuple(gamma)
        sign = -1.0 if sum(g) % 2 else 1.0
        return sign * dkappa(g, x - y)

    if dmod is None:
        return KernelSpec(
            name, n, order, delta,
            k=lambda x, y: kappa(x - y),
            d1=lambda g, x, y: dkappa(tuple(g), x - y),
            d2=d2k, kappa=kappa,
        )

    def a(z):
        return dmod(zero, z)

    def d1(gamma, x, y):
        out = 0.0
        for beta in itertools.product(*(range(g + 1) for g in gamma)):
            coef = math.prod(math.comb(g, b) for g, b in zip(gamma, beta))
            rest = tuple(g - b for g, b in zip(gamma, beta))
            out = out + coef * dmod(beta, x) * dkappa(rest, x - y)
        return out

    return KernelSpec(
        name, n, order, delta,
        k=lambda x, y: a(x) * kappa(x - y),
        d1=d1,
        d2=lambda g, x, y: a(x) * d2k(g, x, y),
        kappa=kappa, modulation=a,
    )


def _dhilbert(gamma, u):
    """Derivatives of 1/u on the line."""
    g = int(gamma[0])
    if g == 0:
        return 1.0 / u[..., 0]  # the value below, without the power
    return (-1.0) ** g * math.factorial(g) / u[..., 0] ** (g + 1)


def hilbert_kernel(order: int = 4) -> KernelSpec:
    """K(x, y) = 1 / (x - y) on the line."""
    return _convolution("hilbert", 1, order, 1.0, _dhilbert)


def riesz_kernel(j: int = 0, n: int = 2, order: int | None = None) -> KernelSpec:
    """K(x, y) = (x_j - y_j) / |x - y|^(n+1); reduces to the line kernel at n=1."""
    if n == 1:
        return replace(hilbert_kernel(order=4 if order is None else order), name="riesz0")
    if n != 2:
        raise ValueError("riesz kernel built for n in {1, 2}")
    if j not in (0, 1):
        raise ValueError("component j must be 0 or 1")
    order = 2 if order is None else order
    if order > 2:
        raise ValueError(f"riesz derivatives implemented up to order 2, got {order!r}")

    def dkappa(gamma, u):
        # the two squares summed in np.sum's order, without its slow reduction
        # over a last axis of length 2
        R2 = u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1]
        total = sum(gamma)
        uj = u[..., j]
        if total == 0:
            return uj * R2**-1.5
        axes = [a for a, g in enumerate(gamma) for _ in range(g)]
        if total == 1:
            (i,) = axes
            return (1.0 if i == j else 0.0) * R2**-1.5 - 3.0 * u[..., i] * uj * R2**-2.5
        if total == 2:
            i, k2 = axes
            d_ij = 1.0 if i == j else 0.0
            d_jk = 1.0 if j == k2 else 0.0
            d_ik = 1.0 if i == k2 else 0.0
            return (
                -3.0 * (d_ij * u[..., k2] + d_jk * u[..., i] + d_ik * uj) * R2**-2.5
                + 15.0 * u[..., i] * uj * u[..., k2] * R2**-3.5
            )
        raise ValueError("riesz derivatives implemented up to order 2")

    return _convolution(f"riesz{j}", 2, order, 1.0, dkappa)


def perturbed_kernel(order: int = 4) -> KernelSpec:
    """K(x, y) = (2 + sin x) / (x - y): the x-modulation breaks the vanishing
    moments of the associated operator, giving the contrast case.  It is
    a(x) kappa(x - y) with a = 2 + sin and kappa = 1/u."""

    def dmod(gamma, z):
        # d^m/dx^m of (2 + sin x); the constant survives only at m = 0
        m = int(gamma[0])
        if m == 0:
            return 2.0 + np.sin(z[..., 0])
        return np.sin(z[..., 0] + m * math.pi / 2.0)

    return _convolution("perturbed", 1, order, 1.0, _dhilbert, dmod)


def smooth_bump_kernel(n: int = 1, order: int = 4) -> KernelSpec:
    """Nonsingular control kernel exp(-|x - y|^2)."""

    def herm(g, t):
        # physicists' Hermite polynomials via recursion
        h_prev = np.ones_like(t)
        if g == 0:
            return h_prev
        h = 2.0 * t
        for k in range(1, g):
            h, h_prev = 2.0 * t * h - 2.0 * k * h_prev, h
        return h

    def dkappa(gamma, u):
        out = np.ones(u.shape[:-1])
        for axis, g in enumerate(gamma):
            t = u[..., axis]
            out = out * (-1.0) ** g * herm(g, t) * np.exp(-t * t)
        return out

    return _convolution("smooth_bump", n, order, 1.0, dkappa)


def kernel_by_name(name: str, **params) -> KernelSpec:
    """Built-in kernel `name`; ValueError for parameters its builder does not take."""
    builders = {
        "hilbert": hilbert_kernel,
        "riesz": riesz_kernel,
        "riesz0": lambda **kw: riesz_kernel(0, **kw),
        "riesz1": lambda **kw: riesz_kernel(1, **kw),
        "perturbed": perturbed_kernel,
        "smooth_bump": smooth_bump_kernel,
    }
    if name not in builders:
        raise KeyError(f"unknown kernel {name!r}; have {sorted(builders)}")
    try:
        return builders[name](**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for kernel {name!r}: {exc}") from None


def _validate_eta(eta: float, h: float) -> float:
    m = round(eta / h) if math.isfinite(eta) else 0
    if m < 1 or abs(eta - m * h) > 1e-9 * h:
        raise ValueError("eta must be a finite integer multiple of the pitch, at least h")
    return float(m * h)


def _source_arrays(f: GridFunction):
    """Midpoints and quadrature weights of f's nonzero cells."""
    nz = np.nonzero(f.flat)[0]
    return f.window.cell_midpoints(nz), f.flat[nz] * f.window.cell_measure


def _truncated_raw(kernel, eval_pts, src_pts, src_w, eta) -> np.ndarray:
    """sum over sources with |x - y| >= eta of K(x, y) * weight."""
    eta2 = eta * eta * (1.0 - 1e-12)
    out = np.zeros(eval_pts.shape[0])
    n_eval, n_src = eval_pts.shape[0], src_pts.shape[0]
    if n_src == 0:
        return out
    chunk = max(1, _PAIR_BUDGET // n_src)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n_eval, chunk):
            X = eval_pts[start : start + chunk]
            D = X[:, None, :] - src_pts[None, :, :]
            d2 = (D * D).sum(axis=2)
            mask = d2 >= eta2
            kv = kernel.k(
                np.broadcast_to(X[:, None, :], D.shape),
                np.broadcast_to(src_pts[None, :, :], D.shape),
            )
            out[start : start + chunk] = np.where(mask, kv, 0.0) @ src_w
    return out


def _cell_indices(window: Window, flat_idx: np.ndarray) -> np.ndarray:
    if window.n == 1:
        return flat_idx[:, None]
    return np.stack(np.unravel_index(flat_idx, window.cells), axis=1)


def _box(lo, shape) -> tuple:
    return tuple(slice(int(a), int(a) + int(c)) for a, c in zip(lo, shape))


def _bands(shape) -> list:
    """Row ranges (start, stop) over the leading axis of an array of this
    shape, each of about _BAND_CELLS cells.  A 1-D frame is a single row and
    so a single band: cutting it would only multiply the numpy calls of a pass
    that reads each cell once (_conv_forward cuts it into flat bands)."""
    rows = int(shape[0])
    if len(shape) == 1:
        return [(0, rows)]
    step = max(1, _BAND_CELLS // int(np.prod(shape[1:])))
    return [(a, min(a + step, rows)) for a in range(0, rows, step)]


def _frame_bands(window: Window):
    """(first row, end row, midpoints) of each row band of the window.  The
    midpoints are built per axis, so no (cells, n) array of the whole window
    is formed."""
    axes = [window.axis_midpoints(a) for a in range(window.n)]
    for a, b in _bands(window.cells):
        yield a, b, grid_points([axes[0][a:b], *axes[1:]])


def _frame_rows(factors, a: int = 0, b: int | None = None) -> np.ndarray:
    """The outer product of per-axis factors on rows a:b of the leading axis, flat."""
    return functools.reduce(np.multiply.outer, (factors[0][a:b], *factors[1:])).reshape(-1)


def _difference_table(kappa, h: float, eta: float, lo, hi) -> np.ndarray:
    """kappa(d h) on the integer difference vectors lo <= d <= hi (per axis),
    zeroed where |d h| < eta.

    Two cells of one midpoint lattice differ by d h with d an index vector,
    so a single table serves every source/evaluation pair of a difference
    kernel by index shifts.  kappa is evaluated one row band at a time; each
    entry is the same elementwise expression as in a one-shot evaluation."""
    eta2 = eta * eta * (1.0 - 1e-12)
    axes = [np.arange(a, b + 1) * h for a, b in zip(lo, hi)]
    table = np.empty(tuple(a.size for a in axes))
    for a, b in _bands(table.shape):
        band = [axes[0][a:b], *axes[1:]]
        r2 = sum(x * x for x in np.ix_(*band))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = kappa(grid_points(band)).reshape(r2.shape)
        table[a:b] = np.where(r2 >= eta2, vals, 0.0)
    return table


@_memo
def _shared_table(kappa, h: float, eta: float, lo: tuple, hi: tuple) -> np.ndarray:
    return _difference_table(kappa, h, eta, lo, hi)


def _box_table(kappa, h, eta, eval_lo, eval_hi, src_lo, src_hi):
    """Difference table over {x - y : eval_lo <= x <= eval_hi, src_lo <= y
    <= src_hi} (index boxes, inclusive), and the index of its first entry;
    the table is read-only and built once per (kappa, h, eta, box) while kappa lives."""
    origin = np.asarray(eval_lo) - np.asarray(src_hi)
    hi = tuple(map(int, np.asarray(eval_hi) - np.asarray(src_lo)))
    return _shared_table(kappa, h, eta, tuple(map(int, origin)), hi), origin


def _conv_forward(table, origin, eval_lo, eval_shape, src_idx, src_w) -> np.ndarray:
    """Box sums out[x] = sum_s table[x - s - origin] w_s over the cells x of
    the box eval_lo + [0, eval_shape), flat.  They run over rows of the
    table's own pitch, where each source's shifted view is one contiguous run
    of the flat table, in bands of whole rows of at most _BAND_CELLS cells (or
    one row; a 1-D frame is rows of one cell).  Each band's valid columns go to
    their rows of the output, which holds the box's cells and nothing more.
    Each cell adds its sources in the same order whatever the bands, so the
    sums are those of a one-shot accumulation, bit for bit.  The table must be
    C-contiguous (the memoised one, not the reflected view)."""
    if not table.flags.c_contiguous:
        raise ValueError("the forward sums need a C-contiguous difference table, not a strided or reflected view")
    flat, shape = table.reshape(-1), np.asarray(eval_shape)
    starts = np.ravel_multi_index(tuple((np.asarray(eval_lo) - origin - np.asarray(src_idx)).T), table.shape).tolist()
    size = int(np.ravel_multi_index(tuple(shape - 1), table.shape)) + 1  # through the last cell of the box
    pitch, per = table.size // table.shape[0], int(np.prod(shape[1:]))  # cells per row of the table and of the box
    rows = max(1, _BAND_CELLS // pitch)
    out, tmp = np.empty(shape[0] * per), np.empty(min(size, rows * pitch))
    acc = np.empty(rows * pitch) if per < pitch else None  # a band of sums, when rows carry columns beyond the box
    for r in range(0, shape[0], rows):
        k = min(rows, shape[0] - r)
        a, b = r * pitch, min((r + k) * pitch, size)
        sums = out[r * per : (r + k) * per] if acc is None else acc[: b - a]
        sums[...] = 0.0
        for s, w in zip(starts, src_w):
            np.multiply(w, flat[s + a : s + b], out=tmp[: b - a])
            sums += tmp[: b - a]
        if acc is not None:  # the last row of the last band ends at the box's last cell
            band = acc[: k * pitch].reshape(k, *table.shape[1:])[(slice(None), *map(slice, shape[1:]))]
            out[r * per : (r + k) * per].reshape(k, *shape[1:])[...] = band
    return out


def _toeplitz(v, lags: int) -> np.ndarray:
    """M of shape (len(v) + lags - 1, lags) with (A @ M)[t, j] = sum_c A[t, j + c] v[c]."""
    z = np.concatenate([np.zeros(lags - 1), v, np.zeros(lags - 1)])
    return np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(z, lags)[:, ::-1])


def _conv_at_points(table, origin, eval_idx, grid_lo, W) -> np.ndarray:
    """Point sums out[k] = sum over the cells y of the weight box grid_lo +
    [0, shape) of table[x_k - y - origin] W[y - grid_lo], W the box or, in 2-D,
    a list of rank-one terms (u, v), W = sum u (x) v.  With W reversed, W[::-1][j]
    pairs with table[start_k + j].  1-D: one dot per point.  2-D, per term: a
    GEMM with the Toeplitz matrix of the reversed v, then one with that of the
    reversed u (a box array is one term per row; a unit u only scales).  BLAS
    rounding depends on the operand shapes, so the GEMMs run over _TILE x _TILE
    tiles of starts from the table's first entry: on a table covering whole
    tiles of the box's grid (as _lattice_sums builds), a point's sum does not
    depend on which other points are evaluated."""
    if isinstance(W, np.ndarray) and W.ndim == 1:
        last = np.asarray(grid_lo) + np.asarray(W.shape) - 1
        return np.array([np.dot(W, table[_box(x - last - origin, W.shape)][::-1]) for x in eval_idx])
    terms = W if isinstance(W, list) else [(np.eye(1, len(W), r)[0], row) for r, row in enumerate(W)]
    shape = np.array([terms[0][0].size, terms[0][1].size])
    starts = np.asarray(eval_idx) - grid_lo - (shape - 1) - origin
    tiles = starts // _TILE
    groups = [(np.flatnonzero((tiles == t).all(axis=1)), np.array(t) * _TILE) for t in set(map(tuple, tiles.tolist()))]
    sums = [np.zeros(np.minimum(lo + _TILE, np.asarray(table.shape) - shape + 1) - lo) for _, lo in groups]  # by start
    for u, v in terms:
        ur = u[::-1]
        a, b = np.flatnonzero(ur)[[0, -1]] + (0, 1)
        for (_, lo), acc in zip(groups, sums):
            block = table[lo[0] + a : lo[0] + acc.shape[0] + b - 1, lo[1] : lo[1] + acc.shape[1] + shape[1] - 1]
            M = _toeplitz(v[::-1], acc.shape[1])
            # BLAS reads positive strides: a reflected table goes as its positive view
            P = block @ M if block.strides[1] > 0 else (block[::-1, ::-1] @ M[::-1].copy())[::-1]
            acc += P * ur[a] if b - a == 1 else _toeplitz(ur[a:b], acc.shape[0]).T @ P
    out = np.zeros(len(starts))
    for (at, lo), acc in zip(groups, sums):
        out[at] = acc[tuple((starts[at] - lo).T)]
    return out


def _modulation(kernel: KernelSpec, window: Window) -> np.ndarray:
    """The modulation a at every cell of the window (flat), row band by row band."""
    return np.concatenate([kernel.modulation(pts) for _, _, pts in _frame_bands(window)])


def _modulated(kernel: KernelSpec, slot: int, values, window: Window, cells=None, a=None):
    """values * a when the kernel's modulation a multiplies `slot`: values
    over every cell of the window (flat), or at the cells with flat indices
    `cells`; `a` is the modulation over the window, if the caller has it."""
    if kernel.modulation is None or kernel.modulation_slot != slot:
        return values
    a = _modulation(kernel, window) if a is None else a
    return values * (a if cells is None else a[cells])


def _frame_moment(values, factors, window: Window) -> float:
    """lattice.moments of values (flat, over the window) against the monomial
    with these per-axis factors, summed row band by row band."""
    v = values.reshape(window.cells)
    return sum(
        moments(v[a:b].reshape(-1), _frame_rows(factors, a, b)[:, None], window.cell_measure)[0]
        for a, b in _bands(window.cells)
    )


def _lattice_sums(kernel, eta, src_window, src_weights, eval_window, eval_cells=None, table=None, a=None):
    """Truncated sums: sum over the cells y of src_window with |x - y| >= eta
    of K(x, y) w_y, with the flat weights w = src_weights or, for a tuple of
    per-axis factors (a monomial's), their outer product times the cell
    measure.  They are taken at every cell x of eval_window, at its cells with
    flat indices eval_cells, or at the rows of an (m, n) point array passed as
    eval_window; `a` is the modulation over the window it scales, if known.
    Returns the sums and the difference table (table, origin) they used, or
    None for the pairwise sum.

    This is the one place that picks the engine.  A kernel with a difference
    kernel kappa, evaluated at cells of the source lattice, runs through one
    difference table of kappa at the source pitch over the evaluation window
    minus the bounding box of the nonzero sources (or through `table`, which
    must cover the differences in use).  With no more evaluation cells than
    nonzero sources, or factors, each evaluation cell takes one point sum over
    the weight box (_conv_at_points); otherwise each nonzero source adds one
    shifted view over the evaluation window.  The modulation scales the source
    weights (slot 2) or the sums (slot 1).  Kernels without kappa, other
    lattices and explicit points take the pairwise sum over nonzero sources."""
    if kernel.n != src_window.n:
        raise ValueError(f"kernel {kernel.name!r} is {kernel.n}-D but the source window is {src_window.n}-D")
    on_cells = isinstance(eval_window, Window)
    if on_cells:
        cells = range(eval_window.cell_count) if eval_cells is None else eval_cells
    eval_lo = eval_window.lattice_offset(src_window) if on_cells and kernel.kappa is not None else None
    frame = isinstance(src_weights, tuple)  # in 2-D one rank-one term of the point sums
    if frame and (eval_lo is None or src_window.n == 1 or kernel.modulation is not None):
        src_weights, frame = _frame_rows(src_weights) * src_window.cell_measure, False
    if eval_lo is None:
        pts = eval_window.cell_midpoints(cells) if on_cells else eval_window
        keep = np.flatnonzero(src_weights)
        return _truncated_raw(kernel, pts, src_window.cell_midpoints(keep), src_weights[keep], eta), None
    count = src_window.cell_count if frame else np.count_nonzero(src_weights)
    if count == 0:
        return np.zeros(len(cells)), table or (np.zeros((0,) * src_window.n), eval_lo)
    nz = None
    if frame or count == src_weights.size:  # a dense frame is its own support box
        lo, hi = np.zeros(src_window.n, int), np.asarray(src_window.cells) - 1
    else:  # the box of the nonzero list
        nz = np.flatnonzero(src_weights)
        src_at = _cell_indices(src_window, nz)
        lo, hi = src_at.min(axis=0), src_at.max(axis=0)
    points = frame or len(cells) <= count
    if table is None:
        box_lo, box_hi = eval_lo, eval_lo + np.asarray(eval_window.cells) - 1
        if points and src_window.n == 2:  # whole tiles of the point sums
            box_lo, box_hi = lo + (box_lo - lo) // _TILE * _TILE, lo + (box_hi - lo) // _TILE * _TILE + _TILE - 1
        table = _box_table(kernel.kappa, src_window.h, eta, box_lo, box_hi, lo, hi)
    if points:
        W = [(src_weights[0] * src_window.cell_measure, src_weights[1])] if frame else _modulated(
            kernel, 2, src_weights, src_window, a=a).reshape(src_window.cells)[_box(lo, hi - lo + 1)]
        out = _conv_at_points(*table, eval_lo + _cell_indices(eval_window, np.asarray(cells)), lo, W)
        return _modulated(kernel, 1, out, eval_window, eval_cells, a), table
    if nz is None:
        nz = np.arange(count)
        src_at = _cell_indices(src_window, nz)
    weights = _modulated(kernel, 2, src_weights[nz], src_window, nz, a)
    out = _conv_forward(*table, eval_lo, eval_window.cells, src_at, weights)
    out = _modulated(kernel, 1, out, eval_window, a=a)
    return (out if eval_cells is None else out[eval_cells]), table


def apply_truncated(
    kernel: KernelSpec,
    f: GridFunction,
    eta: float,
    eval_window: Window | None = None,
    eval_points=None,
):
    """Truncated singular integral at radius eta (integer multiple of h).

    Integration runs over f's window with zero extension outside.  Returns a
    GridFunction on eval_window (default: f's window), or a plain array when
    explicit eval_points are given.  Kernels with a difference kernel kappa
    evaluated on a shared lattice go through the difference-table engine.
    """
    eta = _validate_eta(eta, f.window.h)
    window = eval_window or f.window
    target = window if eval_points is None else np.atleast_2d(np.asarray(eval_points, dtype=float))
    out, _ = _lattice_sums(kernel, eta, f.window, f.flat * f.window.cell_measure, target)
    if eval_points is not None:
        return out
    return GridFunction(window, out.reshape(window.cells))


@dataclass
class CZResult:
    """Three-rung truncation ladder with Cauchy increments.  `tol` is the
    increment tolerance of `converged`: 1e-3 * max|f|, or 1e-3 for f = 0.
    `engine` ("table"/"pairwise") and `table_cells` as in DefectReport."""

    result: GridFunction
    etas: list[float]
    ladder: list[np.ndarray]
    max_increments: list[float]
    tol: float
    converged: bool
    diverged: bool
    converged_fraction: float
    engine: str
    table_cells: int

    def to_json(self) -> list[dict]:
        """The ladder at the first 16 cells."""
        pts = self.result.window.midpoints()[:16]
        return [
            {"point": [float(v) for v in pt], "eta_ladder_values": [float(l[i]) for l in self.ladder],
             "converged": bool(self.converged)}
            for i, pt in enumerate(pts)
        ]


def _ladder_result(window, ladder, etas, tol, engine, table_cells) -> CZResult:
    incs = [float(np.max(np.abs(ladder[i + 1] - ladder[i]))) for i in range(len(ladder) - 1)]
    converged = (not incs) or incs[-1] <= tol
    diverged = len(incs) >= 2 and incs[-1] > incs[0] and incs[-1] > tol
    gf = GridFunction(window, ladder[-1].reshape(window.cells))
    if len(ladder) >= 2:
        per_point = np.abs(ladder[-1] - ladder[-2])
        fraction = float(np.count_nonzero(per_point <= tol)) / per_point.size
    else:
        fraction = 1.0
    return CZResult(gf, etas, ladder, incs, tol, converged, diverged, fraction, engine, table_cells)


def apply_cz(
    kernel: KernelSpec,
    f: GridFunction,
    eval_window: Window | None = None,
    eta_cells=(4, 2, 1),
) -> CZResult:
    """Principal-value operator via the {4h, 2h, h} exclusion ladder."""
    if not len(eta_cells):
        raise ValueError("eta_cells needs at least one exclusion radius")
    h = f.window.h
    window = eval_window or f.window
    weights = f.flat * f.window.cell_measure
    sums = [_lattice_sums(kernel, _validate_eta(m * h, h), f.window, weights, window) for m in eta_cells]
    tables = [table[0].size for _, table in sums if table is not None]
    tol = 1e-3 * float(np.max(np.abs(f.values))) if np.any(f.values) else 1e-3
    engine = "table" if tables else "pairwise"
    return _ladder_result(window, [out for out, _ in sums], [m * h for m in eta_cells], tol, engine, sum(tables))


def _taylor_correction(kernel, corr: CorrectionSpec, sources, eval_pts) -> np.ndarray:
    """The term the corrected operator subtracts: sum_gamma (x - x0)^gamma
    times the integral of d1K(gamma, x0, y)/gamma! over the sources outside
    the base ball, evaluated at eval_pts.  `sources` yields (points, weights)
    chunks of at most a row band; each coefficient is accumulated chunk by
    chunk, and the base ball is zeroed out rather than gathered away.

    It is absolutely convergent (singular at the ball center only, where the
    indicator vanishes), so it is summed over every source cell with no
    eta exclusion -- this realizes the eta -> 0 limit of the correction
    exactly and keeps the polynomial-difference identities exact off the
    base ball."""
    return _taylor_polynomial(_taylor_coefficients(kernel.d1, corr, sources), corr, eval_pts)


def _taylor_coefficients(d1, corr: CorrectionSpec, sources) -> tuple:
    """The integrals of _taylor_correction, d1 the derivatives in the first slot."""
    x0 = np.asarray(corr.center)
    gammas = multi_indices(len(corr.center), corr.order)
    coefs = [0.0] * len(gammas)
    for pts, w in sources:
        # |y - x0| as np.linalg.norm forms it: the squares summed per axis
        outside = np.sqrt(sum((pts[:, a] - c) ** 2 for a, c in enumerate(x0))) >= corr.radius
        x0b = np.broadcast_to(x0, pts.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, g in enumerate(gammas):
                terms = d1(g, x0b, pts) / index_factorial(g) * w
                coefs[k] += float(np.where(outside, terms, 0.0).sum())
    return tuple(coefs)


def _taylor_polynomial(coefs, corr: CorrectionSpec, eval_pts) -> np.ndarray:
    out = np.zeros(eval_pts.shape[0])
    for coef, pow_g in zip(coefs, monomials(eval_pts, multi_indices(len(corr.center), corr.order), corr.center).T):
        if coef != 0.0:
            out += coef * pow_g
    return out


@_memo
def _frame_coefficients(kernel, slot: int, corr: CorrectionSpec, window: Window, gamma: tuple) -> tuple:
    """_taylor_coefficients of K in `slot` (in slot 2, the transpose's) over the
    window's cells weighted by y^gamma, built once while the kernel lives."""
    d1 = kernel.d1 if slot == 1 else (lambda g, x, y: kernel.d2(g, y, x))
    return _taylor_coefficients(d1, corr, _frame_sources(window, monomial_factors(window, gamma)))


def _point_chunks(pts, w):
    """Points with their weights in chunks of at most _BAND_CELLS."""
    return ((pts[a : a + _BAND_CELLS], w[a : a + _BAND_CELLS]) for a in range(0, len(w), _BAND_CELLS))


def _frame_sources(window: Window, factors):
    """Every cell of the window with its weight, the outer product of the
    per-axis factors times the cell measure, as row-band chunks."""
    return ((pts, _frame_rows(factors, a, b) * window.cell_measure) for a, b, pts in _frame_bands(window))


@dataclass
class ModifiedResult(CZResult):
    """Corrected-operator ladder plus a canonical representative.

    The operator is defined modulo degree-s polynomials; the canonical form
    subtracts the projection over the central reference cube of the
    evaluation window so equality tests are well defined.
    """

    canonical: GridFunction | None = None
    reference_cube: Cube | None = None
    correction: CorrectionSpec | None = None


def apply_modified(
    kernel_tilde: KernelSpec,
    corr: CorrectionSpec,
    f: GridFunction,
    eval_window: Window | None = None,
    eta_cells=(4, 2, 1),
) -> ModifiedResult:
    """Corrected operator: Taylor polynomial of the kernel's first slot at the
    ball center is subtracted for sources outside the base ball.

    Pass the transposed kernel to realize the adjoint-style operator acting
    on oscillation classes.
    """
    _check_correction(kernel_tilde, corr, f.window)
    cz = apply_cz(kernel_tilde, f, eval_window, eta_cells)
    window = cz.result.window
    # the Taylor correction does not depend on the exclusion radius: build
    # its polynomial once for the whole ladder
    corr_eval = _taylor_correction(kernel_tilde, corr, _point_chunks(*_source_arrays(f)), window.midpoints())
    base = _ladder_result(window, [rung - corr_eval for rung in cz.ladder], cz.etas, cz.tol, cz.engine, cz.table_cells)
    ref = window.reference_cube()
    canonical = base.result - moment_projection(base.result, ref, corr.order).on_grid(window)
    return ModifiedResult(**vars(base), canonical=canonical, reference_cube=ref, correction=corr)


def _check_correction(kernel: KernelSpec, corr: CorrectionSpec, window: Window) -> None:
    if len(corr.center) != window.n:
        raise ValueError(f"correction ball center is {len(corr.center)}-D but the window is {window.n}-D")
    if corr.order > kernel.order:
        raise ValueError(f"kernel {kernel.name!r} lacks derivative evaluators up to order {corr.order}")


def _check_padding(padding: float) -> None:
    if not (math.isfinite(padding) and padding >= 4):
        raise ValueError("padding factor must be finite and at least 4")


@dataclass
class MonomialImage:
    """Corrected image of a monomial.  `engine` is "table" or "pairwise";
    `table_cells` counts the difference-table entries at the stated padding
    (0 on the pairwise path)."""

    values: GridFunction
    nu: tuple
    padding: float
    sensitivity: float
    truncation_warn: bool
    integration_cells: tuple
    engine: str
    table_cells: int


def modified_on_monomial(
    kernel_tilde: KernelSpec,
    corr: CorrectionSpec,
    nu,
    eval_window: Window,
    padding: float = 8.0,
    check_doubling: bool = True,
) -> MonomialImage:
    """Corrected operator applied to the monomial y^nu.

    The space integral is truncated to a padded window (padding factor >= 4
    relative to the evaluation window); doubling the padding gives the
    reported truncation sensitivity, and truncation_warn flags one above 0.02.
    """
    _check_correction(kernel_tilde, corr, eval_window)
    nu = tuple(whole_number(g, "nu entry") for g in np.atleast_1d(nu))
    if sum(nu) > corr.order:
        raise ValueError("|nu| must not exceed the correction order")
    _check_padding(padding)
    h = eval_window.h
    eval_pts = eval_window.midpoints()

    def run(factor):
        big = eval_window.padded(factor)
        main, table = _lattice_sums(kernel_tilde, h, big, monomial_factors(big, nu), eval_window)
        correction = _taylor_polynomial(_frame_coefficients(kernel_tilde, 1, corr, big, nu), corr, eval_pts)
        return big, 0 if table is None else table[0].size, main - correction

    big, cells, base = run(padding)
    scale = max(float(np.max(np.abs(GridFunction.monomial(eval_window, nu).flat))), 1e-30)
    if check_doubling:
        _, _, doubled = run(2 * padding)
        sensitivity = float(np.max(np.abs(doubled - base))) / scale
    else:
        sensitivity = float("nan")
    return MonomialImage(
        values=GridFunction(eval_window, base.reshape(eval_window.cells)),
        nu=nu,
        padding=padding,
        sensitivity=sensitivity,
        truncation_warn=bool(check_doubling and sensitivity > 0.02),
        integration_cells=big.cells,
        engine="table" if cells else "pairwise",
        table_cells=cells,
    )


def poly_distance(g: GridFunction, region, s: int, floor: float = 0.0) -> float:
    """Relative L^2(E) distance of g to the degree-s polynomial space."""
    projector, cells = Projector.on_region(g.window, region, s)
    vals = g.flat[cells]
    resid = projector.residual(vals)
    denom = max(float(np.sqrt((vals**2).sum() * g.window.cell_measure)), floor, 1e-300)
    return float(np.sqrt((resid**2).sum() * g.window.cell_measure)) / denom


@dataclass
class DefectReport:
    """Moment defects per atom and gamma.  `engine` is "table" or "pairwise";
    `table_cells` is the number of difference-table entries each atom reads,
    summed over the atoms, memoised or not (0 on the pairwise path)."""

    rows: list
    max_defect: float
    max_mismatch: float
    truncation_warning: bool
    padding: float
    engine: str
    table_cells: int


def vanishing_moment_defect(
    kernel: KernelSpec,
    s: int,
    atoms,
    gammas=None,
    padding: float = 512.0,
) -> DefectReport:
    """Moment defects of operator images of atoms, with the dual cross-check.

    defect = |integral of T(a) x^gamma over the padded window| normalized by
    ||a||_1 (support side)^|gamma|; the cross-check pairs a against the
    corrected transpose image of y^gamma computed on the same lattice, which
    must agree with the direct integral up to the atom's moment tolerance.
    The defect itself is truncation-limited (~ 1/padding), so the padding
    here defaults far above the minimum of 4.  Each atom has ``values`` (a
    GridFunction) and ``cube``, as :class:`jnlab.hardy.AtomRecord` does.
    """
    _check_padding(padding)
    atoms = list(atoms)
    if not atoms:
        raise ValueError("need at least one atom")
    rows = []
    warn = False
    table_cells = 0
    tilde = kernel_transpose(kernel)
    for idx, atom in enumerate(atoms):
        window, cube = atom.values.window, atom.cube
        h = window.h
        side_cells = max(1, round(cube.side / h))
        factor = max(padding * side_cells / min(window.cells), 1.0)
        big = window.padded(factor)
        half = window.padded(max(factor / 2.0, 1.0))
        weights = atom.values.flat * window.cell_measure
        nz = np.flatnonzero(weights)
        if not nz.size:
            raise ValueError(f"atom {idx} vanishes identically")
        src_w = weights[nz]
        # the modulation, if any, scales the same window in both routes
        a = None if kernel.modulation is None else _modulation(kernel, big if kernel.modulation_slot == 1 else window)
        ta, table = _lattice_sums(kernel, h, window, weights, big, a=a)
        if table is not None:
            # the forward table, reflected, serves the transpose's point sums
            table_cells += table[0].size
            table = table[0][(slice(None, None, -1),) * big.n], -(table[1] + np.asarray(table[0].shape) - 1)
        # the half-padding frame is a sub-window of the padded one
        ta_half = ta.reshape(big.cells)[_box(half.lattice_offset(big), half.cells)]
        a_l1 = float(np.abs(src_w).sum())
        corr = CorrectionSpec(cube.center, cube.side, s)
        glist = gammas if gammas is not None else multi_indices(window.n, s)
        for g in glist:
            g = tuple(int(v) for v in np.atleast_1d(g))
            xg = monomial_factors(big, g)
            lhs = _frame_moment(ta, xg, big)
            lhs_half = _frame_moment(ta_half, monomial_factors(half, g), half)
            scale = a_l1 * cube.side ** sum(g)
            # dual route: pair a with the corrected transpose image of y^gamma
            # (evaluated at the atom's support cells, integrated over the same
            # padded lattice, so the two sides share every quadrature node); its
            # Taylor coefficients are keyed on the kernel, shared by every atom on the cube
            coefs = _frame_coefficients(kernel, 2, corr, big, g)
            tmain, _ = _lattice_sums(tilde, h, big, xg, window, nz, table, a)
            tmono = tmain - _taylor_polynomial(coefs, corr, window.cell_midpoints(nz))
            rhs = float((tmono * src_w).sum())
            defect = abs(lhs) / scale
            mismatch = abs(lhs - rhs) / scale
            decaying = abs(lhs) <= abs(lhs_half) / 1.2 or abs(lhs) <= 1e-12 * scale
            warn = warn or not decaying
            rows.append(
                {
                    "atom": idx,
                    "gamma": g,
                    "defect": defect,
                    "mismatch": mismatch,
                    "lhs": lhs,
                    "rhs": rhs,
                    "half_padding_lhs": lhs_half,
                    "decaying": decaying,
                }
            )
    return DefectReport(
        rows=rows,
        max_defect=max(r["defect"] for r in rows),
        max_mismatch=max(r["mismatch"] for r in rows),
        truncation_warning=warn,
        padding=padding,
        engine="table" if table_cells else "pairwise",
        table_cells=table_cells,
    )
