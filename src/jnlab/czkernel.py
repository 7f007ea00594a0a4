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

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Ball, Cube, GridFunction, Window, grid_points, moments, monomials, whole_number
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
    "standard_kernel_check",
    "CZResult",
    "ModifiedResult",
    "MonomialImage",
    "DefectReport",
]

_PAIR_BUDGET = 4_000_000  # max pairwise entries held at once
_BAND_CELLS = 1 << 15  # cells per row band of a full-frame pass (fits in cache)


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
    antisymmetric: bool = False

    def __post_init__(self):
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
        object.__setattr__(self, "radius", float(self.radius))
        if not all(math.isfinite(c) for c in center):
            raise ValueError("correction ball center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("correction ball radius must be positive and finite")
        object.__setattr__(self, "order", whole_number(self.order, "correction order"))

    @property
    def ball(self) -> Ball:
        return Ball(self.center, self.radius)


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
        antisymmetric=kernel.antisymmetric,
    )


def _convolution(name, n, order, delta, dkappa, antisymmetric, dmod=None) -> KernelSpec:
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
            d2=d2k, kappa=kappa, antisymmetric=antisymmetric,
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
        kappa=kappa, modulation=a, antisymmetric=antisymmetric,
    )


def _dhilbert(gamma, u):
    """Derivatives of 1/u on the line."""
    g = int(gamma[0])
    if g == 0:
        return 1.0 / u[..., 0]  # the value below, without the power
    return (-1.0) ** g * math.factorial(g) / u[..., 0] ** (g + 1)


def hilbert_kernel(order: int = 4) -> KernelSpec:
    """K(x, y) = 1 / (x - y) on the line."""
    return _convolution("hilbert", 1, order, 1.0, _dhilbert, True)


def riesz_kernel(j: int = 0, n: int = 2, order: int | None = None) -> KernelSpec:
    """K(x, y) = (x_j - y_j) / |x - y|^(n+1); reduces to the line kernel at n=1."""
    if n == 1:
        return replace(hilbert_kernel(order=4 if order is None else order), name="riesz0")
    if n != 2:
        raise ValueError("riesz kernel built for n in {1, 2}")
    if j not in (0, 1):
        raise ValueError("component j must be 0 or 1")
    order = 2 if order is None else min(order, 2)

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

    return _convolution(f"riesz{j}", 2, order, 1.0, dkappa, True)


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

    return _convolution("perturbed", 1, order, 1.0, _dhilbert, False, dmod)


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

    return _convolution("smooth_bump", n, order, 1.0, dkappa, False)


def kernel_by_name(name: str, **params) -> KernelSpec:
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
    return builders[name](**params)


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
    if n_src <= n_eval:
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(n_src):
                y = src_pts[i]
                d2 = ((eval_pts - y) ** 2).sum(axis=1)
                mask = d2 >= eta2
                kv = kernel.k(eval_pts, np.broadcast_to(y, eval_pts.shape))
                out[mask] += kv[mask] * src_w[i]
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
    so a single band: cutting it would only multiply the numpy calls."""
    rows = int(shape[0])
    if len(shape) == 1:
        return [(0, rows)]
    step = max(1, _BAND_CELLS // int(np.prod(shape[1:])))
    return [(a, min(a + step, rows)) for a in range(0, rows, step)]


def _frame_bands(window: Window):
    """(flat cell slice, midpoints) of each row band of the window.  The
    midpoints are built per axis, so no (cells, n) array of the whole window
    is formed."""
    axes = [window.axis_midpoints(a) for a in range(window.n)]
    row = window.cell_count // window.cells[0]
    for a, b in _bands(window.cells):
        yield slice(a * row, b * row), grid_points([axes[0][a:b], *axes[1:]])


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


def _box_table(kappa, h, eta, eval_lo, eval_hi, src_lo, src_hi):
    """Difference table over {x - y : eval_lo <= x <= eval_hi, src_lo <= y
    <= src_hi} (index boxes, inclusive), and the index of its first entry."""
    origin = np.asarray(eval_lo) - np.asarray(src_hi)
    return _difference_table(kappa, h, eta, origin, np.asarray(eval_hi) - np.asarray(src_lo)), origin


def _conv_forward(table, origin, eval_lo, eval_shape, src_idx, src_w) -> np.ndarray:
    """Box sums out[x] = sum_s table[x - s - origin] w_s over the cells x of
    the box eval_lo + [0, eval_shape), one shifted view per source and row
    band.  Each cell adds its sources in the same order whatever the bands,
    so the sums are those of a one-shot accumulation, bit for bit."""
    out = np.zeros(tuple(eval_shape))
    base = np.asarray(eval_lo) - np.asarray(origin)
    for a, b in _bands(out.shape):
        acc = out[a:b]
        scratch = np.empty_like(acc)
        lo = base.copy()
        lo[0] += a
        for s, w in zip(src_idx, src_w):
            np.multiply(w, table[_box(lo - s, acc.shape)], out=scratch)
            acc += scratch
    return out.reshape(-1)


def _conv_at_points(table, origin, eval_idx, grid_lo, W: np.ndarray) -> np.ndarray:
    """Point sums out[k] = sum over the cells y of the box grid_lo + [0,
    W.shape) of table[x_k - y - origin] W[y - grid_lo].

    With W reversed, W[::-1][j] pairs with table[start_k + j].  In 2-D the
    reversed W is made contiguous once and each point sum is contracted row
    band by row band, with no temporary."""
    last = np.asarray(grid_lo) + np.asarray(W.shape) - 1
    starts = [x - last - origin for x in eval_idx]
    if W.ndim == 1:
        return np.array([np.dot(W, table[_box(lo, W.shape)][::-1]) for lo in starts])
    flipped = np.ascontiguousarray(W[::-1, ::-1])
    out = np.zeros(len(starts))
    for a, b in _bands(W.shape):
        band = flipped[a:b]
        for k, lo in enumerate(starts):
            out[k] += np.einsum("ab,ab->", band, table[_box(lo + (a, 0), band.shape)])
    return out


def _modulated(kernel: KernelSpec, slot: int, values, window: Window, cells=None):
    """values * a when the kernel's modulation a multiplies `slot`: values
    over every cell of the window (flat), scaled one row band at a time, or
    at the cells with flat indices `cells`."""
    if kernel.modulation is None or kernel.modulation_slot != slot:
        return values
    if cells is not None:
        return values * kernel.modulation(window.cell_midpoints(cells))
    out = np.empty(window.cell_count)
    for band, pts in _frame_bands(window):
        out[band] = values[band] * kernel.modulation(pts)
    return out


def _frame_moment(values, column, window: Window) -> float:
    """lattice.moments of one column over the window, summed row band by row
    band (values and column may be views of the window's shape)."""
    v, c = values.reshape(window.cells), column.reshape(window.cells)
    return sum(
        moments(v[a:b].reshape(-1), c[a:b].reshape(-1, 1), window.cell_measure)[0]
        for a, b in _bands(window.cells)
    )


def _lattice_sums(kernel, eta, src_window, src_weights, eval_window, eval_cells=None, table=None):
    """Truncated sums: sum over the cells y of src_window with |x - y| >= eta
    of K(x, y) w_y, with the flat weights w = src_weights.  They are taken at
    every cell x of eval_window, at its cells with flat indices eval_cells, or
    at the rows of an (m, n) point array passed as eval_window.  Returns the sums and
    the difference table (table, origin) they used, or None for the pairwise
    sum.

    This is the one place that picks the engine.  A kernel with a difference
    kernel kappa, evaluated at cells of the source lattice, runs through one
    difference table of kappa at the source pitch over the evaluation window
    minus the bounding box of the nonzero sources (or through `table`, which
    must cover the differences in use).  With no more evaluation cells than
    nonzero sources, each evaluation cell takes one point sum over the dense
    weight box of the sources, O(evaluations * box cells); otherwise each
    nonzero source adds one shifted view over the evaluation window,
    O(sources * evaluations).  The modulation scales the source weights
    (slot 2) or the sums (slot 1).  Kernels without kappa, other lattices and
    explicit points take the pairwise sum of k over the nonzero sources."""
    on_cells = isinstance(eval_window, Window)
    if on_cells:
        cells = range(eval_window.cell_count) if eval_cells is None else eval_cells
    eval_lo = eval_window.lattice_offset(src_window) if on_cells and kernel.kappa is not None else None
    if eval_lo is None:
        pts = eval_window.cell_midpoints(cells) if on_cells else eval_window
        keep = np.flatnonzero(src_weights)
        return _truncated_raw(kernel, pts, src_window.cell_midpoints(keep), src_weights[keep], eta), None
    count = np.count_nonzero(src_weights)
    if count == 0:
        return np.zeros(len(cells)), table
    nz = None
    if count == src_weights.size:  # a dense frame (a monomial's) is its own support box
        lo, hi = np.zeros(src_window.n, int), np.asarray(src_window.cells) - 1
    else:  # the box of the nonzero list
        nz = np.flatnonzero(src_weights)
        src_at = _cell_indices(src_window, nz)
        lo, hi = src_at.min(axis=0), src_at.max(axis=0)
    if table is None:
        eval_hi = eval_lo + np.asarray(eval_window.cells) - 1
        table = _box_table(kernel.kappa, src_window.h, eta, eval_lo, eval_hi, lo, hi)
    if len(cells) <= count:
        W = _modulated(kernel, 2, src_weights, src_window).reshape(src_window.cells)[_box(lo, hi - lo + 1)]
        out = _conv_at_points(*table, eval_lo + _cell_indices(eval_window, np.asarray(cells)), lo, W)
        return _modulated(kernel, 1, out, eval_window, eval_cells), table
    if nz is None:
        nz = np.arange(count)
        src_at = _cell_indices(src_window, nz)
    weights = _modulated(kernel, 2, src_weights[nz], src_window, nz)
    out = _conv_forward(*table, eval_lo, eval_window.cells, src_at, weights)
    out = _modulated(kernel, 1, out, eval_window)
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
    """Three-rung truncation ladder with Cauchy increments."""

    result: GridFunction
    etas: list[float]
    ladder: list[np.ndarray]
    max_increments: list[float]
    tol: float
    converged: bool
    diverged: bool
    converged_fraction: float = 1.0

    def to_json(self, limit: int | None = 16) -> list[dict]:
        pts = self.result.window.midpoints()
        count = pts.shape[0] if limit is None else min(limit, pts.shape[0])
        rows = []
        for i in range(count):
            rows.append(
                {
                    "point": [float(v) for v in pts[i]],
                    "eta_ladder_values": [float(l[i]) for l in self.ladder],
                    "converged": bool(self.converged),
                }
            )
        return rows


def _ladder_result(window, ladder, etas, tol) -> CZResult:
    incs = [float(np.max(np.abs(ladder[i + 1] - ladder[i]))) for i in range(len(ladder) - 1)]
    converged = (not incs) or incs[-1] <= tol
    diverged = len(incs) >= 2 and incs[-1] > incs[0] and incs[-1] > tol
    gf = GridFunction(window, ladder[-1].reshape(window.cells))
    if len(ladder) >= 2:
        per_point = np.abs(ladder[-1] - ladder[-2])
        fraction = float(np.count_nonzero(per_point <= tol)) / per_point.size
    else:
        fraction = 1.0
    return CZResult(gf, etas, ladder, incs, tol, converged, diverged, fraction)


def apply_cz(
    kernel: KernelSpec,
    f: GridFunction,
    eval_window: Window | None = None,
    tol: float | None = None,
    eta_cells=(4, 2, 1),
) -> CZResult:
    """Principal-value operator via the {4h, 2h, h} exclusion ladder."""
    h = f.window.h
    window = eval_window or f.window
    ladder = [apply_truncated(kernel, f, m * h, eval_window=window).flat for m in eta_cells]
    if tol is None:
        tol = 1e-3 * float(np.max(np.abs(f.values))) if np.any(f.values) else 1e-3
    return _ladder_result(window, ladder, [m * h for m in eta_cells], tol)


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
    x0 = np.asarray(corr.center)
    gammas = multi_indices(len(corr.center), corr.order)
    coefs = [0.0] * len(gammas)
    for pts, w in sources:
        # |y - x0| as np.linalg.norm forms it: the squares summed per axis
        outside = np.sqrt(sum((pts[:, a] - c) ** 2 for a, c in enumerate(x0))) >= corr.radius
        x0b = np.broadcast_to(x0, pts.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k, g in enumerate(gammas):
                terms = kernel.d1(g, x0b, pts) / index_factorial(g) * w
                coefs[k] += float(np.where(outside, terms, 0.0).sum())
    out = np.zeros(eval_pts.shape[0])
    for coef, pow_g in zip(coefs, monomials(eval_pts, gammas, x0).T):
        if coef != 0.0:
            out += coef * pow_g
    return out


def _point_chunks(pts, w):
    """Points with their weights in chunks of at most _BAND_CELLS."""
    return ((pts[a : a + _BAND_CELLS], w[a : a + _BAND_CELLS]) for a in range(0, len(w), _BAND_CELLS))


def _frame_sources(window: Window, w):
    """Every cell of the window with its weight (flat), as row-band chunks."""
    return ((pts, w[cells]) for cells, pts in _frame_bands(window))


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
    tol: float | None = None,
    eta_cells=(4, 2, 1),
) -> ModifiedResult:
    """Corrected operator: Taylor polynomial of the kernel's first slot at the
    ball center is subtracted for sources outside the base ball.

    Pass the transposed kernel to realize the adjoint-style operator acting
    on oscillation classes.
    """
    _check_order(kernel_tilde, corr.order)
    cz = apply_cz(kernel_tilde, f, eval_window, tol, eta_cells)
    window = cz.result.window
    # the Taylor correction does not depend on the exclusion radius: build
    # its polynomial once for the whole ladder
    corr_eval = _taylor_correction(kernel_tilde, corr, _point_chunks(*_source_arrays(f)), window.midpoints())
    base = _ladder_result(window, [rung - corr_eval for rung in cz.ladder], cz.etas, cz.tol)
    ref = window.reference_cube()
    canonical = base.result - moment_projection(base.result, ref, corr.order).on_grid(window)
    return ModifiedResult(**vars(base), canonical=canonical, reference_cube=ref, correction=corr)


def _check_order(kernel: KernelSpec, order: int) -> None:
    if order > kernel.order:
        raise ValueError(f"kernel {kernel.name!r} lacks derivative evaluators up to order {order}")


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
    warn_threshold: float = 0.02,
    check_doubling: bool = True,
) -> MonomialImage:
    """Corrected operator applied to the monomial y^nu.

    The space integral is truncated to a padded window (padding factor >= 4
    relative to the evaluation window); doubling the padding gives the
    reported truncation sensitivity.
    """
    nu = tuple(int(g) for g in np.atleast_1d(nu))
    if sum(nu) > corr.order:
        raise ValueError("|nu| must not exceed the correction order")
    _check_order(kernel_tilde, corr.order)
    _check_padding(padding)
    h = eval_window.h
    eval_pts = eval_window.midpoints()

    def run(factor):
        big = eval_window.padded(factor)
        # one weight frame serves the lattice sums and the Taylor correction
        grid_w = GridFunction.monomial(big, nu).flat * big.cell_measure
        main, table = _lattice_sums(kernel_tilde, h, big, grid_w, eval_window)
        correction = _taylor_correction(kernel_tilde, corr, _frame_sources(big, grid_w), eval_pts)
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
        truncation_warn=bool(check_doubling and sensitivity > warn_threshold),
        integration_cells=big.cells,
        engine="table" if cells else "pairwise",
        table_cells=cells,
    )


def poly_distance(g: GridFunction, region, s: int, floor: float = 0.0) -> float:
    """Relative L^2(E) distance of g to the degree-s polynomial space."""
    projector, mask = Projector.on_region(g.window, region, s)
    resid = projector.residual(g.flat[mask])
    denom = max(float(np.sqrt((g.flat[mask] ** 2).sum() * g.window.cell_measure)), floor, 1e-300)
    return float(np.sqrt((resid**2).sum() * g.window.cell_measure)) / denom


@dataclass
class DefectReport:
    """Moment defects per atom and gamma.  `engine` is "table" or "pairwise";
    `table_cells` is the number of difference-table entries built over all
    atoms (0 on the pairwise path)."""

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
    b0: CorrectionSpec | None = None,
) -> DefectReport:
    """Moment defects of operator images of atoms, with the dual cross-check.

    defect = |integral of T(a) x^gamma over the padded window| normalized by
    ||a||_1 (support side)^|gamma|; the cross-check pairs a against the
    corrected transpose image of y^gamma computed on the same lattice, which
    must agree with the direct integral up to the atom's moment tolerance.
    The defect itself is truncation-limited (~ 1/padding), so the padding
    here defaults far above the minimum of 4.
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
        gf = atom.values if hasattr(atom, "values") else atom[0]
        cube = atom.cube if hasattr(atom, "cube") else atom[1]
        window = gf.window
        h = window.h
        side_cells = max(1, round(cube.side / h))
        factor = max(padding * side_cells / min(window.cells), 1.0)
        big = window.padded(factor)
        half = window.padded(max(factor / 2.0, 1.0))
        weights = gf.flat * window.cell_measure
        nz = np.flatnonzero(weights)
        if not nz.size:
            raise ValueError(f"atom {idx} vanishes identically")
        src_w = weights[nz]
        ta, table = _lattice_sums(kernel, h, window, weights, big)
        if table is not None:
            # the forward table, reflected, serves the transpose's point sums
            table_cells += table[0].size
            table = table[0][(slice(None, None, -1),) * big.n], -(table[1] + np.asarray(table[0].shape) - 1)
        # the half-padding frame is a sub-window of the padded one
        ta_half = ta.reshape(big.cells)[_box(half.lattice_offset(big), half.cells)]
        a_l1 = float(np.abs(src_w).sum())
        corr = b0 or CorrectionSpec(cube.center, cube.side, s)
        glist = gammas if gammas is not None else multi_indices(window.n, s)
        for g in glist:
            g = tuple(int(v) for v in np.atleast_1d(g))
            xg = GridFunction.monomial(big, g).flat
            lhs = _frame_moment(ta, xg, big)
            lhs_half = _frame_moment(ta_half, GridFunction.monomial(half, g).values, half)
            scale = a_l1 * cube.side ** sum(g)
            # dual route: pair a with the corrected transpose image of y^gamma
            # (evaluated at the atom's support cells, integrated over the same
            # padded lattice, so the two sides share every quadrature node)
            mono_w = xg * big.cell_measure
            tmain, _ = _lattice_sums(tilde, h, big, mono_w, window, nz, table)
            tmono = tmain - _taylor_correction(tilde, corr, _frame_sources(big, mono_w), window.cell_midpoints(nz))
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


@dataclass
class StandardKernelReport:
    size: dict
    regularity: dict
    delta: float
    samples: int

    @property
    def max_size(self) -> float:
        return max(max(v.values()) for v in self.size.values())

    @property
    def max_regularity(self) -> float:
        return max(max(v.values()) for v in self.regularity.values())


def standard_kernel_check(
    kernel: KernelSpec, samples: int = 200, seed: int = 0, box: float = 2.0
) -> StandardKernelReport:
    """Empirical size and Holder-regularity constants on sampled pairs.

    size[gamma][slot]   = max |d_slot K| |x-y|^(n+|gamma|)
    reg[gamma][slot]    = max |d K(.,y) - d K(.,z)| |x-y|^(n+|gamma|+delta) / |y-z|^delta
    over pairs separated by at least h-scale and admissible triples.
    """
    rng = np.random.default_rng(seed)
    n = kernel.n
    x = rng.uniform(-box, box, size=(samples, n))
    y = rng.uniform(-box, box, size=(samples, n))
    d = np.linalg.norm(x - y, axis=1)
    keep = d >= 0.05
    x, y, d = x[keep], y[keep], d[keep]
    # perturb the second argument by at most |x-y|/2
    t = rng.uniform(0.05, 0.5, size=x.shape[0])
    direction = rng.normal(size=x.shape)
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    z = y + direction * (t * d / 2.0)[:, None]
    w = x + direction * (t * d / 2.0)[:, None]
    dz = np.linalg.norm(y - z, axis=1)
    dw = np.linalg.norm(x - w, axis=1)
    size: dict = {}
    reg: dict = {}
    dlt = kernel.delta
    for g in multi_indices(n, kernel.order):
        size[g], reg[g] = {}, {}
        # slot 1 moves x to w, slot 2 moves y to z
        for slot, dk, moved, gap in (("slot1", kernel.d1, (w, y), dw), ("slot2", kernel.d2, (x, z), dz)):
            base = dk(g, x, y)
            size[g][slot] = float(np.max(np.abs(base) * d ** (n + sum(g))))
            reg[g][slot] = float(np.max(np.abs(base - dk(g, *moved)) * d ** (n + sum(g) + dlt) / gap**dlt))
    return StandardKernelReport(size, reg, dlt, int(x.shape[0]))
