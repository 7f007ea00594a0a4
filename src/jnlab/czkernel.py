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

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import Ball, Cube, GridFunction, Window, grid_points, moments, monomials
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
        order = float(self.order)
        if not (order.is_integer() and order >= 0):
            raise ValueError("correction order must be a non-negative integer")
        object.__setattr__(self, "order", int(order))

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


def _convolution(name, n, order, delta, dkappa, antisymmetric) -> KernelSpec:
    zero = (0,) * n

    def kappa(u):
        return dkappa(zero, u)

    def k(x, y):
        return kappa(x - y)

    def d1(gamma, x, y):
        return dkappa(tuple(gamma), x - y)

    def d2(gamma, x, y):
        g = tuple(gamma)
        sign = -1.0 if sum(g) % 2 else 1.0
        return sign * dkappa(g, x - y)

    return KernelSpec(name, n, order, delta, k, d1, d2, kappa=kappa, antisymmetric=antisymmetric)


def hilbert_kernel(order: int = 4) -> KernelSpec:
    """K(x, y) = 1 / (x - y) on the line."""

    def dkappa(gamma, u):
        g = int(gamma[0])
        u0 = u[..., 0]
        return (-1.0) ** g * math.factorial(g) / u0 ** (g + 1)

    return _convolution("hilbert", 1, order, 1.0, dkappa, True)


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

    def modulation(z):
        return 2.0 + np.sin(z[..., 0])

    def kappa(u):
        return 1.0 / u[..., 0]

    def k(x, y):
        return modulation(x) / (x[..., 0] - y[..., 0])

    def d2(gamma, x, y):
        g = int(gamma[0])
        u = x[..., 0] - y[..., 0]
        return modulation(x) * math.factorial(g) / u ** (g + 1)

    def d1(gamma, x, y):
        g = int(gamma[0])
        x0 = x[..., 0]
        u = x0 - y[..., 0]
        out = np.zeros(np.broadcast(x0, u).shape)
        for m in range(g + 1):
            # d^m/dx^m of (2 + sin x); the constant survives only at m = 0
            smooth = modulation(x) if m == 0 else np.sin(x0 + m * math.pi / 2.0)
            sing = (-1.0) ** (g - m) * math.factorial(g - m) / u ** (g - m + 1)
            out = out + math.comb(g, m) * smooth * sing
        return out

    return KernelSpec(
        "perturbed", 1, order, 1.0, k, d1, d2, kappa=kappa, modulation=modulation
    )


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
    m = round(eta / h)
    if m < 1 or abs(eta - m * h) > 1e-9 * h:
        raise ValueError("eta must be an integer multiple of the pitch, at least h")
    return float(m * h)


def _source_arrays(f: GridFunction):
    """Midpoints and quadrature weights of f's nonzero cells."""
    nz = np.nonzero(f.flat)[0]
    return f.window.cell_midpoints(nz), f.flat[nz] * f.window.cell_measure


def _eval_points(f: GridFunction, eval_window, eval_points):
    if eval_points is not None:
        pts = np.atleast_2d(np.asarray(eval_points, dtype=float))
        return pts, None
    window = eval_window or f.window
    return window.midpoints(), window


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


def _lattice_offset(inner: Window, outer: Window) -> np.ndarray | None:
    """Index of the inner window's first cell in the outer window's lattice
    (negative below it), or None if the two lattices differ."""
    if inner.n != outer.n or abs(inner.h - outer.h) > 1e-12 * outer.h:
        return None
    off = (np.asarray(inner.lower) - np.asarray(outer.lower)) / outer.h
    rounded = np.round(off).astype(int)
    if np.max(np.abs(off - rounded)) > 1e-9:
        return None
    return rounded


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


def _modulate(kernel: KernelSpec, slot: int, values, pts):
    """values * a(pts) when the kernel's modulation a multiplies `slot`."""
    if kernel.modulation is None or kernel.modulation_slot != slot:
        return values
    return values * kernel.modulation(pts)


def _modulate_frame(kernel: KernelSpec, slot: int, values, window: Window):
    """_modulate over every cell of the window (flat values), one row band at
    a time."""
    if kernel.modulation is None or kernel.modulation_slot != slot:
        return values
    out = np.empty(window.cell_count)
    for cells, pts in _frame_bands(window):
        out[cells] = _modulate(kernel, slot, values[cells], pts)
    return out


def _frame_moment(values, column, window: Window) -> float:
    """lattice.moments of one column over the window, summed row band by row
    band (values and column may be views of the window's shape)."""
    v, c = values.reshape(window.cells), column.reshape(window.cells)
    return sum(
        moments(v[a:b].reshape(-1), c[a:b].reshape(-1, 1), window.cell_measure)[0]
        for a, b in _bands(window.cells)
    )


def _fast_truncated(kernel: KernelSpec, f: GridFunction, eta: float, window: Window):
    """Difference-table application over a shared lattice; None if inapplicable.

    Indices are taken in f's lattice and the table covers the evaluation
    window minus the bounding box of f's nonzero cells.  Routes through point
    dots over that box, O(evaluations * box cells), when the evaluation side
    is smaller than the source side, and through shifted accumulation over
    the evaluation window, O(sources * evaluations), otherwise."""
    if kernel.kappa is None:
        return None
    eval_lo = _lattice_offset(window, f.window)
    if eval_lo is None:
        return None
    nz = np.nonzero(f.flat)[0]
    if nz.size == 0:
        return np.zeros(window.cell_count)
    src_idx = _cell_indices(f.window, nz)
    src_w = f.flat[nz] * f.window.cell_measure
    if kernel.modulation is not None:
        src_w = _modulate(kernel, 2, src_w, f.window.cell_midpoints(nz))
    lo, hi = src_idx.min(axis=0), src_idx.max(axis=0)
    eval_hi = eval_lo + np.asarray(window.cells) - 1
    table, origin = _box_table(kernel.kappa, f.window.h, eta, eval_lo, eval_hi, lo, hi)
    if window.cell_count <= nz.size:
        W = np.zeros(tuple(hi - lo + 1))
        W[tuple((src_idx - lo).T)] = src_w
        eval_idx = eval_lo + _cell_indices(window, np.arange(window.cell_count))
        out = _conv_at_points(table, origin, eval_idx, lo, W)
    else:
        out = _conv_forward(table, origin, eval_lo, window.cells, src_idx, src_w)
    return _modulate_frame(kernel, 1, out, window)


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
    if eval_points is None:
        window = eval_window or f.window
        fast = _fast_truncated(kernel, f, eta, window)
        if fast is not None:
            return GridFunction(window, fast.reshape(window.cells))
    src_pts, src_w = _source_arrays(f)
    eval_pts, window = _eval_points(f, eval_window, eval_points)
    out = _truncated_raw(kernel, eval_pts, src_pts, src_w, eta)
    if window is None:
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
    if corr.order > kernel_tilde.order:
        raise ValueError(
            f"kernel {kernel_tilde.name!r} lacks derivative evaluators up to order {corr.order}"
        )
    h = f.window.h
    window = eval_window or f.window
    src_pts, src_w = _source_arrays(f)
    # the Taylor correction does not depend on the exclusion radius: build
    # its polynomial once for the whole ladder
    corr_eval = _taylor_correction(kernel_tilde, corr, _point_chunks(src_pts, src_w), window.midpoints())
    ladder = [
        apply_truncated(kernel_tilde, f, m * h, eval_window=window).flat - corr_eval
        for m in eta_cells
    ]
    if tol is None:
        tol = 1e-3 * float(np.max(np.abs(f.values))) if np.any(f.values) else 1e-3
    base = _ladder_result(window, ladder, [m * h for m in eta_cells], tol)
    ref = window.reference_cube()
    proj = moment_projection(base.result, ref, corr.order)
    canonical = base.result - proj.on_grid(window)
    return ModifiedResult(
        result=base.result,
        etas=base.etas,
        ladder=base.ladder,
        max_increments=base.max_increments,
        tol=base.tol,
        converged=base.converged,
        diverged=base.diverged,
        converged_fraction=base.converged_fraction,
        canonical=canonical,
        reference_cube=ref,
        correction=corr,
    )


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
    if corr.order > kernel_tilde.order:
        raise ValueError(
            f"kernel {kernel_tilde.name!r} lacks derivative evaluators up to order {corr.order}"
        )
    _check_padding(padding)
    h = eval_window.h
    eval_pts = eval_window.midpoints()

    def run(factor):
        big = eval_window.padded(factor)
        grid_w = GridFunction.monomial(big, nu).flat * big.cell_measure
        if kernel_tilde.kappa is None:
            keep = grid_w != 0.0
            main = _truncated_raw(kernel_tilde, eval_pts, big.midpoints()[keep], grid_w[keep], h)
            cells = 0
        else:
            eval_lo = _lattice_offset(eval_window, big)
            eval_hi = eval_lo + np.asarray(eval_window.cells) - 1
            grid_lo = np.zeros(big.n, dtype=int)
            table, origin = _box_table(
                kernel_tilde.kappa, big.h, h, eval_lo, eval_hi, grid_lo, np.asarray(big.cells) - 1
            )
            eval_idx = eval_lo + _cell_indices(eval_window, np.arange(eval_window.cell_count))
            W = _modulate_frame(kernel_tilde, 2, grid_w, big).reshape(big.cells)
            main = _conv_at_points(table, origin, eval_idx, grid_lo, W)
            main = _modulate(kernel_tilde, 1, main, eval_pts)
            cells = table.size
        correction = _taylor_correction(kernel_tilde, corr, _frame_sources(big, grid_w), eval_pts)
        return big, cells, main - correction

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
        engine="pairwise" if kernel_tilde.kappa is None else "table",
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
        src_pts, src_w = _source_arrays(gf)
        if not src_w.size:
            raise ValueError(f"atom {idx} vanishes identically")
        if kernel.kappa is not None:
            # one table over the padded window minus the atom's support serves
            # the forward sums and, reflected, the transpose's point sums
            nz = np.nonzero(gf.flat)[0]
            src_idx = _cell_indices(window, nz) + _lattice_offset(window, big)
            lo, hi = src_idx.min(axis=0), src_idx.max(axis=0)
            big_lo = np.zeros(big.n, dtype=int)
            big_hi = np.asarray(big.cells) - 1
            table, origin = _box_table(kernel.kappa, big.h, h, big_lo, big_hi, lo, hi)
            table_cells += table.size
            weights = _modulate(kernel, 2, src_w, src_pts)
            ta = _conv_forward(table, origin, big_lo, big.cells, src_idx, weights)
            ta = _modulate_frame(kernel, 1, ta, big)
            table_t = table[(slice(None, None, -1),) * big.n]
            origin_t = -(origin + np.asarray(table.shape) - 1)
        else:
            ta = _truncated_raw(kernel, big.midpoints(), src_pts, src_w, h)
        # the half-padding frame is a sub-window of the padded one
        ta_half = ta.reshape(big.cells)[_box(_lattice_offset(half, big), half.cells)]
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
            if kernel.kappa is not None:
                W = _modulate_frame(tilde, 2, mono_w, big).reshape(big.cells)
                tmain = _conv_at_points(table_t, origin_t, src_idx, big_lo, W)
                tmain = _modulate(tilde, 1, tmain, src_pts)
            else:
                tmain = _truncated_raw(tilde, src_pts, big.midpoints(), mono_w, h)
            tmono = tmain - _taylor_correction(tilde, corr, _frame_sources(big, mono_w), src_pts)
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
        engine="pairwise" if kernel.kappa is None else "table",
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
        s2 = float(np.max(np.abs(kernel.d2(g, x, y)) * d ** (n + sum(g))))
        s1 = float(np.max(np.abs(kernel.d1(g, x, y)) * d ** (n + sum(g))))
        r2 = float(
            np.max(
                np.abs(kernel.d2(g, x, y) - kernel.d2(g, x, z))
                * d ** (n + sum(g) + dlt)
                / dz**dlt
            )
        )
        r1 = float(
            np.max(
                np.abs(kernel.d1(g, x, y) - kernel.d1(g, w, y))
                * d ** (n + sum(g) + dlt)
                / dw**dlt
            )
        )
        size[g] = {"slot1": s1, "slot2": s2}
        reg[g] = {"slot1": r1, "slot2": r2}
    return StandardKernelReport(size, reg, dlt, int(x.shape[0]))
