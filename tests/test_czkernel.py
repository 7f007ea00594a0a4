import functools
import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnlab import czkernel, lab, lattice
from jnlab.lattice import Cube, GridFunction, Window, monomial_factors, moments, monomials, region_cells
from jnlab.polyproj import index_factorial, multi_indices
from jnlab.spaces import NormParams
from jnlab.czkernel import (
    CorrectionSpec,
    KernelSpec,
    apply_cz,
    apply_modified,
    apply_truncated,
    hilbert_kernel,
    kernel_by_name,
    kernel_transpose,
    modified_on_monomial,
    perturbed_kernel,
    poly_distance,
    riesz_kernel,
    smooth_bump_kernel,
    vanishing_moment_defect,
)
from jnlab.czkernel import (
    _box,
    _box_table,
    _cell_indices,
    _conv_at_points,
    _conv_forward,
    _difference_table,
    _frame_sources,
    _lattice_sums,
    _point_chunks,
    _rows_forward,
    _source_arrays,
    _taylor_correction,
    _toeplitz_forward,
    _toeplitz_points,
)
from jnlab.hardy import make_atom


def sample_pairs(n, count=100, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(count, n))
    y = rng.uniform(-2, 2, size=(count, n))
    keep = np.linalg.norm(x - y, axis=1) > 0.1
    return x[keep], y[keep]


def _k(K):
    """K(x, y) from the kernel's difference kernel kappa and its modulation slot."""

    def k(x, y):
        out = K.kappa(x - y)
        return out if K.modulation is None else out * K.modulation(x if K.modulation_slot == 1 else y)

    return k


def _pairwise_sums(k, eval_pts, src_pts, src_w, eta):
    """The reference sums: over the sources with |x - y| >= eta, k(x, y) times
    the weight, one pair at a time; no difference table."""
    D = eval_pts[:, None, :] - src_pts[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        kv = k(np.broadcast_to(eval_pts[:, None, :], D.shape), np.broadcast_to(src_pts[None, :, :], D.shape))
    return np.where((D * D).sum(axis=2) >= eta * eta * (1.0 - 1e-12), kv, 0.0) @ src_w


def _cells_at(window: Window, xs) -> np.ndarray:
    """Indices of the cells of a line window that hold the points xs."""
    return np.floor((np.asarray(xs, dtype=float) - window.lower[0]) / window.h).astype(int)


def test_transpose_hilbert_antisymmetric():
    K = hilbert_kernel()
    Kt = kernel_transpose(K)
    x, y = sample_pairs(1)
    assert np.max(np.abs(_k(Kt)(x, y) + _k(K)(x, y))) <= 1e-14
    Ktt = kernel_transpose(Kt)
    assert np.max(np.abs(_k(Ktt)(x, y) - _k(K)(x, y))) <= 1e-14
    # derivative slots swap
    assert np.allclose(Kt.d1((2,), x, y), K.d2((2,), y, x))


def test_transpose_riesz_odd():
    R = riesz_kernel(0, 2)
    Rt = kernel_transpose(R)
    x, y = sample_pairs(2)
    assert np.max(np.abs(_k(Rt)(x, y) + _k(R)(x, y))) <= 1e-14


def test_riesz_derivative_consistency():
    # closed-form first partials against central differences in the y slot
    R = riesz_kernel(1, 2)
    x, y = sample_pairs(2, count=50, seed=3)
    eps = 1e-6
    for axis, g in [(0, (1, 0)), (1, (0, 1))]:
        shift = np.zeros(2)
        shift[axis] = eps
        numeric = (_k(R)(x, y + shift) - _k(R)(x, y - shift)) / (2 * eps)
        closed = R.d2(g, x, y)
        denom = np.maximum(np.abs(closed), 1.0)
        assert np.max(np.abs(numeric - closed) / denom) <= 1e-4


def test_perturbed_derivative_consistency():
    K = perturbed_kernel()
    x, y = sample_pairs(1, count=50, seed=4)
    eps = 1e-6
    numeric = (_k(K)(x + eps, y) - _k(K)(x - eps, y)) / (2 * eps)
    closed = K.d1((1,), x, y)
    assert np.max(np.abs(numeric - closed)) <= 1e-4 * np.max(np.abs(closed))


def test_truncated_odd_cancellation():
    # f = 1 at pitch 1/32 on a window symmetric about its midpoint 0, eta = 16h
    K = hilbert_kernel()
    w = Window(1, (-65 / 64,), (65 / 64,), (65,))
    one = GridFunction.from_callable(w, lambda x: np.ones_like(x))
    out = apply_truncated(K, one, 0.5)
    assert w.axis_midpoints(0)[_cells_at(w, 0.0)] == 0.0
    assert abs(out.flat[_cells_at(w, 0.0)]) <= 1e-12


def test_truncated_linear_closed_form():
    # the integral of y / (x - y) over |x - y| >= 1/4 in [-1, 1] is
    # x ln((1 + x)/(1 - x)) - 3/2, here at the midpoint of the cell holding 0
    K = hilbert_kernel()
    w = Window(1, (-1.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: x)
    out = apply_truncated(K, f, 0.25)
    x = w.axis_midpoints(0)[_cells_at(w, 0.0)]
    assert abs(out.flat[_cells_at(w, 0.0)] - (x * np.log((1 + x) / (1 - x)) - 1.5)) <= 2 * w.h


def test_truncated_eta_validation():
    K = hilbert_kernel()
    w = Window(1, (-1.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: x)
    with pytest.raises(ValueError):
        apply_truncated(K, f, w.h / 2)
    with pytest.raises(ValueError):
        apply_truncated(K, f, 1.37 * w.h)



def test_truncation_radius_must_be_finite():
    w = Window(1, (-1.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: x)
    for eta in (math.inf, -math.inf, math.nan, 0.0, -w.h):
        with pytest.raises(ValueError, match="eta must be"):
            apply_truncated(hilbert_kernel(), f, eta)

def test_smooth_bump_equals_plain_quadrature():
    B = smooth_bump_kernel()
    w = Window(1, (-1.0,), (1.0,), (64,))
    rng = np.random.default_rng(1)
    f = GridFunction(w, rng.normal(size=64))
    out = apply_truncated(B, f, w.h, eval_window=w)
    pts = w.midpoints()
    direct = np.empty(64)
    for i, x in enumerate(pts):
        mask = np.abs(pts[:, 0] - x[0]) >= w.h * (1 - 1e-12)
        direct[i] = np.sum(np.exp(-((x[0] - pts[mask, 0]) ** 2)) * f.flat[mask]) * w.h
    assert np.max(np.abs(out.values - direct)) <= 1e-12
    # the excluded cell changes the plain quadrature only at the h scale
    full = np.array(
        [np.sum(np.exp(-((x[0] - pts[:, 0]) ** 2)) * f.flat) * w.h for x in pts]
    )
    assert np.max(np.abs(out.values - full)) <= 3 * w.h * np.max(np.abs(f.values))


def test_cz_zero_function():
    K = hilbert_kernel()
    w = Window(1, (-1.0,), (1.0,), (64,))
    res = apply_cz(K, GridFunction.zeros(w))
    assert np.all(res.result.values == 0.0)
    assert res.converged and not res.diverged


def test_cz_constant_center_cancellation():
    K = hilbert_kernel()
    w = Window(1, (-1.0,), (1.0,), (65,))  # odd count: 0 is a midpoint
    one = GridFunction.from_callable(w, lambda x: np.ones_like(x))
    out = apply_truncated(K, one, w.h)
    assert w.axis_midpoints(0)[_cells_at(w, 0.0)] == 0.0
    assert abs(out.flat[_cells_at(w, 0.0)]) <= 1e-12


def test_cz_increment_slope_on_smooth_compact():
    K = hilbert_kernel()
    incs = []
    hs = []
    for cells in (128, 256, 512):
        w = Window(1, (-1.0,), (1.0,), (cells,))
        f = GridFunction.from_callable(
            w, lambda x: np.where(np.abs(x) < 0.5, np.cos(np.pi * x) ** 2, 0.0)
        )
        res = apply_cz(K, f)
        incs.append(res.max_increments[-1])
        hs.append(w.h)
    slope = np.polyfit(np.log(hs), np.log(incs), 1)[0]
    assert slope >= 0.8


def test_cz_l2_ratio_bounded():
    K = hilbert_kernel()
    w = Window(1, (-1.0,), (1.0,), (128,))
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        f = GridFunction(w, rng.normal(size=128))
        tf = apply_cz(K, f).result
        ratio = np.linalg.norm(tf.values) / np.linalg.norm(f.values)
        worst = max(worst, ratio)
    assert worst <= 2 * math.pi


def test_modified_locality():
    K = hilbert_kernel()
    Kt = kernel_transpose(K)
    w = Window(1, (-1.0,), (1.0,), (128,))
    corr = CorrectionSpec((0.0,), 0.75, 0)
    f = GridFunction.from_callable(w, lambda x: np.where(np.abs(x) < 0.5, 1.0 + x, 0.0))
    mod = apply_modified(Kt, corr, f)
    cz = apply_cz(Kt, f)
    assert np.max(np.abs(mod.result.values - cz.result.values)) <= 1e-12


def test_modified_b0_independence():
    K = hilbert_kernel()
    Kt = kernel_transpose(K)
    w = Window(1, (-1.0,), (1.0,), (256,))
    f = GridFunction.from_callable(w, lambda x: np.sin(2 * x) + (x > 0.3))
    m0 = apply_modified(Kt, CorrectionSpec((0.0,), 0.6, 0), f).result
    m1 = apply_modified(Kt, CorrectionSpec((0.2,), 0.9, 0), f).result
    scale = float(np.max(np.abs(m0.values)))
    assert poly_distance(m0 - m1, Cube((0.0,), 2.0), 0, floor=scale) <= 1e-6


def test_modified_minus_plain_is_constant():
    # order 0: the corrected and plain operators differ by a constant
    K = hilbert_kernel()
    Kt = kernel_transpose(K)
    big = Window(1, (-4.0,), (4.0,), (1024,))
    ew = Window(1, (-1.0,), (1.0,), (256,))
    f = GridFunction.from_callable(
        big, lambda x: np.exp(-3 * (x - 2.5) ** 2) + np.where(np.abs(x) < 0.5, 1.0, 0.0)
    )
    corr = CorrectionSpec((0.0,), 1.3, 0)
    diff = apply_cz(Kt, f, eval_window=ew).result - apply_modified(Kt, corr, f, eval_window=ew).result
    dev = np.max(np.abs(diff.values - diff.values.mean()))
    assert abs(diff.values.mean()) > 0.01  # genuinely nonzero constant
    assert dev <= 1e-6 * max(1.0, float(np.max(np.abs(diff.values))))


def test_modified_canonical_form():
    K = hilbert_kernel()
    Kt = kernel_transpose(K)
    w = Window(1, (-1.0,), (1.0,), (128,))
    f = GridFunction.from_callable(w, lambda x: np.sign(x) * np.minimum(np.abs(x), 0.4))
    res = apply_modified(Kt, CorrectionSpec((0.0,), 0.5, 1), f)
    # canonical representative has vanishing projection over the reference cube
    d = poly_distance(res.canonical, res.reference_cube, 1, floor=0.0)
    from jnlab.polyproj import moment_projection

    proj = moment_projection(res.canonical, res.reference_cube, 1)
    assert max(abs(c) for c in proj.coeffs.values()) <= 1e-10 * max(
        1.0, float(np.max(np.abs(res.canonical.values)))
    )


def test_monomial_image_dichotomy():
    ew = Window(1, (-1.0,), (1.0,), (128,))
    corr = CorrectionSpec((0.0,), 0.5, 0)
    img_h = modified_on_monomial(
        kernel_transpose(hilbert_kernel()), corr, (0,), ew, padding=256
    )
    d_h = poly_distance(img_h.values, Cube((0.0,), 1.0), 0, floor=1.0)
    assert d_h <= 5e-3
    assert not img_h.truncation_warn
    img_p = modified_on_monomial(
        kernel_transpose(perturbed_kernel()), corr, (0,), ew, padding=256, check_doubling=False
    )
    d_p = poly_distance(img_p.values, Cube((0.0,), 1.0), 0, floor=1.0)
    assert d_p >= 10 * d_h


def test_monomial_image_additive_in_kernel():
    ew = Window(1, (-1.0,), (1.0,), (64,))
    corr = CorrectionSpec((0.0,), 0.5, 0)
    K1 = hilbert_kernel()
    K2 = smooth_bump_kernel()
    Ksum = _sum_kernel()
    a = modified_on_monomial(kernel_transpose(K1), corr, (0,), ew, padding=8, check_doubling=False)
    b = modified_on_monomial(kernel_transpose(K2), corr, (0,), ew, padding=8, check_doubling=False)
    c = modified_on_monomial(kernel_transpose(Ksum), corr, (0,), ew, padding=8, check_doubling=False)
    assert np.max(np.abs(c.values.values - a.values.values - b.values.values)) <= 1e-10


def test_monomial_image_padding_guard():
    ew = Window(1, (-1.0,), (1.0,), (32,))
    with pytest.raises(ValueError):
        modified_on_monomial(
            kernel_transpose(hilbert_kernel()), CorrectionSpec((0.0,), 0.5, 0), (0,), ew, padding=2
        )


def test_poly_distance():
    w = Window(1, (-1.0,), (1.0,), (512,))
    g = GridFunction.monomial(w, (2,))
    cube = Cube((0.0,), 2.0)
    # exact value sqrt((8/45) / (2/5)) = 2/3 for s = 1
    assert poly_distance(g, cube, 1) == pytest.approx(2.0 / 3.0, abs=5e-3)
    assert poly_distance(g, cube, 2) <= 1e-10
    lin = GridFunction.monomial(w, (1,))
    assert poly_distance(lin, cube, 1) <= 1e-10
    # monotone in s
    rng = np.random.default_rng(3)
    f = GridFunction(w, rng.normal(size=512))
    d = [poly_distance(f, cube, s) for s in range(3)]
    assert d[0] >= d[1] >= d[2]


def test_vanishing_moment_defect_dichotomy():
    params = NormParams(2.0, 2.0, 0, 0.25)
    w = Window(1, (-2.0,), (2.0,), (256,))
    cube = Cube((0.0,), 1.0)
    atoms = [make_atom(50 + i, cube, params, w) for i in range(3)]
    rep_h = vanishing_moment_defect(hilbert_kernel(), 0, atoms, padding=256)
    assert rep_h.max_defect <= 5e-3
    assert rep_h.max_mismatch <= 1e-3
    rep_p = vanishing_moment_defect(perturbed_kernel(), 0, atoms, padding=256)
    assert rep_p.max_defect >= 10 * rep_h.max_defect
    # the pairing identity holds for either kernel
    assert rep_p.max_mismatch <= 1e-3


def test_smooth_bump_regularity_quotient_decays():
    # the regularity quotient decays with separation for the smooth kernel
    B = smooth_bump_kernel(order=0)
    rng = np.random.default_rng(4)
    y = rng.uniform(-0.5, 0.5, size=(200, 1))
    z = y + rng.uniform(-0.05, 0.05, size=(200, 1))
    def quotient(gap):
        x = y + gap
        d = np.abs(x[:, 0] - y[:, 0])
        return np.max(np.abs(_k(B)(x, y) - _k(B)(x, z)) * d ** (1 + B.delta)
                      / np.abs(y[:, 0] - z[:, 0]) ** B.delta)
    assert quotient(6.0) < 1e-3 * quotient(1.0)


def test_kernel_registry():
    assert kernel_by_name("hilbert").name == "hilbert"
    assert kernel_by_name("riesz", j=1, n=2).name == "riesz1"
    with pytest.raises(KeyError):
        kernel_by_name("cauchy")


def test_modified_b0_independence_2d():
    # the polynomial-difference identity holds for the planar kernel at order 1
    R = riesz_kernel(0, 2)
    Rt = kernel_transpose(R)
    w = Window(2, (-1.0, -1.0), (1.0, 1.0), (24, 24))
    f = GridFunction.from_callable(
        w, lambda x, y: np.sin(3 * x) * np.cos(2 * y) + (x + y > 0.2)
    )
    m0 = apply_modified(Rt, CorrectionSpec((0.0, 0.0), 0.6, 1), f).result
    m1 = apply_modified(Rt, CorrectionSpec((0.1, -0.1), 0.8, 1), f).result
    scale = float(np.max(np.abs(m0.values)))
    assert poly_distance(m0 - m1, Cube((0.0, 0.0), 2.0), 1, floor=scale) <= 1e-6


def test_truncated_indicator_closed_form():
    # pv integral of 1/(x - y) over [a, b] is ln|(x - a)/(x - b)| off support
    K = hilbert_kernel()
    w = Window(1, (-2.0,), (2.0,), (512,))
    a, b = -0.5, 0.25
    f = GridFunction.from_callable(w, lambda x: ((x >= a) & (x < b)).astype(float))
    cells = _cells_at(w, [1.0, 1.5, -1.25])  # at the midpoints of the cells holding these
    out = apply_truncated(K, f, w.h).flat[cells]
    xs = w.axis_midpoints(0)[cells]
    exact = np.log(np.abs((xs - a) / (xs - b)))
    assert np.max(np.abs(out - exact)) <= 5e-3


def test_cz_indicator_inside_support():
    # at interior points the principal value of the indicator is
    # ln((x - a)/(b - x)); the symmetric exclusion realizes it
    K = hilbert_kernel()
    w = Window(1, (-2.0,), (2.0,), (1024,))
    a, b = -0.5, 0.75
    f = GridFunction.from_callable(w, lambda x: ((x >= a) & (x < b)).astype(float))
    res = apply_cz(K, f)
    pts = w.midpoints()[:, 0]
    inside = (pts > a + 0.15) & (pts < b - 0.15)
    exact = np.log((pts[inside] - a) / (b - pts[inside]))
    got = res.result.flat[inside]
    assert np.max(np.abs(got - exact)) <= 2e-2


def test_vanishing_moment_defect_order_one():
    # atoms orthogonal to linears: both moment defects stay truncation-small
    params = NormParams(2.0, 2.0, 1, 0.3)
    w = Window(1, (-2.0,), (2.0,), (512,))
    cube = Cube((0.0,), 1.0)
    atoms = [make_atom(400 + i, cube, params, w) for i in range(3)]
    rep = vanishing_moment_defect(hilbert_kernel(), 1, atoms, padding=512)
    assert rep.max_defect <= 5e-3
    assert rep.max_mismatch <= 1e-3
    assert {r["gamma"] for r in rep.rows} == {(0,), (1,)}


# --- difference-table engine against the pairwise reference sums ----------


def _sum_kernel():
    K1, K2 = hilbert_kernel(), smooth_bump_kernel()
    return KernelSpec(
        "sum", 1, 0, 1.0,
        d1=lambda g, x, y: K1.d1(g, x, y) + K2.d1(g, x, y),
        d2=lambda g, x, y: K1.d2(g, x, y) + K2.d2(g, x, y),
        kappa=lambda u: K1.kappa(u) + K2.kappa(u),
    )


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_modulated_table_matches_pairwise(transposed, m):
    K = perturbed_kernel()
    if transposed:
        K = kernel_transpose(K)
    w = Window(1, (-1.0,), (1.0,), (64,))
    rng = np.random.default_rng(10 + m)
    dense = GridFunction(w, rng.normal(size=64))
    sparse = GridFunction(w, np.where(np.abs(w.midpoints()[:, 0] - 0.2) < 0.3, rng.normal(size=64), 0.0))
    windows = [
        w,
        Window(1, (0.25,), (1.75,), (48,)),  # offset, partly outside the source window
        Window(1, (-0.5,), (0.25,), (24,)),  # smaller, inside it
    ]
    for f in (dense, sparse):
        src_pts, src_w = _source_arrays(f)
        for ew in windows:
            got = apply_truncated(K, f, m * w.h, eval_window=ew).flat
            ref = _pairwise_sums(_k(K), ew.midpoints(), src_pts, src_w, m * w.h)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_range_restricted_table_is_slice_of_full():
    eta_h = 2
    for K, N in ((hilbert_kernel(), 40), (riesz_kernel(0, 2), 24), (kernel_transpose(perturbed_kernel()), 40)):
        n, h = K.n, 0.05
        full = _difference_table(K.kappa, h, eta_h * h, [-(N - 1)] * n, [N - 1] * n)
        assert full.shape == (2 * N - 1,) * n
        # evaluation box [3, 3 + 20) against a source box [5, 9] per axis
        lo, hi = np.array([5] * n), np.array([9] * n)
        table, origin = _box_table(K.kappa, h, eta_h * h, [3] * n, [22] * n, lo, hi)
        assert table.shape == (20 + 4,) * n
        assert np.array_equal(origin, [3 - 9] * n)
        expect = full[tuple(slice(o + N - 1, o + N - 1 + c) for o, c in zip(origin, table.shape))]
        assert np.array_equal(table, expect)
        # the transpose kernel's table is the reflection of the base one
        Kt = kernel_transpose(K)
        full_t = _difference_table(Kt.kappa, h, eta_h * h, [-(N - 1)] * n, [N - 1] * n)
        assert np.array_equal(full_t, full[(slice(None, None, -1),) * n])


def test_monomial_image_table_matches_pairwise():
    ew = Window(1, (-1.0,), (1.0,), (32,))
    big = ew.padded(8.0)
    for K in (kernel_transpose(perturbed_kernel()), perturbed_kernel()):
        corr = CorrectionSpec((0.1,), 0.5, 1)
        for nu in ((0,), (1,)):
            fast = modified_on_monomial(K, corr, nu, ew, padding=8, check_doubling=False)
            assert fast.integration_cells == big.cells
            weights = GridFunction.monomial(big, nu).flat * big.cell_measure
            main = _pairwise_sums(_k(K), ew.midpoints(), big.midpoints(), weights, ew.h)
            ref = main - _taylor_correction(K, corr, _point_chunks(big.midpoints(), weights), ew.midpoints())
            assert np.max(np.abs(fast.values.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def _pairwise_defect_sums(K, s, atom, padding):
    """(lhs, rhs, half_padding_lhs) per gamma of an atom's defect report, from
    the pairwise sums: T(a) on the padded frame paired with y^gamma there and
    on the half-padding frame, and a paired with the corrected transpose image
    of y^gamma."""
    window, cube = atom.values.window, atom.cube
    factor = max(padding * max(1, round(cube.side / window.h)) / min(window.cells), 1.0)
    big, half = window.padded(factor), window.padded(max(factor / 2.0, 1.0))
    nz = np.flatnonzero(atom.values.flat)
    src_pts, src_w = window.cell_midpoints(nz), atom.values.flat[nz] * window.cell_measure
    image = _pairwise_sums(_k(K), big.midpoints(), src_pts, src_w, window.h)
    part = image.reshape(big.cells)[_box(half.lattice_offset(big), half.cells)].reshape(-1)
    Kt, corr = kernel_transpose(K), CorrectionSpec(cube.center, cube.side, s)
    sums = []
    for g in multi_indices(window.n, s):
        y_g = GridFunction.monomial(big, g).flat * big.cell_measure
        dual = _pairwise_sums(_k(Kt), src_pts, big.midpoints(), y_g, window.h)
        dual = dual - _taylor_correction(Kt, corr, _point_chunks(big.midpoints(), y_g), src_pts)
        half_g = GridFunction.monomial(half, g).flat * half.cell_measure
        sums.append((float(image @ y_g), float(dual @ src_w), float(part @ half_g)))
    return sums


def test_vanishing_moment_defect_table_matches_pairwise():
    w = Window(1, (-2.0,), (2.0,), (64,))
    atoms = [make_atom(60 + i, Cube((0.0,), 1.0), NormParams(2.0, 2.0, 1, 0.3), w) for i in range(2)]
    for K in (perturbed_kernel(), hilbert_kernel()):
        fast = vanishing_moment_defect(K, 1, atoms, padding=16)
        ref = [sums for atom in atoms for sums in _pairwise_defect_sums(K, 1, atom, 16)]
        assert len(fast.rows) == len(ref)
        for a, b in zip(fast.rows, ref):
            scale = abs(a["lhs"]) / a["defect"]
            for key, value in zip(("lhs", "rhs", "half_padding_lhs"), b):
                assert abs(a[key] - value) <= 1e-12 * scale



_ENTRY_KERNELS = [
    hilbert_kernel(),
    perturbed_kernel(),
    smooth_bump_kernel(),
    riesz_kernel(0, 2),
    riesz_kernel(1, 2),
    smooth_bump_kernel(2, order=2),
]


@pytest.mark.parametrize(
    "K", _ENTRY_KERNELS + [kernel_transpose(K) for K in _ENTRY_KERNELS], ids=lambda K: f"{K.name}-{K.n}d"
)
@pytest.mark.parametrize("m", [1, 2, 4])
def test_lattice_sums_on_eval_cells_match_pairwise(K, m):
    # a subset of the cells of an offset evaluation window, as the dual route
    # of the defect report takes the atom's support cells
    n = K.n
    src = Window(n, (-1.0,) * n, (1.0,) * n, (40,) if n == 1 else (16, 16))
    if n == 1:
        evals = [Window(1, (-0.5,), (0.75,), (25,)), Window(1, (0.5,), (1.5,), (20,))]
    else:
        evals = [Window(2, (-0.5, 0.0), (0.5, 1.0), (8, 8)), Window(2, (0.5, -1.25), (1.5, -0.25), (8, 8))]
    rng = np.random.default_rng(20 + m)
    dense = rng.normal(size=src.cell_count)
    sparse = np.zeros(src.cell_count)
    sparse[rng.choice(src.cell_count, 3, replace=False)] = rng.normal(size=3)
    # dense sources take point sums over their weight box, sparse ones shifted sums
    for weights in (dense, sparse):
        keep = np.flatnonzero(weights)
        for ew in evals:
            cells = np.sort(rng.choice(ew.cell_count, 7, replace=False))
            got, _, _ = _lattice_sums(K, m * src.h, src, weights, ew, cells)
            ref = _pairwise_sums(_k(K), ew.cell_midpoints(cells), src.cell_midpoints(keep), weights[keep], m * src.h)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "K", [hilbert_kernel(), perturbed_kernel(), riesz_kernel(0, 2), riesz_kernel(1, 2)], ids=lambda K: K.name
)
def test_reflected_forward_table_serves_the_transpose(K):
    n, Kt = K.n, kernel_transpose(K)
    small = Window(n, (-0.5,) * n, (0.5,) * n, (12,) * n)
    big = small.padded(4.0)
    rng = np.random.default_rng(7)
    atom = np.where(rng.uniform(size=small.cell_count) < 0.5, rng.normal(size=small.cell_count), 0.0)
    frame = rng.normal(size=big.cell_count)
    _, (table, origin), _ = _lattice_sums(K, small.h, small, atom, big)
    reflected = table[(slice(None, None, -1),) * n], -(origin + np.asarray(table.shape) - 1)
    cells = np.flatnonzero(atom)
    got, used, _ = _lattice_sums(Kt, small.h, big, frame, small, cells, reflected)
    built, (table_t, origin_t), _ = _lattice_sums(Kt, small.h, big, frame, small, cells)
    assert used is reflected
    # the transpose's own table covers the whole evaluation window, the
    # reflected one only the atom's support box: one is a slice of the other
    assert np.array_equal(reflected[0], table_t[_box(reflected[1] - origin_t, reflected[0].shape)])
    if n == 1:
        assert np.array_equal(got, built)
    else:  # the 2-D point sums contract a reversed view: same terms, other order
        assert np.max(np.abs(got - built)) <= 1e-12 * np.max(np.abs(built))


def test_perturbed_builder_matches_closed_forms():
    # the closed forms of (2 + sin x) / (x - y) and its slot derivatives
    def k(x, y):
        return (2.0 + np.sin(x[..., 0])) / (x[..., 0] - y[..., 0])

    def d2(g, x, y):
        return (2.0 + np.sin(x[..., 0])) * math.factorial(g) / (x[..., 0] - y[..., 0]) ** (g + 1)

    def d1(g, x, y):
        x0, u = x[..., 0], x[..., 0] - y[..., 0]
        out = np.zeros(u.shape)
        for m in range(g + 1):
            smooth = 2.0 + np.sin(x0) if m == 0 else np.sin(x0 + m * math.pi / 2.0)
            out = out + math.comb(g, m) * smooth * ((-1.0) ** (g - m) * math.factorial(g - m) / u ** (g - m + 1))
        return out

    K = perturbed_kernel()
    x, y = sample_pairs(1, count=200, seed=8)
    assert np.max(np.abs(_k(K)(x, y) - k(x, y)) / np.abs(k(x, y))) <= 1e-14
    assert np.array_equal(K.modulation(x), 2.0 + np.sin(x[:, 0]))
    for g in range(K.order + 1):
        assert np.array_equal(K.d1((g,), x, y), d1(g, x, y))
        assert np.max(np.abs(K.d2((g,), x, y) - d2(g, x, y)) / np.abs(d2(g, x, y))) <= 1e-14
    # the transpose swaps the slots and moves the modulation to the source side
    Kt = kernel_transpose(K)
    assert Kt.modulation_slot == 2
    assert np.array_equal(Kt.d2((2,), y, x), d1(2, x, y))

def test_perturbed_defects_pinned():
    # recorded from the pairwise evaluation of the perturbed kernel
    pinned = {
        0: ((50, 51, 52), 0.25, [0.013578297316857573, 0.0064208125933129636, 0.013006532381781072]),
        1: ((400, 401), 0.3, [0.029451497832493657, 0.006747581373904279,
                              0.011630406150968048, 0.0009834854416372728]),
    }
    w = Window(1, (-2.0,), (2.0,), (256,))
    for s, (seeds, alpha, defects) in pinned.items():
        atoms = [make_atom(i, Cube((0.0,), 1.0), NormParams(2.0, 2.0, s, alpha), w) for i in seeds]
        rep = vanishing_moment_defect(perturbed_kernel(), s, atoms, padding=64)
        got = [r["defect"] for r in rep.rows]
        assert got == pytest.approx(defects, rel=1e-10)
        assert rep.max_mismatch <= 1e-13


def test_engine_observability():
    w = Window(1, (-2.0,), (2.0,), (64,))
    atom = make_atom(70, Cube((0.0,), 1.0), NormParams(2.0, 2.0, 0, 0.25), w)
    support = int(np.count_nonzero(atom.values.values))
    rep = vanishing_moment_defect(hilbert_kernel(), 0, [atom], padding=16)
    big_cells = 64 * 16 // 4  # padding times the support side, in cells
    assert support <= rep.table_cells - big_cells + 1 <= 16
    # the table covers the geometry, whatever the kernel: the summed kernel reads as many entries
    assert vanishing_moment_defect(_sum_kernel(), 0, [atom], padding=16).table_cells == rep.table_cells
    ew = Window(1, (-1.0,), (1.0,), (16,))
    corr = CorrectionSpec((0.0,), 0.5, 0)
    img = modified_on_monomial(kernel_transpose(hilbert_kernel()), corr, (0,), ew, padding=4, check_doubling=False)
    assert img.table_cells == img.integration_cells[0] + 16 - 1
    img_s = modified_on_monomial(_sum_kernel(), corr, (0,), ew, padding=4, check_doubling=False)
    assert img_s.table_cells == img.table_cells
    # the ladder: one table per rung over the window minus the dense source box
    f = GridFunction.from_callable(ew, lambda x: np.cos(3 * x))
    cz = apply_cz(hilbert_kernel(), f)
    assert cz.table_cells == 3 * (2 * 16 - 1)
    mod = apply_modified(kernel_transpose(hilbert_kernel()), corr, f)
    assert mod.table_cells == 3 * (2 * 16 - 1)
    assert apply_cz(_sum_kernel(), f).table_cells == cz.table_cells
    assert apply_cz(hilbert_kernel(), GridFunction.zeros(ew)).table_cells == 0
    # the count does not reach the JSON of the ladder
    assert set(cz.to_json()[0]) == {"point", "eta_ladder_values", "converged"}
    # each result names the route of its sums: the atom's 16 sources (the switch point) shift
    # over the frame as Toeplitz products, and 16 dense cells take 16 point sums of 16 taps
    assert (rep.routes, img.route, cz.route, mod.route) == ([("toeplitz", "points")], "points", "points", "points")
    lw = Window(1, (-2.0,), (2.0,), (512,))
    line = make_atom(71, Cube((0.0,), 1.0), NormParams(2.0, 2.0, 1, 0.25), lw)
    assert vanishing_moment_defect(hilbert_kernel(), 1, [line], padding=8).routes == [("toeplitz",) * 3]
    wide = Window(1, (-1.0,), (1.0,), (256,))
    assert modified_on_monomial(kernel_transpose(hilbert_kernel()), corr, (0,), wide, padding=4,
                                check_doubling=False).route == "toeplitz"
    sparse = np.zeros(512)
    sparse[[100, 300]] = 1.0
    assert apply_cz(hilbert_kernel(), GridFunction(lw, sparse)).route == "forward"
    assert apply_cz(hilbert_kernel(), line.values).route == "toeplitz"
    w2 = Window(2, (-1.0, -1.0), (1.0, 1.0), (16, 16))
    assert apply_cz(riesz_kernel(0, 2), GridFunction.from_callable(w2, lambda x, y: np.cos(3 * x))).route == "points"
    assert apply_cz(riesz_kernel(0, 2), GridFunction(w2, np.eye(16))).route == "forward"
    # the route reaches no JSON either
    assert "route" not in json.dumps(apply_cz(hilbert_kernel(), line.values).to_json())


def test_benchmark_shapes_keep_their_routes(monkeypatch):
    # dichotomy: a plane item's 1536^2 image of a 6 x 6 atom takes the 2-D row products, and a line
    # item's image and dual route the Toeplitz products; molecule-2d: every forward sum of an item
    # (128^2 images of a 4 x 4 atom) stays on the direct shifted sums
    params = NormParams(2.0, 2.0, 0, 0.25)
    plane = make_atom(200, Cube((0.0, 0.0), 0.25), params, Window(2, (-1.0, -1.0), (1.0, 1.0), (48, 48)))
    assert vanishing_moment_defect(riesz_kernel(0, 2), 0, [plane], padding=256).routes == [("rows", "points")]
    line = make_atom(100, Cube((0.0,), 1.0), params, Window(1, (-2.0,), (2.0,), (512,)))
    assert vanishing_moment_defect(hilbert_kernel(), 0, [line], padding=512).routes == [("toeplitz", "toeplitz")]
    seen = []

    def recorded(kernel, eta, src_window, src_weights, eval_window, *args, **kwargs):
        out = _lattice_sums(kernel, eta, src_window, src_weights, eval_window, *args, **kwargs)
        if not isinstance(src_weights, tuple):
            box = _cell_indices(src_window, np.flatnonzero(src_weights))
            seen.append((eval_window.cells, tuple(np.ptp(box, axis=0) + 1), out[2]))
        return out

    monkeypatch.setattr(czkernel, "_lattice_sums", recorded)
    config = {"window": {"n": 2, "lower": [-2.0, -2.0], "upper": [2.0, 2.0], "cells": [128, 128]},
              "kernel": {"name": "riesz", "j": 0, "n": 2}, "params": {"p": 2.0, "q": 2.0, "s": 1, "alpha": 0.25},
              "family": {"kind": "atom", "count": 1, "seed": 0}, "epsilon": 5.0 / 24.0, "levels": 5}
    for name in ("atom-image", "decomposition"):
        lab.run_experiment(name, lab.ExperimentConfig(experiment=name, **config))
    assert ((128, 128), (4, 4), "forward") in seen
    assert all(route != "rows" for _, _, route in seen)


def test_correction_spec_rejects_bad_input():
    for center, radius, order in (
        ((0.0,), math.nan, 0),
        ((0.0,), math.inf, 0),
        ((0.0,), -1.0, 0),
        ((math.nan,), 0.5, 0),
        ((0.0, math.inf), 0.5, 0),
        ((0.0,), 0.5, -1),
        ((0.0,), 0.5, 1.5),
    ):
        with pytest.raises(ValueError):
            CorrectionSpec(center, radius, order)
    with pytest.raises(ValueError, match="coordinate per axis"):
        CorrectionSpec((), 0.5, 1)
    assert CorrectionSpec((0.0,), 0.5, 2.0).order == 2


def test_defect_and_monomial_input_guards():
    w = Window(1, (-2.0,), (2.0,), (64,))
    atom = make_atom(70, Cube((0.0,), 1.0), NormParams(2.0, 2.0, 0, 0.25), w)
    with pytest.raises(ValueError, match="atom"):
        vanishing_moment_defect(hilbert_kernel(), 0, [])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="padding"):
            vanishing_moment_defect(hilbert_kernel(), 0, [atom], padding=bad)
        with pytest.raises(ValueError, match="padding"):
            modified_on_monomial(
                kernel_transpose(hilbert_kernel()), CorrectionSpec((0.0,), 0.5, 0), (0,),
                Window(1, (-1.0,), (1.0,), (16,)), padding=bad,
            )
    with pytest.raises(TypeError, match="kappa"):
        KernelSpec("bad", 1, 0, 1.0, d1=None, d2=None, modulation=np.sin)


def test_sums_run_on_the_source_lattice_only():
    # an evaluation window of another pitch, midpoint phase or dimension, and
    # explicit points, are ValueErrors; a kernel needs kappa to be built
    K = hilbert_kernel()
    w = Window(1, (-1.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, np.cos)
    corr = CorrectionSpec((0.0,), 0.5, 0)
    others = {
        "pitch": Window(1, (-1.0,), (1.0,), (48,)),
        "midpoint phase": Window(1, (-0.99,), (1.01,), (64,)),
        "dimension": Window(2, (-1.0, -1.0), (1.0, 1.0), (64, 64)),
    }
    for what, other in others.items():
        calls = [
            lambda: apply_truncated(K, f, w.h, eval_window=other),
            lambda: apply_cz(K, f, eval_window=other),
            lambda: apply_modified(kernel_transpose(K), corr, f, eval_window=other),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"another {what} than the source lattice"):
                call()
    for points in ([[0.0]], np.zeros((0, 1))):
        with pytest.raises(ValueError, match="pass an eval_window"):
            apply_truncated(K, f, w.h, eval_points=points)
    with pytest.raises(TypeError, match="kappa"):
        replace(K, kappa=None)


def test_monomial_multi_index_must_match_the_window():
    # one entry per window axis, as a ValueError, not an IndexError
    with pytest.raises(ValueError, match="multi-index"):
        modified_on_monomial(
            kernel_transpose(hilbert_kernel()), CorrectionSpec((0.0,), 0.5, 1), (0, 0),
            Window(1, (-1.0,), (1.0,), (16,)), padding=4,
        )


def test_correction_ball_must_match_the_window_dimension():
    # a ValueError naming both dimensions before any sum, not an IndexError
    # from inside the Taylor coefficients
    w1, w2 = Window(1, (-1.0,), (1.0,), (16,)), Window(2, (-1.0, -1.0), (1.0, 1.0), (8, 8))
    cases = [
        (kernel_transpose(hilbert_kernel()), CorrectionSpec((0.0, 0.0), 0.5, 1), w1, "2-D but the window is 1-D"),
        (kernel_transpose(riesz_kernel(0, 2)), CorrectionSpec((0.0,), 0.5, 1), w2, "1-D but the window is 2-D"),
    ]
    for kernel, corr, w, message in cases:
        f = GridFunction(w, np.random.default_rng(1).normal(size=w.cells))
        with pytest.raises(ValueError, match=message):
            apply_modified(kernel, corr, f)
        with pytest.raises(ValueError, match=message):
            modified_on_monomial(kernel, corr, (0,) * w.n, w, padding=4, check_doubling=False)


def test_kernel_by_name_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="bad parameters for kernel 'hilbert'"):
        kernel_by_name("hilbert", j=1)


def test_kernel_order_is_a_whole_number_the_builder_has():
    assert hilbert_kernel(order=2.0).order == 2 and type(hilbert_kernel(order=2.0).order) is int
    assert riesz_kernel(0, 2, order=2).order == 2
    for bad in (-1, 2.5, math.nan):
        with pytest.raises(ValueError, match="kernel order must be an integer >= 0"):
            hilbert_kernel(order=bad)
    with pytest.raises(ValueError, match="up to order 2"):
        riesz_kernel(0, 2, order=3)  # its closed forms stop at 2
    # j, n and order as a JSON file gives them: integral floats build the integer kernel
    assert riesz_kernel(0.0, 2.0, order=2.0).name == "riesz0" and riesz_kernel(1.0).name == "riesz1"
    assert type(riesz_kernel(0, 2, order=2.0).order) is int
    assert smooth_bump_kernel(n=2.0).n == 2 and type(smooth_bump_kernel(n=2.0).n) is int
    for bad, what in ((dict(j=0.5), "riesz component j"), (dict(j=[0]), "riesz component j"),
                      (dict(n=2.5), "riesz dimension n"), (dict(order=1.5), "kernel order")):
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            riesz_kernel(**bad)
    with pytest.raises(ValueError, match="smooth_bump dimension n must be an integer >= 1"):
        smooth_bump_kernel(n=1.5)


def test_riesz_on_the_line_has_only_component_zero():
    # on the line the riesz kernel is the hilbert kernel, x - y has one
    # component, and a j = 1 that ran it would be echoed as what did not run
    assert kernel_by_name("riesz", j=0, n=1).name == riesz_kernel(0.0, 1.0).name == "riesz0"
    for name, params in (("riesz", dict(j=1, n=1)), ("riesz", dict(j=1.0, n=1.0)), ("riesz1", dict(n=1))):
        with pytest.raises(ValueError, match="component j must be 0 on the line"):
            kernel_by_name(name, **params)
    with pytest.raises(ValueError, match="component j must be 0 on the line"):
        riesz_kernel(2, 1)


def test_kernel_by_name_gives_one_object_per_description():
    # the builder normalises first, so a bad or unhashable value is its ValueError
    K = kernel_by_name("riesz", j=0, n=2)
    assert kernel_by_name("riesz", j=0.0, n=2.0) is K and kernel_by_name("riesz0") is K
    assert kernel_by_name("riesz", j=1, n=2) is not K and kernel_by_name("riesz", j=1, n=2).name == "riesz1"
    assert kernel_by_name("hilbert", order=4.0) is kernel_by_name("hilbert")
    with pytest.raises(ValueError, match="riesz component j"):
        kernel_by_name("riesz", j=[0])
    with pytest.raises(ValueError, match="bad parameters for kernel 'riesz'"):
        kernel_by_name("riesz", k=0)
    # the builders called directly still build a new kernel each time
    assert riesz_kernel() is not riesz_kernel() and hilbert_kernel() is not hilbert_kernel()


def test_monomial_exponents_and_eta_ladder_are_checked():
    Kt = kernel_transpose(hilbert_kernel())
    ew = Window(1, (-1.0,), (1.0,), (16,))
    corr = CorrectionSpec((0.0,), 0.5, 1)
    # y^-1 and y^0.5 are no monomials
    for nu in ((-1,), (0.5,), (math.nan,)):
        with pytest.raises(ValueError, match="nu entry"):
            modified_on_monomial(Kt, corr, nu, ew, padding=4, check_doubling=False)
    f = GridFunction.from_callable(ew, lambda x: np.cos(3 * x))
    with pytest.raises(ValueError, match="eta_cells"):
        apply_cz(hilbert_kernel(), f, eta_cells=())
    with pytest.raises(ValueError, match="eta_cells"):
        apply_modified(Kt, corr, f, eta_cells=())


# --- row-band streaming against one-shot references ------------------------


def _one_shot_table(kappa, h, eta, lo, hi):
    """The whole difference table at once, from the stacked point cloud."""
    eta2 = eta * eta * (1.0 - 1e-12)
    axes = [np.arange(a, b + 1) * h for a, b in zip(lo, hi)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = kappa(pts)
    return np.where((pts**2).sum(axis=1) >= eta2, vals, 0.0).reshape(tuple(a.size for a in axes))


def _one_shot_forward(table, origin, eval_lo, eval_shape, src_idx, src_w):
    out = np.zeros(tuple(eval_shape))
    for s, w in zip(src_idx, src_w):
        out += w * table[_box(eval_lo - s - origin, eval_shape)]
    return out.reshape(-1)


def _forward_image(table, origin, eval_lo, eval_shape, src_idx, src_w, sums=_conv_forward):
    """The bands the forward sums (_conv_forward by default) yield, put together into the box's image, flat."""
    out = np.empty(tuple(eval_shape))
    for at, rows in sums(table, origin, eval_lo, eval_shape, src_idx, src_w):
        out[at] = rows
    return out.reshape(-1)


def _one_shot_points(table, origin, eval_idx, grid_lo, W):
    last = np.asarray(grid_lo) + np.asarray(W.shape) - 1
    flip = (slice(None, None, -1),) * W.ndim
    segs = [table[_box(x - last - origin, W.shape)][flip] for x in eval_idx]
    return np.array([np.dot(W, seg) if W.ndim == 1 else np.sum(W * seg) for seg in segs])


def _gathered_taylor_coefs(kernel, corr, src_pts, src_w):
    """Taylor coefficients with the base ball gathered away in one shot."""
    x0 = np.asarray(corr.center)
    outside = np.linalg.norm(src_pts - x0, axis=1) >= corr.radius
    pts, w = src_pts[outside], src_w[outside]
    x0b = np.broadcast_to(x0, pts.shape)
    gammas = multi_indices(len(x0), corr.order)
    return gammas, [float((kernel.d1(g, x0b, pts) / index_factorial(g) * w).sum()) for g in gammas]


_BANDED_KERNELS = [
    hilbert_kernel(),
    perturbed_kernel(),
    kernel_transpose(perturbed_kernel()),
    riesz_kernel(0, 2),
    riesz_kernel(1, 2),
    kernel_transpose(riesz_kernel(0, 2)),
    smooth_bump_kernel(2),
]


@pytest.mark.parametrize("K", _BANDED_KERNELS, ids=lambda K: K.name)
def test_banded_table_and_forward_equal_one_shot(K, monkeypatch):
    # a 29 x 9 table in bands of 3 rows, and 23 x 3 sums in bands of 3 rows
    # of pitch 9 (27 of the 29 band cells): none divides its length
    monkeypatch.setattr(czkernel, "_BAND_CELLS", 3 * 9 + 2)
    rng = np.random.default_rng(5)
    h, n = 0.05, K.n
    eval_lo, eval_shape = np.array([-4, 2][:n]), np.array([23, 3][:n])
    src_idx = rng.integers(-3, 4, size=(9, n))
    src_idx[:2] = [[-3], [3]]
    src_w = rng.normal(size=9)
    lo, hi = src_idx.min(axis=0), src_idx.max(axis=0)
    for m in (1, 2):
        table, origin = _box_table(K.kappa, h, m * h, eval_lo, eval_lo + eval_shape - 1, lo, hi)
        assert table.shape == (29, 9)[:n]
        ref = _one_shot_table(K.kappa, h, m * h, origin, origin + np.asarray(table.shape) - 1)
        assert np.array_equal(table, ref)
        got = _forward_image(table, origin, eval_lo, eval_shape, src_idx, src_w)
        assert np.array_equal(got, _one_shot_forward(table, origin, eval_lo, eval_shape, src_idx, src_w))


@pytest.mark.parametrize("K", [hilbert_kernel(), perturbed_kernel(), riesz_kernel(1, 2), smooth_bump_kernel(3)], ids=lambda K: f"{K.name}-{K.n}d")
def test_flat_forward_runs_equal_one_shot(K, monkeypatch):
    # bands of 37 cells: a 1-D frame of 83 cells takes three, and the table
    # pitches below (9, or 36 and 4) take 4, 1 and 9 whole rows a band
    monkeypatch.setattr(czkernel, "_BAND_CELLS", 37)
    rng = np.random.default_rng(8)
    n, h = K.n, 0.1
    eval_lo, eval_shape = np.array([-5, 3, -2][:n]), np.array([83, 4, 3][:n])
    dense = np.argwhere(np.ones((5, 6, 2)[:n], bool)) - 2  # a dense box wider than the eval box off axis 0
    sparse_w = rng.normal(size=len(dense[::3]))
    sparse_w[1] = 0.0
    for src_idx, src_w in [(dense, rng.normal(size=len(dense))), (dense[4:5], np.array([0.7])), (dense[::3], sparse_w)]:
        lo, hi = src_idx.min(axis=0), src_idx.max(axis=0)
        table, origin = _box_table(K.kappa, h, h, eval_lo, eval_lo + eval_shape - 1, lo, hi)
        assert table.shape[1:] == tuple(eval_shape[1:] + hi[1:] - lo[1:])
        got = _forward_image(table, origin, eval_lo, eval_shape, src_idx, src_w)
        assert np.array_equal(got, _one_shot_forward(table, origin, eval_lo, eval_shape, src_idx, src_w))


def test_forward_sums_compact_in_place():
    # each band's valid columns go straight to the output: one 2-D call
    # peaks at its output plus two bands, not at a table-pitch frame
    K, shape = riesz_kernel(0, 2), np.array([512, 512])
    src_idx = np.argwhere(np.ones((3, 3), bool)) + 200
    src_w = np.random.default_rng(1).normal(size=9)
    table, origin = _box_table(K.kappa, 1 / 128, 1 / 128, (0, 0), shape - 1, src_idx.min(axis=0), src_idx.max(axis=0))
    tracemalloc.start()
    try:
        out = _forward_image(table, origin, (0, 0), shape, src_idx, src_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 512 * 512 * 8
    assert peak <= out.nbytes + 2 * czkernel._BAND_CELLS * 8


def test_row_products_compact_in_place():
    # the 2-D row products hold one product of at most a band of entries and
    # the band's sums, and read the table through views: one call peaks at its
    # output plus two bands
    K, shape = riesz_kernel(0, 2), np.array([512, 512])
    src_idx = np.argwhere(np.ones((6, 6), bool)) + 200
    src_w = np.random.default_rng(1).normal(size=36)
    table, origin = _box_table(K.kappa, 1 / 128, 1 / 128, (0, 0), shape - 1, src_idx.min(axis=0), src_idx.max(axis=0))
    tracemalloc.start()
    try:
        out = _forward_image(table, origin, (0, 0), shape, src_idx, src_w, _rows_forward)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 512 * 512 * 8
    assert peak <= out.nbytes + 2 * czkernel._BAND_CELLS * 8


def test_forward_image_holds_exactly_its_cells():
    # the sums run over rows of the table's pitch (255 cells for a source box
    # spanning 128 columns), and only each row's 128 box cells reach the
    # output, so the image holds no buffer of the table's pitch
    w = Window(2, (-1.0, -1.0), (1.0, 1.0), (128, 128))
    rng = np.random.default_rng(3)
    f = GridFunction(w, np.where(rng.random(w.cells) < 0.2, rng.normal(size=w.cells), 0.0))
    g = apply_truncated(riesz_kernel(0, 2), f, w.h)
    assert g.values.base.nbytes == g.values.nbytes == 128 * 128 * 8


def test_forward_sums_reject_a_reflected_table():
    # only the memoised C-contiguous table reaches the forward sums; the
    # reflected view of the defect report's dual route is for point sums
    src_idx, src_w = np.array([[0, 0], [1, 2]]), np.array([1.0, -0.5])
    table, origin = _box_table(riesz_kernel(0, 2).kappa, 0.1, 0.1, (-4, -4), (4, 4), (0, 0), (1, 2))
    flipped = table[::-1, ::-1], -(origin + np.asarray(table.shape) - 1)
    with pytest.raises(ValueError, match="C-contiguous"):
        _forward_image(*flipped, (-4, -4), (9, 9), -src_idx, src_w)


@pytest.mark.parametrize("K", _BANDED_KERNELS, ids=lambda K: K.name)
def test_banded_point_sums_match_one_shot(K, monkeypatch):
    monkeypatch.setattr(czkernel, "_BAND_CELLS", 4 * 17 + 5)  # 4-row bands over 23 rows
    rng = np.random.default_rng(6)
    n, h = K.n, 0.05
    grid_lo = np.array([-11, -8][:n])
    W = rng.normal(size=(23, 17)[:n])
    eval_idx = rng.integers(-30, 30, size=(12, n))
    eval_lo, eval_hi = eval_idx.min(axis=0), eval_idx.max(axis=0)
    table, origin = _box_table(K.kappa, h, h, eval_lo, eval_hi, grid_lo, grid_lo + np.asarray(W.shape) - 1)
    got = _conv_at_points(table, origin, eval_idx, grid_lo, W)
    ref = _one_shot_points(table, origin, eval_idx, grid_lo, W)
    if n == 1:
        assert np.array_equal(got, ref)  # a 1-D frame is one band: same dot products
    else:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("K", _BANDED_KERNELS[:6], ids=lambda K: K.name)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_banded_taylor_coefficients_match_gathered(K, order, monkeypatch):
    monkeypatch.setattr(czkernel, "_BAND_CELLS", 5 * 20 + 3)
    n = K.n
    w = Window(n, (-1.0,) * n, (1.0,) * n, (20,) * n if n == 2 else (137,))
    pts = w.midpoints()
    factors = tuple(np.random.default_rng(order).normal(size=c) for c in w.cells)
    weights = GridFunction(w, functools.reduce(np.multiply.outer, factors)).flat * w.cell_measure
    # the center sits on a midpoint, so the kernel is singular at one source
    corr = CorrectionSpec(tuple(pts[w.cell_count // 3]), 0.35, order)
    gammas, coefs = _gathered_taylor_coefs(K, corr, pts, weights)
    assert len(list(_frame_sources(w, factors))) == (4 if n == 2 else 1)
    assert len(list(_point_chunks(pts, weights))) == (4 if n == 2 else 2)
    # the correction is sum_gamma c_gamma (x - x0)^gamma: read each c_gamma
    # back by least squares on enough evaluation points
    probe = np.random.default_rng(9).uniform(-0.5, 0.5, size=(3 * len(gammas), n)) + corr.center
    basis = monomials(probe, gammas, np.asarray(corr.center))
    for sources in (_frame_sources(w, factors), _point_chunks(pts, weights)):
        with np.errstate(all="raise"):
            got = _taylor_correction(K, corr, sources, probe)
        fitted = np.linalg.lstsq(basis, got, rcond=None)[0]
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(fitted - coefs)) <= 1e-12 * np.max(np.abs(coefs))


def test_riesz_square_norm_matches_reduction():
    u = np.random.default_rng(3).normal(size=(5, 7, 2))
    R2 = np.sum(u * u, axis=-1)
    for j in (0, 1):
        K = riesz_kernel(j, 2)
        assert np.array_equal(K.kappa(u), u[..., j] * R2**-1.5)
        assert np.array_equal(K.d1((1, 0), u, 0.0 * u), (j == 0) * R2**-1.5 - 3.0 * u[..., 0] * u[..., j] * R2**-2.5)


def test_frame_reports_independent_of_band_size(monkeypatch):
    # frames of 64^2, 32^2 and 56^2 cells: one band each by default, bands of
    # 3, 6 and 3 rows (none a divisor of the row count) with the cut constant
    w = Window(2, (-1.0, -1.0), (1.0, 1.0), (16, 16))
    atom = make_atom(90, Cube((0.0, 0.0), 0.5), NormParams(2.0, 2.0, 1, 0.3), w)
    K = riesz_kernel(0, 2)
    corr = CorrectionSpec((0.0625, -0.0625), 0.4, 1)
    ew = Window(2, (-0.5, -0.5), (0.5, 0.5), (8, 8))

    def run():
        rep = vanishing_moment_defect(K, 1, [atom], padding=16)
        img = modified_on_monomial(kernel_transpose(K), corr, (1, 0), ew, padding=7, check_doubling=False)
        assert img.integration_cells == (56, 56)
        return rep, img.values.flat

    rep, img = run()
    monkeypatch.setattr(czkernel, "_BAND_CELLS", 3 * 64 + 1)
    rep_b, img_b = run()
    for a, b in zip(rep_b.rows, rep.rows):
        scale = abs(b["lhs"]) / b["defect"]
        for key in ("lhs", "rhs", "half_padding_lhs"):
            assert abs(a[key] - b[key]) <= 1e-12 * scale
    assert np.max(np.abs(img_b - img)) <= 1e-12 * np.max(np.abs(img))


def _whole_image_moment(values, factors, window: Window) -> float:
    """The frame moment of an image held whole: lattice.moments against the
    outer product of the factors, summed over the window's moment bands."""
    v = values.reshape(window.cells)
    return sum(
        moments(v[a:b].reshape(-1), functools.reduce(np.multiply.outer, (factors[0][a:b], *factors[1:])).reshape(-1)[:, None],
                window.cell_measure)[0]
        for a, b in czkernel._bands(window.cells)
    )


def _slot1_modulated_riesz():
    return replace(riesz_kernel(0, 2), modulation=lambda z: 2.0 + np.sin(z[..., 0]) * np.cos(3.0 * z[..., 1]))


@pytest.mark.parametrize(
    "K", [riesz_kernel(0, 2), riesz_kernel(1, 2), _slot1_modulated_riesz(), kernel_transpose(_slot1_modulated_riesz()),
          perturbed_kernel()],
    ids=lambda K: f"{K.name}-slot{K.modulation_slot if K.modulation else 0}",
)
@pytest.mark.parametrize("s", [0, 1])
def test_streamed_frame_moments_equal_whole_image(K, s, monkeypatch):
    # the image T(a) streams from the forward sums into the moments over the
    # padded frame (64^2) and its half-padding sub-box (32^2), each held one
    # moment band at a time; with bands of 2 forward rows (pitch 67), 3 frame
    # rows and 6 half-frame rows, none of the three cuts agrees with another.
    # A line frame (256 cells, half 128) is one moment band, fed in forward
    # bands of 193 cells
    monkeypatch.setattr(czkernel, "_BAND_CELLS", 3 * 64 + 1)
    n = K.n
    w = Window(n, (-1.0,) * n, (1.0,) * n, (16,) * n if n == 2 else (64,))
    atom = make_atom(90, Cube((0.0,) * n, 0.5), NormParams(2.0, 2.0, s, 0.3), w)
    rep = vanishing_moment_defect(K, s, [atom], padding=16)
    big, half = w.padded(4.0), w.padded(2.0)  # padding 16 on a cube a quarter of the window's side
    image, table, _ = _lattice_sums(K, w.h, w, atom.values.flat * w.cell_measure, big)
    if n == 2:
        assert (table[0].shape[1], big.cells[1], half.cells[1]) == (67, 64, 32)
    part = image.reshape(big.cells)[tuple(slice(o, o + c) for o, c in zip(half.lattice_offset(big), half.cells))]
    assert [r["gamma"] for r in rep.rows] == multi_indices(n, s)
    for r in rep.rows:
        g = r["gamma"]
        assert r["lhs"] == _whole_image_moment(image, monomial_factors(big, g), big)
        assert r["half_padding_lhs"] == _whole_image_moment(part, monomial_factors(half, g), half)


def test_point_sums_reach_the_frame_moments_as_one_band():
    # a dense source on a frame no larger than its window takes the point
    # sums, not the forward ones; they reach both accumulators whole
    w = Window(2, (-1.0, -1.0), (1.0, 1.0), (16, 16))
    f = GridFunction(w, np.random.default_rng(4).normal(size=w.cells))
    atom = SimpleNamespace(values=f, cube=Cube((0.0, 0.0), 0.5))  # padding 4 on a 4-cell side: frame = half = window
    K = riesz_kernel(0, 2)
    rep = vanishing_moment_defect(K, 1, [atom], padding=4)
    image, _, _ = _lattice_sums(K, w.h, w, f.flat * w.cell_measure, w)
    for r in rep.rows:
        assert r["lhs"] == r["half_padding_lhs"] == _whole_image_moment(image, monomial_factors(w, r["gamma"]), w)


def test_plain_sum_is_the_moment_against_ones():
    # a gamma = 0 frame moment takes a band's plain sum: the same float as
    # lattice.moments against a column of ones
    rng = np.random.default_rng(29)
    sizes = np.unique(np.r_[2, 3, 100_003, np.exp(rng.uniform(np.log(2), np.log(100_003), 197)).astype(int)])
    for cells in sizes.tolist():
        v = rng.normal(size=cells) * 10.0 ** rng.integers(-3, 4)
        w = Window(1, (0.0,), (cells / 7.0,), (cells,))
        frame = czkernel._FrameMoments(w, (0,), [(0,)])
        frame(slice(0, cells), v)
        assert frame.sums[0] == moments(v, np.ones((cells, 1)), w.cell_measure)[0]


def test_warm_plane_defect_holds_no_frame():
    # the benchmark's plane item: a 1536^2 padded frame (18.9 MB of float64)
    # whose image only its moments read; with the difference table memoised,
    # a call holds a few bands of the frame, never the frame
    w = Window(2, (-1.0, -1.0), (1.0, 1.0), (48, 48))
    atom = make_atom(200, Cube((0.0, 0.0), 0.25), NormParams(2.0, 2.0, 0, 0.25), w)
    K = riesz_kernel(0, 2)
    lattice._MEMO.clear()
    cold = vanishing_moment_defect(K, 0, [atom], padding=256)
    tracemalloc.start()
    try:
        warm = vanishing_moment_defect(K, 0, [atom], padding=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert warm.rows == cold.rows
    frame_bytes = 1536 * 1536 * 8
    assert peak <= 8 * czkernel._BAND_CELLS * 8 <= frame_bytes / 8  # about 4.2 bands


@pytest.mark.parametrize(
    "K, cells",
    [(hilbert_kernel(), 512), (perturbed_kernel(), 512), (riesz_kernel(0, 2), 128), (riesz_kernel(0, 2), 32)],
)
def test_half_window_image_is_slice_of_full(K, cells):
    # the atom-image triage reads T(atom) on window.padded(0.5) as a slice of
    # T(atom) on the window: both must be the same sums, bit for bit.  The
    # atom's image takes one route on both windows: an 8 x 8 atom at 128^2
    # and 64^2 the 2-D row products
    n = K.n
    route = {512: "toeplitz", 128: "rows", 32: "forward"}[cells]
    w = Window(n, (-2.0,) * n, (2.0,) * n, (cells,) * n)
    atom = make_atom(3, Cube((0.0,) * n, 0.25 if cells > 32 else 0.5), NormParams(2.0, 2.0, 1, 0.25), w)
    dense = GridFunction(w, np.random.default_rng(cells).normal(size=(cells,) * n))
    half = w.padded(0.5)
    part = tuple(slice(o, o + c) for o, c in zip(half.lattice_offset(w), half.cells))
    assert [_lattice_sums(K, w.h, w, atom.values.flat, ew)[2] for ew in (w, half)] == [route, route]
    for f in (atom.values, dense):
        full = apply_truncated(K, f, w.h, eval_window=w)
        assert np.array_equal(apply_truncated(K, f, w.h, eval_window=half).values, full.values[part])


# --- factored 2-D point sums: the adjoint oracle, references and pins -------


_ADJOINT_KERNELS = [
    hilbert_kernel(),
    perturbed_kernel(),
    smooth_bump_kernel(),
    riesz_kernel(0, 2),
    riesz_kernel(1, 2),
    smooth_bump_kernel(2, order=2),
]


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(0, len(_ADJOINT_KERNELS) - 1),
    m=st.sampled_from([1, 2, 4]),
    monomial=st.booleans(),
    pairwise=st.booleans(),
    gamma=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    dense=st.booleans(),
    wide=st.booleans(),
)
def test_adjoint_identity(k, m, monomial, pairwise, gamma, seed, dense, wide):
    # <T_eta f, g> = <f, T~_eta g> with T~ = kernel_transpose(T).  T f takes
    # the shifted sums of a sparse f over g's window; T~ g takes the point
    # sums at f's support cells, of a monomial frame (one rank-one term) or of
    # a random g (one term per row); the pairwise case takes the reference
    # pairwise sums on both sides.  In 1-D f has 100 cells and g 256: a dense
    # f takes the Toeplitz products on both sides.  In 2-D f has 6^2 cells and
    # g 16^2, or 128^2 when wide, where a dense f takes the 2-D row products
    K = _ADJOINT_KERNELS[k]
    n = K.n
    rng = np.random.default_rng(seed)
    side = 128 if wide else 16
    gw = Window(n, (-1.0,) * n, (1.0,) * n, (256,) if n == 1 else (side, side))
    fw = Window(n, (-0.25,) * n, (-0.25 + 100 / 128,) if n == 1 else (-0.25 + 12 / side,) * 2, (100,) if n == 1 else (6, 6))  # on g's lattice
    f = np.where(rng.uniform(size=fw.cell_count) < (0.9 if dense else 0.3), rng.normal(size=fw.cell_count), 0.0)
    f[rng.integers(fw.cell_count)] = 1.0
    nz = np.flatnonzero(f)
    hn = gw.cell_measure
    if monomial:
        g_index = multi_indices(n, 2)[gamma % len(multi_indices(n, 2))]
        g = GridFunction.monomial(gw, g_index).flat
        g_weights = monomial_factors(gw, g_index)
    else:
        g = rng.normal(size=gw.cell_count)
        g_weights = g * hn
    eta = m * gw.h
    if pairwise:
        Tf = _pairwise_sums(_k(K), gw.midpoints(), fw.cell_midpoints(nz), f[nz] * hn, eta)
        Ttg = _pairwise_sums(_k(kernel_transpose(K)), fw.cell_midpoints(nz), gw.midpoints(), g * hn, eta)
    else:
        Tf, _, forward = _lattice_sums(K, eta, fw, f * hn, gw)
        Ttg, _, points = _lattice_sums(kernel_transpose(K), eta, gw, g_weights, fw, nz)
        if n == 1 and dense:
            assert (forward, points) == ("toeplitz", "toeplitz")
        if n == 2 and dense and wide:
            assert forward == "rows"
    lhs, rhs = float(Tf @ g) * hn, float(f[nz] @ Ttg) * hn
    scale = float(_pairwise_sums(lambda x, y: np.abs(_k(K)(x, y)), gw.midpoints(), fw.cell_midpoints(nz),
                                 np.abs(f[nz]) * hn, eta) @ np.abs(g))
    assert abs(lhs - rhs) <= 64 * np.finfo(float).eps * scale * hn


@pytest.mark.parametrize(
    "K", [kernel_transpose(riesz_kernel(0, 2)), riesz_kernel(1, 2), smooth_bump_kernel(2, order=2)],
    ids=lambda K: K.name,
)
def test_factored_point_sums_match_pairwise(K):
    # a monomial frame is one rank-one term; the second frame has a midpoint
    # at 0, so its x^gamma vanishes on a row and a column
    rng = np.random.default_rng(11)
    for big in (Window(2, (-1.0, -1.0), (1.0, 1.0), (24, 24)), Window(2, (-1.0, -1.0), (1.0, 1.0), (15, 15))):
        ew = big.padded(0.4)
        scattered = np.sort(rng.choice(ew.cell_count, 9, replace=False))
        for g in multi_indices(2, 2):
            frame = monomial_factors(big, g)
            weights = GridFunction.monomial(big, g).flat * big.cell_measure
            full, _, _ = _lattice_sums(K, big.h, big, frame, ew)
            ref = _pairwise_sums(_k(K), ew.midpoints(), big.midpoints(), weights, big.h)
            scale = np.max(np.abs(ref))  # some sums cancel to roundoff: bound against the largest
            for cells in (None, scattered, np.array([ew.cell_count // 2 + 1])):
                got, _, _ = _lattice_sums(K, big.h, big, frame, ew, cells)
                idx = np.arange(ew.cell_count) if cells is None else cells
                assert np.max(np.abs(got - ref[idx])) <= 1e-12 * scale
                # a point's sum does not depend on which other points are evaluated
                assert np.array_equal(got, full[idx])


# --- 1-D Toeplitz products: the pairwise oracle and the tile rule ----------


_LINE_KERNELS = [hilbert_kernel(), perturbed_kernel(), kernel_transpose(perturbed_kernel()), smooth_bump_kernel()]


def _roundoff_scale(K, eval_pts, src_pts, src_w, eta):
    """sum |K(x, y)| |w_y| over the pairs of each sum: the scale of its roundoff."""
    return _pairwise_sums(lambda x, y: np.abs(_k(K)(x, y)), eval_pts, src_pts, np.abs(src_w), eta)


@pytest.mark.parametrize("K", _LINE_KERNELS, ids=lambda K: K.name)
@pytest.mark.parametrize("taps, route", [(15, "forward"), (16, "toeplitz"), (200, "toeplitz")])
def test_toeplitz_forward_matches_pairwise(K, taps, route):
    # S dense sources shifted over 300 cells, rows of 128 and a partial third:
    # the cost estimate takes the Toeplitz products from S = 16 on
    src = Window(1, (-2.0,), (2.0,), (400,))
    w = np.zeros(src.cell_count)
    w[100 : 100 + taps] = np.random.default_rng(taps).normal(size=taps)
    ew = Window(1, (-1.5,), (-1.5 + 300 * src.h,), (300,))
    keep = np.flatnonzero(w)
    for m in (1, 3):
        got, _, used = _lattice_sums(K, m * src.h, src, w, ew)
        assert used == route
        args = ew.midpoints(), src.cell_midpoints(keep), w[keep], m * src.h
        assert np.all(np.abs(got - _pairwise_sums(_k(K), *args)) <= 64 * np.finfo(float).eps * _roundoff_scale(K, *args))


@pytest.mark.parametrize("P", _LINE_KERNELS, ids=lambda K: K.name)
@pytest.mark.parametrize("points, route", [(64, "points"), (65, "toeplitz"), (300, "toeplitz")])
def test_toeplitz_point_sums_match_pairwise(P, points, route):
    # a dense 600-cell frame (four tap rows of 128 and 88 taps more) summed at
    # a run of cells of the 300-cell window inside it: one tile of 128 starts
    # pays for its two GEMMs from 65 points on.  The run goes through P's own
    # table and through the reflected forward table of P's transpose, as in
    # the dual route of the defect report
    small = Window(1, (-1.5,), (1.5,), (300,))
    big = small.padded(2.0)
    rng = np.random.default_rng(points)
    frame = rng.normal(size=big.cell_count) * big.cell_measure
    _, (table, origin), _ = _lattice_sums(kernel_transpose(P), small.h, small, np.ones(small.cell_count), big)
    reflected = table[::-1], -(origin + np.asarray(table.shape) - 1)
    cells = np.arange(points) + (small.cell_count - points) // 2
    args = small.cell_midpoints(cells), big.midpoints(), frame, small.h
    ref, scale = _pairwise_sums(_k(P), *args), _roundoff_scale(P, *args)
    for given in (None, reflected):
        got, _, used = _lattice_sums(P, small.h, big, frame, small, cells, given)
        assert used == route
        assert np.all(np.abs(got - ref) <= 64 * np.finfo(float).eps * scale)


def test_toeplitz_point_sum_does_not_depend_on_the_other_points():
    # tiles of 128 starts from the table's first entry, each with shapes fixed
    # by the table and the taps: a cell's sum is the same float whichever
    # other cells are evaluated, on the engine's own table and on a reflected one
    K = kernel_transpose(hilbert_kernel())
    ew = Window(1, (-1.5,), (1.5,), (300,))
    big = ew.padded(2.0)
    frame = np.random.default_rng(31).normal(size=big.cell_count) * big.cell_measure
    full, table, route = _lattice_sums(K, ew.h, big, frame, ew)
    assert route == "toeplitz"
    most = np.flatnonzero(np.arange(ew.cell_count) % 7)
    got, _, route = _lattice_sums(K, ew.h, big, frame, ew, most)
    assert route == "toeplitz" and np.array_equal(got, full[most])
    _, (fwd, origin), _ = _lattice_sums(hilbert_kernel(), ew.h, ew, np.ones(ew.cell_count), big)
    reflected = fwd[::-1], -(origin + np.asarray(fwd.shape) - 1)
    on_reflected, _, _ = _lattice_sums(K, ew.h, big, frame, ew, np.arange(ew.cell_count), reflected)
    eval_lo = ew.lattice_offset(big)
    for tab, whole in ((table, full), (reflected, on_reflected)):
        for cells in (np.sort(np.random.default_rng(5).choice(ew.cell_count, 9, replace=False)), np.array([151])):
            got = _toeplitz_points(*tab, eval_lo + cells[:, None], np.zeros(1, int), frame)
            assert np.array_equal(got, whole[cells])


def test_toeplitz_forward_bits_keep_under_window_shifts():
    # with S = 129 taps a row's segment is B + S - 1 = 256 cells, the widest whose sums were measured
    # to keep their bits wherever the window starts (README, "The 1-D Toeplitz products")
    taps, count = 129, 1000
    rng = np.random.default_rng(29)
    src_idx, src_w = np.arange(taps)[:, None], rng.normal(size=taps)
    table, origin = _box_table(hilbert_kernel().kappa, 1 / 128, 1 / 128, (0,), (count + 599,), (0,), (taps - 1,))
    full = _forward_image(table, origin, (0,), (count + 600,), src_idx, src_w, _toeplitz_forward)
    for shift in (1, 7, 64, 127, 128, 129, 300, 599):
        got = _forward_image(table, origin, (shift,), (count,), src_idx, src_w, _toeplitz_forward)
        assert np.array_equal(got, full[shift : shift + count])


# --- 2-D row products: the pairwise oracle, the bits of a cell, admission ---


_PLANE_KERNELS = [
    riesz_kernel(0, 2),
    riesz_kernel(1, 2),
    kernel_transpose(riesz_kernel(0, 2)),
    smooth_bump_kernel(2),
    _slot1_modulated_riesz(),
    kernel_transpose(_slot1_modulated_riesz()),
]


@pytest.mark.parametrize("K", _PLANE_KERNELS, ids=lambda K: f"{K.name}-slot{K.modulation_slot if K.modulation else 0}")
@pytest.mark.parametrize("density", [1.0, 0.6])
def test_row_products_match_pairwise(K, density):
    # a 6 x 7 box of sources, dense or with some cells zero, shifted over a 200 x 160 window inside
    # the 256^2 source window: the cost estimate takes the row products
    src = Window(2, (-1.0, -1.0), (1.0, 1.0), (256, 256))
    rng = np.random.default_rng(int(10 * density))
    box = rng.normal(size=(6, 7)) * (rng.random((6, 7)) < density)
    box[0, 0], box[-1, -1] = 1.0, -0.5
    w = np.zeros(src.cells)
    w[120:126, 100:107] = box
    lower = (-1.0 + 30 * src.h, -1.0 + 50 * src.h)
    ew = Window(2, lower, (lower[0] + 200 * src.h, lower[1] + 160 * src.h), (200, 160))
    keep = np.flatnonzero(w)
    for m in (1, 2):
        got, _, used = _lattice_sums(K, m * src.h, src, w.reshape(-1), ew)
        assert used == "rows"
        args = ew.midpoints(), src.cell_midpoints(keep), w.flat[keep], m * src.h
        assert np.all(np.abs(got - _pairwise_sums(_k(K), *args)) <= 64 * np.finfo(float).eps * _roundoff_scale(K, *args))


def test_row_product_bits_do_not_depend_on_the_band_or_the_window(monkeypatch):
    # a cell's sum is the same float whatever band holds it (k = 1, 3, 7 or 10 rows, a last band
    # of fewer rows than k ending at the last row) and whatever window (offsets and extents)
    rng = np.random.default_rng(17)
    src_idx = np.unique(np.vstack([np.argwhere(rng.random((6, 9)) < 0.7), [[0, 0], [5, 8]]]), axis=0) + 3
    src_w = rng.normal(size=len(src_idx))
    shape = np.array([61, 90])
    table, origin = _box_table(riesz_kernel(1, 2).kappa, 0.01, 0.01, (0, 0), shape - 1, src_idx.min(axis=0), src_idx.max(axis=0))
    full = _forward_image(table, origin, (0, 0), shape, src_idx, src_w, _rows_forward).reshape(shape)
    windows = [((0, 0), (61, 90)), ((7, 13), (23, 40)), ((60, 0), (1, 90)), ((5, 88), (50, 2)), ((30, 31), (31, 59))]
    for band in (9 * 98, 3 * 9 * 98, 7 * 9 * 98 + 5, 1 << 15):  # k = 1, 3, 7 and 10 rows of the whole window
        monkeypatch.setattr(czkernel, "_BAND_CELLS", band)
        for lo, cells in windows:
            got = _forward_image(table, origin, lo, cells, src_idx, src_w, _rows_forward).reshape(cells)
            assert np.array_equal(got, full[lo[0] : lo[0] + cells[0], lo[1] : lo[1] + cells[1]])


def test_row_products_take_boxes_of_2_to_15_columns_and_15_rows():
    # a one-column box would make numpy take a matrix-vector product, whose bits depend on k; a
    # 16-row box makes a band read 16 table rows, where a cell's bits depend on k and the window, and
    # past 15 columns another host lost them: those boxes go direct however large the window
    src = Window(2, (-1.0, -1.0), (1.0, 1.0), (256, 256))
    for box, route in (((6, 1), "forward"), ((4, 16), "forward"), ((16, 4), "forward"), ((6, 2), "rows"), ((15, 15), "rows")):
        w = np.zeros(src.cells)
        w[100 : 100 + box[0], 80 : 80 + box[1]] = 1.0
        assert _lattice_sums(riesz_kernel(0, 2), src.h, src, w.reshape(-1), src)[2] == route


def test_unchanged_reports_pinned():
    # float.hex values: the 2-D rows recorded before the 2-D point sums were
    # factored (the forward sums and the frame moments keep their bits); the
    # 1-D rows re-recorded when the 1-D forward sums became Toeplitz products
    # (lhs and half_padding_lhs moved, the direct point sums of rhs did not)
    w2 = Window(2, (-1.0, -1.0), (1.0, 1.0), (16, 16))
    atom = make_atom(90, Cube((0.0, 0.0), 0.5), NormParams(2.0, 2.0, 0, 0.25), w2)
    rep = vanishing_moment_defect(riesz_kernel(0, 2), 0, [atom], padding=16)
    assert [(r["lhs"].hex(), r["half_padding_lhs"].hex()) for r in rep.rows] == [
        ("0x1.1b2cbc996b6d0p-8", "0x1.1a0f6a7c93be0p-7")
    ]
    assert rep.max_mismatch <= 1e-12
    w1 = Window(1, (-2.0,), (2.0,), (128,))
    atoms = [make_atom(400, Cube((0.0,), 1.0), NormParams(2.0, 2.0, 1, 0.3), w1)]
    keys = ("defect", "mismatch", "lhs", "rhs", "half_padding_lhs")
    pinned = {
        "hilbert": [
            ("0x1.53c8a55a9f11fp-27", "0x1.cf6d7b25f5d52p-56", "-0x1.198c32d000000p-27",
             "-0x1.198c32c400000p-27", "-0x1.19e6e46c00000p-24", True),
            ("0x1.0cc47c3f8ea23p-9", "0x1.28e222e4517c9p-53", "-0x1.bd67eefca5314p-10",
             "-0x1.bd67eefca5500p-10", "-0x1.bd7dacae40a9ep-9", True),
        ],
        "perturbed": [
            ("0x1.9b34af9d3b284p-5", "0x1.34f3a76ea3e37p-54", "-0x1.54ba817092c70p-5",
             "-0x1.54ba817092c68p-5", "-0x1.549cbf7e05938p-5", False),
            ("0x1.3b3511284fff6p-8", "0x1.4b47430822bb6p-48", "-0x1.052ef1aee0628p-8",
             "-0x1.052ef1aedf500p-8", "-0x1.e3f5175320438p-8", True),
        ],
    }
    for K in (hilbert_kernel(), perturbed_kernel()):
        rep = vanishing_moment_defect(K, 1, atoms, padding=64)
        assert rep.routes == [("toeplitz", "points", "points")]
        assert [tuple(r[k].hex() for k in keys) + (r["decaying"],) for r in rep.rows] == pinned[K.name]
    img = modified_on_monomial(
        kernel_transpose(perturbed_kernel()), CorrectionSpec((0.1,), 0.5, 1), (1,), Window(1, (-1.0,), (1.0,), (16,)),
        padding=8,
    )
    assert img.route == "points"
    assert [float(v).hex() for v in img.values.flat] == [
        "0x1.33c63ebb98338p+1", "0x1.14d9b2dbcd090p+1", "0x1.ffa0c8e5aeb00p+0", "0x1.e6de1c7ad7770p+0",
        "0x1.dc6170a106110p+0", "0x1.dca3683839b10p+0", "0x1.e3b7ed7ec80b0p+0", "0x1.ed6916a3d1ae0p+0",
        "0x1.f553a23cfa7b0p+0", "0x1.f7046b5c03be0p+0", "0x1.ee162ffe69cf0p+0", "0x1.d64f02e10de30p+0",
        "0x1.abbcc36c637f0p+0", "0x1.6acffb6a51080p+0", "0x1.10748a6d78380p+0", "0x1.344f24334d1c0p-1",
    ]
    assert img.sensitivity.hex() == "0x1.26df2bbb46511p-2"


def test_modulation_evaluated_once_per_atom():
    # the slot-1 scaling of the forward sums and the slot-2 weights of the
    # dual route share one evaluation of a = 2 + sin x over the padded frame,
    # memoised per (kernel, frame), so the second atom on the frame reads it
    K = perturbed_kernel()
    sizes = []

    def counted(z):
        sizes.append(len(z))
        return K.modulation(z)

    w = Window(1, (-2.0,), (2.0,), (64,))
    atoms = [make_atom(60 + i, Cube((0.0,), 1.0), NormParams(2.0, 2.0, 1, 0.3), w) for i in range(2)]
    rep = vanishing_moment_defect(replace(K, modulation=counted), 1, atoms, padding=16)
    assert sizes == [256]  # one for both atoms, over the 256-cell padded frame
    assert rep.rows == vanishing_moment_defect(K, 1, atoms, padding=16).rows


def test_point_sums_on_a_sub_window_are_a_slice():
    # a dense source takes the point sums on every evaluation window below;
    # each sub-window's sums are the full window's there, bit for bit
    K = riesz_kernel(0, 2)
    w = Window(2, (-1.0, -1.0), (1.0, 1.0), (40, 40))
    f = GridFunction(w, np.random.default_rng(13).normal(size=(40, 40)))
    full = apply_truncated(K, f, w.h).values
    for lo, cells in (((0, 0), (2, 2)), ((17, 5), (3, 7)), ((1, 30), (33, 3)), ((20, 20), (20, 20))):
        sub = Window(2, tuple(-1.0 + np.array(lo) * w.h), tuple(-1.0 + (np.array(lo) + cells) * w.h), cells)
        got = apply_truncated(K, f, w.h, eval_window=sub).values
        assert np.array_equal(got, full[lo[0] : lo[0] + cells[0], lo[1] : lo[1] + cells[1]])


@pytest.mark.parametrize("kernel, n", [(hilbert_kernel(), 2), (riesz_kernel(0, 2), 1)])
def test_kernel_of_another_dimension_is_a_value_error(kernel, n):
    # every operator entry reaches _lattice_sums first, which names both dimensions
    w = Window(n, (-1.0,) * n, (1.0,) * n, (16,) * n)
    f = GridFunction(w, np.ones(w.cells))
    corr = CorrectionSpec((0.0,) * n, 0.5, 0)
    atom = SimpleNamespace(values=f, cube=Cube((0.0,) * n, 0.5))
    calls = [
        lambda: apply_truncated(kernel, f, w.h),
        lambda: apply_cz(kernel, f),
        lambda: apply_modified(kernel_transpose(kernel), corr, f),
        lambda: modified_on_monomial(kernel_transpose(kernel), corr, (0,) * n, w, padding=4),
        lambda: vanishing_moment_defect(kernel, 0, [atom], padding=4),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"is {kernel.n}-D but the source window is {n}-D"):
            call()


def _atoms_on_one_cube(n: int) -> list:
    """Two s = 1 atoms on one cube: 1-D at 64 cells, 2-D at 12^2."""
    if n == 1:
        window, cube = Window(1, (-2.0,), (2.0,), (64,)), Cube((0.0,), 1.0)
    else:
        window, cube = Window(2, (-1.0, -1.0), (1.0, 1.0), (12, 12)), Cube((0.0, 0.0), 0.5)
    return [make_atom(seed, cube, NormParams(2.0, 2.0, 1, 0.25), window) for seed in (3, 4)]


@pytest.mark.parametrize("name", ["hilbert", "perturbed", "riesz0"])
def test_warm_defect_reports_equal_cold(monkeypatch, name):
    # the second atom on a cube reads the first one's difference table and
    # frame Taylor coefficients, and gets the bits of a cold call
    K = kernel_by_name(name)
    atoms = _atoms_on_one_cube(K.n)

    def rows(atom):
        rep = vanishing_moment_defect(K, 1, [atom], padding=16)
        return [{k: v.hex() if isinstance(v, float) else v for k, v in r.items()} for r in rep.rows]

    cold = []
    for atom in atoms:
        lattice._MEMO.clear()
        cold.append(rows(atom))
    builds = {czkernel._difference_table: 0, czkernel._taylor_coefficients: 0}

    def counted(fn):
        def call(*args):
            builds[fn] += 1
            return fn(*args)
        return call

    for fn in list(builds):
        monkeypatch.setattr(czkernel, fn.__name__, counted(fn))
    lattice._MEMO.clear()
    assert [rows(atom) for atom in atoms] == cold
    assert list(builds.values()) == [1, len(multi_indices(K.n, 1))]


def test_memo_entries_leave_with_their_kernel():
    atom = _atoms_on_one_cube(1)[0]
    ew = Window(1, (-1.0,), (1.0,), (16,))
    lattice._MEMO.clear()
    region_cells(ew, Cube((0.0,), 0.5))  # geometry stays
    held = lattice._MEMO.held
    K = perturbed_kernel()
    Kt = kernel_transpose(K)
    vanishing_moment_defect(K, 1, [atom], padding=16)
    modified_on_monomial(Kt, CorrectionSpec((0.1,), 0.5, 1), (1,), ew, padding=8, check_doubling=False)
    # tables under kappa, frame coefficients under the kernel, each held weakly
    named = {id(a()) for key in lattice._MEMO for a in key[1] if isinstance(a, weakref.ref)}
    assert named == {id(K), id(K.kappa), id(Kt), id(Kt.kappa)}
    assert lattice._MEMO.held > held
    for result, _ in lattice._MEMO.values():
        if isinstance(result, np.ndarray):
            with pytest.raises(ValueError):
                result.flat[0] = 0
    del K, Kt
    gc.collect()
    assert not any(isinstance(a, weakref.ref) for key in lattice._MEMO for a in key[1])
    assert len(lattice._MEMO) == 1 and lattice._MEMO.held == held


def test_clear_and_run_cycles_leave_nothing_behind():
    # a kernel built by name lives on, and each cycle on a cleared memo stores
    # its entries anew; what ties an entry to the kernel leaves with the entry
    K = kernel_by_name("perturbed")
    atom = _atoms_on_one_cube(1)[0]
    counts = []
    for _ in range(4):
        lattice._MEMO.clear()
        vanishing_moment_defect(K, 1, [atom], padding=16)
        counts.append((len(weakref.finalize._registry), weakref.getweakrefcount(K), weakref.getweakrefcount(K.kappa)))
    assert counts[1:] == counts[:-1]


def test_a_kappa_without_weak_references_is_not_memoised():
    f = GridFunction.from_callable(Window(1, (-1.0,), (1.0,), (32,)), np.cos)
    H = hilbert_kernel()
    K = replace(H, kappa=np.reciprocal)  # a ufunc takes no weak reference
    lattice._MEMO.clear()
    assert np.array_equal(apply_truncated(K, f, 1 / 16).values, apply_truncated(H, f, 1 / 16).values)
    assert sum(key[0] is czkernel._shared_table for key in lattice._MEMO) == 1  # H's table only
