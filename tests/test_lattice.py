import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnlab import lattice
from jnlab.lattice import (
    Annulus,
    Ball,
    Cube,
    EmptyRegionError,
    GridFunction,
    LatticeError,
    Window,
    annulus,
    average,
    integrate,
    lq_norm,
    whole_number,
    moments,
    monomials,
    region_cells,
    region_mask,
    region_measure,
)


def test_window_invariants():
    with pytest.raises(LatticeError):
        Window(1, (0.0,), (0.0,), (4,))
    with pytest.raises(LatticeError):
        Window(1, (0.0,), (1.0,), (1,))
    with pytest.raises(LatticeError):
        Window(2, (0.0, 0.0), (1.0, 2.0), (4, 4))  # pitch differs across axes
    w = Window(2, (0.0, 0.0), (1.0, 2.0), (4, 8))
    assert w.h == pytest.approx(0.25)
    assert w.cell_count == 32
    # integral floats, as from a JSON file, stay accepted
    assert Window(1, (0.0,), (1.0,), (4.0,)).cells == (4,)
    assert Annulus((0.0,), 1.0, 2.0).level == 2


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Cube((0.0,), math.nan), ValueError),
        (lambda: Cube((math.nan,), 1.0), ValueError),
        (lambda: Cube((0.0, 0.0), math.inf), ValueError),
        (lambda: Ball((0.0,), math.inf), ValueError),
        (lambda: Ball((math.inf, 0.0), 1.0), ValueError),
        (lambda: annulus((0.0,), math.nan, 1), ValueError),
        (lambda: Annulus((0.0,), 1.0, 1.5), ValueError),
        (lambda: Window(1, (0.0,), (1.0,), (2.5,)), LatticeError),
    ],
    ids=["cube-nan-side", "cube-nan-center", "cube-inf-side", "ball-inf-radius", "ball-inf-center",
         "annulus-nan-side", "annulus-fractional-level", "window-fractional-cells"],
)
def test_non_finite_or_fractional_sizes_are_rejected(build, error):
    with pytest.raises(error):
        build()


def test_integrate_constant_and_zero():
    w = Window(1, (0.0,), (1.0,), (64,))
    one = GridFunction.from_callable(w, lambda x: np.ones_like(x))
    assert integrate(one, Cube((0.5,), 1.0)) == pytest.approx(1.0, abs=w.h)
    zero = GridFunction.zeros(w)
    assert integrate(zero, Ball((0.3,), 0.2)) == 0.0
    # disjoint region contributes nothing
    assert integrate(one, Cube((5.0,), 1.0)) == 0.0


def test_integrate_linear_closed_form():
    w = Window(1, (0.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: x)
    assert integrate(f, Cube((0.5,), 1.0)) == pytest.approx(0.5, abs=1e-3)


def test_average():
    w = Window(1, (0.0,), (1.0,), (8,))
    c = GridFunction.from_callable(w, lambda x: np.full_like(x, 2.5))
    assert average(c, Cube((0.5,), 1.0)) == pytest.approx(2.5, abs=1e-14)
    step = GridFunction.from_callable(w, lambda x: (x < 0.5).astype(float))
    assert average(step, Cube((0.5,), 1.0)) == pytest.approx(0.5, abs=1e-14)
    w2 = Window(1, (-1.0,), (1.0,), (64,))
    odd = GridFunction.from_callable(w2, lambda x: x)
    assert abs(average(odd, Cube((0.0,), 2.0))) < w2.h
    with pytest.raises(EmptyRegionError):
        average(c, Cube((9.0,), 0.5))


def test_lq_norm():
    w = Window(1, (0.0,), (1.0,), (64,))
    one = GridFunction.from_callable(w, lambda x: np.ones_like(x))
    assert lq_norm(one, Cube((0.5,), 1.0), 2.0) == pytest.approx(1.0, abs=w.h)
    assert lq_norm(GridFunction.zeros(w), Cube((0.5,), 1.0), 1.0) == 0.0
    ind = GridFunction.from_callable(w, lambda x: (x < 0.5).astype(float))
    assert lq_norm(ind, Cube((0.5,), 1.0), 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert lq_norm(ind, Cube((0.5,), 1.0), math.inf) == 1.0
    with pytest.raises(ValueError):
        lq_norm(one, Cube((0.5,), 1.0), 0.5)


def test_lq_norm_exponent_rule():
    # the exponent rule of NormParams
    w = Window(1, (0.0,), (1.0,), (64,))
    ind = GridFunction.from_callable(w, lambda x: (x < 0.5).astype(float))
    for bad in (math.nan, -math.inf, 0.5):
        with pytest.raises(ValueError, match="q must be >= 1"):
            lq_norm(ind, Cube((0.5,), 1.0), bad)
    with pytest.raises(ValueError, match="q must be a number"):
        lq_norm(ind, Cube((0.5,), 1.0), None)
    assert lq_norm(ind, Cube((0.5,), 1.0), "inf") == 1.0


def test_annulus_conventions():
    assert isinstance(annulus((0.0,), 1.0, 0), Cube)
    a = annulus((0.0,), 1.0, 1)
    assert isinstance(a, Annulus)
    # membership under the half-open convention: 0.5 <= |x| < 1 on the line
    assert a.contains(np.array([[0.75]]))[0]
    assert not a.contains(np.array([[0.25]]))[0]
    assert not a.contains(np.array([[1.25]]))[0]
    assert a.level == 1 and a.base_side == 1.0


def test_annuli_disjoint_and_telescoping():
    w = Window(1, (-4.0,), (4.0,), (64,))
    masks = [region_mask(w, annulus((0.0,), 1.0, j)) for j in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.any(masks[i] & masks[j])
    union = np.zeros_like(masks[0])
    for m in masks:
        union |= m
    assert np.array_equal(union, region_mask(w, Cube((0.0,), 8.0)))


def test_additivity_exact():
    w = Window(1, (-4.0,), (4.0,), (128,))
    rng = np.random.default_rng(0)
    f = GridFunction(w, rng.normal(size=128))
    total = integrate(f, Cube((0.0,), 8.0))
    parts = sum(integrate(f, annulus((0.0,), 1.0, j)) for j in range(4))
    assert total == pytest.approx(parts, abs=1e-13)


def test_midpoint_exact_for_linear():
    # cell-aligned cube, degree <= 1 integrand: midpoint rule is exact
    w = Window(1, (0.0,), (1.0,), (32,))
    f = GridFunction.from_callable(w, lambda x: 3.0 * x - 1.25)
    exact = 3.0 / 2.0 * 0.5**2 - 1.25 * 0.5  # integral over [0, 1/2)
    assert integrate(f, Cube((0.25,), 0.5)) == pytest.approx(exact, rel=1e-12)


def test_refinement_convergence_lipschitz():
    # Lipschitz integrand with a kink off the lattice; exact integral 5/18
    region = Cube((0.5,), 1.0)
    exact = 5.0 / 18.0
    errs, pitches = [], []
    for k in range(4):
        w = Window(1, (0.0,), (1.0,), (64 * 2**k,))
        f = GridFunction.from_callable(w, lambda x: np.abs(x - 1.0 / 3.0))
        errs.append(abs(integrate(f, region) - exact))
        pitches.append(w.h)
    slope = np.polyfit(np.log(pitches), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_region_measure_counts_window_cells():
    w = Window(1, (0.0,), (1.0,), (8,))
    cube = Cube((0.0,), 0.5)  # half sticks out of the window
    assert region_measure(w, cube) == pytest.approx(0.25, abs=1e-12)


def test_gridfunction_json_roundtrip(tmp_path):
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (4, 4))
    f = GridFunction.from_callable(w, lambda x, y: x + 2 * y)
    path = tmp_path / "f.json"
    f.save(path)
    g = GridFunction.load(path)
    assert g.window == w
    assert np.array_equal(g.values, f.values)
    # a window equal by value adds and subtracts; another lattice does not
    assert np.array_equal((g + f - f).values, g.values)
    with pytest.raises(LatticeError, match="window mismatch"):
        g - GridFunction.zeros(w.refine())
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "lower", "upper", "cells", "values"}


def test_gridfunction_rejects_nonfinite():
    w = Window(1, (0.0,), (1.0,), (4,))
    with pytest.raises(LatticeError):
        GridFunction(w, np.array([1.0, np.nan, 0.0, 0.0]))


def test_average_counts_window_cells():
    w = Window(1, (0.0,), (1.0,), (8,))
    one = GridFunction.from_callable(w, lambda x: np.ones_like(x))
    cube = Cube((0.0,), 0.5)  # half outside the window
    assert average(one, cube) == pytest.approx(1.0)


def test_window_dimension_from_json_is_an_int():
    # a JSON config's "n": 2.0 makes the same window as 2
    w = Window(2.0, (0.0, 0.0), (1.0, 1.0), (4, 4))
    assert type(w.n) is int and w == Window(2, (0.0, 0.0), (1.0, 1.0), (4, 4))


def test_window_rejects_non_finite_bounds():
    for lower, upper in [((-math.inf,), (1.0,)), ((0.0,), (math.inf,)), ((math.nan,), (1.0,))]:
        with pytest.raises(LatticeError):
            Window(1, lower, upper, (8,))


def test_grid_function_rejects_misshaped_values():
    w = Window(2, (0.0, 0.0), (2.0, 1.0), (8, 4))
    with pytest.raises(LatticeError):
        GridFunction(w, np.zeros((4, 8)))
    flat = GridFunction(w, np.arange(32.0))
    assert flat.values.shape == (8, 4)
    assert np.array_equal(flat.values[1], np.arange(4.0, 8.0))


def test_padded_window_keeps_pitch_and_phase():
    w = Window(2, (-1.0, 0.0), (1.0, 1.0), (16, 8))
    for factor in (0.5, 2.0, 3.0):
        big = w.padded(factor)
        assert big.h == pytest.approx(w.h)
        shift = (np.asarray(big.lower) - np.asarray(w.lower)) / w.h
        assert np.allclose(shift, np.round(shift), atol=1e-9)
        assert (big.cell_count > w.cell_count) == (factor > 1)
    assert w.reference_cube() == Cube((0.0, 0.5), 0.5)



def test_lattice_offset():
    w = Window(1, (-1.0,), (1.0,), (40,))
    inner = Window(1, (-0.5,), (0.75,), (25,))
    assert inner.lattice_offset(w).tolist() == [10]
    assert w.lattice_offset(inner).tolist() == [-10]
    assert w.padded(3.0).lattice_offset(w).tolist() == [-40]
    assert Window(1, (-0.51,), (0.74,), (25,)).lattice_offset(w) is None  # other phase
    assert Window(1, (-1.0,), (1.0,), (41,)).lattice_offset(w) is None  # other pitch
    w2 = Window(2, (-1.0, -1.0), (1.0, 1.0), (16, 16))
    assert Window(2, (0.5, -1.25), (1.5, -0.25), (8, 8)).lattice_offset(w2).tolist() == [12, -2]
    assert w.lattice_offset(w2) is None  # other dimension


def test_whole_number():
    assert whole_number(3, "k") == 3
    assert whole_number(2.0, "k") == 2 and isinstance(whole_number(2.0, "k"), int)
    assert whole_number(np.int64(1), "k", 1) == 1
    for bad, least in ((0.5, 0), (-1, 0), (0, 1), (math.nan, 0), (math.inf, 0), (None, 0)):
        with pytest.raises(ValueError, match="k must be an integer"):
            whole_number(bad, "k", least)

def _region_strategy():
    # centers range past the window [-1, 1]^n, so regions straddle it or miss it
    coord = st.floats(-2.5, 2.5, allow_nan=False)
    size = st.floats(0.05, 3.0, allow_nan=False)
    return st.one_of(
        st.builds(lambda c, r: ("cube", c, r), st.lists(coord, min_size=2, max_size=2), size),
        st.builds(lambda c, r: ("ball", c, r), st.lists(coord, min_size=2, max_size=2), size),
        st.builds(
            lambda c, r, j: ("annulus", c, r, j),
            st.lists(coord, min_size=2, max_size=2), size, st.integers(1, 3),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(2, 24), _region_strategy())
def test_region_mask_equals_pointwise_membership(n, cells, spec):
    w = Window(n, (-1.0,) * n, (1.0,) * n, (cells,) * n)
    center = tuple(spec[1][:n])
    region = {
        "cube": lambda: Cube(center, spec[2]),
        "ball": lambda: Ball(center, spec[2]),
        "annulus": lambda: Annulus(center, spec[2], spec[3]),
    }[spec[0]]()
    mask = region_mask(w, region)
    assert np.array_equal(mask, region.contains(w.midpoints()))


def _memo_regions():
    """A cube, a ball and an annulus on a 1-D and on a 2-D window."""
    for n in (1, 2):
        w = Window(n, (-2.0,) * n, (2.0,) * n, (32,) * n)
        c = (0.1,) * n
        yield w, Cube(c, 0.75)
        yield w, Ball(c, 0.6)
        yield w, Annulus(c, 0.5, 2)


def _entries(fn) -> int:
    """The entries a memoised function holds in the one memo store: after
    lattice._MEMO.clear(), its misses."""
    return sum(key[0] is fn for key in lattice._MEMO)


def _held() -> int:
    return sum(size for _, size in lattice._MEMO.values())


def test_region_cells_memo_is_read_only_and_cold_equals_warm():
    warm = [region_cells(w, r) for w, r in _memo_regions()]
    for cells in warm:
        assert not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[0] = cells[0]
    lattice._MEMO.clear()
    assert _entries(region_cells) == 0
    for (w, r), cells in zip(_memo_regions(), warm):
        cold = region_cells(w, r)
        assert cold is not cells and np.array_equal(cold, cells)
        assert np.array_equal(cold, np.flatnonzero(r.contains(w.midpoints())))
        # the mask is built on each call and is the caller's to write
        mask = region_mask(w, r)
        mask[cold] = False
        assert region_mask(w, r) is not mask and not mask.any()
    assert _entries(region_cells) == len(lattice._MEMO) == len(warm)


def test_region_cells_memo_keys_on_equal_geometry():
    lattice._MEMO.clear()
    first = region_cells(Window(2, (-1.0, -1.0), (1.0, 1.0), (16, 16)), Cube((0.0, 0.0), 0.5))
    again = region_cells(Window(2, [-1, -1], [1, 1], [16, 16]), Cube([0, 0], 0.5))
    assert again is first
    assert _entries(region_cells) == 1
    # keyword and mixed calls share the positional key
    assert region_cells(window=Window(2, (-1, -1), (1, 1), (16, 16)), region=Cube((0, 0), 0.5)) is first
    assert region_cells(Window(2, (-1, -1), (1, 1), (16, 16)), region=Cube((0, 0), 0.5)) is first
    assert _entries(region_cells) == 1
    assert len(lattice._MEMO) == 1


def _eight_cells(k: int) -> Cube:
    """The k-th of distinct cubes (k < 8) that each hold the same 8 cells of
    a 64-cell unit window: a 64-byte cell list."""
    return Cube((0.5,), 0.125 + k / 1024)


def test_region_cells_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(lattice, "_MEMO_BYTES", 5 * 64)
    lattice._MEMO.clear()
    w = Window(1, (0.0,), (1.0,), (64,))
    lists = [region_cells(w, _eight_cells(k)) for k in range(5)]
    assert _held() == lattice._MEMO.held == 5 * 64
    assert all(region_cells(w, _eight_cells(k)) is lists[k] for k in range(5))
    for k in range(40):  # lists of 8 to 18 cells
        region_cells(w, Cube((0.5,), 0.125 + k / 256))
        region_cells(w, _eight_cells(k % 8))
        assert _held() == lattice._MEMO.held <= lattice._MEMO_BYTES


def test_memo_evicts_in_insertion_order_across_memos(monkeypatch):
    @lattice._memo
    def ramp(start: int) -> np.ndarray:
        return np.arange(start, start + 8)  # 64 bytes, as an 8-cell list

    monkeypatch.setattr(lattice, "_MEMO_BYTES", 4 * 64)
    lattice._MEMO.clear()
    w = Window(1, (0.0,), (1.0,), (64,))
    cells = [(region_cells, (w, _eight_cells(k))) for k in range(3)]
    ramps = [(ramp, (k,)) for k in range(3)]
    for (_, cube_key), (_, ramp_key) in zip(cells[:2], ramps[:2]):
        region_cells(*cube_key)
        ramp(*ramp_key)
    order = [cells[0], ramps[0], cells[1], ramps[1]]
    assert list(lattice._MEMO) == order
    # hits neither move an entry nor spare it: the oldest goes first
    region_cells(w, _eight_cells(0))
    ramp(0)
    assert list(lattice._MEMO) == order
    region_cells(w, _eight_cells(2))
    assert list(lattice._MEMO) == order[1:] + [cells[2]]
    ramp(2)
    assert list(lattice._MEMO) == [cells[1], ramps[1], cells[2], ramps[2]]
    # a 128-byte list evicts the two oldest entries
    wide = Cube((0.5,), 0.25)
    assert region_cells(w, wide).size == 16
    assert list(lattice._MEMO) == [cells[2], ramps[2], (region_cells, (w, wide))]
    assert _held() == lattice._MEMO.held == 4 * 64


def test_a_scan_of_distinct_regions_holds_only_their_cell_lists():
    # 2,000 one-off cubes on a 64^2 window: each keeps its cell list, not a
    # window-sized array
    lattice._MEMO.clear()
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (64, 64))
    f = GridFunction(w, np.random.default_rng(0).normal(size=w.cells))
    cubes = [Cube((0.3 + k / 4000, 0.5), 0.05 + (k % 7) / 50) for k in range(2000)]
    for cube in cubes:
        lq_norm(f, cube, 2.0)
    assert len(lattice._MEMO) == _entries(region_cells) == len(cubes)
    held = sum(region_cells(w, cube).nbytes for cube in cubes)
    assert _held() == lattice._MEMO.held == held
    assert held < len(cubes) * w.cell_count  # a mask per cube would hold more


def test_memo_returns_but_does_not_keep_a_result_above_the_budget(monkeypatch):
    monkeypatch.setattr(lattice, "_MEMO_BYTES", 100)
    lattice._MEMO.clear()
    w = Window(1, (0.0,), (1.0,), (64,))
    cube = Cube((0.5,), 0.75)  # 48 cells: a 384-byte cell list
    a, b = region_cells(w, cube), region_cells(w, cube)
    assert a is not b and np.array_equal(a, b) and not a.flags.writeable
    assert not lattice._MEMO
    small = region_cells(w, _eight_cells(0))
    assert list(lattice._MEMO) == [(region_cells, (w, _eight_cells(0)))] and lattice._MEMO.held == small.nbytes


def test_memo_keeps_a_window_above_2_16_cells():
    big = Window(1, (0.0,), (1.0,), ((1 << 16) + 2,))
    cube = Cube((0.5,), 0.25)
    a = region_cells(big, cube)
    assert region_cells(big, cube) is a and not a.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(2, 13), st.integers(0, 3), st.integers(0, 3), st.integers(0, 10_000))
def test_per_axis_midpoints_and_monomials_are_the_point_cloud_ones(n, cells, g0, g1, seed):
    shape = (cells, cells + 3)[:n]
    w = Window(n, (-0.7,) * n, tuple(-0.7 + 0.15 * c for c in shape), shape)
    pts = w.midpoints()
    idx = np.random.default_rng(seed).choice(w.cell_count, size=min(5, w.cell_count), replace=False)
    assert np.array_equal(w.cell_midpoints(idx), pts[idx])
    gamma = (g0, g1)[:n]
    got = GridFunction.monomial(w, gamma)
    assert got.values.shape == w.cells
    assert np.array_equal(got.flat, monomials(pts, [gamma])[:, 0])


def test_monomial_needs_one_exponent_per_axis():
    w2 = Window(2, (0.0, 0.0), (1.0, 1.0), (8, 8))
    with pytest.raises(LatticeError, match="needs 2 entries, one per window axis"):
        GridFunction.monomial(w2, (1,))
    with pytest.raises(LatticeError, match="needs 1 entries, one per window axis"):
        GridFunction.monomial(Window(1, (0.0,), (1.0,), (8,)), (0, 0))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5000), dim=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_moments_equal_the_per_column_sums_bit_for_bit(k, dim, seed):
    # one product of C-contiguous rows, summed along each row, gives every
    # column its own pairwise sum, for C-ordered and strided columns alike
    rng = np.random.default_rng(seed)
    values = rng.normal(size=k) * 10.0 ** rng.integers(-6, 7, size=k)
    rows = rng.normal(size=(dim, k))
    for columns in (np.ascontiguousarray(rows.T), rows.T):
        per_column = [float((values * col).sum()) * 0.013 for col in columns.T]
        assert [m.hex() for m in moments(values, columns, 0.013)] == [m.hex() for m in per_column]
