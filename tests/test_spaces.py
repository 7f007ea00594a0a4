import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnlab.lattice import Ball, Cube, GridFunction, Window, region_mask
from jnlab.polyproj import ConditioningError, Polynomial, Projector
from jnlab.spaces import (
    NormParams,
    SearchConfig,
    amalgam_norm,
    jn_ball_seminorm,
    jn_con_norm,
    jn_partition_oracle,
    rm_ball_seminorm,
    rm_con_norm,
    tail_integral_check,
)
from jnlab.lab import make_family

INF = math.inf


def osc_family(window, count, seed=7):
    return make_family("random-osc", window, count, seed)


def test_norm_params():
    p = NormParams(2.0, 2.0, 1, 0.25)
    assert p.p_conj == pytest.approx(2.0)
    assert NormParams(1.0, 2.0, 0, 0.0).p_conj == INF
    assert NormParams(INF, 2.0, 0, 0.0).p_conj == 1.0
    assert p.admissibility(1.0, 1) == []
    bad = NormParams(2.0, 1.0, 0, 5.0)
    notes = bad.admissibility(1.0, 1)
    assert len(notes) == 2  # q at the endpoint and alpha too large
    with pytest.raises(ValueError):
        NormParams(0.5, 2.0, 0, 0.0)


def test_norm_params_reject_nan_and_infinite_alpha():
    for args in [(math.nan, 2.0, 0, 0.1), (2.0, math.nan, 0, 0.1), (2.0, 2.0, 0, math.nan),
                 (2.0, 2.0, 0, math.inf), (2.0, 2.0, 0, -math.inf)]:
        with pytest.raises(ValueError):
            NormParams(*args)



def test_norm_params_s_is_a_whole_number():
    # an integral float (a JSON config's 1.0) is coerced, as the correction order is
    p = NormParams(2.0, 2.0, 1.0, 0.1)
    assert p.s == 1 and isinstance(p.s, int)
    assert NormParams(2.0, 2.0, np.int64(2), 0.1).s == 2
    for s in (0.5, -1, math.nan, math.inf, None):
        with pytest.raises(ValueError, match="s must be an integer"):
            NormParams(2.0, 2.0, s, 0.1)


def test_search_config_rejects_unknown_options():
    for kwargs in ({"policy": "bogus"}, {"packings": "bogus"}, {"offset_stride": 0},
                   {"offset_stride": 1.5}, {"offset_stride": math.nan}):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)
    assert SearchConfig(offset_stride=2.0).offset_stride == 2
    assert SearchConfig(policy="zero-extend", packings="exhaustive").policy == "zero-extend"


def test_ball_radius_must_be_finite():
    w = Window(1, (0.0,), (1.0,), (32,))
    f = GridFunction.from_callable(w, lambda x: np.sin(5 * x))
    params = NormParams(2.0, 2.0, 0, 0.0)
    for radius in (math.inf, math.nan, w.h):
        with pytest.raises(ValueError, match="radius"):
            jn_ball_seminorm(f, params, [radius])
        with pytest.raises(ValueError, match="radius"):
            rm_ball_seminorm(f, 2.0, 2.0, 0.0, [radius])
        with pytest.raises(ValueError, match="radius"):
            amalgam_norm(f, 2.0, 2.0, radius)

def test_jn_constant_is_zero():
    w = Window(1, (0.0,), (1.0,), (32,))
    c = GridFunction.from_callable(w, lambda x: np.full_like(x, 4.2))
    rep = jn_con_norm(c, NormParams(2.0, 2.0, 0, 0.0))
    assert rep.value <= 1e-10


@pytest.mark.parametrize("gamma,s", [((0,), 0), ((1,), 1), ((2,), 2)])
def test_jn_monomial_seminorm_kernel(gamma, s):
    w = Window(1, (-1.0,), (1.0,), (64,))
    params = NormParams(2.0, 2.0, s, 0.1)
    f = GridFunction.monomial(w, gamma)
    value = jn_con_norm(f, params).value
    scale = rm_con_norm(f, params.p, params.q, params.alpha).value
    assert value <= 1e-8 * max(scale, 1e-30)


def test_jn_step_quarter_cells():
    w = Window(1, (0.0,), (1.0,), (4,))
    step = GridFunction(w, np.array([1.0, 1.0, 0.0, 0.0]))
    params = NormParams(1.0, 1.0, 0, 0.0)
    rep = jn_con_norm(step, params, SearchConfig.full(w))
    assert rep.value == pytest.approx(0.5, abs=1e-12)
    assert rep.argmax_side == pytest.approx(1.0)
    assert jn_partition_oracle(step, params) == pytest.approx(rep.value, abs=1e-12)


def test_oracle_dominates_and_matches_full_search():
    params = NormParams(2.0, 1.5, 0, 0.1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(4, 17))
        w = Window(1, (0.0,), (1.0,), (N,))
        f = GridFunction(w, rng.uniform(-1, 1, N))
        oracle = jn_partition_oracle(f, params)
        full = jn_con_norm(f, params, SearchConfig.full(w)).value
        tiling = jn_con_norm(
            f, params, SearchConfig(side_cells=list(range(1, N + 1)), min_cells_per_cube=1)
        ).value
        assert tiling <= oracle + 1e-12
        assert full == pytest.approx(oracle, abs=1e-12)


def test_mixed_phase_packing_beats_tilings():
    # the supremum over collections includes packings no single-offset tiling sees
    w = Window(1, (0.0,), (5.0,), (5,))
    f = GridFunction(w, np.array([5.0, 1.0, 1.0, 1.0, 7.0]))
    params = NormParams(1.0, 1.0, 0, 0.0)
    til = jn_con_norm(f, params, SearchConfig(side_cells=[2], min_cells_per_cube=1)).value
    exh = jn_con_norm(
        f, params, SearchConfig(side_cells=[2], packings="exhaustive", min_cells_per_cube=1)
    ).value
    assert exh > til
    assert exh == pytest.approx(10.0, abs=1e-12)


def test_oracle_guards():
    w = Window(1, (0.0,), (1.0,), (32,))
    f = GridFunction.from_callable(w, lambda x: x)
    with pytest.raises(ValueError):
        jn_partition_oracle(f, NormParams(1.0, 1.0, 0, 0.0))  # too many cells
    w2 = Window(1, (0.0,), (1.0,), (8,))
    f2 = GridFunction.from_callable(w2, lambda x: x)
    with pytest.raises(ValueError):
        jn_partition_oracle(f2, NormParams(INF, 1.0, 0, 0.0))


def test_rm_examples():
    w = Window(1, (0.0,), (1.0,), (128,))
    zero = GridFunction.zeros(w)
    assert rm_con_norm(zero, 2.0, 2.0, 0.0).value == 0.0
    one = GridFunction.from_callable(w, lambda x: np.ones_like(x))
    rep = rm_con_norm(one, INF, 2.0, -0.5, SearchConfig.full(w))
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.argmax_side == pytest.approx(1.0)
    step = GridFunction.from_callable(w, lambda x: (x < 0.5).astype(float))
    rep2 = rm_con_norm(step, INF, 1.0, -1.0, SearchConfig.full(w))
    assert rep2.value == pytest.approx(0.5, abs=1e-12)


def test_seminorm_axioms():
    w = Window(1, (-1.0,), (1.0,), (64,))
    params = NormParams(2.0, 2.0, 1, 0.1)
    search = SearchConfig()
    rng = np.random.default_rng(2)
    f = GridFunction(w, rng.normal(size=64))
    base = jn_con_norm(f, params, search).value
    # adding a degree-s polynomial is absorbed by the projection
    P = Polynomial(1, 1, (0.0,), 1.0, {(0,): 3.0, (1,): -2.0})
    shifted = jn_con_norm(f + P.on_grid(w), params, search).value
    scale = rm_con_norm(f, params.p, params.q, params.alpha, search).value
    assert abs(shifted - base) <= 1e-8 * max(scale, base)
    # absolute homogeneity
    assert jn_con_norm(f * -2.5, params, search).value == pytest.approx(2.5 * base, rel=1e-12)
    # triangle inequality on random pairs
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g1 = GridFunction(w, rng.normal(size=64))
        g2 = GridFunction(w, rng.normal(size=64))
        lhs = jn_con_norm(g1 + g2, params, search).value
        rhs = jn_con_norm(g1, params, search).value + jn_con_norm(g2, params, search).value
        assert lhs <= rhs + 1e-8


def test_search_monotonicity():
    w = Window(1, (0.0,), (1.0,), (64,))
    rng = np.random.default_rng(4)
    f = GridFunction(w, rng.normal(size=64))
    params = NormParams(2.0, 2.0, 0, 0.05)
    small = jn_con_norm(f, params, SearchConfig(side_cells=[8, 16])).value
    bigger = jn_con_norm(f, params, SearchConfig(side_cells=[4, 8, 16, 32])).value
    assert bigger >= small - 1e-14
    # stride-coarsened offsets never increase the value
    stride = jn_con_norm(f, params, SearchConfig(side_cells=[8, 16], offset_stride=4)).value
    assert stride <= small + 1e-14


def test_holder_monotonicity_per_cube():
    w = Window(1, (0.0,), (1.0,), (32,))
    rng = np.random.default_rng(5)
    f = GridFunction(w, rng.normal(size=32))
    cube = Cube((0.5,), 0.5)
    mask = region_mask(w, cube)
    resid = f.flat[mask] - f.flat[mask].mean()
    qs = [1.0, 1.5, 2.0, 3.0, INF]
    means = []
    for q in qs:
        if q == INF:
            means.append(np.abs(resid).max())
        else:
            means.append((np.abs(resid) ** q).mean() ** (1 / q))
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_campanato_branch_is_bmo():
    # p = inf, alpha = 0, s = 0, q = 1 equals the direct sup of mean oscillations
    w = Window(1, (0.0,), (1.0,), (32,))
    rng = np.random.default_rng(6)
    f = GridFunction(w, rng.uniform(-1, 1, 32))
    params = NormParams(INF, 1.0, 0, 0.0)
    rep = jn_con_norm(f, params, SearchConfig.full(w))
    vals = f.values
    best = 0.0
    for m in range(1, 33):
        for pos in range(0, 33 - m):
            seg = vals[pos : pos + m]
            best = max(best, float(np.abs(seg - seg.mean()).mean()))
    assert rep.value == pytest.approx(best, abs=1e-13)


def test_ball_seminorm_constant_zero():
    w = Window(1, (0.0,), (1.0,), (64,))
    c = GridFunction.from_callable(w, lambda x: np.full_like(x, 2.0))
    rep = jn_ball_seminorm(c, NormParams(2.0, 2.0, 0, 0.0), [8 * w.h])
    assert rep.value <= 1e-12


def test_ball_cube_equivalence_bracket():
    w = Window(1, (0.0,), (1.0,), (128,))
    params = NormParams(2.0, 2.0, 0, 0.0)
    radii = [w.h * 2**k for k in range(2, 6)]
    ratios = []
    for f in osc_family(w, 10):
        den = jn_con_norm(f, params).value
        if den <= 1e-12:
            continue
        ratios.append(jn_ball_seminorm(f, params, radii).value / den)
    spread = max(ratios) / min(ratios)
    assert spread <= 64.0
    # refinement moves the bracket by at most a factor 2
    w2 = w.refine()
    radii2 = [w2.h * 2**k for k in range(2, 7)]
    ratios2 = []
    for f in osc_family(w2, 10):
        den = jn_con_norm(f, params).value
        if den <= 1e-12:
            continue
        ratios2.append(jn_ball_seminorm(f, params, radii2).value / den)
    for stat in (min, max):
        lo, hi = sorted([stat(ratios), stat(ratios2)])
        assert hi / lo <= 2.0


def test_rm_two_sided_equivalence():
    w = Window(1, (0.0,), (1.0,), (128,))
    radii = [w.h * 2**k for k in range(2, 6)]
    ratios = []
    for f in osc_family(w, 20, seed=3):
        den = rm_con_norm(f, 2.0, 2.0, 0.0).value
        if den <= 1e-12:
            continue
        ratios.append(rm_ball_seminorm(f, 2.0, 2.0, 0.0, radii).value / den)
    assert max(ratios) / min(ratios) <= 64.0
    assert all(np.isfinite(r) and r > 0 for r in ratios)


def test_amalgam():
    w = Window(1, (0.0,), (1.0,), (128,))
    one = GridFunction.from_callable(w, lambda x: np.ones_like(x))
    assert amalgam_norm(one, 2.0, 2.0, 0.1) == pytest.approx(1.0, rel=0.05)
    assert amalgam_norm(GridFunction.zeros(w), 2.0, 2.0, 0.1) == 0.0
    rng = np.random.default_rng(8)
    f = GridFunction(w, rng.normal(size=128))
    a1 = amalgam_norm(f, 2.0, 3.0, 0.1)
    a2 = amalgam_norm(f * 2.0, 2.0, 3.0, 0.1)
    assert a2 == pytest.approx(2.0 * a1, rel=1e-12)
    with pytest.raises(ValueError):
        amalgam_norm(f, 2.0, 2.0, w.h)


def test_tail_integral_closed_form():
    w = Window(1, (-4.0,), (4.0,), (256,))
    f = GridFunction.from_callable(w, lambda x: ((x >= 2) & (x <= 3)).astype(float))
    diag = tail_integral_check(f, Ball((0.0,), 1.0), 0, 1.0, NormParams(2.0, 2.0, 0, 0.0))
    assert diag.lhs == pytest.approx(1.0 / 6.0, rel=0.02)
    assert diag.hypothesis_ok
    c = GridFunction.from_callable(w, lambda x: np.full_like(x, 3.0))
    diag_c = tail_integral_check(c, Ball((0.0,), 1.0), 0, 1.0, NormParams(2.0, 2.0, 0, 0.0))
    assert diag_c.lhs <= 1e-10


def test_tail_integral_ratio_stability():
    w = Window(1, (-2.0,), (2.0,), (128,))
    params = NormParams(2.0, 2.0, 0, 0.0)
    ratios = []
    for f in osc_family(w, 20, seed=9):
        per_r = []
        for r in (0.25, 0.5, 1.0):
            d = tail_integral_check(f, Ball((0.0,), r), 0, 1.0, params)
            if d.rhs > 0:
                per_r.append(d.ratio)
        if len(per_r) == 3 and min(per_r) > 0:
            ratios.append(max(per_r) / min(per_r))
    assert ratios and max(ratios) <= 4.0


def test_tail_integral_hypothesis_reporting():
    w = Window(1, (-2.0,), (2.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: np.sin(x))
    diag = tail_integral_check(f, Ball((0.0,), 0.5), 1, 0.5, NormParams(2.0, 2.0, 1, 0.0))
    assert not diag.hypothesis_ok  # beta <= s


def test_report_recompute_and_csv():
    w = Window(1, (0.0,), (1.0,), (64,))
    rng = np.random.default_rng(10)
    f = GridFunction(w, rng.normal(size=64))
    for rep in (
        jn_con_norm(f, NormParams(2.0, 2.0, 0, 0.1)),
        jn_con_norm(f, NormParams(INF, 2.0, 0, 0.0)),
        rm_con_norm(f, 2.0, 2.0, -0.1),
    ):
        assert rep.recompute() == pytest.approx(rep.value, abs=1e-12 * max(1.0, rep.value))
        row = rep.csv_row()
        assert list(row) == [
            "norm_name", "p", "q", "s", "alpha", "value",
            "argmax_side", "argmax_offset", "grid_cells", "policy",
        ]


def test_zero_extend_policy():
    w = Window(1, (0.0,), (1.0,), (8,))
    f = GridFunction(w, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]))
    params = NormParams(1.0, 1.0, 0, 0.0)
    # side of 6 cells at offset 4 would stick out; zero-extend keeps it
    r_res = jn_con_norm(f, params, SearchConfig(side_cells=[6], policy="restrict", min_cells_per_cube=1))
    r_ext = jn_con_norm(f, params, SearchConfig(side_cells=[6], policy="zero-extend", min_cells_per_cube=1))
    assert r_ext.value >= r_res.value - 1e-14
    assert r_ext.policy == "zero-extend"


def test_2d_norms_smoke():
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    rng = np.random.default_rng(12)
    f = GridFunction(w, rng.normal(size=(16, 16)))
    params = NormParams(2.0, 2.0, 1, 0.05)
    rep = jn_con_norm(f, params, SearchConfig(side_cells=[4, 8], min_cells_per_cube=4))
    assert rep.value > 0
    assert rep.recompute() == pytest.approx(rep.value, rel=1e-12)
    ball = jn_ball_seminorm(f, params, [4 * w.h])
    assert ball.value > 0


def test_partition_spec():
    from jnlab.spaces import PartitionSpec, partition

    w = Window(1, (0.0,), (1.0,), (8,))
    p = partition(w, 2, (1,))
    assert len(p.cubes) == 3  # cells [1,3), [3,5), [5,7)
    assert all(abs(c.side - 2 * w.h) < 1e-15 for c in p.cubes)
    # zero-extend keeps the partial boundary cubes and covers every cell
    p2 = partition(w, 3, (2,), policy="zero-extend")
    assert len(p2.cubes) == 3
    covered = np.zeros(8, dtype=bool)
    for c in p2.cubes:
        covered |= region_mask(w, c)
    assert covered.all()
    with pytest.raises(ValueError):
        partition(w, 2, (5,))
    with pytest.raises(ValueError):
        PartitionSpec(0.25, (0,), [Cube((0.125,), 0.25), Cube((0.2,), 0.25)], "restrict")


def test_jn_norm_q_infinity_branch():
    # q = inf uses the per-cube sup of the projected residual
    w = Window(1, (0.0,), (1.0,), (16,))
    rng = np.random.default_rng(13)
    f = GridFunction(w, rng.uniform(-1, 1, 16))
    params = NormParams(INF, INF, 0, 0.0)
    rep = jn_con_norm(f, params, SearchConfig.full(w))
    vals = f.values
    best = 0.0
    for m in range(1, 17):
        for pos in range(0, 17 - m):
            seg = vals[pos : pos + m]
            best = max(best, float(np.abs(seg - seg.mean()).max()))
    assert rep.value == pytest.approx(best, abs=1e-13)


def test_amalgam_q_infinity():
    w = Window(1, (0.0,), (1.0,), (64,))
    rng = np.random.default_rng(14)
    f = GridFunction(w, rng.uniform(0, 1, 64))
    val = amalgam_norm(f, INF, INF, 4 * w.h)
    assert val == pytest.approx(float(np.abs(f.values).max()), abs=1e-13)


def test_ball_seminorm_radius_beyond_window():
    # every ball is clipped to the window; the sweep must still work
    w = Window(1, (0.0,), (1.0,), (32,))
    rng = np.random.default_rng(15)
    f = GridFunction(w, rng.normal(size=32))
    rep = jn_ball_seminorm(f, NormParams(2.0, 2.0, 0, 0.0), [2.0])
    assert np.isfinite(rep.value) and rep.value > 0


def test_dyadic_sum_lemma_variant():
    # sum_k theta^k (osc of f against the level-0 projection on 2^k B)
    # is controlled by the same sum with per-level projections, one
    # recorded constant across a family, for theta in (0, 2^-s)
    from jnlab.lab import make_family
    from jnlab.polyproj import moment_projection

    w = Window(1, (-2.0,), (2.0,), (256,))
    s, q, theta = 1, 2.0, 0.35  # theta < 2^-1
    base = Ball((0.0,), 0.25)
    worst = 0.0
    for f in make_family("random-osc", w, 15, seed=21):
        P0 = moment_projection(f, base, s)
        lhs = rhs = 0.0
        for k in range(1, 4):
            ball = Ball((0.0,), 0.25 * 2**k)
            mask = region_mask(w, ball)
            pts = w.midpoints()[mask]
            Pk = moment_projection(f, ball, s)
            lhs += theta**k * float((np.abs(f.flat[mask] - P0(pts)) ** q).mean() ** (1 / q))
            rhs += theta**k * float((np.abs(f.flat[mask] - Pk(pts)) ** q).mean() ** (1 / q))
        if rhs > 1e-12:
            worst = max(worst, lhs / rhs)
    assert np.isfinite(worst) and worst > 0
    assert worst <= 50.0  # one uniform constant certifies the family


def test_campanato_linear_closed_form():
    # sup over cubes of the mean deviation of x: side/4 at the full window,
    # up to the lattice's (1 - 1/m^2) factor for odd cell counts
    w = Window(1, (0.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: x)
    rep = jn_con_norm(f, NormParams(INF, 1.0, 0, 0.0), SearchConfig.full(w))
    assert rep.value == pytest.approx(0.25, abs=1e-3)
    assert rep.argmax_side == pytest.approx(1.0)


def test_tail_integral_two_dimensional():
    w = Window(2, (-2.0, -2.0), (2.0, 2.0), (48, 48))
    rng = np.random.default_rng(33)
    f = GridFunction(w, rng.normal(size=(48, 48)))
    diag = tail_integral_check(
        f, Ball((0.0, 0.0), 0.5), 0, 1.0, NormParams(2.0, 2.0, 0, 0.0)
    )
    assert diag.hypothesis_ok
    assert np.isfinite(diag.lhs) and np.isfinite(diag.ratio)


def slow_tiling_value(f, m, offset, params):
    """Direct per-cube reference for one 2-D restrict tiling."""
    w = f.window
    Nx, Ny = w.cells
    ox, oy = offset
    h = w.h
    total = 0.0
    found = False
    for sx in range(ox, Nx - m + 1, m):
        for sy in range(oy, Ny - m + 1, m):
            found = True
            center = (w.lower[0] + (sx + m / 2) * h, w.lower[1] + (sy + m / 2) * h)
            mask = region_mask(w, Cube(center, m * h))
            cells = f.flat[mask]
            if params.s == 0:
                resid = cells - cells.mean()
            else:
                pts = w.midpoints()[mask]
                A = np.stack([np.ones(len(cells)), pts[:, 0], pts[:, 1]], axis=1)
                coef, *_ = np.linalg.lstsq(A, cells, rcond=None)
                resid = cells - A @ coef
            measure = (m * h) ** 2
            qm = (np.abs(resid) ** params.q).mean() ** (1 / params.q)
            total += measure * (measure ** (-params.alpha) * qm) ** params.p
    return total ** (1 / params.p) if found else None


def test_2d_tiling_against_slow_reference():
    rng = np.random.default_rng(7777)
    worst = 0.0
    for _ in range(10):
        Nx = int(rng.integers(8, 17))
        Ny = int(rng.integers(8, 17))
        w = Window(2, (0.0, 0.0), (Nx / 16, Ny / 16), (Nx, Ny))
        f = GridFunction(w, rng.normal(size=(Nx, Ny)))
        s = int(rng.integers(0, 2))
        params = NormParams(
            float(rng.uniform(1, 3)), float(rng.uniform(1, 3)), s, float(rng.uniform(-0.3, 0.3))
        )
        m = int(rng.integers(2, min(Nx, Ny) // 2 + 1))
        rep = jn_con_norm(f, params, SearchConfig(side_cells=[m], min_cells_per_cube=1))
        slow = {off: slow_tiling_value(f, m, off, params) for off in np.ndindex(m, m)}
        top = max(v for v in slow.values() if v is not None)
        worst = max(worst, abs(rep.value - top) / top)
        worst = max(worst, abs(rep.value - slow[rep.argmax_offset]) / top)
    assert worst <= 1e-12


def test_ball_sweep_against_slow_reference():
    from jnlab.spaces import _ball_sweep

    rng = np.random.default_rng(42)
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    f = GridFunction(w, rng.normal(size=(16, 16)))
    pts = w.midpoints()
    for s, q in [(None, 2.0), (0, 1.5), (1, 2.0)]:
        fast_q, _ = _ball_sweep(f, 0.22, s, q)
        for i in rng.choice(w.cell_count, size=24, replace=False):
            c = pts[i]
            mask = np.linalg.norm(pts - c, axis=1) < 0.22
            cells = f.flat[mask]
            if s is None:
                resid = cells
            else:
                local = pts[mask] - c
                cols = [np.ones(len(cells))]
                if s >= 1:
                    cols += [local[:, 0], local[:, 1]]
                A = np.stack(cols, axis=1)
                coef, *_ = np.linalg.lstsq(A, cells, rcond=None)
                resid = cells - A @ coef
            slow = (np.abs(resid) ** q).mean() ** (1 / q)
            assert fast_q[i] == pytest.approx(slow, abs=1e-12)


def lstsq_ball_sweep(f, radius, s, q):
    """Per-center q-means and counts of the balls B(y, radius) inside the
    window, each fitted on its own cells by lstsq."""
    w = f.window
    h = w.h
    idx = np.stack(np.unravel_index(np.arange(w.cell_count), w.cells), axis=1)
    gammas = [g for g in np.ndindex(*(3,) * w.n) if s is not None and sum(g) <= s]
    qmeans, counts = [], []
    for c in idx:
        mask = ((idx - c) ** 2).sum(axis=1) * h**2 < radius**2
        cells = f.flat[mask]
        local = (idx[mask] - c) * h / radius
        if gammas:
            A = np.stack([np.prod(local**np.asarray(g), axis=1) for g in gammas], axis=1)
            coef, *_ = np.linalg.lstsq(A, cells, rcond=None)
            cells = cells - A @ coef
        qmeans.append(np.abs(cells).max() if q == INF else np.mean(np.abs(cells) ** q) ** (1 / q))
        counts.append(int(mask.sum()))
    return np.asarray(qmeans), np.asarray(counts)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2),
    st.data(),
    st.sampled_from([None, 0, 1]),
    st.sampled_from([1.0, 1.5, 2.0, INF]),
    st.sampled_from([1, 5, 64]),
    st.integers(0, 10_000),
)
def test_ball_engine_matches_lstsq_reference(n, data, s, q, batch, seed):
    from unittest import mock

    from jnlab import spaces

    cells = tuple(data.draw(st.integers(3, 40 if n == 1 else 10)) for _ in range(n))
    # from just above 2h to beyond the window, where every ball is clipped
    radius = data.draw(st.floats(2.001, 1.5 * max(cells))) / 16
    w = Window(n, (0.0,) * n, tuple(c / 16 for c in cells), cells)
    f = GridFunction(w, np.random.default_rng(seed).normal(size=cells))
    spaces._ball_plan.cache_clear()  # bands of the tiny batch build the plan too
    with mock.patch.object(spaces, "_BALL_BATCH", batch):
        fast, counts = spaces._ball_sweep(f, radius, s, q)
    slow, slow_counts = lstsq_ball_sweep(f, radius, s, q)
    np.testing.assert_array_equal(counts, slow_counts)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)


def test_clipped_ball_raises_conditioning_error_on_every_call(monkeypatch):
    from jnlab import polyproj
    from jnlab.spaces import _ball_plan, _ball_sweep

    w = Window(1, (0.0,), (1.0,), (16,))
    f = GridFunction(w, np.random.default_rng(6).normal(size=16))
    radius = 2.5 * w.h
    # degree-1 Gram condition numbers: 2 for the unclipped 5-cell ball, about
    # 10 for the 3 cells a window corner keeps
    monkeypatch.setattr(polyproj, "COND_LIMIT", 5.0)
    _ball_plan.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(ConditioningError):
                _ball_sweep(f, radius, 1, 2.0)
        assert _ball_plan.cache_info().currsize == 0
        _ball_sweep(f, radius, 0, 2.0)  # a constant fits every clipped ball
    finally:
        _ball_plan.cache_clear()


def test_ball_norm_diagnostics():
    w = Window(1, (0.0,), (1.0,), (16,))
    f = GridFunction(w, np.random.default_rng(3).normal(size=16))
    radii = [3.5 * w.h, 20 * w.h]
    for rep in (
        jn_ball_seminorm(f, NormParams(2.0, 2.0, 1, 0.0), radii),
        rm_ball_seminorm(f, 2.0, 2.0, 0.0, radii),
    ):
        d = rep.diagnostics
        assert d["engine"] == "zero-padded ball sweep" and d["centers"] == "all cell midpoints"
        assert list(d["per_radius"]) == radii and max(d["per_radius"].values()) == rep.value
        # offsets -3..3 and -19..19; the first three and last three centers
        # lose cells at radius 3.5h, every center at 20h
        assert d["offsets"] == {radii[0]: 7, radii[1]: 39}
        assert d["clipped_centers"] == {radii[0]: 6, radii[1]: 16}


def test_zero_extend_equals_padded_restrict():
    rng = np.random.default_rng(3)
    N, pad = 16, 8
    w_small = Window(1, (0.0,), (1.0,), (N,))
    f_small = GridFunction(w_small, rng.normal(size=N))
    w_big = Window(1, (-pad / N,), ((N + pad) / N,), (N + 2 * pad,))
    vals = np.zeros(N + 2 * pad)
    vals[pad : pad + N] = f_small.values
    f_big = GridFunction(w_big, vals)
    params = NormParams(2.0, 2.0, 0, 0.1)
    for m in (2, 4, 8):
        ze = jn_con_norm(
            f_small, params, SearchConfig(side_cells=[m], policy="zero-extend", min_cells_per_cube=1)
        ).value
        re = jn_con_norm(
            f_big, params, SearchConfig(side_cells=[m], policy="restrict", min_cells_per_cube=1)
        ).value
        assert ze == pytest.approx(re, abs=1e-13)


_NORM_PARAMS = st.builds(
    NormParams,
    st.sampled_from([1.0, 2.0, 3.0, INF]),
    st.sampled_from([1.0, 2.0]),
    st.integers(0, 1),
    st.sampled_from([0.0, 0.1, 0.3]),
)


def _both_norms(f, params, search):
    return (
        jn_con_norm(f, params, search).value,
        rm_con_norm(f, params.p, params.q, params.alpha, search).value,
    )


@st.composite
def _shifted_support(draw):
    """A window with a zero margin, a support block inside it, and two
    whole-cell positions of that block, both clear of the margin."""
    n = draw(st.integers(1, 2))
    margin = draw(st.integers(2, 8 if n == 1 else 4))
    size = draw(st.integers(2, 12 if n == 1 else 5))
    slack = draw(st.integers(0, 6 if n == 1 else 3))
    starts = [
        [draw(st.integers(margin, margin + slack)) for _ in range(n)] for _ in range(2)
    ]
    return n, margin, size, 2 * margin + size + slack, starts


@settings(max_examples=60, deadline=None)
@given(_shifted_support(), _NORM_PARAMS, st.integers(0, 10_000))
def test_cube_norms_invariant_under_whole_cell_translation(layout, params, seed):
    n, margin, size, cells, starts = layout
    w = Window(n, (-1.0,) * n, (1.0,) * n, (cells,) * n)
    block = np.random.default_rng(seed).normal(size=(size,) * n)
    values = []
    for start in starts:
        v = np.zeros(w.cells)
        v[tuple(slice(a, a + size) for a in start)] = block
        values.append(GridFunction(w, v))
    # every side fits in the margin, so each tiling meets the support in
    # whole cubes and the translate sees the same cubes at another offset
    search = SearchConfig(side_cells=list(range(1, margin + 1)))
    for a, b in zip(*(_both_norms(f, params, search) for f in values)):
        assert abs(a - b) <= 1e-12 * abs(a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(4, 12),
    st.lists(st.integers(2, 4), min_size=1, max_size=2),
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    _NORM_PARAMS,
    st.integers(0, 10_000),
)
def test_cube_norms_monotone_in_search_set(n, cells, sides, extra, params, seed):
    w = Window(n, (-1.0,) * n, (1.0,) * n, (cells,) * n)
    f = GridFunction(w, np.random.default_rng(seed).normal(size=w.cells))
    small = _both_norms(f, params, SearchConfig(side_cells=sides))
    large = _both_norms(f, params, SearchConfig(side_cells=sides + extra))
    assert large[0] >= small[0] and large[1] >= small[1]


def _tiling_blocks(values, m, offset, policy):
    """One row per cube of the maximal tiling at one offset, row-major over
    the cubes, and per axis the first cube's start cell and the cube count."""
    n = values.ndim
    if policy == "restrict":
        firsts = list(offset)
        counts = [(N - o) // m for N, o in zip(values.shape, offset)]
        if min(counts) <= 0:
            return None, None
        box = values[tuple(slice(o, o + k * m) for o, k in zip(offset, counts))]
    else:
        firsts = [o - m if o else 0 for o in offset]
        counts = [math.ceil((N - f) / m) for N, f in zip(values.shape, firsts)]
        box = np.pad(
            values[tuple(slice(max(f, 0), None) for f in firsts)],
            [(max(-f, 0), f + k * m - N) for f, k, N in zip(firsts, counts, values.shape)],
        )
    split = box.reshape([d for k in counts for d in (k, m)])
    cubes = split.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(-1, m**n)
    return cubes, (firsts, counts)


def per_offset_search(f, p, q, s, alpha, search):
    """The cube search one (side, offset) tiling at a time: the reference the
    per-side engine is checked against.  Returns value, side, offset,
    centers (cell units) and terms of the first maximal tiling."""
    from itertools import product

    from jnlab.lattice import grid_points
    from jnlab.polyproj import ConditioningError, Projector

    w = f.window
    n = w.n
    best = (-1.0, None)
    for m in search.sides(w, 0 if s is None else s):
        try:
            proj = None if s is None else Projector(
                grid_points([np.arange(m) + 0.5] * n), s, (m / 2.0,) * n, m / 2.0
            )
        except ConditioningError:
            continue
        measure = float(m**n) * w.cell_measure
        weight = measure ** (-alpha)
        for offset in product(range(0, m, search.offset_stride), repeat=n):
            block, layout = _tiling_blocks(f.values, m, offset, search.policy)
            if block is None:
                continue
            resid = block if proj is None else proj.residual(block)
            if q == INF:
                qm = np.abs(resid).max(axis=1)
            else:
                qm = ((np.abs(resid) ** q).sum(axis=1) / resid.shape[1]) ** (1.0 / q)
            centers = grid_points([fi + m * np.arange(k) + m / 2.0 for fi, k in zip(*layout)])
            if p == INF:
                terms = weight * qm
                idx = int(np.argmax(terms))
                val = float(terms[idx])
                centers, terms = centers[idx : idx + 1], terms[idx : idx + 1]
            else:
                terms = measure * (weight * qm) ** p
                val = float(terms.sum() ** (1.0 / p))
            if val > best[0]:
                best = (val, (m, offset, centers, terms))
    value, (side, offset, centers, terms) = best
    return value, side, offset, centers, terms


def _engine_search(f, p, q, s, alpha, search):
    if s is None:
        return rm_con_norm(f, p, q, alpha, search)
    return jn_con_norm(f, NormParams(p, q, s, alpha), search)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 2),
    st.data(),
    st.sampled_from(["restrict", "zero-extend"]),
    st.integers(1, 3),
    st.sampled_from([1.0, 2.0, INF]),
    st.sampled_from([1.0, 2.0, INF]),
    st.sampled_from([None, 0, 1]),
    st.integers(0, 10_000),
    st.sampled_from([1, 7, 1 << 14]),
)
def test_engine_matches_per_offset_search(n, data, policy, stride, p, q, s, seed, batch):
    from unittest import mock

    from jnlab import spaces

    cells = tuple(data.draw(st.integers(4, 40 if n == 1 else 14)) for _ in range(n))
    sides = data.draw(st.lists(st.integers(1, min(cells)), min_size=1, max_size=4, unique=True))
    alpha = data.draw(st.sampled_from([0.0, 0.15, -0.2]))
    w = Window(n, (0.0,) * n, tuple(c / 16 for c in cells), cells)
    f = GridFunction(w, np.random.default_rng(seed).normal(size=cells))
    search = SearchConfig(side_cells=sides, offset_stride=stride, policy=policy, min_cells_per_cube=1)
    if not any(m**n >= (1 if s is None else s * n + 1) for m in sides):
        return  # no admissible side at all
    value, *_ = per_offset_search(f, p, q, s, alpha, search)
    chunk_sizes = []  # per side: largest chunk, and the most the batch allows

    def side_plan(cells, m, *rest):
        plan = real_side_plan(cells, m, *rest)
        chunk_sizes.append((max(len(at[0]) for at in plan.chunks), max(1, batch // m**n)))
        return plan

    real_side_plan = spaces._side_plan
    with mock.patch.object(spaces, "_TABLE_BATCH", batch):  # chunks of one cube and more
        with mock.patch.object(spaces, "_side_plan", side_plan):
            rep = _engine_search(f, p, q, s, alpha, search)
    # the memoised side plans are keyed on the batch, so they were cut for it
    assert chunk_sizes and all(size <= most for size, most in chunk_sizes)
    assert abs(rep.value - value) <= 1e-12 * value
    assert rep.recompute() == pytest.approx(rep.value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2),
    st.sampled_from(["restrict", "zero-extend"]),
    st.sampled_from([1.0, 2.0, INF]),
    st.sampled_from([1.0, 2.0, INF]),
    st.sampled_from([None, 0, 1]),
    st.integers(0, 10_000),
)
def test_engine_reports_the_reference_tiling_on_dyadic_defaults(n, policy, p, q, s, seed):
    cells = (64,) if n == 1 else (16, 12)
    w = Window(n, (0.0,) * n, tuple(c / 16 for c in cells), cells)
    f = GridFunction(w, np.random.default_rng(seed).normal(size=cells))
    search = SearchConfig(policy=policy)
    value, side, offset, centers, terms = per_offset_search(f, p, q, s, 0.1, search)
    rep = _engine_search(f, p, q, s, 0.1, search)
    assert rep.argmax_side == side * w.h
    assert rep.argmax_offset == offset
    lower = np.asarray(w.lower)
    assert [c["center"] for c in rep.cubes] == [tuple(lower + c * w.h) for c in centers]
    got = np.asarray([c["term"] for c in rep.cubes])
    # the projection's matrix product sees other batch shapes than the
    # per-offset loop, so terms may move at roundoff when s is not None
    np.testing.assert_allclose(got, terms, rtol=0 if s is None else 1e-13, atol=0)
    assert abs(rep.value - value) <= (0 if s is None else 1e-13) * value


def test_engine_diagnostics():
    w = Window(1, (0.0,), (1.0,), (16,))
    f = GridFunction(w, np.random.default_rng(3).normal(size=16))
    rep = jn_con_norm(f, NormParams(2.0, 2.0, 0, 0.0), SearchConfig(side_cells=[4, 8], offset_stride=2))
    d = rep.diagnostics
    assert d["engine"] == "per-side cube table" and d["sides"] == [4, 8]
    assert d["offsets_evaluated"] == 2 + 4  # offsets 0, 2 and 0, 2, 4, 6
    # start cells whose phase a searched offset uses: 0,2,4,...,12 and 0,2,4,...,8
    assert d["cubes_evaluated"] == 7 + 5
    assert d["skipped_sides"] == [] and d["skip_reasons"] == {}
    full = jn_con_norm(f, NormParams(2.0, 2.0, 0, 0.0), SearchConfig.full(w))
    assert full.diagnostics["cubes_evaluated"] == sum(16 - m + 1 for m in range(1, 17))
    assert full.diagnostics["offsets_evaluated"] == 0  # packings, not tilings


def test_skipped_sides_carry_their_reason(monkeypatch):
    from jnlab import polyproj
    from jnlab.spaces import _cube_projector

    # the degree-1 Gram condition numbers of 2- and 4-cell cubes are 4 and 3.2
    monkeypatch.setattr(polyproj, "COND_LIMIT", 3.5)
    _cube_projector.cache_clear()
    try:
        w = Window(1, (0.0,), (1.0,), (16,))
        f = GridFunction(w, np.random.default_rng(4).normal(size=16))
        rep = jn_con_norm(f, NormParams(2.0, 2.0, 1, 0.0), SearchConfig(side_cells=[2, 4]))
    finally:
        _cube_projector.cache_clear()
    assert rep.diagnostics["skipped_sides"] == [2]
    assert list(rep.diagnostics["skip_reasons"]) == [2]
    assert "condition" in rep.diagnostics["skip_reasons"][2]
    assert rep.argmax_side == pytest.approx(4 * w.h)


def _plan_arrays(plan):
    """Every array a memoised plan holds, its projector's included."""
    if isinstance(plan, np.ndarray):
        return [plan]
    if isinstance(plan, Projector):
        return [plan.phi, plan.gram, plan._solved]
    if isinstance(plan, (tuple, list)):
        return [a for item in plan for a in _plan_arrays(item)]
    return []


def test_memoised_projectors_are_read_only_and_shared():
    from jnlab.spaces import _ball_plan, _ball_sweep, _cube_projector, _side_plan

    w = Window(1, (0.0,), (1.0,), (64,))
    f = GridFunction(w, np.random.default_rng(0).normal(size=64))
    proj = _cube_projector(2, 4, 1)
    assert proj.residual(np.ones((2, proj.phi.shape[0]))).flags.writeable
    assert _ball_sweep(f, 8 * w.h, 1, 2.0)[0].flags.writeable
    memos = [
        (_cube_projector, (2, 4, 1)),
        (_ball_plan, (w.cells, w.h, 8 * w.h, 1)),
        (_ball_plan, ((12, 10), 0.1, 0.35, None)),
        (_side_plan, ((16, 12), 4, "zero-extend", 1, "tiling", 1 << 14)),
        (_side_plan, ((40,), 8, "restrict", 1, "exhaustive", 7)),
    ]
    for memo, key in memos:
        arrays = _plan_arrays(memo(*key))
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        assert memo(*key) is memo(*key)
        assert memo.cache_info().maxsize is not None


def test_search_config_rejects_fractional_sides():
    for sides in ([2.5, 4.9], [4, math.nan], [math.inf], [0], [-2]):
        with pytest.raises(ValueError, match="side_cells"):
            SearchConfig(side_cells=sides)
    cfg = SearchConfig(side_cells=[2.0, np.int64(4)])
    assert cfg.side_cells == [2, 4] and all(type(m) is int for m in cfg.side_cells)
    w = Window(1, (0.0,), (1.0,), (8,))
    assert cfg.sides(w, 0) == [2, 4]


def _pairwise_overlap(centers, side):
    """The double loop the partition check replaced."""
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if np.all(np.abs(np.asarray(centers[i]) - np.asarray(centers[j])) < side * (1 - 1e-12)):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=24))
def test_partition_overlap_rule_matches_pairwise_loop(n, starts):
    from jnlab.spaces import PartitionSpec

    side = 0.25
    centers = sorted({tuple(0.125 * np.asarray(st_[:n]) + side / 2) for st_ in starts})
    cubes = [Cube(c, side) for c in centers]
    if _pairwise_overlap(centers, side):
        with pytest.raises(ValueError, match="disjoint"):
            PartitionSpec(side, (0,) * n, cubes, "restrict")
    else:
        PartitionSpec(side, (0,) * n, cubes, "restrict")


def test_partition_of_many_cubes_is_fast():
    import time

    from jnlab.spaces import PartitionSpec, partition

    w = Window(2, (0.0, 0.0), (1.0, 1.0), (64, 64))
    start = time.perf_counter()
    spec = partition(w, 2, (0, 0))
    assert time.perf_counter() - start < 0.5
    assert len(spec.cubes) == 1024
    overlapping = spec.cubes + [Cube((0.5, 0.5), 2 * w.h)]
    with pytest.raises(ValueError, match="disjoint"):
        PartitionSpec(spec.side, (0, 0), overlapping, "restrict")
    with pytest.raises(ValueError, match="congruent"):
        PartitionSpec(spec.side, (0, 0), spec.cubes[:-1] + [Cube((0.99, 0.99), w.h)], "restrict")


def test_first_maximal_offset_under_rounding_ties():
    # a mirror-symmetric f has mirrored tilings whose term sums differ in the
    # last bits; sum^(1/p) can round them to one value, and then the first
    # offset must win, as in the per-offset loop
    for seed in range(60):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(6, 40))
        half = rng.normal(size=(N + 1) // 2)
        w = Window(1, (0.0,), (1.0,), (N,))
        f = GridFunction(w, np.concatenate([half, half[::-1][N % 2 :]]))
        m = int(rng.integers(2, N // 2 + 1))
        p = float(rng.choice([2.0, 3.0, 1.5]))
        search = SearchConfig(side_cells=[m], min_cells_per_cube=1)
        value, _, offset, _, _ = per_offset_search(f, p, 2.0, None, 0.1, search)
        rep = rm_con_norm(f, p, 2.0, 0.1, search)
        assert (rep.value, rep.argmax_offset) == (value, offset)


@pytest.mark.parametrize("policy", ["restrict", "zero-extend"])
def test_first_maximal_cube_under_exact_ties(policy):
    # m-periodic data repeats every cube of a phase exactly, so under p = inf
    # the tiling's first maximal cube must be the reported one
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    block = np.random.default_rng(5).normal(size=(4, 4))
    f = GridFunction(w, np.tile(block, (4, 4)))
    search = SearchConfig(side_cells=[4], policy=policy)
    for s in (None, 0, 1):
        value, _, offset, centers, _ = per_offset_search(f, INF, 2.0, s, 0.0, search)
        rep = _engine_search(f, INF, 2.0, s, 0.0, search)
        assert rep.argmax_offset == offset
        assert rep.cubes[0]["center"] == tuple(np.asarray(w.lower) + centers[0] * w.h)
