import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jnlab import lattice
from jnlab.lattice import Ball, Cube, GridFunction, Window, check_packing, region_mask
from jnlab.polyproj import MAX_DEGREE, ConditioningError, Polynomial, Projector
from jnlab.spaces import (
    NormParams,
    SearchConfig,
    amalgam_norm,
    jn_ball_seminorm,
    jn_con_norm,
    jn_partition_oracle,
    norm_pair,
    rm_ball_seminorm,
    rm_con_norm,
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
    with pytest.raises(ValueError):
        NormParams(0.5, 2.0, 0, 0.0)


def test_norm_params_s_at_most_the_degree_cap():
    # the same cap as Polynomial and moment_projection
    assert NormParams(2.0, 2.0, MAX_DEGREE, 0.0).s == MAX_DEGREE
    with pytest.raises(ValueError, match=f"s must be at most {MAX_DEGREE}"):
        NormParams(2.0, 2.0, MAX_DEGREE + 1, 0.0)


def test_norm_params_reject_nan_and_infinite_alpha():
    for args in [(math.nan, 2.0, 0, 0.1), (2.0, math.nan, 0, 0.1), (2.0, 2.0, 0, math.nan),
                 (2.0, 2.0, 0, math.inf), (2.0, 2.0, 0, -math.inf)]:
        with pytest.raises(ValueError):
            NormParams(*args)



def test_norm_params_parse_exponents_with_float():
    p = NormParams("inf", "Infinity", 0, "0.25")
    assert (p.p, p.q, p.alpha) == (INF, INF, 0.25)
    assert NormParams(2, 3, 0, 0).q == 3.0
    for args in [(None, 2.0, 0, 0.0), (2.0, [2.0], 0, 0.0), ("two", 2.0, 0, 0.0), (2.0, 2.0, 0, None)]:
        with pytest.raises(ValueError, match="must be a number"):
            NormParams(*args)


_BAD_EXPONENTS = [
    ((math.nan, 2.0, 0.0), "p must be >= 1"), ((0.5, 2.0, 0.0), "p must be >= 1"),
    ((2.0, math.nan, 0.0), "q must be >= 1"), ((2.0, 0.5, 0.0), "q must be >= 1"),
    ((2.0, 2.0, math.nan), "alpha must be finite"), ((2.0, 2.0, math.inf), "alpha must be finite"),
]


@pytest.mark.parametrize("exponents, message", _BAD_EXPONENTS)
def test_riesz_morrey_norms_check_exponents(exponents, message):
    # the NormParams rule; the message is matched because a NaN p can also
    # fail later, in the search, with an unrelated ValueError
    w = Window(1, (0.0,), (1.0,), (32,))
    f = GridFunction.from_callable(w, lambda x: np.sin(5 * x))
    p, q, alpha = exponents
    with pytest.raises(ValueError, match=message):
        rm_con_norm(f, p, q, alpha)
    with pytest.raises(ValueError, match=message):
        rm_ball_seminorm(f, p, q, alpha, [4 * w.h])
    if alpha == 0.0:
        with pytest.raises(ValueError, match=message):
            amalgam_norm(f, p, q, 4 * w.h)


def test_ball_seminorms_need_a_radius():
    w = Window(1, (0.0,), (1.0,), (32,))
    f = GridFunction.from_callable(w, lambda x: np.sin(5 * x))
    with pytest.raises(ValueError, match="radius"):
        jn_ball_seminorm(f, NormParams(2.0, 2.0, 0, 0.0), [])
    with pytest.raises(ValueError, match="radius"):
        rm_ball_seminorm(f, 2.0, 2.0, 0.0, iter(()))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 40), st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),
    st.booleans(), st.integers(0, 10_000),
)
def test_qmean_matches_the_two_temporary_formula(rows, cols, q, padded, seed):
    from jnlab.spaces import _qmean

    rng = np.random.default_rng(seed)
    resid = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    counts = rng.integers(1, cols + 1, size=rows) if padded else None
    if q == INF:
        old = np.abs(resid).max(axis=1)
    else:
        old = ((np.abs(resid) ** q).sum(axis=1) / (cols if counts is None else counts)) ** (1.0 / q)
    assert _qmean(resid, q, counts).tobytes() == old.tobytes()


def test_qmean_allocates_one_batch_sized_temporary():
    import tracemalloc

    from jnlab.spaces import _qmean

    resid = np.random.default_rng(3).normal(size=(256, 256))
    for q in (1.0, 1.5, 2.0, 3.0, INF):
        tracemalloc.start()
        try:
            _qmean(resid, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * resid.nbytes, q


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
            f, params, SearchConfig(side_cells=list(range(1, N + 1)))
        ).value
        assert tiling <= oracle + 1e-12
        assert full == pytest.approx(oracle, abs=1e-12)


def test_mixed_phase_packing_beats_tilings():
    # the supremum over collections includes packings no single-offset tiling sees
    w = Window(1, (0.0,), (5.0,), (5,))
    f = GridFunction(w, np.array([5.0, 1.0, 1.0, 1.0, 7.0]))
    params = NormParams(1.0, 1.0, 0, 0.0)
    til = jn_con_norm(f, params, SearchConfig(side_cells=[2])).value
    exh = jn_con_norm(
        f, params, SearchConfig(side_cells=[2], packings="exhaustive")
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
    r_res = jn_con_norm(f, params, SearchConfig(side_cells=[6], policy="restrict"))
    r_ext = jn_con_norm(f, params, SearchConfig(side_cells=[6], policy="zero-extend"))
    assert r_ext.value >= r_res.value - 1e-14
    assert r_ext.policy == "zero-extend"


def test_2d_norms_smoke():
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    rng = np.random.default_rng(12)
    f = GridFunction(w, rng.normal(size=(16, 16)))
    params = NormParams(2.0, 2.0, 1, 0.05)
    rep = jn_con_norm(f, params, SearchConfig(side_cells=[4, 8]))
    assert rep.value > 0
    assert rep.recompute() == pytest.approx(rep.value, rel=1e-12)
    ball = jn_ball_seminorm(f, params, [4 * w.h])
    assert ball.value > 0


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
        rep = jn_con_norm(f, params, SearchConfig(side_cells=[m]))
        slow = {off: slow_tiling_value(f, m, off, params) for off in np.ndindex(m, m)}
        top = max(v for v in slow.values() if v is not None)
        worst = max(worst, abs(rep.value - top) / top)
        worst = max(worst, abs(rep.value - slow[rep.argmax_offset]) / top)
    assert worst <= 1e-12


def ball_sweep(f, radius, s, q, extra=0):
    """One flavour's ball sweep: q-means, counts and recomputed centers, from
    f's frame padded by the radius's K cells and `extra` more."""
    from jnlab import spaces

    frame = spaces._Frame(f, q, [s], math.ceil(radius / f.window.h) - 1 + extra)
    plan, [(qmeans, redone)] = spaces._ball_sweep(frame, radius, [s])
    return qmeans, plan.counts, redone


def test_ball_sweep_against_slow_reference():
    rng = np.random.default_rng(42)
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    f = GridFunction(w, rng.normal(size=(16, 16)))
    pts = w.midpoints()
    for s, q in [(None, 2.0), (0, 1.5), (1, 2.0)]:
        fast_q = ball_sweep(f, 0.22, s, q)[0]
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
    lattice._MEMO.clear()  # bands of the tiny batch build the plan too
    with mock.patch.object(spaces, "_BALL_BATCH", batch):
        fast, counts, _ = ball_sweep(f, radius, s, q, extra=data.draw(st.integers(0, 3)))
    slow, slow_counts = lstsq_ball_sweep(f, radius, s, q)
    np.testing.assert_array_equal(counts, slow_counts)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(0, 1), st.integers(0, 10_000))
def test_clipped_residual_matches_a_projector_per_row(n, s, seed):
    # a stack of clipped balls solves each row on the points it keeps,
    # exactly as a projector built on those points alone
    from jnlab.lattice import monomials
    from jnlab.polyproj import multi_indices
    from jnlab.spaces import _clipped_gram, _clipped_residual

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(20, n))
    keep = rng.random((5, 20)) < 0.6
    keep[:, : 2 * n + 2] = True
    batch = np.where(keep, rng.normal(size=(5, 20)), 0.0)
    phi = monomials(pts, multi_indices(n, s), None, 0.7)
    gram = _clipped_gram(phi, keep)
    resid = _clipped_residual(batch, phi, keep, gram)
    assert np.all(resid[~keep] == 0.0)
    for r in range(5):
        alone = Projector(pts[keep[r]], s, None, 0.7).residual(batch[r, keep[r]])
        assert np.max(np.abs(resid[r, keep[r]] - alone)) <= 1e-12
    assert np.max(np.abs(_clipped_residual(resid, phi, keep, gram) - resid)) <= 1e-12


def test_clipped_ball_raises_conditioning_error_on_every_call(monkeypatch):
    from jnlab import polyproj
    from jnlab.spaces import _ball_plan

    w = Window(1, (0.0,), (1.0,), (16,))
    f = GridFunction(w, np.random.default_rng(6).normal(size=16))
    radius = 2.5 * w.h
    # degree-1 Gram condition numbers: 2 for the unclipped 5-cell ball, about
    # 10 for the 3 cells a window corner keeps
    monkeypatch.setattr(polyproj, "COND_LIMIT", 5.0)
    lattice._MEMO.clear()
    try:
        for _ in range(2):
            with pytest.raises(ConditioningError):
                ball_sweep(f, radius, 1, 2.0)
        assert not any(key[0] is _ball_plan for key in lattice._MEMO)
        ball_sweep(f, radius, 0, 2.0)  # a constant fits every clipped ball: s = 0 takes the plan of s = None
        assert [key[1] for key in lattice._MEMO if key[0] is _ball_plan] == [(w.cells, w.h, radius, None)]
    finally:
        lattice._MEMO.clear()


def _route_values(kind, cells, rng):
    """Values of one kind: random, random with magnitudes from 1e-4 to 1e4,
    piecewise constant with plateaus, one constant, or 1e6 plus unit noise."""
    if kind == "random":
        return rng.normal(size=cells)
    if kind == "scales":  # small boxes beside large ones, which a prefix-sum difference would lose
        return rng.normal(size=cells) * 10.0 ** rng.integers(-4, 5, size=cells)
    if kind == "plateaus":
        labels = [np.cumsum(rng.random(N) < 0.2) for N in cells]
        levels = rng.normal(size=64)
        return levels[np.add.outer(*labels) % 64 if len(cells) == 2 else labels[0] % 64]
    if kind == "constant":
        return np.full(cells, rng.normal())
    return 1e6 + rng.normal(size=cells)


def _stable_qmean(x, s, q):
    """The q-mean of x (s = None) or of its residual after the mean (s = 0),
    the mean taken after shifting by x[0]: two passes over exactly
    representable differences where x is near constant."""
    if s == 0:
        x = x - x[0]
        x = x - x.mean()
    return float(np.mean(np.abs(x) ** q) ** (1 / q))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 2),
    st.data(),
    st.sampled_from(["restrict", "zero-extend"]),
    st.sampled_from([None, 0]),
    st.sampled_from([1.5, 2.0]),
    st.sampled_from(["random", "scales", "plateaus", "constant", "offset"]),
    st.integers(0, 10_000),
)
def test_moment_route_matches_projector_route(n, data, policy, s, q, kind, seed):
    from unittest import mock

    from jnlab import spaces

    cells = tuple(data.draw(st.integers(4, 40 if n == 1 else 14)) for _ in range(n))
    rng = np.random.default_rng(seed)
    w = Window(n, (0.0,) * n, tuple(c / 16 for c in cells), cells)
    f = GridFunction(w, _route_values(kind, cells, rng))
    eps = np.finfo(float).eps

    def check(fast, slow, sums, k, stable):
        # k q-mean^q is the sum S of |f|^q (s = None) or the residual energy
        # E (s = 0); each route's error in it is at most about k eps times S
        # (s = None) or the sum of f^2 (s = 0), the sums each position reads
        # on the moment route
        assert np.all(np.abs(k * fast**q - k * slow**q) <= 4 * k * eps * sums[-1])
        # where E <= 1e-6 times the sum of f^2 the position is recomputed,
        # so none loses more than about 20 eps * 1e6 of E to cancellation
        assert np.all(np.abs(fast - stable) <= 1e-8 * stable)

    for m in data.draw(st.lists(st.integers(1, min(cells)), min_size=1, max_size=3, unique=True)):
        values = spaces._padded(f.values, spaces._side_plan(cells, m, policy, 1, "tiling").pad)
        moments, _ = spaces._moments(values, [s], q)
        if moments is None:  # s = 0 at q = 1.5 keeps the projector route
            continue
        sums = spaces._box_sums([moments], m, 0, values.shape)
        proj = None if s is None else spaces._cube_projector(n, m, s)
        fast = spaces._qmean_table(values, proj, m, q, sums)[0]
        slow = spaces._qmean_table(values, proj, m, q)[0]
        at = np.ix_(*(np.arange(N - m + 1) for N in values.shape))  # every start cell
        stable = np.vectorize(
            lambda *x: _stable_qmean(values[tuple(slice(c, c + m) for c in x)].ravel(), s, q)
        )(*at)
        check(fast[at], slow[at], [a[at] for a in sums], m**n, stable)

    radius = data.draw(st.floats(2.001, 1.5 * max(cells))) / 16
    fast, counts, redone = ball_sweep(f, radius, s, q)
    with mock.patch.object(spaces, "_moments", lambda values, flavours, q: (None, dict.fromkeys(flavours))):
        slow, _, none = ball_sweep(f, radius, s, q)
    assert none is None and (redone is None) == (s == 0 and q != 2)
    plan = spaces._ball_plan(cells, w.h, radius, s)
    sums = plan.sums([spaces._padded(np.abs(f.values) ** (2 if s == 0 else q), plan.pad)[None]], plan.pad)
    idx = np.stack(np.unravel_index(np.arange(w.cell_count), cells), axis=1)
    balls = [f.flat[((idx - c) ** 2).sum(axis=1) * w.h**2 < radius**2] for c in idx]
    check(fast, slow, sums, counts, np.array([_stable_qmean(x, s, q) for x in balls]))


@pytest.mark.parametrize("n", [1, 2])
def test_constant_gives_zero_through_the_fallback(n):
    cells = (64,) if n == 1 else (16, 12)
    w = Window(n, (0.0,) * n, tuple(c / 16 for c in cells), cells)
    f = GridFunction(w, np.full(cells, 0.1))  # no power of two: the sums round
    params = NormParams(2.0, 2.0, 0, 0.1)
    rep = jn_con_norm(f, params)
    assert rep.value == 0.0 and not rep.terms.any()
    d = rep.diagnostics
    assert d["engine"] == "per-side moment table"
    assert d["fallback_positions"] == d["table_positions"] > 0
    rep = jn_ball_seminorm(f, params, [3.5 * w.h, 6 * w.h])
    assert rep.value == 0.0
    assert rep.diagnostics["fallback_positions"] == rep.diagnostics["table_positions"] == 2 * w.cell_count


def test_ball_norm_diagnostics():
    w = Window(1, (0.0,), (1.0,), (16,))
    f = GridFunction(w, np.random.default_rng(3).normal(size=16))
    radii = [3.5 * w.h, 20 * w.h]
    for rep, engine, table in (
        (jn_ball_seminorm(f, NormParams(2.0, 2.0, 1, 0.0), radii), "projector ball sweep", 0),
        (jn_ball_seminorm(f, NormParams(2.0, 1.5, 0, 0.0), radii), "projector ball sweep", 0),
        (jn_ball_seminorm(f, NormParams(2.0, 2.0, 0, 0.0), radii), "moment ball sweep", 32),
        (rm_ball_seminorm(f, 2.0, 2.0, 0.0, radii), "moment ball sweep", 32),
        (rm_ball_seminorm(f, 2.0, INF, 0.0, radii), "projector ball sweep", 0),
    ):
        d = rep.diagnostics
        assert d["engine"] == engine and d["centers"] == "all cell midpoints"
        assert d["table_positions"] == table and d["fallback_positions"] == 0
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
            f_small, params, SearchConfig(side_cells=[m], policy="zero-extend")
        ).value
        re = jn_con_norm(
            f_big, params, SearchConfig(side_cells=[m], policy="restrict")
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


def first_near_max(values):
    """The written tie rule: the first value >= max * (1 - 1e-12)."""
    top = max(values)
    return next(i for i, v in enumerate(values) if v >= top * (1 - 1e-12))


def per_offset_search(f, p, q, s, alpha, search):
    """The cube search one (side, offset) tiling at a time: the reference the
    per-side engine is checked against.  Returns value, side, offset,
    centers (cell units) and terms of the tiling the tie rule picks among
    the candidates, sides in search order, offsets in product order."""
    from itertools import product

    from jnlab.lattice import grid_points
    from jnlab.polyproj import ConditioningError, Projector

    w = f.window
    n = w.n
    found = []
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
                idx = first_near_max(terms)
                val = float(terms.max())
                centers, terms = centers[idx : idx + 1], terms[idx : idx + 1]
            else:
                terms = measure * (weight * qm) ** p
                val = float(terms.sum() ** (1.0 / p))
            found.append((val, m, offset, centers, terms))
    return found[first_near_max([c[0] for c in found])]


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
    search = SearchConfig(side_cells=sides, offset_stride=stride, policy=policy)
    if not any(m**n >= (1 if s is None else s * n + 1) for m in sides):
        return  # no admissible side at all
    value, *_ = per_offset_search(f, p, q, s, alpha, search)
    chunk_sizes = []  # per chunk of cubes computed: its cubes, and the most the batch allows

    def qmean(batch_rows, *rest):
        chunk_sizes.append((batch_rows.shape[0], max(1, batch // batch_rows.shape[1])))
        return real_qmean(batch_rows, *rest)

    real_qmean = spaces._qmean
    with mock.patch.object(spaces, "_TABLE_BATCH", batch):  # chunks of one cube and more
        with mock.patch.object(spaces, "_qmean", qmean):
            rep = _engine_search(f, p, q, s, alpha, search)
    # the chunks are cut for the batch, and they compute every start cell on
    # the projector route and every marked one on the moment route
    d = rep.diagnostics
    computed = d["fallback_positions"] if d["engine"] == "per-side moment table" else d["cubes_evaluated"]
    assert sum(size for size, _ in chunk_sizes) == computed
    assert all(size <= most for size, most in chunk_sizes)
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
# two offsets of side 64 whose values differ by 1.8e-15: the tie rule picks
# the first on both routes
@example(n=1, policy="zero-extend", p=1.0, q=INF, s=0, seed=3096)
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
    assert np.array_equal(rep.centers, lower + centers * w.h)
    got = rep.terms
    # the projection's matrix product sees other batch shapes than the
    # per-offset loop, and box sums add in another order than a cube's
    # own sum, so terms move at roundoff on both routes; only s = None at
    # q = inf reads the same cells in the same order
    rtol = 0 if s is None and q == INF else 1e-13
    np.testing.assert_allclose(got, terms, rtol=rtol, atol=0)
    assert abs(rep.value - value) <= rtol * value


def test_engine_diagnostics():
    w = Window(1, (0.0,), (1.0,), (16,))
    f = GridFunction(w, np.random.default_rng(3).normal(size=16))
    rep = jn_con_norm(f, NormParams(2.0, 2.0, 0, 0.0), SearchConfig(side_cells=[4, 8], offset_stride=2))
    d = rep.diagnostics
    assert d["engine"] == "per-side moment table" and d["sides"] == [4, 8]
    # every start cell of each side: 13 and 9
    assert d["table_positions"] == 13 + 9 and d["fallback_positions"] == 0
    assert d["offsets_evaluated"] == 2 + 4  # offsets 0, 2 and 0, 2, 4, 6
    # every start cell is evaluated, whether or not a searched offset reads it
    assert d["cubes_evaluated"] == 13 + 9
    assert d["skipped_sides"] == [] and d["skip_reasons"] == {}
    full = jn_con_norm(f, NormParams(2.0, 2.0, 0, 0.0), SearchConfig.full(w))
    assert full.diagnostics["cubes_evaluated"] == sum(16 - m + 1 for m in range(1, 17))
    assert full.diagnostics["offsets_evaluated"] == 0  # packings, not tilings
    for params, search in [(NormParams(2.0, 1.5, 0, 0.0), None), (NormParams(2.0, 2.0, 1, 0.0), None)]:
        d = jn_con_norm(f, params, search).diagnostics
        assert d["engine"] == "per-side projector table" and d["table_positions"] == 0
    assert rm_con_norm(f, 2.0, 1.5, 0.0).diagnostics["engine"] == "per-side moment table"
    assert rm_con_norm(f, 2.0, INF, 0.0).diagnostics["engine"] == "per-side projector table"


# Per (n, s, q, policy, offset_stride), recorded bit for bit: the jn_con and
# rm_con values of norm_pair as float.hex with a digest of their terms, then
# per radius the jn_ball and rm_ball values as float.hex and digests of the
# two ball sweeps' per-center q-means.  s = 1, q = inf and jn at s = 0,
# q = 1.5 take the routes that gather cubes and balls cell by cell.  The
# engine tests compare at rtol 1e-12 and a report value is a sum over many
# centers, so a change in the order a gathered row is summed shows here first.
_PINNED_ROUTES = {
    (1, 0, 1.5, "restrict", 1): (
        "0x1.2f65bf3b8cda8p+1", "2e3b848bc1bd9263", "0x1.60a528c939879p+1", "79e899dedf69c6af",
        "0x1.2ae3ae6984a0bp+1", "0x1.4b207b1652f52p+1", "53f64feaaeb67f73", "bea0dd30d278cd74",
        "0x1.23d743a47621ap+1", "0x1.3a76d94880e4cp+1", "eb4109ed18f2be02", "78801ef19ca376fe",
    ),
    (1, 0, 1.5, "zero-extend", 1): (
        "0x1.31d0d06d7f601p+1", "25f6d95f2dafa58d", "0x1.6358bf10570bdp+1", "80e13fb3c2c72f33",
        "0x1.2ae3ae6984a0bp+1", "0x1.4b207b1652f52p+1", "53f64feaaeb67f73", "bea0dd30d278cd74",
        "0x1.23d743a47621ap+1", "0x1.3a76d94880e4cp+1", "eb4109ed18f2be02", "78801ef19ca376fe",
    ),
    (1, 0, INF, "restrict", 1): (
        "0x1.7ff05c8298cc4p+2", "58afd8f0da8d8d56", "0x1.658bbe4631b81p+2", "007015d27c4dd89c",
        "0x1.175167cec691bp+2", "0x1.3807a6fde3feep+2", "f1df98fa8c9f1092", "6593030522e76983",
        "0x1.2f9f9f01103a5p+2", "0x1.4ab1e5646ac2fp+2", "a23601c8ab3ccbcd", "fc7111798ce51f6b",
    ),
    (1, 0, INF, "zero-extend", 1): (
        "0x1.db25ba2ffc057p+2", "00f78fe0f889d725", "0x1.cebcb2778bfaep+2", "3a0c1b5949627e20",
        "0x1.175167cec691bp+2", "0x1.3807a6fde3feep+2", "f1df98fa8c9f1092", "6593030522e76983",
        "0x1.2f9f9f01103a5p+2", "0x1.4ab1e5646ac2fp+2", "a23601c8ab3ccbcd", "fc7111798ce51f6b",
    ),
    (1, 1, 1.5, "restrict", 1): (
        "0x1.16546cb04e356p+1", "9a371274c99c77a3", "0x1.60a528c939879p+1", "79e899dedf69c6af",
        "0x1.11f6e40f96ed2p+1", "0x1.4b207b1652f52p+1", "bc99c7ba413ec43e", "bea0dd30d278cd74",
        "0x1.1516e01db5df1p+1", "0x1.3a76d94880e4cp+1", "568b28be2faeff85", "78801ef19ca376fe",
    ),
    (1, 1, 1.5, "zero-extend", 1): (
        "0x1.1baaf0645a3e9p+1", "c1c63fe37c6c5e75", "0x1.6358bf10570bdp+1", "80e13fb3c2c72f33",
        "0x1.11f6e40f96ed2p+1", "0x1.4b207b1652f52p+1", "bc99c7ba413ec43e", "bea0dd30d278cd74",
        "0x1.1516e01db5df1p+1", "0x1.3a76d94880e4cp+1", "568b28be2faeff85", "78801ef19ca376fe",
    ),
    (1, 1, INF, "restrict", 1): (
        "0x1.80ea4d635f58ap+2", "fa25184cde2eae6a", "0x1.658bbe4631b81p+2", "007015d27c4dd89c",
        "0x1.0052a6d873a8ap+2", "0x1.3807a6fde3feep+2", "a6394c622b830e6d", "6593030522e76983",
        "0x1.1f8ec139eea88p+2", "0x1.4ab1e5646ac2fp+2", "8e148b3736f6625a", "fc7111798ce51f6b",
    ),
    (1, 1, INF, "zero-extend", 1): (
        "0x1.ecb6ee1841bedp+2", "c5a18129baa360f4", "0x1.cebcb2778bfaep+2", "3a0c1b5949627e20",
        "0x1.0052a6d873a8ap+2", "0x1.3807a6fde3feep+2", "a6394c622b830e6d", "6593030522e76983",
        "0x1.1f8ec139eea88p+2", "0x1.4ab1e5646ac2fp+2", "8e148b3736f6625a", "fc7111798ce51f6b",
    ),
    (2, 0, 1.5, "restrict", 1): (
        "0x1.9bae3ebb561fbp+0", "9c96e4ebcfe7b7a4", "0x1.db4f8500497e9p+0", "c444a13c15bae90b",
        "0x1.70762e8eb5112p+0", "0x1.7893ecc1f634dp+0", "274372251945389b", "06129e365c930d2a",
        "0x1.52b3cf97c3be1p+0", "0x1.55beb5f11158cp+0", "830e189cabe18f6f", "a2e1b3e51b9a9959",
    ),
    (2, 0, 1.5, "zero-extend", 1): (
        "0x1.a5ae9ece6fc4dp+0", "1da9b8e4852b7313", "0x1.db4f8500497e9p+0", "c444a13c15bae90b",
        "0x1.70762e8eb5112p+0", "0x1.7893ecc1f634dp+0", "274372251945389b", "06129e365c930d2a",
        "0x1.52b3cf97c3be1p+0", "0x1.55beb5f11158cp+0", "830e189cabe18f6f", "a2e1b3e51b9a9959",
    ),
    (2, 0, INF, "restrict", 1): (
        "0x1.d86500f0cabc4p+1", "3f6486e66576986e", "0x1.d52d3136198bdp+1", "4cc626f66f32bd41",
        "0x1.dd4decf5c5f21p+1", "0x1.e1f97cd4351c8p+1", "12fe94e61f34c4a9", "cf04ae3d23fe4810",
        "0x1.eaef46562ecf7p+1", "0x1.ec0c862de3946p+1", "aaae2b324e5ae801", "471748b51c335a98",
    ),
    (2, 0, INF, "zero-extend", 1): (
        "0x1.a334a55f9ce44p+2", "500e68206bc3f5d4", "0x1.a594a7d24cb16p+2", "0e04f1161da45673",
        "0x1.dd4decf5c5f21p+1", "0x1.e1f97cd4351c8p+1", "12fe94e61f34c4a9", "cf04ae3d23fe4810",
        "0x1.eaef46562ecf7p+1", "0x1.ec0c862de3946p+1", "aaae2b324e5ae801", "471748b51c335a98",
    ),
    (2, 1, 1.5, "restrict", 1): (
        "0x1.6cf33465219a4p+0", "9a52e2fb81c6fa7c", "0x1.db4f8500497e9p+0", "c444a13c15bae90b",
        "0x1.651ad57fe4efcp+0", "0x1.7893ecc1f634dp+0", "171540d8af8b1848", "06129e365c930d2a",
        "0x1.4d04efae82c8fp+0", "0x1.55beb5f11158cp+0", "af5b41d07c5c4489", "a2e1b3e51b9a9959",
    ),
    (2, 1, 1.5, "zero-extend", 1): (
        "0x1.6fe0410c6545cp+0", "5be080ff325d9e32", "0x1.db4f8500497e9p+0", "c444a13c15bae90b",
        "0x1.651ad57fe4efcp+0", "0x1.7893ecc1f634dp+0", "171540d8af8b1848", "06129e365c930d2a",
        "0x1.4d04efae82c8fp+0", "0x1.55beb5f11158cp+0", "af5b41d07c5c4489", "a2e1b3e51b9a9959",
    ),
    (2, 1, INF, "restrict", 1): (
        "0x1.b6c7d8d8b3ffep+1", "1c28dfbf40246151", "0x1.d52d3136198bdp+1", "4cc626f66f32bd41",
        "0x1.d703264e589cbp+1", "0x1.e1f97cd4351c8p+1", "c768f89d654ed066", "cf04ae3d23fe4810",
        "0x1.e260aa7daf826p+1", "0x1.ec0c862de3946p+1", "67fd275255ead19f", "471748b51c335a98",
    ),
    (2, 1, INF, "zero-extend", 1): (
        "0x1.9a1a3cec0a3f4p+2", "72be84fd2132a5bd", "0x1.a594a7d24cb16p+2", "0e04f1161da45673",
        "0x1.d703264e589cbp+1", "0x1.e1f97cd4351c8p+1", "c768f89d654ed066", "cf04ae3d23fe4810",
        "0x1.e260aa7daf826p+1", "0x1.ec0c862de3946p+1", "67fd275255ead19f", "471748b51c335a98",
    ),
    (1, 1, 1.5, "restrict", 2): (
        "0x1.16546cb04e356p+1", "9a371274c99c77a3", "0x1.60a528c939879p+1", "79e899dedf69c6af",
        "0x1.11f6e40f96ed2p+1", "0x1.4b207b1652f52p+1", "bc99c7ba413ec43e", "bea0dd30d278cd74",
        "0x1.1516e01db5df1p+1", "0x1.3a76d94880e4cp+1", "568b28be2faeff85", "78801ef19ca376fe",
    ),
    (2, 0, INF, "zero-extend", 2): (
        "0x1.a296d3ce4b404p+2", "24d1a759bdd7e102", "0x1.a594a7d24cb16p+2", "0e04f1161da45673",
        "0x1.dd4decf5c5f21p+1", "0x1.e1f97cd4351c8p+1", "12fe94e61f34c4a9", "cf04ae3d23fe4810",
        "0x1.eaef46562ecf7p+1", "0x1.ec0c862de3946p+1", "aaae2b324e5ae801", "471748b51c335a98",
    ),
}


def _digest(a) -> str:
    return hashlib.blake2b(np.asarray(a).tobytes(), digest_size=8).hexdigest()


@pytest.mark.parametrize("case", list(_PINNED_ROUTES), ids=lambda c: "-".join(map(str, c)))
def test_projector_routes_are_pinned_bit_for_bit(case):
    from jnlab import spaces

    n, s, q, policy, stride = case
    cells = (128,) if n == 1 else (24, 20)
    w = Window(n, (0.0,) * n, tuple(c / 16 for c in cells), cells)
    f = GridFunction(w, np.random.default_rng(5).normal(size=cells))
    radii = [3.5 * w.h, 6 * w.h]
    reps = norm_pair(f, NormParams(2.0, q, s, 0.1), SearchConfig(offset_stride=stride, policy=policy), radii)
    got = [x for name in ("jn_con", "rm_con") for x in (reps[name].value.hex(), _digest(reps[name].terms))]
    frame = spaces._Frame(f, q, [s, None], math.ceil(radii[-1] / w.h) - 1)
    for r in radii:
        got += [reps[name].diagnostics["per_radius"][r].hex() for name in ("jn_ball", "rm_ball")]
        got += [_digest(qmeans) for qmeans, _ in spaces._ball_sweep(frame, r, [s, None])[1]]
    assert tuple(got) == _PINNED_ROUTES[case]


def test_skipped_sides_carry_their_reason(monkeypatch):
    from jnlab import polyproj
    from jnlab.spaces import _cube_projector

    # the degree-1 Gram condition numbers of 2- and 4-cell cubes are 4 and 3.2
    monkeypatch.setattr(polyproj, "COND_LIMIT", 3.5)
    lattice._MEMO.clear()
    try:
        w = Window(1, (0.0,), (1.0,), (16,))
        f = GridFunction(w, np.random.default_rng(4).normal(size=16))
        rep = jn_con_norm(f, NormParams(2.0, 2.0, 1, 0.0), SearchConfig(side_cells=[2, 4]))
        assert [key[1] for key in lattice._MEMO if key[0] is _cube_projector] == [(1, 4, 1)]
    finally:
        lattice._MEMO.clear()
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
    from jnlab.spaces import _ball_plan, _cube_projector, _side_plan

    w = Window(1, (0.0,), (1.0,), (64,))
    f = GridFunction(w, np.random.default_rng(0).normal(size=64))
    proj = _cube_projector(2, 4, 1)
    assert proj.residual(np.ones((2, proj.phi.shape[0]))).flags.writeable
    assert ball_sweep(f, 8 * w.h, 1, 2.0)[0].flags.writeable
    memos = [
        (_cube_projector, (2, 4, 1)),
        (_ball_plan, (w.cells, w.h, 8 * w.h, 1)),
        (_ball_plan, ((12, 10), 0.1, 0.35, None)),
        (_side_plan, ((16, 12), 4, "zero-extend", 1, "tiling")),
        (_side_plan, ((40,), 8, "restrict", 1, "exhaustive")),
    ]
    for memo, key in memos:
        arrays = _plan_arrays(memo(*key))
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        assert memo(*key) is memo(*key)
        assert (memo, key) in lattice._MEMO
    assert lattice._MEMO.held <= lattice._MEMO_BYTES


def test_search_config_rejects_fractional_sides():
    for sides in ([2.5, 4.9], [4, math.nan], [math.inf], [0], [-2]):
        with pytest.raises(ValueError, match="side_cells"):
            SearchConfig(side_cells=sides)
    cfg = SearchConfig(side_cells=[2.0, np.int64(4)])
    assert cfg.side_cells == [2, 4] and all(type(m) is int for m in cfg.side_cells)
    w = Window(1, (0.0,), (1.0,), (8,))
    assert cfg.sides(w, 0) == [2, 4]


def _pairwise_overlap(centers, side):
    """The double loop the packing check replaced."""
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if np.all(np.abs(np.asarray(centers[i]) - np.asarray(centers[j])) < side * (1 - 1e-12)):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=24))
@example(n=2, starts=[])  # an empty collection is a packing
def test_partition_overlap_rule_matches_pairwise_loop(n, starts):
    side = 0.25
    centers = sorted({tuple(0.125 * np.asarray(st_[:n]) + side / 2) for st_ in starts})
    cubes = [Cube(c, side) for c in centers]
    if _pairwise_overlap(centers, side):
        with pytest.raises(ValueError, match="disjoint"):
            check_packing(cubes, side, "tiling")
    else:
        check_packing(cubes, side, "tiling")


def test_packing_of_fewer_than_two_cubes_checks_the_side_only():
    side = 0.25
    check_packing([], side, "tiling")
    check_packing([Cube((0.0, 0.0), side)], side, "tiling")
    with pytest.raises(ValueError, match="congruent"):
        check_packing([Cube((0.0, 0.0), 2 * side)], side, "tiling")


def test_partition_of_many_cubes_is_fast():
    import time

    # the 1,024 side-2 cubes that tile a 64 x 64 window at offset 0
    side = 2 / 64
    cubes = [Cube(tuple(side * (np.asarray(ij) + 0.5)), side) for ij in np.ndindex(32, 32)]
    start = time.perf_counter()
    check_packing(cubes, side, "tiling")
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="disjoint"):
        check_packing(cubes + [Cube((0.5, 0.5), side)], side, "tiling")
    with pytest.raises(ValueError, match="congruent"):
        check_packing(cubes[:-1] + [Cube((0.99, 0.99), side / 2)], side, "tiling")


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
        search = SearchConfig(side_cells=[m])
        value, _, offset, _, _ = per_offset_search(f, p, 2.0, None, 0.1, search)
        rep = rm_con_norm(f, p, 2.0, 0.1, search)
        # the box sums add in another order than the loop's, so the value
        # moves at roundoff; the tie rule keeps the offset
        assert rep.argmax_offset == offset
        assert abs(rep.value - value) <= 1e-13 * value


@pytest.mark.parametrize("s", [None, 0, 1])
def test_first_radius_under_rounding_ties(s):
    # every ball of these radii holds the whole window, so the radii tie in
    # exact arithmetic and differ at most in the last bits of their sums;
    # the first radius given must win
    w = Window(1, (0.0,), (1.0,), (32,))
    radii = [40 * w.h, 72 * w.h, 56 * w.h]
    for seed in range(40):
        f = GridFunction(w, np.random.default_rng(seed).normal(size=32))
        if s is None:
            rep = rm_ball_seminorm(f, 2.0, 2.0, 0.1, radii)
        else:
            rep = jn_ball_seminorm(f, NormParams(2.0, 2.0, s, 0.1), radii)
        assert rep.argmax_side == radii[0]
        assert rep.value == rep.diagnostics["per_radius"][radii[0]]


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
        assert np.array_equal(rep.centers[0], np.asarray(w.lower) + centers[0] * w.h)


# --- one frame per function: the jn/rm pair ----------------------------------


def _assert_same_report(a, b):
    """Two reports with the same bits: value, argmax, tiling and diagnostics."""
    assert (a.name, a.value.hex(), a.p, a.q, a.s, a.alpha) == (b.name, b.value.hex(), b.p, b.q, b.s, b.alpha)
    assert (a.argmax_side, a.argmax_offset, a.policy) == (b.argmax_side, b.argmax_offset, b.policy)
    assert a.grid_cells == b.grid_cells
    assert a.centers.tobytes() == b.centers.tobytes() and a.centers.shape == b.centers.shape
    assert a.terms.tobytes() == b.terms.tobytes() and a.terms.shape == b.terms.shape
    assert a.diagnostics == b.diagnostics


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 2),
    st.data(),
    st.sampled_from(["restrict", "zero-extend"]),
    st.sampled_from([2.0, 3.0, INF]),
    st.sampled_from([2.0, 3.0, INF]),
    st.integers(0, 1),
    st.sampled_from(["random", "scales", "plateaus", "constant", "offset"]),
    st.integers(0, 10_000),
)
def test_norm_pair_equals_the_four_single_calls(n, data, policy, p, q, s, kind, seed):
    from jnlab.spaces import norm_pair

    cells = tuple(data.draw(st.integers(4, 40 if n == 1 else 14)) for _ in range(n))
    w = Window(n, (0.0,) * n, tuple(c / 16 for c in cells), cells)
    f = GridFunction(w, _route_values(kind, cells, np.random.default_rng(seed)))
    # radii from just above 2h to past the window, so the frame's padding
    # comes from the balls or from the zero-extended cubes
    radii = [r / 16 for r in data.draw(st.lists(st.floats(2.001, 1.5 * max(cells)), min_size=1, max_size=3))]
    params = NormParams(p, q, s, 0.1)
    exhaustive = n == 1 and policy == "restrict" and data.draw(st.booleans())
    search = SearchConfig(policy=policy, packings="exhaustive" if exhaustive else "tiling")
    pair = norm_pair(f, params, search, radii)
    assert list(pair) == ["jn_con", "rm_con", "jn_ball", "rm_ball"]
    _assert_same_report(pair["jn_con"], jn_con_norm(f, params, search))
    _assert_same_report(pair["rm_con"], rm_con_norm(f, p, q, 0.1, search))
    _assert_same_report(pair["jn_ball"], jn_ball_seminorm(f, params, radii))
    _assert_same_report(pair["rm_ball"], rm_ball_seminorm(f, p, q, 0.1, radii))


def test_norm_pair_builds_one_moment_stack(monkeypatch):
    from jnlab import spaces

    w = Window(1, (0.0,), (1.0,), (64,))
    f = GridFunction(w, np.random.default_rng(8).normal(size=64))
    radii = [3.5 * w.h, 9 * w.h, 20 * w.h]
    built = []
    real = spaces._moments
    monkeypatch.setattr(spaces, "_moments", lambda *args: built.append(real(*args)) or built[-1])
    spaces.norm_pair(f, NormParams(2.0, 2.0, 0, 0.1), SearchConfig(policy="zero-extend"), radii)
    # one stack, f and f^2 (rm at q = 2 reads the f^2 row), padded once by
    # the larger of 63 zeros for the zero-extended side 64 and K = 19 for
    # the largest radius
    [(stack, rows)] = built
    assert stack.shape == (2, 64 + 2 * 63)
    assert rows == {0: slice(0, 2), None: slice(-1, None)}
    built.clear()
    spaces.norm_pair(f, NormParams(2.0, 3.0, 0, 0.1), None, radii)
    [(stack, rows)] = built
    # |f|^3 alone, as jn at q = 3 takes the projector route; restrict pads
    # nothing, so the balls' K = 19 sets the padding
    assert stack.shape == (1, 64 + 2 * 19)
    assert rows == {0: None, None: slice(-1, None)}
    # the ball seminorms need a radius: none given, or an empty list
    with pytest.raises(TypeError, match="radii"):
        spaces.norm_pair(f, NormParams(2.0, 2.0, 0, 0.1), None)
    with pytest.raises(ValueError, match="at least one radius"):
        spaces.norm_pair(f, NormParams(2.0, 2.0, 0, 0.1), None, [])


def test_square_row_is_shared_bit_for_bit():
    # rm at q = 2 reads the f^2 row of jn's moments: |f| ** 2 must be f * f
    rng = np.random.default_rng(2)
    x = rng.normal(size=4096) * 10.0 ** rng.integers(-200, 200, size=4096)
    x = np.concatenate([x, [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1.3e154, -1.3e154, np.finfo(float).max]])
    with np.errstate(over="ignore", under="ignore"):
        assert np.abs(x).__pow__(2.0).tobytes() == (x * x).tobytes()
        assert (np.abs(x) ** 2.0).tobytes() == np.square(x).tobytes()


def test_pair_keeps_one_ball_plan_per_radius():
    from jnlab.spaces import _ball_plan, norm_pair

    w = Window(1, (0.0,), (1.0,), (64,))
    f = GridFunction(w, np.random.default_rng(9).normal(size=64))
    radii = [3.5 * w.h, 9 * w.h, 20 * w.h]
    lattice._MEMO.clear()
    try:
        norm_pair(f, NormParams(2.0, 2.0, 0, 0.1), None, radii)
        keys = [key[1] for key in lattice._MEMO if key[0] is _ball_plan]
        assert keys == [(w.cells, w.h, r, None) for r in radii]
        norm_pair(f, NormParams(2.0, 2.0, 1, 0.1), None, radii)  # s = 1 adds its own projector plans
        keys = [key[1] for key in lattice._MEMO if key[0] is _ball_plan]
        assert keys == [(w.cells, w.h, r, None) for r in radii] + [(w.cells, w.h, r, 1) for r in radii]
    finally:
        lattice._MEMO.clear()


def test_cube_diagnostics_report_the_largest_gram_condition():
    from jnlab.spaces import _cube_projector

    w = Window(2, (0.0, 0.0), (1.0, 1.0), (16, 16))
    f = GridFunction(w, np.random.default_rng(10).normal(size=(16, 16)))
    for s in (0, 1, 2):
        rep = jn_con_norm(f, NormParams(2.0, 2.0, s, 0.1))
        want = max(np.linalg.cond(_cube_projector(2, m, s).gram) for m in rep.diagnostics["sides"])
        assert rep.diagnostics["gram_condition_max"] == want
        assert (want == 1.0) == (s == 0)
        assert "gram_condition_max" not in rep.csv_row()
    rep = rm_con_norm(f, 2.0, 2.0, 0.1)
    assert rep.diagnostics["gram_condition_max"] is None
    assert list(rep.csv_row()) == [
        "norm_name", "p", "q", "s", "alpha", "value", "argmax_side", "argmax_offset", "grid_cells", "policy",
    ]


def _exhaustive_loop(c, m, p):
    """The cell-by-cell packing DP that the block form replaced."""
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


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.integers(1, 12),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.sampled_from(["random", "ties", "sparse"]),
    st.integers(0, 10_000),
)
def test_exhaustive_blocks_match_the_cell_loop(data, m, p, kind, seed):
    from jnlab.spaces import _exhaustive_side

    rng = np.random.default_rng(seed)
    size = data.draw(st.integers(1, 60))
    if kind == "random":
        c = rng.random(size)
    elif kind == "ties":  # few distinct values, so candidates tie with the running best
        c = rng.integers(0, 3, size) * 0.5
    else:
        c = np.where(rng.random(size) < 0.2, rng.random(size), 0.0)
    value, positions = _exhaustive_side(c, m, p)
    ref_value, ref_positions = _exhaustive_loop(c, m, p)
    assert value.hex() == ref_value.hex() and positions == ref_positions
