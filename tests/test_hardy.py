import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnlab.lattice import Cube, GridFunction, Window, annulus, moments, monomials, region_mask, region_measure
from jnlab.polyproj import Projector, dual_basis, multi_indices
from jnlab.spaces import NormParams, jn_con_norm
from jnlab.czkernel import apply_truncated, hilbert_kernel, kernel_transpose
from jnlab.hardy import (
    CertificationError,
    MoleculeRecord,
    ParameterError,
    WindowMismatchError,
    ZeroAtomError,
    _annulus_level,
    _annulus_levels,
    abel_transform,
    decompose_molecule,
    epsilon_window,
    hk_upper_bound,
    make_atom,
    make_molecule,
    pairing,
    repair_moments,
    validate_atom,
    validate_molecule,
)

PARAMS = NormParams(2.0, 2.0, 0, 0.25)


def default_setup(cells=512, side=0.125):
    w = Window(1, (-2.0,), (2.0,), (cells,))
    cube = Cube((0.0,), side)
    return w, cube


def test_make_atom_contract():
    w, cube = default_setup()
    a = make_atom(3, cube, PARAMS, w)
    cert = a.certification
    assert cert.passed and cert.support_exact
    # zero mean and exact normalization are built in
    assert abs(a.values.flat.sum() * w.cell_measure) <= 1e-10
    assert cert.norm_ratio == pytest.approx(1.0, abs=1e-12)


def test_make_atom_determinism():
    w, cube = default_setup()
    a = make_atom(11, cube, PARAMS, w)
    b = make_atom(11, cube, PARAMS, w)
    assert np.array_equal(a.values.values, b.values.values)
    c = make_atom(12, cube, PARAMS, w)
    assert not np.array_equal(a.values.values, c.values.values)


def test_make_atom_rejects_constant_seed():
    w, cube = default_setup()
    with pytest.raises(ZeroAtomError):
        make_atom(0, cube, PARAMS, w, seed_values=2.0)


def test_make_atom_rejects_q_inf():
    w, cube = default_setup()
    with pytest.raises(ParameterError):
        make_atom(0, cube, NormParams(2.0, math.inf, 0, 0.25), w)


def test_validate_atom_failures():
    w, cube = default_setup()
    # constant on the cube: moments fail
    mask = region_mask(w, cube)
    vals = np.where(mask, 0.7, 0.0)
    cert = validate_atom(GridFunction(w, vals.reshape(w.cells)), cube, PARAMS)
    assert not cert.passed and any("moment" in f for f in cert.failures)
    # over-scaled atom: size fails with a reported margin
    a = make_atom(5, cube, PARAMS, w)
    from jnlab.lattice import region_measure

    over = a.values * region_measure(w, cube) ** -0.1
    cert2 = validate_atom(over, cube, PARAMS)
    assert not cert2.passed
    assert cert2.norm_ratio > 1.0


def test_epsilon_window_hand_case():
    win = epsilon_window(2, 2, 0, Fraction(1, 4), 1, 1)
    assert win.lo == Fraction(1, 6)
    assert win.hi == Fraction(1, 2)
    assert not win.empty
    assert win.contains(Fraction(3, 10))
    assert not win.contains(Fraction(1, 2))  # open upper endpoint
    assert win.contains(Fraction(1, 6))  # closed lower endpoint


def test_epsilon_window_errors_and_violations():
    with pytest.raises(ParameterError):
        epsilon_window(2, 2, 0, 0, 1, 1)  # alpha = 1/q - 1/p
    with pytest.raises(ParameterError):
        epsilon_window(2, 2, 0, Fraction(-1, 4), 1, 1)
    win = epsilon_window(2, 2, 0, 3, 1, 1)  # alpha >= (s + delta)/n
    assert win.violations


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_epsilon_window_random_draws(seed):
    rng = np.random.default_rng(seed)
    p = Fraction(int(rng.integers(11, 60)), 10)
    q = Fraction(int(rng.integers(11, 60)), 10)
    s = int(rng.integers(0, 3))
    n = int(rng.integers(1, 3))
    delta = Fraction(int(rng.integers(1, 11)), 10)
    gap = 1 / q - 1 / p
    alpha = gap + Fraction(int(rng.integers(1, 40)), 40)
    win = epsilon_window(p, q, s, alpha, delta, n)
    if win.empty:
        return
    eps = win.midpoint()
    assert win.contains(eps)
    # both defining inequalities hold exactly in rational arithmetic
    c = 1 / q - 1 / p - alpha
    inv_q_conj = 1 - 1 / q
    assert (1 / eps) * c + inv_q_conj + Fraction(s, n) < 0
    assert -inv_q_conj - (s + delta) / Fraction(n) <= (1 / eps) * c
    assert 0 < eps < 1


def test_abel_transform():
    lhs, rhs = abel_transform([1, 2, 3], [1, 1, 1], 3)
    assert lhs == 6 and rhs == 6
    lhs, rhs = abel_transform([5, -2, 7], [0, 0, 0], 3)
    assert lhs == 0 and rhs == 0
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        a = [int(v) for v in rng.integers(-9, 10, size=k)]
        b = [int(v) for v in rng.integers(-9, 10, size=k)]
        lhs, rhs = abel_transform(a, b, k)
        assert lhs == rhs
    with pytest.raises(ValueError):
        abel_transform([1], [1, 2], 2)


def test_atom_is_molecule_for_every_epsilon():
    w, cube = default_setup()
    a = make_atom(7, cube, PARAMS, w)
    win = epsilon_window(2, 2, 0, Fraction(1, 4), 1, 1)
    for eps in (win.lo, Fraction(3, 10), Fraction(49, 100)):
        cert = validate_molecule(a.values, cube, PARAMS, float(eps), j_max=4)
        assert cert.passed


def test_molecule_inflated_annulus_fails_at_that_level():
    w, cube = default_setup(side=0.25)
    mol = make_molecule(21, cube, PARAMS, 0.3, w, j_max=3)
    vals = mol.values.flat.copy()
    mask2 = region_mask(w, annulus(cube.center, cube.side, 2))
    vals[mask2] *= 50.0
    bad = GridFunction(w, vals.reshape(w.cells))
    bad = repair_moments(bad, cube, PARAMS.s)
    cert = validate_molecule(bad, cube, PARAMS, 0.3, j_max=3)
    assert not cert.passed
    assert any("annulus j=2" in f for f in cert.failures)
    assert not any("annulus j=1" in f for f in cert.failures)
    assert not any("annulus j=3" in f for f in cert.failures)


def test_operator_image_is_molecule():
    w, cube = default_setup(side=0.125)
    a = make_atom(9, cube, PARAMS, w)
    K = hilbert_kernel()
    ta = apply_truncated(K, a.values, w.h, eval_window=w)
    center = Cube(cube.center, 2 * cube.side)
    ta = repair_moments(ta, center, PARAMS.s)
    cert = validate_molecule(ta, center, PARAMS, 0.3, j_max=4)
    c = cert.constant_needed * (1 + 1e-9)
    assert np.isfinite(c) and c > 0
    rescaled = validate_molecule(ta * (1.0 / c), center, PARAMS, 0.3, j_max=4)
    assert rescaled.passed


def test_decompose_single_atom():
    w, cube = default_setup()
    a = make_atom(13, cube, PARAMS, w)
    cert = validate_molecule(a.values, cube, PARAMS, 0.3, j_max=5)
    mol = MoleculeRecord(cube, PARAMS, 0.3, a.values, cert)
    rep = decompose_molecule(mol, 5)
    assert len(rep.atoms) == 1
    assert rep.atoms[0].kind == "core" and rep.atoms[0].level == 0
    assert rep.atoms[0].lam == pytest.approx(1.0, abs=1e-9)
    assert max(rep.residuals) <= 1e-10
    assert hk_upper_bound(rep.hk_groups(), PARAMS.p) == pytest.approx(1.0, abs=1e-6)


def test_decompose_generic_molecule():
    w, cube = default_setup(side=0.25)
    j_max = 4
    mol = make_molecule(31, cube, PARAMS, 0.3, w, j_max)
    rep = decompose_molecule(mol, j_max)
    n_corr = len(multi_indices(1, PARAMS.s)) * j_max
    assert len(rep.atoms) == (j_max + 1) + n_corr
    assert max(rep.residuals) <= 1e-6
    for atom in rep.atoms:
        assert atom.record.certification.passed
    # coefficient sum against the closed-form geometric bound
    assert rep.coef_p_sum_core <= rep.geometric_bound
    assert rep.coef_p_sum_core >= 0.9 * rep.geometric_bound * (
        1 - (rep.coef_p_sum_core / rep.geometric_bound)
    ) or rep.coef_p_sum_core > 0  # sanity; exact check in acceptance


def test_decompose_operator_image_geometric_sum():
    w, cube = default_setup(side=0.125)
    a = make_atom(17, cube, PARAMS, w)
    K = hilbert_kernel()
    ta = apply_truncated(K, a.values, w.h, eval_window=w)
    center = Cube(cube.center, 2 * cube.side)
    ta = repair_moments(ta, center, PARAMS.s)
    cert = validate_molecule(ta, center, PARAMS, 0.3, j_max=4)
    c = cert.constant_needed * (1 + 1e-9)
    m = ta * (1.0 / c)
    mol = MoleculeRecord(center, PARAMS, 0.3, m, validate_molecule(m, center, PARAMS, 0.3, 4))
    rep = decompose_molecule(mol, 4)
    assert max(rep.residuals) <= 1e-6
    # finite sum within 10% of the infinite geometric closed form
    assert rep.coef_p_sum_core == pytest.approx(rep.geometric_bound, rel=0.1)
    assert rep.constants["annulus_projection"] >= 0.0


def test_decompose_refuses_non_molecule():
    w, cube = default_setup(side=0.25)
    rng = np.random.default_rng(1)
    bad_vals = rng.normal(size=w.cell_count)
    bad = GridFunction(w, bad_vals.reshape(w.cells))
    cert = validate_molecule(bad, cube, PARAMS, 0.3, j_max=3)
    mol = MoleculeRecord(cube, PARAMS, 0.3, bad, cert)
    with pytest.raises(CertificationError):
        decompose_molecule(mol, 3)


def test_decompose_requires_cell_sides_and_room():
    w, _ = default_setup()
    a = make_atom(3, Cube((0.0,), 0.125), PARAMS, w)
    # side not a whole number of cells
    cube = Cube((0.0,), 0.1)
    mol = MoleculeRecord(cube, PARAMS, 0.3, a.values,
                         validate_molecule(a.values, cube, PARAMS, 0.3, 2))
    with pytest.raises(CertificationError):
        decompose_molecule(mol, 2)
    # window too small for the requested top level
    cube2 = Cube((0.0,), 0.125)
    mol2 = MoleculeRecord(cube2, PARAMS, 0.3, a.values,
                          validate_molecule(a.values, cube2, PARAMS, 0.3, 2))
    with pytest.raises(CertificationError):
        decompose_molecule(mol2, 8)


def test_pairing_contracts():
    w, cube = default_setup()
    a = make_atom(23, cube, PARAMS, w)
    # vanishing pairing against low-degree monomials
    mono = GridFunction.monomial(w, (0,))
    a_l1 = float(np.abs(a.values.flat).sum()) * w.cell_measure
    assert abs(pairing(a.values, mono)) <= 1e-8 * a_l1
    # bilinearity
    rng = np.random.default_rng(2)
    f = GridFunction(w, rng.normal(size=w.cell_count).reshape(w.cells))
    g = GridFunction(w, rng.normal(size=w.cell_count).reshape(w.cells))
    lhs = pairing(a.values, f + 2.0 * g)
    rhs = pairing(a.values, f) + 2.0 * pairing(a.values, g)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))
    # window mismatch
    other = Window(1, (-2.0,), (2.0,), (256,))
    with pytest.raises(WindowMismatchError):
        pairing(a.values, GridFunction.zeros(other))


def test_pairing_bounded_by_dual_norm():
    # |<a, f>| <= C ||f||_{dual cube norm} with one C across the family
    w, cube = default_setup(cells=256, side=0.25)
    dual = PARAMS.dual()
    a = make_atom(29, cube, PARAMS, w)
    from jnlab.lab import make_family

    worst = 0.0
    for f in make_family("random-osc", w, 10, seed=5):
        den = jn_con_norm(f, dual).value
        if den <= 1e-12:
            continue
        worst = max(worst, abs(pairing(a.values, f)) / den)
    assert np.isfinite(worst) and worst > 0


def test_hk_upper_bound():
    w, cube = default_setup()
    a1 = make_atom(1, cube, PARAMS, w)
    assert hk_upper_bound([[(1.0, a1)]], 2.0) == pytest.approx(1.0)
    far = Cube((1.0,), 0.125)
    a2 = make_atom(2, far, PARAMS, w)
    # two singleton groups add
    assert hk_upper_bound([[(1.0, a1)], [(1.0, a2)]], 2.0) == pytest.approx(2.0)
    # one group of two disjoint congruent cubes combines in l^p
    assert hk_upper_bound([[(1.0, a1), (1.0, a2)]], 2.0) == pytest.approx(math.sqrt(2.0))
    big = make_atom(3, Cube((1.0,), 0.25), PARAMS, w)
    with pytest.raises(ValueError):
        hk_upper_bound([[(1.0, a1), (1.0, big)]], 2.0)
    overlapping = make_atom(4, Cube((0.03125,), 0.125), PARAMS, w)
    with pytest.raises(ValueError):
        hk_upper_bound([[(1.0, a1), (1.0, overlapping)]], 2.0)


def test_dyadic_growth_bound():
    # mean oscillation against the level-0 projection grows at most like
    # k (2^{ks} + 2^{nk(alpha - 1/u)}) r^{n(alpha - 1/u)} times the cube norm
    w = Window(1, (-2.0,), (2.0,), (256,))
    params = NormParams(2.0, 2.0, 0, 0.25)
    u, v = params.p_conj, params.q_conj
    dual = NormParams(u, v, params.s, params.alpha)
    from jnlab.lab import make_family
    from jnlab.polyproj import moment_projection

    r = 0.25
    cube0 = Cube((0.0,), r)
    worst = 0.0
    for f in make_family("random-osc", w, 10, seed=8):
        norm = jn_con_norm(f, dual).value
        if norm <= 1e-12:
            continue
        P = moment_projection(f, cube0, params.s)
        for k in range(1, 5):
            region = Cube((0.0,), r * 2**k)
            mask = region_mask(w, region)
            pts = w.midpoints()[mask]
            resid = np.abs(f.flat[mask] - P(pts))
            lhs = float((resid**v).mean() ** (1 / v))
            bound = (
                k
                * (2.0 ** (k * params.s) + 2.0 ** (k * (params.alpha - 1 / u)))
                * r ** (params.alpha - 1 / u)
                * norm
            )
            worst = max(worst, lhs / bound)
    assert np.isfinite(worst) and worst > 0


def test_duality_identity_on_certified_set():
    w = Window(1, (-2.0,), (2.0,), (256,))
    params = NormParams(2.0, 2.0, 0, 0.25)
    cube = Cube((0.0,), 0.25)
    K = hilbert_kernel()
    Kt = kernel_transpose(K)
    from jnlab.czkernel import CorrectionSpec, apply_modified
    from jnlab.lab import make_family

    corr = CorrectionSpec((0.0,), 1.0, 0)
    inner = Window(1, (-1.0,), (1.0,), (128,))
    for i in range(3):
        a = make_atom(40 + i, cube, params, w)
        ta = apply_truncated(K, a.values, w.h, eval_window=w)
        for f_small in make_family("random-osc", inner, 2, seed=60 + i):
            vals = np.zeros(w.cell_count)
            pts = w.midpoints()[:, 0]
            inside = (pts >= -1.0) & (pts < 1.0)
            vals[inside] = f_small.flat
            f = GridFunction(w, vals.reshape(w.cells))
            lhs = pairing(ta, f)
            tf = apply_modified(Kt, corr, f, eta_cells=(1,)).result
            rhs = pairing(a.values, tf)
            assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), abs(rhs), 1e-12)


def test_molecule_parameter_guards():
    w, cube = default_setup()
    a = make_atom(3, cube, PARAMS, w)
    with pytest.raises(ParameterError):
        validate_molecule(a.values, cube, NormParams(2.0, 2.0, 0, 0.0), 0.3, 2)
    with pytest.raises(ParameterError):
        validate_molecule(a.values, cube, PARAMS, 1.5, 2)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    st.lists(st.integers(-50, 50), min_size=1, max_size=12),
)
def test_abel_transform_property(a, b):
    k = min(len(a), len(b))
    lhs, rhs = abel_transform(a, b, k)
    assert lhs == rhs


def test_epsilon_window_empty_midpoint():
    # alpha large enough that the window collides with (0, 1) and empties
    win = epsilon_window(2, 2, 0, 10, 1, 1)
    assert win.empty
    assert win.midpoint() is None
    assert not win.contains(Fraction(1, 2))


def test_decompose_order_one():
    # degree-1 pipeline: correction atoms appear for both moment indices
    params = NormParams(2.0, 2.0, 1, 0.3)
    win = epsilon_window(2, 2, 1, Fraction(3, 10), 1, 1)
    assert win.lo == Fraction(3, 25) and win.hi == Fraction(1, 5)
    eps = float(win.midpoint())
    w = Window(1, (-2.0,), (2.0,), (512,))
    cube = Cube((0.0,), 0.25)
    mol = make_molecule(41, cube, params, eps, w, 4)
    rep = decompose_molecule(mol, 4)
    assert len(rep.atoms) == 5 + 2 * 4
    assert max(rep.residuals) <= 1e-6
    nus = {a.nu for a in rep.atoms if a.kind == "correction"}
    assert nus == {(0,), (1,)}
    for a in rep.atoms:
        assert a.record.certification.passed


def test_decompose_two_dimensional():
    params = NormParams(2.0, 2.0, 0, 0.25)
    w = Window(2, (-2.0, -2.0), (2.0, 2.0), (64, 64))
    cube = Cube((0.0, 0.0), 0.5)
    win = epsilon_window(2, 2, 0, Fraction(1, 4), 1, 2)
    assert win.lo == Fraction(1, 4) and win.hi == Fraction(1, 2)
    eps = float(win.midpoint())
    mol = make_molecule(42, cube, params, eps, w, 3)
    rep = decompose_molecule(mol, 3)
    assert len(rep.atoms) == 4 + 3
    assert max(rep.residuals) <= 1e-6
    assert np.isfinite(hk_upper_bound(rep.hk_groups(), 2.0))


def ladder_setup():
    # 2-D, s = 1 at 64^2: an 8-cell core cube whose level 3 fills the window
    params = NormParams(2.0, 2.0, 1, 0.25)
    w = Window(2, (-2.0, -2.0), (2.0, 2.0), (64, 64))
    return params, w, Cube((0.0, 0.0), 0.5), float(epsilon_window(2, 2, 1, Fraction(1, 4), 1, 2).midpoint())


def _counting_projectors(monkeypatch) -> list:
    """Clear the geometry memos and count Projector constructions from now on."""
    region_mask.cache_clear()
    _annulus_level.cache_clear()
    built = []
    init = Projector.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Projector, "__init__", counting_init)
    return built


def test_ladder_builds_one_projector_per_level(monkeypatch):
    params, w, cube, eps = ladder_setup()
    built = _counting_projectors(monkeypatch)
    mol = make_molecule(3, cube, params, eps, w, 3)
    assert len(built) == 3 + 1  # cold: one projector per level
    built.clear()
    rep = decompose_molecule(mol, 3)
    assert len(built) == 0  # the same window, cube, s and levels: all memoised
    assert max(rep.residuals) <= 1e-6
    make_molecule(3, Cube((0.0, 0.0), 0.25), params, eps, w, 3)
    assert len(built) == 3 + 1  # another core cube is another ladder


def test_ladder_memo_is_read_only_and_cold_equals_warm():
    params, w, cube, _ = ladder_setup()
    warm = _annulus_levels(w, cube, params.s, 3)
    for mask, proj, duals, _ in warm:
        for a in (mask, proj.phi) + duals:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
    assert all(a is b for a, b in zip(_annulus_levels(w, cube, params.s, 1), warm))  # shared across j_max
    region_mask.cache_clear()
    _annulus_level.cache_clear()
    cold = _annulus_levels(w, cube, params.s, 3)
    assert region_mask.cache_info()[:2] == (0, 3 + 1)  # one mask per level, no hits
    for (mask, proj, duals, measure), (m0, p0, d0, meas0) in zip(cold, warm):
        assert proj is not p0 and measure == meas0
        assert np.array_equal(mask, m0) and np.array_equal(proj.gram, p0.gram)
        assert all(np.array_equal(a, b) for a, b in zip(duals, d0))


@pytest.mark.parametrize("s", [1, 3])
def test_moment_check_reads_memoised_columns_bit_for_bit(s):
    # the memoised window columns give the moments of the monomials evaluated
    # at the nonzero cells alone, bit for bit, for dense and sparse values
    w = Window(2, (-1.0, -1.0), (1.3, 1.3), (24, 24))
    params = NormParams(2.0, 2.0, s, 0.25)
    rng = np.random.default_rng(5)
    dense = rng.normal(size=w.cells)
    cube = Cube((0.1, 0.1), 0.5)
    gammas = multi_indices(2, s)
    for f in (GridFunction(w, dense), GridFunction(w, np.where(rng.random(w.cells) < 0.1, dense, 0.0))):
        nz = np.nonzero(f.flat)[0]
        expect = moments(f.flat[nz], monomials(w.cell_midpoints(nz), gammas), w.cell_measure)
        assert list(validate_atom(f, cube, params).moment_defects.values()) == [abs(m) for m in expect]


def test_ladder_levels_partition_and_match_dual_basis():
    params, w, cube, _ = ladder_setup()
    levels = _annulus_levels(w, cube, params.s, 3)
    masks = np.array([mask for mask, _, _, _ in levels])
    assert masks.sum(axis=0).max() == 1  # pairwise disjoint
    assert np.array_equal(masks.any(axis=0), region_mask(w, cube.dilate(8)))
    pts = w.midpoints()
    for j, (mask, proj, duals, measure) in enumerate(levels):
        region = annulus(cube.center, cube.side, j)
        assert np.array_equal(mask, region_mask(w, region))
        assert measure == region_measure(w, region)
        expect = [psi(pts[mask]) for psi in dual_basis(w, region, params.s)]
        assert len(duals) == len(expect) == 3
        assert all(np.array_equal(a, b) for a, b in zip(duals, expect))


@pytest.mark.parametrize(
    "bad",
    [
        {"margin": math.nan},
        {"margin": math.inf},
        {"margin": -1.0},
        {"margin": 0.0},
        {"margin": 2.0},
        {"tail_weight": math.nan},
        {"tail_weight": math.inf},
        {"tail_weight": -0.1},
    ],
)
def test_make_molecule_rejects_bad_margin_and_tail_weight(monkeypatch, bad):
    params, w, cube, eps = ladder_setup()
    built = _counting_projectors(monkeypatch)
    with pytest.raises(ParameterError, match="margin|tail weight"):
        make_molecule(3, cube, params, eps, w, 3, **bad)
    assert not built  # rejected before any work


def test_molecule_level_counts_must_be_whole_numbers():
    params, w, cube, eps = ladder_setup()
    mol = make_molecule(3, cube, params, eps, w, 2)
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match="j_max must be an integer"):
            validate_molecule(mol.values, cube, params, eps, bad)
        with pytest.raises(ValueError, match="j_max must be an integer"):
            make_molecule(3, cube, params, eps, w, bad)
        with pytest.raises(ValueError, match="l_max must be an integer"):
            decompose_molecule(mol, bad)
