import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jnlab import lattice
from jnlab.lattice import (
    Cube,
    GridFunction,
    Window,
    annulus,
    moments,
    monomials,
    region_cells,
    region_mask,
    region_measure,
)
from jnlab.polyproj import Projector, multi_indices
from jnlab.spaces import NormParams, jn_con_norm
from jnlab.czkernel import apply_truncated, hilbert_kernel, kernel_transpose
from jnlab.hardy import (
    ATOM_MOMENT_RTOL,
    ATOM_NORM_RTOL,
    CertificationError,
    MoleculeRecord,
    ParameterError,
    WindowMismatchError,
    ZeroAtomError,
    _annulus_level,
    _annulus_levels,
    _certify,
    decompose_molecule,
    epsilon_window,
    hk_upper_bound,
    make_atom,
    make_molecule,
    norm_exponent,
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
    # s and n are whole numbers (whole_number), never truncated
    assert epsilon_window(2, 2, 1.0, Fraction(1, 4), 1, 2.0) == epsilon_window(2, 2, 1, Fraction(1, 4), 1, 2)
    for s, n in ((1.5, 1), (-1, 1), (0, 0), (0, 1.5)):
        with pytest.raises(ValueError, match="integer"):
            epsilon_window(2, 2, s, Fraction(1, 4), 1, n)


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
    # the exponent rule of NormParams
    for bad in (math.nan, 0.5, -math.inf):
        with pytest.raises(ValueError, match="p must be >= 1"):
            hk_upper_bound([[(1.0, a1)]], bad)
    assert hk_upper_bound([[(1.0, a1), (1.0, a2)]], "inf") == pytest.approx(1.0)


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


def _entries(fn) -> int:
    """The entries a memoised function holds in the one memo store: after
    lattice._MEMO.clear(), its misses."""
    return sum(key[0] is fn for key in lattice._MEMO)


def _counting_projectors(monkeypatch) -> list:
    """Clear the geometry memos and count Projector constructions from now on."""
    lattice._MEMO.clear()
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
    for cells, proj, duals, _ in warm:
        for a in (cells, proj.phi) + duals:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
    assert all(a is b for a, b in zip(_annulus_levels(w, cube, params.s, 1), warm))  # shared across j_max
    lattice._MEMO.clear()
    cold = _annulus_levels(w, cube, params.s, 3)
    # after a clear a memo's entries are its misses: one cell list and one
    # level per level, and no mask
    assert [_entries(fn) for fn in (region_cells, _annulus_level)] == [3 + 1] * 2
    assert len(lattice._MEMO) == 2 * (3 + 1)
    for (cells, proj, duals, measure), (c0, p0, d0, meas0) in zip(cold, warm):
        assert proj is not p0 and measure == meas0
        assert np.array_equal(cells, c0) and np.array_equal(proj.gram, p0.gram)
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
    masks = np.zeros((len(levels), w.cell_count), dtype=int)
    for row, (cells, _, _, _) in zip(masks, levels):
        row[cells] += 1
    assert masks.sum(axis=0).max() == 1  # pairwise disjoint
    assert np.array_equal(masks.any(axis=0), region_mask(w, cube.dilate(8)))
    pts = w.midpoints()
    for j, (cells, proj, duals, measure) in enumerate(levels):
        region = annulus(cube.center, cube.side, j)
        assert np.array_equal(cells, np.flatnonzero(region_mask(w, region)))  # sorted: row-major order
        assert measure == region_measure(w, region)
        psis = Projector.on_region(w, region, params.s)[0].bases()[1]
        expect = [psi(pts[region_mask(w, region)]) for psi in psis]
        assert len(duals) == len(expect) == 3
        assert all(np.array_equal(a, b) for a, b in zip(duals, expect))


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


def _window_route(f: GridFunction, cube: Cube, params) -> tuple:
    """validate_atom's answer read on the whole window, as the reference:
    the support on the cube's complement, the size on its mask, and the
    moments of the monomials evaluated at the window's nonzero cells."""
    w = f.window
    mask = region_mask(w, cube)
    nz = np.flatnonzero(f.flat)
    gammas = multi_indices(w.n, params.s)
    found = moments(f.flat[nz], monomials(w.cell_midpoints(nz), gammas), w.cell_measure)
    l1 = float(np.abs(f.flat).sum()) * w.cell_measure
    norm = float((np.abs(f.flat[mask]) ** params.q).sum() * w.cell_measure) ** (1.0 / params.q)
    ratio = norm / region_measure(w, cube) ** norm_exponent(params)
    defects = {g: abs(m).hex() for g, m in zip(gammas, found)}
    return not np.any(f.flat[~mask]), ratio.hex(), defects, {g: (l1 * cube.side ** sum(g)).hex() for g in gammas}


def _hexed(cert) -> tuple:
    hexes = [{g: v.hex() for g, v in d.items()} for d in (cert.moment_defects, cert.moment_scales)]
    return (cert.support_exact, cert.norm_ratio.hex(), *hexes)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    s=st.integers(0, 2),
    q=st.sampled_from([1.5, 2.0, 3.0]),
    cells=st.integers(12, 40),
    side_cells=st.integers(3, 12),
    offset=st.floats(-0.6, 0.6),
    keep=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_validate_atom_support_route_equals_window_route(n, s, q, cells, side_cells, offset, keep, seed):
    # values on the cube (with zeros inside it, and a cube the window may
    # clip): the cube-local reads give the full-window answer bit for bit
    w = Window(n, (-1.0,) * n, (1.0,) * n, (cells,) * n)
    cube = Cube((offset,) * n, side_cells * w.h)
    params = NormParams(2.0, q, s, 0.25)
    rng = np.random.default_rng(seed)
    live = region_mask(w, cube) & (rng.random(w.cell_count) < keep)
    f = GridFunction(w, np.where(live, rng.normal(size=w.cell_count), 0.0).reshape(w.cells))
    cert = validate_atom(f, cube, params)
    assert cert.route == "support" and cert.support_exact
    assert _hexed(cert) == _window_route(f, cube, params)


def test_leaky_atom_takes_the_window_route_and_reports_its_defects():
    w = Window(2, (-2.0, -2.0), (2.0, 2.0), (64, 64))
    params = NormParams(2.0, 2.0, 1, 0.25)
    cube = Cube((0.25, -0.5), 6 * w.h)
    atom = make_atom(5, cube, params, w)
    assert atom.certification.route == "support"
    leak = atom.values.values.copy()
    leak[0, 0] = 1e-3
    f = GridFunction(w, leak)
    cert = validate_atom(f, cube, params)
    assert cert.route == "window" and not cert.support_exact
    assert "support: nonzero cells outside the cube" in cert.failures
    assert any(m.startswith("moment") for m in cert.failures)  # the leak's moments count
    assert _hexed(cert) == _window_route(f, cube, params)


def _kinds(cert) -> list:
    """A certification's failures without their figures: "support", "size"
    and "moment (g)" per failed gamma, in the order the checks run."""
    return [f.split(":")[0] for f in cert.failures]


def _cell_local(w: Window, cells, vals, cube: Cube, params):
    """The certification that make_atom and decompose_molecule run on an
    atom's own cells, with its L^1 mass summed over them."""
    return _certify(w, cells, vals, cube, params, float(np.abs(vals).sum()) * w.cell_measure)


def _materialised(w: Window, cells, vals) -> GridFunction:
    flat = np.zeros(w.cell_count)
    flat[cells] = vals
    return GridFunction(w, flat.reshape(w.cells))


def _within_ulps(a: float, b: float, ulps: int = 8) -> bool:
    return abs(a - b) <= ulps * np.finfo(float).eps * abs(b)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    s=st.integers(0, 2),
    q=st.sampled_from([1.5, 2.0, 3.0]),
    cells=st.integers(12, 40),
    wide=st.integers(0, 6),
    side_cells=st.integers(3, 12),
    offset=st.floats(-0.6, 0.6),
    keep=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    extra=st.integers(0, 30),
    size=st.sampled_from([0.999, 1.001]),
    leak=st.booleans(),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_cell_local_certification_equals_validate_atom(n, s, q, cells, wide, side_cells, offset, keep, extra, size, leak, shuffle, seed):
    # an atom's values on its own cell list: the cube's cells (moment-free
    # and at `size` times the size bound, unless keep < 1 zeroes some of
    # them), then cells beyond the cube that are zero unless one leaks, in
    # row-major or shuffled order.  Read on those cells alone, the
    # certification fails the checks that the window route's figures fail,
    # as validate_atom does on the function filled into the window (which
    # has `wide` more columns than rows in 2-D)
    w = Window(n, (-1.0,) * n, (1.0, 1.0 + wide * 2.0 / cells)[:n], (cells, cells + wide)[:n])
    cube = Cube((offset,) * n, side_cells * w.h)
    params = NormParams(2.0, q, s, 0.25)
    rng = np.random.default_rng(seed)
    inner = region_cells(w, cube)
    assume(inner.size >= (s + 2) ** n)
    vals = Projector.on_region(w, cube, s)[0].residual(rng.normal(size=inner.size))
    norm = lattice._lq(vals, q, w.cell_measure)
    assume(norm > 0)
    vals *= size * region_measure(w, cube) ** norm_exponent(params) / norm
    vals[rng.random(inner.size) >= keep] = 0.0
    beyond = rng.permutation(np.flatnonzero(~region_mask(w, cube)))[:extra]
    spill = np.zeros(beyond.size)
    if leak and beyond.size:
        spill[0] = 1e-3
    at, vals = np.concatenate((inner, beyond)), np.concatenate((vals, spill))
    order = rng.permutation(at.size) if shuffle else np.argsort(at)
    at, vals = at[order], vals[order]
    cert = _cell_local(w, at, vals, cube, params)
    f = _materialised(w, at, vals)
    ref = validate_atom(f, cube, params)
    exact, ratio, defects, scales = _window_route(f, cube, params)
    expect = ([] if exact else ["support"]) + (["size"] if float.fromhex(ratio) > 1.0 + ATOM_NORM_RTOL else [])
    expect += [f"moment {g}" for g, d in defects.items() if float.fromhex(d) > ATOM_MOMENT_RTOL * float.fromhex(scales[g])]
    assert _kinds(cert) == _kinds(ref) == expect
    assert cert.passed == ref.passed and cert.support_exact == ref.support_exact == exact
    assert cert.cells_read == at.size and ref.cells_read == w.cell_count
    if not shuffle:  # the nonzero cells in row-major order: the same sums
        assert cert.moment_defects == ref.moment_defects
    assert _within_ulps(cert.norm_ratio, ref.norm_ratio)
    assert all(_within_ulps(cert.moment_scales[g], ref.moment_scales[g]) for g in ref.moment_scales)


@pytest.mark.parametrize("fault", ["support", "size", "moments"])
def test_cell_local_and_window_certification_fail_alike(fault):
    # one fault per case, on the atom's own cells and on the window:
    # a nonzero cell beyond the cube, values 1e-9 over the size bound, and a
    # constant added, which breaks the zeroth moment
    w = Window(2, (-2.0, -2.0), (2.0, 2.0), (64, 64))
    params = NormParams(2.0, 2.0, 1, 0.25)
    cube = Cube((0.25, -0.5), 6 * w.h)
    atom = make_atom(5, cube, params, w)
    cells, vals = atom.cells, atom.cell_values
    if fault == "support":
        cells, vals = np.append(cells, 0), np.append(vals, 1e-3)
    elif fault == "size":
        vals = vals * (1.0 + 1e-9)
    else:
        vals = vals + 0.1 * np.abs(vals).max()
    for cert in (_cell_local(w, cells, vals, cube, params), validate_atom(_materialised(w, cells, vals), cube, params)):
        assert not cert.passed
        kinds = _kinds(cert)
        if fault == "support":
            assert kinds[0] == "support" and not cert.support_exact
        elif fault == "size":
            assert kinds == ["size"] and 1.0 + 1e-10 < cert.norm_ratio < 1.0 + 2e-9
        else:
            assert "moment (0, 0)" in kinds


def test_atom_record_builds_its_window_values_once():
    # make_atom certifies the cube's cells in row-major order, and the record
    # keeps them; the window array is built on the first read, with the bytes
    # of the window fill that each record used to hold
    w = Window(2, (-2.0, -2.0), (2.0, 2.0), (64, 64))
    params = NormParams(2.0, 2.0, 1, 0.25)
    cube = Cube((0.25, -0.5), 6 * w.h)
    atom = make_atom(5, cube, params, w)
    assert np.array_equal(atom.cells, region_cells(w, cube))
    assert atom.certification.cells_read == atom.cells.size == 36
    assert "values" not in vars(atom)
    first = atom.values
    assert atom.values is first
    assert hashlib.sha256(first.values.tobytes()).hexdigest()[:32] == "366b4c91b0149b1a9c5dfd2fa83db727"
    assert validate_atom(first, cube, params).norm_ratio == atom.certification.norm_ratio  # atom make prints it


def test_decomposition_atoms_are_certified_on_their_own_cells():
    mol, levels = _pinned_molecule("2d-128-s1")
    rep = decompose_molecule(mol, levels)
    window = mol.values.window
    for a in rep.atoms:
        # each reads its level's cells (a correction atom, L_l then L_l+1),
        # and holds no window-sized array until a reader asks for one
        assert a.record.certification.cells_read == a.record.cells.size < window.cell_count
        assert "values" not in vars(a.record)
    # the window fill of a core and a correction atom, as before, bit for bit
    core, corr = rep.atoms[2], rep.atoms[10]
    assert (core.kind, core.level, corr.kind, corr.level, corr.nu) == ("core", 2, "correction", 1, (0, 1))
    for a, digest in ((core, "e3ec7b5b05bfcfff39f242ec60a3c43b"), (corr, "a5d39a0e21e89761b1a5f47d7273dbe6")):
        assert a.record.values is a.record.values
        assert hashlib.sha256(a.record.values.values.tobytes()).hexdigest()[:32] == digest
    # the figures of the certifications only gate: none is written
    written = json.dumps(rep.to_json(), default=repr)
    assert not any(key in written for key in ("norm_ratio", "moment", "cells_read"))


# Decompositions pinned bit for bit (numpy 2.4.6, x86-64): residuals,
# constants, every lambda and the tail term's bytes.  The 264^2 window is
# above 2^16 cells, and its ladder is memoised like the others.
PINNED_DECOMPOSITIONS = {
    "1d-s0": {
        "residuals": ["0x1.634cdc6033429p-57", "0x1.21d9a64e7aa8dp-55", "0x1.34291e936fd3dp-55",
                      "0x1.6b1787624f54ep-55", "0x1.78ba32a60074ep-55"],
        "constants": {"annulus_projection": "0x1.1c9010078c0b9p-3", "core_factor": "0x1.23920200f1817p+0",
                      "correction_factor": "0x1.cc45e1c762455p-4"},
        "lams": ["0x1.23920200f1817p+0", "0x1.85332078c1e18p-1", "0x1.03c27816708c8p-1", "0x1.5abcce89842c0p-2",
                 "0x1.ced6cd3f3047fp-3", "0x1.cc45e1c762455p-4", "0x1.333202df38751p-4", "0x1.9a0e7da4317c4p-5",
                 "0x1.11ae112608c52p-5"],
        "tail": "ad7facb2586fc6e966c004d7d1d16b02",
    },
    "2d-128-s1": {
        "residuals": ["0x1.df742a7ccf92ep-56", "0x1.53f84682063bcp-55", "0x1.4fe3c04a089c2p-55",
                      "0x1.5cf8144fb40d6p-55", "0x1.631e891de4945p-55", "0x1.62a8f1bbea107p-55"],
        "constants": {"annulus_projection": "0x1.5acbbe20ea1cep-3", "core_factor": "0x1.2b5977c41d43ap+0",
                      "correction_factor": "0x1.2a5c82d26ea98p-5"},
        "lams": ["0x1.2b5977c41d43ap+0", "0x1.40d5b79862fc1p-2", "0x1.57dcbd0a7b30ap-4", "0x1.708adda52fe8bp-6",
                 "0x1.8afe778fec6adp-8", "0x1.a75816ec76e2bp-10"]
        + ["0x1.2a5c82d26ea98p-5"] * 3 + ["0x1.3fc69ad233004p-7"] * 3 + ["0x1.56ba2ad88741ap-9"] * 3
        + ["0x1.6f53707ecee80p-11"] * 3 + ["0x1.89b0b04321076p-13"] * 3,
        "tail": "fa43239bcee7b97ca62f007cc6848756",
    },
    "2d-264-s1": {
        "residuals": ["0x1.98063f9006ca1p-53", "0x1.afcdea1a06606p-53", "0x1.b79f606010d25p-53",
                      "0x1.b8de1d8654969p-53", "0x1.b90b307f319e1p-53"],
        "constants": {"annulus_projection": "0x1.6aea57a3c728cp-3", "core_factor": "0x1.2d5d4af478e52p+0",
                      "correction_factor": "0x1.295da0dc03375p-5"},
        "lams": ["0x1.2d5d4af478e52p+0", "0x1.42fe908e22c14p-2", "0x1.5a2d44063f676p-4", "0x1.7305ebba8f594p-6",
                 "0x1.8da71a268c5d7p-8"]
        + ["0x1.295da0dc03375p-5"] * 3 + ["0x1.3eb56da48c85cp-7"] * 3 + ["0x1.55956252361a3p-9"] * 3
        + ["0x1.6e19a45e528b0p-11"] * 3,
        "tail": "6fa15acbb96ac80aa40b41e9d3438222",
    },
}


def _pinned_molecule(name: str):
    if name == "1d-s0":
        w = Window(1, (-2.0,), (2.0,), (512,))
        return make_molecule(31, Cube((0.0,), 0.25), PARAMS, 0.3, w, 4), 4
    cells, side, levels = {"2d-128-s1": (128, 4, 5), "2d-264-s1": (264, 8, 4)}[name]
    params, _, _, eps = ladder_setup()
    w = Window(2, (-2.0, -2.0), (2.0, 2.0), (cells, cells))
    return make_molecule(3, Cube((0.0, 0.0), side * w.h), params, eps, w, levels), levels


@pytest.mark.parametrize("name", sorted(PINNED_DECOMPOSITIONS))
def test_decomposition_is_pinned_bit_for_bit(name):
    mol, levels = _pinned_molecule(name)
    rep = decompose_molecule(mol, levels)
    # every window's ladder is memoised, 264^2 (above 2^16 cells) included
    window = mol.values.window
    ladder = [(_annulus_level, (window, mol.cube, mol.params.s, j)) for j in range(levels + 1)]
    assert all(key in lattice._MEMO for key in ladder)
    warm = _annulus_levels(window, mol.cube, mol.params.s, levels)
    assert all(level is lattice._MEMO[key][0] for level, key in zip(warm, ladder))
    assert {
        "residuals": [r.hex() for r in rep.residuals],
        "constants": {k: v.hex() for k, v in rep.constants.items()},
        "lams": [a.lam.hex() for a in rep.atoms],
        "tail": hashlib.sha256(rep.tail_term.values.tobytes()).hexdigest()[:32],
    } == PINNED_DECOMPOSITIONS[name]
    assert all(a.record.certification.route == "support" for a in rep.atoms)
    assert "route" not in json.dumps(rep.to_json(), default=repr)
