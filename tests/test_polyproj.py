import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnlab.czkernel import poly_distance
from jnlab.lattice import Ball, Cube, GridFunction, Window, annulus, average, lq_norm, region_mask
from jnlab.polyproj import (
    ConditioningError,
    Polynomial,
    Projector,
    gram_condition,
    index_factorial,
    moment_projection,
    multi_indices,
    space_dimension,
)


def test_multi_indices():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert multi_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert space_dimension(2, 2) == 6
    assert index_factorial((3, 2)) == 12


def test_projection_order_zero_is_average():
    rng = np.random.default_rng(1)
    w = Window(1, (0.0,), (1.0,), (32,))
    f = GridFunction(w, rng.normal(size=32))
    cube = Cube((0.5,), 0.5)
    P = moment_projection(f, cube, 0)
    mask = region_mask(w, cube)
    assert P.coeffs[(0,)] == pytest.approx(float(f.flat[mask].mean()), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2])
def test_on_region_cells_gather_the_mask_values_bit_for_bit(n):
    # a sorted cell list reads the mask's values in the mask's order, so the
    # projection, the average and the polynomial distance keep every bit
    w = Window(n, (-1.0,) * n, (1.3,) * n, (23,) * n)
    f = GridFunction(w, np.random.default_rng(3).normal(size=w.cells))
    c = (0.1,) * n
    for region in (Cube(c, 0.7), Ball(c, 0.6), annulus(c, 0.4, 2)):
        mask = region_mask(w, region)
        proj, cells = Projector.on_region(w, region, 1)
        assert np.array_equal(cells, np.flatnonzero(mask))
        assert f.flat[cells].tobytes() == f.flat[mask].tobytes()
        assert np.array_equal(proj.phi, Projector(w.midpoints()[mask], 1, c, region.scale).phi)
        assert proj.coefficients(f.flat[cells]).tobytes() == proj.coefficients(f.flat[mask]).tobytes()
        assert average(f, region) == float(f.flat[mask].sum()) / np.count_nonzero(mask)
        resid = proj.residual(f.flat[mask])
        slow = math.sqrt((resid**2).sum() * w.cell_measure) / math.sqrt((f.flat[mask] ** 2).sum() * w.cell_measure)
        assert poly_distance(f, region, 1) == slow


def test_projection_x_squared():
    # oracle: exact moment integrals over [-1, 1] give a + b x with a = 1/3, b = 0
    for cells in (128, 256, 512):
        w = Window(1, (-1.0,), (1.0,), (cells,))
        f = GridFunction.from_callable(w, lambda x: x * x)
        P = moment_projection(f, Cube((0.0,), 2.0), 1)
        raw = P.raw_coeffs()
        assert abs(raw.get((0,), 0.0) - 1.0 / 3.0) <= 0.25 * w.h**2
        assert abs(raw.get((1,), 0.0)) <= 1e-12


def test_projection_second_order_convergence():
    errs, hs = [], []
    for cells in (64, 128, 256):
        w = Window(1, (-1.0,), (1.0,), (cells,))
        f = GridFunction.from_callable(w, lambda x: x * x)
        P = moment_projection(f, Cube((0.0,), 2.0), 1)
        errs.append(abs(P.raw_coeffs()[(0,)] - 1.0 / 3.0))
        hs.append(w.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.8


@pytest.mark.parametrize("n,s", [(1, 0), (1, 2), (2, 1)])
def test_projection_reproduces_polynomials(n, s):
    rng = np.random.default_rng(7)
    w = Window(n, (0.0,) * n, (2.0,) * n, (32,) * n)
    region = Cube((1.0,) * n, 1.5)
    coeffs = {g: rng.uniform(-1, 1) for g in multi_indices(n, s)}
    P = Polynomial(n, s, (1.0,) * n, 0.75, coeffs)
    f = P.on_grid(w)
    Q = moment_projection(f, region, s)
    for g, c in P.coeffs.items():
        assert Q.coeffs[g] == pytest.approx(c, rel=1e-10, abs=1e-12)


def test_projection_moment_postcondition():
    rng = np.random.default_rng(3)
    for n, s in [(1, 2), (2, 1)]:
        w = Window(n, (-1.0,) * n, (1.0,) * n, (24,) * n)
        f = GridFunction(w, rng.normal(size=w.cell_count))
        region = Ball((0.1,) * n, 0.8)
        P = moment_projection(f, region, s)
        mask = region_mask(w, region)
        pts = w.midpoints()[mask]
        resid = f.flat[mask] - P(pts)
        l1 = np.abs(f.flat[mask]).sum() * w.cell_measure
        for g in multi_indices(n, s):
            xg = np.ones(pts.shape[0])
            for axis, gi in enumerate(g):
                if gi:
                    xg = xg * pts[:, axis] ** gi
            moment = abs((resid * xg).sum() * w.cell_measure)
            assert moment <= 1e-8 * l1 * region.scale ** sum(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(0, 10_000))
def test_projection_idempotent(s, seed):
    rng = np.random.default_rng(seed)
    w = Window(1, (-1.0,), (1.0,), (32,))
    region = Cube((0.0,), 1.5)
    coeffs = {g: rng.uniform(-2, 2) for g in multi_indices(1, s)}
    P = Polynomial(1, s, (0.0,), 0.75, coeffs)
    Q = moment_projection(P.on_grid(w), region, s)
    pts = w.midpoints()
    assert np.max(np.abs(P(pts) - Q(pts))) <= 1e-10 * max(1.0, np.max(np.abs(P(pts))))


def test_projection_errors():
    w = Window(1, (0.0,), (1.0,), (8,))
    f = GridFunction.from_callable(w, lambda x: x)
    with pytest.raises(ConditioningError):
        moment_projection(f, Cube((0.5,), w.h * 1.5), 2)  # 1 cell, dim 3
    # the degree is a whole number in [0, MAX_DEGREE], checked before any work
    for s in (-1, 5, 1.5):
        with pytest.raises(ValueError, match="degree s"):
            Projector(np.zeros((0, 1)), s)


def test_orthonormal_basis_legendre():
    w = Window(1, (-1.0,), (1.0,), (4096,))
    basis = Projector.on_region(w, Cube((0.0,), 2.0), 1)[0].bases()[0]
    raw0 = basis[0].raw_coeffs()
    raw1 = basis[1].raw_coeffs()
    assert raw0.get((0,), 0.0) == pytest.approx(1.0, abs=1e-10)
    assert raw1.get((1,), 0.0) == pytest.approx(math.sqrt(3.0), abs=1e-6)
    assert abs(raw1.get((0,), 0.0)) < 1e-8


def test_orthonormal_basis_gram_identity():
    w = Window(2, (0.0, 0.0), (1.0, 1.0), (24, 24))
    region = Ball((0.5, 0.5), 0.45)
    basis = Projector.on_region(w, region, 2)[0].bases()[0]
    mask = region_mask(w, region)
    pts = w.midpoints()[mask]
    count = pts.shape[0]
    G = np.array([[np.dot(a(pts), b(pts)) / count for b in basis] for a in basis])
    assert np.max(np.abs(G - np.eye(len(basis)))) <= 1e-8


def test_orthonormal_basis_order_zero():
    w = Window(1, (0.0,), (1.0,), (16,))
    basis = Projector.on_region(w, Cube((0.5,), 1.0), 0)[0].bases()[0]
    assert len(basis) == 1
    assert basis[0].raw_coeffs()[(0,)] == pytest.approx(1.0, abs=1e-12)


def test_dual_basis_line():
    w = Window(1, (-1.0,), (1.0,), (4096,))
    duals = Projector.on_region(w, Cube((0.0,), 2.0), 1)[0].bases()[1]
    assert duals[0].raw_coeffs().get((0,), 0.0) == pytest.approx(1.0, abs=1e-8)
    assert duals[1].raw_coeffs().get((1,), 0.0) == pytest.approx(3.0, abs=1e-6)


def test_dual_basis_pairing_delta():
    w = Window(2, (-1.0, -1.0), (1.0, 1.0), (20, 20))
    region = Cube((0.0, 0.0), 1.6)
    duals = Projector.on_region(w, region, 1)[0].bases()[1]
    gammas = multi_indices(2, 1)
    mask = region_mask(w, region)
    pts = w.midpoints()[mask]
    count = pts.shape[0]
    for i, psi in enumerate(duals):
        for j, g in enumerate(gammas):
            xg = np.ones(pts.shape[0])
            for axis, gi in enumerate(g):
                if gi:
                    xg = xg * pts[:, axis] ** gi
            val = np.dot(psi(pts), xg) / count
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)


def test_dual_basis_matches_orthonormal_expansion():
    # psi_nu = sum_gamma m[gamma, nu] phi_gamma where phi_nu = sum m[nu, gamma] x^gamma
    w = Window(1, (0.0,), (4.0,), (64,))
    region = Cube((2.0,), 3.0)
    phis, duals = Projector.on_region(w, region, 2)[0].bases()
    gammas = multi_indices(1, 2)
    m = np.array([[p.raw_coeffs().get(g, 0.0) for g in gammas] for p in phis])
    pts = w.midpoints()
    for nu_idx in range(len(gammas)):
        recon = sum(m[g_idx, nu_idx] * phis[g_idx](pts) for g_idx in range(len(gammas)))
        assert np.max(np.abs(recon - duals[nu_idx](pts))) <= 1e-8 * max(1.0, np.max(np.abs(recon)))


def test_dual_basis_annulus_decay():
    # |psi_nu| <= C0 / (2^(j-1) r)^|nu| on the level-j annulus, C0 uniform in j
    w = Window(1, (-16.0,), (16.0,), (1024,))
    r = 1.0
    c0 = 0.0
    for j in range(1, 5):
        region = annulus((0.0,), r, j)
        duals = Projector.on_region(w, region, 1)[0].bases()[1]
        mask = region_mask(w, region)
        pts = w.midpoints()[mask]
        for nu_idx, nu in enumerate(multi_indices(1, 1)):
            sup = float(np.max(np.abs(duals[nu_idx](pts))))
            c0 = max(c0, sup * (2.0 ** (j - 1) * r) ** sum(nu))
    assert np.isfinite(c0) and c0 <= 100.0


def test_projection_stability_constant():
    # sup |P(f)| <= C * mean |f| with one C per (n, s); the family is a fixed
    # set of functions resampled on each grid, so C must be refinement-stable
    from jnlab.lab import make_family

    def measure(cells):
        w = Window(1, (-1.0,), (1.0,), (cells,))
        region = Cube((0.0,), 1.5)
        mask = region_mask(w, region)
        pts = w.midpoints()[mask]
        c = 0.0
        for f in make_family("random-osc", w, 100, seed=42):
            P = moment_projection(f, region, 2)
            mean_abs = float(np.abs(f.flat[mask]).mean())
            if mean_abs > 0:
                c = max(c, float(np.max(np.abs(P(pts)))) / mean_abs)
        return c

    c1 = measure(128)
    c2 = measure(256)
    assert np.isfinite(c1) and np.isfinite(c2)
    assert max(c1, c2) / min(c1, c2) <= 1.1


def test_projection_near_best_approximation():
    # brute-force coefficient-grid oracle for inf_P ||f - P||_q
    rng = np.random.default_rng(9)
    w = Window(1, (-1.0,), (1.0,), (16,))
    region = Cube((0.0,), 2.0)
    f = GridFunction(w, rng.uniform(-1, 1, 16))
    P = moment_projection(f, region, 1)
    q = 2.0
    resid_proj = lq_norm(f - P.on_grid(w), region, q)
    grid = np.linspace(-1.5, 1.5, 61)
    pts = w.midpoints()[:, 0]
    best = math.inf
    for a in grid:
        for b in grid:
            r = np.abs(f.flat - (a + b * pts))
            best = min(best, float((r**q).sum() * w.cell_measure) ** (1 / q))
    assert resid_proj <= 1.05 * best + 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_raw_coefficients_round_trip(n):
    # the plain-monomial coefficients evaluate to the same polynomial
    rng = np.random.default_rng(12 + n)
    coeffs = {g: rng.uniform(-1, 1) for g in multi_indices(n, 3)}
    P = Polynomial(n, 3, tuple(rng.uniform(-1, 1, size=n)), 0.75, coeffs)
    raw = P.raw_coeffs()
    pts = rng.uniform(-2, 2, size=(40, n))
    plain = sum(c * np.prod(pts**np.asarray(g), axis=1) for g, c in raw.items())
    assert np.max(np.abs(plain - P(pts))) <= 1e-12 * np.max(np.abs(P(pts)))


@pytest.mark.parametrize("region, s", [("cube:0.1:1.5", 2), ("ball:0.1,-0.2:0.6", 1)])
def test_polynomial_save_and_project_out_write_to_dict(tmp_path, capsys, region, s):
    # Polynomial.save is the one writer of the format; jnlab project --out goes through it
    from jnlab import cli

    P = Polynomial(1, 2, (0.1,), 1.5, {(0,): 1.0, (1,): -2.0, (2,): 0.25})
    P.save(tmp_path / "p.json")
    assert (tmp_path / "p.json").read_text() == json.dumps(P.to_dict())
    n = region.count(",") + 1
    w = Window(n, (-1.0,) * n, (1.0,) * n, (16,) * n)
    f = GridFunction.from_callable(w, lambda *x: np.sin(3 * sum(x)) + x[0] ** 2)
    f.save(tmp_path / "f.json")
    out = tmp_path / "sub" / "proj.json"
    assert cli.main(["project", "--function", str(tmp_path / "f.json"), "--region", region,
                     "--s", str(s), "--out", str(out)]) == 0
    Q = moment_projection(f, cli._parse_region(region), s)
    assert out.read_text() == json.dumps(Q.to_dict()) == capsys.readouterr().out.strip()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2), st.integers(0, 10_000))
def test_projector_batch_matches_moment_projection(n, s, seed):
    # congruent cell-aligned cubes: one projector, built on the first cube,
    # gives every cube's residual; each must equal that cube's own projection
    if n == 2 and s == 2:
        s = 1
    rng = np.random.default_rng(seed)
    cells = 16
    w = Window(n, (-1.0,) * n, (1.0,) * n, (cells,) * n)
    f = GridFunction(w, rng.normal(size=w.cells))
    m = int(rng.integers(s + 2, 7))
    starts = rng.integers(0, cells - m + 1, size=(4, n))
    cubes = [Cube(tuple(-1.0 + (st_ + m / 2.0) * w.h), m * w.h) for st_ in starts]
    proj, _ = Projector.on_region(w, cubes[0], s)
    batch = np.stack([f.flat[region_mask(w, c)] for c in cubes])
    resid = proj.residual(batch)
    for row, cube in zip(resid, cubes):
        P = moment_projection(f, cube, s)
        mask = region_mask(w, cube)
        slow = f.flat[mask] - P(w.midpoints()[mask])
        assert np.max(np.abs(row - slow)) <= 1e-12 * max(1.0, np.max(np.abs(batch)))
    # projecting twice removes nothing more
    assert np.max(np.abs(proj.residual(resid) - resid)) <= 1e-12 * np.max(np.abs(batch))


def test_projector_gate_is_shared():
    # one COND_LIMIT gate: too few cells for a projector, and a degenerate
    # row in the Gram stack of the clipped balls
    from jnlab.spaces import _clipped_gram

    with pytest.raises(ConditioningError):
        Projector(np.zeros((2, 1)), 2)
    line = Projector(np.linspace(-1, 1, 6)[:, None], 1)
    keep = np.ones((2, 6), dtype=bool)
    assert gram_condition(_clipped_gram(line.phi, keep)) == pytest.approx(line.condition)
    keep[1, 1:] = False  # one point cannot carry a line
    with pytest.raises(ConditioningError):
        gram_condition(_clipped_gram(line.phi, keep))
