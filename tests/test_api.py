"""Canary: the package-level surface stays importable and minimally usable."""

import numpy as np

import jnlab


def test_public_surface_roundtrip():
    w = jnlab.Window(1, (0.0,), (1.0,), (32,))
    f = jnlab.GridFunction.from_callable(w, lambda x: np.sin(6 * x))
    assert jnlab.integrate(f, jnlab.Cube((0.5,), 1.0)) == jnlab.integrate(f, jnlab.Cube((0.5,), 1.0))
    assert jnlab.lq_norm(f, jnlab.Ball((0.5,), 0.3), 2.0) > 0
    P = jnlab.moment_projection(f, jnlab.Cube((0.5,), 1.0), 1)
    assert max(sum(g) for g, c in P.coeffs.items() if c != 0.0) <= 1
    params = jnlab.NormParams(2.0, 2.0, 0, 0.0)
    assert jnlab.jn_con_norm(f, params).value > 0
    K = jnlab.kernel_by_name("hilbert")
    out = jnlab.apply_cz(K, f)
    assert out.result.window == w
    atom = jnlab.make_atom(1, jnlab.Cube((0.5,), 0.25), jnlab.NormParams(2, 2, 0, 0.25), w)
    assert atom.certification.passed
    win = jnlab.epsilon_window(2, 2, 0, "0.25", 1, 1)
    assert not win.empty
