"""The four benchmark workloads: seeded inputs, items, and output checks.

Every workload draws one pass of items from a fixed pool of item keys; the
benchmark seed picks which keys and in what order.  Each pool item has a
reference output recorded in ``reference.json`` (see ``record.py``), so every
item a seed can pick is checked against a known-good value.

An item is one seeded input through its workload's pipeline.  It returns a
flat dict of numbers and flags; ``check`` compares that dict with the
reference within the tolerances the acceptance suite pins, and within
``RTOL`` of the recorded values so that silent numerical drift fails too.

Items call jnlab only through module attributes (``czkernel.apply_modified``
and so on), so that the traced run sees every call it makes.
"""

from __future__ import annotations

import math

import numpy as np

from jnlab import czkernel, hardy, lab, lattice, spaces

# relative drift allowed against the recorded reference; loose enough for a
# reordered summation, tight enough to catch a changed result
RTOL = 1e-6


def _close(value, ref) -> bool:
    return abs(value - ref) <= RTOL * max(abs(ref), 1e-300)


def _drift(out: dict, ref: dict, keys) -> list[str]:
    return [
        f"{k}={out[k]!r} drifted from reference {ref[k]!r}"
        for k in keys
        if not _close(out[k], ref[k])
    ]


def _same_keys(out: dict, ref: dict) -> list[str]:
    if set(out) != set(ref):
        return [f"output keys {sorted(out)} differ from reference keys {sorted(ref)}"]
    return []


class Workload:
    """One workload: a pool of item keys, sizes, items and checks."""

    name = ""
    sizes: dict = {}

    def pool(self) -> list[str]:
        raise NotImplementedError

    def plan(self, seed: int) -> list[str]:
        """Item keys of one pass, drawn from the pool by the seed."""
        raise NotImplementedError

    def build(self, keys, size: str) -> list:
        """Inputs for the keys at one size: a list of (key, thunk) pairs."""
        raise NotImplementedError

    def check(self, key: str, out: dict, ref: dict, size: str) -> list[str]:
        raise NotImplementedError


def _draw(rng, pool, count):
    return [pool[i] for i in rng.choice(len(pool), size=count, replace=False)]


# ---------------------------------------------------------------------------


class Equivalence1D(Workload):
    """Default ``equivalence`` experiment, one random-osc function per item."""

    name = "equivalence-1d"
    sizes = {"full": 128, "tiny": 32}
    per_pass = 50

    def pool(self):
        return [f"f{k}" for k in range(200)]

    def plan(self, seed):
        return _draw(np.random.default_rng([seed, 1]), self.pool(), self.per_pass)

    def build(self, keys, size):
        cells = self.sizes[size]

        def item(family_seed):
            cfg = lab.default_config("equivalence")
            cfg.window = dict(cfg.window, cells=[cells])
            cfg.family = {"kind": "random-osc", "count": 1, "seed": family_seed}
            cfg.tolerances = {"bracket": 64.0, "refine_factor": 2.0}
            res = lab.run_experiment("equivalence", cfg)
            out = {k: v for k, v in res.summary.items() if type(v) is float}
            out["passed"] = res.passed
            return out

        return [(k, lambda s=int(k[1:]): item(s)) for k in keys]

    def check(self, key, out, ref, size):
        problems = _same_keys(out, ref)
        if problems:
            return problems
        if not out["passed"]:
            problems.append("experiment reports a violation")
        for k, v in out.items():
            if k.endswith("refine_factor") and v > 2.0:
                problems.append(f"{k}={v} exceeds 2.0")
            if k.endswith("spread") and v > 64.0:
                problems.append(f"{k}={v} exceeds 64")
        return problems + _drift(out, ref, [k for k in out if k != "passed"])


class Dichotomy(Workload):
    """Acceptance criterion 5 inputs through ``vanishing_moment_defect``.

    A line item is one 1-D atom under the hilbert and the perturbed kernel;
    a plane item is one 2-D atom under riesz.  Eight line and two plane items
    make a pass, so the plane items are the slowest fifth of the samples and
    item_s.p90 always falls among them.
    """

    name = "dichotomy"
    # (cells, cube side, padding) per dimension
    sizes = {
        "full": {"line": (512, 1.0, 512.0), "plane": (48, 0.25, 256.0)},
        "tiny": {"line": (64, 1.0, 16.0), "plane": (12, 0.5, 8.0)},
    }
    params = (2.0, 2.0, 0, 0.25)

    def pool(self):
        return [f"line{100 + i}" for i in range(32)] + [f"plane{200 + i}" for i in range(8)]

    def plan(self, seed):
        rng = np.random.default_rng([seed, 2])
        pool = self.pool()
        return _draw(rng, pool[:32], 8) + _draw(rng, pool[32:], 2)

    def build(self, keys, size):
        params = spaces.NormParams(*self.params)
        line_cells, line_side, line_pad = self.sizes[size]["line"]
        plane_cells, plane_side, plane_pad = self.sizes[size]["plane"]
        w1 = lattice.Window(1, (-2.0,), (2.0,), (line_cells,))
        w2 = lattice.Window(2, (-1.0, -1.0), (1.0, 1.0), (plane_cells, plane_cells))
        cube1 = lattice.Cube((0.0,), line_side)
        cube2 = lattice.Cube((0.0, 0.0), plane_side)
        hilbert = czkernel.hilbert_kernel()
        perturbed = czkernel.perturbed_kernel()
        riesz = czkernel.riesz_kernel(0, 2)

        def line(atom):
            rep_h = czkernel.vanishing_moment_defect(hilbert, 0, [atom], padding=line_pad)
            rep_p = czkernel.vanishing_moment_defect(perturbed, 0, [atom], padding=line_pad)
            return {
                "hilbert_defect": rep_h.max_defect,
                "hilbert_mismatch": rep_h.max_mismatch,
                "perturbed_defect": rep_p.max_defect,
                "perturbed_mismatch": rep_p.max_mismatch,
            }

        def plane(atom):
            rep = czkernel.vanishing_moment_defect(riesz, 0, [atom], padding=plane_pad)
            return {"riesz_defect": rep.max_defect, "riesz_mismatch": rep.max_mismatch}

        out = []
        for k in keys:
            if k.startswith("line"):
                atom = hardy.make_atom(int(k[4:]), cube1, params, w1)
                out.append((k, lambda a=atom: line(a)))
            else:
                atom = hardy.make_atom(int(k[5:]), cube2, params, w2)
                out.append((k, lambda a=atom: plane(a)))
        return out

    def check(self, key, out, ref, size):
        problems = _same_keys(out, ref)
        if problems:
            return problems
        for k, v in out.items():
            if k.endswith("mismatch") and v > 1e-3:
                problems.append(f"{k}={v:.3e} exceeds 1e-3")
        # the criterion-5 defect bound holds at the criterion's own sizes
        if size == "full":
            for k in ("hilbert_defect", "riesz_defect"):
                if k in out and out[k] > 5e-3:
                    problems.append(f"{k}={out[k]:.3e} exceeds 5e-3")
        # mismatches sit at roundoff level, so only the bound applies to them
        return problems + _drift(out, ref, [k for k in out if k.endswith("defect")])


class Boundedness2D(Workload):
    """``jn-boundedness`` with riesz0 on a 2-D window, refine off.

    A function item is one family function's ratio ||T~f|| / ||f||; the
    monomial item is the blow-up indicator on the 8x padded frame.  Four
    function items and the monomial item make a pass, the loop body of
    ``lab.run_jn_boundedness`` written out so each item is timed alone.
    """

    name = "boundedness-2d"
    sizes = {"full": 64, "half": 32, "tiny": 8}
    params = (2.0, 2.0, 0, 0.1)
    padding = 8.0
    monomial = "monomial"

    def pool(self):
        return [f"f{k}" for k in range(32)] + [self.monomial]

    def plan(self, seed):
        return _draw(np.random.default_rng([seed, 3]), self.pool()[:-1], 4) + [self.monomial]

    def build(self, keys, size):
        cells = self.sizes[size]
        window = lattice.Window(2, (-1.0, -1.0), (1.0, 1.0), (cells, cells))
        params = spaces.NormParams(*self.params)
        tilde = czkernel.kernel_transpose(czkernel.kernel_by_name("riesz", j=0, n=2))
        span = 2.0
        center = tuple(float(c) for c in window.center)
        corr = czkernel.CorrectionSpec(center, 0.375 * span, params.s)
        reference = lattice.Cube(center, span / 2.0)

        def ratio(f):
            tf = czkernel.apply_modified(tilde, corr, f).result
            num = spaces.jn_con_norm(tf, params).value
            den = spaces.jn_con_norm(f, params).value
            return {"numerator": num, "denominator": den}

        def indicator():
            gamma = (0,) * window.n
            img = czkernel.modified_on_monomial(
                tilde, corr, gamma, window, padding=self.padding, check_doubling=False
            )
            floor = float(np.abs(lattice.GridFunction.monomial(window, gamma).flat).max())
            return {"poly_distance": czkernel.poly_distance(img.values, reference, params.s, floor=floor)}

        out = []
        for k in keys:
            if k == self.monomial:
                out.append((k, indicator))
            else:
                f = lab.make_family("random-osc", window, 1, int(k[1:]))[0]
                out.append((k, lambda f=f: ratio(f)))
        return out

    def check(self, key, out, ref, size):
        problems = _same_keys(out, ref)
        if problems:
            return problems
        if key != self.monomial and not out["denominator"] > 1e-12:
            problems.append("vanishing denominator")
        return problems + _drift(out, ref, list(out))


class Molecule2D(Workload):
    """``atom-image`` then ``decomposition`` for one atom on a 2-D window."""

    name = "molecule-2d"
    sizes = {"full": (128, 5), "tiny": (32, 3)}  # (cells, levels)
    epsilon = 5.0 / 24.0  # midpoint of epsilon_window(2, 2, 1, 1/4, delta, 2)
    per_pass = 8

    def pool(self):
        return [f"atom{k}" for k in range(48)]

    def plan(self, seed):
        return _draw(np.random.default_rng([seed, 4]), self.pool(), self.per_pass)

    def build(self, keys, size):
        cells, levels = self.sizes[size]

        def config(name, seed):
            return lab.ExperimentConfig(
                experiment=name,
                window={"n": 2, "lower": [-2.0, -2.0], "upper": [2.0, 2.0], "cells": [cells, cells]},
                kernel={"name": "riesz", "j": 0, "n": 2},
                params={"p": 2.0, "q": 2.0, "s": 1, "alpha": 0.25},
                family={"kind": "atom", "count": 1, "seed": seed},
                epsilon=self.epsilon,
                levels=levels,
            )

        def item(seed):
            img = lab.run_experiment("atom-image", config("atom-image", seed))
            dec = lab.run_experiment("decomposition", config("decomposition", seed))
            out = {
                "image_passed": img.passed,
                "epsilon": img.summary["epsilon"],
                "family_constant": img.summary["family_constant"],
                "pre_repair_defect": img.summary["max_pre_repair_defect"],
                "decomposition_passed": dec.passed,
            }
            for row in dec.rows:
                tag = str(row["case"]).split("-")[0]
                for col in ("hk_bound", "max_residual", "coef_p_sum", "geometric_bound", "atoms"):
                    out[f"{tag}_{col}"] = row[col]
            return out

        return [(k, lambda s=int(k[4:]): item(s)) for k in keys]

    def check(self, key, out, ref, size):
        problems = _same_keys(out, ref)
        if problems:
            return problems
        if not (out["image_passed"] and out["decomposition_passed"]):
            problems.append("experiment reports a violation")
        if out["epsilon"] != self.epsilon:
            problems.append(f"epsilon {out['epsilon']} is not {self.epsilon}")
        for tag in ("image", "molecule"):
            if out[f"{tag}_max_residual"] > 1e-6:
                problems.append(f"{tag} reconstruction residual exceeds 1e-6")
            if out[f"{tag}_atoms"] != ref[f"{tag}_atoms"]:
                problems.append(f"{tag} decomposition emitted a different number of atoms")
        if not math.isclose(out["image_coef_p_sum"], out["image_geometric_bound"], rel_tol=0.1):
            problems.append("image coefficient sum is not within 10% of the geometric bound")
        drift = [k for k in out if not k.endswith(("passed", "residual", "atoms"))]
        return problems + _drift(out, ref, drift)


WORKLOADS = {w.name: w for w in (Equivalence1D(), Dichotomy(), Boundedness2D(), Molecule2D())}
