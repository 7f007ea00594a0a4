import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jnlab.lattice import GridFunction, Window
from jnlab.spaces import NormParams
from jnlab.lab import (
    CONFIG_SCHEMA,
    EXPERIMENTS,
    TOLERANCES,
    ConfigError,
    ExperimentConfig,
    default_config,
    make_family,
    run_experiment,
)
from jnlab import cli, lattice


def test_family_determinism_and_kinds():
    w = Window(1, (0.0,), (1.0,), (64,))
    f1 = make_family("random-osc", w, 5, seed=3)
    f2 = make_family("random-osc", w, 5, seed=3)
    for a, b in zip(f1, f2):
        assert np.array_equal(a.values, b.values)
    polys = make_family("polynomial", w, 2, seed=1, params=NormParams(2, 2, 1, 0.0))
    assert len(polys) == 2
    for kind in ("step", "atom", "mystery"):  # the experiments that draw atoms call make_atom
        with pytest.raises(ConfigError):
            make_family(kind, w, 1, seed=0, params=NormParams(2, 2, 0, 0.25))


def test_family_refines_same_functions():
    # bump parameters are drawn once per seed, so refining the grid resamples
    # the same analytic functions: integral statistics must nearly agree
    w = Window(1, (0.0,), (1.0,), (64,))
    coarse = make_family("random-osc", w, 3, seed=9)
    fine = make_family("random-osc", w.refine(), 3, seed=9)
    for fc, ff in zip(coarse, fine):
        assert abs(fc.values.mean() - ff.values.mean()) <= 0.05
        l2c = float(np.sqrt((fc.values**2).mean()))
        l2f = float(np.sqrt((ff.values**2).mean()))
        assert l2f == pytest.approx(l2c, rel=0.1)


def test_experiment_configs_resolve():
    cfg = default_config("jn-boundedness")
    assert cfg.build_window().cells == (256,)
    assert cfg.build_kernel().name == "hilbert"
    assert cfg.build_params().p == 2.0
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="x", kernel={"name": "nope"}).build_kernel()
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="x", params={"p": 0.0, "q": 2, "s": 0, "alpha": 0}).build_params()
    with pytest.raises(ConfigError):
        run_experiment("unknown-experiment")


def small_jn_config(**kw):
    cfg = ExperimentConfig(
        experiment="jn-boundedness",
        window={"n": 1, "lower": [-1.0], "upper": [1.0], "cells": [64]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.1},
        family={"kind": "random-osc", "count": 5, "seed": 7},
        padding=8.0,
        refine=False,
    )
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_run_jn_boundedness_small():
    res = run_experiment("jn-boundedness", small_jn_config())
    assert res.passed
    assert res.summary["max_ratio"] > 0
    assert any(r["status"] == "ok" for r in res.rows)


def test_constant_family_rows_skipped():
    cfg = small_jn_config(family={"kind": "polynomial", "count": 3, "seed": 1})
    cfg.params = {"p": 2.0, "q": 2.0, "s": 1, "alpha": 0.1}
    res = run_experiment("jn-boundedness", cfg)
    skipped = [r for r in res.rows if r["status"] == "skipped"]
    assert len(skipped) == 3  # polynomial inputs have zero oscillation norm


def test_equivalence_keeps_skipped_rows():
    # constants have zero jn oscillation: each keeps its family index as a
    # skipped row, and the jn bracket is skipped, not computed from nothing
    cfg = ExperimentConfig(
        experiment="equivalence",
        window={"n": 1, "lower": [0.0], "upper": [1.0], "cells": [64]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.0},
        family={"kind": "polynomial", "count": 3, "seed": 1},
        refine=False,
    )
    res = run_experiment("equivalence", cfg)
    jn = [r for r in res.rows if r["norm"] == "jn"]
    assert [(r["case"], r["ratio"], r["status"]) for r in jn] == [(i, "", "skipped") for i in range(3)]
    assert [r["case"] for r in res.rows if r["norm"] == "rm"] == [0, 1, 2]
    assert res.summary["jn_bracket"] == "skipped" and "rm_ratio_max" in res.summary
    cfg.family = {"kind": "polynomial", "count": 0, "seed": 1}
    with pytest.raises(ConfigError, match="at least one function"):
        run_experiment("equivalence", cfg)


def test_equivalence_search_insufficiency_mode():
    cfg = ExperimentConfig(
        experiment="equivalence",
        window={"n": 1, "lower": [0.0], "upper": [1.0], "cells": [64]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.0},
        family={"kind": "random-osc", "count": 5, "seed": 11},
        radii=[3.5 / 64],  # single tiny radius: cannot resolve the window
        refine=False,
        tolerances={"bracket": 1.05},
    )
    res = run_experiment("equivalence", cfg)
    assert res.summary["search_insufficiency"] is True
    assert res.passed  # reported as insufficiency, not as a failure


def test_duality_experiment_small():
    cfg = default_config("duality")
    cfg.window = {"n": 1, "lower": [-2.0], "upper": [2.0], "cells": [128]}
    cfg.family = {"kind": "atom", "count": 3, "seed": 7, "functions": 2}
    res = run_experiment("duality", cfg)
    assert res.passed
    assert res.summary["max_mismatch"] <= 1e-3


def test_result_write_deterministic(tmp_path):
    cfg = small_jn_config()
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    r1 = run_experiment("jn-boundedness", cfg)
    r1.write(out1)
    r2 = run_experiment("jn-boundedness", cfg)
    r2.write(out2)
    assert (out1 / "jn_boundedness.csv").read_bytes() == (out2 / "jn_boundedness.csv").read_bytes()
    assert (out1 / "jn_boundedness.json").read_bytes() == (out2 / "jn_boundedness.json").read_bytes()
    payload = json.loads((out1 / "jn_boundedness.json").read_text())
    assert payload["schema_version"] == 1
    assert "config" in payload and "summary" in payload
    # the cube search's diagnostics stay out of the byte-compared files
    for path in (out1 / "jn_boundedness.csv", out1 / "jn_boundedness.json"):
        text = path.read_text()
        for key in ("engine", "skipped_sides", "skip_reasons", "offsets_evaluated", "cubes_evaluated"):
            assert key not in text


def test_cli_norm_and_project(tmp_path):
    w = Window(1, (0.0,), (1.0,), (32,))
    f = GridFunction.from_callable(w, lambda x: (x < 0.5).astype(float))
    path = tmp_path / "f.json"
    f.save(path)
    rc = cli.main(["norm", "--kind", "jn", "--function", str(path), "--p", "1", "--q", "1"])
    assert rc == 0
    rc = cli.main(["project", "--function", str(path), "--region", "cube:0.5:1.0", "--s", "1"])
    assert rc == 0


def test_cli_library_errors_exit_config(tmp_path, capsys):
    w = Window(1, (0.0,), (1.0,), (32,))
    path = tmp_path / "f.json"
    GridFunction.from_callable(w, lambda x: x).save(path)
    # NormParams rejects p < 1
    assert cli.main(["norm", "--function", str(path), "--p", "0.5"]) == 3
    # EmptyRegionError: the region lies outside the window
    assert cli.main(["project", "--function", str(path), "--region", "cube:5.0:0.5"]) == 3
    # JSONDecodeError: a malformed function file
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "lower": [0.0')
    assert cli.main(["norm", "--function", str(bad)]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_cli_usage_errors_exit_config(tmp_path, capsys):
    # argparse's own code is 2, which here means a violated property
    path = tmp_path / "f.json"
    GridFunction.zeros(Window(1, (0.0,), (1.0,), (16,))).save(path)
    for argv, named in (
        (["norm", "--function", str(path), "--s", "1.5"], "argument --s"),
        (["bogus"], "'bogus'"),
        (["norm"], "--function"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3, argv
        err = capsys.readouterr().err
        assert "usage: jnlab" in err and named in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "--help"])
    assert exc.value.code == 0
    # a degree outside [0, 4] is named before any projection runs
    for s in ("-1", "5"):
        assert cli.main(["project", "--function", str(path), "--region", "cube:0.5:0.5", "--s", s]) == 3
        assert "degree s" in capsys.readouterr().err


def test_cli_process_exit_codes(tmp_path):
    # the process exits with main's code (sys.exit(main())): 3 for a
    # configuration error and for a usage error argparse would exit 2 on
    import jnlab

    env = {**os.environ, "PYTHONPATH": str(Path(jnlab.__file__).parents[1])}
    out = tmp_path / "out"
    for argv in (["experiment", "equivalence", "--cells", "4", "--out", str(out)], ["bogus"]):
        run = subprocess.run([sys.executable, "-m", "jnlab.cli", *argv], env=env, capture_output=True, text=True)
        assert run.returncode == 3, (argv, run.stderr)
    assert not out.exists()


def test_cli_atom_roundtrip(tmp_path):
    out = tmp_path / "atom.json"
    rc = cli.main([
        "atom", "make", "--seed", "5", "--cells", "128", "--p", "2", "--q", "2",
        "--alpha", "0.25", "--out", str(out),
    ])
    assert rc == 0
    rc = cli.main([
        "atom", "check", "--function", str(out), "--region", "cube:0.0:0.5",
        "--p", "2", "--q", "2", "--alpha", "0.25",
    ])
    assert rc == 0
    # wrong region: certification fails -> property exit code
    rc = cli.main([
        "atom", "check", "--function", str(out), "--region", "cube:0.3:0.2",
        "--p", "2", "--q", "2", "--alpha", "0.25",
    ])
    assert rc == 2


def test_cli_experiment_and_config_error(tmp_path):
    rc = cli.main([
        "experiment", "duality", "--out", str(tmp_path), "--cells", "128",
    ])
    assert rc == 0
    assert (tmp_path / "duality.csv").exists()
    rc = cli.main(["norm", "--function", str(tmp_path / "missing.json")])
    assert rc == 3
    rc = cli.main(["apply-op", "--kernel", "made-up", "--function", str(tmp_path / "duality.json")])
    assert rc == 3


def test_cli_apply_op(tmp_path):
    w = Window(1, (-1.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: np.where(np.abs(x) < 0.5, 1.0, 0.0))
    path = tmp_path / "f.json"
    f.save(path)
    rc = cli.main([
        "apply-op", "--kernel", "hilbert", "--function", str(path),
        "--mode", "cz", "--out", str(tmp_path / "op"),
    ])
    assert rc == 0
    assert (tmp_path / "op" / "result.json").exists()
    report = json.loads((tmp_path / "op" / "report.json").read_text())
    assert report["mode"] == "cz" and len(report["points"]) > 0


def test_rm_boundedness_small():
    cfg = ExperimentConfig(
        experiment="rm-boundedness",
        window={"n": 1, "lower": [-1.0], "upper": [1.0], "cells": [64]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.0},
        family={"kind": "random-osc", "count": 5, "seed": 3},
        refine=True,
    )
    res = run_experiment("rm-boundedness", cfg)
    assert res.passed, res.violations
    assert res.summary["max_rm_ratio"] > 0
    assert res.summary["rm_vs_amalgam_factor"] <= 4.0


def test_perturbed_kernel_jn_blowup():
    # images of the constant blow up in the oscillation norm for the
    # moment-breaking kernel, by more than two orders of magnitude
    from jnlab.lattice import Cube, Window
    from jnlab.spaces import jn_con_norm
    from jnlab.czkernel import (
        CorrectionSpec,
        hilbert_kernel,
        kernel_transpose,
        modified_on_monomial,
        perturbed_kernel,
    )

    ew = Window(1, (-1.0,), (1.0,), (128,))
    corr = CorrectionSpec((0.0,), 0.5, 0)
    params = NormParams(2.0, 2.0, 0, 0.1)
    img_h = modified_on_monomial(
        kernel_transpose(hilbert_kernel()), corr, (0,), ew, padding=256, check_doubling=False
    )
    img_p = modified_on_monomial(
        kernel_transpose(perturbed_kernel()), corr, (0,), ew, padding=256, check_doubling=False
    )
    ratio = jn_con_norm(img_p.values, params).value / jn_con_norm(img_h.values, params).value
    assert ratio > 100.0


def test_cli_molecule_check_and_decompose(tmp_path):
    from jnlab.lattice import Cube, Window
    from jnlab.hardy import make_molecule

    params = NormParams(2.0, 2.0, 0, 0.25)
    w = Window(1, (-2.0,), (2.0,), (256,))
    mol = make_molecule(5, Cube((0.0,), 0.25), params, 0.3, w, 3)
    path = tmp_path / "mol.json"
    mol.values.save(path)
    rc = cli.main([
        "molecule", "check", "--function", str(path), "--region", "cube:0.0:0.25",
        "--epsilon", "0.3", "--j-max", "3", "--p", "2", "--q", "2", "--alpha", "0.25",
    ])
    assert rc == 0
    rc = cli.main([
        "molecule", "decompose", "--function", str(path), "--region", "cube:0.0:0.25",
        "--epsilon", "0.3", "--j-max", "3", "--p", "2", "--q", "2", "--alpha", "0.25",
        "--out", str(tmp_path / "dec"),
    ])
    assert rc == 0
    assert "route" not in (tmp_path / "dec" / "decomposition.json").read_text()  # the route is not an output
    # a non-molecule input is refused with the property exit code
    bad = mol.values * 100.0
    bad_path = tmp_path / "bad.json"
    bad.save(bad_path)
    rc = cli.main([
        "molecule", "decompose", "--function", str(bad_path), "--region", "cube:0.0:0.25",
        "--epsilon", "0.3", "--j-max", "3", "--p", "2", "--q", "2", "--alpha", "0.25",
    ])
    assert rc == 2


@pytest.mark.parametrize("action", ["check", "decompose"])
@pytest.mark.parametrize("j_max, held", [(4, True), (5, False), (30, False)])
def test_cli_molecule_levels_must_lie_in_the_window(tmp_path, capsys, action, j_max, held):
    # Q_4 of the 0.25 cube is the whole window; from level 5 on the annuli
    # are empty, and an empty annulus must not read as a met decay bound
    from jnlab.lattice import Cube
    from jnlab.hardy import make_molecule

    mol = make_molecule(5, Cube((0.0,), 0.25), NormParams(2.0, 2.0, 0, 0.25), 0.3, Window(1, (-2.0,), (2.0,), (256,)), 3)
    path = tmp_path / "mol.json"
    mol.values.save(path)
    rc = cli.main([
        "molecule", action, "--function", str(path), "--region", "cube:0.0:0.25",
        "--epsilon", "0.3", "--j-max", str(j_max), "--alpha", "0.25", "--s", "1",
    ])
    assert rc == 2  # at s = 1 the molecule's first moment fails in any case
    said = capsys.readouterr()
    assert (f"window does not fully contain level {j_max}" in said.out + said.err) == (not held)


@pytest.mark.parametrize("action", ["check", "decompose"])
def test_cli_molecule_rejects_negative_j_max(tmp_path, capsys, action):
    w = Window(1, (-2.0,), (2.0,), (64,))
    path = tmp_path / "f.json"
    GridFunction.zeros(w).save(path)
    rc = cli.main([
        "molecule", action, "--function", str(path), "--region", "cube:0.0:0.25",
        "--epsilon", "0.3", "--j-max", "-1", "--p", "2", "--q", "2", "--alpha", "0.25",
    ])
    assert rc == 3
    assert "j_max must be an integer >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, family",
    [
        ("atom-image", {"kind": "atom", "count": 0, "seed": 7}),
        ("decomposition", {"kind": "atom", "count": 0, "seed": 7}),
        ("duality", {"kind": "atom", "count": 0, "seed": 7}),
        ("duality", {"kind": "atom", "count": 2, "seed": 7, "functions": 0}),
        ("atom-image", {"kind": "atom", "count": 2.7, "seed": 7}),
        ("jn-boundedness", {"kind": "random-osc", "count": 2.7, "seed": 7}),
    ],
)
def test_family_size_must_be_a_whole_number(name, family):
    cfg = default_config(name)
    cfg.family = family
    with pytest.raises(ConfigError, match="at least one function"):
        run_experiment(name, cfg)


def atom_image_cfg(kernel_name):
    return ExperimentConfig(
        experiment="atom-image",
        kernel={"name": kernel_name},
        window={"n": 1, "lower": [-16.0], "upper": [16.0], "cells": [2048]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.25},
        family={"kind": "atom", "count": 3, "seed": 7},
        epsilon=0.3,
        levels=3,
    )


def test_atom_image_moment_dichotomy():
    # vanishing-moment kernel: truncation-level defects decay with the window,
    # get repaired, and every image certifies
    res_h = run_experiment("atom-image", atom_image_cfg("hilbert"))
    assert res_h.passed, res_h.violations
    assert all(r["repaired"] and r["moments_pass"] for r in res_h.rows)
    # moment-breaking kernel: defects do not decay, repair is refused, and
    # certification fails on the moment condition
    res_p = run_experiment("atom-image", atom_image_cfg("perturbed"))
    assert not res_p.passed
    assert all(not r["repaired"] and not r["moments_pass"] for r in res_p.rows)
    assert any("moment condition" in v for v in res_p.violations)


def test_atom_image_smooth_bump_trivial():
    cfg = atom_image_cfg("smooth_bump")
    res = run_experiment("atom-image", cfg)
    assert res.passed, res.violations
    # rapid decay: the annulus margins are far below the core margin
    for row in res.rows:
        assert row["max_annulus_ratio"] <= row["constant_needed"]


def test_cli_apply_op_modes_and_zero_extend(tmp_path):
    from jnlab.lattice import Window

    w = Window(1, (-1.0,), (1.0,), (64,))
    f = GridFunction.from_callable(w, lambda x: np.where(np.abs(x) < 0.5, 1.0 - np.abs(x), 0.0))
    path = tmp_path / "f.json"
    f.save(path)
    rc = cli.main([
        "apply-op", "--kernel", "hilbert", "--function", str(path),
        "--mode", "truncated", "--eta", str(2 * w.h),
    ])
    assert rc == 0
    rc = cli.main([
        "apply-op", "--kernel", "hilbert", "--function", str(path), "--mode", "modified",
    ])
    assert rc == 0
    rc = cli.main([
        "norm", "--kind", "rm", "--function", str(path), "--policy", "zero-extend",
        "--p", "2", "--q", "2", "--alpha", "-0.25", "--out", str(tmp_path / "norms"),
    ])
    assert rc == 0
    assert (tmp_path / "norms" / "rm_con.csv").exists()


def test_2d_experiments():
    cfg = ExperimentConfig(
        experiment="jn-boundedness",
        kernel={"name": "riesz", "j": 0, "n": 2},
        window={"n": 2, "lower": [-1.0, -1.0], "upper": [1.0, 1.0], "cells": [32, 32]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.1},
        family={"kind": "random-osc", "count": 3, "seed": 7},
        padding=4.0,
        refine=False,
    )
    res = run_experiment("jn-boundedness", cfg)
    assert res.passed and res.summary["max_ratio"] > 0
    cfg2 = ExperimentConfig(
        experiment="rm-boundedness",
        kernel={"name": "riesz", "j": 1, "n": 2},
        window={"n": 2, "lower": [-1.0, -1.0], "upper": [1.0, 1.0], "cells": [32, 32]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.0},
        family={"kind": "random-osc", "count": 3, "seed": 3},
        refine=False,
    )
    res2 = run_experiment("rm-boundedness", cfg2)
    assert res2.passed
    assert res2.summary["rm_vs_amalgam_factor"] <= 4.0


def test_experiment_config_from_json(tmp_path):
    import json as _json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_json.dumps({
        "experiment": "jn-boundedness",
        "window": {"n": 1, "lower": [-1.0], "upper": [1.0], "cells": [64]},
        "params": {"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.1},
        "family": {"kind": "random-osc", "count": 3, "seed": 5},
        "padding": 8.0,
        "refine": False,
    }))
    rc = cli.main([
        "experiment", "jn-boundedness", "--config", str(cfg_path),
        "--out", str(tmp_path / "res"), "--tol-refine", "2.0",
    ])
    assert rc == 0
    assert (tmp_path / "res" / "jn_boundedness.json").exists()
    rc = cli.main(["experiment", "jn-boundedness", "--config", str(tmp_path / "nope.json")])
    assert rc == 3



def test_cli_rejects_bad_truncation_radius(tmp_path, capsys):
    w = Window(1, (-1.0,), (1.0,), (32,))
    path = tmp_path / "f.json"
    GridFunction.from_callable(w, lambda x: x).save(path)
    base = ["apply-op", "--kernel", "hilbert", "--function", str(path), "--mode", "truncated"]
    # an explicit 0 is checked, not replaced by the pitch
    for eta in ("inf", "nan", "0", "-0.0625"):
        assert cli.main(base + ["--eta", eta]) == 3
        assert "eta must be" in capsys.readouterr().err
    assert cli.main(base + ["--eta", str(2 * w.h)]) == 0
    assert json.loads(capsys.readouterr().out)["eta"] == 2 * w.h


def test_cli_config_rejects_fractional_s(tmp_path, capsys):
    cfg = {
        "experiment": "jn-boundedness",
        "window": {"n": 1, "lower": [-1.0], "upper": [1.0], "cells": [32]},
        "params": {"p": 2.0, "q": 2.0, "s": 0.5, "alpha": 0.1},
        "family": {"kind": "random-osc", "count": 1, "seed": 5},
        "refine": False,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "jn-boundedness", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "s must be an integer" in capsys.readouterr().err
    # the same value written as a float with no fraction is accepted
    cfg["params"]["s"] = 0.0
    path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "jn-boundedness", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_cli_config_exponents_go_through_norm_params(tmp_path, capsys):
    cfg = {
        "experiment": "jn-boundedness",
        "window": {"n": 1, "lower": [-1.0], "upper": [1.0], "cells": [32]},
        "params": {"p": None, "q": 2.0, "s": 0, "alpha": 0.1},
        "family": {"kind": "random-osc", "count": 1, "seed": 5},
        "refine": False,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["experiment", "jn-boundedness", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "p must be a number" in capsys.readouterr().err
    cfg["params"]["p"] = "Infinity"
    assert ExperimentConfig(**cfg).build_params().p == float("inf")


def test_cli_equivalence_without_radii_exits_config(tmp_path, capsys):
    # at 4 cells no default radius fits the window: a configuration error,
    # not a table of ratios
    assert cli.main(["experiment", "equivalence", "--cells", "4", "--out", str(tmp_path)]) == 3
    assert "radius" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cells", [130, 255])
def test_duality_runs_at_cell_counts_not_divisible_by_four(tmp_path, cells):
    # the test functions live on window.padded(0.5), on the window's lattice at any count
    assert cli.main(["experiment", "duality", "--cells", str(cells), "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "duality.json").read_text())
    assert rows["summary"]["max_mismatch"] < 1e-3


def test_duality_computes_one_image_per_function_and_window(monkeypatch):
    from jnlab import lab

    calls = []
    real = lab.apply_modified
    monkeypatch.setattr(lab, "apply_modified", lambda *a, **k: calls.append(1) or real(*a, **k))
    cfg = default_config("duality")
    cfg.family = {"kind": "atom", "count": 3, "seed": 7, "functions": 2}
    res = run_experiment("duality", cfg)
    assert len(res.rows) == 6 and [(r["atom"], r["func"]) for r in res.rows][:3] == [(0, 0), (0, 1), (1, 0)]
    assert len(calls) == 2 * 2  # the window and its padding doubling

def test_atom_image_order_one():
    cfg = ExperimentConfig(
        experiment="atom-image",
        window={"n": 1, "lower": [-8.0], "upper": [8.0], "cells": [1024]},
        params={"p": 2.0, "q": 2.0, "s": 1, "alpha": 0.3},
        family={"kind": "atom", "count": 3, "seed": 11},
        epsilon=0.16,
        levels=4,
    )
    res = run_experiment("atom-image", cfg)
    assert res.passed, res.violations
    assert all(r["repaired"] and r["moments_pass"] for r in res.rows)


def test_campanato_branch_operator_ratio_stable():
    # the sup-oscillation (p = inf) branch of the boundedness ratio is also
    # grid-stable with a constant near the finite-p one
    import math

    from jnlab.lattice import Window
    from jnlab.spaces import jn_con_norm
    from jnlab.czkernel import CorrectionSpec, apply_modified, hilbert_kernel, kernel_transpose

    Kt = kernel_transpose(hilbert_kernel())
    params = NormParams(math.inf, 2.0, 0, 0.1)
    ratios = []
    for cells in (64, 128):
        w = Window(1, (-1.0,), (1.0,), (cells,))
        corr = CorrectionSpec(tuple(w.center), 0.75, 0)
        worst = 0.0
        for f in make_family("random-osc", w, 8, seed=31):
            den = jn_con_norm(f, params).value
            if den <= 1e-12:
                continue
            tf = apply_modified(Kt, corr, f).result
            worst = max(worst, jn_con_norm(tf, params).value / den)
        ratios.append(worst)
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) <= 2.0


def test_2d_default_scale_boundedness():
    # the stated desk-scale default for two dimensions (64 x 64) stays fast
    cfg = ExperimentConfig(
        experiment="jn-boundedness",
        kernel={"name": "riesz", "j": 0, "n": 2},
        window={"n": 2, "lower": [-1.0, -1.0], "upper": [1.0, 1.0], "cells": [64, 64]},
        params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.1},
        family={"kind": "random-osc", "count": 5, "seed": 7},
        padding=4.0,
        refine=False,
    )
    res = run_experiment("jn-boundedness", cfg)
    assert res.passed
    assert 0 < res.summary["max_ratio"] < 100


# --- experiment settings: one tolerance table, no clamps, typed errors ------


def test_tolerance_table_defaults():
    cfg = default_config("equivalence")
    assert {name: cfg.tol(name) for name in TOLERANCES} == {
        "bracket": 64.0, "refine_factor": 2.0, "rm_amalgam_factor": 4.0,
        "pairing_mismatch": 1e-3, "residual": 1e-6, "bound_spread": 4.0,
    }


@pytest.mark.parametrize(
    "tolerances",
    [
        {"residual": float("nan")},
        {"residual": float("inf")},
        {"residual": 0.0},
        {"bound_spread": -4.0},
        {"residual": "1e-6"},
        {"residul": 1e-6},
    ],
)
def test_bad_tolerance_is_a_config_error_before_the_run(monkeypatch, tolerances):
    from jnlab import lab

    monkeypatch.setitem(lab.EXPERIMENTS, "decomposition", lambda cfg: pytest.fail("the experiment ran"))
    cfg = default_config("decomposition")
    cfg.tolerances = tolerances
    with pytest.raises(ConfigError, match="tolerance"):
        run_experiment("decomposition", cfg)


@pytest.mark.parametrize(
    "args",
    [
        ["decomposition", "--tol-residual", "nan"],
        ["equivalence", "--tol-refine", "nan"],
        ["duality", "--tol-pairing", "-1"],
    ],
)
def test_cli_bad_tolerance_exits_config(tmp_path, capsys, args):
    assert cli.main(["experiment", *args, "--out", str(tmp_path)]) == 3
    assert "tolerance" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_violation_names_the_tolerance_in_force():
    cfg = default_config("decomposition")
    cfg.tolerances = {"bound_spread": 1.0}
    res = run_experiment("decomposition", cfg)
    assert res.summary["image_bound_spread"] > 1.0
    assert res.violations[-1].endswith("beyond factor 1")
    assert res.config["tolerances"] == {"bound_spread": 1.0}


@pytest.mark.parametrize("padding", ["2", "nan"])
def test_cli_padding_below_four_exits_config_before_any_operator(tmp_path, capsys, monkeypatch, padding):
    from jnlab import lab

    for name in ("apply_modified", "modified_on_monomial"):
        monkeypatch.setattr(lab, name, lambda *a, **k: pytest.fail("an operator was applied"))
    rc = cli.main(["experiment", "jn-boundedness", "--padding", padding, "--out", str(tmp_path)])
    assert rc == 3
    assert "padding factor must be finite and at least 4" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("atom-image", {"levels": -3}, "levels must be an integer >= 2"),
        ("atom-image", {"levels": 2.5}, "levels must be an integer >= 2"),
        ("decomposition", {"levels": "x"}, "levels must be an integer >= 2"),
        ("duality", {"family": {"kind": "atom", "count": 2, "seed": 7.9, "functions": 1}}, "family seed"),
        ("jn-boundedness", {"refine": "false"}, "refine must be true or false"),
        ("rm-boundedness", {"kernel": {"name": "hilbert", "j": 1}}, "bad parameters for kernel 'hilbert'"),
        ("equivalence", {"kernel": {"name": "hilbert", "order": -1}}, "kernel order must be an integer >= 0"),
        ("jn-boundedness", {"kernel": {"name": "hilbert", "order": 2.5}}, "kernel order must be an integer >= 0"),
        ("atom-image", {"family": {"kind": "mystery", "count": 10, "seed": 7}}, "family kind must be 'atom'"),
        ("duality", {"family": {"kind": "random-osc", "count": 10, "seed": 7}}, "family kind must be 'atom'"),
        ("rm-boundedness", {"radii": [0.05, 0.5]}, "at most one for rm-boundedness"),
        ("jn-boundedness", {"params": {"p": 2.0, "q": 2.0, "s": 5, "alpha": 0.1}}, "s must be at most 4"),
        ("atom-image", {"kernel": {"name": "riesz", "j": 0.5, "n": 2}}, "riesz component j must be an integer"),
        ("decomposition", {"kernel": {"name": "riesz", "j": 2.0, "n": 2}}, "component j must be 0 or 1"),
        ("duality", {"kernel": {"name": "smooth_bump", "n": 1.5}}, "smooth_bump dimension n must be an integer"),
        ("rm-boundedness", {"kernel": {"name": "riesz", "j": 1, "n": 1}}, "component j must be 0 on the line"),
        ("jn-boundedness", {"family": {"kind": "step", "count": 2, "seed": 7}}, "family kind must be 'random-osc' or"),
        ("rm-boundedness", {"family": {"kind": "atom", "count": 2, "seed": 7}}, "family kind must be 'random-osc' or"),
        ("equivalence", {"family": {"kind": "mystery", "count": 2, "seed": 7}}, "family kind must be 'random-osc' or"),
    ],
)
def test_cli_bad_experiment_setting_exits_config(tmp_path, capsys, name, change, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**asdict(default_config(name)), **change}))
    out = tmp_path / "out"
    assert cli.main(["experiment", name, "--config", str(path), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_apply_op_unknown_kernel_parameter_exits_config(tmp_path, capsys):
    path = tmp_path / "f.json"
    GridFunction.zeros(Window(1, (-1.0,), (1.0,), (16,))).save(path)
    rc = cli.main(["apply-op", "--kernel", "hilbert", "--kernel-params", '{"j": 1}', "--function", str(path)])
    assert rc == 3
    assert "bad parameters for kernel 'hilbert'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, code, message",
    [('{"j": 0.0}', 0, ""), ('{"j": 1.0}', 0, ""), ('{"j": 0.5}', 3, "riesz component j"), ('{"j": [0]}', 3, "riesz component j")],
)
def test_cli_apply_op_reads_riesz_j_as_a_whole_number(tmp_path, capsys, params, code, message):
    # j = 0.0 from a JSON object builds riesz0 (it was an IndexError, exit 1);
    # a list is the builder's ValueError, not an unhashable key of the kernel cache
    path = tmp_path / "f.json"
    GridFunction.from_callable(Window(2, (-1.0, -1.0), (1.0, 1.0), (8, 8)), lambda x, y: x - y).save(path)
    rc = cli.main(["apply-op", "--kernel", "riesz", "--kernel-params", params, "--function", str(path)])
    assert rc == code
    assert message in capsys.readouterr().err


# --- one typed schema: every config field checked before the run -------------


def _json_values():
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-100, 10_000), st.floats(), st.just(math.nan), st.text(max_size=3)
    )
    return st.one_of(scalars, st.lists(scalars, max_size=2), st.dictionaries(st.text(max_size=2), scalars, max_size=1))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(EXPERIMENTS)), st.data())
def test_check_raises_only_config_errors(name, data):
    # one field, or one key of an object field, replaced by a value of any
    # JSON type, NaN or a boolean: check() passes it or raises ConfigError
    cfg = default_config(name)
    field_name = data.draw(st.sampled_from(sorted(CONFIG_SCHEMA)))
    keys = CONFIG_SCHEMA[field_name][1]
    value = data.draw(_json_values())
    if keys and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(set(getattr(cfg, field_name)) | set(keys) - {"*"})))
        value = {**getattr(cfg, field_name), key: value}
    setattr(cfg, field_name, value)
    try:
        cfg.check()
    except ConfigError:
        pass


def _with(name, **change):
    return {**asdict(default_config(name)), **change}


@pytest.mark.parametrize(
    "name, config, flags",
    [
        ("jn-boundedness", _with("jn-boundedness", padding="8"), []),
        ("decomposition", _with("decomposition", tolerances=5), []),
        ("equivalence", _with("equivalence", family=[]), []),
        ("equivalence", _with("equivalence", family=[]), ["--seed", "3"]),
        ("duality", _with("duality", window=[]), []),
        ("rm-boundedness", _with("rm-boundedness", params=[2, 2, 0, 0]), []),
        ("equivalence", _with("equivalence", tolerances=[]), []),
        ("equivalence", _with("equivalence", tolerances=[]), ["--tol-refine", "2"]),
        ("duality", _with("duality", window={"n": "1", "lower": [-2.0], "upper": [2.0], "cells": [256]}), []),
        ("duality", _with("duality", window={"n": "1", "lower": [-2.0], "upper": [2.0], "cells": [256]}),
         ["--cells", "64"]),
        ("atom-image", _with("atom-image", epsilon="0.3"), []),
        ("atom-image", _with("atom-image", levels="5"), []),
        ("decomposition", _with("decomposition", tolerances={"residual": True}), []),
        ("jn-boundedness", _with("jn-boundedness", family={"kind": "random-osc", "count": True, "seed": False}), []),
        ("jn-boundedness", _with("jn-boundedness", family={"kind": "random-osc", "cuont": 3, "seed": 7}), []),
        ("jn-boundedness", _with("jn-boundedness", params={"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.1, "beta": 0.5}), []),
        ("jn-boundedness", _with("jn-boundedness", out_dir="elsewhere"), []),
        ("equivalence", _with("equivalence", kernel={"name": "nope"}), []),
        ("jn-boundedness", _with("jn-boundedness", kernel={"name": "riesz", "j": 0, "n": 2}), []),
        ("equivalence", _with("equivalence", padding=2), []),
    ],
)
def test_cli_mistyped_or_unknown_setting_exits_config(tmp_path, capsys, name, config, flags):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["experiment", name, "--config", str(path), "--out", str(out), *flags]) == 3
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_echo_names_the_experiment_that_ran():
    cfg = small_jn_config(experiment="duality")
    res = run_experiment("jn-boundedness", cfg)
    assert res.config["experiment"] == "jn-boundedness"
    assert cfg.experiment == "duality"  # the caller's config is left as it was


@pytest.mark.parametrize("name", ["atom-image", "decomposition", "duality"])
def test_atom_experiments_need_no_family_kind(name):
    cfg = default_config(name)
    del cfg.family["kind"]
    cfg.check()


def test_rm_boundedness_runs_the_radius_it_echoes(tmp_path, monkeypatch):
    import jnlab.lab as lab

    cfg = default_config("rm-boundedness")
    cfg.window["cells"] = [64]
    cfg.family["count"] = 1
    cfg.refine = False
    h = 2.0 / 64
    cfg.radii = [2 * h]  # the ball engine takes radii above 2h only
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps(asdict(cfg)))
    assert cli.main(["experiment", "rm-boundedness", "--config", str(path), "--out", str(out)]) == 3
    assert not out.exists()
    seen = []
    amalgam = lab.amalgam_norm
    monkeypatch.setattr(lab, "amalgam_norm", lambda f, p, q, r: seen.append(r) or amalgam(f, p, q, r))
    cfg.radii = [2.5 * h]
    res = run_experiment("rm-boundedness", cfg)
    assert set(seen) == {2.5 * h} and res.config["radii"] == [2.5 * h]


@pytest.mark.parametrize("kind", ["jn", "rm"])
@pytest.mark.parametrize("policy", ["restrict", "zero-extend"])
def test_cli_norm_out_writes_the_printed_row(tmp_path, capsys, kind, policy):
    w = Window(1, (-1.0,), (1.0,), (32,))
    GridFunction.from_callable(w, lambda x: np.sin(3 * x) + (x > 0.2)).save(tmp_path / "f.json")
    args = ["norm", "--kind", kind, "--function", str(tmp_path / "f.json"), "--policy", policy,
            "--s", "0", "--alpha", "-0.25" if kind == "rm" else "0.0", "--out", str(tmp_path / "norms")]
    assert cli.main(args) == 0
    row = json.loads(capsys.readouterr().out)
    text = (tmp_path / "norms" / f"{row['norm_name']}.csv").read_bytes().decode()
    assert text == ",".join(row) + "\r\n" + ",".join(str(v) for v in row.values()) + "\r\n"


@pytest.mark.parametrize("region", ["ball:0.0:0.5", "annulus:0.0:0.25:1"])
@pytest.mark.parametrize("command", [["atom", "check"], ["molecule", "check"], ["molecule", "decompose"]])
def test_cli_atom_and_molecule_commands_take_a_cube(tmp_path, capsys, command, region):
    path = tmp_path / "f.json"
    GridFunction.zeros(Window(1, (-2.0,), (2.0,), (64,))).save(path)
    args = [*command, "--function", str(path), "--region", region, "--alpha", "0.25"]
    if command[0] == "molecule":
        args += ["--epsilon", "0.3"]
    assert cli.main(args) == 3
    assert "takes a cube region" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["--function", "--region"])
def test_cli_atom_check_without_its_inputs_exits_config(tmp_path, capsys, missing):
    path = tmp_path / "f.json"
    GridFunction.zeros(Window(1, (-1.0,), (1.0,), (64,))).save(path)
    given = {"--function": str(path), "--region": "cube:0.0:0.5"}
    given.pop(missing)
    assert cli.main(["atom", "check", *(v for pair in given.items() for v in pair)]) == 3
    assert f"atom check needs {missing}" in capsys.readouterr().err
    # atom make needs neither
    assert cli.main(["atom", "make", "--cells", "64", "--alpha", "0.25"]) == 0


def test_cli_atom_make_out_makes_its_directory(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "atom.json"
    assert cli.main(["atom", "make", "--seed", "5", "--cells", "64", "--alpha", "0.25", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert GridFunction.load(out).window.cells == (64,)


@pytest.mark.parametrize("kernel, params, n", [("riesz", '{"n": 2}', 1), ("hilbert", "{}", 2)])
def test_cli_apply_op_kernel_of_another_dimension_exits_config(tmp_path, capsys, kernel, params, n):
    path = tmp_path / "f.json"
    GridFunction.zeros(Window(n, (-1.0,) * n, (1.0,) * n, (16,) * n)).save(path)
    rc = cli.main(["apply-op", "--kernel", kernel, "--kernel-params", params, "--function", str(path)])
    assert rc == 3
    assert f"is {3 - n}-D but the source window is {n}-D" in capsys.readouterr().err


@pytest.mark.parametrize("params", ["[]", "3", '"n"'])
def test_cli_apply_op_kernel_params_must_be_an_object(tmp_path, capsys, params):
    path = tmp_path / "f.json"
    GridFunction.zeros(Window(1, (-1.0,), (1.0,), (16,))).save(path)
    rc = cli.main(["apply-op", "--kernel", "hilbert", "--kernel-params", params, "--function", str(path)])
    assert rc == 3
    assert "kernel parameters must be a JSON object" in capsys.readouterr().err


def test_cli_norm_degree_above_the_cap_exits_config(tmp_path, capsys):
    path = tmp_path / "f.json"
    GridFunction.from_callable(Window(1, (-1.0,), (1.0,), (32,)), np.sin).save(path)
    assert cli.main(["norm", "--function", str(path), "--s", "4"]) == 0
    assert cli.main(["norm", "--function", str(path), "--s", "5"]) == 3
    assert "s must be at most 4" in capsys.readouterr().err


def test_atom_image_runs_leave_the_memo_bounded():
    # every run names one kernel, which kernel_by_name builds once; the
    # tables memoised under it serve each later run, so twenty runs hold what
    # one run holds
    def run(seed):
        config = ExperimentConfig(
            experiment="atom-image",
            window={"n": 2, "lower": [-2.0, -2.0], "upper": [2.0, 2.0], "cells": [128, 128]},
            kernel={"name": "riesz", "j": 0, "n": 2},
            params={"p": 2.0, "q": 2.0, "s": 1, "alpha": 0.25},
            family={"kind": "atom", "count": 1, "seed": seed},
            epsilon=5.0 / 24.0,
            levels=5,
        )
        assert run_experiment("atom-image", config).passed
        return lattice._MEMO.held

    lattice._MEMO.clear()
    held = [run(seed) for seed in range(20)]
    assert max(held) == held[0]
