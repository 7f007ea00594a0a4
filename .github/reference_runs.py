"""Every byte-compared jnlab run, listed once.

    PYTHONPATH=<src> python reference_runs.py OUT [WARM]

writes each run's files under OUT/<tag>/, one `python -m jnlab.cli` process
per run, so every memo starts cold, and the criterion-5 defect rows under
OUT/defects/, each atom on a cleared memo.  With WARM, this process then runs
the table and the defect rows twice through `jnlab.cli.main` and
`vanishing_moment_defect` and writes the second pass, which reads the memos
the first one filled, under WARM/.  The jnlab that runs is the one
PYTHONPATH picks, and it writes its own seeded input files, so two trees are
compared with `diff -r` on their OUT directories.  A run that exits
non-zero or writes fewer files than it should stops the script with an
error.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from jnlab import lattice
from jnlab.cli import main
from jnlab.czkernel import hilbert_kernel, perturbed_kernel, riesz_kernel, vanishing_moment_defect
from jnlab.hardy import make_atom, make_molecule
from jnlab.lattice import Cube, GridFunction, Window
from jnlab.spaces import NormParams

DEFAULTS = ["jn-boundedness", "rm-boundedness", "equivalence", "atom-image", "duality", "decomposition"]

WIN2 = {"n": 2, "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
RIESZ0 = {"name": "riesz", "j": 0, "n": 2}
P2S1 = {"p": 2.0, "q": 2.0, "s": 1, "alpha": 0.25}
OSC11 = {"kind": "random-osc", "count": 10, "seed": 11}

# tag: (the experiments run on the config, the config); each writes under OUT/<tag>/
CONFIGS = {
    # 2-D riesz0 jn-boundedness: dense family functions and monomial frames take the 2-D point sums
    "jn2d": (["jn-boundedness"], {"experiment": "jn-boundedness", "window": {**WIN2, "cells": [32, 32]}, "kernel": RIESZ0, "params": {"p": 2.0, "q": 2.0, "s": 0, "alpha": 0.1}, "family": {"kind": "random-osc", "count": 4, "seed": 7}, "refine": True}),
    # the defaults are 1-D with s = 0, where every dual basis is a constant: the 2-D degree-1 molecule path
    "mol2d": (["atom-image", "decomposition"], {"experiment": "atom-image", "window": {"n": 2, "lower": [-2.0, -2.0], "upper": [2.0, 2.0], "cells": [64, 64]}, "kernel": RIESZ0, "params": P2S1, "family": {"kind": "atom", "count": 2, "seed": 7}, "epsilon": 0.20833333333333334, "levels": 4}),
    # the molecule-2d benchmark's ladder at 128^2: with 5 levels the decomposition runs j_max 4 and four
    # levels of correction atoms, which neither mol2d (64^2, 4 levels) nor mol264 (3 levels) reaches
    "mol128": (["atom-image", "decomposition"], {"experiment": "atom-image", "window": {"n": 2, "lower": [-2.0, -2.0], "upper": [2.0, 2.0], "cells": [128, 128]}, "kernel": RIESZ0, "params": P2S1, "family": {"kind": "atom", "count": 2, "seed": 7}, "epsilon": 0.20833333333333334, "levels": 5}),
    # the 1-D degree-1 ladder
    "dec1d": (["decomposition"], {"experiment": "decomposition", "window": {"n": 1, "lower": [-2.0], "upper": [2.0], "cells": [512]}, "kernel": {"name": "hilbert"}, "params": P2S1, "family": {"kind": "atom", "count": 4, "seed": 7}, "levels": 5}),
    # a window of more than 2^16 cells, memoised
    "mol264": (["atom-image", "decomposition"], {"experiment": "decomposition", "window": {"n": 2, "lower": [-2.0, -2.0], "upper": [2.0, 2.0], "cells": [264, 264]}, "kernel": RIESZ0, "params": P2S1, "family": {"kind": "atom", "count": 1, "seed": 7}, "epsilon": 0.20833333333333334, "levels": 3}),
    "eq2d": (["equivalence"], {"experiment": "equivalence", "window": {**WIN2, "cells": [32, 32]}, "kernel": RIESZ0, "family": {"kind": "random-osc", "count": 3, "seed": 7}}),
    # at q = 3 jn takes the projector route and rm the sums of |f|^3
    "eqq3": (["equivalence"], {"experiment": "equivalence", "params": {"p": 2.0, "q": 3.0, "s": 0, "alpha": 0.1}}),
    # the projector routes: s = 1 in 1-D (cube projector, clipped balls) and in 2-D, and q = inf at s = 0
    "eqs1": (["equivalence"], {"experiment": "equivalence", "params": {"p": 2.0, "q": 2.0, "s": 1, "alpha": 0.0}, "family": OSC11}),
    "eqinf": (["equivalence"], {"experiment": "equivalence", "params": {"p": 2.0, "q": "inf", "s": 0, "alpha": 0.0}, "family": OSC11}),
    "eq2ds1": (["equivalence"], {"experiment": "equivalence", "window": {**WIN2, "cells": [24, 24]}, "kernel": RIESZ0, "params": {**P2S1, "alpha": 0.0}, "family": {"kind": "random-osc", "count": 2, "seed": 7}}),
}

# the CLI's own artefacts, written under OUT/cli/<name>, on the seeded inputs of write_inputs
CLI = {
    "project-cube.json": "project --function {inputs}/f1.json --region cube:0.1:1.5 --s 2",
    "project-ball.json": "project --function {inputs}/f2.json --region ball:0.1,-0.2:0.6 --s 1",
    "norm-jn": "norm --kind jn --function {inputs}/f1.json --s 1",
    "norm-rm": "norm --kind rm --function {inputs}/f1.json --policy zero-extend --alpha -0.25",
    "apply-op": "apply-op --kernel perturbed --function {inputs}/f1.json --mode modified --s 1",
    "atom.json": "atom make --seed 5 --cells 128 --alpha 0.25",
    "molecule": "molecule decompose --function {inputs}/mol.json --region cube:0.0:0.25 --epsilon 0.3 --alpha 0.25",
}


def defect_cases() -> dict:
    """name: (kernel, s, atoms, padding) of criterion 5: 8 line atoms through
    hilbert and perturbed at padding 512 and 2 plane atoms through riesz0 and
    riesz1 at 256, all at s = 0, and 2 plane atoms at s = 1 through riesz0 at
    64, whose three gammas read each band of one streamed image.  Every plane
    image takes the 2-D row products."""
    params, plane_window = NormParams(2.0, 2.0, 0, 0.25), Window(2, (-1.0, -1.0), (1.0, 1.0), (48, 48))
    line = [make_atom(100 + i, Cube((0.0,), 1.0), params, Window(1, (-2.0,), (2.0,), (512,))) for i in range(8)]
    plane = [make_atom(200 + i, Cube((0.0, 0.0), 0.25), params, plane_window) for i in range(2)]
    plane_s1 = [make_atom(300 + i, Cube((0.0, 0.0), 0.25), NormParams(2.0, 2.0, 1, 0.25), plane_window) for i in range(2)]
    riesz0 = riesz_kernel(0, 2)
    return {
        "hilbert": (hilbert_kernel(), 0, line, 512),
        "perturbed": (perturbed_kernel(), 0, line, 512),
        "riesz0": (riesz0, 0, plane, 256),
        "riesz0-s1": (riesz0, 1, plane_s1, 64),
        "riesz1": (riesz_kernel(1, 2), 0, plane, 256),
    }


def write_defects(cases: dict, root: Path, clear: bool) -> None:
    """The defect rows of each atom of the cases, one row a line with its
    floats as float.hex, in root/defects/<name>.txt.  With clear, each atom
    starts on an empty memo; without, it reads the difference table and the
    frame Taylor coefficients that earlier calls with its kernel left."""
    (root / "defects").mkdir()
    for name, (kernel, s, atoms, padding) in cases.items():
        lines = []
        for atom in atoms:
            if clear:
                lattice._MEMO.clear()
            rows = vanishing_moment_defect(kernel, s, [atom], padding=padding).rows
            lines += ["\t".join(v.hex() if isinstance(v, float) else str(v) for v in row.values()) for row in rows]
        (root / "defects" / f"{name}.txt").write_text("\n".join(lines) + "\n")


def write_inputs(inputs: Path) -> None:
    """The configs, and the seeded functions the CLI commands read."""
    for tag, (_, config) in CONFIGS.items():
        (inputs / f"{tag}.json").write_text(json.dumps(config))
    rng = np.random.default_rng(7)
    GridFunction(Window(1, (-1.0,), (1.0,), (128,)), rng.normal(size=128)).save(inputs / "f1.json")
    GridFunction(Window(2, (-1.0, -1.0), (1.0, 1.0), (32, 32)), rng.normal(size=(32, 32))).save(inputs / "f2.json")
    molecule = make_molecule(5, Cube((0.0,), 0.25), NormParams(2.0, 2.0, 0, 0.25), 0.3, Window(1, (-2.0,), (2.0,), (256,)), 3)
    molecule.values.save(inputs / "mol.json")


def runs(inputs: Path) -> list:
    """(--out below the output directory, CLI arguments) of every run."""
    table = [("defaults", f"experiment {name}") for name in DEFAULTS]
    table += [(tag, f"experiment {name} --config {inputs}/{tag}.json") for tag, (names, _) in CONFIGS.items() for name in names]
    table += [(f"cli/{out}", command.format(inputs=inputs)) for out, command in CLI.items()]
    return [(out, command.split()) for out, command in table]


def run_all(table: list, root: Path, run) -> None:
    """Run each entry through run(argv), which returns its exit code, into
    root, which must not exist yet, and check that each exits 0 and adds its
    files there: an experiment its CSV and JSON, a CLI command one at least."""
    root.mkdir(parents=True)
    for out, argv in table:
        argv = [*argv, "--out", str(root / out)]
        before = sum(1 for p in root.rglob("*") if p.is_file())
        code = run(argv)
        added = sum(1 for p in root.rglob("*") if p.is_file()) - before
        if code != 0 or added < (2 if argv[0] == "experiment" else 1):
            sys.exit(f"jnlab {' '.join(argv)}: exit {code}, {added} new files under {root}")


def cold(argv: list) -> int:
    return subprocess.run([sys.executable, "-m", "jnlab.cli", *argv], stdout=subprocess.DEVNULL).returncode


def warm(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as scratch:
        inputs = Path(scratch)
        write_inputs(inputs)
        table, cases = runs(inputs), defect_cases()
        run_all(table, Path(sys.argv[1]), cold)
        write_defects(cases, Path(sys.argv[1]), clear=True)
        if len(sys.argv) == 3:
            for root in (inputs / "first", Path(sys.argv[2])):
                run_all(table, root, warm)
                write_defects(cases, root, clear=False)
