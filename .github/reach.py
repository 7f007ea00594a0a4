"""Which lines of jnlab no run reaches.

    PYTHONPATH=<src> python reach.py

Traces line events with sys.settrace, in this one process, over every entry
of reference_runs.py (run through `jnlab.cli.main`), the criterion-5 defect
rows (each atom on a cleared memo) and tests/test_acceptance.py.  Then it
prints, per function of jnlab, the lines that no run reached, leaving out
raise statements and the except clauses that only re-raise.  It exits
non-zero when a function that no run enters is missing from KEPT (a function
nested in a KEPT one counts as kept), when a KEPT function is entered, or when
KEPT names a function that jnlab does not define: a function is byte-compared
by a reference run, or it goes, or KEPT says in one line why it stays.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
import tempfile
from pathlib import Path

import pytest

# function (its qualified name, nested functions as outer.inner) -> why it stays though no run enters it.
# Lines that stay though no run reaches them, inside functions that the runs enter:
# check_packing's overlap test for two or more cubes (an input check: hk_groups makes each atom its own
# polymer) and make_atom(seed_values), the only route to ZeroAtomError.
KEPT = {
    "Cube.contains": "the pointwise membership of the Region protocol; the engines use grid_contains",
    "Ball.contains": "the pointwise membership of the Region protocol; the engines use grid_contains",
    "Annulus.contains": "the pointwise membership of the Region protocol; the engines use grid_contains",
    "GridFunction.zeros": "the public value type's empty function",
    "GridFunction.__add__": "the pair of the __sub__ that apply_modified's canonical form uses",
    "integrate": "the discrete integral of the lattice model, over a region",
    "average": "the region mean of the lattice model",
    "conjugate": "the conjugate exponent of the paper's duality, behind NormParams.p_conj and q_conj",
    "NormParams.p_conj": "the paper's conjugate exponent p'",
    "NormParams.q_conj": "the paper's conjugate exponent q'",
    "NormParams.dual": "the exponents of the dual space",
    "NormReport.recompute": "recomputes a cube report's value from its terms, a check on the tiling record",
    "jn_ball_seminorm": "the paper's John-Nirenberg ball seminorm, which norm_pair computes beside the rm reports",
    "_convolution.d1": "the Leibniz first-slot derivative of a modulated kernel, KernelSpec's first-slot "
                       "contract; every run transposes perturbed first and reads the second slot",
    "smooth_bump_kernel": "the nonsingular control kernel exp(-|x - y|^2), for the Python API and kernel_by_name",
    "_Parser.error": "usage errors exit 3, not argparse's 2; tested by pytest",
}

ROOT = Path(importlib.util.find_spec("jnlab").origin).resolve().parent  # found, not imported: imports are traced


def functions(path: Path):
    """(qualified name, code object) of every function compiled from path, nested ones included,
    lambdas and comprehensions under the function that holds them."""
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            yield code.co_qualname.replace(".<locals>", ""), code


def own_lines(code) -> set:
    """The lines of a function's code, its lambdas and comprehensions included, its nested functions not."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for inner in code.co_consts:
        if inspect.iscode(inner) and inner.co_name.startswith("<"):
            lines |= own_lines(inner)
    return lines - {code.co_firstlineno}


def raising(path: Path) -> set:
    """The lines of raise statements, and of except clauses whose body only raises."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler) and all(isinstance(s, ast.Raise) for s in node.body):
            lines.add(node.lineno)
    return lines


def trace(work) -> tuple:
    """(the (file, line) pairs reached, the (file, first line) of each function entered) while work() runs."""
    reached, entered, root = set(), set(), str(ROOT)

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(root):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return local

    sys.settrace(call)
    try:
        work()
    finally:
        sys.settrace(None)
    return reached, entered


def runs() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    reference_runs = importlib.import_module("reference_runs")  # the table of runs, next to this file
    with tempfile.TemporaryDirectory() as scratch:
        inputs = Path(scratch)
        reference_runs.write_inputs(inputs)
        reference_runs.run_all(reference_runs.runs(inputs), inputs / "out", reference_runs.warm)
        reference_runs.write_defects(reference_runs.defect_cases(), inputs / "out", clear=True)
    tests = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"
    if pytest.main(["-q", "-p", "no:cacheprovider", str(tests)]) != 0:
        sys.exit("tests/test_acceptance.py failed under the trace")


def main() -> int:
    reached, entered = trace(runs)
    missing, kept_entered, found = [], [], set()
    for path in sorted(ROOT.glob("*.py")):
        skip, name = raising(path), str(path)
        for qualname, code in functions(path):
            found.add(qualname)
            where = f"{path.relative_to(ROOT.parent)}:{code.co_firstlineno} {qualname}"
            if (name, code.co_firstlineno) not in entered:
                kept = next((k for k in KEPT if qualname == k or qualname.startswith(k + ".")), None)
                print(f"{where}: not entered" + (f" (KEPT: {kept})" if kept else ""))
                if not kept:
                    missing.append(qualname)
                continue
            if qualname in KEPT:
                kept_entered.append(qualname)
            lines = sorted(line for line in own_lines(code) - skip if (name, line) not in reached)
            if lines:
                print(f"{where}: lines {', '.join(map(str, lines))} not reached")
    for qualname in missing:
        print(f"FAIL: no run enters {qualname}, and KEPT does not say why it stays")
    for qualname in kept_entered:
        print(f"FAIL: a run enters {qualname}, so it has no place in KEPT")
    for qualname in KEPT.keys() - found:
        print(f"FAIL: KEPT names {qualname}, which jnlab does not define")
    return 1 if missing or kept_entered or KEPT.keys() - found else 0


if __name__ == "__main__":
    sys.exit(main())
