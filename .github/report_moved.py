"""Name each reference-run file that moved, and by how much.

    python report_moved.py NEW OLD

For every file under NEW whose bytes differ from the file of the same path
under OLD, prints the pair and then, per numeric column, the largest
relative and the largest absolute change, so that a roundoff-level column
(a mismatch or a residual near 0) reads as what it is:

- a CSV: per header column, and every changed non-numeric cell;
- a JSON file: per numeric leaf path, list indices written as [], and every
  changed non-numeric leaf;
- a criterion-5 defect file (defects/*.txt, one row a line, tab-separated,
  floats as float.hex): per row field.

Informational only: the byte comparison decides, and this script exits 0.
"""

import csv
import json
import math
import sys
from pathlib import Path

# the fields of a vanishing_moment_defect row, in the order the defect files write them
DEFECT_FIELDS = ("atom", "gamma", "defect", "mismatch", "lhs", "rhs", "half_padding_lhs", "decaying")


def number(token):
    """The float a token spells (decimal or float.hex), or None."""
    if isinstance(token, bool) or token is None:
        return None
    if isinstance(token, (int, float)):
        return float(token)
    try:
        return float.fromhex(token) if "0x" in token else float(token)
    except ValueError:
        return None


def leaves(tree, path=""):
    """(path, leaf) for every leaf of a JSON tree; list indices become []."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for value in tree:
            yield from leaves(value, path + "[]")
    else:
        yield path, tree


def columns(path: Path):
    """The file as (column, value) pairs in reading order, or a reason it has none."""
    text = path.read_text()
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        return [(col, v) for row in rows[1:] for col, v in zip(rows[0], row)], rows[:1]
    if path.suffix == ".json":
        return list(leaves(json.loads(text))), None
    if path.parent.name == "defects":
        rows = [line.split("\t") for line in text.splitlines()]
        return [(DEFECT_FIELDS[k] if len(row) == len(DEFECT_FIELDS) else f"field {k}", v)
                for row in rows for k, v in enumerate(row)], None
    return None, None


def report(new: Path, old: Path) -> None:
    (a, head_a), (b, head_b) = columns(new), columns(old)
    if a is None:
        return
    if [c for c, _ in a] != [c for c, _ in b] or head_a != head_b:
        print(f"  layout differs ({len(a)} values against {len(b)})")
        return
    worst = {}
    for (col, x), (_, y) in zip(a, b):
        if x == y:
            continue
        fx, fy = number(x), number(y)
        if fx is None or fy is None:
            print(f"  {col}: {y} -> {x}")
            continue
        diff = abs(fx - fy)
        scale = max(abs(fx), abs(fy))
        rel = diff / scale if math.isfinite(diff) and scale else math.inf
        r, d = worst.get(col, (0.0, 0.0))
        worst[col] = (max(r, rel), max(d, diff) if math.isfinite(diff) else math.inf)
    for col, (rel, diff) in worst.items():
        print(f"  {col}: largest relative change {rel:.3e}, largest absolute change {diff:.3e}")


def main(new_root: Path, old_root: Path) -> None:
    for new in sorted(p for p in new_root.rglob("*") if p.is_file()):
        old = old_root / new.relative_to(new_root)
        if not old.exists():
            print(f"{new}: no file at {old}")
        elif old.read_bytes() != new.read_bytes():
            print(f"{new} against {old}:")
            report(new, old)


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]))
