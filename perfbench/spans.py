"""Span tracing around jnlab's public functions, and the per-layer metrics.

``Tracer.installed()`` replaces every public function of each jnlab module,
in every module namespace that holds it, with a wrapper that records a span
(name, start, end, parent).  So ``jnlab.lab.jn_con_norm`` and
``jnlab.spaces.jn_con_norm`` are both wrapped, and a call is traced through
whichever namespace it goes.  ``Window.midpoints`` is wrapped on its class.
The originals are put back on exit, so untraced passes in the same process
run the plain code.

A span's layer is the module that defines the function.  Self time is a
span's duration minus the durations of its direct children.  Work counts
(pair evaluations, tilings, ball centers, lattice cells) are computed from
each call's arguments and result, never from timing, so they repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from jnlab.lattice import Window
from jnlab.polyproj import ConditioningError
from jnlab.spaces import SearchConfig

LAYERS = ("lattice", "polyproj", "spaces", "czkernel", "hardy", "lab")
COUNT_SPAN = "trace.count"  # time spent computing counts, kept out of self time

CUBE_NORMS = ("spaces.jn_con_norm", "spaces.rm_con_norm")
BALL_NORMS = ("spaces.jn_ball_seminorm", "spaces.rm_ball_seminorm", "spaces.amalgam_norm")
CZ_FUNCS = ("apply_truncated", "apply_modified", "modified_on_monomial", "vanishing_moment_defect")
HARDY_FUNCS = ("make_atom", "validate_atom", "validate_molecule", "repair_moments", "decompose_molecule")


def _padded_cells(cells, factor: float) -> int:
    """Cell count of a window padded by `factor`, as czkernel pads it."""
    return math.prod(c + 2 * math.ceil(c * (factor - 1.0) / 2.0) for c in cells)


# --- computed work counts: (bound arguments, result) -> {counter: amount} ---


def _count_truncated(a, result):
    f = a["f"]
    if a["eval_points"] is not None:
        n_eval = np.atleast_2d(np.asarray(a["eval_points"])).shape[0]
    else:
        n_eval = (a["eval_window"] or f.window).cell_count
    return {"czkernel.pair_evals": int(np.count_nonzero(f.values)) * n_eval}


def _count_modified(a, result):
    # the pairs are counted in the apply_truncated calls of the ladder
    return {"czkernel.converged_fraction": result.converged_fraction}


def _count_monomial(a, result):
    w = a["eval_window"]
    pairs = _padded_cells(w.cells, a["padding"]) * w.cell_count
    if a["check_doubling"]:
        pairs += _padded_cells(w.cells, 2 * a["padding"]) * w.cell_count
    return {"czkernel.pair_evals": pairs}


def _count_defect(a, result):
    pairs = 0
    for atom in a["atoms"]:
        gf = atom.values if hasattr(atom, "values") else atom[0]
        cube = atom.cube if hasattr(atom, "cube") else atom[1]
        w = gf.window
        side_cells = max(1, round(cube.side / w.h))
        factor = max(a["padding"] * side_cells / min(w.cells), 1.0)
        big = _padded_cells(w.cells, factor)
        half = _padded_cells(w.cells, max(factor / 2.0, 1.0))
        s = a["s"]
        gammas = len(a["gammas"]) if a["gammas"] is not None else math.comb(w.n + s, s)
        nnz = int(np.count_nonzero(gf.values))
        # forward images on both frames, then one dual image per moment
        pairs += nnz * (big + half) + gammas * nnz * big
    return {"czkernel.pair_evals": pairs}


def _count_cube_norm(a, result):
    search = a["search"] or SearchConfig()
    w = a["f"].window
    s = a["params"].s if "params" in a else 0
    sides = search.sides(w, s)
    skipped = set(result.diagnostics.get("skipped_sides", ()))
    tilings = 0
    for m in sides:
        if m in skipped:
            continue
        if search.packings == "exhaustive":
            tilings += w.cells[0] - m + 1
        else:
            tilings += math.ceil(m / search.offset_stride) ** w.n
    return {"spaces.tilings": tilings, "spaces.sides": len(sides), "spaces.sides_skipped": len(skipped)}


def _count_ball_norm(a, result):
    radii = len(a["radii"]) if "radii" in a else 1
    return {"spaces.ball_centers": a["f"].window.cell_count * radii}


COUNTERS = {
    "czkernel.apply_truncated": _count_truncated,
    "czkernel.apply_modified": _count_modified,
    "czkernel.apply_cz": _count_modified,
    "czkernel.modified_on_monomial": _count_monomial,
    "czkernel.vanishing_moment_defect": _count_defect,
    "lattice.midpoints": lambda a, r: {"lattice.midpoints.cells": a["self"].cell_count},
    "hardy.decompose_molecule": lambda a, r: {"hardy.atoms_emitted": len(r.atoms)},
    **{name: _count_cube_norm for name in CUBE_NORMS},
    **{name: _count_ball_norm for name in BALL_NORMS},
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list] = defaultdict(list)
        self.conditioning_errors = 0
        self._stack: list[int] = []
        self._counting = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter is not None else None
        polyproj = name.startswith("polyproj.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._counting:  # a counter's own calls into jnlab are not traced
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                parent = self.spans[idx][3]
                outer = parent < 0 or not self.spans[parent][0].startswith("polyproj.")
                if polyproj and outer and isinstance(exc, ConditioningError):
                    self.conditioning_errors += 1
                raise
            finally:
                self.close(idx)
            if counter is not None:
                cidx = self.open(COUNT_SPAN)
                self._counting = True
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counted = counter(bound.arguments, result)
                finally:
                    self._counting = False
                    self.close(cidx)
                for key, amount in counted.items():
                    self.counts[key].append(amount)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the public jnlab functions for the duration of the block."""
        modules = [importlib.import_module(f"jnlab.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        saved = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.split(".")
                if owner[0] != "jnlab" or owner[-1] not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(f"{owner[-1]}.{obj.__name__}", obj)
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        midpoints = Window.midpoints
        Window.midpoints = self.wrap("lattice.midpoints", midpoints)
        try:
            yield self
        finally:
            Window.midpoints = midpoints
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += (end - start) - child[i]
    return {k: (v[0], v[1]) for k, v in out.items()}


def layer_self(per_name: dict, layer: str) -> float:
    return sum(t for name, (_, t) in per_name.items() if name.split(".")[0] == layer)


def library_time(spans) -> float:
    """Time covered by outermost library spans (no library span above them)."""
    total = 0.0
    for name, start, end, parent in spans:
        if name.split(".")[0] not in LAYERS:
            continue
        while parent >= 0 and spans[parent][0].split(".")[0] not in LAYERS:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracers: list[Tracer]) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics averaged per traced pass: name -> (value, unit, source).

    source is "computed" for work counts derived from call arguments and
    results, "counted" for call and error counts, "measured" for times and
    rates.
    """
    passes = len(tracers)
    per_name: dict[str, list] = defaultdict(lambda: [0, 0.0])
    counts: dict[str, list] = defaultdict(list)
    cond_errors = 0
    for tr in tracers:
        for name, (calls, secs) in self_times(tr.spans).items():
            per_name[name][0] += calls
            per_name[name][1] += secs
        for k, v in tr.counts.items():
            counts[k] += v
        cond_errors += tr.conditioning_errors
    per = {k: (v[0] / passes, v[1] / passes) for k, v in per_name.items()}
    cnt = {k: sum(v) / passes for k, v in counts.items()}

    def calls(*names):
        return sum(per.get(n, (0, 0.0))[0] for n in names)

    def secs(*names):
        return sum(per.get(n, (0, 0.0))[1] for n in names)

    m: dict[str, tuple[float, str, str]] = {}

    def put(name, value, unit, source="measured"):
        m[name] = (float(value), unit, source)

    put("lattice.region_mask.calls", calls("lattice.region_mask"), "count", "counted")
    put("lattice.region_mask.self_s", secs("lattice.region_mask"), "s")
    put("lattice.midpoints.calls", calls("lattice.midpoints"), "count", "counted")
    put("lattice.midpoints.self_s", secs("lattice.midpoints"), "s")
    put("lattice.midpoints.cells", cnt.get("lattice.midpoints.cells", 0.0), "count", "computed")
    put("lattice.self_s", layer_self(per, "lattice"), "s")

    for fn in ("moment_projection", "dual_basis"):
        put(f"polyproj.{fn}.calls", calls(f"polyproj.{fn}"), "count", "counted")
        put(f"polyproj.{fn}.self_s", secs(f"polyproj.{fn}"), "s")
    put("polyproj.conditioning_errors", cond_errors / passes, "count", "counted")
    put("polyproj.self_s", layer_self(per, "polyproj"), "s")

    cube_s = secs(*CUBE_NORMS)
    ball_s = secs(*BALL_NORMS)
    tilings = cnt.get("spaces.tilings", 0.0)
    centers = cnt.get("spaces.ball_centers", 0.0)
    sides = cnt.get("spaces.sides", 0.0)
    put("spaces.cube_norm.calls", calls(*CUBE_NORMS), "count", "counted")
    put("spaces.cube_norm.self_s", cube_s, "s")
    put("spaces.ball_norm.calls", calls(*BALL_NORMS), "count", "counted")
    put("spaces.ball_norm.self_s", ball_s, "s")
    put("spaces.tilings", tilings, "count", "computed")
    put("spaces.tilings_per_s", _rate(tilings, cube_s), "1/s")
    put("spaces.ball_centers", centers, "count", "computed")
    put("spaces.ball_centers_per_s", _rate(centers, ball_s), "1/s")
    put("spaces.side_skip_ratio", _rate(cnt.get("spaces.sides_skipped", 0.0), sides), "ratio", "computed")
    put("spaces.self_s", layer_self(per, "spaces"), "s")

    for fn in CZ_FUNCS:
        put(f"czkernel.{fn}.calls", calls(f"czkernel.{fn}"), "count", "counted")
        put(f"czkernel.{fn}.self_s", secs(f"czkernel.{fn}"), "s")
    cz_s = layer_self(per, "czkernel")
    pairs = cnt.get("czkernel.pair_evals", 0.0)
    put("czkernel.pair_evals", pairs, "count", "computed")
    put("czkernel.pair_evals_per_s", _rate(pairs, cz_s), "1/s")
    # vacuously 1 when no truncation ladder ran
    put("czkernel.converged_fraction_min", min(counts["czkernel.converged_fraction"], default=1.0), "ratio")
    put("czkernel.self_s", cz_s, "s")

    for fn in HARDY_FUNCS:
        put(f"hardy.{fn}.self_s", secs(f"hardy.{fn}"), "s")
    hardy_s = layer_self(per, "hardy")
    atoms = cnt.get("hardy.atoms_emitted", 0.0)
    put("hardy.validate_atom.calls", calls("hardy.validate_atom"), "count", "counted")
    put("hardy.atoms_emitted", atoms, "count", "computed")
    put("hardy.atoms_per_s", _rate(atoms, hardy_s), "1/s")
    put("hardy.self_s", hardy_s, "s")

    put("lab.self_s", layer_self(per, "lab"), "s")
    return m
