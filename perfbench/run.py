"""jnlab benchmark: one closed-loop caller, seeded workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  One caller runs a workload's
items one after another, each starting when the previous one has finished,
in whole passes over the seed's item list, two at least, stopping at the
pass that ends nearest to ``--seconds``.  Every output is checked against
``reference.json``.

``--trace 0`` reports the end-to-end metrics: setup_s (median of fresh
processes that import jnlab, build the inputs and warm up), items_per_s,
item_s.p50 / item_s.p90 (pooled over passes) and peak_rss_mb.  Timings are
scaled to nominal host speed by reference tasks timed around each item and
probe (see ``hostspeed.py``); the wall-clock values are in the detail line.
``--trace 1`` runs each item untraced and then traced, and reports the
per-layer metrics of ``spans.py``, the tracing overhead and coverage, and
the scaling exponents of czkernel and spaces from the boundedness-2d items
at 64^2 and 32^2.  End-to-end numbers only ever come from ``--trace 0``.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines before it are a readable report and a JSON
detail record (environment, fail_ratio, sample counts, which counts are
computed from call arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_PASSES = 2
SETUP_PROBES = 9
WARM_REFERENCE_SAMPLES = 5  # host speed samples before the first item
SCALING_WORKLOAD = "boundedness-2d"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time setup_s)")
    return ap.parse_args(argv)


if __name__ == "__main__":
    ARGS = _parse(sys.argv[1:])
    if not (SRC / "jnlab" / "__init__.py").is_file():
        print(f"jnlab sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)

# one caller, single-threaded BLAS: steadier figures on a small shared host,
# and never more BLAS threads than cores
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _one_per_kind(keys):
    """First key of each kind; a key is its kind followed by a number."""
    return list({k.rstrip("0123456789"): k for k in reversed(keys)}.values())


def setup(workload: str, seed: int, size: str, trace: bool):
    """Build the inputs, then warm up on one tiny item of each kind."""
    wl = WORKLOADS[workload]
    keys = wl.plan(seed)
    built = {size: wl.build(keys, size)}
    warm = [wl.build(_one_per_kind(keys), "tiny")]
    if trace:
        sc = WORKLOADS[SCALING_WORKLOAD]
        sc_keys = sc.plan(seed)
        sizes = ("full", "half") if size == "full" else ("half", "tiny")
        built["scaling"] = {s: sc.build(sc_keys, s) for s in sizes}
        warm.append(sc.build(_one_per_kind(sc_keys), "tiny"))
    for items in warm:
        for _, thunk in items:
            try:
                thunk()
            except Exception:  # a broken item is counted when measured
                pass
    return keys, built


def _corrupt(out: dict) -> dict:
    return {k: v * 1.01 if type(v) is float else v for k, v in out.items()}


class Tally:
    """Attempted and failed items, and the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, key: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{key}: {'; '.join(problems)}")


def run_pass(workload, items, refs, size, tally, timeline=None, tracer=None, corrupt=False,
             speed=None):
    """One closed-loop pass: each item starts after the previous one ends.

    Each item's (start, end) goes to ``timeline``; with ``speed``, the host
    speed is sampled after each item.
    """
    wl = WORKLOADS[workload]
    for n, (key, thunk) in enumerate(items):
        idx = tracer.open("bench.item") if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = thunk()
            problems = None
        except Exception as exc:  # the item failed; count it and go on
            out = None
            problems = [f"raised {type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(idx)
        if timeline is not None:
            timeline.append((t0, t1))
        if speed is not None:
            speed.sample()
        if problems is None:
            if corrupt and n == 0:
                out = _corrupt(out)
            ref = refs.get(key)
            problems = ["no reference output"] if ref is None else wl.check(key, out, ref, size)
        tally.record(key, problems)


def _time_to_ready(cmd) -> float:
    """Wall time from spawning ``cmd`` until it prints its 'ready' line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} exited with {proc.returncode}")
    return t1 - t0


def setup_seconds(workload: str, seed: int, size: str) -> tuple[float, float]:
    """Median time of fresh processes from spawn to the end of set-up.

    Returns (median wall time, median time scaled to nominal host speed).
    Each probe is scaled by the start-up times of the reference process
    just before and just after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--size", size]
    ref = [sys.executable, "-c", hostspeed.REFERENCE_START_CODE]
    walls, scaled = [], []
    before = _time_to_ready(ref)
    for _ in range(SETUP_PROBES):
        wall = _time_to_ready(cmd)
        after = _time_to_ready(ref)
        walls.append(wall)
        scaled.append(wall * hostspeed.REFERENCE_START_S / (0.5 * (before + after)))
        before = after
    return statistics.median(walls), statistics.median(scaled)


def _percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure(workload, seed, seconds, size="full", corrupt=False):
    """Untraced run: the end-to-end metrics, scaled to nominal host speed."""
    setup_wall, setup_scaled = setup_seconds(workload, seed, size)
    keys, built = setup(workload, seed, size, trace=False)
    refs = load_reference()[workload][size]
    items = built[size]
    tally, timeline, passes = Tally(), [], 0
    speed = hostspeed.HostSpeed()
    for _ in range(WARM_REFERENCE_SAMPLES):
        speed.sample()
    speed.spent = 0.0
    t0 = time.perf_counter()
    while True:
        run_pass(workload, items, refs, size, tally, timeline, corrupt=corrupt, speed=speed)
        passes += 1
        so_far = time.perf_counter() - t0
        # stop at the whole pass that ends nearest to `seconds`
        if passes >= MIN_PASSES and so_far + 0.5 * so_far / passes >= seconds:
            break
    elapsed = time.perf_counter() - t0 - speed.spent
    latencies = [b - a for a, b in timeline]
    scaled = [(b - a) * speed.scale_around(a, b) for a, b in timeline]
    completed = tally.attempted - tally.failed
    rate = completed / elapsed
    p50, p90 = _percentile(latencies, 50), _percentile(latencies, 90)
    metrics = {
        "setup_s": (setup_scaled, "s", "measured"),
        "items_per_s": (completed / sum(scaled), "1/s", "measured"),
        "item_s.p50": (_percentile(scaled, 50), "s", "measured"),
        "item_s.p90": (_percentile(scaled, 90), "s", "measured"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "measured"),
    }
    extra = {
        "fail_ratio": tally.failed / tally.attempted,
        "item_s.samples": len(latencies),
        "passes": passes,
        "measured_s": elapsed,
        "wall": {"setup_s": setup_wall, "items_per_s": rate, "item_s.p50": p50, "item_s.p90": p90},
        "host_scale": {"run": speed.scale(), "run_samples": len(speed.samples)},
    }
    return keys, tally, metrics, extra


def _scaling(built_scaling, refs, tally):
    """Layer self times of the boundedness-2d items at two sizes."""
    wl = WORKLOADS[SCALING_WORKLOAD]
    cells, times = [], []
    for size, items in built_scaling.items():
        tr = spans.Tracer()
        with tr.installed():
            run_pass(SCALING_WORKLOAD, items, refs[size], size, tally, tracer=tr)
        per = spans.self_times(tr.spans)
        cells.append(wl.sizes[size] ** 2)
        times.append({layer: spans.layer_self(per, layer) for layer in ("czkernel", "spaces")})
    out = {}
    for layer in ("czkernel", "spaces"):
        big, small = times[0][layer], times[1][layer]
        exp = math.log(big / small) / math.log(cells[0] / cells[1]) if big > 0 and small > 0 else 0.0
        out[f"{layer}.size_exp"] = (exp, "exponent", "measured")
    return out


def measure_traced(workload, seed, seconds, size="full"):
    """Traced run: per-layer metrics from traced passes.

    Each item runs untraced and then traced, back to back, so the overhead
    compares runs made seconds apart, not minutes apart.
    """
    keys, built = setup(workload, seed, size, trace=True)
    all_refs = load_reference()
    refs = all_refs[workload][size]
    tally = Tally()
    plain = traced = 0.0
    tracers = []
    t0 = time.perf_counter()
    while not tracers or time.perf_counter() - t0 < seconds:
        tr = spans.Tracer()
        for item in built[size]:
            a = time.perf_counter()
            run_pass(workload, [item], refs, size, tally)
            plain += time.perf_counter() - a
            with tr.installed():
                a = time.perf_counter()
                run_pass(workload, [item], refs, size, tally, tracer=tr)
                traced += time.perf_counter() - a
        tracers.append(tr)
    metrics = spans.layer_metrics(tracers)
    metrics["trace.overhead"] = (traced / plain - 1.0, "ratio", "measured")
    covered = sum(spans.library_time(tr.spans) for tr in tracers)
    metrics["trace.coverage"] = (covered / traced, "ratio", "measured")
    metrics.update(_scaling(built["scaling"], all_refs[SCALING_WORKLOAD], tally))
    extra = {
        "fail_ratio": tally.failed / tally.attempted,
        "traced_passes": len(tracers),
        "spans_per_pass": sum(len(tr.spans) for tr in tracers) / len(tracers),
    }
    return keys, tally, metrics, extra


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, keys) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "item_keys": list(keys),
        "src_lines": src_lines,
    }


def execute(workload, seed, seconds, trace, size="full", corrupt=False) -> tuple[dict, dict]:
    """Run one benchmark invocation; returns (result line, detail record)."""
    if trace:
        keys, tally, metrics, extra = measure_traced(workload, seed, seconds, size)
    else:
        keys, tally, metrics, extra = measure(workload, seed, seconds, size, corrupt)
    detail = {
        "workload": workload,
        "trace": int(trace),
        "size": size,
        "environment": environment(seed, keys),
        "metrics": {k: {"value": v, "unit": u, "source": s} for k, (v, u, s) in metrics.items()},
        **extra,
        "problems": tally.problems,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, detail


def main(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed, args.size, trace=False)
        print("ready", flush=True)
        return 0
    result, detail = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for name, m in detail["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']:8s} {m['source']}")
    print(f"{'fail_ratio':42s} {detail['fail_ratio']:>16.6g} ratio    measured")
    for line in detail["problems"]:
        print(f"FAILED {line}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(ARGS))
