"""Host speed reference: fixed tasks timed between benchmark items.

The benchmark runs on small shared hosts whose speed drifts by a factor of
two or more over seconds to minutes, as other tenants come and go.  A
wall-clock time measured in one such phase does not compare with one
measured in another, even for the same code.  So the benchmark times fixed
reference tasks, which call nothing of jnlab, between its items, and scales
its timings by how slow those tasks ran around each item:

    scaled time = wall time / slowness,    slowness = reference time / its nominal time

A change to jnlab moves the wall time and leaves the reference tasks alone,
so it moves the scaled time by the same factor.  A slower host phase moves
both, and the scaled time stays.

Host phases slow computing from the core's own caches far more than they
slow streaming through memory, and the workloads do both, so the slowness
is the mean of two: a compute task (interpreted Python, numpy calls on
small arrays, elementwise and matrix-vector numpy work on cached arrays)
and a memory task (one pass over an 8 MB array, past the per-core caches).
Both run warm and allocate nothing large, so their times depend on the host
and not on what the item before them left in the caches or the allocator.

Set-up probes are fresh processes, and process start and imports follow
host phases differently again; they are scaled by the start-up time of a
reference process that imports numpy and nothing of jnlab.

The nominal times are about the medians seen on a 2-vCPU cloud host, so
that scaled times read close to the wall times seen there.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

COMPUTE_S = 5.5e-4  # nominal time of compute_task
MEMORY_S = 9.5e-4  # nominal time of memory_task
HALF_WINDOW_S = 0.5  # least reach of scale_around on each side of an item

REFERENCE_START_CODE = "import numpy; print('ready', flush=True)"
REFERENCE_START_S = 0.16  # nominal start-up time of that process

_SMALL = np.linspace(0.0, 1.0, 64)
_VEC = np.linspace(-4.0, 4.0, 4096)
_MAT = np.linspace(0.0, 1.0, 64 * 1024).reshape(64, 1024)
_BUF = np.empty_like(_VEC)
_OUT = np.empty(64)
_STREAM = np.ones(1 << 20)


def compute_task() -> float:
    """Run the compute task once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(2000):
        acc += (i * i) % 7
        table[i & 63] = acc
    x = _SMALL
    for _ in range(60):
        x = np.abs(np.sin(x) + 0.5)
    for _ in range(4):
        np.multiply(_VEC, _VEC, out=_BUF)
        np.negative(_BUF, out=_BUF)
        np.exp(_BUF, out=_BUF)
        np.matmul(_MAT, _BUF[:1024], out=_OUT)
    if not (np.isfinite(_OUT).all() and acc > 0):
        raise RuntimeError("compute task gave a non-finite result")
    return time.perf_counter() - t0


def memory_task() -> float:
    """Sum the 8 MB stream array once and return the wall time in seconds."""
    t0 = time.perf_counter()
    if _STREAM.sum() != _STREAM.size:
        raise RuntimeError("memory task gave a wrong sum")
    return time.perf_counter() - t0


class HostSpeed:
    """Host slowness samples collected through one run.

    ``sample`` measures the slowness now and notes when.  ``scale_around``
    gives the factor for one item: the inverse of the median slowness of
    the samples taken from half the item's length (HALF_WINDOW_S at least)
    before it starts to as long after it ends.  So short items follow host
    phases as short as a second, and long items are scaled by the host
    speed over their whole length, not by the instant they ended.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, slowness)
        self.spent = 0.0  # wall time taken by sampling, kept out of rates

    def sample(self) -> float:
        t0 = time.perf_counter()
        compute_task()  # warm-up
        compute = statistics.mean(compute_task() for _ in range(3))
        memory = min(memory_task() for _ in range(2))
        slowness = 0.5 * (compute / COMPUTE_S + memory / MEMORY_S)
        t1 = time.perf_counter()
        self.samples.append((t1, slowness))
        self.spent += t1 - t0
        return slowness

    def scale_around(self, start: float, end: float) -> float:
        """Factor that maps the wall time of an item to nominal host speed."""
        half = max(HALF_WINDOW_S, 0.5 * (end - start))
        near = [v for t, v in self.samples if start - half <= t <= end + half]
        return 1.0 / statistics.median(near or [v for _, v in self.samples])

    def scale(self) -> float:
        """Factor that maps a wall time of the whole run to nominal host speed."""
        return 1.0 / statistics.median(v for _, v in self.samples)
