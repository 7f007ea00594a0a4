"""Record the reference output of every pool item at every size.

    python3 perfbench/record.py

Writes ``perfbench/reference.json``, which ``run.py`` checks every item
against.  Re-record only when a change to jnlab is meant to alter results,
and say so in that change.  Each recorded output must pass its workload's
tolerance checks, or nothing is written.
"""

from __future__ import annotations

import json
import sys
import time

import run
from workloads import WORKLOADS


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        reference[name] = {}
        for size in wl.sizes:
            t0 = time.perf_counter()
            outs = {}
            for key, thunk in wl.build(wl.pool(), size):
                out = thunk()
                problems = wl.check(key, out, out, size)
                if problems:
                    print(f"{name} {size} {key}: {problems}", file=sys.stderr)
                    return 1
                outs[key] = out
            reference[name][size] = outs
            print(f"{name:16s} {size:5s} {len(outs):4d} items {time.perf_counter() - t0:7.1f} s")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
