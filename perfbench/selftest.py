"""Self-test of the benchmark, every workload at its tiny size.

    python3 perfbench/selftest.py

For each workload it checks that
- a --trace 0 and a --trace 1 run print, on their last line, exactly the
  metrics BENCHMARK.json names, each with its unit, and no failed item;
- a deliberately corrupted output is counted as failed in fail_ratio;
- another seed draws other inputs but reports the same metric names.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import unittest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@functools.cache
def cli(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_result(self, res: dict, section: str):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)
        for m in res["metrics"].values():
            self.assertIsInstance(m["value"], float)

    def test_metrics_named_with_units(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.check_result(cli(name, 1, 0), "end_to_end")
                self.check_result(cli(name, 1, 1), "per_layer")

    def test_corrupted_output_counts_as_failed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, detail = run.execute(name, 1, 0, False, "tiny", corrupt=True)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(detail["fail_ratio"], 0.0)

    def test_seed_changes_inputs_not_names(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertNotEqual(wl.plan(1), wl.plan(2))
                self.assertEqual(wl.plan(1), wl.plan(1))
                a, b = cli(name, 1, 0), cli(name, 2, 0)
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))


if __name__ == "__main__":
    unittest.main()
