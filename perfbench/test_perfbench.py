#!/usr/bin/env python3
"""Tests of the SQL-to-rows benchmark at a tiny scale factor.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

The first test builds the benchmark into .bench_build/ if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--sf", "0.002", "--seconds", "0.2"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=7, extra=()):
    """Returns (report, result): the last two lines of run.py's stdout."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)] + TINY + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-4000:])
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


class PerfbenchTest(unittest.TestCase):

    def test_every_workload_runs_clean_and_prints_every_metric(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    report, result = run(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertEqual(report["workload"], workload)
                    self.assertIn("l1i_bytes", report["environment"])
                    self.assertIn("git_commit", report["environment"])

    def test_same_seed_gives_identical_counts(self):
        for workload in ("tpch_tuple", "point_queries"):
            with self.subTest(workload=workload):
                _, first = run(workload, 1, seed=11)
                _, second = run(workload, 1, seed=11)
                self.assertEqual(counts(first), counts(second))
                self.assertGreater(counts(first)["sim.l1i_accesses"], 0)
                self.assertGreater(counts(first)["exec.rows_out"], 0)

    def test_corrupted_reference_counts_as_failure(self):
        _, result = run("tpch_batch", 0, extra=["--corrupt-reference"])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_exits_nonzero_without_engine_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
