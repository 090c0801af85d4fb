#!/usr/bin/env python3
"""Tests of the benchmark itself, on test-sized inputs (--small).

    python3 perfbench/test_perfbench.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit and a well-formed name, in untraced and traced runs; that a
held-out seed passes every answer check; that a deliberately corrupted
answer is counted as a failed operation; and that the benchmark refuses to
run, printing no result, when the engine sources are missing.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ["motivating_query", "relational_mix", "semantic_serving",
             "ingest_refresh"]
HELD_OUT_SEED = 9001


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_small(workload, seed, trace, *extra):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small",
         "--setup-reps", "1", "--out-dir",
         os.path.join(run.BUILD, "test-results")] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (workload, proc.returncode,
                                                   proc.stderr[-2000:]))
    result = run.last_json_line(proc.stdout)
    if result is None:
        raise AssertionError("%s printed no result line" % workload)
    return result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("benchmark did not build")
        cls.bench = load_bench()

    def check_metrics(self, result, defs):
        self.assertEqual(set(result["metrics"]), {d["name"] for d in defs})
        for d in defs:
            self.assertRegex(d["name"], NAME)
            metric = result["metrics"][d["name"]]
            self.assertEqual(metric["unit"], d["unit"], d["name"])
            self.assertIsInstance(metric["value"], (int, float), d["name"])

    def test_every_metric_on_every_workload(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_small(workload, 7, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, self.bench[key])
                    if trace == 0:
                        # End-to-end metrics must never read 0.
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_held_out_seed_passes_every_check(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_small(workload, HELD_OUT_SEED, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_corrupted_answer_counts_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_small(workload, 7, 0, "--corrupt-op", "0")
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)

    def test_refuses_to_run_without_engine_sources(self):
        lone = os.path.join(run.BUILD, "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "relational_mix", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=170, cwd=lone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(run.last_json_line(proc.stdout))
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
