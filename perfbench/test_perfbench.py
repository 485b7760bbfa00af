#!/usr/bin/env python3
"""Tests of the CERES benchmark itself.

Run from the root of a checkout (builds the benchmark on first use, then
takes about a minute):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_.-")


def run(args, cwd=ROOT, timeout=600):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class BenchmarkDefinition(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_metric_names_use_allowed_characters(self):
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in self.bench[section]:
                name = entry["name"]
                self.assertTrue(name and name[0].isalnum(), name)
                self.assertLessEqual(len(name), 64, name)
                self.assertTrue(set(name) <= NAME_CHARS, name)

    def test_binary_reports_the_declared_metrics(self):
        listed = run(["--list-metrics"])
        self.assertEqual(listed.returncode, 0, listed.stderr)
        declared = {("end_to_end", m["name"], m["unit"])
                    for m in self.bench["end_to_end"]}
        declared |= {("per_layer", m["name"], m["unit"])
                     for m in self.bench["per_layer"]}
        reported = {tuple(line.split()) for line in
                    listed.stdout.strip().splitlines()}
        self.assertEqual(declared, reported)

    def test_setup_metric_and_bounds(self):
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        bounds = [m["bound"] for m in self.bench["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))


class BinarySelfTest(unittest.TestCase):
    def test_self_test_passes(self):
        # Percentile rule, seeded digests, near-duplicate edits, names.
        result = run(["--self-test"])
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("self-test: 0 failures", result.stdout)


class OutputChecks(unittest.TestCase):
    def short_run(self, workload, *extra, seconds="1"):
        return run(["--workload", workload, "--seed", "3", "--seconds",
                    seconds, "--trace", "0"] + list(extra))

    def test_untampered_run_reports_every_metric(self):
        result = self.short_run("batch_swde")
        self.assertEqual(result.returncode, 0, result.stderr)
        parsed = result_line(result.stdout)
        self.assertIsNotNone(parsed)
        self.assertEqual(set(parsed),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(parsed["correct"])
        self.assertGreaterEqual(parsed["attempted"], 1)

    def test_dropped_triple_fails_batch(self):
        result = self.short_run("batch_swde", "--tamper", "drop-triple")
        self.assertNotEqual(result.returncode, 0)
        self.assertIsNone(result_line(result.stdout))
        self.assertIn("CHECK FAILED: batch output differs between passes",
                      result.stderr)

    def test_dropped_triple_fails_serve(self):
        # Long enough for every window's p99 (ten samples beyond), so only
        # the tamper can fail the run.
        result = self.short_run("serve_fresh", "--tamper", "drop-triple",
                                seconds="15")
        self.assertNotEqual(result.returncode, 0)
        self.assertIsNone(result_line(result.stdout))
        self.assertEqual(result.stderr.count("CHECK FAILED"), 1,
                         result.stderr)
        self.assertIn("response bodies differ", result.stderr)


class MissingSources(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/.
        scratch = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(scratch, "perfbench"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, "build"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch_swde",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180, env=env)
        self.assertNotEqual(result.returncode, 0)
        self.assertIsNone(result_line(result.stdout))
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
