#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark binary the way run.py does, then check that
  * the same seed reproduces the fingerprint and every deterministic count,
  * a different seed changes the generated inputs,
  * every metric of BENCHMARK.json is printed with its unit, and the default
    seed matches its reference fingerprint,
  * fig5_alltoall at identity placement reproduces apps::run_npb,
  * a directory holding only the benchmark fails without printing a result.
About two minutes on a 4-core machine.
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
sys.path.insert(0, HERE)
import run  # noqa: E402

# Per-layer metrics that are simulated counts: identical for equal seeds.
DETERMINISTIC_PREFIXES = ("sim.events_per_msg", "lanai.", "myrinet.", "host.")


def bench(*args):
    out = subprocess.run([BINARY] + list(args), capture_output=True,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def run_py(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                          list(args), capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_same_fingerprint_and_counts(self):
        for workload in run.WORKLOADS:
            a = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                      "--trace", "1")
            b = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                      "--trace", "1")
            self.assertTrue(a["consistent"], workload)
            self.assertEqual(a["fingerprint"], b["fingerprint"], workload)
            for name, m in a["metrics"].items():
                if name.startswith(DETERMINISTIC_PREFIXES):
                    self.assertEqual(m["value"], b["metrics"][name]["value"],
                                     workload + " " + name)

    def test_different_seed_changes_inputs(self):
        for workload in run.WORKLOADS:
            a = bench("--workload", workload, "--seed", "1", "--seconds", "0")
            b = bench("--workload", workload, "--seed", "2", "--seconds", "0")
            self.assertNotEqual(a["inputs"], b["inputs"], workload)
            self.assertNotEqual(a["fingerprint"], b["fingerprint"], workload)

    def test_every_metric_printed_with_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
        seed = str(REFERENCE["default_seed"])
        for workload in run.WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                status, out = run_py("--workload", workload, "--seed", seed,
                                     "--seconds", "0", "--trace", trace)
                self.assertEqual(status, 0, workload + "\n" + out)
                result = json.loads(out.splitlines()[-1])
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0, workload)
                expected = {m["name"]: m["unit"] for m in benchmark[key]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, expected, workload)
                if trace == "0":
                    self.assertIn("failed_frac", out)

    def test_fig5_identity_placement_reproduces_run_npb(self):
        proc = subprocess.run([BINARY, "--crosscheck"], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_bare_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "chaos_matrix", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    with open(os.path.join(HERE, "reference.json")) as f:
        REFERENCE = json.load(f)
    BINARY = run.build()
    if BINARY is None:
        sys.exit("perfbench: build failed")
    unittest.main()
