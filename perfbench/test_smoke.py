#!/usr/bin/env python3
"""The benchmark's own tests, at tiny sizes (about a minute, most of it the
first build):

    python3 perfbench/test_smoke.py

For every workload, with --trace 0 and --trace 1, run.py --smoke must exit 0
and print as its last line a JSON object with exactly the keys correct,
attempted, failed and metrics; the run must be correct with no failed
operation, its pinned smoke digest must match, and every metric BENCHMARK.json
names for that mode must be printed with its unit (end-to-end values never
0). A pass above the RSS ceiling must be killed and fail the run.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):

    def check_output(self, proc, wanted, nonzero):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"], proc.stderr[-2000:])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertNotIn("check failed", proc.stderr)
        for metric in wanted:
            printed = line["metrics"].get(metric["name"])
            self.assertIsNotNone(printed, metric["name"])
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))
            if nonzero:
                self.assertGreater(printed["value"], 0, metric["name"])
        self.assertEqual(set(line["metrics"]), {m["name"] for m in wanted})

    def test_every_workload_prints_every_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run("--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", str(trace),
                               "--smoke")
                    self.check_output(proc, SPEC[key], nonzero=trace == 0)

    def test_smoke_digests_are_pinned(self):
        pinned = json.loads((HERE / "digests.json").read_text())
        for workload in [w["name"] for w in SPEC["workloads"]]:
            self.assertIn("1", pinned.get(workload + "/smoke", {}), workload)

    def test_rss_ceiling_fails_the_run(self):
        proc = run("--workload", "paper-theorems", "--seed", "1",
                   "--seconds", "1", "--trace", "0",
                   "--rss-ceiling-mb", "40")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("above the 40.0 MB ceiling", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
