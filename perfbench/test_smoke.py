#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at a small size, untraced and traced, through
run.py --smoke. It fails if a run fails, an answer is wrong, or any
metric named in BENCHMARK.json is missing from a run's result line.

    python3 perfbench/test_smoke.py
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True,
            timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("smoke ok", done.stdout)


if __name__ == "__main__":
    unittest.main()
