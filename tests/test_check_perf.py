#!/usr/bin/env python3
"""The modeled gate (tools/check_perf.py) against edited copies of
the committed BENCH_*.json artifacts.

    python3 tests/test_check_perf.py

Each case copies the committed artifacts to a temporary directory,
edits the copies and runs the gate on them: unchanged copies pass,
host time (wall_seconds, *_ns) is never read, and a drifted modeled
value, a dropped or added metric key, or a mode mismatch fails.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "tools", "check_perf.py")
sys.path.insert(0, os.path.dirname(GATE))
from check_perf import MODEL_RTOL  # noqa: E402


def committed_metrics(bench):
    with open(os.path.join(ROOT, f"BENCH_{bench}.json")) as f:
        return json.load(f)["metrics"]


class ModeledGate(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.dir)
        for p in glob.glob(os.path.join(ROOT, "BENCH_*.json")):
            shutil.copy(p, self.dir)

    def edit(self, bench, fn):
        path = os.path.join(self.dir, f"BENCH_{bench}.json")
        with open(path) as f:
            doc = json.load(f)
        fn(doc)
        with open(path, "w") as f:
            json.dump(doc, f)

    def gate(self):
        return subprocess.run(
            [sys.executable, GATE, "--artifacts-dir", self.dir],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def assertFailsNaming(self, needle):
        r = self.gate()
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn(needle, r.stderr)

    def test_unchanged_copies_pass(self):
        r = self.gate()
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_modeled_drift_fails_naming_the_metric(self):
        m = committed_metrics("table3_breakdown")
        key = next(k for k, v in sorted(m.items())
                   if not k.endswith("_ns") and v)
        self.edit("table3_breakdown", lambda d: d["metrics"].update(
            {key: d["metrics"][key] * (1 + 10 * MODEL_RTOL)}))
        self.assertFailsNaming(f"table3_breakdown.{key}")

    def test_host_time_is_not_read(self):
        def slow(doc):
            doc["wall_seconds"] *= 100
            for k in doc["metrics"]:
                if k.endswith("_ns"):
                    doc["metrics"][k] *= 100
        for p in glob.glob(os.path.join(self.dir, "BENCH_*.json")):
            self.edit(os.path.basename(p)[len("BENCH_"):-len(".json")],
                      slow)
        r = self.gate()
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_dropped_metric_fails(self):
        key = sorted(committed_metrics("fig8a_iperf"))[0]
        self.edit("fig8a_iperf", lambda d: d["metrics"].pop(key))
        self.assertFailsNaming(f"fig8a_iperf.{key}")

    def test_added_metric_fails(self):
        self.edit("fig8a_iperf",
                  lambda d: d["metrics"].update(new_metric=1.0))
        self.assertFailsNaming("fig8a_iperf.new_metric")

    def test_mode_mismatch_fails(self):
        self.edit("chaos", lambda d: d.update(mode="full"))
        self.assertFailsNaming("chaos: mode 'full'")


if __name__ == "__main__":
    unittest.main()
