#!/usr/bin/env python3
"""Tests for the benchmark's traced runs.

    python3 perfbench/test_layer_table.py

Runs every workload once with --trace 1 for a short window. Fails when
a run shows an event name that layer_table.hh does not classify, or
when a workload stops stressing the layers it was chosen for.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rack_iperf", "fabric_iperf_2w", "npb_bandwidth", "mcn_ping")


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return result, metrics, proc.stderr


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w: traced_run(w) for w in WORKLOADS}

    def test_every_event_name_is_classified(self):
        for w, (result, metrics, stderr) in self.runs.items():
            with self.subTest(workload=w):
                self.assertTrue(result["correct"])
                self.assertNotIn("unclassified event name", stderr)
                self.assertEqual(metrics["unclassified.host_share"], 0)

    def test_per_layer_metrics_match_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in bench["per_layer"]}
        for w, (_, metrics, _) in self.runs.items():
            with self.subTest(workload=w):
                self.assertEqual(set(metrics), names)

    def test_workloads_stress_what_they_claim(self):
        m = {w: run[1] for w, run in self.runs.items()}
        self.assertEqual(m["mcn_ping"]["net.tcp.segments_out"], 0)
        self.assertEqual(m["npb_bandwidth"]["netdev.switch.forwarded"], 0)
        self.assertEqual(m["fabric_iperf_2w"]["mcn.forwarded"], 0)
        for w in WORKLOADS:
            with self.subTest(workload=w):
                windows = m[w]["sim.shard.windows"]
                if w == "fabric_iperf_2w":
                    self.assertGreater(windows, 0)
                else:
                    self.assertEqual(windows, 0)


if __name__ == "__main__":
    unittest.main()
