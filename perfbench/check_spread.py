#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload over several
seeds and report every end-to-end metric's quartile spread.

    python3 perfbench/check_spread.py --seeds 10
    python3 perfbench/check_spread.py --seeds 5 --workload fabric_iperf_2w

Run from the repository root. The spread of a metric is the distance
between the first and third quartile of its per-seed values
(statistics.quantiles, n=4) as a share of their median. Every spread
but setup_s's should stay below a third of the metric's bound in
BENCHMARK.json. Exits 1 when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="write every run's metrics here")
    args = ap.parse_args()

    names = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    raw = {}
    for wl in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(wl, seed, args.seconds)
            if not res["correct"] or res["failed"]:
                print("%s seed %d: incorrect (%d/%d failed)"
                      % (wl, seed, res["failed"], res["attempted"]))
                bad = True
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        raw[wl] = values
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = m["name"] == "setup_s" or spread <= m["bound"]
            steady = m["name"] == "setup_s" or spread <= m["bound"] / 3
            bad = bad or not ok
            print("%-16s %-12s median %-12.6g spread %6.3f bound %.2f %s"
                  % (wl, m["name"], med, spread, m["bound"],
                     "ok" if steady else ("WIDE" if ok else "FAIL")))
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
