#!/usr/bin/env python3
"""Build mcnbench from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload rack_iperf --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. The simulator and the driver are built
with CMake into $CARGO_TARGET_DIR (default .bench_build); build output
goes to stderr. Standard output is the driver's: a metadata line,
then the JSON result as the last line. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rack_iperf", "fabric_iperf_2w", "npb_bandwidth", "mcn_ping")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "mcnbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "mcnbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no simulator sources at %s/src; run from a "
              "full checkout" % ROOT, file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        exe = build(build_dir)
    except subprocess.CalledProcessError as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    proc = subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        print("run.py: mcnbench exited %d without a result"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
