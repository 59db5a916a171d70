#!/usr/bin/env python3
"""Paired perf runs of this tree against a parent commit.

    tools/perf_pairs.py [REF] [--workload NAME]...

The parent is REF; by default HEAD when the working tree has changes,
else HEAD~1. It is checked out with `git worktree add --detach` into a
temporary directory, removed on every exit path, and each tree builds
and runs through its own perfbench/run.py. Every BENCHMARK.json
workload (or each --workload given) runs 10 pairs, seeds 11-20, the
order alternating, each run run_seconds long. Per workload and
end-to-end metric it prints the parent's median [q1-q3], the change's
median and the pairs the change won.

Exits 1 when a run is incorrect, the change fails more operations than
the parent, or a change median is worse than the parent's by more than
bound x parent median. A metric whose parent spread (q3 - q1) / median
exceeds its bound is printed as `unresolved`, not `ok`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(11, 21)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def run_once(tree, workload, seed, seconds):
    """Result dict of one perfbench run in `tree`, or None if run.py
    failed. Each tree keeps its own build directory."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(wl, metric, pairs):
    """Table row for `metric` of workload `wl` over (parent, change)
    result pairs; returns (row, worse)."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    par = [p["metrics"][name]["value"] for p, _ in pairs]
    chg = [c["metrics"][name]["value"] for _, c in pairs]
    med = statistics.median(par)
    q1, _, q3 = statistics.quantiles(par, n=4)
    med_c = statistics.median(chg)
    won = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
    loss = (med_c - med) if lower else (med - med_c)
    worse = loss > bound * abs(med)
    spread = (q3 - q1) / abs(med) if med else (0 if q3 == q1 else 1e9)
    verdict = ("WORSE" if worse
               else "unresolved" if spread > bound else "ok")
    row = "%-16s %-12s %10.4g %-22s %10.4g  %2d/%-2d  %s" % (
        wl, name, med, "[%.4g-%.4g]" % (q1, q3), med_c, won, len(pairs),
        verdict)
    return row, worse


def compare(bench, trees, workloads):
    problems, seconds = [], bench["run_seconds"]
    print("%-16s %-12s %10s %-22s %10s  %5s  %s" % (
        "workload", "metric", "parent", "[q1-q3]", "change", "won",
        "verdict"))
    for wl in workloads:
        pairs, failed = [], {"parent": 0, "change": 0}
        for i, seed in enumerate(SEEDS):
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            res = {}
            for side in order:
                r = run_once(trees[side], wl, seed, seconds)
                print("%s seed %d %s: %s" % (
                    wl, seed, side, "run.py failed" if r is None else
                    "%d/%d failed" % (r["failed"], r["attempted"])),
                    file=sys.stderr, flush=True)
                if r is None or not r["correct"]:
                    problems.append("%s seed %d: %s run incorrect"
                                    % (wl, seed, side))
                if r is not None:
                    failed[side] += r["failed"]
                    res[side] = r
            if len(res) == 2:
                pairs.append((res["parent"], res["change"]))
        if failed["change"] > failed["parent"]:
            problems.append("%s: change failed %d operations, parent %d"
                            % (wl, failed["change"], failed["parent"]))
        if len(pairs) < 2:
            problems.append("%s: too few complete pairs" % wl)
            continue
        for metric in bench["end_to_end"]:
            row, worse = summarize(wl, metric, pairs)
            print(row, flush=True)
            if worse:
                problems.append("%s %s: change median worse than the "
                                "parent's by more than its bound"
                                % (wl, metric["name"]))
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("ref", nargs="?", help="parent commit (default: "
                    "HEAD if the tree has changes, else HEAD~1)")
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run only this BENCHMARK.json workload "
                    "(repeatable; default: all)")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for wl in args.workload or []:
        if wl not in names:
            ap.error("unknown workload %s (BENCHMARK.json has: %s)"
                     % (wl, ", ".join(names)))
    ref = args.ref or ("HEAD" if git("status", "--porcelain").strip()
                       else "HEAD~1")

    # SIGTERM and SIGHUP unwind through the finally below too.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, _: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix="perf_pairs."))
    parent = tmp / "parent"
    try:
        git("worktree", "add", "--detach", str(parent), ref)
        print("parent %s (%s), change: working tree %s" % (
            ref, git("rev-parse", "--short", ref).strip(), ROOT))
        return compare(bench, {"parent": parent, "change": ROOT},
                       args.workload or names)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(parent)], stderr=subprocess.DEVNULL)
        git("worktree", "prune")
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
