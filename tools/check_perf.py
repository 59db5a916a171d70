#!/usr/bin/env python3
"""Modeled-metric gate over the BENCH_*.json artifacts.

Compares freshly generated artifacts with the committed
BENCH_<name>.json files in the repository root, which are the one
reference for modeled metrics. Modeled metrics are every numeric
metric except host time (keys ending in ``_ns``, and the artifact's
``wall_seconds``): simulated throughput, latency, energy, ... --
deterministic outputs of the simulation. Any drift past MODEL_RTOL
means simulator behavior changed, not just speed. Host time is not
read at all; perf claims are judged by paired runs
(tools/perf_pairs.py), not against stored numbers.

A bench fails when its fresh artifact is missing, its ``mode``
differs from the committed one (a --full run says nothing about a
--quick reference), a metric key is present on only one side, or a
modeled value drifted. ``threads``, ``opt_flags`` and ``cores`` are
recorded metadata only: modeled metrics depend on none of them
(DESIGN.md §9).

Usage:
  tools/check_perf.py --artifacts-dir DIR [BENCH ...]

With no BENCH names, every committed artifact is checked. To accept
an intended modeled change, regenerate the committed artifacts
(tools/run_benches.sh --out-dir <repo root>) and commit the diff.
"""

import argparse
import glob
import json
import os
import sys

# Modeled metrics are deterministic; any drift beyond float noise is
# a behavior change and must be reviewed.
MODEL_RTOL = 1e-6

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(art_dir, bench):
    with open(os.path.join(art_dir, f"BENCH_{bench}.json")) as f:
        return json.load(f)


def metrics_of(doc):
    """Numeric metrics of an artifact. Run-metadata blocks ("meta":
    seed, preset, wall clock, ...) and non-numeric entries are
    self-description, not measurements."""
    return {k: v for k, v in doc.get("metrics", {}).items()
            if k != "meta" and isinstance(v, (int, float))}


def check_bench(bench, art_dir, problems):
    docs = []
    for where in (art_dir, REPO_ROOT):
        try:
            docs.append(load(where, bench))
        except FileNotFoundError:
            problems.append(f"{bench}: no BENCH_{bench}.json in {where}")
            return
    fresh_doc, ref_doc = docs
    if fresh_doc.get("mode") != ref_doc.get("mode"):
        problems.append(f"{bench}: mode {fresh_doc.get('mode')!r} != "
                        f"committed {ref_doc.get('mode')!r}")
        return
    fresh, ref = metrics_of(fresh_doc), metrics_of(ref_doc)
    for key in sorted(set(ref) - set(fresh)):
        problems.append(f"{bench}.{key}: missing from fresh artifact")
    for key in sorted(set(fresh) - set(ref)):
        problems.append(f"{bench}.{key}: not in committed artifact")
    for key in sorted(set(ref) & set(fresh)):
        if key.endswith("_ns"):  # host time
            continue
        want, got = ref[key], fresh[key]
        if abs(got - want) > abs(want) * MODEL_RTOL:
            problems.append(
                f"{bench}.{key}: modeled metric drifted {want!r} -> "
                f"{got!r} (tol {MODEL_RTOL}); simulator behavior "
                f"changed")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("benches", nargs="*",
                    help="bench names (default: every committed one)")
    ap.add_argument("--artifacts-dir", required=True,
                    help="directory holding the fresh artifacts")
    args = ap.parse_args()

    benches = args.benches or sorted(
        os.path.basename(p)[len("BENCH_"):-len(".json")]
        for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json")))
    problems = []
    for bench in benches:
        check_bench(bench, args.artifacts_dir, problems)
    if problems:
        print(f"modeled gate: {len(problems)} violation(s):",
              file=sys.stderr)
        for p in problems:
            print(f"  FAIL {p}", file=sys.stderr)
        print("review the change; if it is intended, regenerate the "
              "committed artifacts with tools/run_benches.sh --out-dir "
              f"{REPO_ROOT}", file=sys.stderr)
        return 1
    print(f"modeled gate: OK ({len(benches)} bench(es) match the "
          f"committed artifacts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
