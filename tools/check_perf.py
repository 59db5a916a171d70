#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json artifacts.

Compares freshly generated artifacts against the committed baseline
(tools/perf_baseline.json) and exits nonzero when either

  * a perf metric (host-time: keys ending in ``_ns``, plus
    ``wall_seconds``) regressed past its tolerance band, or
  * a modeled metric (everything else: simulated throughput, latency,
    energy, ... -- deterministic outputs of the simulation) drifted at
    all, which means simulator *behavior* changed, not just speed.

Perf metrics get a generous band (shared CI boxes are noisy; the
micro artifact already keeps the fastest of several repetitions) and
only an upper bound -- getting faster never fails. Modeled metrics
are compared with a tight relative tolerance in both directions.

Host-time metrics are additionally gated on the worker count: when
an artifact's ``config.threads`` differs from the baseline's, they
are skipped (with a note) rather than compared -- wall clock at
``--threads=4`` says nothing about a regression against a
``--threads=1`` baseline. Modeled metrics are thread-count
independent (DESIGN.md §9) and stay checked. The same holds for the
optimisation flags the bench binary was built with (the artifact's
``build.opt_flags``): an ``-O1`` baseline says nothing about an
``-O2`` build's wall clock, so differing flags skip the host-time
bands too, while modeled metrics stay checked. ``--modeled-only``
skips the host-time bands the same way for every bench: CI runs the
gate like that on every build (shared boxes are too noisy for wall
clock bands), so the modeled metrics of every artifact are checked
for bit-identity on every run.

Usage:
  tools/check_perf.py [--baseline FILE] [--artifacts-dir DIR]
                      [--update] [--modeled-only] [BENCH ...]

With no BENCH names, every bench present in the baseline is checked.
``--update`` rewrites the baseline entries of the named benches (all
of them by default) from the fresh artifacts instead of checking,
keeping the entries of benches not named (run it after an
intentional perf or model change, and commit the result).
"""

import argparse
import json
import os
import sys

# Upper bound for perf metrics: fresh <= base * PERF_REL + PERF_ABS.
# The band is wide because one noisy neighbor on a 1-core runner can
# easily cost 40%; real regressions from the optimizations this gate
# guards (event pooling, CoW packets, wide checksum) are 2x-7x.
PERF_REL = 1.6
PERF_ABS_NS = 30.0        # floor for tiny (few-ns) benchmarks
PERF_ABS_WALL = 2.0       # seconds; artifact-generation wall time

# Modeled metrics are deterministic; any drift beyond float noise is
# a behavior change and must be reviewed (then --update'd).
MODEL_RTOL = 1e-6

PERF_SUFFIX = "_ns"
WALL_KEY = "wall_seconds"


def is_perf_metric(key):
    return key.endswith(PERF_SUFFIX) or key == WALL_KEY


def threads_of(doc):
    """Worker count an artifact was generated with (config block,
    written by bench_util's --threads support). Artifacts predating
    the field ran the classic single-queue engine."""
    return int(doc.get("config", {}).get("threads", 1))


def opt_flags_of(doc):
    """Optimisation flags the artifact's bench was built with (build
    block, written by bench::BenchReport); None for artifacts
    predating the field."""
    return doc.get("build", {}).get("opt_flags")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def artifact_path(art_dir, bench):
    return os.path.join(art_dir, f"BENCH_{bench}.json")


def flatten(doc):
    """Metric map of an artifact, with wall_seconds folded in.

    Run-metadata blocks ("meta": seed, preset, wall clock, ...) and
    any non-numeric entries are self-description, not measurements;
    drop them so new metadata never trips the gate.
    """
    metrics = {k: v for k, v in doc.get("metrics", {}).items()
               if k != "meta" and isinstance(v, (int, float))}
    if WALL_KEY in doc:
        metrics[WALL_KEY] = doc[WALL_KEY]
    return metrics


def check_bench(bench, base_entry, art_dir, problems, notes,
                deltas, modeled_only=False):
    path = artifact_path(art_dir, bench)
    if not os.path.exists(path):
        problems.append(f"{bench}: artifact {path} missing")
        return
    doc = load_json(path)

    if doc.get("mode") != base_entry.get("mode"):
        notes.append(
            f"{bench}: mode {doc.get('mode')!r} != baseline "
            f"{base_entry.get('mode')!r}; skipped")
        return

    fresh = flatten(doc)
    base = base_entry.get("metrics", {})

    # Host-time metrics are only comparable between runs with the
    # same worker count (more threads shift work off the measured
    # wall clock, or onto it on an oversubscribed box) and the same
    # optimisation flags. Modeled metrics depend on neither
    # (DESIGN.md §9) and stay gated.
    skip_perf = modeled_only
    if modeled_only:
        notes.append(f"{bench}: --modeled-only; host-time metrics "
                     f"skipped")
    for what, got, want in (
            ("threads", threads_of(doc), base_entry.get("threads", 1)),
            ("opt_flags", opt_flags_of(doc),
             base_entry.get("opt_flags"))):
        if got != want:
            skip_perf = True
            notes.append(
                f"{bench}: artifact {what}={got!r} != baseline "
                f"{what}={want!r}; host-time metrics skipped")

    for key, base_val in sorted(base.items()):
        if key not in fresh:
            problems.append(f"{bench}.{key}: missing from artifact")
            continue
        val = fresh[key]
        if not isinstance(val, (int, float)):
            problems.append(f"{bench}.{key}: not numeric: {val!r}")
            continue
        if is_perf_metric(key):
            if skip_perf:
                continue
            deltas.append((bench, key, base_val, val))
            abs_slack = (PERF_ABS_WALL if key == WALL_KEY
                         else PERF_ABS_NS)
            limit = base_val * PERF_REL + abs_slack
            if val > limit:
                problems.append(
                    f"{bench}.{key}: {val:.2f} > limit {limit:.2f} "
                    f"(baseline {base_val:.2f}, rel {PERF_REL}, "
                    f"abs {abs_slack})")
            elif base_val > 0 and val < base_val / PERF_REL:
                notes.append(
                    f"{bench}.{key}: improved {base_val:.2f} -> "
                    f"{val:.2f}; consider --update")
        else:
            tol = abs(base_val) * MODEL_RTOL
            if abs(val - base_val) > tol:
                problems.append(
                    f"{bench}.{key}: modeled metric drifted "
                    f"{base_val!r} -> {val!r} (tol {MODEL_RTOL}); "
                    f"simulator behavior changed -- review, then "
                    f"rerun with --update")

    for key in sorted(set(fresh) - set(base)):
        notes.append(f"{bench}.{key}: not in baseline "
                     f"(new metric; --update to start tracking)")


def print_delta_table(deltas):
    """Per-metric host-time summary (baseline -> fresh, speedup) so a
    passing run documents its deltas -- PR notes can paste this
    instead of rerunning with a diff tool."""
    if not deltas:
        return
    rows = []
    for bench, key, base_val, val in deltas:
        ratio = base_val / val if val > 0 else float("inf")
        unit = "s" if key == WALL_KEY else "ns"
        rows.append((f"{bench}.{key}",
                     f"{base_val:,.2f} {unit}",
                     f"{val:,.2f} {unit}",
                     f"{ratio:.2f}x"))
    hdr = ("metric", "baseline", "fresh", "speedup")
    widths = [max(len(hdr[i]), max(len(r[i]) for r in rows))
              for i in range(len(hdr))]
    print("\nhost-time deltas (baseline -> fresh; >1x = faster):")
    print("  " + "  ".join(h.ljust(w) for h, w in zip(hdr, widths)))
    for r in rows:
        print("  " + "  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                               for i, (c, w)
                               in enumerate(zip(r, widths))))
    print()


def update_baseline(benches, art_dir, baseline_path):
    out = (load_json(baseline_path) if os.path.exists(baseline_path)
           else {})
    for bench in benches:
        path = artifact_path(art_dir, bench)
        if not os.path.exists(path):
            print(f"warning: {path} missing; baseline entry kept",
                  file=sys.stderr)
            continue
        doc = load_json(path)
        out[bench] = {"mode": doc.get("mode"),
                      "threads": threads_of(doc),
                      "opt_flags": opt_flags_of(doc),
                      "metrics": flatten(doc)}
    with open(baseline_path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"baseline written: {baseline_path} "
          f"({len(out)} bench(es))")
    return 0


def main():
    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("benches", nargs="*",
                    help="bench names (default: all in baseline)")
    ap.add_argument("--baseline",
                    default=os.path.join(repo_root, "tools",
                                         "perf_baseline.json"))
    ap.add_argument("--artifacts-dir", default=repo_root)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from fresh artifacts")
    ap.add_argument("--modeled-only", action="store_true",
                    help="check modeled metrics only; skip the "
                         "host-time bands")
    args = ap.parse_args()

    if args.update:
        benches = args.benches
        if not benches:
            if os.path.exists(args.baseline):
                benches = sorted(load_json(args.baseline))
            else:
                benches = sorted(
                    f[len("BENCH_"):-len(".json")]
                    for f in os.listdir(args.artifacts_dir)
                    if f.startswith("BENCH_")
                    and f.endswith(".json"))
        return update_baseline(benches, args.artifacts_dir,
                               args.baseline)

    if not os.path.exists(args.baseline):
        print(f"error: baseline {args.baseline} missing; create it "
              f"with --update", file=sys.stderr)
        return 2
    baseline = load_json(args.baseline)

    benches = args.benches or sorted(baseline)
    problems, notes, deltas = [], [], []
    for bench in benches:
        if bench not in baseline:
            notes.append(f"{bench}: not in baseline; skipped "
                         f"(--update to add)")
            continue
        check_bench(bench, baseline[bench], args.artifacts_dir,
                    problems, notes, deltas, args.modeled_only)

    for n in notes:
        print(f"note: {n}")
    if problems:
        print(f"\nperf gate: {len(problems)} violation(s):",
              file=sys.stderr)
        for p in problems:
            print(f"  FAIL {p}", file=sys.stderr)
        return 1
    print_delta_table(deltas)
    print(f"perf gate: OK ({len(benches)} bench(es) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
