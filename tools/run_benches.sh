#!/usr/bin/env bash
# Regenerate and validate the machine-readable bench artifacts.
#
# Runs every bench binary with --json, writing BENCH_<name>.json
# into --out-dir (default: repo root), then validates that each
# artifact parses and carries the required schema keys. Exits
# nonzero if any bench fails or any artifact is invalid.
#
# After regeneration the perf gate (tools/check_perf.py) compares
# the artifacts against tools/perf_baseline.json and fails on
# regressions. --modeled-only gates the modeled metrics alone
# (skipping the host-time bands); --skip-perf disables the gate;
# --update-baseline rewrites the baseline from the fresh artifacts
# instead.
#
# Usage: tools/run_benches.sh [--quick|--full]
#                             [--build-dir DIR] [--out-dir DIR]
#                             [--only NAME] [--modeled-only]
#                             [--skip-perf] [--update-baseline]
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE=--quick
BUILD_DIR="$REPO_ROOT/build"
OUT_DIR="$REPO_ROOT"
ONLY=""
SKIP_PERF=0
MODELED_ONLY=""
UPDATE_BASELINE=0

while [ $# -gt 0 ]; do
    case "$1" in
        --quick|--full) MODE="$1" ;;
        --build-dir) BUILD_DIR="$2"; shift ;;
        --out-dir) OUT_DIR="$2"; shift ;;
        --only) ONLY="$2"; shift ;;
        --skip-perf) SKIP_PERF=1 ;;
        --modeled-only) MODELED_ONLY=--modeled-only ;;
        --update-baseline) UPDATE_BASELINE=1 ;;
        -h|--help)
            sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
            exit 0 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
    shift
done

BENCHES="fig8a_iperf fig8bc_ping table3_breakdown fig9_bandwidth \
fig10_energy fig11_npb ablation chaos micro"

validate() {
    python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
except Exception as e:
    sys.exit(f"{path}: does not parse: {e}")
required = ["bench", "schema_version", "mode", "config",
            "metrics", "paper_targets", "wall_seconds"]
missing = [k for k in required if k not in doc]
if missing:
    sys.exit(f"{path}: missing required keys: {missing}")
if doc["schema_version"] != 1:
    sys.exit(f"{path}: unexpected schema_version "
             f"{doc['schema_version']}")
if not doc["metrics"]:
    sys.exit(f"{path}: metrics object is empty")
EOF
}

failures=0
ran=0
ran_names=""
for b in $BENCHES; do
    if [ -n "$ONLY" ] && [ "$b" != "$ONLY" ]; then
        continue
    fi
    bin="$BUILD_DIR/bench/bench_$b"
    out="$OUT_DIR/BENCH_$b.json"
    if [ ! -x "$bin" ]; then
        echo "FAIL $b: $bin not built (cmake --build $BUILD_DIR)" >&2
        failures=$((failures + 1))
        continue
    fi
    echo "== bench_$b $MODE =="
    if ! "$bin" "$MODE" --json "$out"; then
        echo "FAIL $b: bench exited nonzero" >&2
        failures=$((failures + 1))
        continue
    fi
    if [ ! -f "$out" ]; then
        echo "FAIL $b: $out was not written" >&2
        failures=$((failures + 1))
        continue
    fi
    if ! validate "$out"; then
        failures=$((failures + 1))
        continue
    fi
    ran=$((ran + 1))
    ran_names="$ran_names $b"
done

echo
if [ "$failures" -ne 0 ]; then
    echo "$failures bench(es) failed; $ran ok" >&2
    exit 1
fi
echo "all $ran benches ok; artifacts in $OUT_DIR/BENCH_*.json"

if [ "$UPDATE_BASELINE" -eq 1 ]; then
    # shellcheck disable=SC2086
    python3 "$REPO_ROOT/tools/check_perf.py" \
        --artifacts-dir "$OUT_DIR" --update $ran_names
    exit $?
fi
if [ "$SKIP_PERF" -eq 1 ]; then
    echo "perf gate: skipped (--skip-perf)"
    exit 0
fi
echo
echo "== perf gate =="
# shellcheck disable=SC2086
python3 "$REPO_ROOT/tools/check_perf.py" \
    --artifacts-dir "$OUT_DIR" $MODELED_ONLY $ran_names
