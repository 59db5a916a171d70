#!/usr/bin/env bash
# Regenerate and validate the machine-readable bench artifacts.
#
# Runs every bench binary with --json, writing BENCH_<name>.json
# into --out-dir (default: a fresh temporary directory, removed on
# exit), then validates that each artifact parses and carries the
# required schema keys. Exits nonzero if any bench fails or any
# artifact is invalid.
#
# The modeled gate (tools/check_perf.py) then holds the fresh
# artifacts to the committed BENCH_*.json in the repo root, which
# are the one reference for modeled metrics. To regenerate those on
# purpose, pass --out-dir <repo root>: the gate is skipped and the
# script prints `git diff --stat` of the artifacts, the record to
# review and commit.
#
# Usage: tools/run_benches.sh [--quick|--full]
#                             [--build-dir DIR] [--out-dir DIR]
#                             [--only NAME]
set -u

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd -P)"
MODE=--quick
BUILD_DIR="$REPO_ROOT/build"
OUT_DIR=""
ONLY=""

while [ $# -gt 0 ]; do
    case "$1" in
        --quick|--full) MODE="$1" ;;
        --build-dir) BUILD_DIR="$2"; shift ;;
        --out-dir) OUT_DIR="$2"; shift ;;
        --only) ONLY="$2"; shift ;;
        -h|--help)
            awk 'NR > 1 && !/^#/ { exit }
                 NR > 1 { sub(/^# ?/, ""); print }' "$0"
            exit 0 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
    shift
done

if [ -z "$OUT_DIR" ]; then
    OUT_DIR="$(mktemp -d)"
    trap 'rm -rf "$OUT_DIR"' EXIT
fi
mkdir -p "$OUT_DIR"

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

if [ "$(cd "$OUT_DIR" && pwd -P)" = "$REPO_ROOT" ]; then
    echo "committed artifacts regenerated; review before committing:"
    git -C "$REPO_ROOT" diff --stat -- 'BENCH_*.json'
    exit 0
fi
echo
echo "== modeled gate =="
# shellcheck disable=SC2086
python3 "$REPO_ROOT/tools/check_perf.py" \
    --artifacts-dir "$OUT_DIR" $ran_names
