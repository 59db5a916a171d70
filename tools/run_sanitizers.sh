#!/usr/bin/env bash
# Build and run the test suite under the sanitizer matrix.
#
# Each sanitizer set gets its own build tree (configured with
# -DMCNSIM_SANITIZE=<set>), runs the full ctest suite plus an
# iperf + ping CLI smoke (pings over the cluster and to MCN DIMMs at
# mcn0 and mcn5), and fails on the first finding
# (-fno-sanitize-recover=all aborts on any error).
#
# The `thread` set is special-cased: TSan is incompatible with ASan
# and serializes execution ~10x, so instead of the full ctest suite
# it runs the concurrency surface -- the PDES engine tests plus
# multi-threaded CLI selfchecks (cluster and fat-tree fabric), a
# two-worker --profile run and a --threads=1/2/4 flow-stats
# byte-compare -- with TSAN_OPTIONS pinned to tools/tsan.supp and
# halt_on_error=1. It is not in the default matrix (run it via
# `--matrix thread` or ci.sh's tsan stage).
#
# Usage: tools/run_sanitizers.sh [--build-root DIR] [--no-leaks]
#                                [--matrix SET1;SET2]
#   --build-root DIR   where the per-sanitizer trees go
#                      (default: <repo>/build-san)
#   --no-leaks         disable LeakSanitizer in the address run
#   --matrix LIST      semicolon-separated sanitizer sets
#                      (default: "address,undefined;undefined")
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_ROOT="$REPO_ROOT/build-san"
DETECT_LEAKS=1
MATRIX="address,undefined;undefined"

while [ $# -gt 0 ]; do
    case "$1" in
        --build-root) BUILD_ROOT="$2"; shift ;;
        --no-leaks) DETECT_LEAKS=0 ;;
        --matrix) MATRIX="$2"; shift ;;
        -h|--help)
            sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
            exit 0 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
    shift
done

IFS=';' read -ra SETS <<< "$MATRIX"
for san in "${SETS[@]}"; do
    tree="$BUILD_ROOT/$(echo "$san" | tr ',' '-')"
    echo "== sanitizer set '$san' -> $tree =="
    cmake -B "$tree" -S "$REPO_ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMCNSIM_SANITIZE="$san" > /dev/null
    cmake --build "$tree" -j "$(nproc)"

    if [ "$san" = "thread" ]; then
        # TSan: pin the suppressions file so a run without it (and
        # thus without its reviewed justifications) cannot pass by
        # accident; halt on the first report.
        export TSAN_OPTIONS="suppressions=$REPO_ROOT/tools/tsan.supp:halt_on_error=1:second_deadlock_stack=1"

        echo "-- PDES engine tests under tsan"
        ctest --test-dir "$tree" --output-on-failure \
            -R '^Pdes\.' -j "$(nproc)"

        echo "-- multi-threaded CLI selfchecks under tsan"
        for t in 2 4; do
            "$tree/tools/mcnsim_cli" iperf --system=cluster \
                --nodes=4 --threads="$t" --selfcheck --duration-ms=1
            "$tree/tools/mcnsim_cli" ping --system=cluster \
                --nodes=3 --threads="$t" --selfcheck
            "$tree/tools/mcnsim_cli" chaos --system=cluster \
                --nodes=4 --threads="$t" --schedule=drop-heavy \
                --selfcheck --duration-ms=1
        done
        # Many shards per worker, so every destination gets mail
        # from several writing workers: the fat-tree fabric.
        "$tree/tools/mcnsim_cli" iperf --topology=fattree \
            --racks=4 --nodes-per-rack=4 --spines=4 --threads=4 \
            --selfcheck --duration-ms=1
        # The worker profile: per-worker busy/wait times are read
        # right after the exit barrier.
        "$tree/tools/mcnsim_cli" iperf --system=multi --servers=4 \
            --threads=2 --duration-ms=1 --profile > /dev/null

        echo "-- flow-stats byte-compare across threads under tsan"
        TSAN_TMP="$(mktemp -d)"
        for t in 1 2 4; do
            "$tree/tools/mcnsim_cli" iperf --system=cluster \
                --nodes=4 --threads="$t" --duration-ms=1 --seed=42 \
                --flow-stats="$TSAN_TMP/flow-t$t.json" > /dev/null
        done
        cmp "$TSAN_TMP/flow-t1.json" "$TSAN_TMP/flow-t2.json"
        cmp "$TSAN_TMP/flow-t1.json" "$TSAN_TMP/flow-t4.json"
        rm -rf "$TSAN_TMP"
        echo "-- '$san' clean"
        echo
        continue
    fi

    export ASAN_OPTIONS="detect_leaks=$DETECT_LEAKS"
    export UBSAN_OPTIONS="print_stacktrace=1"

    echo "-- ctest under '$san'"
    ctest --test-dir "$tree" --output-on-failure -j "$(nproc)"

    echo "-- CLI smoke under '$san'"
    "$tree/tools/mcnsim_cli" iperf --duration-ms=1 > /dev/null
    "$tree/tools/mcnsim_cli" ping > /dev/null
    for lvl in 0 5; do
        "$tree/tools/mcnsim_cli" ping --system=mcn --dimms=2 \
            --size=8192 --level="$lvl" > /dev/null
    done
    echo "-- '$san' clean"
    echo
done

echo "run_sanitizers: all sets clean"
