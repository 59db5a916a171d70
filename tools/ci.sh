#!/usr/bin/env bash
# One-command CI pipeline, organised as named stages:
#
#   build    configure + build the default tree, warnings as errors
#   test     tier-1 ctest suite
#   lint     mcnsim_analyze.py --check (the source checker: all
#            eleven rules, baseline drift + fixture self-test), plus
#            clang-tidy when installed
#   benches  regenerate bench artifacts into a scratch dir and gate
#            their modeled metrics (tools/check_perf.py): every
#            artifact must match the committed BENCH_*.json bit for
#            bit. Host time is not gated here; the committed
#            artifacts are never rewritten
#   perf     tools/perf_pairs.py: the parent commit and this tree
#            run every BENCHMARK.json workload in 10 alternating
#            pairs; fails on an incorrect run, more failed
#            operations, or an end-to-end median worse than its
#            bound. Off by default (about 40 min); opt in with
#            --stages ...,perf (or --with-perf) before merging perf
#            work
#   obs      validate observability artifacts from an instrumented
#            iperf run (timeline trace with sampled stats, flow
#            stats, profile), and cmp the sampled timeline and the
#            flow stats across --threads=1/2/4
#   chaos    fault-injection soak: chaos selfcheck (determinism
#            under every canned schedule x several seeds) plus the
#            bench_chaos survival gates
#   rack-chaos  rack-scale failure domains (DESIGN.md §12): the
#            canned spine-kill / rack-partition schedules on both
#            fabric topologies, selfchecked across seeds and worker
#            counts, plus a path-hop sanity check on the fabric's
#            flow telemetry
#   pdes     parallel-engine gate: multi-thread selfchecks on
#            iperf/ping/chaos and the fat-tree fabric, plus a
#            byte-compare of the stat JSON across worker counts on
#            the multi-server and fat-tree runs (DESIGN.md §9)
#   checked  build with -DMCNSIM_CHECKED=ON, run ctest + the CLI
#            determinism selfcheck across mcn levels 0-5, MCN pings
#            at mcn0/mcn5 and a DMA stall/partial-transfer chaos run
#   asan     address+undefined sanitizers: ctest + CLI smoke
#   ubsan    undefined-only sanitizer run
#   tsan     ThreadSanitizer run of the concurrency surface: PDES
#            engine tests, multi-threaded CLI selfchecks, and a
#            cross-thread-count flow-stats byte-compare
#            (tools/run_sanitizers.sh --matrix thread)
#
# Usage: tools/ci.sh [--build-dir DIR] [--skip-benches]
#                    [--with-perf] [--stages S1,S2,...]
# Default stages: build,test,lint,benches,obs,chaos,rack-chaos,pdes,checked,asan,ubsan,tsan
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"
STAGES="build,test,lint,benches,obs,chaos,rack-chaos,pdes,checked,asan,ubsan,tsan"

while [ $# -gt 0 ]; do
    case "$1" in
        --build-dir) BUILD_DIR="$2"; shift ;;
        --skip-benches)
            STAGES="$(echo "$STAGES" | sed 's/benches,//')" ;;
        --with-perf) STAGES="$STAGES,perf" ;;
        --stages) STAGES="$2"; shift ;;
        -h|--help)
            awk 'NR > 1 && !/^#/ { exit }
                 NR > 1 { sub(/^# ?/, ""); print }' "$0"
            exit 0 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
    shift
done

# Every stage's scratch files live under one directory, removed on
# every exit path.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

want() { case ",$STAGES," in *",$1,"*) return 0 ;; *) return 1 ;; esac; }

if want build; then
    echo "== stage: build =="
    # Warnings are errors here, so one that a compiler upgrade or
    # -O2's extra analysis turns up fails CI instead of scrolling by.
    cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DMCNSIM_WERROR=ON
    cmake --build "$BUILD_DIR" -j
fi

if want test; then
    echo
    echo "== stage: test =="
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
fi

if want lint; then
    echo
    echo "== stage: lint =="
    python3 "$REPO_ROOT/tools/mcnsim_analyze.py" --check
    if command -v clang-tidy > /dev/null 2>&1; then
        cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
        git -C "$REPO_ROOT" ls-files 'src/*.cc' |
            sed "s|^|$REPO_ROOT/|" |
            xargs clang-tidy -p "$BUILD_DIR" --quiet
    else
        echo "clang-tidy not installed; skipping (config-on-record" \
             "in .clang-tidy; gating comes from -Wconversion +" \
             "mcnsim_analyze.py)"
    fi
fi

if want benches; then
    echo
    echo "== stage: benches (modeled metrics gated) =="
    "$REPO_ROOT/tools/run_benches.sh" --quick \
        --build-dir "$BUILD_DIR" --out-dir "$SCRATCH/benches"
fi

if want perf; then
    echo
    echo "== stage: perf =="
    python3 "$REPO_ROOT/tools/perf_pairs.py"
fi

if want obs; then
    echo
    echo "== stage: obs =="
    OBS_DIR="$SCRATCH/obs"
    mkdir "$OBS_DIR"
    "$BUILD_DIR/tools/mcnsim_cli" iperf --duration-ms=1 \
        --timeline="$OBS_DIR/timeline.json" --series-filter=txBytes \
        --flow-stats="$OBS_DIR/flow.json" \
        --stats-json="$OBS_DIR/stats.json" \
        --profile --profile-top=5
    python3 "$REPO_ROOT/tools/timeline_summary.py" \
        "$OBS_DIR/timeline.json" --validate
    # Flow telemetry: the standalone artifact and the embedded
    # stats-JSON blocks must both pass schema + percentile
    # monotonicity checks, and the report must render.
    python3 "$REPO_ROOT/tools/flow_report.py" \
        "$OBS_DIR/flow.json" --validate
    python3 "$REPO_ROOT/tools/flow_report.py" \
        "$OBS_DIR/stats.json" --validate
    python3 "$REPO_ROOT/tools/flow_report.py" "$OBS_DIR/flow.json" \
        --stats-json "$OBS_DIR/stats.json" --top 5 > /dev/null
    # The flow artifact and the timeline with sampled stats are
    # modeled results: byte-identical for every worker count on a
    # shardable system. Separate runs: the timeline holds a sharded
    # run to one worker, and the flow check must run on several.
    for t in 1 2 4; do
        "$BUILD_DIR/tools/mcnsim_cli" iperf --system=cluster \
            --nodes=4 --threads="$t" --duration-ms=1 --seed=42 \
            --flow-stats="$OBS_DIR/flow-t$t.json" > /dev/null
        "$BUILD_DIR/tools/mcnsim_cli" iperf --system=cluster \
            --nodes=4 --threads="$t" --duration-ms=1 --seed=42 \
            --timeline="$OBS_DIR/timeline-t$t.json" \
            --series-filter=txBytes > /dev/null
    done
    for f in flow timeline; do
        cmp "$OBS_DIR/$f-t1.json" "$OBS_DIR/$f-t2.json"
        cmp "$OBS_DIR/$f-t1.json" "$OBS_DIR/$f-t4.json"
    done
    echo "flow stats and sampled timeline: OK (byte-identical" \
         "across --threads=1/2/4)"
fi

if want chaos; then
    echo
    echo "== stage: chaos =="
    # Determinism under fire: every canned schedule must replay
    # byte-identically (modeled state + fault fire counts) across
    # several seeds.
    for sched in drop-heavy corrupt-heavy crash-recover; do
        for seed in 1 7 1234; do
            "$BUILD_DIR/tools/mcnsim_cli" chaos --selfcheck \
                --schedule="$sched" --seed="$seed" \
                --duration-ms=2
        done
    done
    # Survival gates: the soak bench fails on zero throughput or an
    # armed schedule that never fires.
    "$BUILD_DIR/bench/bench_chaos" --quick
fi

if want rack-chaos; then
    echo
    echo "== stage: rack-chaos =="
    # Failure-domain determinism: each canned rack scenario on each
    # fabric topology must replay byte-identically across seeds and
    # worker counts (the modeled state digest covers every fault
    # fire, reroute and partition abort).
    for topo in leafspine fattree; do
        for sched in spine-kill rack-partition; do
            for seed in 1 1234; do
                "$BUILD_DIR/tools/mcnsim_cli" chaos --selfcheck \
                    --topology="$topo" --schedule="$sched" \
                    --seed="$seed" --duration-ms=4
            done
        done
    done
    # Cross-worker-count byte-identity of the full stat JSON on a
    # faulted fabric (meta.wall_seconds is host time and exempt).
    RACK_DIR="$SCRATCH/rack-chaos"
    mkdir "$RACK_DIR"
    for t in 1 2 4; do
        "$BUILD_DIR/tools/mcnsim_cli" chaos --topology=fattree \
            --nodes-per-rack=4 --schedule=rack-partition \
            --threads="$t" --duration-ms=4 --seed=7 \
            --stats-json="$RACK_DIR/t$t.json" > /dev/null
    done
    python3 - "$RACK_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
docs = {}
for t in (1, 2, 4):
    with open(os.path.join(d, f"t{t}.json")) as f:
        doc = json.load(f)
    doc["meta"].pop("wall_seconds", None)
    docs[t] = json.dumps(doc, sort_keys=True)
assert docs[1] == docs[2] == docs[4], \
    "faulted-fabric stat JSON differs across --threads=1/2/4"
print("rack-chaos: stat JSON identical across threads 1/2/4")
EOF
    # Path-hop telemetry: on a 2-level fabric no delivered packet
    # may carry more stamps than the topology diameter (12) -- more
    # means a forwarding loop.
    "$BUILD_DIR/tools/mcnsim_cli" iperf --topology=leafspine \
        --duration-ms=1 --flow-stats="$RACK_DIR/flow.json" \
        > /dev/null
    python3 "$REPO_ROOT/tools/flow_report.py" \
        "$RACK_DIR/flow.json" --validate --max-path-hops 12
    # The SLO gates themselves run in bench_chaos (chaos stage).
fi

if want pdes; then
    echo
    echo "== stage: pdes =="
    # Every worker count must replay byte-identically in-process
    # (--selfcheck) on the shardable systems...
    for t in 2 4; do
        "$BUILD_DIR/tools/mcnsim_cli" iperf --system=cluster \
            --nodes=4 --threads="$t" --selfcheck --duration-ms=1
        "$BUILD_DIR/tools/mcnsim_cli" iperf --system=multi \
            --servers=2 --threads="$t" --selfcheck --duration-ms=1
        "$BUILD_DIR/tools/mcnsim_cli" ping --system=cluster \
            --nodes=3 --threads="$t" --selfcheck
        "$BUILD_DIR/tools/mcnsim_cli" chaos --system=cluster \
            --nodes=4 --threads="$t" --schedule=drop-heavy \
            --selfcheck --duration-ms=1
        "$BUILD_DIR/tools/mcnsim_cli" iperf --topology=fattree \
            --racks=4 --nodes-per-rack=4 --spines=4 --threads="$t" \
            --selfcheck --duration-ms=1
    done
    # ...and the full stat JSON -- including the meta block's window
    # count -- must byte-match across worker counts for the same
    # seed (meta.wall_seconds is host time and exempt).
    PDES_DIR="$SCRATCH/pdes"
    mkdir "$PDES_DIR"
    for t in 1 2 4; do
        "$BUILD_DIR/tools/mcnsim_cli" iperf --system=multi \
            --servers=4 --threads="$t" --duration-ms=2 --seed=42 \
            --stats-json="$PDES_DIR/multi-t$t.json" > /dev/null
        "$BUILD_DIR/tools/mcnsim_cli" iperf --topology=fattree \
            --racks=4 --nodes-per-rack=4 --spines=4 --threads="$t" \
            --duration-ms=2 --seed=42 \
            --stats-json="$PDES_DIR/fattree-t$t.json" > /dev/null
    done
    python3 - "$PDES_DIR" <<'EOF'
import json, sys, os
d = sys.argv[1]
for run in ("multi", "fattree"):
    docs = {}
    for t in (1, 2, 4):
        with open(os.path.join(d, f"{run}-t{t}.json")) as f:
            doc = json.load(f)
        doc["meta"].pop("wall_seconds", None)
        assert doc["meta"]["windows"] > 0, f"{run}: no windows in meta"
        docs[t] = json.dumps(doc, sort_keys=True)
    assert docs[1] == docs[2] == docs[4], \
        f"{run}: stat JSON differs across --threads=1/2/4"
    print(f"pdes: {run} stat JSON identical across threads 1/2/4")
EOF
fi

if want checked; then
    echo
    echo "== stage: checked =="
    CHECKED_DIR="$BUILD_DIR-checked"
    cmake -B "$CHECKED_DIR" -S "$REPO_ROOT" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMCNSIM_CHECKED=ON > /dev/null
    cmake --build "$CHECKED_DIR" -j
    ctest --test-dir "$CHECKED_DIR" --output-on-failure \
        -j "$(nproc)"
    echo "-- determinism selfcheck (mcn levels 0-5)"
    for lvl in 0 1 2 3 4 5; do
        "$CHECKED_DIR/tools/mcnsim_cli" iperf --selfcheck \
            --duration-ms=1 --level="$lvl"
    done
    "$CHECKED_DIR/tools/mcnsim_cli" ping --selfcheck \
        --system=cluster
    # The MCN ping path: CPU copies and HR-timer polling (mcn0), and
    # the DMA engines (mcn5).
    for lvl in 0 5; do
        "$CHECKED_DIR/tools/mcnsim_cli" ping --selfcheck \
            --system=mcn --dimms=2 --size=8192 --level="$lvl"
    done
    # The MCN-DMA fault paths: stalled descriptors and partial
    # transfers.
    "$CHECKED_DIR/tools/mcnsim_cli" chaos \
        --faults='*.stall:p=0.05;*.partial:p=0.05' --duration-ms=1 \
        --selfcheck
fi

if want asan; then
    echo
    echo "== stage: asan =="
    "$REPO_ROOT/tools/run_sanitizers.sh" \
        --build-root "$BUILD_DIR-san" --matrix "address,undefined"
fi

if want ubsan; then
    echo
    echo "== stage: ubsan =="
    "$REPO_ROOT/tools/run_sanitizers.sh" \
        --build-root "$BUILD_DIR-san" --matrix "undefined"
fi

if want tsan; then
    echo
    echo "== stage: tsan =="
    "$REPO_ROOT/tools/run_sanitizers.sh" \
        --build-root "$BUILD_DIR-san" --matrix "thread"
fi

echo
echo "ci: stages '$STAGES' passed"
