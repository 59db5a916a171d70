/**
 * @file
 * mcnsim command-line explorer: build a system from flags and run
 * one experiment against it, without writing any C++.
 *
 *   mcnsim_cli iperf     --system=mcn --dimms=4 --level=5
 *   mcnsim_cli ping      --system=cluster --size=1024 --count=10
 *   mcnsim_cli workload  --name=mg --system=mcn --dimms=2
 *   mcnsim_cli mapreduce --name=wordcount --system=mcn --dimms=4
 *   mcnsim_cli describe  --system=mcn --dimms=8 --level=3
 *
 * Common flags:
 *   --system=mcn|cluster|multi|scaleup|fabric   (default mcn)
 *   --dimms=N / --nodes=N / --servers=N / --cores=N
 *   --topology=leafspine|fattree   (multi-switch fabric; implies
 *                                   --system=fabric)
 *   --racks=N / --nodes-per-rack=N / --spines=N
 *   --level=0..5                   (Table I optimisation level)
 *   --duration-ms=N                (iperf window)
 *   --seed=N                       (simulation RNG seed, default 1)
 *   --threads=N                    (parallel event engine: shard the
 *                                   system per node and run windows
 *                                   on N worker threads; output is
 *                                   byte-identical for every N --
 *                                   see DESIGN.md §9)
 *   --selfcheck                    (determinism check: run the
 *                                   scenario twice with the same
 *                                   seed and diff the modeled state
 *                                   bit-for-bit)
 *   --stats                        (dump the full stats registry)
 *   --stats-json=PATH              (stats registry as JSON; - = stdout)
 *   --trace-flags=A,B              (enable debug flags, like MCNSIM_DEBUG)
 *
 * Timeline observability (see README.md §Observability):
 *   --timeline=PATH                (Chrome trace-event JSON; open in
 *                                   ui.perfetto.dev or chrome://tracing)
 *   --series-filter[=SUBSTR]       (with --timeline: every 50 µs,
 *                                   each scalar/average stat whose
 *                                   "group.stat" name contains
 *                                   SUBSTR becomes a counter track;
 *                                   empty or bare = all)
 *   --profile                      (per-event-name host-time profile;
 *                                   top-N table after the run)
 *   --profile-top=N                (rows in that table, default 20)
 *   --trace-ring=N                 (flight-recorder ring capacity,
 *                                   also via MCNSIM_TRACE_RING)
 *   --flow-stats[=PATH]            (per-flow tables + per-hop path
 *                                   latency histograms as JSON;
 *                                   - = stdout. Also unlocks the
 *                                   flows/path_latency blocks and
 *                                   queue watermarks in --stats-json)
 *
 * A flag no command reads gets "warning: unused flag --X" on stderr
 * after the run; the exit status is unchanged.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "dist/bigdata.hh"
#include "dist/coral.hh"
#include "dist/mapreduce.hh"
#include "dist/npb.hh"
#include "sim/fault.hh"
#include "sim/flow_stats.hh"
#include "sim/timeline.hh"
#include "sim/trace_ring.hh"

using namespace mcnsim;
using namespace mcnsim::core;

namespace {

struct Args
{
    std::string command;
    std::map<std::string, std::string> flags;
    /** Every key a command asked about, for the unused-flag
     *  warning. */
    mutable std::set<std::string> read;

    std::string
    get(const std::string &key, const std::string &def) const
    {
        read.insert(key);
        auto it = flags.find(key);
        return it == flags.end() ? def : it->second;
    }

    long
    getInt(const std::string &key, long def) const
    {
        read.insert(key);
        auto it = flags.find(key);
        return it == flags.end() ? def : std::stol(it->second);
    }

    bool
    has(const std::string &key) const
    {
        read.insert(key);
        return flags.count(key) > 0;
    }

    /** Warn on stderr about each given flag nothing read. */
    void
    warnUnused() const
    {
        for (const auto &kv : flags)
            if (!read.count(kv.first))
                std::fprintf(stderr, "warning: unused flag --%s\n",
                             kv.first.c_str());
    }
};

Args
parse(int argc, char **argv)
{
    Args a;
    if (argc > 1 && argv[1][0] != '-')
        a.command = argv[1];
    for (int i = 1; i < argc; ++i) {
        std::string s = argv[i];
        if (s.rfind("--", 0) != 0)
            continue;
        auto eq = s.find('=');
        if (eq == std::string::npos)
            // A bare --series-filter samples every stat, like an
            // empty SUBSTR; other bare flags are switches.
            a.flags[s.substr(2)] = s == "--series-filter" ? "" : "1";
        else
            a.flags[s.substr(2, eq - 2)] = s.substr(eq + 1);
    }
    return a;
}

/**
 * Snapshot the modeled end-state of a run for --selfcheck: the full
 * stat registry (StatRegistry::dumpJson, which has no host-time meta
 * header), the final tick and the event count. Two runs of the same
 * scenario with the same seed must produce byte-identical digests.
 */
void
appendDigest(sim::Simulation &s, std::string *digest)
{
    if (!digest)
        return;
    std::ostringstream os;
    s.prepareStatsDump();
    s.statRegistry().dumpJson(os);
    os << "tick=" << s.curTick()
       << " events=" << s.eventsProcessed() << "\n";
    *digest += os.str();
}

/** The seed every command constructs its Simulation with. */
std::uint64_t
seedOf(const Args &a)
{
    return static_cast<std::uint64_t>(a.getInt("seed", 1));
}

/**
 * Honour --threads=N (call right after constructing the Simulation,
 * before the system is built). Presence of the flag -- any value,
 * including 1 -- selects the sharded engine: the builder partitions
 * the system into per-node shards and run() executes conservative
 * lookahead windows (DESIGN.md §9). The window schedule is a pure
 * function of the partitioning, never of the worker count, so
 * --threads=4 output byte-matches --threads=1; omitting the flag
 * keeps the classic single-queue engine. Commands whose harness
 * shares coordinator state across nodes (the MPI world of workload/
 * mapreduce) pass shardable=false and stay single-queue.
 */
void
applyThreads(sim::Simulation &s, const Args &a, bool shardable)
{
    if (!a.has("threads"))
        return;
    long n = std::max(1l, a.getInt("threads", 1));
    if (!shardable) {
        if (n > 1)
            std::fprintf(stderr,
                         "note: --threads ignored for '%s' (the MPI "
                         "world shares cross-node state; runs on one "
                         "queue)\n",
                         a.command.c_str());
        return;
    }
    s.enableSharding();
    s.setThreads(static_cast<unsigned>(n));
}

/** The system label for metadata/diagnostics: --topology implies
 *  the fabric system regardless of --system (buildSystem agrees). */
std::string
systemKind(const Args &a)
{
    if (a.has("topology") || a.get("system", "mcn") == "fabric")
        return "fabric-" + a.get("topology", "leafspine");
    return a.get("system", "mcn");
}

/** Honour --stats / --stats-json after a run. */
int
dumpRequestedStats(const Args &a, sim::Simulation &s)
{
    if (a.has("stats"))
        s.dumpStats(std::cout);
    if (!a.has("stats-json"))
        return 0;
    std::string path = a.get("stats-json", "-");
    if (path == "-" || path == "1") {
        s.dumpStatsJson(std::cout);
        return 0;
    }
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    s.dumpStatsJson(f);
    return f.good() ? 0 : 1;
}

/** Period of --series-filter's stat samples on the timeline. */
constexpr sim::Tick seriesPeriod = 50 * sim::oneUs;

/**
 * One run's observability session: arms the timeline (and its
 * sampled stats), event profiler and flight-recorder capacity from
 * flags. Construct after the system is built (sampling walks the
 * stat registry); call finish() after the run to write the
 * artifacts and print the profile table.
 */
class ObsSession
{
  public:
    ObsSession(const Args &a, sim::Simulation &s) : a_(a), s_(s)
    {
        s_.setMetadata("command", a_.command);
        s_.setMetadata("system", systemKind(a_));
        if (a_.has("trace-ring"))
            sim::TraceRing::instance().setCapacity(
                static_cast<std::size_t>(
                    a_.getInt("trace-ring", 256)));
        if (a_.has("timeline")) {
            sim::Timeline::instance().clear();
            sim::Timeline::instance().enable(true);
            if (a_.has("series-filter"))
                s_.sampleStatsToTimeline(seriesPeriod,
                                         a_.get("series-filter", ""));
        }
        if (a_.has("profile")) {
            for (std::size_t i = 0; i < s_.shardCount(); ++i)
                s_.shardQueue(i).setProfiling(true);
            if (auto *set = s_.shardSet())
                set->setProfiling(true);
        }
        if (a_.has("flow-stats"))
            sim::FlowTelemetry::instance().enable();
    }

    /** Write the requested artifacts; nonzero on a write failure. */
    int
    finish()
    {
        int rc = 0;
        std::vector<std::pair<std::string, std::string>> meta = {
            {"command", a_.command},
            {"system", systemKind(a_)},
            {"seed", std::to_string(s_.seed())},
        };
        if (a_.has("flow-stats")) {
            auto &tel = sim::FlowTelemetry::instance();
            tel.disable();
            rc |= writeTo(a_.get("flow-stats", "-"),
                          [&](std::ostream &os) {
                              tel.exportJson(os, meta);
                          });
        }
        if (a_.has("timeline")) {
            auto &tl = sim::Timeline::instance();
            tl.enable(false);
            rc |= writeTo(a_.get("timeline", "-"),
                          [&](std::ostream &os) {
                              tl.exportJson(os, meta);
                          });
        }
        if (a_.has("profile"))
            printProfile();
        return rc;
    }

  private:
    template <typename F>
    int
    writeTo(const std::string &path, F &&write)
    {
        if (path == "-" || path == "1") {
            write(std::cout);
            return 0;
        }
        std::ofstream f(path);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        write(f);
        return f.good() ? 0 : 1;
    }

    void
    printProfile()
    {
        // Merge per-shard profiles by event name (one table whether
        // the run was sharded or not).
        std::map<std::string, sim::EventQueue::ProfileEntry> byName;
        for (std::size_t i = 0; i < s_.shardCount(); ++i)
            for (const auto &r : s_.shardQueue(i).profileEntries()) {
                auto &m = byName[r.name];
                m.name = r.name;
                m.count += r.count;
                m.hostNs += r.hostNs;
            }
        std::vector<sim::EventQueue::ProfileEntry> rows;
        rows.reserve(byName.size());
        for (auto &[name, row] : byName)
            rows.push_back(row);
        std::sort(rows.begin(), rows.end(),
                  [](const auto &x, const auto &y) {
                      return x.hostNs > y.hostNs;
                  });
        auto top = static_cast<std::size_t>(
            a_.getInt("profile-top", 20));
        std::printf("---- event profile: top %zu of %zu event "
                    "names by host time ----\n",
                    std::min(top, rows.size()), rows.size());
        std::printf("%-32s %12s %14s %10s\n", "event", "count",
                    "host_us", "avg_ns");
        for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
            const auto &r = rows[i];
            std::printf("%-32s %12llu %14.1f %10.1f\n", r.name,
                        static_cast<unsigned long long>(r.count),
                        static_cast<double>(r.hostNs) / 1e3,
                        static_cast<double>(r.hostNs) /
                            static_cast<double>(r.count));
        }
        if (auto *set = s_.shardSet(); set && set->windowsRun() > 0)
            printWorkerTimes(*set);
    }

    /** Per-worker host time of a sharded run: where the pool spent
     *  its time between windows (busy) and at the barrier (wait). */
    void
    printWorkerTimes(const sim::ShardSet &set)
    {
        std::printf("---- shard workers: %llu windows, %.1f events "
                    "per window ----\n",
                    static_cast<unsigned long long>(set.windowsRun()),
                    static_cast<double>(s_.eventsProcessed()) /
                        static_cast<double>(set.windowsRun()));
        std::printf("%-8s %14s %14s %10s\n", "worker", "busy_us",
                    "wait_us", "wait_frac");
        auto times = set.workerTimes();
        for (std::size_t w = 0; w < times.size(); ++w) {
            const auto &t = times[w];
            double total = static_cast<double>(t.busyNs + t.waitNs);
            std::printf("%-8zu %14.1f %14.1f %10.3f\n", w,
                        static_cast<double>(t.busyNs) / 1e3,
                        static_cast<double>(t.waitNs) / 1e3,
                        total > 0 ? static_cast<double>(t.waitNs) /
                                        total
                                  : 0.0);
        }
    }

    const Args &a_;
    sim::Simulation &s_;
};

/** upf: parallel uplinks per (leaf, spine) pair -- must match
 *  FabricSystem::uplinksPerSpine() so the canned rack-partition
 *  schedule addresses the real uplink ports. */
std::size_t
fabricUplinksPerSpine(const Args &a)
{
    auto nodes_per_rack =
        static_cast<std::size_t>(a.getInt("nodes-per-rack", 2));
    auto spines = static_cast<std::size_t>(a.getInt("spines", 2));
    return a.get("topology", "leafspine") == "fattree"
               ? (nodes_per_rack + spines - 1) / spines
               : 1;
}

/** Build the system the flags describe. */
std::unique_ptr<System>
buildSystem(sim::Simulation &s, const Args &a)
{
    std::string kind = a.get("system", "mcn");
    // --topology implies the multi-switch fabric system.
    if (kind == "fabric" || a.has("topology")) {
        FabricSystemParams p;
        std::string topo = a.get("topology", "leafspine");
        if (topo == "fattree")
            p.topology = FabricTopology::FatTree;
        else if (topo != "leafspine") {
            std::fprintf(stderr,
                         "unknown --topology=%s (leafspine | "
                         "fattree)\n",
                         topo.c_str());
            return nullptr;
        }
        p.racks = static_cast<std::size_t>(a.getInt("racks", 2));
        p.nodesPerRack = static_cast<std::size_t>(
            a.getInt("nodes-per-rack", 2));
        p.spines = static_cast<std::size_t>(a.getInt("spines", 2));
        return std::make_unique<FabricSystem>(s, p);
    }
    if (kind == "mcn") {
        McnSystemParams p;
        p.numDimms = static_cast<std::size_t>(a.getInt("dimms", 4));
        p.config =
            McnConfig::level(static_cast<int>(a.getInt("level", 5)));
        return std::make_unique<McnSystem>(s, p);
    }
    if (kind == "cluster") {
        ClusterSystemParams p;
        p.numNodes = static_cast<std::size_t>(a.getInt("nodes", 2));
        return std::make_unique<ClusterSystem>(s, p);
    }
    if (kind == "multi") {
        McnMultiServerParams p;
        p.numServers =
            static_cast<std::size_t>(a.getInt("servers", 2));
        p.dimmsPerServer =
            static_cast<std::size_t>(a.getInt("dimms", 2));
        p.config =
            McnConfig::level(static_cast<int>(a.getInt("level", 5)));
        return std::make_unique<McnMultiServer>(s, p);
    }
    if (kind == "scaleup")
        return std::make_unique<ScaleUpSystem>(
            s, static_cast<std::uint32_t>(a.getInt("cores", 8)));
    std::fprintf(stderr, "unknown --system=%s\n", kind.c_str());
    return nullptr;
}

dist::WorkloadSpec
findWorkload(const std::string &name)
{
    for (auto &w : dist::npb::suite())
        if (w.name == name)
            return w;
    for (auto &w : dist::coral::suite())
        if (w.name == name)
            return w;
    for (auto &w : dist::bigdata::suite())
        if (w.name == name)
            return w;
    sim::fatal("unknown workload '", name,
               "' (try cg/mg/ft/is/ep/lu, amg/minife/lulesh, "
               "grep/pagerank/sort/wordcount)");
}

int
cmdIperf(const Args &a, std::string *digest = nullptr)
{
    sim::Simulation s(seedOf(a));
    applyThreads(s, a, true);
    auto sys = buildSystem(s, a);
    if (!sys)
        return 1;
    sim::Tick dur = static_cast<sim::Tick>(
                        a.getInt("duration-ms", 5)) *
                    sim::oneMs;
    std::vector<std::size_t> clients;
    for (std::size_t i = 1; i < sys->nodeCount(); ++i)
        clients.push_back(i);
    if (clients.empty()) {
        std::fprintf(stderr, "need >= 2 nodes for iperf\n");
        return 1;
    }
    ObsSession obs(a, s);
    auto r = runIperf(s, *sys, 0, clients, dur);
    std::printf("iperf: %.2f Gbit/s across %d connections "
                "(%llu bytes in %.1f ms)\n",
                r.gbps, r.connections,
                static_cast<unsigned long long>(r.bytes),
                sim::ticksToSeconds(dur) * 1e3);
    appendDigest(s, digest);
    int orc = obs.finish();
    int src = dumpRequestedStats(a, s);
    return orc ? orc : src;
}

int
cmdPing(const Args &a, std::string *digest = nullptr)
{
    sim::Simulation s(seedOf(a));
    applyThreads(s, a, true);
    auto sys = buildSystem(s, a);
    if (!sys || sys->nodeCount() < 2)
        return 1;
    std::size_t size =
        static_cast<std::size_t>(a.getInt("size", 56));
    int count = static_cast<int>(a.getInt("count", 5));
    sim::Tick timeout = static_cast<sim::Tick>(a.getInt(
                            "ping-timeout-us", 100000)) *
                        sim::oneUs;
    unsigned retries =
        static_cast<unsigned>(a.getInt("ping-retries", 0));
    ObsSession obs(a, s);
    auto pts =
        runPingSweep(s, *sys, 0, 1, {size}, count, timeout, retries);
    if (pts.empty() || pts[0].lost == count) {
        std::printf("ping: no replies\n");
        return 1;
    }
    std::printf("ping %zu bytes: avg %.2f us, min %.2f us, max "
                "%.2f us (%d probes, %d lost)\n",
                size, sim::ticksToUs(pts[0].avgRtt),
                sim::ticksToUs(pts[0].minRtt),
                sim::ticksToUs(pts[0].maxRtt), count, pts[0].lost);
    appendDigest(s, digest);
    int orc = obs.finish();
    int src = dumpRequestedStats(a, s);
    return orc ? orc : src;
}

int
cmdWorkload(const Args &a, std::string *digest = nullptr)
{
    sim::Simulation s(seedOf(a));
    applyThreads(s, a, false);
    auto sys = buildSystem(s, a);
    if (!sys)
        return 1;
    auto spec = findWorkload(a.get("name", "mg"));
    auto placement = allCoresPlacement(*sys);
    auto scaled =
        spec.scaledTo(static_cast<int>(placement.size()));
    scaled.iterations =
        static_cast<int>(a.getInt("iters", spec.iterations));
    ObsSession obs(a, s);
    auto rep = runMpiWorkload(s, *sys, scaled, placement);
    std::printf("%s on %zu ranks: %s in %.2f ms, %.1f MB over "
                "MPI\n",
                spec.name.c_str(), placement.size(),
                rep.completed ? "completed" : "DID NOT FINISH",
                sim::ticksToSeconds(rep.makespan) * 1e3,
                static_cast<double>(rep.mpiBytes) / 1e6);
    appendDigest(s, digest);
    int orc = obs.finish();
    if (!rep.completed)
        return 1;
    int src = dumpRequestedStats(a, s);
    return orc ? orc : src;
}

int
cmdMapReduce(const Args &a, std::string *digest = nullptr)
{
    sim::Simulation s(seedOf(a));
    applyThreads(s, a, false);
    auto sys = buildSystem(s, a);
    if (!sys)
        return 1;
    std::string name = a.get("name", "wordcount");
    dist::MapReduceJob job;
    if (name == "wordcount")
        job = dist::wordcountJob();
    else if (name == "sort")
        job = dist::sortJob();
    else if (name == "grep")
        job = dist::grepJob();
    else
        sim::fatal("unknown job '", name,
                   "' (wordcount/sort/grep)");

    auto placement = allCoresPlacement(*sys);
    ObsSession obs(a, s);
    auto rep = runMapReduce(s, *sys, job, placement);
    std::printf("%s on %zu workers: %s in %.2f ms (map %.2f ms, "
                "shuffle %.2f ms, %.1f MB shuffled)\n",
                job.name.c_str(), placement.size(),
                rep.completed ? "completed" : "DID NOT FINISH",
                sim::ticksToSeconds(rep.makespan) * 1e3,
                sim::ticksToSeconds(rep.mapPhase) * 1e3,
                sim::ticksToSeconds(rep.shufflePhase) * 1e3,
                static_cast<double>(rep.shuffledBytes) / 1e6);
    appendDigest(s, digest);
    int orc = obs.finish();
    if (!rep.completed)
        return 1;
    int src = dumpRequestedStats(a, s);
    return orc ? orc : src;
}

/**
 * Arm the process-wide fault plan from --faults / --schedule.
 * Returns false (with a message) on a malformed spec. Idempotent:
 * clears any previous plan first so --selfcheck reruns replay the
 * identical schedule.
 */
bool
armFaultPlan(const Args &a)
{
    std::string specs = a.get("faults", "");
    std::string schedule = a.get("schedule", "");
    if (!schedule.empty()) {
        if (schedule == "drop-heavy")
            specs = "*.rx-irq-lost:p=0.05;*.alert-lost:p=0.05;"
                    "*.stall:p=0.01";
        else if (schedule == "corrupt-heavy")
            specs = "*.tx-corrupt:p=0.02";
        else if (schedule == "crash-recover")
            specs = "mcn1.hang:at=2ms,param=1ms";
        else if (schedule == "spine-kill")
            // Fabric scenario (pass --topology=...): spine0 goes
            // dark for 1 ms; the leaves must reroute around it and
            // readmit it on recovery.
            specs = "spine0.crash:at=1ms,param=1ms";
        else if (schedule == "rack-partition") {
            // Fabric scenario: every uplink of rack0's leaf held
            // down for 1 ms -- rack0 is partitioned from the rest
            // of the fabric and its cross-rack sockets must fail
            // fast, then traffic resumes on recovery.
            auto nodes_per_rack = static_cast<std::size_t>(
                a.getInt("nodes-per-rack", 2));
            auto uplinks = static_cast<std::size_t>(
                               a.getInt("spines", 2)) *
                           fabricUplinksPerSpine(a);
            specs.clear();
            for (std::size_t u = 0; u < uplinks; ++u) {
                if (!specs.empty())
                    specs += ";";
                specs += "rack0.leaf.port" +
                         std::to_string(nodes_per_rack + u) +
                         ".down:at=1ms,param=1ms";
            }
        } else {
            std::fprintf(stderr,
                         "unknown --schedule=%s (drop-heavy | "
                         "corrupt-heavy | crash-recover | "
                         "spine-kill | rack-partition)\n",
                         schedule.c_str());
            return false;
        }
        if (a.has("faults"))
            specs += ";" + a.get("faults", "");
    }
    if (specs.empty()) {
        std::fprintf(stderr,
                     "chaos: need --faults=SPEC[;SPEC...] or "
                     "--schedule=NAME\n");
        return false;
    }

    auto &plan = sim::FaultPlan::instance();
    plan.clear();
    plan.setSeed(seedOf(a));
    std::size_t pos = 0;
    while (pos < specs.size()) {
        std::size_t semi = specs.find(';', pos);
        if (semi == std::string::npos)
            semi = specs.size();
        if (semi > pos) {
            sim::FaultPlan::Spec sp;
            std::string err;
            std::string one = specs.substr(pos, semi - pos);
            if (!sim::FaultPlan::parseSpec(one, &sp, &err)) {
                std::fprintf(stderr, "bad fault spec '%s': %s\n",
                             one.c_str(), err.c_str());
                plan.clear();
                return false;
            }
            plan.arm(sp);
        }
        pos = semi + 1;
    }
    plan.resetRunState();
    return true;
}

/**
 * chaos: a fault-injection soak. Arms the fault plan, runs the
 * iperf traffic mix (every node streaming to the host) for the
 * requested window, and reports what fired and what the recovery
 * machinery did. Time-bounded by construction, so a wedged system
 * shows up as zero throughput, not a hang. With --selfcheck the
 * whole thing runs twice and the modeled end state (which includes
 * every fault fire) must be byte-identical.
 */
int
cmdChaos(const Args &a, std::string *digest = nullptr)
{
    if (!armFaultPlan(a))
        return 1;
    auto &plan = sim::FaultPlan::instance();

    sim::Simulation s(seedOf(a));
    applyThreads(s, a, true);
    auto sys = buildSystem(s, a);
    if (!sys || sys->nodeCount() < 2) {
        plan.clear();
        return 1;
    }
    sim::Tick dur = static_cast<sim::Tick>(
                        a.getInt("duration-ms", 10)) *
                    sim::oneMs;
    std::vector<std::size_t> clients;
    for (std::size_t i = 1; i < sys->nodeCount(); ++i)
        clients.push_back(i);

    ObsSession obs(a, s);
    auto r = runIperf(s, *sys, 0, clients, dur);

    std::printf("chaos: %.2f Gbit/s across %d connections under "
                "%zu armed spec(s), %llu fault(s) fired\n",
                r.gbps, r.connections, plan.specs().size(),
                static_cast<unsigned long long>(plan.totalFires()));
    for (const auto &[site, fires] : plan.fireCounts())
        std::printf("  %-48s %8llu\n", site.c_str(),
                    static_cast<unsigned long long>(fires));

    appendDigest(s, digest);
    if (digest) {
        // Fold the fault schedule into the digest too: a selfcheck
        // rerun must replay the identical fires, not just land on
        // the same stats.
        std::ostringstream os;
        os << "faultFires=" << plan.totalFires();
        for (const auto &[site, fires] : plan.fireCounts())
            os << " " << site << "=" << fires;
        os << "\n";
        *digest += os.str();
    }
    plan.clear();
    int orc = obs.finish();
    int src = dumpRequestedStats(a, s);
    return orc ? orc : src;
}

int
cmdDescribe(const Args &a)
{
    sim::Simulation s(seedOf(a));
    auto sys = buildSystem(s, a);
    if (!sys)
        return 1;
    std::printf("system: %s, %zu nodes\n", systemKind(a).c_str(),
                sys->nodeCount());
    for (std::size_t i = 0; i < sys->nodeCount(); ++i) {
        auto n = sys->node(i);
        std::printf("  node %zu: %s, %u cores @ %.2f GHz, %u mem "
                    "channels (%s)\n",
                    i, n.addr.str().c_str(),
                    n.kernel->cpus().coreCount(),
                    n.kernel->cpus().clock().frequencyHz() / 1e9,
                    n.kernel->mem().channelCount(),
                    n.kernel->mem().timing().name.c_str());
    }
    if (a.get("system", "mcn") == "mcn") {
        auto cfg = McnConfig::level(
            static_cast<int>(a.getInt("level", 5)));
        std::printf("config: %s\n", cfg.describe().c_str());
    }
    return 0;
}

/**
 * --selfcheck: run the scenario twice in-process with the same seed
 * and diff the modeled end-state digests bit-for-bit. Catches
 * nondeterminism (iteration over pointer-keyed containers, uninit
 * reads, wall-clock leakage into model code) that single-run tests
 * cannot see.
 */
int
runSelfcheck(const Args &a,
             int (*cmd)(const Args &, std::string *))
{
    std::string d1, d2;
    int rc1 = cmd(a, &d1);
    if (rc1)
        return rc1;
    int rc2 = cmd(a, &d2);
    if (rc2)
        return rc2;
    if (d1 != d2 || d1.empty()) {
        std::size_t at = 0;
        while (at < d1.size() && at < d2.size() && d1[at] == d2[at])
            at++;
        std::fprintf(stderr,
                     "selfcheck: FAILED -- two runs of '%s' with "
                     "seed %llu diverged at digest byte %zu "
                     "(%zu vs %zu bytes)\n",
                     a.command.c_str(),
                     static_cast<unsigned long long>(seedOf(a)), at,
                     d1.size(), d2.size());
        return 1;
    }
    std::printf("selfcheck: '%s' deterministic (seed %llu, "
                "%zu-byte state digest identical across 2 runs)\n",
                a.command.c_str(),
                static_cast<unsigned long long>(seedOf(a)),
                d1.size());
    return 0;
}

void
usage()
{
    std::printf(
        "usage: mcnsim_cli <command> [flags]\n"
        "commands: iperf | ping | workload | mapreduce | chaos | "
        "describe\n"
        "flags: --system=mcn|cluster|multi|scaleup|fabric --dimms=N\n"
        "       --nodes=N --servers=N --cores=N --level=0..5\n"
        "       --topology=leafspine|fattree  multi-switch fabric\n"
        "                    (implies --system=fabric)\n"
        "       --racks=N --nodes-per-rack=N --spines=N\n"
        "       --duration-ms=N --size=N --count=N\n"
        "       --name=<workload|job> --iters=N --stats\n"
        "       --stats-json=PATH|-  --trace-flags=FLAG1,FLAG2\n"
        "       --seed=N     simulation RNG seed (default 1)\n"
        "       --threads=N  sharded parallel engine, N workers\n"
        "                    (iperf/ping/chaos; output is identical\n"
        "                    for every N -- see DESIGN.md §9)\n"
        "       --selfcheck  run twice, diff modeled state "
        "bit-for-bit\n"
        "       --ping-timeout-us=N  per-probe timeout "
        "(ping, default 100000)\n"
        "       --ping-retries=N     re-sends per lost probe "
        "(ping, default 0)\n"
        "chaos (fault-injection soak; see DESIGN.md §8):\n"
        "       --faults=GLOB:k=v[,k=v...][;SPEC...]  e.g.\n"
        "         '*.tx-corrupt:p=0.01;mcn1.crash:at=2ms'\n"
        "       --schedule=drop-heavy|corrupt-heavy|crash-recover\n"
        "                  |spine-kill|rack-partition (fabric; pass\n"
        "                  --topology=... so the ports resolve)\n"
        "       spec keys: p= n= at= param= max= from= until=\n"
        "observability:\n"
        "       --timeline=PATH|-       Perfetto/chrome trace JSON\n"
        "       --series-filter[=SUBSTR]  with --timeline: sample\n"
        "                               stats named *SUBSTR* (bare:\n"
        "                               all) every 50 us as counter\n"
        "                               tracks\n"
        "       --profile               host-time profile table\n"
        "       --profile-top=N         rows in that table\n"
        "       --trace-ring=N          flight-recorder capacity\n"
        "       --flow-stats[=PATH|-]   per-flow tables + per-hop\n"
        "                               path-latency histograms;\n"
        "                               also adds flows/path_latency\n"
        "                               blocks and queue watermarks\n"
        "                               to --stats-json\n"
        "trace flags (also via MCNSIM_DEBUG): Event MCNDriver\n"
        "       MCNDma NIC Switch TCP DRAM IRQ Fault ALL\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    if (a.has("trace-flags")) {
        std::string flags = a.get("trace-flags", "");
        std::size_t pos = 0;
        while (pos < flags.size()) {
            std::size_t comma = flags.find(',', pos);
            if (comma == std::string::npos)
                comma = flags.size();
            if (comma > pos)
                sim::Trace::setFlag(
                    flags.substr(pos, comma - pos), true);
            pos = comma + 1;
        }
    }
    try {
        int (*cmd)(const Args &, std::string *) = nullptr;
        if (a.command == "iperf")
            cmd = cmdIperf;
        else if (a.command == "ping")
            cmd = cmdPing;
        else if (a.command == "workload")
            cmd = cmdWorkload;
        else if (a.command == "mapreduce")
            cmd = cmdMapReduce;
        else if (a.command == "chaos")
            cmd = cmdChaos;
        if (cmd || a.command == "describe") {
            int rc = !cmd                 ? cmdDescribe(a)
                     : a.has("selfcheck") ? runSelfcheck(a, cmd)
                                          : cmd(a, nullptr);
            a.warnUnused();
            return rc;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    usage();
    return a.command.empty() ? 0 : 1;
}
