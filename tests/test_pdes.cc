/**
 * @file
 * Parallel-simulation (PDES) tests: the sharded engine's results
 * must be a pure function of the scenario, never of the worker
 * count, and its guard rails must fire loudly.
 *
 * The determinism oracle is the same modeled-state digest the
 * determinism suite and --selfcheck use: StatRegistry::dumpJson
 * (no host-time meta) plus final tick and event count. A sharded
 * run at N threads must byte-match the same run at 1 thread --
 * window boundaries and mailbox merge order depend only on queue
 * state, so thread scheduling can never reorder modeled events
 * (DESIGN.md §9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;

namespace {

/** Modeled end-state digest (see file comment). */
std::string
digestOf(sim::Simulation &s)
{
    std::ostringstream os;
    s.prepareStatsDump();
    s.statRegistry().dumpJson(os);
    os << "tick=" << s.curTick() << " events=" << s.eventsProcessed();
    return os.str();
}

/** Cluster iperf, sharded per node, on @p threads workers. */
std::string
clusterIperfDigest(std::uint64_t seed, unsigned threads)
{
    sim::Simulation s(seed);
    s.enableSharding();
    s.setThreads(threads);
    ClusterSystemParams p;
    p.numNodes = 4;
    ClusterSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    return digestOf(s);
}

/** Multi-server MCN iperf, sharded per server. */
std::string
multiServerIperfDigest(std::uint64_t seed, unsigned threads)
{
    sim::Simulation s(seed);
    s.enableSharding();
    s.setThreads(threads);
    McnMultiServerParams p;
    p.numServers = 2;
    p.dimmsPerServer = 1;
    McnMultiServer sys(s, p);
    std::vector<std::size_t> clients;
    for (std::size_t i = 1; i < sys.nodeCount(); ++i)
        clients.push_back(i);
    runIperf(s, sys, 0, clients, 200 * sim::oneUs);
    return digestOf(s);
}

/** Cluster iperf on the classic single-queue engine. */
std::string
classicIperfDigest(std::uint64_t seed)
{
    sim::Simulation s(seed);
    ClusterSystemParams p;
    p.numNodes = 4;
    ClusterSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    return digestOf(s);
}

/** Multi-switch fabric iperf (ECMP + hello liveness), sharded per
 *  node and per switch. 0 threads = classic engine. */
std::string
fabricIperfDigest(std::uint64_t seed, unsigned threads,
                  FabricTopology topo = FabricTopology::LeafSpine)
{
    sim::Simulation s(seed);
    if (threads > 0) {
        s.enableSharding();
        s.setThreads(threads);
    }
    FabricSystemParams p;
    p.topology = topo;
    FabricSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    return digestOf(s);
}

/** Flow-telemetry artifact of a fabric iperf run (fixed meta, so
 *  classic and sharded engines must emit identical bytes). */
std::string
fabricFlowJson(std::uint64_t seed, unsigned threads)
{
    auto &tel = sim::FlowTelemetry::instance();
    sim::Simulation s(seed);
    if (threads > 0) {
        s.enableSharding();
        s.setThreads(threads);
    }
    FabricSystemParams p;
    FabricSystem sys(s, p);
    tel.enable();
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    tel.disable();
    std::ostringstream os;
    tel.exportJson(os, {{"scenario", "fabric-iperf"}});
    return os.str();
}

/** Window count of a fat-tree fabric iperf on @p threads workers. */
std::uint64_t
fatTreeWindows(std::uint64_t seed, unsigned threads)
{
    sim::Simulation s(seed);
    s.enableSharding();
    s.setThreads(threads);
    FabricSystemParams p;
    p.topology = FabricTopology::FatTree;
    FabricSystem sys(s, p);
    runIperf(s, sys, 0, {1, 2, 3}, 300 * sim::oneUs);
    return s.shardSet()->windowsRun();
}

/** A bare sharded Simulation: @p shards shards, every one joined to
 *  shard 0 by an edge of @p lookahead, run on @p workers workers. */
void
buildStar(sim::Simulation &s, std::size_t shards, sim::Tick lookahead,
          unsigned workers)
{
    s.enableSharding();
    for (std::size_t i = 1; i < shards; ++i)
        s.addShardEdge(0, s.newShard(), lookahead);
    s.setThreads(workers);
}

/** What a ping-pong run leaves behind: every shard's delivery log
 *  (tick, ball state) and the window count. */
struct PingPongRun
{
    std::vector<std::vector<std::pair<sim::Tick, std::uint64_t>>> logs;
    std::uint64_t windows = 0;
};

/**
 * Eight balls bounce among 16 shards. Each carries its own LCG
 * state, which picks the next shard, the delay (the lookahead plus
 * zero to two half-lookaheads) and the priority. The balls start in
 * pairs on four shards at tick 0 and every tick is a multiple of
 * half a lookahead, so messages often tie on tick, priority and
 * source shard, and the whole merge key gets exercised.
 */
PingPongRun
pingPong(unsigned workers)
{
    constexpr std::size_t shards = 16;
    constexpr sim::Tick lookahead = 1 * sim::oneUs;
    sim::Simulation s;
    buildStar(s, shards, lookahead, workers);
    PingPongRun out;
    out.logs.resize(shards);

    std::function<void(std::size_t, std::uint64_t, int)> hop =
        [&](std::size_t at, std::uint64_t state, int left) {
            const sim::Tick now = s.shardQueue(at).curTick();
            out.logs[at].emplace_back(now, state);
            if (left == 0)
                return;
            state = state * 6364136223846793005ULL +
                    1442695040888963407ULL;
            const std::size_t to = (state >> 33) % shards;
            const sim::Tick when =
                now + lookahead + (state >> 40) % 3 * (lookahead / 2);
            const auto prio = (state >> 50) & 1
                                  ? sim::EventPriority::Default
                                  : sim::EventPriority::Softirq;
            s.postCrossShard(at, to, when, prio, "test.ball",
                             [&hop, to, state, left] {
                                 hop(to, state, left - 1);
                             });
        };
    for (std::uint64_t b = 0; b < 8; ++b) {
        const std::size_t at = b / 2 * 5;
        s.shardQueue(at).schedule(
            [&hop, at, b] { hop(at, b + 1, 300); }, 0, "test.serve");
    }
    s.run(50 * sim::oneUs); // a slice boundary mid-rally
    s.run();
    out.windows = s.shardSet()->windowsRun();
    return out;
}

/** FNV-1a: a compact, build-independent fingerprint of a digest. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

TEST(Pdes, IperfDigestsMatchPinnedSchedule)
{
    // Pinned fingerprints of the classic and sharded iperf digests
    // (stat JSON, final tick and event count), captured when link
    // frames and TCP timers were still coalesced behind a per-link
    // pump event and a timer wheel. One managed event per frame and
    // per timer must reproduce that schedule exactly, event count
    // included. The classic and sharded engines agree on this
    // scenario, so one constant pins both.
    constexpr std::uint64_t pinned = 0xab326dab1b9d6d51ull;
    EXPECT_EQ(fnv1a(classicIperfDigest(42)), pinned);
    EXPECT_EQ(fnv1a(clusterIperfDigest(42, 1)), pinned);
}

TEST(Pdes, RepeatedConstructionByteIdenticalAcrossThreadCounts)
{
    // The digest must be a pure function of (scenario, seed): a
    // second Simulation built in the same process -- at any worker
    // count -- must reproduce the first byte for byte. This is the
    // regression net for process-global construction-time state
    // (e.g. the NIC IRQ-line counter that moved into
    // os::IrqController::allocateLine).
    std::string first = clusterIperfDigest(42, 1);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(clusterIperfDigest(42, 1), first);
    EXPECT_EQ(clusterIperfDigest(42, 2), first);
    EXPECT_EQ(clusterIperfDigest(42, 4), first);
}

TEST(Pdes, ClusterIperfByteIdenticalAcrossThreadCounts)
{
    std::string one = clusterIperfDigest(42, 1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, clusterIperfDigest(42, 2));
    EXPECT_EQ(one, clusterIperfDigest(42, 4));
}

TEST(Pdes, MultiServerIperfByteIdenticalAcrossThreadCounts)
{
    std::string one = multiServerIperfDigest(7, 1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, multiServerIperfDigest(7, 2));
    EXPECT_EQ(one, multiServerIperfDigest(7, 4));
}

TEST(Pdes, FabricIperfByteIdenticalAcrossThreadCounts)
{
    // The multi-switch fabric (per-switch shards, hello control
    // plane, ECMP) is subject to the same oracle: worker count must
    // be invisible.
    std::string one = fabricIperfDigest(7, 1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, fabricIperfDigest(7, 2));
    EXPECT_EQ(one, fabricIperfDigest(7, 4));

    std::string ft = fabricIperfDigest(7, 1, FabricTopology::FatTree);
    ASSERT_FALSE(ft.empty());
    EXPECT_EQ(ft, fabricIperfDigest(7, 2, FabricTopology::FatTree));
    EXPECT_EQ(ft, fabricIperfDigest(7, 4, FabricTopology::FatTree));
}

TEST(Pdes, FabricFlowTelemetryAgreesClassicVsSharded)
{
    // Event *counts* differ between the classic and sharded engines
    // (mailbox hops), so digests are not comparable -- but the
    // modeled traffic is: the flow-telemetry artifact (per-flow
    // bytes, RTTs, per-hop latency, path-length histogram) must be
    // byte-identical between the classic engine and a 4-worker
    // sharded run.
    std::string classic = fabricFlowJson(7, 0);
    ASSERT_FALSE(classic.empty());
    EXPECT_EQ(classic, fabricFlowJson(7, 4));
}

TEST(Pdes, FabricLookaheadDerivedFromAccessLinkLatency)
{
    sim::Simulation s;
    s.enableSharding();
    FabricSystemParams p; // 2 racks x 2 nodes + 2 leaves + 2 spines
    FabricSystem sys(s, p);
    // Default shard + one per switch (2 leaves, 2 spines) and one
    // per node (4).
    EXPECT_EQ(s.shardCount(), 9u);
    // The min edge is the lookahead; access and trunk links share
    // the default latency here.
    EXPECT_EQ(s.shardLookahead(),
              std::min(p.net.linkLatency, p.trunk.linkLatency));
}

TEST(Pdes, LookaheadDerivedFromLinkLatency)
{
    sim::Simulation s;
    s.enableSharding();
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);
    EXPECT_EQ(s.shardCount(), 3u); // switch shard + one per node
    EXPECT_EQ(s.shardLookahead(), p.net.linkLatency);
}

TEST(Pdes, UnshardedSimulationDegradesToNoOps)
{
    sim::Simulation s;
    EXPECT_FALSE(s.shardingEnabled());
    EXPECT_EQ(s.newShard(), 0u);
    EXPECT_EQ(s.shardCount(), 1u);
    EXPECT_EQ(s.shardLookahead(), sim::maxTick);
    // postCrossShard degrades to a plain schedule.
    int fired = 0;
    s.postCrossShard(0, 0, 10 * sim::oneNs,
                     sim::EventPriority::Default, "test.post",
                     [&] { fired++; });
    s.run(1 * sim::oneUs);
    EXPECT_EQ(fired, 1);
}

TEST(Pdes, CrossShardPostAtLookaheadExecutesOnTime)
{
    sim::Simulation s;
    s.enableSharding();
    std::size_t other = s.newShard();
    ASSERT_EQ(other, 1u);
    s.addShardEdge(0, other, 1 * sim::oneUs);

    sim::Tick fired = 0;
    s.shardQueue(0).schedule(
        [&] {
            sim::Tick when =
                s.shardQueue(0).curTick() + s.shardLookahead();
            s.postCrossShard(0, other, when,
                             sim::EventPriority::Default,
                             "test.cross", [&] {
                                 fired = s.shardQueue(other)
                                             .curTick();
                             });
        },
        100 * sim::oneNs, "test.src");
    s.run(10 * sim::oneUs);
    EXPECT_EQ(fired, 100 * sim::oneNs + 1 * sim::oneUs);
}

TEST(Pdes, CrossShardPostBelowHorizonPanics)
{
    // An event that tries to deliver cross-shard *now*: below the
    // lookahead horizon, which the engine must refuse loudly (the
    // destination shard may already have run past this tick). On two
    // workers the offender runs on the second one, so the panic must
    // also cross back to the caller.
    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE(workers);
        sim::Simulation s;
        buildStar(s, 2, 1 * sim::oneUs, workers);
        s.shardQueue(1).schedule(
            [&] {
                s.postCrossShard(1, 0, s.shardQueue(1).curTick(),
                                 sim::EventPriority::Default,
                                 "test.early", [] {});
            },
            100 * sim::oneNs, "test.src");
        try {
            s.run(10 * sim::oneUs);
            FAIL() << "expected a lookahead-violation panic";
        } catch (const sim::PanicError &e) {
            EXPECT_NE(std::string(e.what()).find("lookahead horizon"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Pdes, ShardSetRunsWindowsAndAgreesOnFinalTick)
{
    sim::Simulation s;
    s.enableSharding();
    s.setThreads(2);
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);
    runPingSweep(s, sys, 0, 1, {56}, 2);
    ASSERT_NE(s.shardSet(), nullptr);
    EXPECT_GT(s.shardSet()->windowsRun(), 0u);
    // Every shard's clock agrees between run slices.
    for (std::size_t i = 0; i < s.shardCount(); ++i)
        EXPECT_EQ(s.shardQueue(i).curTick(), s.curTick());
}

TEST(Pdes, CrossShardPostAfterUntilFiresInNextSlice)
{
    // A post made in the last window of run(until) that lands after
    // `until` must wait in the destination's queue, not in a
    // mailbox, and fire on time in the next slice.
    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE(workers);
        sim::Simulation s;
        buildStar(s, 2, 1 * sim::oneUs, workers);
        sim::Tick fired = 0;
        s.shardQueue(0).schedule(
            [&] {
                s.postCrossShard(0, 1,
                                 s.shardQueue(0).curTick() +
                                     s.shardLookahead(),
                                 sim::EventPriority::Default,
                                 "test.late", [&] {
                                     fired = s.shardQueue(1).curTick();
                                 });
            },
            9500 * sim::oneNs, "test.src");
        s.run(10 * sim::oneUs);
        EXPECT_EQ(fired, 0u);
        EXPECT_EQ(s.shardQueue(1).nextEventTick(),
                  10500 * sim::oneNs);
        s.run(20 * sim::oneUs);
        EXPECT_EQ(fired, 10500 * sim::oneNs);
    }
}

TEST(Pdes, RandomPingPongIdenticalAcrossWorkerCounts)
{
    PingPongRun one = pingPong(1);
    std::size_t deliveries = 0;
    for (const auto &log : one.logs)
        deliveries += log.size();
    ASSERT_EQ(deliveries, 8u * 301u); // no ball lost or duplicated
    ASSERT_GT(one.windows, 0u);
    for (unsigned workers : {2u, 4u}) {
        SCOPED_TRACE(workers);
        PingPongRun n = pingPong(workers);
        EXPECT_EQ(n.logs, one.logs);
        EXPECT_EQ(n.windows, one.windows);
    }
}

TEST(Pdes, OneShardFansOutToEveryShardInOneWindow)
{
    // Shard 0 sends a burst of same-tick, same-priority messages to
    // every shard (itself included) from one event. Every destination
    // must get the whole burst one lookahead later, in posting order,
    // on any worker count: one window to send, one to deliver. The
    // burst is long enough that only the seq tie-breaker, not the
    // sort's handling of small inputs, keeps it in order.
    constexpr int burst = 24;
    constexpr std::size_t shards = 16;
    constexpr sim::Tick lookahead = 1 * sim::oneUs;
    for (unsigned workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(workers);
        sim::Simulation s;
        buildStar(s, shards, lookahead, workers);
        std::vector<std::vector<std::pair<sim::Tick, int>>> got(shards);
        s.shardQueue(0).schedule(
            [&] {
                const sim::Tick when =
                    s.shardQueue(0).curTick() + lookahead;
                for (std::size_t dst = 0; dst < shards; ++dst)
                    for (int i = 0; i < burst; ++i)
                        s.postCrossShard(
                            0, dst, when, sim::EventPriority::Default,
                            "test.fan", [&, dst, i] {
                                got[dst].emplace_back(
                                    s.shardQueue(dst).curTick(), i);
                            });
            },
            100 * sim::oneNs, "test.src");
        s.run();
        const sim::Tick at = 100 * sim::oneNs + lookahead;
        std::vector<std::pair<sim::Tick, int>> want;
        for (int i = 0; i < burst; ++i)
            want.emplace_back(at, i);
        for (std::size_t dst = 0; dst < shards; ++dst)
            EXPECT_EQ(got[dst], want) << "shard " << dst;
        EXPECT_EQ(s.shardSet()->windowsRun(), 2u);
    }
}

TEST(Pdes, FatTreeWindowCountIdenticalAcrossWorkerCounts)
{
    const std::uint64_t one = fatTreeWindows(7, 1);
    ASSERT_GT(one, 0u);
    EXPECT_EQ(fatTreeWindows(7, 2), one);
    EXPECT_EQ(fatTreeWindows(7, 4), one);
}

TEST(Pdes, StatsMetaReportsWindowsIdenticallyAcrossWorkerCounts)
{
    // The window count and mean events per window are simulation
    // state: they go in the stats "meta" block, and the block (bar
    // its host wall clock) must not depend on the worker count.
    auto meta = [](unsigned workers) {
        sim::Simulation s(3);
        s.enableSharding();
        s.setThreads(workers);
        ClusterSystemParams p;
        p.numNodes = 3;
        ClusterSystem sys(s, p);
        runIperf(s, sys, 0, {1, 2}, 100 * sim::oneUs);
        std::ostringstream os;
        s.dumpStatsJson(os);
        std::string doc = os.str();
        auto at = doc.find("\"wall_seconds\"");
        doc.erase(at, doc.find(',', at) - at);
        return doc;
    };
    const std::string one = meta(1);
    EXPECT_NE(one.find("\"windows\""), std::string::npos);
    EXPECT_NE(one.find("\"events_per_window\""), std::string::npos);
    EXPECT_EQ(meta(2), one);
    EXPECT_EQ(meta(4), one);
}

#ifdef MCNSIM_CHECKED

TEST(PdesChecked, CrossShardDirectScheduleTrips)
{
    // The cross-shard lifetime rule (DESIGN.md §7, §9): while a
    // queue is dispatching, scheduling onto a *different* queue is
    // a shard-safety bug -- it must go through the mailbox API.
    sim::Simulation s;
    s.enableSharding();
    std::size_t other = s.newShard();
    s.addShardEdge(0, other, 1 * sim::oneUs);

    s.shardQueue(0).schedule(
        [&] {
            s.shardQueue(1).schedule([] {},
                                     s.curTick() + 2 * sim::oneUs,
                                     "test.direct");
        },
        100 * sim::oneNs, "test.src");
    try {
        s.run(10 * sim::oneUs);
        FAIL() << "expected a cross-shard schedule panic";
    } catch (const sim::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("cross-shard"),
                  std::string::npos)
            << e.what();
    }
}

#endif // MCNSIM_CHECKED
