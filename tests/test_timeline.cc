/**
 * @file
 * Tests for the timeline observability layer: the Perfetto/Chrome
 * trace-event recorder (sim/timeline.hh), stats sampled onto it as
 * counter tracks (Simulation::sampleStatsToTimeline), the host-time
 * event profiler in EventQueue, and the self-describing
 * Simulation::dumpStatsJson metadata header.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"

using namespace mcnsim::sim;

namespace {

/** Leave the process-wide timeline off and empty between tests. */
struct TimelineGuard
{
    TimelineGuard()
    {
        Timeline::instance().enable(false);
        Timeline::instance().clear();
    }
    ~TimelineGuard()
    {
        Timeline::instance().enable(false);
        Timeline::instance().clear();
        Timeline::instance().setCapacity(Timeline::defaultCapacity);
    }
};

/** A SimObject exposing the protected timeline helpers. */
struct Component : SimObject
{
    using SimObject::SimObject;

    void
    emitAll()
    {
        tlSpan("work", curTick(), curTick() + 100);
        tlCounter("depth", 3.0);
        tlInstant("kick");
    }
};

} // namespace

// ---------------------------------------------------------------------
// Timeline recorder
// ---------------------------------------------------------------------

TEST(Timeline, TrackForSplitsProcessAndThread)
{
    Timeline tl;
    auto a = tl.trackFor("host.mcndrv");
    auto b = tl.trackFor("host.mem.mc0");
    auto c = tl.trackFor("mcn0.eth0");
    auto d = tl.trackFor("tor");

    EXPECT_EQ(tl.tracks()[a].process, "host");
    EXPECT_EQ(tl.tracks()[a].thread, "host.mcndrv");
    EXPECT_EQ(tl.tracks()[b].process, "host");
    EXPECT_EQ(tl.tracks()[c].process, "mcn0");
    EXPECT_EQ(tl.tracks()[d].process, "tor");
    EXPECT_EQ(tl.tracks()[d].thread, "tor");

    // Same process -> same pid, distinct tids.
    EXPECT_EQ(tl.tracks()[a].pid, tl.tracks()[b].pid);
    EXPECT_NE(tl.tracks()[a].tid, tl.tracks()[b].tid);
    EXPECT_NE(tl.tracks()[a].pid, tl.tracks()[c].pid);

    // Idempotent registration.
    EXPECT_EQ(tl.trackFor("host.mcndrv"), a);
    EXPECT_EQ(tl.trackCount(), 4u);
}

TEST(Timeline, RecordsOnlyWhenEnabledAndClampsBackwardSpans)
{
    Timeline tl;
    auto t = tl.trackFor("host");

    tl.span(t, "ignored", 0, 10); // not enabled yet
    EXPECT_EQ(tl.eventCount(), 0u);

    tl.enable(true);
    tl.span(t, "s", 100, 250);
    tl.counter(t, "c", 120, 7.5);
    tl.instant(t, "i", 130);
    tl.span(t, "backwards", 500, 400); // clamped to zero length
    ASSERT_EQ(tl.eventCount(), 4u);
    EXPECT_EQ(tl.records()[3].end, tl.records()[3].start);

    tl.enable(false);
    tl.span(t, "late", 600, 700);
    EXPECT_EQ(tl.eventCount(), 4u);
}

TEST(Timeline, CapacityBoundDropsAndCounts)
{
    Timeline tl(3);
    tl.enable(true);
    auto t = tl.trackFor("host");
    for (Tick i = 0; i < 10; ++i)
        tl.instant(t, "e", i);
    EXPECT_EQ(tl.eventCount(), 3u);
    EXPECT_EQ(tl.dropped(), 7u);

    // Shrinking the bound truncates and counts the loss.
    tl.setCapacity(1);
    EXPECT_EQ(tl.eventCount(), 1u);
    EXPECT_EQ(tl.dropped(), 9u);

    tl.clear();
    EXPECT_EQ(tl.eventCount(), 0u);
    EXPECT_EQ(tl.dropped(), 0u);
    EXPECT_EQ(tl.trackCount(), 1u); // tracks survive clear()
}

TEST(Timeline, ExportIsValidChromeTraceJson)
{
    Timeline tl;
    tl.enable(true);
    auto drv = tl.trackFor("host.mcndrv");
    auto eth = tl.trackFor("mcn0.eth0");
    tl.span(drv, "poll", 2 * oneUs, 3 * oneUs);
    tl.span(drv, "drain", 5 * oneUs, 9 * oneUs);
    tl.counter(eth, "ring", 4 * oneUs, 1536.0);
    tl.instant(eth, "irq", 6 * oneUs);
    // Recorded out of tick order on purpose: export must sort.
    tl.span(eth, "copy", 1 * oneUs, 2 * oneUs);

    std::ostringstream os;
    tl.exportJson(os, {{"command", "unit-test"}});
    json::Value doc = json::parse(os.str());

    EXPECT_EQ(doc["otherData"]["command"].asString(), "unit-test");
    EXPECT_EQ(doc["otherData"]["dropped_events"].asNumber(), 0.0);

    const auto &evs = doc["traceEvents"].asArray();
    std::map<std::pair<double, double>, double> lastTs;
    std::size_t spans = 0, counters = 0, instants = 0, metas = 0;
    for (const auto &e : evs) {
        const std::string &ph = e["ph"].asString();
        if (ph == "M") {
            metas++;
            continue;
        }
        double ts = e["ts"].asNumber();
        EXPECT_GE(ts, 0.0);
        auto key = std::make_pair(e["pid"].asNumber(),
                                  e["tid"].asNumber());
        auto it = lastTs.find(key);
        if (it != lastTs.end()) {
            EXPECT_GE(ts, it->second) << "ts not monotone per thread";
        }
        lastTs[key] = ts;
        if (ph == "X") {
            spans++;
            EXPECT_GE(e["dur"].asNumber(), 0.0);
        } else if (ph == "C") {
            counters++;
            EXPECT_EQ(e["args"]["value"].asNumber(), 1536.0);
        } else if (ph == "i") {
            instants++;
            EXPECT_EQ(e["s"].asString(), "t");
        }
    }
    EXPECT_EQ(spans, 3u);
    EXPECT_EQ(counters, 1u);
    EXPECT_EQ(instants, 1u);
    // 2 processes + 2 threads named.
    EXPECT_EQ(metas, 4u);

    // ts is microseconds: the earliest span starts at 1 µs.
    for (const auto &e : evs) {
        if (e["ph"].asString() == "X" &&
            e["name"].asString() == "copy") {
            EXPECT_DOUBLE_EQ(e["ts"].asNumber(), 1.0);
        }
    }
}

TEST(Timeline, SimObjectHelpersRecordOnOwnTrack)
{
    TimelineGuard guard;
    Simulation s;
    Component comp(s, "node7.widget");

    EXPECT_FALSE(Timeline::active());
    comp.emitAll(); // gated off: nothing recorded
    EXPECT_EQ(Timeline::instance().eventCount(), 0u);

    Timeline::instance().enable(true);
    EXPECT_TRUE(Timeline::active());
    comp.emitAll();
    auto &tl = Timeline::instance();
    ASSERT_EQ(tl.eventCount(), 3u);
    const auto &track = tl.tracks()[tl.records()[0].track];
    EXPECT_EQ(track.process, "node7");
    EXPECT_EQ(track.thread, "node7.widget");
}

// ---------------------------------------------------------------------
// Sampled stats on the timeline
// ---------------------------------------------------------------------

namespace {

/** The timeline's counter records, in recording order. */
std::vector<Timeline::Record>
counterRecords()
{
    std::vector<Timeline::Record> out;
    for (const auto &r : Timeline::instance().records())
        if (r.phase == Timeline::Phase::Counter)
            out.push_back(r);
    return out;
}

} // namespace

TEST(Timeline, CounterNamesQualifiedByThread)
{
    // Trace-event counters are keyed by (pid, name): two components
    // of one process recording the same counter name must export
    // two distinct names, or Perfetto merges them into one track.
    Timeline tl;
    tl.enable(true);
    tl.counter(tl.trackFor("srv1.mcn0.iface"), "txRingBytes", 0, 1.0);
    tl.counter(tl.trackFor("srv1.mcn1.iface"), "txRingBytes", 0, 2.0);
    std::ostringstream os;
    tl.exportJson(os);
    json::Value doc = json::parse(os.str());

    std::map<std::string, double> byName;
    std::set<double> pids;
    for (const auto &e : doc["traceEvents"].asArray()) {
        if (e["ph"].asString() != "C")
            continue;
        byName[e["name"].asString()] = e["args"]["value"].asNumber();
        pids.insert(e["pid"].asNumber());
    }
    EXPECT_EQ(pids.size(), 1u);
    ASSERT_EQ(byName.size(), 2u);
    EXPECT_EQ(byName["srv1.mcn0.iface.txRingBytes"], 1.0);
    EXPECT_EQ(byName["srv1.mcn1.iface.txRingBytes"], 2.0);
}

TEST(TimelineStats, SamplesFloorRuntimeOverPeriodPlusOne)
{
    // Exact divisor and a ragged remainder: floor(T/P)+1 both ways,
    // at ticks 0, P, 2P, ...
    const Tick period = 10 * oneUs;
    for (Tick runtime : {100 * oneUs, 95 * oneUs, 9 * oneUs}) {
        TimelineGuard guard;
        Simulation s;
        Component comp(s, "node.dev");
        Scalar sent{"txBytes", "bytes sent"};
        comp.stats().add(&sent);
        Timeline::instance().enable(true);
        ASSERT_EQ(s.sampleStatsToTimeline(period, ""), 1u);
        s.run(runtime);

        auto recs = counterRecords();
        const std::size_t expect =
            static_cast<std::size_t>(runtime / period) + 1;
        ASSERT_EQ(recs.size(), expect) << "runtime " << runtime;
        for (std::size_t i = 0; i < recs.size(); ++i)
            EXPECT_EQ(recs[i].start, i * period);
    }
}

TEST(TimelineStats, FilterSamplesScalarsAndAveragesSkipsHistograms)
{
    TimelineGuard guard;
    Simulation s;
    Component comp(s, "nodeA.dev");
    Component other(s, "nodeB.dev");
    Scalar bytes{"txBytes", "bytes sent"};
    Average lat{"lat", "latency"};
    QueueStat depth{"depth", "not sampled"};
    Scalar otherBytes{"txBytes", "filtered out"};
    comp.stats().add(&bytes);
    comp.stats().add(&lat);
    comp.stats().add(&depth);
    other.stats().add(&otherBytes);

    // Nothing is sampled (or scheduled) while the timeline is off.
    EXPECT_EQ(s.sampleStatsToTimeline(oneUs, ""), 0u);
    EXPECT_TRUE(s.eventQueue().empty());

    Timeline::instance().enable(true);
    // Filter by qualified name; queue stats never match.
    EXPECT_EQ(s.sampleStatsToTimeline(oneUs, "nodeA.dev."), 2u);
    bytes += 1000;
    lat.sample(4.0);
    s.run(2 * oneUs);
    Timeline::instance().enable(false);

    // Two stats x three samples; the scalar is 0 at t0, 1000 after.
    auto recs = counterRecords();
    ASSERT_EQ(recs.size(), 6u);
    EXPECT_STREQ(recs[0].name, "txBytes");
    EXPECT_DOUBLE_EQ(recs[0].value, 0.0);
    EXPECT_DOUBLE_EQ(recs[4].value, 1000.0);
    EXPECT_STREQ(recs[5].name, "lat");
    EXPECT_DOUBLE_EQ(recs[5].value, 4.0);

    // Exported under the qualified "group.stat" name.
    std::ostringstream os;
    Timeline::instance().exportJson(os);
    json::Value doc = json::parse(os.str());
    std::set<std::string> names;
    for (const auto &e : doc["traceEvents"].asArray())
        if (e["ph"].asString() == "C")
            names.insert(e["name"].asString());
    EXPECT_EQ(names, (std::set<std::string>{"nodeA.dev.txBytes",
                                            "nodeA.dev.lat"}));
}

TEST(TimelineStats, ShardedSimulationRunsOnOneWorkerWhileSampling)
{
    // Sampling reads every shard's stats mid-run; ShardSet::run's
    // timeline clamp keeps a sharded run on one worker meanwhile.
    // The worker table has one row per pool thread that ran (rows
    // stay zero: profiling is off).
    auto workersUsed = [](bool sample) {
        TimelineGuard guard;
        Simulation s;
        s.enableSharding();
        Component a(s, "nodeA.dev");
        s.newShard();
        Scalar bytes{"txBytes", "bytes sent"};
        a.stats().add(&bytes);
        s.setThreads(4);
        if (sample) {
            Timeline::instance().enable(true);
            EXPECT_EQ(s.sampleStatsToTimeline(10 * oneUs, ""), 1u);
        }
        s.run(20 * oneUs);
        if (sample) {
            EXPECT_EQ(counterRecords().size(), 3u);
        }
        return s.shardSet()->workerTimes().size();
    };
    EXPECT_EQ(workersUsed(false), 2u); // two shards: two workers
    EXPECT_EQ(workersUsed(true), 1u);
}

TEST(TimelineStats, SampledTimelineByteIdenticalAcrossWorkerCounts)
{
    // The timeline, sampled stats included, is modeled output:
    // --threads=2/4 (one worker while recording, shard structure
    // intact) must export byte-for-byte what --threads=1 exports.
    auto run = [](unsigned threads) {
        TimelineGuard guard;
        Simulation s(3);
        s.enableSharding();
        s.setThreads(threads);
        mcnsim::core::ClusterSystemParams p;
        p.numNodes = 3;
        mcnsim::core::ClusterSystem sys(s, p);
        Timeline::instance().enable(true);
        EXPECT_GT(s.sampleStatsToTimeline(50 * oneUs, ""), 0u);
        runIperf(s, sys, 0, {1, 2}, oneMs);
        Timeline::instance().enable(false);
        EXPECT_EQ(Timeline::instance().dropped(), 0u);
        std::ostringstream os;
        Timeline::instance().exportJson(os, {{"command", "unit-test"}});
        return os.str();
    };
    std::string t1 = run(1);
    EXPECT_NE(t1.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_EQ(t1, run(2));
    EXPECT_EQ(t1, run(4));
}

// ---------------------------------------------------------------------
// Host-time event profiler
// ---------------------------------------------------------------------

TEST(EventProfiler, CountsMatchScriptedSequence)
{
    EventQueue q;
    q.setProfiling(true);

    int fired = 0;
    for (Tick t = 1; t <= 3; ++t)
        q.schedule([&fired] { fired++; }, t * oneNs, "alpha");
    for (Tick t = 4; t <= 5; ++t)
        q.schedule([&fired] { fired++; }, t * oneNs, "beta");
    q.run();
    EXPECT_EQ(fired, 5);

    auto rows = q.profileEntries();
    ASSERT_EQ(rows.size(), 2u);
    std::map<std::string, std::uint64_t> counts;
    for (const auto &r : rows)
        counts[r.name] = r.count;
    EXPECT_EQ(counts["alpha"], 3u);
    EXPECT_EQ(counts["beta"], 2u);
    // Sorted by accumulated host time, descending.
    EXPECT_GE(rows[0].hostNs, rows[1].hostNs);

    q.resetProfile();
    EXPECT_TRUE(q.profileEntries().empty());
}

TEST(EventProfiler, DisabledByDefaultAndTogglable)
{
    EventQueue q;
    EXPECT_FALSE(q.profilingEnabled());
    q.schedule([] {}, oneNs, "quiet");
    q.run();
    EXPECT_TRUE(q.profileEntries().empty());

    q.setProfiling(true);
    q.schedule([] {}, 2 * oneNs, "loud");
    q.run();
    auto rows = q.profileEntries();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_STREQ(rows[0].name, "loud");
    EXPECT_EQ(rows[0].count, 1u);
}

TEST(EventProfiler, ManagedEventNameSurvivesRecycling)
{
    // The pooled slot's name is reset on recycle; the profiler must
    // key on the pre-dispatch pointer, never "pool-free".
    EventQueue q;
    q.setProfiling(true);
    for (int i = 0; i < 50; ++i)
        q.schedule([] {}, static_cast<Tick>(i + 1), "recycled");
    q.run();
    auto rows = q.profileEntries();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_STREQ(rows[0].name, "recycled");
    EXPECT_EQ(rows[0].count, 50u);
}

// ---------------------------------------------------------------------
// Self-describing stats dump
// ---------------------------------------------------------------------

TEST(StatsDump, SimulationDumpCarriesRunMetadata)
{
    Simulation s(1234);
    s.setMetadata("preset", "unit");
    s.eventQueue().setProfiling(true);
    s.eventQueue().schedule([] {}, 3 * oneUs, "meta-evt");
    s.run(5 * oneUs);

    std::ostringstream os;
    s.dumpStatsJson(os);
    json::Value doc = json::parse(os.str());

    EXPECT_EQ(doc["schema_version"].asNumber(), 3.0);
    EXPECT_EQ(doc["meta"]["seed"].asNumber(), 1234.0);
    EXPECT_EQ(doc["meta"]["sim_ticks"].asNumber(),
              static_cast<double>(5 * oneUs));
    EXPECT_EQ(doc["meta"]["events_processed"].asNumber(), 1.0);
    EXPECT_GE(doc["meta"]["wall_seconds"].asNumber(), 0.0);
    EXPECT_EQ(doc["meta"]["preset"].asString(), "unit");
    EXPECT_TRUE(doc["groups"].isArray());

    const auto &prof = doc["event_profile"].asArray();
    ASSERT_EQ(prof.size(), 1u);
    EXPECT_EQ(prof[0]["name"].asString(), "meta-evt");
    EXPECT_EQ(prof[0]["count"].asNumber(), 1.0);

    // The registry-level dump keeps its v1 shape for old tooling.
    std::ostringstream v1;
    s.statRegistry().dumpJson(v1);
    EXPECT_EQ(json::parse(v1.str())["schema_version"].asNumber(),
              1.0);
}
