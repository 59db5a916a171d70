/**
 * @file
 * Simulation lifecycle implementation.
 */

#include "sim/simulation.hh"

#include "sim/flow_stats.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/timeline.hh"

namespace mcnsim::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed), seed_(seed)
{}

void
Simulation::enableSharding()
{
    if (shards_)
        return;
    MCNSIM_ASSERT(objects_.empty(),
                  "enableSharding() after components were built");
    shards_ = std::make_unique<ShardSet>();
    shards_->addQueue(&queue_);
}

std::size_t
Simulation::newShard()
{
    if (!shards_)
        return 0;
    extraQueues_.push_back(std::make_unique<EventQueue>(
        "shard" + std::to_string(extraQueues_.size() + 1)));
    shards_->addQueue(extraQueues_.back().get());
    return shards_->shardCount() - 1;
}

void
Simulation::addShardEdge(std::size_t a, std::size_t b, Tick latency)
{
    if (shards_ && a != b)
        shards_->addEdge(a, b, latency);
}

void
Simulation::postCrossShard(std::size_t src, std::size_t dst,
                           Tick when, EventPriority prio,
                           const char *name,
                           Callback<void()> fn)
{
    if (shards_) {
        shards_->post(src, dst, when, prio, name, std::move(fn));
        return;
    }
    queue_.schedule(std::move(fn), when, name, prio);
}

std::uint64_t
Simulation::eventsProcessed() const
{
    std::uint64_t total = queue_.eventsProcessed();
    for (const auto &q : extraQueues_)
        total += q->eventsProcessed();
    return total;
}

void
Simulation::prepareStatsDump()
{
    for (std::size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->syncStats();
}

namespace {

/** One stat sampled onto the timeline: exactly one of scalar and
 *  average is set. */
struct SampledStat
{
    Timeline::TrackId track;
    const char *name; ///< interned once, at setup
    const Scalar *scalar;
    const Average *average;
};

using SampledStats = std::shared_ptr<const std::vector<SampledStat>>;

void
sampleAndRearm(Simulation &sim, Tick period, SampledStats stats)
{
    if (!Timeline::active())
        return;
    // Fold shard-local counters (split-link deltas, see DESIGN.md
    // §9) into the registry before reading it. Reading every shard's
    // objects mid-run is race-free because ShardSet::run runs one
    // worker while the timeline records.
    sim.prepareStatsDump();
    auto &tl = Timeline::instance();
    const Tick now = sim.curTick();
    for (const SampledStat &s : *stats)
        tl.counter(s.track, s.name, now,
                   s.scalar ? s.scalar->value() : s.average->mean());
    sim.eventQueue().scheduleIn(
        [&sim, period, stats] { sampleAndRearm(sim, period, stats); },
        period, "stat-sample", EventPriority::StatsDump);
}

} // namespace

std::size_t
Simulation::sampleStatsToTimeline(Tick period, const std::string &filter)
{
    MCNSIM_ASSERT(period > 0, "sampling period must be nonzero");
    if (!Timeline::active())
        return 0;
    auto stats = std::make_shared<std::vector<SampledStat>>();
    for (const StatGroup *g : statRegistry_.groups()) {
        for (const StatBase *s : g->stats()) {
            if (!filter.empty() &&
                (g->name() + "." + s->name()).find(filter) ==
                    std::string::npos)
                continue;
            auto *sc = dynamic_cast<const Scalar *>(s);
            auto *av = dynamic_cast<const Average *>(s);
            if (!sc && !av)
                continue;
            auto track = Timeline::instance().trackFor(g->name());
            stats->push_back(SampledStat{
                track, internEventName(s->name()), sc, av});
        }
    }
    const std::size_t count = stats->size();
    if (count)
        sampleAndRearm(*this, period, std::move(stats));
    return count;
}

Tick
Simulation::run(Tick until)
{
    if (!started_) {
        started_ = true;
        // startup() hooks may construct more objects; index loop.
        // Hooks run before any event dispatches, so scope each one
        // to its object's shard: children built inside a hook must
        // inherit the parent's shard, not whatever scope the
        // builders last left.
        for (std::size_t i = 0; i < objects_.size(); ++i) {
            ShardScope scope(*this, objects_[i]->shardId());
            objects_[i]->startup();
        }
    }
    if (shards_ && shards_->shardCount() > 1)
        return shards_->run(until, threads_);
    return queue_.run(until);
}

double
Simulation::wallSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - created_)
        .count();
}

void
Simulation::dumpStatsJson(std::ostream &os)
{
    prepareStatsDump();
    json::Writer w(os);
    w.beginObject();
    // v3: adds "flows" / "path_latency" blocks (present only when
    // flow telemetry is active) and "queue"-typed stats.
    w.kv("schema_version", std::uint64_t{3});
    w.key("meta");
    w.beginObject();
    w.kv("seed", seed_);
    w.kv("sim_ticks", curTick());
    w.kv("sim_seconds", ticksToSeconds(curTick()));
    w.kv("events_processed", eventsProcessed());
    w.kv("wall_seconds", wallSeconds());
    if (shards_ && shards_->shardCount() > 1) {
        // Window boundaries are simulation state, so both numbers
        // are the same for every worker count.
        const std::uint64_t windows = shards_->windowsRun();
        w.kv("windows", windows);
        w.kv("events_per_window",
             windows ? static_cast<double>(eventsProcessed()) /
                           static_cast<double>(windows)
                     : 0.0);
    }
    for (const auto &[k, v] : metadata_)
        w.kv(k, v);
    w.endObject();
    statRegistry_.writeGroups(w);
    if (FlowTelemetry::active() || FlowTelemetry::instance().hasData())
        FlowTelemetry::instance().writeJsonBlocks(w);
    if (queue_.profilingEnabled()) {
        w.key("event_profile");
        w.beginArray();
        for (const auto &row : queue_.profileEntries()) {
            w.beginObject();
            w.kv("name", row.name);
            w.kv("count", row.count);
            w.kv("host_ns", row.hostNs);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    os << "\n";
}

} // namespace mcnsim::sim
