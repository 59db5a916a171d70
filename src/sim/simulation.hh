/**
 * @file
 * Simulation: owns the event queue, the stat registry, the RNG and
 * the startup/run lifecycle for one simulated system.
 *
 * Usage:
 *
 *   sim::Simulation s;                 // seed defaults to 1
 *   core::McnSystem sys(s, params);    // components self-register
 *   s.run(10 * sim::oneMs);            // startup() hooks fire once
 *   s.dumpStats(std::cout);            // gem5-style text dump
 *   s.dumpStatsJson(out);              // machine-readable dump
 *
 * Parallel runs (see sim/shard.hh and DESIGN.md §9): a builder may
 * partition the system into shards, each with its own event queue:
 *
 *   s.enableSharding();
 *   auto node = s.newShard();
 *   {
 *       Simulation::ShardScope scope(s, node);
 *       // components constructed here live on shard `node`
 *   }
 *   s.addShardEdge(0, node, linkLatency);  // lookahead source
 *   s.setThreads(4);
 *   s.run(until);               // windowed parallel execution
 *
 * Results are byte-identical for every thread count; when sharding
 * is never enabled, run() is exactly the classic single-queue loop.
 *
 * Many Simulations may coexist in one process; nothing here is
 * global.
 */

#ifndef MCNSIM_SIM_SIMULATION_HH
#define MCNSIM_SIM_SIMULATION_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

class SimObject;

/**
 * One independent simulated system. Components register themselves
 * on construction; run() fires startup() hooks once, then executes
 * events.
 */
class Simulation
{
  public:
    explicit Simulation(std::uint64_t seed = 1);

    EventQueue &eventQueue() { return queue_; }
    Tick curTick() const { return queue_.curTick(); }
    StatRegistry &statRegistry() { return statRegistry_; }
    Rng &rng() { return rng_; }

    /** Run until @p until (absolute tick) or queue exhaustion. */
    Tick run(Tick until = maxTick);

    /** Run for @p delta more ticks. */
    Tick runFor(Tick delta) { return run(curTick() + delta); }

    /** Dump all registered statistics as text. */
    void
    dumpStats(std::ostream &os)
    {
        prepareStatsDump();
        statRegistry_.dump(os);
    }

    /**
     * Dump all registered statistics as one JSON document,
     * self-describing: a "meta" header (seed, sim ticks, events
     * processed, wall-clock seconds, on a sharded run the window
     * count and mean events per window, plus any setMetadata()
     * pairs such as the preset name), the stat "groups", and -- when the
     * event queue's profiler is enabled -- an "event_profile" array
     * of {name, count, host_ns} rows sorted by host time.
     * schema_version 2; version 1 (groups only) remains available
     * via StatRegistry::dumpJson.
     */
    void dumpStatsJson(std::ostream &os);

    /** RNG seed this simulation was constructed with. */
    std::uint64_t seed() const { return seed_; }

    /** Attach a key/value pair to the stats-dump "meta" header
     *  (e.g. preset name, CLI command). Later pairs append. */
    void
    setMetadata(std::string key, std::string value)
    {
        metadata_.emplace_back(std::move(key), std::move(value));
    }

    const std::vector<std::pair<std::string, std::string>> &
    metadata() const
    {
        return metadata_;
    }

    /** Host wall-clock seconds since construction. */
    double wallSeconds() const;

    // Sharding (parallel simulation; see sim/shard.hh) -------------

    /**
     * Scopes component construction to a shard: every SimObject
     * built while a ShardScope is live caches that shard's event
     * queue. Builders wrap each node's construction in one.
     */
    class ShardScope
    {
      public:
        ShardScope(Simulation &s, std::size_t shard)
            : sim_(s), prev_(s.constructionShard_)
        {
            sim_.constructionShard_ = shard;
        }
        ~ShardScope() { sim_.constructionShard_ = prev_; }

        ShardScope(const ShardScope &) = delete;
        ShardScope &operator=(const ShardScope &) = delete;

      private:
        Simulation &sim_;
        std::size_t prev_;
    };

    /**
     * Opt this simulation into sharded execution (call before any
     * shard-aware components are built). The primary queue becomes
     * shard 0; newShard() adds more. Without this call, newShard()
     * degrades to shard 0 and run() is the classic serial loop.
     */
    void enableSharding();
    bool shardingEnabled() const { return shards_ != nullptr; }

    /** Create a new shard (its own event queue) and return its
     *  index. Returns 0 when sharding is not enabled. */
    std::size_t newShard();

    /** Number of shards (1 when unsharded). */
    std::size_t
    shardCount() const
    {
        return shards_ ? shards_->shardCount() : 1;
    }

    /** Event queue of shard @p i (0 = the primary queue). */
    EventQueue &
    shardQueue(std::size_t i)
    {
        return i == 0 ? queue_ : *extraQueues_[i - 1];
    }

    /**
     * Queue new SimObjects bind to. Objects created while an event
     * is dispatching (lazy timers, runtime-spawned helpers) belong
     * to the shard that is executing them -- another shard's worker
     * may be running concurrently, so the build-time ShardScope
     * cannot be trusted mid-run. Outside dispatch, the active
     * ShardScope (or shard 0) decides.
     */
    EventQueue &
    constructionQueue()
    {
        if (EventQueue *q = EventQueue::current())
            return *q;
        return shardQueue(constructionShard_);
    }

    std::size_t
    constructionShard() const
    {
        if (EventQueue *q = EventQueue::current())
            return q->shardIndex();
        return constructionShard_;
    }

    /** Register an inter-shard wire; its latency bounds the
     *  conservative lookahead. No-op when unsharded. */
    void addShardEdge(std::size_t a, std::size_t b, Tick latency);

    /** Minimum inter-shard edge latency (the lookahead); maxTick
     *  when unsharded or no edges are registered. */
    Tick
    shardLookahead() const
    {
        return shards_ ? shards_->lookahead() : maxTick;
    }

    /**
     * Deliver a cross-shard event through the deterministic mailbox
     * (see ShardSet::post). Falls back to a direct schedule when
     * sharding is off.
     */
    void postCrossShard(std::size_t src, std::size_t dst, Tick when,
                        EventPriority prio, const char *name,
                        Callback<void()> fn);

    /** Worker threads used by sharded run() (default 1). Clamped to
     *  the shard count; ignored when unsharded. */
    void setThreads(unsigned n) { threads_ = n ? n : 1; }
    unsigned threads() const { return threads_; }

    /** Events processed across every shard queue. */
    std::uint64_t eventsProcessed() const;

    /**
     * Fold per-shard counters into the registered stats (calls every
     * object's syncStats()). dumpStats/dumpStatsJson call this;
     * mid-run snapshots (sampleStatsToTimeline) do too.
     */
    void prepareStatsDump();

    /**
     * Record every registry Scalar (its value) and Average (its
     * mean) whose qualified "group.stat" name contains @p filter
     * (empty = all; queue stats are skipped -- a time-weighted
     * level and a peak are not one number) as a timeline counter
     * on its group's track: now, then every @p period while
     * Timeline::active(). Sampling is one
     * managed event at StatsDump priority, so a sample sees
     * everything else scheduled for its tick applied; a run of
     * length T yields floor(T/period)+1 samples per stat. Returns
     * how many stats are sampled; schedules nothing while the
     * timeline is off or no stat matches. Call after the system is
     * built.
     */
    std::size_t sampleStatsToTimeline(Tick period,
                                      const std::string &filter);

    /** The shard set, for tests; null when unsharded. */
    ShardSet *shardSet() { return shards_.get(); }

  private:
    friend class SimObject;
    void registerObject(SimObject *obj) { objects_.push_back(obj); }

    EventQueue queue_;
    StatRegistry statRegistry_;
    Rng rng_;
    std::vector<SimObject *> objects_;
    std::vector<std::pair<std::string, std::string>> metadata_;
    /** Queues of shards 1..N-1 (shard 0 is queue_). unique_ptrs so
     *  queue addresses stay stable as shards are added. */
    std::vector<std::unique_ptr<EventQueue>> extraQueues_;
    std::unique_ptr<ShardSet> shards_;
    std::size_t constructionShard_ = 0;
    unsigned threads_ = 1;
    std::uint64_t seed_;
    std::chrono::steady_clock::time_point created_ =
        std::chrono::steady_clock::now();
    bool started_ = false;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_SIMULATION_HH
