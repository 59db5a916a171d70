/**
 * @file
 * Conservative parallel discrete-event simulation (PDES): shard a
 * Simulation into per-node EventQueues and run them on a thread
 * pool, bounded by a lookahead derived from the smallest
 * inter-shard link latency (the dist-gem5 synchronization scheme
 * the paper's own evaluation used).
 *
 * Model (see DESIGN.md §9 for the full determinism argument):
 *
 *  - Every shard is one EventQueue plus the components built inside
 *    its Simulation::ShardScope. Components interact freely within
 *    a shard (same queue, same thread during a window).
 *  - Time advances in windows. Each window starts from the global
 *    horizon h = the earliest pending event anywhere, counting mail
 *    still in flight; every shard then executes its events with
 *    tick < h + L in parallel, where L is the lookahead: the
 *    smallest latency of any registered inter-shard edge (addEdge).
 *    Events a shard creates for itself are unrestricted; events
 *    crossing shards must land at or beyond the current window end,
 *    which the physical link latency guarantees.
 *  - A window costs one barrier. Before it, each worker publishes
 *    its horizon contribution -- the earliest event on the shards
 *    it owns and the earliest message it posted -- in its own slot;
 *    after it, every worker reduces the slots itself and arrives at
 *    the same window end. Slots alternate by window parity, so a
 *    fast worker's next contribution never overwrites one a slow
 *    worker is still reading.
 *  - Cross-shard events travel as mailbox messages, not direct
 *    schedule() calls. Each (destination, writing worker) pair has
 *    a single-writer inbox, again one per window parity: posts of
 *    window k go to the parity-k inbox, and during window k+1 the
 *    destination's owner merges them -- sorted by the deterministic
 *    key (tick, priority, srcShard, seq) -- before running the
 *    shard. The merge order is therefore a pure function of
 *    simulation state, never of thread scheduling, which is why an
 *    N-thread run is byte-identical to a 1-thread run.
 *  - run() ends when the horizon passes its bound. The last
 *    window's mail is merged on the way out and one exit latch
 *    holds the workers until every inbox is empty, so the next
 *    run() slice starts with all pending work in the queues.
 *
 * Usage (normally driven by Simulation, not directly):
 *
 *   ShardSet set;
 *   set.addQueue(&q0); set.addQueue(&q1);
 *   set.addEdge(0, 1, linkLatency);       // lookahead source
 *   set.post(0, 1, when, prio, "wire", fn);   // cross-shard event
 *   set.run(until, threads);              // window loop
 *
 * post() outside run() degrades to a plain (single-threaded)
 * schedule on the destination queue, so system wiring and
 * between-run setup need no special casing. post() *inside* a
 * window enforces the lookahead contract unconditionally (every
 * build, not just checked): a message below the current window end
 * panics, because the destination shard may already have advanced
 * past that tick.
 */

#ifndef MCNSIM_SIM_SHARD_HH
#define MCNSIM_SIM_SHARD_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/barrier.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

/** A set of EventQueue shards co-simulated under one clock. */
class ShardSet
{
  public:
    ShardSet() = default;
    ~ShardSet();

    ShardSet(const ShardSet &) = delete;
    ShardSet &operator=(const ShardSet &) = delete;

    /** Register @p q as the next shard (index = registration
     *  order). All queues must be added before the first run(). */
    void addQueue(EventQueue *q);

    std::size_t shardCount() const { return queues_.size(); }

    EventQueue &queue(std::size_t i) { return *queues_[i]; }

    /**
     * Declare an inter-shard communication edge with the given
     * minimum latency (a wire's propagation delay). The lookahead
     * is the minimum over all edges; builders call this once per
     * link that crosses shards.
     */
    void addEdge(std::size_t a, std::size_t b, Tick latency);

    /** Conservative lookahead: min edge latency (maxTick when the
     *  shards share no edges and may free-run independently). */
    Tick lookahead() const { return lookahead_; }

    /**
     * Deliver a cross-shard event: run @p fn at @p when on shard
     * @p dst. Inside a run the message is mailboxed and merged
     * into @p dst's queue at the start of the next window (at the
     * latest when run() returns); @p when must be at or beyond the
     * current window end (guaranteed by any edge latency >= the
     * lookahead) or this panics. Outside a run it schedules
     * directly. @p name must outlive the event (literal/interned).
     */
    void post(std::size_t src, std::size_t dst, Tick when,
              EventPriority prio, const char *name,
              Callback<void()> fn);

    /**
     * Run every shard up to @p until (inclusive, like
     * EventQueue::run) using at most @p workers threads. The
     * logical schedule -- window boundaries, merge orders, per-queue
     * event order -- depends only on queue state, never on
     * @p workers, so any thread count produces byte-identical
     * results. Observability that assumes a single thread (trace
     * flags, timeline) clamps execution to one worker; results are
     * unchanged for the same reason.
     */
    Tick run(Tick until, unsigned workers);

    /** True while run() is executing (posts must mailbox). */
    bool running() const { return running_; }

    /** Windows executed since construction. Like every window
     *  boundary, the count is the same for any worker count. */
    std::uint64_t windowsRun() const { return windows_; }

    /** Host time one worker spent, summed over every profiled run:
     *  busy (merging mail, running shards, publishing its horizon)
     *  versus waiting at the barrier. */
    struct WorkerTime
    {
        std::uint64_t busyNs = 0;
        std::uint64_t waitNs = 0;
    };

    /** Time each worker's busy and barrier-wait spans in later
     *  runs (host time: for --profile, never for modeled output). */
    void setProfiling(bool on) { profiling_ = on; }

    /** Per-worker host time, one row per pool thread. */
    std::vector<WorkerTime> workerTimes() const;

  private:
    /** One mailboxed cross-shard event. */
    struct Msg
    {
        Tick when;
        EventPriority prio;
        std::uint32_t srcShard;
        /** Position in its inbox. A source's posts all go to the
         *  same inbox in posting order, so (srcShard, seq) orders
         *  them exactly like a per-source counter would. */
        std::uint64_t seq;
        const char *name;
        Callback<void()> fn;
    };

    /** Mail for one destination from one writing worker, by window
     *  parity. Written only by that worker during window k (parity
     *  k), drained only by the destination's owner in window k+1.
     *  Cache-line aligned so two writers never share a line. */
    struct alignas(64) Inbox
    {
        std::vector<Msg> msgs[2];
    };

    /** A worker's horizon contribution for one window parity: the
     *  earliest pending tick it knows of, and whether it caught an
     *  exception. Written by its worker before the barrier, read by
     *  every worker after it. */
    struct alignas(64) Slot
    {
        Tick next = maxTick;
        bool failed = false;
    };

    /** State only its own worker touches during a run. */
    struct alignas(64) Worker
    {
        unsigned parity = 0;       ///< parity of the running window
        Tick windowEnd = 0;        ///< end of the running window
        Tick postMin = maxTick;    ///< earliest post this window
        bool failed = false;
        std::exception_ptr error;
        std::vector<Msg> scratch;  ///< merge buffer
        WorkerTime time;
    };

    void startThreads(unsigned workers);
    void workerMain(unsigned idx);
    void windowLoop(unsigned w);
    void drainInbox(std::size_t dst, unsigned parity,
                    std::vector<Msg> &scratch);
    Tick windowEndFor(Tick horizon) const;

    std::vector<EventQueue *> queues_;
    /** inbox_[dst * assignWorkers_ + writer]; empty between runs,
     *  so run() may re-lay it out when the worker count changes. */
    std::vector<Inbox> inbox_;
    /** slots_[parity * barrier count + worker]. */
    std::vector<Slot> slots_;
    /** One per barrier participant. */
    std::vector<Worker> workers_;
    Tick lookahead_ = maxTick;

    // Thread pool (lazily started by the first multi-worker run).
    std::vector<std::thread> threads_;
    std::unique_ptr<SpinBarrier> barrier_;
    unsigned startedWorkers_ = 0; ///< barrier participants; 0 = none
    std::mutex m_;
    std::condition_variable cv_;
    std::uint64_t runGen_ = 0;
    bool shutdown_ = false;

    // Per-run state, written by the caller before the workers are
    // released and read-only while they run.
    Tick until_ = 0;
    unsigned assignWorkers_ = 1; ///< workers owning shards this run
    bool running_ = false;
    bool profiling_ = false;
    std::uint64_t windows_ = 0; ///< written by worker 0 only
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_SHARD_HH
