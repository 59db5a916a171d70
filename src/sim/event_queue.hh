/**
 * @file
 * The discrete-event engine at the heart of mcnsim.
 *
 * Modeled loosely on gem5's event queue: events are scheduled at an
 * absolute tick, the queue pops them in (tick, priority, sequence)
 * order, and simulated objects advance time only by scheduling more
 * events. A single EventQueue drives one simulation instance; there
 * is deliberately no global queue so tests can run many independent
 * simulations in one process.
 *
 * Usage:
 *
 *   EventQueue q;
 *   q.schedule([&] { fire(); }, q.curTick() + 100, "my-event");
 *   q.run();                      // drain everything
 *   q.run(10 * oneUs);            // or: advance to a time limit
 *
 * Hot-path design notes (see DESIGN.md "Hot paths & buffer
 * ownership"):
 *
 *  - Managed callback events come from a slab-allocated free list
 *    owned by the queue, and each slot holds its callable inline
 *    (a Callback<void()>): schedule(fn, ...) performs no heap
 *    allocation once the pool is warm, for captures up to
 *    Callback::inlineBytes.
 *  - Event names are non-owning `const char *`s. Pass a string
 *    literal on the fast path; a std::string name is interned once
 *    into a process-lifetime pool, so Event never owns (or copies)
 *    name storage.
 *  - The pending set is a radix heap on the tick plus one front
 *    slot. Relative to `last` (the tick of the latest refill), an
 *    entry at or before `last` sits in a small (tick, key) min-heap,
 *    `now`; a later one sits in bucket b, where b is the highest bit
 *    in which its tick differs from `last`. Every entry of bucket b
 *    precedes every entry of bucket b + 1, so when `now` runs dry
 *    the lowest non-empty bucket is redistributed around its own
 *    minimum tick, and each entry moves down at most 64 times in
 *    its life instead of sifting through a heap of thousands on
 *    every pop. Buckets are lists of fixed-size chunks from one
 *    free list the queue owns.
 *  - The front slot holds an entry (when present) that comes before
 *    every other pending entry. A handler that schedules the next
 *    event to run (an MCN poll, a driver's core slot) fills the
 *    slot, and popAndRun() takes it back, so a chain of such events
 *    never touches the radix heap. Keys are unique and `now` is
 *    ordered on (tick, key), so the pop order is that total order.
 *  - deschedule() is lazy: the pending entry is left behind and
 *    skipped (by sequence-number mismatch or a cleared scheduled
 *    flag) when popped. The queue counts stale entries and compacts
 *    the pending set when they outnumber live ones, so a frequently
 *    rescheduled periodic timer cannot bloat it.
 *
 * Lifetime rules for managed (pooled) events: the Event* returned by
 * schedule(fn, ...) is valid only while the event is scheduled. After
 * it fires, or after you deschedule() it, the pointer is dead -- the
 * pool may recycle the object for an unrelated schedule. Callers that
 * keep the pointer must null it in the callback (see
 * MemController::runScheduler for the canonical pattern). The checked
 * build (-DMCNSIM_CHECKED=ON) enforces this rule: recycled slots are
 * poisoned and generation-counted, and any schedule()/deschedule()/
 * dispatch of a dead managed Event* panics with the event's last
 * live name plus the flight-recorder ring.
 *
 * Lifetime rules for caller-owned events (CallbackEvent/MemberEvent
 * by value): destroying one while it still has entries in a queue --
 * scheduled, or descheduled but not yet compacted away -- implicitly
 * detaches it (~Event scrubs the queue), so tearing down a component
 * before its Simulation is safe. The queue itself must simply
 * outlive the simulation's components, which Simulation guarantees.
 *
 * Enable the "Event" debug flag (MCNSIM_DEBUG=Event) to trace every
 * dispatch with its name and priority.
 */

#ifndef MCNSIM_SIM_EVENT_QUEUE_HH
#define MCNSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/callback.hh"
#include "sim/checked.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

class EventQueue;

/**
 * Intern @p name into a process-lifetime string pool, returning a
 * stable pointer. Used by the Event constructors that accept
 * std::string so event objects never own name storage.
 */
const char *internEventName(const std::string &name);

/**
 * Priority of an event relative to other events scheduled at the same
 * tick. Lower values run first, matching gem5 conventions.
 */
enum class EventPriority : int {
    ClockTick = -10,     ///< clock/bandwidth slot bookkeeping
    HardwareIrq = -5,    ///< device interrupt delivery
    Default = 0,
    Softirq = 5,         ///< deferred kernel work
    Process = 10,        ///< user task wakeups
    StatsDump = 100,
};

/**
 * A schedulable unit of work. Events are one-shot: after process()
 * runs they may be re-scheduled by their owner. The queue never owns
 * the event memory; most users should prefer MemberEvent or
 * EventQueue::schedule(callback) which manage lifetime for them.
 *
 * The name is a non-owning pointer: pass a string literal (free), or
 * a std::string (interned once into a process-lifetime pool).
 */
class Event
{
  public:
    explicit Event(const char *name,
                   EventPriority prio = EventPriority::Default)
        : name_(name), priority_(prio)
    {}

    explicit Event(const std::string &name,
                   EventPriority prio = EventPriority::Default)
        : Event(internEventName(name), prio)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event's tick is reached. */
    virtual void process() = 0;

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick the event is (or was last) scheduled for. */
    Tick when() const { return when_; }

    const char *name() const { return name_; }
    EventPriority priority() const { return priority_; }

#ifdef MCNSIM_CHECKED
    /** Checked build only: recycle count of this pool slot. */
    std::uint32_t generation() const { return gen_; }

    /** Checked build only: name the slot carried while last live. */
    const char *lastLiveName() const { return lastName_; }

    /** Checked build only: true while a managed slot sits on the
     *  free list (using the pointer now is a lifetime bug). */
    bool poisoned() const { return poisoned_; }
#endif

  protected:
    const char *name_;
    EventPriority priority_;

  private:
    friend class EventQueue;

    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    /** Queue this event last scheduled on; lets ~Event scrub any
     *  entries still referencing it (see the lifetime rules in the
     *  file comment). */
    EventQueue *queue_ = nullptr;
    /** Pending entries referencing this event that are stale (lazily
     *  descheduled or superseded by reschedule). Non-zero means the
     *  queue still holds pointers to us. */
    std::uint32_t staleRefs_ = 0;
    bool scheduled_ = false;
    bool managed_ = false; ///< queue-owned; recycled after process()
#ifdef MCNSIM_CHECKED
    std::uint32_t gen_ = 0;      ///< bumped on every pool recycle
    bool poisoned_ = false;      ///< free-listed managed slot
    const char *lastName_ = "never-armed";
#endif
};

/** An event wrapping an arbitrary callback. */
class CallbackEvent : public Event
{
  public:
    template <typename F>
    CallbackEvent(const char *name, F &&fn,
                  EventPriority prio = EventPriority::Default)
        : Event(name, prio)
    {
        fn_.emplace(std::forward<F>(fn));
    }

    template <typename F>
    CallbackEvent(const std::string &name, F &&fn,
                  EventPriority prio = EventPriority::Default)
        : Event(name, prio)
    {
        fn_.emplace(std::forward<F>(fn));
    }

    void process() override { fn_(); }

  private:
    friend class EventQueue;

    /** Pool slot constructor; armed by EventQueue::schedule(). */
    CallbackEvent() : Event("pool-free") {}

    /** Built in place in the slot, and never moved: slots never
     *  move. */
    Callback<void()> fn_;
};

/**
 * An event calling a member function on an owner object. The owner
 * embeds the event by value, so lifetime is tied to the owner --
 * the usual pattern for periodic device events.
 */
template <typename T>
class MemberEvent : public Event
{
  public:
    MemberEvent(const char *name, T *obj, void (T::*fn)(),
                EventPriority prio = EventPriority::Default)
        : Event(name, prio), obj_(obj), fn_(fn)
    {}

    MemberEvent(const std::string &name, T *obj, void (T::*fn)(),
                EventPriority prio = EventPriority::Default)
        : Event(name, prio), obj_(obj), fn_(fn)
    {}

    void process() override { (obj_->*fn_)(); }

  private:
    T *obj_;
    void (T::*fn_)();
};

/**
 * The event queue and simulated clock. run() executes events in
 * order until the queue drains or a limit is hit.
 */
class EventQueue
{
  public:
    explicit EventQueue(std::string name = "main");
    ~EventQueue();

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /**
     * Remove a pending event; no-op if not scheduled. Lazy: the
     * pending entry is left behind and skipped when popped (or reclaimed by
     * compaction). For a managed event the pointer is dead after
     * this call.
     */
    void deschedule(Event *ev);

    /** Remove and re-insert at a new tick. */
    void reschedule(Event *ev, Tick when);

    /**
     * Convenience: schedule a pooled callback event that the queue
     * recycles after it fires. Returns the event so callers can
     * deschedule it; see the lifetime rules in the file comment.
     * @p name must be a string literal (or otherwise outlive the
     * event); use the std::string overload for dynamic names.
     *
     * Templated so the callback is constructed straight into the
     * pooled slot's Callback, with no intermediate type-erased
     * moves on the hot path.
     */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    Event *
    schedule(F &&fn, Tick when, const char *name = "lambda",
             EventPriority prio = EventPriority::Default)
    {
        CallbackEvent *ev = acquireSlot();
        ev->name_ = name;
        ev->priority_ = prio;
        ev->fn_.emplace(std::forward<F>(fn));
        ev->managed_ = true;
        schedule(ev, when);
        return ev;
    }

    /** As above with a dynamic name (interned, slower). */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    Event *
    schedule(F &&fn, Tick when, const std::string &name,
             EventPriority prio = EventPriority::Default)
    {
        return schedule(std::forward<F>(fn), when,
                        internEventName(name), prio);
    }

    /** Schedule a managed callback @p delta ticks from now. */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    Event *
    scheduleIn(F &&fn, Tick delta, const char *name = "lambda",
               EventPriority prio = EventPriority::Default)
    {
        return schedule(std::forward<F>(fn), curTick_ + delta, name,
                        prio);
    }

    /** As above with a dynamic name (interned, slower). */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    Event *
    scheduleIn(F &&fn, Tick delta, const std::string &name,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(std::forward<F>(fn), curTick_ + delta,
                        internEventName(name), prio);
    }

    /** True when no live events are pending. */
    bool empty() const { return internalEntries() == staleEntries_; }

    /** Number of live (not lazily-descheduled) pending events. */
    std::size_t
    pendingEvents() const
    {
        return internalEntries() - staleEntries_;
    }

    /**
     * Run until the queue is empty or curTick would exceed
     * @p until. Returns the tick at which execution stopped.
     */
    Tick run(Tick until = maxTick);

    /** Run at most @p n events. Returns events actually executed. */
    std::uint64_t runEvents(std::uint64_t n);

    // Parallel-simulation hooks (see sim/shard.hh, DESIGN.md §9) ----

    /**
     * Tick of the earliest live pending event, maxTick when none.
     * Prunes stale (lazily-descheduled) heads on the way --
     * exactly the entries run() would skip, so the pruning is
     * deterministic.
     */
    Tick nextEventTick();

    /**
     * Execute every event with tick < @p endExclusive -- one
     * conservative-lookahead window. Unlike run() this never
     * fast-forwards curTick past the last executed event; the
     * ShardSet advances clocks once the whole run completes.
     */
    void runWindow(Tick endExclusive);

    /** Fast-forward the clock. ShardSet-only: @p t must not move
     *  time backwards or jump over a pending event. */
    void setCurTick(Tick t);

    /** Index of this queue's shard within its ShardSet; 0 when the
     *  simulation is unsharded. */
    std::size_t shardIndex() const { return shardIndex_; }
    void setShardIndex(std::size_t i) { shardIndex_ = i; }

    /**
     * The queue dispatching an event on the *current thread*, or
     * nullptr outside dispatch. The checked build uses this to
     * enforce the cross-shard lifetime rule: while a queue is
     * executing, scheduling onto a *different* queue is racy (the
     * other shard may be running concurrently) and must go through
     * the Simulation::postCrossShard mailbox instead.
     */
    static EventQueue *current() { return currentQueue_; }

    /** Total events processed since construction. */
    std::uint64_t eventsProcessed() const { return processed_; }

    const std::string &name() const { return name_; }

    // Detached coroutine frames ---------------------------------------
    //
    // spawnDetached() hands ownership of a top-level coroutine frame
    // to "nobody": the frame frees itself on completion. A frame
    // still suspended when the simulation ends (an iperf client
    // blocked on a socket, an MPI rank waiting on a mailbox) would
    // leak -- LeakSanitizer flags every such run. The queue therefore
    // keeps a registry of live detached frames; completion removes
    // the entry, and ~EventQueue destroys whatever is left, which
    // transitively destroys awaited child frames (owned by parent
    // frame locals) and their captured resources.

    /** Track a detached frame until it completes or is reaped.
     *  @p slot (in the frame's promise) receives the frame's
     *  registry index and is kept current as other frames leave. */
    void registerDetachedFrame(std::coroutine_handle<> h,
                               std::size_t &slot);

    /** Remove the completed frame registered at @p slot (no
     *  destroy). O(1): the last frame moves into its place. */
    void forgetDetachedFrame(std::size_t slot);

    /** Detached frames spawned but not yet finished or reaped. */
    std::size_t detachedFramesLive() const
    {
        return detachedFrames_.size();
    }

    /** Destroy every live detached frame (teardown; also called by
     *  the destructor before the pending set is dropped). */
    void destroyDetachedFrames();

    // Introspection for tests and diagnostics ------------------------

    /** Pending entries (front slot, `now` and buckets) including
     *  stale (lazily-descheduled) ones. */
    std::size_t
    internalEntries() const
    {
        return now_.size() + bucketed_ + (hasFront_ ? 1 : 0);
    }

    /** Stale entries awaiting pop or compaction. */
    std::size_t staleEntries() const { return staleEntries_; }

    /** Pooled callback events ever carved from the slabs. */
    std::size_t poolCarved() const { return poolCarved_; }

    /** Pooled events currently live (scheduled or mid-dispatch);
     *  zero after a full drain means no pooled-event leaks. */
    std::size_t
    poolOutstanding() const
    {
        return poolCarved_ - freeList_.size();
    }

    // Host-time event profiler ---------------------------------------
    //
    // When enabled, every dispatch is timed with the host's
    // steady_clock and accumulated per event name. Names are
    // non-owning interned/literal pointers, so aggregation is a
    // pointer-keyed hash map -- no string hashing on the dispatch
    // path. The disabled cost is one predictable branch in
    // popAndRun() (same budget as the flight-recorder gate).

    /** One row of the host-time profile (see profileEntries()). */
    struct ProfileEntry
    {
        const char *name;      ///< interned/literal event name
        std::uint64_t count;   ///< dispatches observed
        std::uint64_t hostNs;  ///< accumulated host wall time
    };

    /** Turn per-event-name host-time profiling on or off. */
    void setProfiling(bool on) { profiling_ = on; }
    bool profilingEnabled() const { return profiling_; }

    /** Drop all accumulated profile rows. */
    void resetProfile() { profile_.clear(); }

    /** Profile rows sorted by accumulated host time, descending. */
    std::vector<ProfileEntry> profileEntries() const;

  private:
    /** Sequence numbers occupy the low 48 bits of an Entry key (the
     *  biased priority sits above them), so one 64-bit compare
     *  orders (priority, seq). 2^48 schedules is ~years of simulated
     *  workload; schedule() asserts against overflow. */
    static constexpr int seqBits = 48;
    static constexpr std::uint64_t seqMask =
        (std::uint64_t{1} << seqBits) - 1;
    static constexpr std::int64_t prioBias = std::int64_t{1} << 15;

    struct Entry
    {
        Tick when;
        std::uint64_t key; ///< (prio + prioBias) << seqBits | seq
        Event *ev;

        std::uint64_t seq() const { return key & seqMask; }

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return key > o.key;
        }
    };

    static std::uint64_t
    entryKey(const Event *ev)
    {
        auto prio = static_cast<std::int64_t>(ev->priority_);
        return (static_cast<std::uint64_t>(prio + prioBias)
                << seqBits) |
               ev->seq_;
    }

    /** Comparator making the std heap algorithms build `now` as a
     *  min-heap. A functor type (not a function pointer) so the heap
     *  algorithms inline the comparison. */
    struct EntryAfter
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a > b;
        }
    };

    friend class Event;

    /** RAII marker for current(): saves and restores the previous
     *  thread-local queue so nested drives (a test running a second
     *  simulation from inside an event) stay balanced. */
    struct CurrentScope
    {
        explicit CurrentScope(EventQueue *q) : prev(currentQueue_)
        {
            currentQueue_ = q;
        }
        ~CurrentScope() { currentQueue_ = prev; }
        EventQueue *prev;
    };

    /** A bucket's entries in fixed-size chunks; the head chunk is
     *  the one being filled. Chunks come from (and go back to) the
     *  queue's chunk free list. */
    struct Chunk
    {
        static constexpr std::uint32_t capacity = 16;
        Entry e[capacity];
        std::uint32_t n = 0;
        Chunk *next = nullptr;
    };

    /** Bucket b holds the entries whose highest bit that differs
     *  from last_ is bit b. */
    struct Bucket
    {
        Chunk *head = nullptr;
        Tick min = maxTick; ///< smallest tick held
    };

    /** The earliest pending entry, live or stale; null when none
     *  is pending. Refills `now` from the buckets when it is dry. */
    const Entry *
    earliest()
    {
        if (hasFront_)
            return &front_;
        if (now_.empty()) {
            if (!occupied_)
                return nullptr;
            refill();
        }
        return &now_.front();
    }

    /** Put @p e into `now` or its bucket (not the front slot). */
    void push(const Entry &e);
    /** Redistribute the lowest non-empty bucket around its minimum
     *  tick, which becomes last_; precondition: `now` is empty. */
    void refill();
    Chunk *takeChunk();

    /** Call @p f on every entry in `now` and the buckets, in place. */
    template <typename F>
    void
    forEachPending(F &&f)
    {
        for (Entry &e : now_)
            f(e);
        for (Bucket &b : buckets_)
            for (Chunk *c = b.head; c; c = c->next)
                for (std::uint32_t i = 0; i < c->n; ++i)
                    f(c->e[i]);
    }

    void popAndRun();
    void dispatchProfiled(Event *ev);
    void compact();
    CallbackEvent *acquireSlot();
    void recycle(CallbackEvent *ev);

    /** Null out every pending entry referencing @p ev: called by
     *  ~Event when the event dies with entries still pending, so the
     *  queue never dereferences a destroyed event. */
    void forgetDead(Event *ev);

    /** Compact when stale entries exceed this count and outnumber
     *  live ones (the latter keeps compaction amortized-O(1)). */
    static constexpr std::size_t staleCompactMin = 64;

    /** Pooled events are carved from fixed-size slabs so the pool
     *  grows without relocating live events. */
    static constexpr std::size_t slabEvents = 64;

    /** Bucket chunks are carved this many at a time: small, as
     *  every shard queue carves its own. */
    static constexpr std::size_t slabChunks = 8;

    /** Capacity `now` starts with, so that a warm run's same-tick
     *  batches do not grow it. */
    static constexpr std::size_t nowReserve = 32;

    // analyze-ok: shard-static (thread_local dispatch context: each
    // worker reads/writes only its own copy, and a worker's copy always
    // names the shard queue it is executing -- pure function of the
    // schedule, not of thread interleaving)
    static thread_local EventQueue *currentQueue_;

    std::string name_;
    Tick curTick_ = 0;
    std::size_t shardIndex_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t staleEntries_ = 0;
    std::size_t poolCarved_ = 0;
    bool profiling_ = false;
    /** True inside ~EventQueue: deschedule() calls re-entered from
     *  destructors triggered by the drain (an event lambda dropping
     *  the last ref to a socket) must not compact the pending set
     *  mid-walk or trip the checked lifetime detectors. */
    bool draining_ = false;
    /** The front slot: when hasFront_, an entry that comes before
     *  every entry in now_ and the buckets. */
    Entry front_{};
    bool hasFront_ = false;
    /** Radix heap: now_ (a min-heap on (tick, key)) holds the
     *  entries at or before last_, buckets_ the later ones. */
    Tick last_ = 0;
    std::vector<Entry> now_;
    std::array<Bucket, 64> buckets_{};
    std::uint64_t occupied_ = 0; ///< bit b: buckets_[b] non-empty
    std::size_t bucketed_ = 0;   ///< entries in buckets_
    Chunk *freeChunks_ = nullptr;
    std::vector<std::unique_ptr<Chunk[]>> chunkSlabs_;
    struct DetachedFrame
    {
        std::coroutine_handle<> h;
        std::size_t *slot; ///< the frame's own copy of its index
    };
    std::vector<DetachedFrame> detachedFrames_;
    std::vector<CallbackEvent *> freeList_;
    std::vector<std::unique_ptr<CallbackEvent[]>> slabs_;
    /** name pointer -> (dispatch count, accumulated host ns). */
    std::unordered_map<const char *,
                       std::pair<std::uint64_t, std::uint64_t>>
        profile_;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_EVENT_QUEUE_HH
