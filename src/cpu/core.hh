/**
 * @file
 * Core: a CPU core as a non-preemptive FIFO execution resource.
 *
 * mcnsim does not interpret instructions; software work (a TCP
 * send path, a driver poll, an application compute phase) is charged
 * to a core as a cycle count. The core serialises charges, tracks
 * busy time for utilisation/energy accounting, and wakes the
 * requester when its slot completes. Interrupt-priority work is
 * queued ahead of ordinary work but does not preempt the slot in
 * progress, which is a fair model at the microsecond scales the
 * paper's latency numbers live at.
 *
 * Hot path: a charge allocates nothing once the slot ring is warm.
 * The caller's completion is a sim::Callback, whose capture of up to
 * 56 B is held inline; the running slot's callback sits in a member
 * and its completion is one embedded MemberEvent, and run() is a
 * plain awaiter rather than a coroutine of its own, so
 * `co_await core.run(n)` adds no frame.
 *
 * The two ticks CpuCluster::leastLoaded() reads on every charge sit
 * in a Backlog record, which a cluster's cores keep side by side in
 * one array, so a pick scans 16 B per core rather than following a
 * pointer into each core object.
 */

#ifndef MCNSIM_CPU_CORE_HH
#define MCNSIM_CPU_CORE_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>

#include "sim/callback.hh"
#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/ring_deque.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mcnsim::cpu {

using sim::Cycles;
using sim::Tick;

/** A core's backlog: when its queued and running work clears. */
struct Backlog
{
    /// End tick of the running slot, or of the last slot run, which
    /// is at or before now whenever the core is not running.
    Tick endsAt = 0;
    /// Sum of cyclesToTicks() over the queued (not running) slots.
    Tick queued = 0;

    /** Tick at which all the work clears, given the current tick. */
    Tick clearsAt(Tick now) const { return std::max(endsAt, now) + queued; }
};

/** One CPU core. */
class Core : public sim::SimObject
{
  public:
    /** @p backlog is where the core keeps its Backlog: a slot in its
     *  cluster's array. Null keeps it in the core itself, for a
     *  standalone core outside any cluster (as in unit tests). */
    Core(sim::Simulation &s, std::string name,
         const sim::ClockDomain &clock, Backlog *backlog = nullptr);

    /**
     * Charge @p cycles of work; @p done fires with the completion
     * tick. @p irq work jumps the queue (but not the current slot).
     */
    void execute(Cycles cycles, sim::Callback<void(Tick)> done,
                 bool irq = false);

    /** Awaitable returned by run(). */
    struct RunAwaiter
    {
        Core &core;
        Cycles cycles;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            core.execute(cycles, [h](Tick) { h.resume(); });
        }

        void await_resume() {}
    };

    /** Coroutine-friendly charge: `co_await core.run(n)` resumes
     *  when the slot completes. */
    [[nodiscard]] RunAwaiter run(Cycles cycles)
    {
        return RunAwaiter{*this, cycles};
    }

    /** Tick at which all queued work completes. */
    Tick backlogClearsAt() const { return backlogClearsAt(curTick()); }

    /** As above, given the current tick @p now. */
    Tick backlogClearsAt(Tick now) const { return backlog_->clearsAt(now); }

    /** True when the core has no queued or running work. */
    bool idle() const { return !running_ && queue_.empty(); }

    /** Total ticks the core has spent busy (for energy). */
    Tick busyTicks() const { return busyTicks_; }

    const sim::ClockDomain &clock() const { return clock_; }

  private:
    struct Slot
    {
        Cycles cycles;
        sim::Callback<void(Tick)> done;
    };

    void startNext();
    /** Run a slot of @p cycles now; @p done fires at its end. */
    void start(Cycles cycles, sim::Callback<void(Tick)> &&done);
    /** slotEvent_'s handler: the running slot completed. */
    void finishCurrent();

    const sim::ClockDomain &clock_;
    sim::RingDeque<Slot> queue_;
    /** The running slot's callback. */
    sim::Callback<void(Tick)> runningDone_;
    sim::MemberEvent<Core> slotEvent_{"core.slot", this,
                                      &Core::finishCurrent};
    bool running_ = false;
    Tick busyTicks_ = 0;
    /// The backlog of a standalone core, built with no cluster slot
    /// (only unit tests do); unused in a cluster.
    Backlog ownBacklog_;
    /// Kept current on every charge, start and pop, so a pick never
    /// walks the slot deque.
    Backlog *backlog_;

    sim::Scalar statSlots_{"slots", "work slots executed"};
    sim::Scalar statBusy_{"busyTicks", "ticks spent busy"};
    sim::Scalar statIrqSlots_{"irqSlots", "interrupt-priority slots"};
};

} // namespace mcnsim::cpu

#endif // MCNSIM_CPU_CORE_HH
