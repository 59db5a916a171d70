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
 */

#ifndef MCNSIM_CPU_CORE_HH
#define MCNSIM_CPU_CORE_HH

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

/** One CPU core. */
class Core : public sim::SimObject
{
  public:
    Core(sim::Simulation &s, std::string name,
         const sim::ClockDomain &clock);

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
    Tick
    backlogClearsAt(Tick now) const
    {
        return (running_ ? currentEndsAt_ : now) + queuedTicks_;
    }

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
    Tick currentEndsAt_ = 0;
    Tick busyTicks_ = 0;
    /// Sum of cyclesToTicks() over queue_: backlogClearsAt() is on
    /// the per-segment CPU-charge path (CpuCluster::leastLoaded scans
    /// the cores), so it must not walk the slot deque.
    Tick queuedTicks_ = 0;

    sim::Scalar statSlots_{"slots", "work slots executed"};
    sim::Scalar statBusy_{"busyTicks", "ticks spent busy"};
    sim::Scalar statIrqSlots_{"irqSlots", "interrupt-priority slots"};
};

} // namespace mcnsim::cpu

#endif // MCNSIM_CPU_CORE_HH
