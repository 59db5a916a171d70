/**
 * @file
 * Core implementation.
 */

#include "cpu/core.hh"

#include "sim/simulation.hh"

namespace mcnsim::cpu {

Core::Core(sim::Simulation &s, std::string name,
           const sim::ClockDomain &clock, Backlog *backlog)
    : sim::SimObject(s, std::move(name)), clock_(clock),
      backlog_(backlog ? backlog : &ownBacklog_)
{
    regStat(&statSlots_);
    regStat(&statBusy_);
    regStat(&statIrqSlots_);
}

void
Core::execute(Cycles cycles, sim::Callback<void(Tick)> done, bool irq)
{
    if (irq)
        statIrqSlots_ += 1;
    if (!running_ && queue_.empty()) {
        // An idle core starts at once: the callback skips the ring.
        start(cycles, std::move(done));
        return;
    }
    backlog_->queued += clock_.cyclesToTicks(cycles);
    if (irq)
        queue_.push_front(Slot{cycles, std::move(done)});
    else
        queue_.push_back(Slot{cycles, std::move(done)});
    if (!running_)
        startNext();
}

void
Core::startNext()
{
    if (queue_.empty())
        return;
    Slot &slot = queue_.front();
    backlog_->queued -= clock_.cyclesToTicks(slot.cycles);
    start(slot.cycles, std::move(slot.done));
    queue_.pop_front();
}

void
Core::start(Cycles cycles, sim::Callback<void(Tick)> &&done)
{
    running_ = true;
    statSlots_ += 1;
    Tick duration = clock_.cyclesToTicks(cycles);
    busyTicks_ += duration;
    statBusy_ += static_cast<double>(duration);
    backlog_->endsAt = curTick() + duration;

    runningDone_ = std::move(done);
    eventQueue().schedule(&slotEvent_, backlog_->endsAt);
}

void
Core::finishCurrent()
{
    Tick now = curTick();
    running_ = false;
    // Moved out first: the callback may start the next slot, which
    // takes over runningDone_.
    sim::Callback<void(Tick)> done = std::move(runningDone_);
    if (done)
        done(now);
    // The callback may have issued new work that is already
    // running; only pull the next queued slot if still idle.
    if (!running_ && !queue_.empty())
        startNext();
}

} // namespace mcnsim::cpu
