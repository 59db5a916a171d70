/**
 * @file
 * Core implementation.
 */

#include "cpu/core.hh"

#include <algorithm>

#include "sim/simulation.hh"

namespace mcnsim::cpu {

Core::Core(sim::Simulation &s, std::string name,
           const sim::ClockDomain &clock)
    : sim::SimObject(s, std::move(name)), clock_(clock)
{
    regStat(&statSlots_);
    regStat(&statBusy_);
    regStat(&statIrqSlots_);
}

void
Core::execute(Cycles cycles, std::function<void(Tick)> done, bool irq)
{
    Slot slot{cycles, std::move(done)};
    queuedTicks_ += clock_.cyclesToTicks(cycles);
    if (irq) {
        statIrqSlots_ += 1;
        queue_.push_front(std::move(slot));
    } else {
        queue_.push_back(std::move(slot));
    }
    if (!running_)
        startNext();
}

Tick
Core::backlogClearsAt() const
{
    Tick at = running_ ? currentEndsAt_ : curTick();
    return at + queuedTicks_;
}

double
Core::utilisation(Tick since) const
{
    Tick window = curTick() - since;
    if (window == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(busyTicks_) /
                             static_cast<double>(window));
}

void
Core::startNext()
{
    if (queue_.empty())
        return;
    Slot slot = std::move(queue_.front());
    queue_.pop_front();

    running_ = true;
    statSlots_ += 1;
    Tick duration = clock_.cyclesToTicks(slot.cycles);
    queuedTicks_ -= duration;
    busyTicks_ += duration;
    statBusy_ += static_cast<double>(duration);
    currentEndsAt_ = curTick() + duration;

    runningDone_ = std::move(slot.done);
    eventQueue().schedule(&slotEvent_, currentEndsAt_);
}

void
Core::finishCurrent()
{
    Tick now = curTick();
    running_ = false;
    // Moved out first: the callback may start the next slot, which
    // takes over runningDone_.
    std::function<void(Tick)> done = std::move(runningDone_);
    if (done)
        done(now);
    // The callback may have issued new work that is already
    // running; only pull the next queued slot if still idle.
    if (!running_ && !queue_.empty())
        startNext();
}

} // namespace mcnsim::cpu
