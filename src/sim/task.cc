/**
 * @file
 * Task machinery implementation: detached launch, condition wakeups
 * and task groups.
 */

#include "sim/task.hh"

namespace mcnsim::sim {

void
spawnDetached(EventQueue &q, Task<void> task)
{
    auto h = task.release();
    if (!h)
        return;
    h.promise().detached = true;
    h.promise().reaper = &q;
    q.registerDetachedFrame(h, h.promise().reaperSlot);
    q.scheduleIn([h] { h.resume(); }, 0, "task-spawn",
                 EventPriority::Process);
}

void
Condition::wake(std::coroutine_handle<> h)
{
    q_.scheduleIn([h] { h.resume(); }, 0, "cv-notify",
                  EventPriority::Process);
}

void
Condition::notifyAll()
{
    // Waiters resume from the queue, never inline, so none can
    // wait() again before the list is cleared: a re-wait lands in
    // the next round.
    if (!first_)
        return;
    wake(std::exchange(first_, nullptr));
    for (auto h : spill_)
        wake(h);
    spill_.clear(); // keeps the capacity
}

void
Condition::notifyOne()
{
    if (!first_)
        return;
    wake(std::exchange(first_, nullptr));
    if (!spill_.empty()) {
        first_ = spill_.front();
        spill_.erase(spill_.begin());
    }
}

void
TaskGroup::spawn(Task<void> t)
{
    live_++;
    spawned_++;
    spawnDetached(q_, wrap(std::move(t)));
}

Task<void>
TaskGroup::wrap(Task<void> t)
{
    co_await std::move(t);
    if (--live_ == 0)
        done_.notifyAll();
}

} // namespace mcnsim::sim
