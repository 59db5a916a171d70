/**
 * @file
 * Timer and TimerList implementation. See the header for the
 * ordering and teardown contracts.
 */

#include "sim/timer.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace mcnsim::sim {

void
Timer::cancel()
{
    if (list_)
        list_->cancel(*this);
}

TimerList::~TimerList()
{
    // disarm() returns the callback as a temporary that dies after
    // the list is settled: dropping it may release the last
    // reference to an owner whose destructor cancels other timers.
    while (head_)
        disarm(*head_);
}

Callback<void()>
TimerList::disarm(Timer &t)
{
    if (t.prev_)
        t.prev_->next_ = t.next_;
    else
        head_ = t.next_;
    if (t.next_)
        t.next_->prev_ = t.prev_;
    t.prev_ = t.next_ = nullptr;
    t.list_ = nullptr;
    armedCount_--;
    if (t.ev_)
        q_.deschedule(t.ev_);
    t.ev_ = nullptr;
    return std::exchange(t.fn_, nullptr);
}

void
TimerList::arm(Timer &t, Tick deadline, Callback<void()> fn)
{
    MCNSIM_ASSERT(t.list_ == this || t.list_ == nullptr,
                  "timer is armed on a different list");
    // The old callback dies after the timer is re-armed.
    Callback<void()> old;
    if (t.list_)
        old = disarm(t);
    // The event captures only the timer: while it is scheduled the
    // timer is armed on this list, and every path that disarms it
    // (cancel, re-arm, ~TimerList) deschedules the event first.
    t.ev_ = q_.schedule([&t] { t.list_->fire(t); }, deadline,
                        name_);
    t.fn_ = std::move(fn);
    t.list_ = this;
    t.next_ = head_;
    if (head_)
        head_->prev_ = &t;
    head_ = &t;
    armedCount_++;
}

void
TimerList::cancel(Timer &t)
{
    if (t.list_ == this)
        disarm(t); // the callback dies with the list settled
}

Tick
TimerList::nextDeadline() const
{
    Tick next = maxTick;
    for (const Timer *t = head_; t; t = t->next_)
        next = std::min(next, t->ev_->when());
    return next;
}

void
TimerList::fire(Timer &t)
{
    // The event is mid-dispatch, so it must not be descheduled.
    t.ev_ = nullptr;
    Callback<void()> fn = disarm(t);
    fires_++;
    fn();
}

} // namespace mcnsim::sim
