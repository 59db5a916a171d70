/**
 * @file
 * Re-armable deadline timers, one managed event per armed timer.
 *
 * A Timer is embedded in its owner (a TcpSocket). Arming schedules
 * a pooled callback event at the deadline; re-arming an armed timer
 * deschedules that event and schedules a new one, so the timer
 * moves. Because each arm is one plain EventQueue::schedule(), it
 * draws its within-tick sequence number at the call site: same-tick
 * timers fire in arm order, and a timer armed between two other
 * schedule() calls fires between them.
 *
 * The callback lives in the Timer, not in the event, and is dropped
 * on cancel and on fire (its captures -- typically a keep-alive
 * shared_ptr to the owner -- must not outlive the arm). The event
 * itself captures only the Timer's address.
 *
 * Teardown: a TimerList keeps its armed timers on an intrusive list.
 * Destroying the list with timers still armed disarms each of them
 * (descheduling its event and dropping its callback). Dropping a
 * callback may destroy the owner, whose destructor re-enters
 * cancel() for other timers; a timer whose list is gone is idle, so
 * that cancel() is a no-op.
 */

#ifndef MCNSIM_SIM_TIMER_HH
#define MCNSIM_SIM_TIMER_HH

#include <cstddef>
#include <cstdint>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

class TimerList;

/** One deadline timer, embedded in its owning object. */
class Timer
{
  public:
    Timer() = default;
    ~Timer() { cancel(); }

    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    /** True while waiting to fire. */
    bool armed() const { return list_ != nullptr; }

    /** Disarm; drops the callback and its captures. No-op when
     *  idle, safe after the owning list is gone. */
    void cancel();

  private:
    friend class TimerList;

    TimerList *list_ = nullptr;
    Timer *prev_ = nullptr;
    Timer *next_ = nullptr;
    Event *ev_ = nullptr; ///< managed event; dead once disarmed
    Callback<void()> fn_;
};

/** The armed timers of one owner (a TcpLayer) on one EventQueue. */
class TimerList
{
  public:
    /** @p name labels each timer's event in traces and profiles. */
    TimerList(EventQueue &q, const char *name) : q_(q), name_(name) {}
    ~TimerList();

    TimerList(const TimerList &) = delete;
    TimerList &operator=(const TimerList &) = delete;

    /**
     * Arm @p t to invoke @p fn at absolute tick @p deadline
     * (>= the queue's current tick). Re-arming an armed timer moves
     * it (the old deadline and callback are dropped).
     */
    void arm(Timer &t, Tick deadline, Callback<void()> fn);

    /** Disarm @p t (no-op when idle). */
    void cancel(Timer &t);

    /** Timers currently armed. */
    std::size_t armedCount() const { return armedCount_; }

    /** Earliest armed deadline, maxTick when none. */
    Tick nextDeadline() const;

    /** Timers fired since construction. */
    std::uint64_t fires() const { return fires_; }

  private:
    /** Take @p t off the list and out of the queue; returns its
     *  callback so the caller destroys it with the list settled. */
    Callback<void()> disarm(Timer &t);
    void fire(Timer &t);

    EventQueue &q_;
    const char *name_;
    Timer *head_ = nullptr;
    std::size_t armedCount_ = 0;
    std::uint64_t fires_ = 0;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_TIMER_HH
