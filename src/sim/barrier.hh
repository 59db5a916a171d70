/**
 * @file
 * SpinBarrier: the synchronization point between parallel-simulation
 * windows (see sim/shard.hh and DESIGN.md §9).
 *
 * The window loop crosses it once per window -- after every worker
 * has published its horizon contribution -- and once more as the
 * exit latch of a run. A window is a handful of microseconds of
 * host work, so the barrier must cost less than a condition
 * variable's syscall round trip. This one is a classic
 * generation-counting (sense-reversing) barrier: the last arriver
 * bumps the generation and wakes the rest, waiters spin briefly on
 * the generation word and then fall back to C++20 atomic wait so an
 * oversubscribed host does not burn cores.
 *
 * Usage:
 *
 *   sim::SpinBarrier bar(workers);
 *   // on every worker thread, once per window:
 *   bar.arriveAndWait();
 *
 * The barrier provides acquire/release ordering: every write made
 * before arriveAndWait() is visible to every thread after it
 * returns. That ordering is what lets the window loop keep its
 * shared state (horizon slots, parity inboxes) as plain members,
 * each written by one worker and read by others only after the
 * next crossing.
 */

#ifndef MCNSIM_SIM_BARRIER_HH
#define MCNSIM_SIM_BARRIER_HH

#include <atomic>
#include <cstdint>

namespace mcnsim::sim {

/** Generation-counting barrier for a fixed set of threads. */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned count) : count_(count) {}

    SpinBarrier(const SpinBarrier &) = delete;
    SpinBarrier &operator=(const SpinBarrier &) = delete;

    /** Number of participating threads. */
    unsigned count() const { return count_; }

    /**
     * Block until all count() threads have arrived. The last
     * arriver releases the rest; the generation counter makes the
     * barrier immediately reusable for the next window.
     */
    void
    arriveAndWait()
    {
        if (count_ <= 1)
            return;
        const std::uint64_t gen = gen_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            count_) {
            arrived_.store(0, std::memory_order_relaxed);
            gen_.fetch_add(1, std::memory_order_release);
            gen_.notify_all();
            return;
        }
        // Spin a little first: windows are short, and the futex round
        // trip of atomic wait usually costs more than the remaining
        // window time. Fall back to wait() so an oversubscribed or
        // descheduled sibling cannot pin a core.
        for (int i = 0; i < spinRounds; ++i) {
            if (gen_.load(std::memory_order_acquire) != gen)
                return;
        }
        while (gen_.load(std::memory_order_acquire) == gen)
            gen_.wait(gen, std::memory_order_acquire);
    }

  private:
    static constexpr int spinRounds = 4096;

    unsigned count_;
    std::atomic<unsigned> arrived_{0};
    std::atomic<std::uint64_t> gen_{0};
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_BARRIER_HH
