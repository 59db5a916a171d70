/**
 * @file
 * Deferred kernel work: tasklets and softirq scheduling. The MCN
 * polling agent (Sec. IV-A) schedules its poll function as a
 * tasklet so it stays interruptible; the NIC's NAPI receive path
 * also runs here.
 */

#ifndef MCNSIM_OS_SOFTIRQ_HH
#define MCNSIM_OS_SOFTIRQ_HH

#include "cpu/cpu_cluster.hh"
#include "sim/callback.hh"
#include "sim/ring_deque.hh"
#include "sim/sim_object.hh"

namespace mcnsim::os {

/** Per-node softirq/tasklet engine. */
class SoftirqEngine : public sim::SimObject
{
  public:
    using Fn = sim::Callback<void()>;

    SoftirqEngine(sim::Simulation &s, std::string name,
                  cpu::CpuCluster &cpus);

    /**
     * Schedule @p fn to run in softirq context: after the schedule
     * + dispatch cost on a core. Tasklets of the same engine never
     * run concurrently (serialised on the dispatch queue).
     */
    void schedule(Fn fn);

    std::uint64_t executed() const
    {
        return static_cast<std::uint64_t>(statRun_.value());
    }

  private:
    void drain();
    /** The running tasklet's dispatch cost was paid: run it. */
    void runCurrent();

    cpu::CpuCluster &cpus_;
    sim::RingDeque<Fn> queue_;
    /** The running tasklet, parked while its cost is charged. */
    Fn running_;
    bool draining_ = false;

    sim::Scalar statRun_{"taskletsRun", "tasklets executed"};
};

} // namespace mcnsim::os

#endif // MCNSIM_OS_SOFTIRQ_HH
