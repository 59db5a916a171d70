/**
 * @file
 * CpuCluster: a node's set of cores sharing one clock domain, with
 * simple least-loaded dispatch for unpinned work (standing in for
 * the OS scheduler + IRQ balancing).
 */

#ifndef MCNSIM_CPU_CPU_CLUSTER_HH
#define MCNSIM_CPU_CPU_CLUSTER_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "cpu/cost_model.hh"
#include "sim/clock_domain.hh"
#include "sim/sim_object.hh"

namespace mcnsim::cpu {

/** A homogeneous group of cores. Their Backlog records live in one
 *  array here, which leastLoaded() scans on every unpinned charge. */
class CpuCluster : public sim::SimObject
{
  public:
    CpuCluster(sim::Simulation &s, std::string name,
               std::uint32_t cores, double freq_hz,
               CostModel costs = {});

    std::uint32_t coreCount() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    Core &core(std::uint32_t i) { return *cores_[i]; }

    /** The core whose backlog clears soonest; the lowest-index one
     *  on a tie. Returns at the first core that clears now: no core
     *  clears earlier. */
    Core &leastLoaded();

    /** Charge unpinned work on the least-loaded core. */
    void
    execute(Cycles cycles, sim::Callback<void(sim::Tick)> done,
            bool irq = false)
    {
        leastLoaded().execute(cycles, std::move(done), irq);
    }

    const CostModel &costs() const { return costs_; }
    CostModel &costs() { return costs_; }

    const sim::ClockDomain &clock() const { return clock_; }

    /** Sum of per-core busy ticks (for energy accounting). */
    sim::Tick totalBusyTicks() const;

  private:
    sim::ClockDomain clock_;
    CostModel costs_;
    /// backlogs_[i] is cores_[i]'s; sized once, so never moves.
    std::vector<Backlog> backlogs_;
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace mcnsim::cpu

#endif // MCNSIM_CPU_CPU_CLUSTER_HH
