/**
 * @file
 * CpuCluster implementation.
 */

#include "cpu/cpu_cluster.hh"

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::cpu {

CpuCluster::CpuCluster(sim::Simulation &s, std::string name,
                       std::uint32_t cores, double freq_hz,
                       CostModel costs)
    : sim::SimObject(s, std::move(name)),
      clock_(this->name() + ".clk", freq_hz), costs_(costs),
      backlogs_(cores)
{
    if (cores == 0)
        sim::fatal(this->name(), ": need at least one core");
    for (std::uint32_t i = 0; i < cores; ++i)
        cores_.push_back(std::make_unique<Core>(
            s, this->name() + ".core" + std::to_string(i), clock_,
            &backlogs_[i]));
}

Core &
CpuCluster::leastLoaded()
{
    // The tick is read once for the whole scan; the strict compare
    // keeps the lowest-index core on a tie. Every backlog clears at
    // or after now, so the first that clears now is the argmin.
    const sim::Tick now = curTick();
    std::size_t best = 0;
    sim::Tick best_at = sim::maxTick;
    for (std::size_t i = 0; i < backlogs_.size(); ++i) {
        const sim::Tick at = backlogs_[i].clearsAt(now);
        if (at == now)
            return *cores_[i];
        if (at < best_at) {
            best = i;
            best_at = at;
        }
    }
    return *cores_[best];
}

sim::Tick
CpuCluster::totalBusyTicks() const
{
    sim::Tick sum = 0;
    for (const auto &c : cores_)
        sum += c->busyTicks();
    return sum;
}

} // namespace mcnsim::cpu
