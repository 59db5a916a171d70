/**
 * @file
 * SoftirqEngine implementation.
 */

#include "os/softirq.hh"

namespace mcnsim::os {

SoftirqEngine::SoftirqEngine(sim::Simulation &s, std::string name,
                             cpu::CpuCluster &cpus)
    : sim::SimObject(s, std::move(name)), cpus_(cpus)
{
    regStat(&statRun_);
}

void
SoftirqEngine::schedule(Fn fn)
{
    queue_.push_back(std::move(fn));
    if (!draining_)
        drain();
}

void
SoftirqEngine::drain()
{
    if (queue_.empty()) {
        draining_ = false;
        return;
    }
    draining_ = true;
    running_ = std::move(queue_.front());
    queue_.pop_front();
    statRun_ += 1;
    cpus_.execute(cpus_.costs().softirqSchedule +
                      cpus_.costs().taskletRun,
                  [this](sim::Tick) { runCurrent(); });
}

void
SoftirqEngine::runCurrent()
{
    // Run in place: while it runs, draining_ keeps schedule() off
    // running_.
    running_();
    running_.reset();
    drain();
}

} // namespace mcnsim::os
