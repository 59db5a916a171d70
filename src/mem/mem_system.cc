/**
 * @file
 * MemSystem implementation.
 */

#include "mem/mem_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::mem {

MemSystem::MemSystem(sim::Simulation &s, std::string name,
                     std::uint32_t channels, DramTiming timing)
    : sim::SimObject(s, std::move(name)), map_(channels),
      timing_(std::move(timing)), dimms_(channels)
{
    for (std::uint32_t c = 0; c < channels; ++c)
        controllers_.push_back(std::make_unique<MemController>(
            s, this->name() + ".mc" + std::to_string(c), timing_));
}

void
MemSystem::access(MemRequest req)
{
    std::uint32_t ch = map_.channelOf(req.addr);
    req.addr = map_.channelOffset(req.addr);
    controllers_[ch]->access(std::move(req));
}

void
MemSystem::bulkOnChannel(std::uint32_t ch, std::uint64_t bytes,
                         sim::Callback<void(Tick)> done,
                         double rate_cap_bps)
{
    MCNSIM_ASSERT(ch < controllers_.size(), "bad channel");
    controllers_[ch]->bulk().startTransfer(bytes, std::move(done),
                                           rate_cap_bps);
}

void
MemSystem::bulkInterleaved(std::uint64_t bytes,
                           sim::Callback<void(Tick)> done,
                           double rate_cap_bps)
{
    // Interleaved streams hit every channel; model as an equal split
    // completing when the slowest slice finishes.
    auto n = static_cast<std::uint32_t>(controllers_.size());
    std::uint64_t slice = bytes / n;
    BulkJoin *j = joins_.acquire();
    j->remaining = n;
    j->last = 0;
    j->done = std::move(done);
    for (std::uint32_t c = 0; c < n; ++c) {
        std::uint64_t part = c == 0 ? bytes - slice * (n - 1) : slice;
        controllers_[c]->bulk().startTransfer(
            part, [this, j](Tick t) { sliceDone(j, t); },
            rate_cap_bps / n);
    }
}

void
MemSystem::sliceDone(BulkJoin *j, Tick t)
{
    j->last = std::max(j->last, t);
    if (--j->remaining > 0)
        return;
    // Back to the pool before done runs: it may start another
    // interleaved transfer.
    sim::Callback<void(Tick)> done = std::move(j->done);
    const Tick last = j->last;
    joins_.release(j);
    if (done)
        done(last);
}

void
MemSystem::addDimm(std::uint32_t ch, DimmInfo info)
{
    MCNSIM_ASSERT(ch < dimms_.size(), "bad channel");
    dimms_[ch].push_back(std::move(info));
}

std::uint64_t
MemSystem::totalBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &c : controllers_)
        sum += c->totalBytes();
    return sum;
}

double
MemSystem::peakBandwidthBps() const
{
    return timing_.peakBandwidthBps() *
           static_cast<double>(controllers_.size());
}

} // namespace mcnsim::mem
