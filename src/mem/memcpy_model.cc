/**
 * @file
 * Copy model implementation.
 */

#include "mem/memcpy_model.hh"

#include <algorithm>

#include "sim/simulation.hh"

namespace mcnsim::mem {

const char *
to_string(CopyMode m)
{
    switch (m) {
      case CopyMode::WriteCombined:
        return "write-combined";
      case CopyMode::UncachedWord:
        return "uncached-word";
      case CopyMode::CacheableRead:
        return "cacheable-read";
      case CopyMode::DmaBurst:
        return "dma-burst";
    }
    return "unknown";
}

double
CopyParams::rateFor(CopyMode mode, double peak_bps) const
{
    switch (mode) {
      case CopyMode::WriteCombined:
        return std::min(wcStoreBps, peak_bps);
      case CopyMode::UncachedWord: {
        // One strictly-ordered 8-byte access per round trip.
        double rt = sim::ticksToSeconds(uncachedRoundTrip);
        return 8.0 / rt;
      }
      case CopyMode::CacheableRead: {
        // mshrs line fills in flight, each lineFillLatency deep.
        double lat = sim::ticksToSeconds(lineFillLatency);
        return std::min(peak_bps,
                        64.0 * static_cast<double>(mshrs) / lat);
      }
      case CopyMode::DmaBurst:
        return dmaBps > 0.0 ? std::min(dmaBps, peak_bps) : peak_bps;
    }
    return peak_bps;
}

CopyEngine::CopyEngine(sim::Simulation &s, std::string name,
                       MemController &mc, CopyParams params)
    : sim::SimObject(s, std::move(name)), mc_(mc), params_(params)
{
    regStat(&statBytes_);
    regStat(&statCopies_);
}

void
CopyEngine::copy(std::uint64_t bytes, CopyMode mode,
                 sim::Callback<void(sim::Tick)> done)
{
    statCopies_ += 1;
    statBytes_ += static_cast<double>(bytes);
    double cap = params_.rateFor(mode, mc_.timing().peakBandwidthBps());
    mc_.bulk().startTransfer(bytes, std::move(done), cap);
}

} // namespace mcnsim::mem
