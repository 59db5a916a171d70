/**
 * @file
 * MemSystem: one node's memory subsystem -- a set of channels, each
 * with its own MemController, plus the interleave map that scatters
 * host physical addresses across them.
 */

#ifndef MCNSIM_MEM_MEM_SYSTEM_HH
#define MCNSIM_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/dimm.hh"
#include "mem/dram_timing.hh"
#include "mem/interleave.hh"
#include "mem/mem_controller.hh"
#include "mem/mem_types.hh"
#include "sim/callback.hh"
#include "sim/record_pool.hh"
#include "sim/sim_object.hh"

namespace mcnsim::mem {

/** A node's channels + interleaving. */
class MemSystem : public sim::SimObject
{
  public:
    MemSystem(sim::Simulation &s, std::string name,
              std::uint32_t channels, DramTiming timing);

    std::uint32_t channelCount() const
    {
        return static_cast<std::uint32_t>(controllers_.size());
    }

    MemController &controller(std::uint32_t ch)
    {
        return *controllers_[ch];
    }

    const InterleaveMap &map() const { return map_; }
    const DramTiming &timing() const { return timing_; }

    /**
     * Fine-grained access by host physical address; routed to the
     * owning channel with a channel-local offset.
     */
    void access(MemRequest req);

    /**
     * Bulk transfer pinned to one channel (the MCN memcpy case) with
     * an optional per-flow rate cap in bytes/second.
     */
    void bulkOnChannel(std::uint32_t ch, std::uint64_t bytes,
                       sim::Callback<void(Tick)> done,
                       double rate_cap_bps =
                           BandwidthArbiter::unlimited);

    /**
     * Bulk transfer interleaved across all channels (ordinary
     * application streaming): modelled as an equal split.
     */
    void bulkInterleaved(std::uint64_t bytes,
                         sim::Callback<void(Tick)> done,
                         double rate_cap_bps =
                             BandwidthArbiter::unlimited);

    /** Record the DIMMs populating a channel (builder inventory). */
    void addDimm(std::uint32_t ch, DimmInfo info);
    const std::vector<DimmInfo> &dimms(std::uint32_t ch) const
    {
        return dimms_[ch];
    }

    /** Total bytes moved across all channels (fine + bulk). */
    std::uint64_t totalBytes() const;

    /** Aggregate peak bandwidth of all channels, bytes/second. */
    double peakBandwidthBps() const;

  private:
    /** One bulkInterleaved() call: its slices count down here and
     *  the last one fires done. Pooled, so a call allocates nothing
     *  once the pool and the arbiters are warm. */
    struct BulkJoin
    {
        std::uint32_t remaining = 0;
        Tick last = 0;
        sim::Callback<void(Tick)> done;
    };

    /** A channel's slice of @p j completed at @p t. */
    void sliceDone(BulkJoin *j, Tick t);

    InterleaveMap map_;
    DramTiming timing_;
    std::vector<std::unique_ptr<MemController>> controllers_;
    std::vector<std::vector<DimmInfo>> dimms_;
    sim::RecordPool<BulkJoin> joins_;
};

} // namespace mcnsim::mem

#endif // MCNSIM_MEM_MEM_SYSTEM_HH
