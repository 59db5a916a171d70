/**
 * @file
 * A per-channel memory controller with FR-FCFS scheduling, a posted
 * write buffer with drain watermarks and write combining, periodic
 * refresh, and MMIO regions (the hook the MCN DIMM's SRAM buffer
 * plugs into).
 *
 * Fine-grained (single line) requests are timed against the detailed
 * bank model; bulk transfers go through the channel's
 * BandwidthArbiter. The two paths are coupled both ways: bulk demand
 * adds queueing pressure to fine-grained accesses, and fine-grained
 * bus occupancy lowers the arbiter's effective bandwidth.
 */

#ifndef MCNSIM_MEM_MEM_CONTROLLER_HH
#define MCNSIM_MEM_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mem/bandwidth_arbiter.hh"
#include "mem/dram_device.hh"
#include "mem/dram_timing.hh"
#include "mem/interleave.hh"
#include "mem/mem_types.hh"
#include "sim/record_pool.hh"
#include "sim/sim_object.hh"

namespace mcnsim::mem {

/**
 * An address window within the channel that is serviced by a device
 * instead of DRAM (e.g. the MCN SRAM buffer exposed through the
 * host physical memory space).
 */
struct MmioRegion
{
    Addr base = 0;
    std::uint64_t size = 0;
    Tick readLatency = 0;
    Tick writeLatency = 0;

    /** Observer fired when an access to the window completes. It
     *  sees the request's kind, address and size; its completion
     *  callback and enqueue tick are not kept. */
    std::function<void(const MemRequest &, Tick)> onAccess;

    bool
    contains(Addr a) const
    {
        return a >= base && a < base + size;
    }
};

/** One channel's memory controller. */
class MemController : public sim::SimObject
{
  public:
    MemController(sim::Simulation &s, std::string name,
                  DramTiming timing);

    /** Enqueue a fine-grained access (single cache line or less). */
    void access(MemRequest req);

    /** Register a device window. Returns its index. */
    std::size_t addMmioRegion(MmioRegion region);

    /** Bulk path for memcpy-style transfers on this channel. */
    BandwidthArbiter &bulk() { return *bulk_; }

    const DramTiming &timing() const { return timing_; }

    std::uint64_t
    fineBytes() const
    {
        return static_cast<std::uint64_t>(statReadBytes_.value() +
                                          statWriteBytes_.value());
    }

    /** Total bytes moved on the channel (fine + bulk). */
    std::uint64_t
    totalBytes() const
    {
        return fineBytes() + bulk_->totalBytesMoved();
    }

    /** Row hit fraction among serviced DRAM commands. */
    double rowHitRate() const;

    void startup() override;

  private:
    struct Pending
    {
        MemRequest req;
        DramCoord coord;
    };

    void schedule();
    void runScheduler();
    /** Try to issue one command; returns next attempt tick or 0. */
    Tick tryIssue();
    Tick issueTo(Pending &p, bool is_write);
    void serviceMmio(MemRequest &req, std::size_t region);
    /** Park a request's completion until its event fires (null when
     *  it has none): the event captures the record, not the 64 B
     *  callback, so it fits an event slot. */
    sim::Callback<void(Tick)> *park(sim::Callback<void(Tick)> cb);
    /** Fire and recycle a parked completion. */
    void complete(sim::Callback<void(Tick)> *cb, Tick at);
    void refreshTick();
    void updateCoupling(Tick busy_from, Tick busy_until);

    DramTiming timing_;
    InterleaveMap localMap_{1};
    std::vector<Rank> ranks_;
    std::vector<MmioRegion> mmio_;
    std::unique_ptr<BandwidthArbiter> bulk_;
    sim::RecordPool<sim::Callback<void(Tick)>> completions_;

    std::deque<Pending> readQ_;
    std::deque<Pending> writeQ_;
    bool drainingWrites_ = false;
    static constexpr std::size_t writeHigh_ = 48;
    static constexpr std::size_t writeLow_ = 16;

    Tick busFreeAt_ = 0;
    sim::Event *schedEvent_ = nullptr;
    sim::MemberEvent<MemController> refreshEvent_{
        "refresh", this, &MemController::refreshTick,
        sim::EventPriority::ClockTick};

    // Sliding-window fine-grained bus occupancy, for bulk coupling.
    Tick windowStart_ = 0;
    Tick windowBusy_ = 0;
    double fineLoad_ = 0.0;

    sim::Scalar statReadBytes_{"readBytes", "fine-grained bytes read"};
    sim::Scalar statWriteBytes_{"writeBytes",
                                "fine-grained bytes written"};
    sim::Scalar statRowHits_{"rowHits", "row buffer hits"};
    sim::Scalar statRowMisses_{"rowMisses", "row buffer conflicts"};
    sim::Scalar statRowClosed_{"rowClosed", "accesses to closed rows"};
    sim::Scalar statMmio_{"mmioAccesses", "device window accesses"};
    sim::Average statReadLat_{"readLatency",
                              "fine read latency (ticks)"};
    sim::Average statReadQueue_{"readQueueDepth",
                                "read queue depth at enqueue"};
};

} // namespace mcnsim::mem

#endif // MCNSIM_MEM_MEM_CONTROLLER_HH
