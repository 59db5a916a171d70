/**
 * @file
 * MCN-DMA (Sec. IV-B): memory-to-memory DMA engines that move
 * packet bytes between kernel memory and the SRAM rings so the
 * cores stop paying per-byte copy costs. One engine per MCN node
 * and one per host channel; the driver programs a descriptor
 * (small CPU cost), the engine streams at DMA rate through the
 * given bulk arbiter, and completion is delivered as an interrupt.
 */

#ifndef MCNSIM_MCN_MCN_DMA_HH
#define MCNSIM_MCN_MCN_DMA_HH

#include <cstdint>

#include "mem/bandwidth_arbiter.hh"
#include "os/kernel.hh"
#include "sim/callback.hh"
#include "sim/fault.hh"
#include "sim/record_pool.hh"
#include "sim/sim_object.hh"

namespace mcnsim::mcn {

/**
 * Driver copybreak: packets of at most this many bytes stay on the
 * CPU copy path even when an MCN-DMA engine exists, in the host and
 * the MCN driver alike. A non-paper extension (DESIGN.md §3) taken
 * from production NIC drivers, whose premise (a CPU copy beats DMA
 * setup for small packets) does not hold in this model; ROADMAP
 * item 2 may delete it.
 */
constexpr std::uint64_t dmaCopybreak = 1024;

/** One MCN-DMA engine. */
class McnDmaEngine : public sim::SimObject
{
  public:
    /**
     * @param arbiter   the resource the engine streams through
     *                  (host channel bulk port or SRAM port)
     * @param rate_bps  engine streaming bound
     */
    McnDmaEngine(sim::Simulation &s, std::string name,
                 os::Kernel &kernel, mem::BandwidthArbiter &arbiter,
                 double rate_bps = 4e9);

    /**
     * Program a transfer of @p bytes; @p done fires (after the
     * completion interrupt cost) once the data is moved.
     */
    void transfer(std::uint64_t bytes,
                  sim::Callback<void(sim::Tick)> done);

    std::uint64_t transfers() const
    {
        return static_cast<std::uint64_t>(statTransfers_.value());
    }
    std::uint64_t stalls() const
    {
        return static_cast<std::uint64_t>(statStalls_.value());
    }

  private:
    /** One programmed transfer; its caller's continuation waits
     *  here while the descriptor is set up, streamed and
     *  completed. */
    struct Job
    {
        std::uint64_t bytes = 0;
        sim::Tick t0 = 0; ///< tick the transfer was programmed
        sim::Callback<void(sim::Tick)> done;
    };

    /** Stream @p j through the arbiter (replaying after a partial
     *  transfer). */
    void stream(Job *j);
    /** @p j's completion interrupt ran at @p at. */
    void finish(Job *j, sim::Tick at);

    os::Kernel &kernel_;
    mem::BandwidthArbiter &arbiter_;
    double rateBps_;
    sim::RecordPool<Job> jobs_;

    sim::Scalar statTransfers_{"transfers", "DMA transfers"};
    sim::Scalar statBytes_{"bytes", "bytes moved by DMA"};
    sim::Scalar statStalls_{"stalls", "injected stalls/retries"};

    /// Engine stalls before streaming (param = extra delay).
    sim::FaultSite faultStall_ = FAULT_POINT("stall");
    /// Transfer aborts partway and is re-streamed (extra time).
    sim::FaultSite faultPartial_ = FAULT_POINT("partial");
};

} // namespace mcnsim::mcn

#endif // MCNSIM_MCN_MCN_DMA_HH
