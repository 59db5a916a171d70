/**
 * @file
 * Processor-sharing bandwidth arbiter for bulk memory transfers.
 *
 * Simulating every 64 B beat of a multi-megabyte memcpy or a
 * streaming workload phase would cost ~10^8 events per simulated
 * second, so bulk transfers share a channel through this arbiter
 * instead: active flows split the channel's effective bandwidth
 * equally (with optional per-flow caps, water-filling the surplus),
 * and completions are computed analytically. Single-line accesses
 * still use the detailed bank model in MemController; the two paths
 * are coupled through utilization (see MemController docs).
 */

#ifndef MCNSIM_MEM_BANDWIDTH_ARBITER_HH
#define MCNSIM_MEM_BANDWIDTH_ARBITER_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mcnsim::mem {

using sim::Tick;

/** Fair-share arbiter over one channel's bulk bandwidth. */
class BandwidthArbiter : public sim::SimObject
{
  public:
    using FlowId = std::uint64_t;
    static constexpr double unlimited =
        std::numeric_limits<double>::infinity();

    /**
     * @param peak_bps   channel peak bandwidth, bytes per second
     * @param efficiency achievable fraction for streaming access
     *                   (row-hit dominated; ~0.8 for DDR4)
     */
    BandwidthArbiter(sim::Simulation &s, std::string name,
                     double peak_bps, double efficiency = 0.8);

    /**
     * Begin moving @p bytes; @p done fires at completion with the
     * completion tick. @p rate_cap_bps bounds this flow (e.g. a CPU
     * doing uncached double-word copies can't saturate the bus).
     */
    FlowId startTransfer(std::uint64_t bytes,
                         sim::Callback<void(Tick)> done,
                         double rate_cap_bps = unlimited);

    /** Abort a flow; its callback never fires. */
    void cancel(FlowId id);

    /** Active flow count. */
    std::size_t activeFlows() const { return flows_.size(); }

    /** Demanded fraction of effective bandwidth, in [0, 1]. */
    double utilization() const;

    /**
     * Fraction of the raw channel stolen by fine-grained (detailed
     * controller) traffic; reduces effective bulk bandwidth.
     */
    void setBackgroundLoad(double frac);

    double effectiveBps() const;

    std::uint64_t totalBytesMoved() const { return bytesMoved_; }

  private:
    struct Flow
    {
        FlowId id;
        double remaining; ///< bytes
        double cap;       ///< bytes per second
        sim::Callback<void(Tick)> done;
        double rate = 0.0;
    };

    /** Advance all flows to curTick and retire finished ones. */
    void advance();

    /** Recompute per-flow rates (water-filling) and next event. */
    void replan();

    double peakBps_;
    double efficiency_;
    double background_ = 0.0;

    /** Active flows in ascending id order (ids only grow, so a
     *  start appends): the order the water-fill, the byte sums and
     *  retirement walk them in. A vector, so steady-state starts,
     *  cancels and completions reuse its capacity. */
    std::vector<Flow> flows_;
    /** replan()'s water-filling order, reused across calls. */
    std::vector<Flow *> open_;
    /** Capacity advance() lends its list of finished callbacks. */
    std::vector<sim::Callback<void(Tick)>> finishedSpare_;
    FlowId nextId_ = 1;
    Tick lastUpdate_ = 0;
    sim::Event *pending_ = nullptr;

    std::uint64_t bytesMoved_ = 0;
    sim::Scalar statBytes_{"bulkBytes", "bytes moved via arbiter"};
    sim::Scalar statFlows_{"bulkFlows", "bulk flows completed"};
    /** Concurrent-flow occupancy (flow telemetry): time-weighted
     *  mean + peak expose channel contention in queue reports. */
    sim::QueueStat statActiveQ_{"arbiter.activeFlows",
                                "concurrent bulk flows (flow "
                                "telemetry)"};
};

} // namespace mcnsim::mem

#endif // MCNSIM_MEM_BANDWIDTH_ARBITER_HH
