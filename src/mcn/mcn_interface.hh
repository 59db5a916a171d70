/**
 * @file
 * McnInterface: the MCN-specific logic in the DIMM's buffer device
 * (paper Fig. 3(a)). It owns the SRAM buffer, exposes it as an
 * MMIO window on the host memory channel, redirects MCN-side
 * accesses from the MCN memory controller, raises the IRQ into the
 * MCN processor when the host deposits packets, and (mcn1+) asserts
 * ALERT_N toward the host when the MCN node has outgoing packets.
 */

#ifndef MCNSIM_MCN_MCN_INTERFACE_HH
#define MCNSIM_MCN_MCN_INTERFACE_HH

#include <functional>

#include <memory>

#include "mcn/sram_buffer.hh"
#include "mem/bandwidth_arbiter.hh"
#include "mem/mem_controller.hh"
#include "sim/fault.hh"
#include "sim/flow_stats.hh"
#include "sim/sim_object.hh"

namespace mcnsim::mcn {

/** Latency parameters of the buffer-device datapath. */
struct McnInterfaceParams
{
    /** SRAM access beyond the channel burst (host side). */
    sim::Tick sramReadLatency = 15 * sim::oneNs;
    sim::Tick sramWriteLatency = 10 * sim::oneNs;

    /** On-chip interconnect hop for MCN-side SRAM access. */
    sim::Tick mcnSideLatency = 8 * sim::oneNs;

    /** SRAM port streaming bandwidth (bulk copies), bytes/s. */
    double sramPortBps = 12.8e9;
};

/** The buffer device's MCN logic. */
class McnInterface : public sim::SimObject
{
  public:
    McnInterface(sim::Simulation &s, std::string name,
                 std::size_t sram_bytes,
                 McnInterfaceParams params = {});

    /** Schedules spurious-doorbell faults from the armed plan. */
    void startup() override;

    SramBuffer &sram() { return sram_; }
    const McnInterfaceParams &params() const { return params_; }

    /** The MCN-side SRAM port (bulk copies over the on-chip bus). */
    mem::BandwidthArbiter &sramPort() { return *sramPort_; }

    /**
     * Register the SRAM window at channel-local offset @p base on
     * the host-side memory controller @p host_mc.
     */
    void mapHostWindow(mem::MemController &host_mc,
                       mem::Addr base);

    /** IRQ into the MCN processor: host deposited RX packets. */
    void setRxIrqHandler(std::function<void()> h)
    {
        rxIrq_ = std::move(h);
    }

    /** ALERT_N toward the host MC: MCN node has TX packets. */
    void setAlertHandler(std::function<void()> h)
    {
        alert_ = std::move(h);
    }

    /**
     * Host driver finished writing messages into the RX ring: set
     * rx-poll and interrupt the MCN processor.
     */
    void hostDepositedRx();

    /**
     * MCN driver finished writing messages into the TX ring: set
     * tx-poll and, when wired (mcn1+), pulse ALERT_N.
     */
    void mcnDepositedTx();

    /**
     * Observability hook: sample both ring fill levels as timeline
     * counters and flow-telemetry queue watermarks. Drivers call it
     * after every enqueue or dequeue; a run with neither feature
     * active pays two branches.
     */
    void
    recordRingLevels()
    {
        if (sim::Timeline::active()) [[unlikely]] {
            tlCounter("txRingBytes",
                      static_cast<double>(sram_.tx().usedBytes()));
            tlCounter("rxRingBytes",
                      static_cast<double>(sram_.rx().usedBytes()));
        }
        if (sim::FlowTelemetry::active()) [[unlikely]] {
            statTxRingQ_.update(curTick(), sram_.tx().usedBytes());
            statRxRingQ_.update(curTick(), sram_.rx().usedBytes());
        }
    }

    std::uint64_t alertsRaised() const
    {
        return static_cast<std::uint64_t>(statAlerts_.value());
    }
    std::uint64_t doorbellsLost() const
    {
        return static_cast<std::uint64_t>(statLost_.value());
    }

  private:
    SramBuffer sram_;
    McnInterfaceParams params_;
    std::unique_ptr<mem::BandwidthArbiter> sramPort_;
    std::function<void()> rxIrq_;
    std::function<void()> alert_;

    sim::Scalar statRxIrqs_{"rxIrqs", "IRQs into the MCN processor"};
    sim::Scalar statAlerts_{"alerts", "ALERT_N pulses to the host"};
    sim::Scalar statHostAccesses_{"hostAccesses",
                                  "host MMIO accesses to the SRAM"};
    sim::Scalar statLost_{"doorbellsLost",
                          "injected lost IRQ/ALERT doorbells"};
    sim::Scalar statSpurious_{"doorbellsSpurious",
                              "injected spurious doorbells"};
    sim::QueueStat statTxRingQ_{"txRing.usedBytes",
                                "SRAM TX ring occupancy (flow "
                                "telemetry)"};
    sim::QueueStat statRxRingQ_{"rxRing.usedBytes",
                                "SRAM RX ring occupancy (flow "
                                "telemetry)"};

    // Fault sites: a doorbell edge that never reaches its handler
    // (flaky interrupt line); spurious-* are scheduled faults.
    sim::FaultSite faultRxIrqLost_ = FAULT_POINT("rx-irq-lost");
    sim::FaultSite faultAlertLost_ = FAULT_POINT("alert-lost");
};

} // namespace mcnsim::mcn

#endif // MCNSIM_MCN_MCN_INTERFACE_HH
