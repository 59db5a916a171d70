/**
 * @file
 * The host-side MCN driver (paper Fig. 5): the three components are
 *
 *  (C1) the packet forwarding engine implementing scenarios F1-F4
 *       (deliver up, broadcast, MCN-to-MCN relay, uplink NIC);
 *  (C2) the memory mapping unit: each MCN DIMM's SRAM window is an
 *       MMIO region on its channel's memory controller, and bulk
 *       copies use the interleave-aware memcpy models
 *       (write-combined stores toward the DIMM, cacheable reads +
 *       invalidate from it, or MCN-DMA at mcn5);
 *  (C3) the polling agent: an HR-timer + tasklet scan of every
 *       DIMM's tx-poll field (mcn0), or the ALERT_N-based per-DIMM
 *       interrupt (mcn1+).
 *
 * One McnHostInterface (a virtual Ethernet net_device) is created
 * per MCN DIMM, giving the host a point-to-point link per node.
 */

#ifndef MCNSIM_MCN_HOST_DRIVER_HH
#define MCNSIM_MCN_HOST_DRIVER_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/mcn_config.hh"
#include "mcn/alert_signal.hh"
#include "mcn/mcn_dimm.hh"
#include "mcn/mcn_dma.hh"
#include "mem/memcpy_model.hh"
#include "os/hrtimer.hh"
#include "os/kernel.hh"
#include "os/net_device.hh"
#include "sim/callback.hh"
#include "sim/fault.hh"
#include "sim/record_pool.hh"

namespace mcnsim::mcn {

class McnHostDriver;

/** One host-side virtual Ethernet interface (per MCN DIMM). */
class McnHostInterface : public os::NetDevice
{
  public:
    McnHostInterface(sim::Simulation &s, std::string name,
                     net::MacAddr mac, std::uint32_t mtu,
                     McnHostDriver &driver, std::size_t dimm_index);

    os::TxResult xmit(net::PacketPtr pkt) override;

  private:
    McnHostDriver &driver_;
    std::size_t dimmIndex_;
};

/** The host-side driver core. */
class McnHostDriver : public sim::SimObject
{
  public:
    McnHostDriver(sim::Simulation &s, std::string name,
                  os::Kernel &host_kernel, core::McnConfig config);

    /**
     * Bind @p dimm, installed on host channel @p channel: creates
     * the host-side interface, maps the SRAM window on that
     * channel's controller and wires ALERT_N when configured.
     * Returns the new interface (caller registers it with the host
     * stack and assigns addresses).
     */
    McnHostInterface &addDimm(McnDimm &dimm, std::uint32_t channel);

    /** Conventional NIC used for scenario F4 (may be null). */
    void setUplink(os::NetDevice *dev) { uplink_ = dev; }

    /**
     * Called when a frame for a degraded (unresponsive) MCN node is
     * dropped by the forwarding engine: @p src is the IP source of
     * the dropped frame, @p dead the degraded node's IP. The system
     * builder wires this to the host stack's ICMP destination-
     * unreachable path so senders fail fast instead of timing out.
     */
    void
    setUnreachableNotifier(
        std::function<void(net::Ipv4Addr src, net::Ipv4Addr dead)> f)
    {
        unreachableNotifier_ = std::move(f);
    }

    void startup() override;

    const core::McnConfig &config() const { return config_; }
    std::size_t dimmCount() const { return dimms_.size(); }
    McnHostInterface &hostInterface(std::size_t i)
    {
        return *dimms_[i]->iface;
    }
    McnDimm &dimm(std::size_t i) { return *dimms_[i]->dimm; }

    /** T1-T3 toward DIMM @p idx (called by the interfaces). */
    os::TxResult xmitToDimm(std::size_t idx, net::PacketPtr pkt);

    std::uint64_t forwardedMcnToMcn() const
    {
        return static_cast<std::uint64_t>(statF3_.value());
    }
    std::uint64_t deliveredToHost() const
    {
        return static_cast<std::uint64_t>(statF1_.value());
    }
    std::uint64_t pollScans() const
    {
        return static_cast<std::uint64_t>(statPollScans_.value());
    }
    std::uint64_t pollHits() const
    {
        return static_cast<std::uint64_t>(statPollHits_.value());
    }
    std::uint64_t dimmsDegraded() const
    {
        return static_cast<std::uint64_t>(statDegraded_.value());
    }
    std::uint64_t dimmsReadmitted() const
    {
        return static_cast<std::uint64_t>(statRecoveries_.value());
    }
    std::uint64_t degradedDrops() const
    {
        return static_cast<std::uint64_t>(statDegradedDrops_.value());
    }
    std::uint64_t ringCrcDrops() const
    {
        return static_cast<std::uint64_t>(statRingCrcDrops_.value());
    }

    /** Watchdog verdict on one DIMM (see watchdogTick()). */
    enum class Health { Healthy, Suspect, Degraded };

    /** Current watchdog verdict for DIMM @p idx. */
    Health dimmHealth(std::size_t idx) const
    {
        return dimms_[idx]->health;
    }

  private:
    struct Binding
    {
        McnDimm *dimm = nullptr;
        std::uint32_t channel = 0;
        std::uint32_t slot = 0; ///< position on its channel
        mem::Addr windowBase = 0;
        std::unique_ptr<McnHostInterface> iface;
        std::unique_ptr<mem::CopyEngine> copy;
        std::unique_ptr<McnDmaEngine> dma;
        bool draining = false;
        std::size_t rxReserved = 0; ///< in-flight copy bytes
        sim::Tick drainStart = 0;   ///< timeline: R1 tick of drain

        // Watchdog state (active only under an armed fault plan).
        Health health = Health::Healthy;
        std::uint64_t lastDequeued = 0; ///< RX-ring progress marker
        unsigned stuckEpochs = 0;       ///< epochs with no progress
        bool probeCredit = false; ///< degraded: one probe per epoch
    };

    /** A host->DIMM copy in flight (T1-T3): the frame and its ring
     *  reservation wait here until the modelled copy lands. */
    struct TxCopy
    {
        std::size_t idx = 0;
        net::PacketPtr pkt;
        std::size_t need = 0; ///< reserved ring bytes
        sim::Tick t0 = 0;     ///< tick the copy was issued
    };

    /** One MMIO access to a control field of a DIMM's SRAM. */
    void fieldAccess(Binding &b, mem::MemRequest::Kind kind,
                     sim::Callback<void(sim::Tick)> done);
    /** T3: @p c's copy landed at @p now; enqueue it into the RX
     *  ring and ring the doorbell. */
    void txCopyLanded(TxCopy *c, sim::Tick now);

    void pollTasklet();
    void scanNext(std::size_t idx);
    void drainDimm(std::size_t idx);
    void startDrain(std::size_t idx);
    void drainLoop(std::size_t idx);
    void drainFinished(std::size_t idx);
    void forward(std::size_t from_idx, net::PacketPtr pkt);
    void relayToDimm(std::size_t idx, net::PacketPtr pkt,
                     unsigned attempts = 0);
    void watchdogTick();
    void checkDimmHealth(std::size_t idx);
    void notifyUnreachable(const net::Packet &pkt,
                           std::size_t dead_idx);

    os::Kernel &kernel_;
    core::McnConfig config_;
    std::vector<std::unique_ptr<Binding>> dimms_;
    std::map<std::uint32_t, std::unique_ptr<AlertSignal>> alerts_;
    std::map<std::uint32_t, std::uint32_t> slotsPerChannel_;
    // The driver drains one DIMM per channel at a time: the ring
    // copies of one channel share that channel and the driver's
    // per-channel context, so concurrent drains on one channel are
    // not physical.
    std::map<std::uint32_t, bool> channelDraining_;
    std::map<std::uint32_t, std::deque<std::size_t>> drainQueue_;
    sim::RecordPool<TxCopy> txCopies_;
    os::NetDevice *uplink_ = nullptr;
    std::unique_ptr<os::HrTimer> pollTimer_;
    bool pollInFlight_ = false;
    sim::Tick pollStart_ = 0; ///< timeline: tick the sweep began
    std::function<void(net::Ipv4Addr, net::Ipv4Addr)>
        unreachableNotifier_;

    /// Host->MCN copy lands corrupted in the RX ring.
    sim::FaultSite faultTxCorrupt_ = FAULT_POINT("tx-corrupt");

    sim::Scalar statF1_{"f1HostDeliveries",
                        "frames delivered to the host stack"};
    sim::Scalar statF2_{"f2Broadcasts", "broadcast frames fanned out"};
    sim::Scalar statF3_{"f3McnToMcn", "frames relayed MCN to MCN"};
    sim::Scalar statF4_{"f4Uplink", "frames sent to the uplink NIC"};
    sim::Scalar statFDrop_{"fDrops", "unroutable frames dropped"};
    sim::Scalar statPollScans_{"pollScans", "tx-poll fields read"};
    sim::Scalar statPollHits_{"pollHits", "polls finding data"};
    sim::Scalar statRxRingFull_{"rxRingFull",
                                "host->MCN ring-full busy returns"};
    sim::Scalar statDegraded_{"dimmsDegraded",
                              "DIMMs the watchdog marked degraded"};
    sim::Scalar statRecoveries_{"dimmsReadmitted",
                                "degraded DIMMs readmitted"};
    sim::Scalar statDegradedDrops_{
        "degradedDrops", "frames dropped toward degraded DIMMs"};
    sim::Scalar statRingCrcDrops_{
        "ringCrcDrops", "TX-ring messages failing the entry CRC"};
};

} // namespace mcnsim::mcn

#endif // MCNSIM_MCN_HOST_DRIVER_HH
