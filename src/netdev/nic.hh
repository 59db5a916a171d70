/**
 * @file
 * A 10GbE-class NIC: TX/RX descriptor rings in host memory, DMA
 * engines that consume real memory-channel bandwidth, MSI interrupt
 * + NAPI polling on receive, and hardware TSO that performs the
 * paper's O1-O4 steps (split, replicate headers, fix length/seq/
 * checksum, transmit) on real bytes.
 *
 * This is the baseline system's network device (Fig. 2 of the
 * paper); the MCN driver replaces it with memory-channel rings.
 */

#ifndef MCNSIM_NETDEV_NIC_HH
#define MCNSIM_NETDEV_NIC_HH

#include <string>
#include <vector>

#include "netdev/ethernet_link.hh"
#include "os/kernel.hh"
#include "os/net_device.hh"
#include "sim/ring_deque.hh"

namespace mcnsim::netdev {

/** NIC tuning parameters. */
struct NicParams
{
    std::size_t txRingEntries = 256;
    std::size_t rxRingEntries = 256;
    sim::Tick pcieLatency = 800 * sim::oneNs; ///< per DMA transfer
    double dmaBps = 16e9;                     ///< DMA engine bound
    int napiBudget = 64;                      ///< packets per poll
};

/** The NIC device. */
class Nic : public os::NetDevice, public EtherEndpoint
{
  public:
    Nic(sim::Simulation &s, std::string name, net::MacAddr mac,
        os::Kernel &kernel, NicParams params = {});

    /** Wire this NIC to its link (NIC side is endpoint B). */
    void attachLink(EthernetLink &link);

    // NetDevice
    os::TxResult xmit(net::PacketPtr pkt) override;

    // EtherEndpoint
    void receiveFrame(net::PacketPtr pkt) override;

    /** The NIC executes on its host node's shard. */
    sim::EventQueue *endpointQueue() override
    {
        return &eventQueue();
    }

    std::uint64_t rxDrops() const
    {
        return static_cast<std::uint64_t>(statRxDrops_.value());
    }
    std::uint64_t tsoSegments() const
    {
        return static_cast<std::uint64_t>(statTsoSegs_.value());
    }
    std::uint64_t interrupts() const
    {
        return static_cast<std::uint64_t>(statIrqs_.value());
    }

    /**
     * Split a TSO super-frame (Ethernet+IP+TCP with tsoMss set)
     * into MSS-sized wire frames, reproducing the paper's O1-O4.
     * Segments get IP/TCP checksums exactly when the super-frame
     * carried a TCP checksum (checksum bypass stays bypassed).
     * Exposed for unit testing.
     */
    static std::vector<net::PacketPtr>
    segmentTso(const net::PacketPtr &pkt);

  private:
    void dmaTxStart(net::PacketPtr pkt);
    void toWire(net::PacketPtr pkt);
    void napiSchedule();
    void napiPoll();

    os::Kernel &kernel_;
    NicParams params_;
    EthernetLink *link_ = nullptr;
    std::uint32_t irqLine_;
    /** Path-hop names of the DMA stamps (Table III's DMA-TX and
     *  DMA-RX columns); the driver stamps use name(). */
    std::string dmaTxHop_;
    std::string dmaRxHop_;

    std::size_t txInFlight_ = 0; ///< descriptors awaiting DMA
    sim::RingDeque<net::PacketPtr> rxCompleted_;
    /** The frames of the NAPI poll in progress (one at a time: the
     *  next is scheduled only once this one's charge completes). */
    std::vector<net::PacketPtr> napiBatch_;
    std::size_t rxRingUsed_ = 0;
    bool napiActive_ = false;

    sim::Scalar statRxDrops_{"rxDrops", "frames dropped, ring full"};
    sim::Scalar statTsoSegs_{"tsoSegments",
                             "wire frames produced by TSO"};
    sim::Scalar statIrqs_{"interrupts", "MSI interrupts raised"};
    sim::Scalar statNapiPolls_{"napiPolls", "NAPI poll rounds"};
    sim::QueueStat statTxRingQ_{"txRing.occupancy",
                                "TX descriptors awaiting DMA "
                                "(flow telemetry)"};
    sim::QueueStat statRxRingQ_{"rxRing.occupancy",
                                "RX ring buffers in use "
                                "(flow telemetry)"};
};

} // namespace mcnsim::netdev

#endif // MCNSIM_NETDEV_NIC_HH
