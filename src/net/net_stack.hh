/**
 * @file
 * NetStack: one node's TCP/IP stack. Owns the interface table, the
 * neighbour (static ARP) table, the L4 protocol layers and the
 * socket namespace; drivers below hand packets up with
 * rxFromDevice(), sockets above hand data down through the layers.
 *
 * Stack-wide knobs mirror the paper's optimisation levels:
 * setChecksumBypass() (mcn2) disables IPv4/TCP checksum generation
 * and verification -- safe on an ECC-protected memory channel --
 * and interfaces carry their own MTU (mcn3) and TSO (mcn4) flags.
 */

#ifndef MCNSIM_NET_NET_STACK_HH
#define MCNSIM_NET_NET_STACK_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/ethernet.hh"
#include "net/ipv4.hh"
#include "net/packet.hh"
#include "os/kernel.hh"
#include "os/net_device.hh"
#include "sim/ring_deque.hh"
#include "sim/sim_object.hh"

namespace mcnsim::net {

class TcpLayer;
class IcmpLayer;
class TcpSocket;

/** One node's network stack. */
class NetStack : public sim::SimObject
{
  public:
    NetStack(sim::Simulation &s, std::string name, os::Kernel &kernel);
    ~NetStack() override;

    os::Kernel &kernel() { return kernel_; }

    // --- Interface management -------------------------------------
    /**
     * Register @p dev owning local address @p addr; packets whose
     * destination matches @p addr under @p mask egress through it.
     * Returns the ifindex. Sets the device's rx handler.
     */
    int addInterface(os::NetDevice &dev, Ipv4Addr addr,
                     SubnetMask mask);

    /**
     * Register @p dev as a point-to-point interface towards
     * @p peer (exact-match route on the peer's address; the
     * paper's host-side MCN interfaces). The node's own address
     * comes from setNodeAddress().
     */
    int addPointToPoint(os::NetDevice &dev, Ipv4Addr peer);

    /** Extra route: destinations matching (@p key, @p mask) egress
     *  via the already-registered interface @p ifindex. */
    void
    addRoute(int ifindex, Ipv4Addr key, SubnetMask mask)
    {
        table_.add(ifindex, key, mask);
    }

    /**
     * Assign the node's own address without a device (used by the
     * MCN host, whose host-side interfaces are point-to-point
     * routes keyed on the peer MCN node's address with a /32 mask,
     * Sec. III-B). Must be called before addInterface so it stays
     * the primary address.
     */
    void setNodeAddress(Ipv4Addr addr);

    /** Source address for packets toward @p dst. */
    Ipv4Addr sourceAddrFor(Ipv4Addr dst) const;

    os::NetDevice *device(int ifindex);
    /** The first configured interface address ("the node's IP"). */
    Ipv4Addr primaryAddr() const;
    const InterfaceTable &interfaces() const { return table_; }

    /** Static neighbour entry (stands in for ARP). */
    void addNeighbor(Ipv4Addr ip, MacAddr mac);
    std::optional<MacAddr> neighbor(Ipv4Addr ip) const;

    /** Fallback MAC when no neighbour entry matches (the gateway
     *  of a point-to-multipoint setup, e.g. an MCN node's host). */
    void setDefaultNeighbor(MacAddr mac) { defaultNeighbor_ = mac; }

    /**
     * Enable IP forwarding: packets arriving for a non-local
     * destination are re-routed out the matching interface instead
     * of dropped (the MCN host relaying between its DIMMs and a
     * conventional NIC toward other hosts, Sec. III-B).
     */
    void setIpForwarding(bool on) { ipForwarding_ = on; }

    // --- Send/receive ----------------------------------------------
    /**
     * Frame @p pkt (which already carries its L4 + IP payload
     * bytes) with IP and Ethernet headers and transmit it towards
     * @p dst. Loops back locally-destined packets. Returns false
     * when unroutable or the device is busy.
     */
    bool sendIp(Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
                PacketPtr pkt);

    /** Driver upcall (wired by addInterface). */
    void rxFromDevice(os::NetDevice &dev, PacketPtr pkt);

    // --- Layers & sockets -------------------------------------------
    TcpLayer &tcp() { return *tcp_; }
    IcmpLayer &icmp() { return *icmp_; }

    std::shared_ptr<TcpSocket> tcpSocket();

    // --- Knobs -------------------------------------------------------
    void setChecksumBypass(bool on) { checksumBypass_ = on; }
    bool checksumBypass() const { return checksumBypass_; }

    /** Largest L3 payload for the egress to @p dst (path MTU). */
    std::uint32_t pathMtu(Ipv4Addr dst) const;

    /** TSO enabled for the egress to @p dst. */
    bool tsoTowards(Ipv4Addr dst) const;

    /** Device checksum offload for the egress to @p dst. */
    bool checksumOffloadTowards(Ipv4Addr dst) const;

    /** Egress toward @p dst crosses only a trusted (ECC-protected
     *  memory channel / loopback) hop, so checksum bypass applies
     *  (Table I mcn2). */
    bool trustedTowards(Ipv4Addr dst) const;

    std::uint64_t rxCsumDrops() const
    {
        return static_cast<std::uint64_t>(statRxCsumDrops_.value());
    }

    std::uint64_t ipTxPackets() const
    {
        return static_cast<std::uint64_t>(statIpTx_.value());
    }

  private:
    struct TxQueue
    {
        sim::RingDeque<PacketPtr> parked;
        bool armed = false;
    };

    int registerDevice(os::NetDevice &dev);
    /** @p trusted_hop: the packet arrived over a trusted medium
     *  (memory channel / loopback), so mcn2 bypass may skip
     *  verification for this hop. */
    void handleIp(PacketPtr pkt, bool trusted_hop);
    void qdiscXmit(os::NetDevice *dev, PacketPtr pkt);
    void pumpTxQueue(os::NetDevice *dev);

    os::Kernel &kernel_;
    InterfaceTable table_;
    std::vector<os::NetDevice *> devices_;
    /** Static neighbour entries sorted by IPv4 address. They are
     *  only inserted and looked up, so a binary search over one
     *  flat array replaces a tree walk. */
    std::vector<std::pair<std::uint32_t, MacAddr>> neighbors_;
    std::map<os::NetDevice *, TxQueue> txQueues_;
    std::optional<MacAddr> defaultNeighbor_;
    bool ipForwarding_ = false;
    bool checksumBypass_ = false;
    std::uint16_t nextIpId_ = 1;

    std::unique_ptr<TcpLayer> tcp_;
    std::unique_ptr<IcmpLayer> icmp_;

    sim::Scalar statIpTx_{"ipTxPackets", "IP datagrams sent"};
    sim::Scalar statIpRx_{"ipRxPackets", "IP datagrams received"};
    sim::Scalar statIpDrops_{"ipDrops", "unroutable/corrupt drops"};
    sim::Scalar statLoopback_{"loopbackPackets",
                              "packets looped back locally"};
    sim::Scalar statRxCsumDrops_{"rxCsumDrops",
                                 "datagrams dropped on IPv4 header "
                                 "or relay-boundary checksum"};
};

} // namespace mcnsim::net

#endif // MCNSIM_NET_NET_STACK_HH
