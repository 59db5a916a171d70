/**
 * @file
 * Store-and-forward Ethernet switch with MAC learning, bounded
 * egress queues (tail drop) and a fixed forwarding latency: the
 * top-of-rack switch of the baseline scale-out cluster.
 *
 * Fabric mode (DESIGN.md §12) layers a failure-aware control plane
 * on top: static ECMP route groups instead of MAC learning,
 * per-trunk-port liveness from deterministic hello/dead-interval
 * probes, scheduled crash/hang faults on the whole switch and
 * port-down faults on individual ports, and an
 * unreachable-destination notifier that tells traffic sources when
 * every next hop toward their destination is dead (a partition).
 * Fabric mode is strictly opt-in: a switch that never calls
 * enableFabric() behaves bit-identically to the learning switch.
 */

#ifndef MCNSIM_NETDEV_ETHERNET_SWITCH_HH
#define MCNSIM_NETDEV_ETHERNET_SWITCH_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/ethernet.hh"
#include "net/ipv4.hh"
#include "netdev/ethernet_link.hh"
#include "netdev/mac_fib.hh"
#include "sim/fault.hh"
#include "sim/sim_object.hh"

namespace mcnsim::netdev {

/** Fabric control-plane knobs (enableFabric). */
struct FabricParams
{
    /** Hello probe period per trunk port; also the liveness-sweep
     *  period, so detection lag is bounded by one interval. */
    sim::Tick helloInterval = 50 * sim::oneUs;
    /** A trunk port with no hello for this long is dead. */
    sim::Tick deadInterval = 150 * sim::oneUs;
};

/** An N-port learning switch (fabric control plane optional). */
class EthernetSwitch : public sim::SimObject
{
  public:
    EthernetSwitch(sim::Simulation &s, std::string name,
                   std::uint32_t ports,
                   sim::Tick forwarding_latency = 600 * sim::oneNs,
                   std::uint64_t egress_queue_bytes = 8ull * 1024 * 1024);
    ~EthernetSwitch() override;

    /** Attach @p link to switch port @p port. The switch takes side
     *  A by default; pass @p b_side for switch-to-switch trunks
     *  whose A side is already taken by the other switch. */
    void attachLink(std::uint32_t port, EthernetLink &link,
                    bool b_side = false);

    std::uint32_t portCount() const
    {
        return static_cast<std::uint32_t>(ports_.size());
    }

    std::uint64_t drops() const
    {
        return static_cast<std::uint64_t>(statDrops_.value());
    }
    std::uint64_t forwarded() const
    {
        return static_cast<std::uint64_t>(statForwarded_.value());
    }

    /** Forwarding table (tests, diagnostics). */
    const MacFib &fib() const { return fib_; }

    // --- Fabric control plane (DESIGN.md §12) ----------------------

    /** Destination-unreachable callback: (source ip, dead dst ip).
     *  Invoked -- throttled per (src, dst) pair to one notice per
     *  dead interval -- when a routed frame finds every candidate
     *  next hop dead. */
    using UnreachableNotifier =
        std::function<void(net::Ipv4Addr, net::Ipv4Addr)>;

    /**
     * Switch to fabric mode: static ECMP routes (addFabricRoute)
     * replace MAC learning/flooding, trunk ports (markTrunk) run
     * the hello/dead-interval liveness protocol, and the scheduled
     * crash/hang/port-down fault sites arm. Call during system
     * build, before the simulation runs.
     */
    void enableFabric(const FabricParams &params = {});
    bool fabricEnabled() const { return fabric_ != nullptr; }

    /** Declare @p port a switch-to-switch trunk: it sends hellos
     *  every helloInterval and is dead once silent for
     *  deadInterval. Access (host-facing) ports are always live
     *  unless a port-down fault holds them down. */
    void markTrunk(std::uint32_t port);

    /** Route @p dst to the ECMP group @p ports: the flow hash picks
     *  among the members that are currently live. */
    void addFabricRoute(const net::MacAddr &dst,
                        std::vector<std::uint32_t> ports);

    void setUnreachableNotifier(UnreachableNotifier fn);

    /** Liveness view of @p port right now (routing uses the same
     *  predicate, so a reroute is visible the instant the dead
     *  interval expires). */
    bool portLive(std::uint32_t port) const;

    /** Live members of @p dst's ECMP group, in port order. */
    std::vector<std::uint32_t>
    liveEcmpPorts(const net::MacAddr &dst) const;

    /**
     * Deterministic ECMP flow hash: FNV-1a over the IPv4 5-tuple
     * (src/dst address, protocol, src/dst port when TCP/UDP) read
     * straight from the frame bytes. Non-IPv4 frames hash to 0.
     */
    static std::uint32_t flowHash(const net::Packet &pkt);

    std::uint64_t portDownEvents() const
    {
        return static_cast<std::uint64_t>(statPortDown_.value());
    }
    std::uint64_t portUpEvents() const
    {
        return static_cast<std::uint64_t>(statPortUp_.value());
    }
    std::uint64_t unroutableDrops() const
    {
        return static_cast<std::uint64_t>(statUnroutable_.value());
    }

    /** Worst observed lag between a failure becoming observable and
     *  the liveness sweep acting on it; bounded by helloInterval
     *  when the control plane is healthy (the reconvergence SLO). */
    sim::Tick worstDetectLag() const { return worstDetectLag_; }

    /** Schedule hello pump + scheduled crash/hang/port-down hits. */
    void startup() override;

  private:
    /** Per-port endpoint shim delivering frames into the switch. */
    class Port : public EtherEndpoint
    {
      public:
        Port(EthernetSwitch &sw, std::uint32_t index)
            : sw_(sw), index_(index)
        {}

        void
        receiveFrame(net::PacketPtr pkt) override
        {
            sw_.frameIn(index_, std::move(pkt));
        }

        /** Port logic executes on the switch's shard. */
        sim::EventQueue *
        endpointQueue() override
        {
            return &sw_.eventQueue();
        }

        EthernetLink *link = nullptr;

      private:
        EthernetSwitch &sw_;
        std::uint32_t index_;
    };

    /**
     * Per-port SimObject carrying the "port-down" fault site, so
     * fault specs address individual ports through the same name
     * hierarchy as everything else ("rack0.leaf.port3.down").
     * Created only in fabric mode: plain switches keep their exact
     * pre-fabric object/stat registry.
     */
    class SwitchPort : public sim::SimObject
    {
      public:
        SwitchPort(sim::Simulation &s, EthernetSwitch &sw,
                   std::uint32_t index);

        /** Schedule the plan's "<name>.down" at= hits. */
        void startup() override;

      private:
        friend class EthernetSwitch;

        EthernetSwitch &sw_;
        std::uint32_t index_;
        sim::FaultSite faultDown_ = FAULT_POINT("down");
    };

    /** Per-port fabric state. */
    struct PortState
    {
        bool trunk = false;
        /** Port-down fault window: down while now < this. */
        sim::Tick adminDownUntil = 0;
        /** Last hello heard on this port (trunks only). 0 doubles
         *  as the startup grace: everything is live until the first
         *  dead interval expires. */
        sim::Tick lastHelloRx = 0;
        /** Liveness as of the last sweep (edge detection). */
        bool knownLive = true;
    };

    struct Fabric
    {
        FabricParams params;
        std::vector<PortState> state;
        std::vector<std::unique_ptr<SwitchPort>> portObjs;
        /** macKey(dst) -> ECMP port group (fixed member order). */
        std::map<std::uint64_t, std::vector<std::uint32_t>> routes;
        /** Crash/hang window: the whole switch is dark while
         *  now < downUntil. */
        sim::Tick downUntil = 0;
        /** Last liveness sweep that actually ran (lag accounting
         *  across crash windows). */
        sim::Tick prevSweepAt = 0;
        UnreachableNotifier notifier;
        /** (srcIp, dstIp) -> last notify tick (throttle). */
        std::map<std::pair<std::uint32_t, std::uint32_t>, sim::Tick>
            lastNotify;
        /** One same-tick arrival; seq is its position in the
         *  inbox. */
        struct Arrival
        {
            std::uint32_t port;
            std::uint32_t seq;
            net::PacketPtr pkt;
        };
        /** Same-tick arrivals, routed in one end-of-tick pass
         *  sorted by ingress port: the classic and sharded engines
         *  (and different mailbox merges) interleave same-tick
         *  deliveries from different neighbours differently, and
         *  routing must only ever see modeled order. */
        std::vector<Arrival> inbox;
        /** The pass's batch: swapped with inbox, so both keep their
         *  capacity from pass to pass. */
        std::vector<Arrival> batch;
        bool passScheduled = false;
    };

    void frameIn(std::uint32_t port, net::PacketPtr pkt);
    void fabricFrameIn(std::uint32_t port, net::PacketPtr pkt);
    void fabricIngressPass();
    void fabricRoute(std::uint32_t port, net::PacketPtr pkt);
    void egress(std::uint32_t port, net::PacketPtr pkt);

    bool portLiveAt(std::uint32_t port, sim::Tick now) const;
    void helloTick();
    void sendHello(std::uint32_t port);
    void crashNow(sim::Tick duration);
    void hangNow(sim::Tick duration);
    void portDownNow(std::uint32_t port, sim::Tick duration);
    void notifyUnreachable(const net::Packet &pkt);

    std::vector<std::unique_ptr<Port>> ports_;
    MacFib fib_;
    sim::Tick fwdLatency_;
    std::uint64_t egressCap_;

    /** Per-port egress backlog occupancy (flow telemetry): sampled
     *  at each admit, so congested ports show up in the
     *  hottest-queue report. */
    std::vector<std::unique_ptr<sim::QueueStat>> portBacklogQ_;

    std::unique_ptr<Fabric> fabric_;
    sim::Tick worstDetectLag_ = 0;

    sim::Scalar statForwarded_{"forwarded", "frames forwarded"};
    sim::Scalar statFlooded_{"flooded", "frames flooded"};
    sim::Scalar statDrops_{"drops", "frames tail-dropped"};
    sim::Scalar statFaultDrops_{"faultDrops",
                                "frames dropped by fault injection"};
    // Fabric-mode stats, registered by enableFabric() so plain
    // switches keep their exact pre-fabric stat registry.
    sim::Scalar statHelloTx_{"helloTx", "fabric hellos sent"};
    sim::Scalar statPortDown_{"portDownEvents",
                              "trunk ports seen going dead"};
    sim::Scalar statPortUp_{"portUpEvents",
                            "trunk ports seen coming back"};
    sim::Scalar statUnroutable_{"unroutableDrops",
                                "frames with no live next hop"};

    sim::FaultSite faultDrop_ = FAULT_POINT("drop");
};

} // namespace mcnsim::netdev

#endif // MCNSIM_NETDEV_ETHERNET_SWITCH_HH
