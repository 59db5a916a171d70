/**
 * @file
 * Full-duplex point-to-point Ethernet link: per-direction
 * serialization at the line rate plus propagation latency. The
 * baseline cluster's NICs and switch hang off these.
 *
 * Sharding (DESIGN.md §9): a link whose two endpoints live on the
 * same event queue delivers exactly as the serial engine always has
 * (one "link.deliver" event). When the endpoints live on *different*
 * shards the link becomes the shard boundary: delivery crosses via
 * the Simulation::postCrossShard mailbox, per-direction counters
 * stay shard-local (folded into the registered stats by
 * syncStats()), and the propagation latency is what the builders
 * register as the shard edge bounding the conservative lookahead.
 * Faults come only from the FaultPlan sites ("<link>.drop",
 * ".corrupt", ".dup", ".reorder", ".down"), which are sharded-safe:
 * the ShardSet runs windows serially while a plan is armed, keeping
 * per-site RNG draw order deterministic.
 */

#ifndef MCNSIM_NETDEV_ETHERNET_LINK_HH
#define MCNSIM_NETDEV_ETHERNET_LINK_HH

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "net/packet.hh"
#include "sim/fault.hh"
#include "sim/sim_object.hh"

namespace mcnsim::netdev {

/** Anything that can sit at the end of a link. */
class EtherEndpoint
{
  public:
    virtual ~EtherEndpoint() = default;

    /** A frame finished arriving from the attached link. */
    virtual void receiveFrame(net::PacketPtr pkt) = 0;

    /** Event queue this endpoint executes on, nullptr meaning "the
     *  link's own queue" (the unsharded default). Links compare the
     *  two ends' queues once at attach time to pick the same-shard
     *  or cross-shard delivery path. */
    virtual sim::EventQueue *endpointQueue() { return nullptr; }
};

/** A full-duplex link between two endpoints. */
class EthernetLink : public sim::SimObject
{
  public:
    EthernetLink(sim::Simulation &s, std::string name,
                 double bandwidth_bps, sim::Tick latency);

    void attachA(EtherEndpoint *ep);
    void attachB(EtherEndpoint *ep);

    /**
     * Transmit @p pkt from endpoint @p src toward the other end.
     * The link serialises frames FIFO per direction; delivery
     * happens serialization + latency later.
     */
    void sendFrom(EtherEndpoint *src, net::PacketPtr pkt);

    /**
     * Strict-priority control-frame path (802.1p-style): the frame
     * bypasses the data FIFO and backlog accounting and arrives one
     * frame-serialization plus the propagation latency from now, so
     * fabric liveness probes cannot be starved behind a congested
     * egress queue. Control frames still cross the deliver() fault
     * cascade: a downed or lossy link loses them like any other
     * frame, which is exactly what the dead-interval detector needs
     * to observe.
     */
    void sendControl(EtherEndpoint *src, net::PacketPtr pkt);

    /** Bytes queued-or-in-flight in @p src's direction. */
    std::uint64_t backlogBytes(const EtherEndpoint *src) const;

    sim::Tick latency() const { return latency_; }

    std::uint64_t framesDropped() const
    {
        return static_cast<std::uint64_t>(statDropped_.value()) +
               ab_.rxDropped + ba_.rxDropped - syncedDropped_;
    }
    std::uint64_t framesCorrupted() const
    {
        return static_cast<std::uint64_t>(statCorrupted_.value()) +
               ab_.rxCorrupted + ba_.rxCorrupted - syncedCorrupted_;
    }

    /** Fold the shard-local split-path counters into the registered
     *  Scalars (no-op on the classic same-queue path). */
    void syncStats() override;

    /** Cache scheduled "<name>.down" outage windows from the armed
     *  FaultPlan (spec: `at=` start, `param=` duration). */
    void startup() override;

    /** True while a scheduled link outage window covers @p now. */
    bool
    downAt(sim::Tick now) const
    {
        if (downWindows_.empty()) [[likely]]
            return false;
        return downAtSlow(now);
    }

  private:
    struct Direction
    {
        sim::Tick busyUntil = 0;
        /** Same-queue path: decremented by the delivery event.
         *  Split path: reconciled lazily against the sender's clock
         *  (mutable: reconciliation happens in const reads). */
        mutable std::uint64_t inFlightBytes = 0;
        /** Split path: (arrival tick, bytes) of frames on the wire.
         *  Touched only by the sending endpoint's shard. */
        mutable std::deque<std::pair<sim::Tick, std::uint64_t>>
            inFlight;
        // Split-path stat counters, single-writer by construction:
        // tx* belong to the sending shard, rx* to the receiving
        // shard. syncStats() folds them into the Scalars between
        // windows.
        std::uint64_t txFrames = 0;
        std::uint64_t txBytes = 0;
        std::uint64_t rxDropped = 0;
        std::uint64_t rxCorrupted = 0;
        std::uint64_t rxDuplicated = 0;
        std::uint64_t rxReordered = 0;
    };

    /** Arrival-side delivery through the FaultPlan
     *  down/drop/corrupt/dup/reorder sites. Runs on @p q (the
     *  receiver's queue); @p dir is the direction of travel. */
    void deliver(EtherEndpoint *dst_ep, net::PacketPtr pkt,
                 sim::EventQueue &q, Direction &dir, bool split);

    /** Retire wire entries that have arrived by @p now. */
    static void reconcile(const Direction &dir, sim::Tick now);

    bool downAtSlow(sim::Tick now) const;

    Direction &dirFor(const EtherEndpoint *src);
    const Direction &dirFor(const EtherEndpoint *src) const;

    EtherEndpoint *a_ = nullptr;
    EtherEndpoint *b_ = nullptr;
    sim::EventQueue *aQueue_ = nullptr;
    sim::EventQueue *bQueue_ = nullptr;
    bool split_ = false;
    double bandwidthBps_;
    sim::Tick latency_;
    /** Scheduled outage windows [start, end), cached at startup()
     *  from the plan's "<name>.down" hits. Empty in clean runs, so
     *  the deliver() check is one branch. */
    std::vector<std::pair<sim::Tick, sim::Tick>> downWindows_;
    Direction ab_, ba_;
    std::uint64_t syncedFrames_ = 0;
    std::uint64_t syncedBytes_ = 0;
    std::uint64_t syncedDropped_ = 0;
    std::uint64_t syncedCorrupted_ = 0;
    std::uint64_t syncedDuplicated_ = 0;
    std::uint64_t syncedReordered_ = 0;

    sim::Scalar statFrames_{"frames", "frames carried"};
    sim::Scalar statBytes_{"bytes", "bytes carried"};
    sim::Scalar statDropped_{"dropped", "frames dropped (faults)"};
    sim::Scalar statCorrupted_{"corrupted",
                               "frames corrupted (faults)"};
    sim::Scalar statDuplicated_{"duplicated",
                                "frames duplicated (faults)"};
    sim::Scalar statReordered_{"reordered",
                               "frames delayed out of order "
                               "(faults)"};

    sim::FaultSite faultDrop_ = FAULT_POINT("drop");
    sim::FaultSite faultCorrupt_ = FAULT_POINT("corrupt");
    sim::FaultSite faultDup_ = FAULT_POINT("dup");
    sim::FaultSite faultReorder_ = FAULT_POINT("reorder");
};

} // namespace mcnsim::netdev

#endif // MCNSIM_NETDEV_ETHERNET_LINK_HH
