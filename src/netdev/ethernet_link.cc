/**
 * @file
 * EthernetLink implementation.
 */

#include "netdev/ethernet_link.hh"

#include <algorithm>

#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::netdev {

EthernetLink::EthernetLink(sim::Simulation &s, std::string name,
                           double bandwidth_bps, sim::Tick latency)
    : sim::SimObject(s, std::move(name)),
      bandwidthBps_(bandwidth_bps), latency_(latency)
{
    if (bandwidth_bps <= 0.0)
        sim::fatal(this->name(), ": bandwidth must be > 0");
    regStat(&statFrames_);
    regStat(&statBytes_);
    regStat(&statDropped_);
    regStat(&statCorrupted_);
    regStat(&statDuplicated_);
    regStat(&statReordered_);
}

void
EthernetLink::attachA(EtherEndpoint *ep)
{
    a_ = ep;
    sim::EventQueue *q = ep ? ep->endpointQueue() : nullptr;
    aQueue_ = q ? q : &eventQueue();
    split_ = aQueue_ && bQueue_ && aQueue_ != bQueue_;
}

void
EthernetLink::attachB(EtherEndpoint *ep)
{
    b_ = ep;
    sim::EventQueue *q = ep ? ep->endpointQueue() : nullptr;
    bQueue_ = q ? q : &eventQueue();
    split_ = aQueue_ && bQueue_ && aQueue_ != bQueue_;
}

EthernetLink::Direction &
EthernetLink::dirFor(const EtherEndpoint *src)
{
    return src == a_ ? ab_ : ba_;
}

const EthernetLink::Direction &
EthernetLink::dirFor(const EtherEndpoint *src) const
{
    return src == a_ ? ab_ : ba_;
}

void
EthernetLink::reconcile(const Direction &dir, sim::Tick now)
{
    while (!dir.inFlight.empty() &&
           dir.inFlight.front().first <= now) {
        dir.inFlightBytes -= dir.inFlight.front().second;
        dir.inFlight.pop_front();
    }
}

std::uint64_t
EthernetLink::backlogBytes(const EtherEndpoint *src) const
{
    const Direction &dir = dirFor(src);
    if (split_) [[unlikely]]
        reconcile(dir,
                  (src == a_ ? aQueue_ : bQueue_)->curTick());
    return dir.inFlightBytes;
}

void
EthernetLink::syncStats()
{
    if (!split_)
        return;
    auto fold = [](sim::Scalar &s, std::uint64_t total,
                   std::uint64_t &synced) {
        s += static_cast<double>(total - synced);
        synced = total;
    };
    fold(statFrames_, ab_.txFrames + ba_.txFrames, syncedFrames_);
    fold(statBytes_, ab_.txBytes + ba_.txBytes, syncedBytes_);
    fold(statDropped_, ab_.rxDropped + ba_.rxDropped,
         syncedDropped_);
    fold(statCorrupted_, ab_.rxCorrupted + ba_.rxCorrupted,
         syncedCorrupted_);
    fold(statDuplicated_, ab_.rxDuplicated + ba_.rxDuplicated,
         syncedDuplicated_);
    fold(statReordered_, ab_.rxReordered + ba_.rxReordered,
         syncedReordered_);
}

void
EthernetLink::sendFrom(EtherEndpoint *src, net::PacketPtr pkt)
{
    MCNSIM_ASSERT(src == a_ || src == b_, "unattached sender");
    EtherEndpoint *dst_ep = src == a_ ? b_ : a_;
    MCNSIM_ASSERT(dst_ep, "link has a dangling end");

    Direction &dir = dirFor(src);
    sim::EventQueue &srcQ = src == a_ ? *aQueue_ : *bQueue_;
    std::uint64_t bytes = pkt->size();

    // FIFO serialization at the line rate. The sender's clock is
    // authoritative: on the classic path it equals the link's own
    // queue; on the split path it is the sending shard's clock.
    double ser_secs = static_cast<double>(bytes) * 8.0 /
                      bandwidthBps_;
    sim::Tick ser = std::max<sim::Tick>(
        1, sim::secondsToTicks(ser_secs));
    sim::Tick start = std::max(srcQ.curTick(), dir.busyUntil);
    dir.busyUntil = start + ser;
    sim::Tick arrive = dir.busyUntil + latency_;

    if (!split_) {
        // Same-queue path: eager Scalars and one delivery event per
        // frame.
        statFrames_ += 1;
        statBytes_ += static_cast<double>(bytes);
        dir.inFlightBytes += bytes;
        srcQ.schedule(
            [this, dst_ep, pkt = std::move(pkt), bytes, src] {
                Direction &d = dirFor(src);
                d.inFlightBytes -= bytes;
                deliver(dst_ep, pkt, *aQueue_, d, false);
            },
            arrive, "link.deliver");
        return;
    }

    // Cross-shard path: every mutation stays on the sender's shard
    // (tx counters, the wire deque); delivery crosses through the
    // deterministic mailbox. The propagation latency is >= the
    // registered shard-edge latency, so `arrive` always clears the
    // lookahead horizon.
    dir.txFrames += 1;
    dir.txBytes += bytes;
    reconcile(dir, srcQ.curTick());
    dir.inFlightBytes += bytes;
    dir.inFlight.emplace_back(arrive, bytes);
    sim::EventQueue &dstQ = src == a_ ? *bQueue_ : *aQueue_;
    simulation().postCrossShard(
        srcQ.shardIndex(), dstQ.shardIndex(), arrive,
        sim::EventPriority::Default, "link.deliver",
        [this, dst_ep, pkt, src] {
            sim::EventQueue &q = src == a_ ? *bQueue_ : *aQueue_;
            deliver(dst_ep, pkt, q, dirFor(src), true);
        });
}

void
EthernetLink::startup()
{
    if (!sim::FaultPlan::active())
        return;
    auto &plan = sim::FaultPlan::instance();
    for (const auto &hit : plan.scheduledFor(name() + ".down")) {
        const sim::Tick dur =
            hit.param ? hit.param : 500 * sim::oneUs;
        downWindows_.emplace_back(hit.at, hit.at + dur);
        // The window itself is checked passively in deliver(); this
        // event only reports the fire so chaos accounting sees it.
        eventQueue().schedule(
            [this] { sim::reportScheduledFault(*this, "down"); },
            hit.at, "fault.down");
    }
}

bool
EthernetLink::downAtSlow(sim::Tick now) const
{
    for (const auto &[from, until] : downWindows_)
        if (now >= from && now < until)
            return true;
    return false;
}

void
EthernetLink::sendControl(EtherEndpoint *src, net::PacketPtr pkt)
{
    MCNSIM_ASSERT(src == a_ || src == b_, "unattached sender");
    EtherEndpoint *dst_ep = src == a_ ? b_ : a_;
    MCNSIM_ASSERT(dst_ep, "link has a dangling end");

    Direction &dir = dirFor(src);
    sim::EventQueue &srcQ = src == a_ ? *aQueue_ : *bQueue_;
    std::uint64_t bytes = pkt->size();
    double ser_secs = static_cast<double>(bytes) * 8.0 /
                      bandwidthBps_;
    sim::Tick ser = std::max<sim::Tick>(
        1, sim::secondsToTicks(ser_secs));
    // Strict priority: one frame's serialization plus propagation,
    // independent of the data FIFO's busyUntil/backlog state.
    sim::Tick arrive = srcQ.curTick() + ser + latency_;

    if (!split_) {
        statFrames_ += 1;
        statBytes_ += static_cast<double>(bytes);
        srcQ.schedule(
            [this, dst_ep, pkt, src] {
                deliver(dst_ep, pkt, *aQueue_, dirFor(src), false);
            },
            arrive, "link.ctrl");
        return;
    }
    dir.txFrames += 1;
    dir.txBytes += bytes;
    sim::EventQueue &dstQ = src == a_ ? *bQueue_ : *aQueue_;
    simulation().postCrossShard(
        srcQ.shardIndex(), dstQ.shardIndex(), arrive,
        sim::EventPriority::Default, "link.ctrl",
        [this, dst_ep, pkt, src] {
            sim::EventQueue &q = src == a_ ? *bQueue_ : *aQueue_;
            deliver(dst_ep, pkt, q, dirFor(src), true);
        });
}

void
EthernetLink::deliver(EtherEndpoint *dst_ep, net::PacketPtr pkt,
                      sim::EventQueue &q, Direction &dir, bool split)
{
    // Fault injection: transient loss and bit errors, the
    // physical-link hazards the paper contrasts with the
    // ECC/CRC-protected memory channel (Sec. IV-A). The FaultPlan
    // sites use per-site streams, so an armed-but-silent plan cannot
    // perturb modeled timing. On the split path the stat increment
    // lands in the receiver shard's plain counter instead of the
    // Scalar.
    if (downAt(q.curTick())) [[unlikely]] {
        // Scheduled outage window: the cable is unplugged, so
        // everything in flight -- data and fabric hellos alike --
        // is lost until the window closes.
        if (split)
            dir.rxDropped += 1;
        else
            statDropped_ += 1;
        return;
    }
    if (faultDrop_.fires()) {
        if (split)
            dir.rxDropped += 1;
        else
            statDropped_ += 1;
        return;
    }
    if (pkt->size() > 60 && faultCorrupt_.fires()) {
        // Flip one payload byte past the L2-L4 headers so the
        // frame stays parseable; checksums (when enabled) must
        // catch this.
        std::size_t idx =
            faultCorrupt_.rng().uniformInt(54, pkt->size() - 1);
        pkt->data()[idx] ^= 0x40;
        if (split)
            dir.rxCorrupted += 1;
        else
            statCorrupted_ += 1;
    }
    if (faultReorder_.fires()) {
        // Bounded reorder: hold this frame back so frames behind
        // it overtake; redeliver after the spec's param (default
        // 5 us) without re-rolling the fault dice.
        if (split)
            dir.rxReordered += 1;
        else
            statReordered_ += 1;
        sim::Tick delay = faultReorder_.param()
                              ? faultReorder_.param()
                              : 5 * sim::oneUs;
        q.scheduleIn(
            [this, dst_ep, pkt, &q] {
                pkt->stamp(net::Stage::Phy, name().c_str(),
                           q.curTick());
                dst_ep->receiveFrame(pkt);
            },
            delay, "link.reorder");
        return;
    }
    if (faultDup_.fires()) {
        if (split)
            dir.rxDuplicated += 1;
        else
            statDuplicated_ += 1;
        dst_ep->receiveFrame(pkt->clone());
    }
    pkt->stamp(net::Stage::Phy, name().c_str(), q.curTick());
    dst_ep->receiveFrame(pkt);
}

} // namespace mcnsim::netdev
