/**
 * @file
 * ICMP echo implementation.
 */

#include "net/icmp.hh"

#include "net/checksum.hh"
#include "net/net_stack.hh"
#include "net/tcp.hh"
#include "sim/flow_stats.hh"
#include "sim/simulation.hh"

namespace mcnsim::net {

namespace {

/** Flow-telemetry key for an echo flow: the ICMP identifier plays
 *  the srcPort role (there are no ports). */
sim::FlowTelemetry::FlowKey
echoKey(Ipv4Addr src, Ipv4Addr dst, std::uint16_t id)
{
    sim::FlowTelemetry::FlowKey k;
    k.srcIp = src.v;
    k.dstIp = dst.v;
    k.srcPort = id;
    k.dstPort = 0;
    k.proto = protoIcmp;
    return k;
}

} // namespace

void
IcmpHeader::push(Packet &pkt, bool compute_checksum) const
{
    std::size_t len = pkt.size() + size;
    std::uint8_t *p = pkt.push(size);
    p[0] = type;
    p[1] = code;
    p[2] = p[3] = 0; // checksum placeholder
    p[4] = static_cast<std::uint8_t>(id >> 8);
    p[5] = static_cast<std::uint8_t>(id & 0xff);
    p[6] = static_cast<std::uint8_t>(seqNo >> 8);
    p[7] = static_cast<std::uint8_t>(seqNo & 0xff);
    if (compute_checksum) {
        // Summed through the packet: a lazy payload extent is read
        // in closed form, not from (unwritten) memory.
        std::uint16_t c = checksumFold(checksumPartial(pkt, 0, len));
        p[2] = static_cast<std::uint8_t>(c >> 8);
        p[3] = static_cast<std::uint8_t>(c & 0xff);
    }
}

std::optional<IcmpHeader>
IcmpHeader::pull(Packet &pkt, bool verify_checksum)
{
    if (pkt.size() < size)
        return std::nullopt;
    const std::uint8_t *p = pkt.cprefix(size);
    bool has_cksum = p[2] != 0 || p[3] != 0;
    if (verify_checksum && has_cksum &&
        checksumFold(checksumPartial(pkt, 0, pkt.size())) != 0)
        return std::nullopt;
    IcmpHeader h;
    h.type = p[0];
    h.code = p[1];
    h.id = static_cast<std::uint16_t>((p[4] << 8) | p[5]);
    h.seqNo = static_cast<std::uint16_t>((p[6] << 8) | p[7]);
    pkt.pull(size);
    return h;
}

IcmpLayer::IcmpLayer(sim::Simulation &s, std::string name,
                     NetStack &stack)
    : sim::SimObject(s, std::move(name)), stack_(stack),
      // Bind to this node's own queue (the SimObject's shard), not
      // s.eventQueue(): notifying a primary-queue condition from a
      // node shard would be a cross-shard schedule.
      replyCv_(eventQueue())
{
    regStat(&statEchoReq_);
    regStat(&statEchoRep_);
    regStat(&statUnreachRx_);
    regStat(&statUnreachTx_);
    regStat(&statUnreachLocal_);
}

IcmpLayer::PendingPing *
IcmpLayer::findPending(std::uint16_t id)
{
    for (auto &p : pending_)
        if (p.id == id)
            return &p;
    return nullptr;
}

void
IcmpLayer::failPingsToward(Ipv4Addr about)
{
    bool woke = false;
    for (auto &ping : pending_) {
        if (ping.dst == about && !ping.done) {
            ping.done = true;
            ping.unreachable = true;
            woke = true;
        }
    }
    if (woke)
        replyCv_.notifyAll();
}

void
IcmpLayer::notifyUnreachable(Ipv4Addr about)
{
    statUnreachLocal_ += 1;
    trace("IRQ", "partition notice for ", about.str());
    failPingsToward(about);
    // Established connections too: the fabric says there is no path
    // at all, so waiting out the retransmission backoff is futile.
    stack_.tcp().peerPartitioned(about);
}

void
IcmpLayer::rx(Ipv4Addr src, Ipv4Addr dst, PacketPtr pkt,
              bool verify_checksum)
{
    auto h = IcmpHeader::pull(*pkt, verify_checksum);
    if (!h)
        return;

    if (h->type == icmpDestUnreachable) {
        // Payload: the 4-byte address the reporter could not reach.
        statUnreachRx_ += 1;
        if (pkt->size() < 4)
            return;
        const std::uint8_t *p = pkt->cprefix(4);
        Ipv4Addr about(static_cast<std::uint32_t>(
            (std::uint32_t(p[0]) << 24) |
            (std::uint32_t(p[1]) << 16) |
            (std::uint32_t(p[2]) << 8) | p[3]));
        trace("IRQ", "dest-unreachable for ", about.str(),
              " from ", src.str());
        failPingsToward(about);
        // Hard error for connections still in handshake.
        stack_.tcp().remoteUnreachable(about);
        return;
    }

    if (sim::FlowTelemetry::active() &&
        (h->type == icmpEchoRequest || h->type == icmpEchoReply))
        [[unlikely]]
        recordDelivery(*pkt, shardId(), echoKey(src, dst, h->id),
                       name().c_str(), curTick());

    if (h->type == icmpEchoRequest) {
        statEchoReq_ += 1;
        // Reflect the payload back to the sender: a fresh view of
        // the request's bytes (default metadata, as a copy would
        // have), so a lazy payload stays unwritten.
        auto reply = pkt->view();
        IcmpHeader rh = *h;
        rh.type = icmpEchoReply;
        rh.push(*reply, !(stack_.checksumBypass() &&
                          stack_.trustedTowards(src)));
        if (sim::FlowTelemetry::active()) [[unlikely]]
            sim::FlowTelemetry::instance().recordTx(
                shardId(), echoKey(dst, src, h->id),
                reply->size(), curTick());

        const auto &costs = stack_.kernel().costs();
        stack_.kernel().cpus().leastLoaded().execute(
            costs.icmpPerPacket,
            [this, src, dst, reply](sim::Tick) {
                stack_.sendIp(dst, src, protoIcmp, reply);
            });
    } else if (h->type == icmpEchoReply) {
        statEchoRep_ += 1;
        PendingPing *ping = findPending(h->id);
        if (ping && !ping->done) {
            ping->done = true;
            ping->rtt = curTick() - ping->sentAt;
            if (sim::FlowTelemetry::active()) [[unlikely]]
                sim::FlowTelemetry::instance().recordRtt(
                    shardId(), echoKey(dst, src, h->id), ping->rtt);
            replyCv_.notifyAll();
        }
    }
}

sim::Task<sim::Tick>
IcmpLayer::ping(Ipv4Addr dst, std::size_t payload_bytes,
                sim::Tick timeout, unsigned retries)
{
    const auto &costs = stack_.kernel().costs();
    if (!stack_.interfaces().route(dst))
        co_return sim::maxTick;

    for (unsigned attempt = 0; attempt <= retries; ++attempt) {
        std::uint16_t id = nextId_++;
        PendingPing &entry = pending_.emplace_back();
        entry.id = id;
        entry.sentAt = curTick();
        entry.dst = dst;

        auto pkt = Packet::makePattern(
            payload_bytes, static_cast<std::uint8_t>(id));
        IcmpHeader h;
        h.type = icmpEchoRequest;
        h.id = id;
        h.seqNo = static_cast<std::uint16_t>(attempt + 1);
        h.push(*pkt, !(stack_.checksumBypass() &&
                       stack_.trustedTowards(dst)));

        Ipv4Addr src = stack_.sourceAddrFor(dst);
        if (sim::FlowTelemetry::active()) [[unlikely]]
            sim::FlowTelemetry::instance().recordTx(
                shardId(), echoKey(src, dst, id), pkt->size(),
                curTick());
        stack_.kernel().cpus().leastLoaded().execute(
            costs.icmpPerPacket + costs.syscallEntry,
            [this, src, dst, pkt](sim::Tick) {
                stack_.sendIp(src, dst, protoIcmp, pkt);
            });

        sim::Tick deadline = curTick() + timeout;
        while (!findPending(id)->done && curTick() < deadline) {
            // Wake either on a reply or at the deadline. `fired`
            // tells us whether the wake event is still pending: its
            // Event* is dead (recycled into the pool) once it has
            // run, so it must not be inspected after the fact.
            bool fired = false;
            auto *wake = eventQueue().scheduleIn(
                [this, &fired] {
                    fired = true;
                    replyCv_.notifyAll();
                },
                deadline > curTick() ? deadline - curTick() : 1,
                "icmp.pingTimeout");
            co_await replyCv_.wait();
            if (!fired)
                eventQueue().deschedule(wake);
        }

        PendingPing *slot = findPending(id);
        const PendingPing result = *slot;
        *slot = pending_.back();
        pending_.pop_back();
        if (result.done && !result.unreachable)
            co_return result.rtt;
        if (result.unreachable)
            break; // hard failure; retrying cannot help
    }
    co_return sim::maxTick;
}

void
IcmpLayer::sendUnreachable(Ipv4Addr to, Ipv4Addr about)
{
    if (!stack_.interfaces().route(to))
        return;
    statUnreachTx_ += 1;
    auto pkt = Packet::makeFilled(4, [about](std::uint8_t *p) {
        p[0] = static_cast<std::uint8_t>(about.v >> 24);
        p[1] = static_cast<std::uint8_t>(about.v >> 16);
        p[2] = static_cast<std::uint8_t>(about.v >> 8);
        p[3] = static_cast<std::uint8_t>(about.v);
    });
    IcmpHeader h;
    h.type = icmpDestUnreachable;
    h.code = 1; // host unreachable
    h.push(*pkt, !(stack_.checksumBypass() &&
                   stack_.trustedTowards(to)));

    Ipv4Addr src = stack_.sourceAddrFor(to);
    stack_.kernel().cpus().leastLoaded().execute(
        stack_.kernel().costs().icmpPerPacket,
        [this, src, to, pkt](sim::Tick) {
            stack_.sendIp(src, to, protoIcmp, pkt);
        });
}

} // namespace mcnsim::net
