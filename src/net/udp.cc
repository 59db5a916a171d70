/**
 * @file
 * UDP implementation.
 */

#include "net/udp.hh"

#include "net/checksum.hh"
#include "net/net_stack.hh"
#include "sim/flow_stats.hh"
#include "sim/simulation.hh"

namespace mcnsim::net {

namespace {

void
put16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v & 0xff);
}

std::uint16_t
get16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

} // namespace

void
UdpHeader::push(Packet &pkt, Ipv4Addr src, Ipv4Addr dst,
                bool compute_checksum) const
{
    std::size_t l4_len = pkt.size() + size;
    std::uint8_t *p = pkt.push(size);
    put16(p, srcPort);
    put16(p + 2, dstPort);
    put16(p + 4, static_cast<std::uint16_t>(l4_len));
    put16(p + 6, 0);
    if (compute_checksum) {
        std::uint32_t sum = pseudoHeaderSum(
            src.v, dst.v, protoUdp,
            static_cast<std::uint16_t>(l4_len));
        sum = checksumPartial(pkt, 0, l4_len, sum);
        put16(p + 6, checksumFold(sum));
    }
}

std::optional<UdpHeader>
UdpHeader::pull(Packet &pkt, Ipv4Addr src, Ipv4Addr dst,
                bool verify_checksum)
{
    if (pkt.size() < size)
        return std::nullopt;
    const std::uint8_t *p = pkt.cprefix(size);
    std::uint16_t cksum = get16(p + 6);
    if (verify_checksum && cksum != 0) {
        std::uint32_t sum = pseudoHeaderSum(
            src.v, dst.v, protoUdp,
            static_cast<std::uint16_t>(pkt.size()));
        sum = checksumPartial(pkt, 0, pkt.size(), sum);
        if (checksumFold(sum) != 0)
            return std::nullopt;
    }
    UdpHeader h;
    h.srcPort = get16(p);
    h.dstPort = get16(p + 2);
    h.length = get16(p + 4);
    h.checksum = cksum;
    pkt.pull(size);
    return h;
}

bool
UdpHeader::checksumOk(const Packet &pkt, Ipv4Addr src,
                      Ipv4Addr dst)
{
    if (pkt.size() < size)
        return true; // let pull() report the malformed datagram
    if (get16(pkt.cprefix(size) + 6) == 0)
        return true; // CHECKSUM_UNNECESSARY
    std::uint32_t sum = pseudoHeaderSum(
        src.v, dst.v, protoUdp,
        static_cast<std::uint16_t>(pkt.size()));
    sum = checksumPartial(pkt, 0, pkt.size(), sum);
    return checksumFold(sum) == 0;
}

UdpLayer::UdpLayer(sim::Simulation &s, std::string name,
                   NetStack &stack)
    : sim::SimObject(s, std::move(name)), stack_(stack)
{
    regStat(&statRx_);
    regStat(&statTx_);
    regStat(&statCsumDrops_);
    regStat(&statDrops_);
}

UdpSocketPtr
UdpLayer::createSocket()
{
    // Per-layer id, as in TcpLayer::createSocket: process-global
    // counters are cross-shard data races.
    return std::make_shared<UdpSocket>(
        *this, name() + ".sock" + std::to_string(nextSockId_++));
}

void
UdpLayer::bindPort(std::uint16_t port, UdpSocketPtr sock)
{
    bound_[port] = std::move(sock);
}

void
UdpLayer::unbindPort(std::uint16_t port)
{
    bound_.erase(port);
}

void
UdpLayer::rx(Ipv4Addr src, Ipv4Addr dst, PacketPtr pkt,
             bool verify_checksum)
{
    statRx_ += 1;
    if (verify_checksum && !UdpHeader::checksumOk(*pkt, src, dst)) {
        statCsumDrops_ += 1;
        statDrops_ += 1;
        return;
    }
    auto h = UdpHeader::pull(*pkt, src, dst,
                             /*verify_checksum=*/false);
    if (!h) {
        statDrops_ += 1;
        return;
    }
    auto it = bound_.find(h->dstPort);
    if (it == bound_.end()) {
        statDrops_ += 1;
        return;
    }
    it->second->datagramArrived(src, h->srcPort, dst,
                                std::move(pkt));
}

UdpSocket::UdpSocket(UdpLayer &layer, std::string name)
    : layer_(layer), stack_(layer.stack()), name_(std::move(name)),
      rxCv_(layer.eventQueue())
{}

std::uint16_t
UdpSocket::bind(std::uint16_t port)
{
    localPort_ = port ? port : layer_.allocEphemeralPort();
    layer_.bindPort(localPort_, shared_from_this());
    return localPort_;
}

bool
UdpSocket::sendTo(Ipv4Addr dst, std::uint16_t port,
                  std::vector<std::uint8_t> data)
{
    if (localPort_ == 0)
        bind(0);
    std::uint32_t mtu = stack_.pathMtu(dst);
    if (data.size() + UdpHeader::size + Ipv4Header::size > mtu)
        return false;

    if (!stack_.interfaces().route(dst))
        return false;
    Ipv4Addr src = stack_.sourceAddrFor(dst);

    auto pkt = Packet::make(std::move(data));
    UdpHeader h;
    h.srcPort = localPort_;
    h.dstPort = port;
    bool sw_checksum = !(stack_.checksumBypass() &&
                         stack_.trustedTowards(dst)) &&
                       !stack_.checksumOffloadTowards(dst);
    h.push(*pkt, src, dst, sw_checksum);

    layer_.statTx_ += 1;
    if (sim::FlowTelemetry::active()) [[unlikely]] {
        sim::FlowTelemetry::FlowKey k;
        k.srcIp = src.v;
        k.dstIp = dst.v;
        k.srcPort = localPort_;
        k.dstPort = port;
        k.proto = protoUdp;
        sim::FlowTelemetry::instance().recordTx(
            layer_.shardId(), k, pkt->size(), layer_.curTick());
    }
    const auto &costs = stack_.kernel().costs();
    sim::Cycles cycles = costs.udpTxPerPacket + costs.skbAlloc +
                         costs.syscallEntry;
    if (sw_checksum)
        cycles += costs.checksum(pkt->size());
    auto self = shared_from_this();
    stack_.kernel().cpus().leastLoaded().execute(
        cycles, [self, src, dst, pkt](sim::Tick) {
            self->stack_.sendIp(src, dst, protoUdp, pkt);
        });
    return true;
}

sim::Task<Datagram>
UdpSocket::recvFrom()
{
    auto self = shared_from_this();
    while (rxQueue_.empty())
        co_await rxCv_.wait();
    Datagram d = std::move(rxQueue_.front());
    rxQueue_.pop_front();
    const auto &costs = stack_.kernel().costs();
    co_await stack_.kernel().cpus().leastLoaded().run(
        costs.syscallEntry + costs.copy(d.data.size()));
    co_return d;
}

void
UdpSocket::close()
{
    if (localPort_)
        layer_.unbindPort(localPort_);
    localPort_ = 0;
}

void
UdpSocket::datagramArrived(Ipv4Addr src, std::uint16_t src_port,
                           Ipv4Addr dst, PacketPtr pkt)
{
    if (rxQueue_.size() >= rxQueueCap)
        return; // tail drop
    Datagram d;
    d.srcAddr = src;
    d.srcPort = src_port;
    d.data = pkt->bytes();
    if (sim::FlowTelemetry::active()) [[unlikely]] {
        sim::FlowTelemetry::FlowKey k;
        k.srcIp = src.v;
        k.dstIp = dst.v;
        k.srcPort = src_port;
        k.dstPort = localPort_;
        k.proto = protoUdp;
        recordDelivery(*pkt, layer_.shardId(), k,
                       layer_.name().c_str(), layer_.curTick());
    }
    rxQueue_.push_back(std::move(d));
    rxCv_.notifyAll();
}

} // namespace mcnsim::net
