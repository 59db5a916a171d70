/**
 * @file
 * NetStack implementation: interface bookkeeping, the IP send and
 * receive paths, and loopback.
 */

#include "net/net_stack.hh"

#include <algorithm>

#include "net/checksum.hh"
#include "net/icmp.hh"
#include "net/tcp.hh"
#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::net {

namespace {
/** Retry interval when a device reports NETDEV_TX_BUSY. */
constexpr sim::Tick txRequeueDelay = 5 * sim::oneUs;
/** qdisc depth per device; beyond this, tail drop. */
constexpr std::size_t txQdiscCap = 4096;

/** Offset of the checksum field in the TCP header. */
constexpr std::size_t tcpCsumOffset = 16;

/**
 * Fill a bypassed (zero) TCP checksum in a forwarded segment:
 * the relay work a gateway does when traffic leaves the protected
 * memory channel for an untrusted hop under mcn2. Returns true
 * when a checksum was computed.
 */
bool
tcpChecksumFill(Packet &pkt, Ipv4Addr src, Ipv4Addr dst,
                std::uint8_t proto)
{
    constexpr std::size_t off = tcpCsumOffset;
    if (proto != protoTcp || pkt.size() < off + 2)
        return false;
    const std::uint8_t *cp = pkt.cprefix(off + 2);
    if (cp[off] != 0 || cp[off + 1] != 0)
        return false; // sender already checksummed
    std::uint32_t sum = pseudoHeaderSum(
        src.v, dst.v, proto,
        static_cast<std::uint16_t>(pkt.size()));
    sum = checksumPartial(pkt, 0, pkt.size(), sum);
    const std::uint16_t c = checksumFold(sum);
    std::uint8_t *p = pkt.prefix(off + 2);
    p[off] = static_cast<std::uint8_t>(c >> 8);
    p[off + 1] = static_cast<std::uint8_t>(c & 0xff);
    return true;
}

/** Verify a forwarded segment's TCP checksum at the trust
 *  boundary; a zero (bypassed) checksum is unverifiable and
 *  passes. */
bool
tcpChecksumOk(const Packet &pkt, Ipv4Addr src, Ipv4Addr dst,
              std::uint8_t proto)
{
    constexpr std::size_t off = tcpCsumOffset;
    if (proto != protoTcp || pkt.size() < off + 2)
        return true;
    const std::uint8_t *p = pkt.cprefix(off + 2);
    if (p[off] == 0 && p[off + 1] == 0)
        return true; // CHECKSUM_UNNECESSARY
    std::uint32_t sum = pseudoHeaderSum(
        src.v, dst.v, proto,
        static_cast<std::uint16_t>(pkt.size()));
    sum = checksumPartial(pkt, 0, pkt.size(), sum);
    return checksumFold(sum) == 0;
}

} // namespace

NetStack::NetStack(sim::Simulation &s, std::string name,
                   os::Kernel &kernel)
    : sim::SimObject(s, std::move(name)), kernel_(kernel)
{
    tcp_ = std::make_unique<TcpLayer>(s, this->name() + ".tcp",
                                      *this);
    icmp_ = std::make_unique<IcmpLayer>(s, this->name() + ".icmp",
                                        *this);
    kernel.setNetStack(this);

    regStat(&statIpTx_);
    regStat(&statIpRx_);
    regStat(&statIpDrops_);
    regStat(&statLoopback_);
    regStat(&statRxCsumDrops_);
}

NetStack::~NetStack() = default;

int
NetStack::addInterface(os::NetDevice &dev, Ipv4Addr addr,
                       SubnetMask mask)
{
    int ifindex = registerDevice(dev);
    table_.addOwn(addr);
    table_.add(ifindex, addr, mask);
    return ifindex;
}

int
NetStack::addPointToPoint(os::NetDevice &dev, Ipv4Addr peer)
{
    int ifindex = registerDevice(dev);
    table_.add(ifindex, peer, SubnetMask::exact());
    return ifindex;
}

int
NetStack::registerDevice(os::NetDevice &dev)
{
    int ifindex = static_cast<int>(devices_.size());
    devices_.push_back(&dev);
    dev.setIfindex(ifindex);
    dev.setRxHandler([this](os::NetDevice &d, PacketPtr pkt) {
        rxFromDevice(d, std::move(pkt));
    });
    return ifindex;
}

os::NetDevice *
NetStack::device(int ifindex)
{
    if (ifindex < 0 ||
        static_cast<std::size_t>(ifindex) >= devices_.size())
        return nullptr;
    return devices_[static_cast<std::size_t>(ifindex)];
}

void
NetStack::setNodeAddress(Ipv4Addr addr)
{
    table_.addOwn(addr);
}

Ipv4Addr
NetStack::sourceAddrFor(Ipv4Addr dst) const
{
    auto egress = table_.route(dst);
    if (egress && *egress == InterfaceTable::loopbackIfindex)
        return dst; // talking to ourselves
    return primaryAddr();
}

Ipv4Addr
NetStack::primaryAddr() const
{
    if (table_.ownAddrs().empty())
        return Ipv4Addr(127, 0, 0, 1);
    return table_.ownAddrs().front();
}

namespace {

bool
ipBefore(const std::pair<std::uint32_t, MacAddr> &e, std::uint32_t ip)
{
    return e.first < ip;
}

} // namespace

void
NetStack::addNeighbor(Ipv4Addr ip, MacAddr mac)
{
    auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(),
                               ip.v, ipBefore);
    if (it != neighbors_.end() && it->first == ip.v)
        it->second = mac;
    else
        neighbors_.insert(it, {ip.v, mac});
}

std::optional<MacAddr>
NetStack::neighbor(Ipv4Addr ip) const
{
    auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(),
                               ip.v, ipBefore);
    if (it == neighbors_.end() || it->first != ip.v)
        return defaultNeighbor_;
    return it->second;
}

std::uint32_t
NetStack::pathMtu(Ipv4Addr dst) const
{
    auto egress = table_.route(dst);
    if (!egress || *egress == InterfaceTable::loopbackIfindex)
        return 65535;
    return devices_[static_cast<std::size_t>(*egress)]->mtu();
}

bool
NetStack::tsoTowards(Ipv4Addr dst) const
{
    auto egress = table_.route(dst);
    if (!egress || *egress == InterfaceTable::loopbackIfindex)
        return false;
    return devices_[static_cast<std::size_t>(*egress)]
        ->features()
        .tso;
}

bool
NetStack::checksumOffloadTowards(Ipv4Addr dst) const
{
    auto egress = table_.route(dst);
    if (!egress || *egress == InterfaceTable::loopbackIfindex)
        return true; // loopback never checksums
    return devices_[static_cast<std::size_t>(*egress)]
        ->features()
        .checksumOffload;
}

bool
NetStack::trustedTowards(Ipv4Addr dst) const
{
    auto egress = table_.route(dst);
    if (!egress || *egress == InterfaceTable::loopbackIfindex)
        return true; // loopback cannot corrupt
    return devices_[static_cast<std::size_t>(*egress)]
        ->features()
        .trusted;
}

bool
NetStack::sendIp(Ipv4Addr src, Ipv4Addr dst, std::uint8_t proto,
                 PacketPtr pkt)
{
    auto egress = table_.route(dst);
    if (!egress) {
        statIpDrops_ += 1;
        return false;
    }

    Ipv4Header ip;
    ip.src = src;
    ip.dst = dst;
    ip.protocol = proto;
    ip.id = nextIpId_++;
    ip.totalLength = static_cast<std::uint16_t>(
        pkt->size() + Ipv4Header::size);
    // mcn2 bypass applies per hop: only egresses onto the trusted
    // memory channel (or loopback) may skip the header checksum;
    // an uplink NIC hop is always covered.
    const bool egress_trusted =
        *egress == InterfaceTable::loopbackIfindex ||
        devices_[static_cast<std::size_t>(*egress)]
            ->features()
            .trusted;
    ip.push(*pkt, !(checksumBypass_ && egress_trusted));
    statIpTx_ += 1;

    if (*egress == InterfaceTable::loopbackIfindex) {
        statLoopback_ += 1;
        // Small fixed loopback cost, then straight back up.
        kernel_.cpus().leastLoaded().execute(
            kernel_.costs().skbAlloc, [this, pkt](sim::Tick) {
                handleIp(pkt, /*trusted_hop=*/true);
            });
        return true;
    }

    os::NetDevice *dev =
        devices_[static_cast<std::size_t>(*egress)];
    auto mac = neighbor(dst);
    if (!mac) {
        statIpDrops_ += 1;
        return false;
    }

    EthernetHeader eth;
    eth.dst = *mac;
    eth.src = dev->mac();
    eth.push(*pkt);
    pkt->stamp(Stage::StackTx, name().c_str(), curTick());

    qdiscXmit(dev, std::move(pkt));
    return true;
}

void
NetStack::qdiscXmit(os::NetDevice *dev, PacketPtr pkt)
{
    // qdisc semantics: NETDEV_TX_BUSY parks the packet; a periodic
    // kick retries FIFO until the device accepts. TCP never loses
    // packets to a busy ring -- only to a full qdisc (tail drop),
    // exactly as in Linux.
    TxQueue &q = txQueues_[dev];
    if (q.parked.empty() && dev->xmit(pkt) == os::TxResult::Ok)
        return;
    if (q.parked.size() >= txQdiscCap) {
        statIpDrops_ += 1;
        return;
    }
    q.parked.push_back(std::move(pkt));
    if (!q.armed) {
        q.armed = true;
        eventQueue().scheduleIn([this, dev] { pumpTxQueue(dev); },
                                txRequeueDelay, "netstack.qdisc");
    }
}

void
NetStack::pumpTxQueue(os::NetDevice *dev)
{
    TxQueue &q = txQueues_[dev];
    while (!q.parked.empty() &&
           dev->xmit(q.parked.front()) == os::TxResult::Ok)
        q.parked.pop_front();
    if (!q.parked.empty()) {
        eventQueue().scheduleIn([this, dev] { pumpTxQueue(dev); },
                                txRequeueDelay, "netstack.qdisc");
    } else {
        q.armed = false;
    }
}

void
NetStack::rxFromDevice(os::NetDevice &dev, PacketPtr pkt)
{
    EthernetHeader eth = EthernetHeader::pull(*pkt);
    if (!(eth.dst == dev.mac()) && !eth.dst.isBroadcast()) {
        statIpDrops_ += 1;
        return;
    }
    if (eth.type != ethTypeIpv4) {
        statIpDrops_ += 1;
        return;
    }
    handleIp(std::move(pkt), dev.features().trusted);
}

void
NetStack::handleIp(PacketPtr pkt, bool trusted_hop)
{
    // Verify-on-RX policy: checksum bypass (mcn2) is honored only
    // when the packet arrived over a trusted hop (memory channel /
    // loopback); anything from an untrusted device is verified.
    const bool verify = !(checksumBypass_ && trusted_hop);
    if (verify && pkt->size() >= Ipv4Header::size) {
        const std::uint8_t *h = pkt->cprefix(Ipv4Header::size);
        if ((h[0] >> 4) == 4 && checksum(h, Ipv4Header::size) != 0) {
            statRxCsumDrops_ += 1;
            statIpDrops_ += 1;
            return;
        }
    }
    auto ip = Ipv4Header::pull(*pkt, /*verify_checksum=*/false);
    if (!ip) {
        statIpDrops_ += 1;
        return;
    }
    statIpRx_ += 1;

    if (!table_.isLocal(ip->dst) && !ip->dst.isLoopback()) {
        // Plain hosts drop; an MCN host with IP forwarding enabled
        // relays between its DIMMs and the conventional NIC
        // (multi-server MCN, Sec. III-B).
        if (ipForwarding_ && table_.route(ip->dst)) {
            Ipv4Addr src = ip->src, dst = ip->dst;
            std::uint8_t proto = ip->protocol;
            sim::Cycles fwd = kernel_.costs().ipForwardPerPacket;
            if (checksumBypass_) {
                // Relay work at the trust boundary: fill bypassed
                // TCP checksums when traffic leaves the memory
                // channel for an untrusted hop, and verify inbound
                // checksums here because the destination MCN node
                // will skip verification (mcn2 is per-hop).
                const bool out_trusted = trustedTowards(dst);
                if (trusted_hop && !out_trusted) {
                    if (tcpChecksumFill(*pkt, src, dst, proto))
                        fwd += kernel_.costs().checksum(
                            pkt->size());
                } else if (!trusted_hop && out_trusted) {
                    fwd += kernel_.costs().checksum(pkt->size());
                    if (!tcpChecksumOk(*pkt, src, dst, proto)) {
                        statRxCsumDrops_ += 1;
                        statIpDrops_ += 1;
                        return;
                    }
                }
            }
            kernel_.cpus().leastLoaded().execute(
                fwd, [this, src, dst, proto, pkt](sim::Tick) {
                    sendIp(src, dst, proto, pkt);
                });
        } else {
            statIpDrops_ += 1;
        }
        return;
    }

    // Trim potential padding beyond the IP total length.
    std::size_t payload = ip->totalLength - Ipv4Header::size;
    if (payload < pkt->size())
        pkt->trim(payload);

    const auto &costs = kernel_.costs();
    std::uint8_t proto = ip->protocol;
    Ipv4Addr src = ip->src, dst = ip->dst;

    sim::Cycles cycles = costs.skbAlloc;
    switch (proto) {
      case protoTcp:
        cycles += costs.tcpRxPerPacket;
        if (verify)
            cycles += costs.checksum(pkt->size());
        break;
      case protoIcmp:
        cycles += costs.icmpPerPacket;
        break;
      default:
        statIpDrops_ += 1;
        return;
    }

    kernel_.cpus().leastLoaded().execute(
        cycles, [this, proto, src, dst, pkt, verify](sim::Tick) {
            switch (proto) {
              case protoTcp:
                tcp_->rx(src, dst, pkt, verify);
                break;
              case protoIcmp:
                icmp_->rx(src, dst, pkt, verify);
                break;
            }
        });
}

std::shared_ptr<TcpSocket>
NetStack::tcpSocket()
{
    return tcp_->createSocket();
}

} // namespace mcnsim::net
