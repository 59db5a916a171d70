/**
 * @file
 * IPv4 implementation.
 */

#include "net/ipv4.hh"

#include <cstdio>

#include "net/checksum.hh"
#include "sim/logging.hh"

namespace mcnsim::net {

std::string
Ipv4Addr::str() const
{
    char out[16];
    std::snprintf(out, sizeof(out), "%u.%u.%u.%u", (v >> 24) & 0xff,
                  (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff);
    return out;
}

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

void
put32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v & 0xff);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | p[3];
}

} // namespace

void
Ipv4Header::push(Packet &pkt, bool compute_checksum) const
{
    std::uint8_t *p = pkt.push(size);
    p[0] = 0x45; // version 4, IHL 5
    p[1] = 0;    // DSCP/ECN
    put16(p + 2, totalLength);
    put16(p + 4, id);
    put16(p + 6, 0); // flags/fragment offset: DF assumed
    p[8] = ttl;
    p[9] = protocol;
    put16(p + 10, 0); // checksum placeholder
    put32(p + 12, src.v);
    put32(p + 16, dst.v);
    if (compute_checksum)
        put16(p + 10, checksum(p, size));
}

std::optional<Ipv4Header>
Ipv4Header::pull(Packet &pkt, bool verify_checksum)
{
    if (pkt.size() < size)
        return std::nullopt;
    const std::uint8_t *p = pkt.cprefix(size);
    if ((p[0] >> 4) != 4)
        return std::nullopt;
    if (verify_checksum && checksum(p, size) != 0)
        return std::nullopt;

    Ipv4Header h;
    h.totalLength = get16(p + 2);
    h.id = get16(p + 4);
    h.ttl = p[8];
    h.protocol = p[9];
    h.headerChecksum = get16(p + 10);
    h.src = Ipv4Addr(get32(p + 12));
    h.dst = Ipv4Addr(get32(p + 16));
    pkt.pull(size);
    return h;
}

void
InterfaceTable::add(int ifindex, Ipv4Addr addr, SubnetMask mask)
{
    entries_.push_back(Entry{ifindex, addr, mask});
}

void
InterfaceTable::addOwn(Ipv4Addr addr)
{
    own_.push_back(addr);
}

bool
InterfaceTable::isLocal(Ipv4Addr a) const
{
    for (const auto &o : own_)
        if (o == a)
            return true;
    return false;
}

std::optional<int>
InterfaceTable::route(Ipv4Addr dst) const
{
    // The kernel checks the loopback interface first (Sec. III-B):
    // packets to 127/8 or to one of our own addresses never leave
    // the node.
    if (dst.isLoopback() || isLocal(dst))
        return loopbackIfindex;
    for (const auto &e : entries_)
        if (e.mask.matches(e.addr, dst))
            return e.ifindex;
    return std::nullopt;
}

} // namespace mcnsim::net
