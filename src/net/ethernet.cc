/**
 * @file
 * Ethernet framing implementation.
 */

#include "net/ethernet.hh"

#include <cstdio>

#include "sim/logging.hh"

namespace mcnsim::net {

MacAddr
MacAddr::broadcast()
{
    MacAddr m;
    m.b.fill(0xff);
    return m;
}

MacAddr
MacAddr::fromId(std::uint32_t id)
{
    // 02:xx:... = locally administered unicast.
    MacAddr m;
    m.b = {0x02, 0x4d, 0x43, // "MC"
           static_cast<std::uint8_t>(id >> 16),
           static_cast<std::uint8_t>(id >> 8),
           static_cast<std::uint8_t>(id)};
    return m;
}

std::string
MacAddr::str() const
{
    char out[18];
    std::snprintf(out, sizeof(out), "%02x:%02x:%02x:%02x:%02x:%02x",
                  b[0], b[1], b[2], b[3], b[4], b[5]);
    return out;
}

void
EthernetHeader::push(Packet &pkt) const
{
    std::uint8_t *p = pkt.push(size);
    std::memcpy(p, dst.b.data(), 6);
    std::memcpy(p + 6, src.b.data(), 6);
    p[12] = static_cast<std::uint8_t>(type >> 8);
    p[13] = static_cast<std::uint8_t>(type & 0xff);
}

EthernetHeader
EthernetHeader::peek(const Packet &pkt)
{
    MCNSIM_ASSERT(pkt.size() >= size, "short ethernet frame");
    EthernetHeader h;
    const std::uint8_t *p = pkt.cprefix(size);
    std::memcpy(h.dst.b.data(), p, 6);
    std::memcpy(h.src.b.data(), p + 6, 6);
    h.type = static_cast<std::uint16_t>((p[12] << 8) | p[13]);
    return h;
}

EthernetHeader
EthernetHeader::pull(Packet &pkt)
{
    EthernetHeader h = peek(pkt);
    pkt.pull(size);
    return h;
}

} // namespace mcnsim::net
