/**
 * @file
 * Analyzer fixture: R6 clean counterpart. Reads go through cdata();
 * writes through data() pass, and a write through a named pointer
 * carries a justification.
 */

#include <cstdint>
#include <vector>

namespace mcnsim::fixture {

struct Packet
{
    std::uint8_t *data();
    const std::uint8_t *cdata() const;
};

std::uint8_t
firstByte(const Packet *pkt)
{
    return pkt->cdata()[0];
}

void
stampHeader(Packet *pkt)
{
    pkt->data()[0] = 0x45;
    pkt->data()[1] |= 0x01;
}

void
writeChecksum(Packet &pkt, std::uint16_t c)
{
    // analyze-ok: packet-cdata (writes the checksum back through p)
    std::uint8_t *p = pkt.data();
    p[10] = static_cast<std::uint8_t>(c >> 8);
}

const std::uint8_t *
scratchBytes(const std::vector<std::uint8_t> &buf)
{
    // Not a packet: the receiver name says so.
    return buf.data();
}

} // namespace mcnsim::fixture
