/**
 * @file
 * Analyzer fixture: R6 packet-cdata violations. Calling the mutable
 * data() overload of a packet only to read it detaches a shared
 * copy-on-write buffer, silently cloning the bytes.
 */

#include <cstdint>
#include <cstring>

namespace mcnsim::fixture {

struct Packet
{
    std::uint8_t *data();
    const std::uint8_t *cdata() const;
};

std::uint8_t
firstByte(Packet *pkt)
{
    const std::uint8_t *b = pkt->data(); // expect: packet-cdata
    return b[0];
}

std::uint32_t
sumHeader(Packet &frame)
{
    std::uint32_t s = 0;
    for (int i = 0; i < 4; ++i)
        s += frame.data()[i]; // expect: packet-cdata
    return s;
}

void
copyOut(Packet *seg, std::uint8_t *dst)
{
    // A reason-less annotation suppresses nothing.
    // analyze-ok: packet-cdata
    std::memcpy(dst, seg->data(), 4); // expect: packet-cdata
}

} // namespace mcnsim::fixture
