/**
 * @file
 * The test pattern iperf and MPI payloads carry: byte i of a run
 * based at b is ((b + i) & 0xff). Send queues keep pattern data as
 * {base, length} runs, and a packet may keep one such run as a lazy
 * extent that is never written unless something needs it in memory
 * (net/packet.hh); this header holds what both share.
 */

#ifndef MCNSIM_NET_PATTERN_HH
#define MCNSIM_NET_PATTERN_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mcnsim::net {

/** Bytes fillPattern() copies per memcpy. */
constexpr std::size_t patternChunk = 4096;

/** The 256-byte period plus one chunk: patternTable() + (b & 0xff)
 *  holds the first patternChunk bytes of a run based at b. */
inline const std::uint8_t *
patternTable()
{
    static constexpr auto table = [] {
        std::array<std::uint8_t, 256 + patternChunk> t{};
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint8_t>(i & 0xff);
        return t;
    }();
    return table.data();
}

/** Write the test pattern ((base + i) & 0xff), i in [0, n), as
 *  memcpy runs from patternTable(). iperf and MPI payloads are
 *  filled here; a byte loop's speed swung by up to a third with
 *  nothing but where the linker placed it. */
inline void
fillPattern(std::uint8_t *dst, std::size_t base, std::size_t n)
{
    const std::uint8_t *table = patternTable();
    for (std::size_t off = 0; off < n; off += patternChunk)
        std::memcpy(dst + off, table + ((base + off) & 0xff),
                    std::min(patternChunk, n - off));
}

/** @p len pattern bytes based at @p base, starting @p off bytes
 *  into some buffer; len == 0 means none. */
struct PatternExtent
{
    std::size_t off = 0;
    std::size_t len = 0;
    std::uint8_t base = 0;
};

} // namespace mcnsim::net

#endif // MCNSIM_NET_PATTERN_HH
