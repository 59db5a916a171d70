/**
 * @file
 * Internet checksum implementation.
 *
 * checksumPartial() is the hot path (every TCP segment sums its
 * whole payload unless mcn2 bypass is on), so it accumulates 64 bits
 * at a time with end-around carry, unrolled to 32 bytes per step,
 * instead of byte-pair arithmetic:
 *
 *  - The one's-complement sum of 16-bit words is invariant under a
 *    consistent byte swap of every word (RFC 1071 §2(B)): summing in
 *    native order and byte-swapping the folded result equals summing
 *    big-endian words directly. We exploit that to use plain 64-bit
 *    loads (four 16-bit lanes per load; lane carries are recovered
 *    by the end-around carry of the 64-bit addition).
 *  - Loads go through std::memcpy, so alignment never matters.
 *  - An odd trailing byte is the high byte of a final zero-padded
 *    word in big-endian space, which is exactly what the
 *    swap-at-the-end produces from its native-space low-byte
 *    position.
 *
 * The returned partial is folded to 16 bits before the seed is added
 * back; that differs bit-for-bit from the historical "raw 32-bit
 * running sum" return, but is equivalent under checksumFold(), which
 * is the only documented way to consume a partial.
 *
 * The packet overload sums a lazy pattern extent without its bytes.
 * The pattern repeats every 256 bytes, an even length, so an extent
 * of n bytes is n / 256 copies of one period's sum plus the sum of
 * the first n % 256 bytes, both read from the pattern table. A piece
 * that starts at an odd offset from the checksummed range's start
 * has its bytes in the other halves of the 16-bit words, which
 * byte-swaps its folded sum (RFC 1071 §2(B)). Folding with
 * end-around carry keeps each piece's 16-bit sum zero only when all
 * its bytes are, so the combination equals the byte loop's result
 * exactly, not just modulo 0xffff.
 */

#include "net/checksum.hh"

#include <bit>
#include <cstring>

#include "net/packet.hh"

namespace mcnsim::net {

namespace {

inline std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

/** One's-complement (end-around carry) 64-bit addition. */
inline std::uint64_t
add1c(std::uint64_t s, std::uint64_t w)
{
    s += w;
    return s + (s < w);
}

/** Fold with end-around carry to 16 bits: congruent modulo 0xffff,
 *  and zero only when @p s is. */
inline std::uint16_t
fold16(std::uint64_t s)
{
    while (s >> 16)
        s = (s & 0xffff) + (s >> 16);
    return static_cast<std::uint16_t>(s);
}

/** Folded sum of @p n pattern bytes based at @p base, as though
 *  they started a word. */
std::uint16_t
patternSum(std::uint8_t base, std::size_t n)
{
    const std::uint8_t *period = patternTable() + base;
    std::uint64_t sum = checksumPartial(period, n % 256);
    if (n >= 256)
        sum += (n / 256) * std::uint64_t{checksumPartial(period, 256)};
    return fold16(sum);
}

} // namespace

std::uint32_t
checksumPartial(const std::uint8_t *data, std::size_t len,
                std::uint32_t seed)
{
    const std::uint8_t *p = data;
    std::size_t n = len;

    // Main loop: sum the 32-bit halves of each 64-bit load into two
    // independent 64-bit accumulators. No carry can ever be lost
    // (each term is < 2^33, so an accumulator overflows only past
    // ~2^31 loaded bytes), and splitting the accumulators breaks the
    // add-to-add dependency chain the CPU would otherwise serialize
    // on.
    std::uint64_t s0 = 0, s1 = 0;
    constexpr std::uint64_t lo32 = 0xffffffffull;
    while (n >= 32) {
        std::uint64_t w0 = load64(p);
        std::uint64_t w1 = load64(p + 8);
        std::uint64_t w2 = load64(p + 16);
        std::uint64_t w3 = load64(p + 24);
        s0 += (w0 & lo32) + (w0 >> 32);
        s1 += (w1 & lo32) + (w1 >> 32);
        s0 += (w2 & lo32) + (w2 >> 32);
        s1 += (w3 & lo32) + (w3 >> 32);
        p += 32;
        n -= 32;
    }
    std::uint64_t sum = add1c(s0, s1);
    while (n >= 8) {
        sum = add1c(sum, load64(p));
        p += 8;
        n -= 8;
    }
    if (n >= 4) {
        std::uint32_t w;
        std::memcpy(&w, p, sizeof(w));
        sum = add1c(sum, w);
        p += 4;
        n -= 4;
    }
    if (n >= 2) {
        std::uint16_t w;
        std::memcpy(&w, p, sizeof(w));
        sum = add1c(sum, w);
        p += 2;
        n -= 2;
    }
    if (n) {
        // Trailing odd byte: pad to a 16-bit word with a zero byte
        // after it in memory order.
        std::uint16_t w = *p;
        if constexpr (std::endian::native == std::endian::big)
            w = static_cast<std::uint16_t>(w << 8);
        sum = add1c(sum, w);
    }

    // Fold 64 -> 16 in native word space.
    sum = (sum & 0xffffffffull) + (sum >> 32);
    sum = (sum & 0xffffffffull) + (sum >> 32);
    std::uint32_t s32 = static_cast<std::uint32_t>(sum);
    s32 = (s32 & 0xffff) + (s32 >> 16);
    s32 = (s32 & 0xffff) + (s32 >> 16);

    // Convert the native-space sum to big-endian word space.
    std::uint16_t s16 = static_cast<std::uint16_t>(s32);
    if constexpr (std::endian::native == std::endian::little)
        s16 = static_cast<std::uint16_t>((s16 >> 8) | (s16 << 8));
    return seed + s16;
}

std::uint32_t
checksumPartial(const Packet &pkt, std::size_t off, std::size_t len,
                std::uint32_t seed)
{
    std::uint64_t sum = 0;
    std::size_t at = 0; // offset of the next piece in the range
    auto add = [&](std::uint16_t piece, std::size_t n) {
        if (at & 1)
            piece = static_cast<std::uint16_t>((piece >> 8) |
                                               (piece << 8));
        sum += piece;
        at += n;
    };
    pkt.scan(
        off, len,
        [&](const std::uint8_t *p, std::size_t n) {
            add(static_cast<std::uint16_t>(checksumPartial(p, n)), n);
        },
        [&](std::uint8_t base, std::size_t n) {
            add(patternSum(base, n), n);
        });
    return seed + fold16(sum);
}

std::uint16_t
checksumFold(std::uint32_t partial)
{
    while (partial >> 16)
        partial = (partial & 0xffff) + (partial >> 16);
    return static_cast<std::uint16_t>(~partial & 0xffff);
}

std::uint16_t
checksum(const std::uint8_t *data, std::size_t len)
{
    return checksumFold(checksumPartial(data, len));
}

std::uint32_t
pseudoHeaderSum(std::uint32_t src_ip, std::uint32_t dst_ip,
                std::uint8_t protocol, std::uint16_t l4_len)
{
    std::uint32_t sum = 0;
    sum += (src_ip >> 16) & 0xffff;
    sum += src_ip & 0xffff;
    sum += (dst_ip >> 16) & 0xffff;
    sum += dst_ip & 0xffff;
    sum += protocol;
    sum += l4_len;
    return sum;
}

} // namespace mcnsim::net
