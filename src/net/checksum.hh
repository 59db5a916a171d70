/**
 * @file
 * RFC 1071 Internet checksum, used by the IPv4/TCP/ICMP layers.
 * MCN's mcn2 optimisation bypasses these computations because the
 * memory channel is ECC/CRC protected (Sec. IV-A); the functions are
 * still always available so tests can verify packets end-to-end.
 */

#ifndef MCNSIM_NET_CHECKSUM_HH
#define MCNSIM_NET_CHECKSUM_HH

#include <cstddef>
#include <cstdint>

namespace mcnsim::net {

class Packet;

/**
 * One's-complement sum over @p len bytes, not yet folded. The value
 * is only meaningful modulo checksumFold(): chain calls by passing
 * the previous result as @p seed, then fold once at the end.
 */
std::uint32_t checksumPartial(const std::uint8_t *data,
                              std::size_t len,
                              std::uint32_t seed = 0);

/**
 * checksumPartial() over bytes [off, off + len) of @p pkt's view,
 * equal to the byte loop over them bit for bit. A lazy pattern
 * extent among them (Packet::makeDeferred()) is summed in closed
 * form from the pattern's period and never written.
 */
std::uint32_t checksumPartial(const Packet &pkt, std::size_t off,
                              std::size_t len, std::uint32_t seed = 0);

/** Fold a partial sum into the final 16-bit checksum value. */
std::uint16_t checksumFold(std::uint32_t partial);

/** Complete checksum of one buffer. */
std::uint16_t checksum(const std::uint8_t *data, std::size_t len);

/**
 * TCP/UDP pseudo-header partial sum: source/destination IPv4
 * addresses, protocol number and L4 length.
 */
std::uint32_t pseudoHeaderSum(std::uint32_t src_ip,
                              std::uint32_t dst_ip,
                              std::uint8_t protocol,
                              std::uint16_t l4_len);

} // namespace mcnsim::net

#endif // MCNSIM_NET_CHECKSUM_HH
