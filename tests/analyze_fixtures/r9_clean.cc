/**
 * @file
 * Analyzer fixture: R9 clean counterpart. Packet bytes come from the
 * pool and are written in place (makeFilled) or moved in; other
 * element types and stack storage are not packet bytes; one
 * non-packet byte buffer carries a justification.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace mcnsim::fixture {

struct BufferPool
{
    static std::uint8_t *acquire(std::size_t n);
};

struct Packet
{
    static Packet *make(std::vector<std::uint8_t> payload);
    template <typename Fill>
    static Packet *makeFilled(std::size_t n, Fill &&fill);
};

void
copies(const std::uint8_t *p, std::size_t n,
       std::vector<std::uint8_t> payload)
{
    auto *a = Packet::makeFilled(
        n, [&](std::uint8_t *dst) { std::memcpy(dst, p, n); });
    auto *b = Packet::make(std::move(payload));
    (void)a, (void)b;
}

void
allocations(std::size_t n)
{
    std::uint8_t *frame = BufferPool::acquire(n);
    std::vector<std::uint8_t> local(n);
    auto words = std::make_unique<std::uint32_t[]>(n);
    // analyze-ok: packet-alloc (socket stream ring, not packets)
    auto ring = std::make_unique<std::uint8_t[]>(n);
    (void)frame, (void)words, (void)ring;
}

} // namespace mcnsim::fixture
