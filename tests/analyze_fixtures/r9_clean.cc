/**
 * @file
 * Analyzer fixture: R9 clean counterpart. Packet bytes come from the
 * pool; other element types and stack storage are not packet bytes;
 * one non-packet byte buffer carries a justification.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mcnsim::fixture {

struct BufferPool
{
    static std::uint8_t *acquire(std::size_t n);
};

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
