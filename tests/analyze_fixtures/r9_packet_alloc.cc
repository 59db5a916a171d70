/**
 * @file
 * Analyzer fixture: R9 packet-alloc violations. Raw heap byte
 * storage bypasses the slab pool's size-classed free lists; a
 * temporary vector fed to Packet::make(), named or a braced list,
 * copies the bytes twice.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace mcnsim::fixture {

struct Packet
{
    static Packet *make(std::vector<std::uint8_t> payload);
    std::vector<std::uint8_t> bytes() const;
};

void
copies(const std::uint8_t *p, std::size_t n, const Packet *src)
{
    auto *a = Packet::make(std::vector<std::uint8_t>(p, p + n)); // expect: packet-alloc
    auto *b = Packet::make( // expect: packet-alloc
        std::vector<std::uint8_t>(p, p + n));
    auto *c = Packet::make(src->bytes()); // expect: packet-alloc
    auto *d = Packet::make({0x45, 0, 0, 0}); // expect: packet-alloc
    auto *e = Packet::make( // expect: packet-alloc
        {static_cast<std::uint8_t>(n), 0, 0, 0});
    (void)a, (void)b, (void)c, (void)d, (void)e;
}

void
allocations(std::size_t n)
{
    auto *a = new std::uint8_t[n]; // expect: packet-alloc
    auto b = std::make_unique<std::uint8_t[]>(n); // expect: packet-alloc
    auto c = std::make_shared<std::vector<std::uint8_t>>(n); // expect: packet-alloc
    auto *d = new std::vector<uint8_t>(n); // expect: packet-alloc
    // analyze-ok: packet-alloc
    auto e = std::make_unique<uint8_t[]>(n); // expect: packet-alloc
    auto f = std::make_unique_for_overwrite<std::uint8_t[]>(n); // expect: packet-alloc
    (void)a, (void)b, (void)c, (void)d, (void)e, (void)f;
}

} // namespace mcnsim::fixture
