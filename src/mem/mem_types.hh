/**
 * @file
 * Memory request types shared across the memory subsystem.
 */

#ifndef MCNSIM_MEM_MEM_TYPES_HH
#define MCNSIM_MEM_MEM_TYPES_HH

#include <cstdint>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace mcnsim::mem {

using sim::Tick;

/** Physical address within one node's physical memory space. */
using Addr = std::uint64_t;

/** Cache line size used throughout (matches a DDR4 BL8 burst). */
constexpr std::uint32_t cacheLineBytes = 64;

/** Round @p a down to its cache line base. */
constexpr Addr
lineAlign(Addr a)
{
    return a & ~static_cast<Addr>(cacheLineBytes - 1);
}

/** A single memory access as seen by a memory controller. */
struct MemRequest
{
    enum class Kind : std::uint8_t { Read, Write };

    Kind kind = Kind::Read;
    Addr addr = 0;
    std::uint32_t size = cacheLineBytes;

    /** Completion callback, invoked with the completion tick. */
    sim::Callback<void(Tick)> onComplete;

    /** Enqueue tick, filled by the controller (for stats). */
    Tick enqueued = 0;
};

/** Decoded DRAM coordinates of an address. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0;
};

} // namespace mcnsim::mem

#endif // MCNSIM_MEM_MEM_TYPES_HH
