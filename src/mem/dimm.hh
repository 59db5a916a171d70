/**
 * @file
 * DIMM descriptors: what kind of module populates each slot of a
 * host memory channel. The MCN DIMM's active components live in
 * src/mcn; this header carries the host-visible inventory
 * (capacity, kind, reserved SRAM window) used by system builders
 * and the memory mapping unit.
 */

#ifndef MCNSIM_MEM_DIMM_HH
#define MCNSIM_MEM_DIMM_HH

#include <cstdint>
#include <string>

#include "mem/mem_types.hh"

namespace mcnsim::mem {

/** Kinds of modules on a channel (Sec. II-A / III-A). */
enum class DimmKind {
    Conventional, ///< RDIMM/LRDIMM: capacity only
    Mcn,          ///< buffered DIMM with an MCN processor
};

/** One populated DIMM slot as the host sees it. */
struct DimmInfo
{
    std::string name;
    DimmKind kind = DimmKind::Conventional;
    std::uint64_t capacityBytes = 8ull << 30;

    /**
     * For MCN DIMMs: the channel-local offset and size of the SRAM
     * communication buffer window carved out of the DIMM's address
     * range (the reserved_memory node from Sec. II-A).
     */
    Addr sramWindowBase = 0;
    std::uint64_t sramWindowSize = 0;
};

const char *to_string(DimmKind k);

} // namespace mcnsim::mem

#endif // MCNSIM_MEM_DIMM_HH
