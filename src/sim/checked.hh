/**
 * @file
 * Checked-build support: machine-enforced invariants for the
 * simulator's sharp-edged hot-path contracts.
 *
 * The hot-path overhaul (pooled managed events, copy-on-write
 * packets, lazily-compacted deschedule lists, circular SRAM rings)
 * bought its speed with invariants that a silent bug can violate
 * without any test noticing. The checked build compiles extra
 * detectors into those layers:
 *
 *  - pooled-event lifetime checker: generation counters + slot
 *    poisoning in the EventQueue, so any use of a managed Event*
 *    after it fired or was descheduled panics with the event's
 *    interned name (and the flight-recorder ring, via panic());
 *  - CoW packet aliasing checker: a seal hash taken whenever a
 *    packet buffer becomes shared, re-verified on every subsequent
 *    access, so a write through a stale view (const_cast, a cached
 *    data() pointer from before clone()) panics at the next audit;
 *  - ring-index / SRAM-buffer bounds invariants in the MCN message
 *    rings (start/end/used consistency, trace-queue sync).
 *
 * Enable with -DMCNSIM_CHECKED=ON at configure time; the option
 * defines MCNSIM_CHECKED on the mcnsim target *publicly*, because
 * the checkers add fields to Event and Packet (every consumer must
 * agree on the layout). When the option is off, MCNSIM_CHECK()
 * compiles to nothing and the extra fields vanish, so release
 * builds pay zero bytes and zero branches; a leak would show as a
 * host-time regression in the paired perf runs
 * (tools/perf_pairs.py).
 *
 * See README.md and DESIGN.md "Correctness tooling".
 */

#ifndef MCNSIM_SIM_CHECKED_HH
#define MCNSIM_SIM_CHECKED_HH

#include <cstddef>
#include <cstdint>

#include "sim/logging.hh"

namespace mcnsim::sim {

#ifdef MCNSIM_CHECKED
inline constexpr bool checkedBuild = true;
#else
inline constexpr bool checkedBuild = false;
#endif

namespace checked {

/** FNV-1a's starting state. */
inline constexpr std::uint64_t hashSeed = 1469598103934665603ull;

/** FNV-1a over a byte range, continuing from state @p h (hashSeed
 *  to start; a previous result to hash a sequence of ranges as one):
 *  the CoW seal hash. Fast enough to run per packet access in checked
 *  builds, and any single-bit change flips the digest. */
inline std::uint64_t
hashBytes(const std::uint8_t *p, std::size_t n, std::uint64_t h)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace checked
} // namespace mcnsim::sim

/**
 * MCNSIM_CHECK(cond, ...): checked-build invariant. Panics (which
 * dumps the flight-recorder ring) when @p cond is false; compiles
 * to nothing -- the condition is NOT evaluated -- when the checked
 * build is off. Use MCNSIM_ASSERT for invariants that must hold in
 * every build.
 */
#ifdef MCNSIM_CHECKED
#define MCNSIM_CHECK(cond, ...)                                       \
    do {                                                              \
        if (!(cond))                                                  \
            ::mcnsim::sim::panic("checked: '", #cond,                 \
                                 "' violated: ", __VA_ARGS__);        \
    } while (0)
#define MCNSIM_IF_CHECKED(...) __VA_ARGS__
#else
#define MCNSIM_CHECK(cond, ...) ((void)0)
#define MCNSIM_IF_CHECKED(...)
#endif

#endif // MCNSIM_SIM_CHECKED_HH
