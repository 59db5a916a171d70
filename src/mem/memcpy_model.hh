/**
 * @file
 * Models for the MCN-specific memcpy paths (Sec. III-B "memory
 * mapping unit"). The driver copies packet data between kernel
 * memory and the MCN SRAM window with one of several access modes,
 * each with a very different achievable rate:
 *
 *  - WriteCombined: memremap(MEMREMAP_WC); the MC merges
 *    consecutive stores into full-line bursts. Near-streaming rate,
 *    bounded by the core's store issue rate.
 *  - UncachedWord: ioremap default; <= 64-bit strictly-ordered
 *    accesses, one outstanding at a time. Rate = word / round-trip.
 *  - CacheableRead: cacheable mapping + explicit invalidate (the RX
 *    path); line-sized fills with MSHR-limited overlap.
 *  - DmaBurst: the mcn5 MCN-DMA engine; full streaming rate, no CPU.
 */

#ifndef MCNSIM_MEM_MEMCPY_MODEL_HH
#define MCNSIM_MEM_MEMCPY_MODEL_HH

#include <cstdint>

#include "mem/mem_controller.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mcnsim::mem {

/** Access mode of a modelled copy. */
enum class CopyMode {
    WriteCombined,
    UncachedWord,
    CacheableRead,
    DmaBurst,
};

const char *to_string(CopyMode m);

/** Tuning knobs for the copy model. */
struct CopyParams
{
    /** Core store-issue bound for WC stores, bytes/second. */
    double wcStoreBps = 3e9;

    /** Round-trip of one uncached access (used for UncachedWord). */
    sim::Tick uncachedRoundTrip = 120 * sim::oneNs;

    /** Line fill latency and MSHR count (CacheableRead overlap). */
    sim::Tick lineFillLatency = 180 * sim::oneNs;
    std::uint32_t mshrs = 6;

    /** DMA engine streaming bound, bytes/second (0 = channel peak). */
    double dmaBps = 0.0;

    /** Effective rate for @p mode on a channel with @p peak_bps. */
    double rateFor(CopyMode mode, double peak_bps) const;
};

/**
 * Executes modelled copies against one channel's bulk arbiter.
 * Purely a timing model; the functional byte movement is done by the
 * caller (the SRAM buffer holds real bytes).
 */
class CopyEngine : public sim::SimObject
{
  public:
    CopyEngine(sim::Simulation &s, std::string name,
               MemController &mc, CopyParams params = {});

    /**
     * Model copying @p bytes in @p mode; @p done fires with the
     * completion tick. Zero-byte copies complete on the next tick.
     */
    void copy(std::uint64_t bytes, CopyMode mode,
              sim::Callback<void(sim::Tick)> done);

    const CopyParams &params() const { return params_; }

    std::uint64_t bytesCopied() const
    {
        return static_cast<std::uint64_t>(statBytes_.value());
    }

  private:
    MemController &mc_;
    CopyParams params_;

    sim::Scalar statBytes_{"copyBytes", "bytes moved by copy engine"};
    sim::Scalar statCopies_{"copies", "copy operations"};
};

} // namespace mcnsim::mem

#endif // MCNSIM_MEM_MEMCPY_MODEL_HH
