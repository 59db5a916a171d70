/**
 * @file
 * Phase-accurate distributed workload models.
 *
 * The paper evaluates real NPB / CORAL / BigDataBench binaries in
 * full-system simulation; we model each benchmark as an iterated
 * triple of (compute, memory streaming, MPI communication with the
 * benchmark's real pattern). Figs. 9-11 depend on exactly these
 * three axes -- per-rank bandwidth demand, compute intensity, and
 * communication pattern/volume -- so the models preserve the
 * result shapes (see DESIGN.md, substitutions).
 */

#ifndef MCNSIM_DIST_WORKLOAD_HH
#define MCNSIM_DIST_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dist/mpi.hh"
#include "sim/task.hh"

namespace mcnsim::dist {

/** Communication pattern of one iteration. */
enum class CommPattern {
    None,            ///< embarrassingly parallel
    NearestNeighbor, ///< ring exchange with rank +/- 1
    AllToAll,        ///< personalised all-to-all (transpose)
    AllReduce,       ///< global reduction
    IrregularP2P,    ///< pseudo-random partner exchange (cg-like)
    WavefrontP2P,    ///< pipelined small messages (lu-like)
};

const char *to_string(CommPattern p);

/** A benchmark expressed as per-iteration work. */
struct WorkloadSpec
{
    std::string name;
    int iterations = 10;

    /** Compute work per rank per iteration, in core cycles. */
    std::uint64_t computeCyclesPerIter = 0;

    /** Bytes streamed through the node memory system per rank per
     *  iteration (the Fig. 9 bandwidth demand). */
    std::uint64_t memBytesPerIter = 0;

    /** Per-rank streaming demand cap in bytes/second. */
    double memStreamBps = 12e9;

    CommPattern comm = CommPattern::None;

    /** Communication volume per iteration (semantics depend on the
     *  pattern: per-peer for AllToAll, per-message otherwise). */
    std::uint64_t commBytesPerIter = 0;

    /**
     * Strong scaling: divide per-rank work for an @p n-rank run
     * relative to the reference 4-rank problem.
     */
    WorkloadSpec scaledTo(int n) const;
};

/** Run @p spec's per-rank body (launch via MpiWorld::launch). */
sim::Task<void> runWorkloadRank(MpiRank &rank, WorkloadSpec spec);

} // namespace mcnsim::dist

#endif // MCNSIM_DIST_WORKLOAD_HH
