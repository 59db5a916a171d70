/**
 * @file
 * Mini-MPI: a small message-passing runtime over the simulator's
 * TCP sockets, enough to run the paper's NPB/CORAL/BigDataBench
 * workload models unchanged on any built system (MCN server,
 * scale-out cluster, scale-up node) -- the paper's application-
 * transparency claim made executable.
 *
 * Ranks are coroutines pinned to cores; point-to-point messages are
 * length-prefixed byte streams over one TCP connection per rank
 * pair (established eagerly at init, like a typical MPI eager
 * mesh); collectives are built from point-to-point.
 */

#ifndef MCNSIM_DIST_MPI_HH
#define MCNSIM_DIST_MPI_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/system_builder.hh"
#include "cpu/core.hh"
#include "net/socket.hh"
#include "net/tcp.hh"
#include "sim/task.hh"

namespace mcnsim::dist {

class MpiWorld;

/** The per-rank handle passed to application code. */
class MpiRank
{
  public:
    int rank() const { return rank_; }
    int size() const;

    /** Send @p bytes of (patterned) data to @p dst. */
    sim::Task<void> send(int dst, std::uint64_t bytes);

    /** Receive the next message from @p src; returns its size. */
    sim::Task<std::uint64_t> recv(int src);

    // --- Collectives -------------------------------------------------
    sim::Task<void> barrier();
    sim::Task<void> bcast(int root, std::uint64_t bytes);
    sim::Task<void> reduce(int root, std::uint64_t bytes);
    sim::Task<void> allreduce(std::uint64_t bytes);
    /** Personalised all-to-all, @p bytes_per_peer to each rank. */
    sim::Task<void> alltoall(std::uint64_t bytes_per_peer);

    // --- Local work ---------------------------------------------------
    /** Charge @p cycles of compute on this rank's pinned core. */
    sim::Task<void> compute(sim::Cycles cycles);

    /**
     * Stream @p bytes through the node's memory system (the
     * aggregate-bandwidth driver behind the paper's Fig. 9).
     */
    sim::Task<void> memStream(std::uint64_t bytes,
                              double rate_cap_bps = 10e9);

    cpu::Core &core() { return *core_; }
    os::Kernel &kernel();

  private:
    friend class MpiWorld;

    MpiWorld *world_ = nullptr;
    int rank_ = 0;
    core::NodeRef node_;
    cpu::Core *core_ = nullptr;
};

/** One MPI job across the nodes of a built system. */
class MpiWorld
{
  public:
    /**
     * @param nodes  rank i runs on nodes[i]; node entries may
     *               repeat to place multiple ranks per node
     * @param base_port  listener ports are base_port + rank
     */
    MpiWorld(sim::Simulation &s, std::vector<core::NodeRef> nodes,
             std::uint16_t base_port = 7000);

    int size() const { return static_cast<int>(ranks_.size()); }
    MpiRank &rank(int i) { return *ranks_[i]; }

    /**
     * Launch the job: every rank runs @p body after the connection
     * mesh is up. Use done() / runToCompletion() to wait.
     */
    void launch(std::function<sim::Task<void>(MpiRank &)> body);

    /** True once every rank's body returned. */
    bool done() const { return group_ && group_->allDone(); }

    /**
     * Convenience: run the simulation until the job completes (or
     * the deadline passes). Returns the completion tick.
     */
    sim::Tick runToCompletion(sim::Simulation &s,
                              sim::Tick deadline = sim::maxTick);

    /** Total payload bytes moved through MPI so far. */
    std::uint64_t bytesMoved() const { return bytesMoved_; }

    /** Tick at which every rank finished MPI_Init (mesh up);
     *  0 until then. Benches exclude init from makespans. */
    sim::Tick allReadyAt() const { return readyAt_; }

  private:
    friend class MpiRank;

    struct Peer
    {
        net::TcpSocketPtr sock;
        std::unique_ptr<sim::Mailbox<std::uint64_t>> inbox;
    };

    sim::Task<void> establishMesh(MpiRank &r);
    sim::Task<void> pump(MpiRank &r, int peer);
    sim::Task<void> rankMain(
        MpiRank &r, std::function<sim::Task<void>(MpiRank &)> body);

    net::TcpSocketPtr &sockOf(int a, int b);
    sim::Mailbox<std::uint64_t> &inboxOf(int me, int src);

    sim::Simulation &sim_;
    std::uint16_t basePort_;
    std::vector<std::unique_ptr<MpiRank>> ranks_;
    // peers_[me][other]
    std::vector<std::vector<Peer>> peers_;
    std::unique_ptr<sim::TaskGroup> group_;
    std::uint64_t bytesMoved_ = 0;
    int readyCount_ = 0;
    sim::Tick readyAt_ = 0;
};

} // namespace mcnsim::dist

#endif // MCNSIM_DIST_MPI_HH
