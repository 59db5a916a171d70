/**
 * @file
 * Mini-MPI implementation.
 */

#include "dist/mpi.hh"

#include <array>

#include "net/net_stack.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::dist {

using sim::Task;
using sim::Tick;

namespace {

constexpr std::size_t headerBytes = 12;

/** Await several tasks concurrently. */
Task<void>
whenAll(sim::EventQueue &q, std::vector<Task<void>> tasks)
{
    sim::TaskGroup g(q);
    for (auto &t : tasks)
        g.spawn(std::move(t));
    co_await g.wait();
}

} // namespace

// ---------------------------------------------------------------------
// MpiRank
// ---------------------------------------------------------------------

int
MpiRank::size() const
{
    return world_->size();
}

os::Kernel &
MpiRank::kernel()
{
    return *node_.kernel;
}

Task<void>
MpiRank::send(int dst, std::uint64_t bytes)
{
    world_->bytesMoved_ += bytes;
    if (dst == rank_) {
        // Self-send: deliver locally, charging only a copy.
        co_await core_->run(kernel().costs().copy(bytes));
        world_->inboxOf(rank_, rank_).push(bytes);
        co_return;
    }

    auto &sock = world_->sockOf(rank_, dst);
    MCNSIM_ASSERT(sock, "MPI mesh not established");

    std::array<std::uint8_t, headerBytes> hdr{};
    auto put32 = [&](std::size_t off, std::uint32_t v) {
        hdr[off] = static_cast<std::uint8_t>(v >> 24);
        hdr[off + 1] = static_cast<std::uint8_t>(v >> 16);
        hdr[off + 2] = static_cast<std::uint8_t>(v >> 8);
        hdr[off + 3] = static_cast<std::uint8_t>(v & 0xff);
    };
    put32(0, static_cast<std::uint32_t>(rank_));
    put32(4, 0); // tag, unused
    put32(8, static_cast<std::uint32_t>(bytes));
    co_await sock->send(hdr);
    if (bytes > 0)
        co_await sock->sendPattern(bytes);
}

Task<std::uint64_t>
MpiRank::recv(int src)
{
    std::uint64_t n = co_await world_->inboxOf(rank_, src).pop();
    co_return n;
}

Task<void>
MpiRank::barrier()
{
    // Dissemination barrier: ceil(log2 n) rounds, each with an
    // overlapped send/receive (the classic O(log n) algorithm).
    int n = size();
    for (int dist = 1; dist < n; dist <<= 1) {
        int to = (rank_ + dist) % n;
        int from = (rank_ - dist + n) % n;
        std::vector<Task<void>> ops;
        ops.push_back(send(to, 8));
        auto rx = [](MpiRank *self, int src) -> Task<void> {
            co_await self->recv(src);
        };
        ops.push_back(rx(this, from));
        co_await whenAll(world_->sim_.eventQueue(),
                         std::move(ops));
    }
}

Task<void>
MpiRank::bcast(int root, std::uint64_t bytes)
{
    // Binomial tree broadcast (MPICH-style).
    int n = size();
    int vr = (rank_ - root + n) % n;

    int mask = 1;
    while (mask < n) {
        if (vr & mask) {
            int src = vr - mask;
            co_await recv((src + root) % n);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
        if (vr + mask < n) {
            int dst = vr + mask;
            co_await send((dst + root) % n, bytes);
        }
        mask >>= 1;
    }
}

Task<void>
MpiRank::reduce(int root, std::uint64_t bytes)
{
    // Binomial tree reduction: log n rounds, combine at each hop.
    int n = size();
    int vr = (rank_ - root + n) % n;
    int mask = 1;
    while (mask < n) {
        if ((vr & mask) == 0) {
            int src_vr = vr | mask;
            if (src_vr < n) {
                co_await recv((src_vr + root) % n);
                // Combine: roughly one op per 8 payload bytes.
                co_await compute(bytes / 8 + 1);
            }
        } else {
            int dst_vr = vr & ~mask;
            co_await send((dst_vr + root) % n, bytes);
            break;
        }
        mask <<= 1;
    }
}

Task<void>
MpiRank::allreduce(std::uint64_t bytes)
{
    co_await reduce(0, bytes);
    co_await bcast(0, bytes);
}

Task<void>
MpiRank::alltoall(std::uint64_t bytes_per_peer)
{
    // Ring schedule: step k exchanges with (me +/- k); the send and
    // the receive are overlapped to avoid send-buffer deadlock.
    int n = size();
    for (int k = 1; k < n; ++k) {
        int dst = (rank_ + k) % n;
        int src = (rank_ - k + n) % n;
        std::vector<Task<void>> ops;
        ops.push_back(send(dst, bytes_per_peer));
        auto rx = [](MpiRank *self, int from) -> Task<void> {
            co_await self->recv(from);
        };
        ops.push_back(rx(this, src));
        co_await whenAll(world_->sim_.eventQueue(),
                         std::move(ops));
    }
}

Task<void>
MpiRank::compute(sim::Cycles cycles)
{
    co_await core_->run(cycles);
}

Task<void>
MpiRank::memStream(std::uint64_t bytes, double rate_cap_bps)
{
    sim::Condition cv(world_->sim_.eventQueue());
    bool finished = false;
    kernel().mem().bulkInterleaved(
        bytes,
        [&finished, &cv](Tick) {
            finished = true;
            cv.notifyAll();
        },
        rate_cap_bps);
    while (!finished)
        co_await cv.wait();
}

// ---------------------------------------------------------------------
// MpiWorld
// ---------------------------------------------------------------------

MpiWorld::MpiWorld(sim::Simulation &s,
                   std::vector<core::NodeRef> nodes,
                   std::uint16_t base_port)
    : sim_(s), basePort_(base_port)
{
    MCNSIM_ASSERT(!nodes.empty(), "MPI world needs ranks");
    MCNSIM_ASSERT(s.shardCount() <= 1,
                  "MPI worlds share coordinator state across all "
                  "ranks' nodes and must run single-queue; drop "
                  "--threads (DESIGN.md 9)");

    std::map<os::Kernel *, std::uint32_t> ranks_on_node;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        auto r = std::make_unique<MpiRank>();
        r->world_ = this;
        r->rank_ = static_cast<int>(i);
        r->node_ = nodes[i];
        std::uint32_t local = ranks_on_node[nodes[i].kernel]++;
        r->core_ = &nodes[i].kernel->cpus().core(
            local % nodes[i].kernel->cpus().coreCount());
        ranks_.push_back(std::move(r));
    }
    peers_.resize(ranks_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
        auto &p = peers_[i];
        p.resize(ranks_.size());
        // Bind each receive inbox to the receiving rank's node
        // queue (identical to the primary queue when unsharded).
        // MPI worlds still run on one queue overall -- senders
        // touch receiver inboxes directly -- which is why the CLI
        // refuses --threads for workload/mapreduce.
        for (std::size_t j = 0; j < ranks_.size(); ++j)
            p[j].inbox =
                std::make_unique<sim::Mailbox<std::uint64_t>>(
                    ranks_[i]->node_.kernel->eventQueue());
    }
}

net::TcpSocketPtr &
MpiWorld::sockOf(int a, int b)
{
    return peers_[static_cast<std::size_t>(a)]
                 [static_cast<std::size_t>(b)]
                     .sock;
}

sim::Mailbox<std::uint64_t> &
MpiWorld::inboxOf(int me, int src)
{
    return *peers_[static_cast<std::size_t>(me)]
                  [static_cast<std::size_t>(src)]
                      .inbox;
}

Task<void>
MpiWorld::establishMesh(MpiRank &r)
{
    int me = r.rank();
    auto &stack = *r.node_.stack;

    // Listener for higher-ranked connectors.
    net::TcpSocketPtr listener;
    if (me < size() - 1)
        listener = net::tcpListen(
            stack, static_cast<std::uint16_t>(basePort_ + me));

    // Accept one inbound connection per higher rank; a 4-byte
    // hello identifies the connector.
    int expected = size() - 1 - me;
    auto acceptor = [](MpiWorld *w, net::TcpSocketPtr lst,
                       int my_rank, int count) -> Task<void> {
        for (int k = 0; k < count; ++k) {
            auto conn = co_await lst->accept();
            std::array<std::uint8_t, 4> hello{};
            if (co_await conn->recvInto(hello.data(), hello.size()) <
                hello.size())
                continue;
            int who = (hello[0] << 24) | (hello[1] << 16) |
                      (hello[2] << 8) | hello[3];
            w->sockOf(my_rank, who) = conn;
        }
    };
    if (expected > 0)
        sim::spawnDetached(sim_.eventQueue(),
                           acceptor(this, listener, me, expected));

    // Connect to every lower rank.
    for (int peer = 0; peer < me; ++peer) {
        auto &dst = ranks_[static_cast<std::size_t>(peer)];
        auto sock = co_await net::tcpConnect(
            stack,
            {dst->node_.addr,
             static_cast<std::uint16_t>(basePort_ + peer)});
        if (!sock)
            sim::panic("MPI rank ", me, " failed to reach rank ",
                       peer);
        const std::array<std::uint8_t, 4> hello = {
            0, 0, static_cast<std::uint8_t>(me >> 8),
            static_cast<std::uint8_t>(me & 0xff)};
        co_await sock->send(hello);
        sockOf(me, peer) = sock;
    }

    // Wait until every peer socket (both directions) exists.
    while (true) {
        bool ready = true;
        for (int p = 0; p < size(); ++p)
            if (p != me && !sockOf(me, p))
                ready = false;
        if (ready)
            break;
        co_await sim::delayFor(sim_.eventQueue(), 5 * sim::oneUs);
    }

    // One pump per peer turns the byte stream into messages.
    for (int p = 0; p < size(); ++p)
        if (p != me)
            sim::spawnDetached(sim_.eventQueue(), pump(r, p));
}

Task<void>
MpiWorld::pump(MpiRank &r, int peer)
{
    int me = r.rank();
    auto sock = sockOf(me, peer);
    std::array<std::uint8_t, headerBytes> hdr{};
    while (true) {
        if (co_await sock->recvInto(hdr.data(), hdr.size()) <
            hdr.size())
            co_return; // connection closed
        std::uint32_t src = (std::uint32_t(hdr[0]) << 24) |
                            (std::uint32_t(hdr[1]) << 16) |
                            (std::uint32_t(hdr[2]) << 8) | hdr[3];
        std::uint32_t len = (std::uint32_t(hdr[8]) << 24) |
                            (std::uint32_t(hdr[9]) << 16) |
                            (std::uint32_t(hdr[10]) << 8) |
                            hdr[11];
        if (len > 0)
            co_await sock->recvDrain(len);
        inboxOf(me, static_cast<int>(src)).push(len);
    }
}

Task<void>
MpiWorld::rankMain(MpiRank &r,
                   std::function<Task<void>(MpiRank &)> body)
{
    co_await establishMesh(r);
    if (++readyCount_ == size())
        readyAt_ = sim_.curTick();
    co_await body(r);
}

void
MpiWorld::launch(std::function<Task<void>(MpiRank &)> body)
{
    group_ = std::make_unique<sim::TaskGroup>(sim_.eventQueue());
    for (auto &r : ranks_)
        group_->spawn(rankMain(*r, body));
}

Tick
MpiWorld::runToCompletion(sim::Simulation &s, Tick deadline)
{
    // Periodic timers (e.g. the MCN polling agent) keep the event
    // queue non-empty forever, so run in slices and test completion
    // between slices.
    constexpr Tick slice = 100 * sim::oneUs;
    while (!done() && s.curTick() < deadline)
        s.run(std::min(s.curTick() + slice, deadline));
    return s.curTick();
}

} // namespace mcnsim::dist
