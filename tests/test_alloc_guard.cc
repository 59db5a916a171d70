/**
 * @file
 * Allocation guard: a counting global operator new pins zero heap
 * allocations on paths every socket or every segment takes, so small
 * per-socket and per-message allocations cannot creep back unseen.
 * They matter beyond their own cost: thousands of small chunks freed
 * when a simulated system is torn down stay pending in glibc's
 * fastbins and are consolidated inside the next system build, which
 * is timed (perfbench `setup_s`).
 *
 * Each test warms its path once (event pool slabs, vector
 * capacities, buffer-pool free lists), then counts a second pass.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/system_builder.hh"
#include "cpu/core.hh"
#include "cpu/cpu_cluster.hh"
#include "dist/mpi.hh"
#include "mcn/mcn_dma.hh"
#include "mem/bandwidth_arbiter.hh"
#include "mem/mem_controller.hh"
#include "mem/mem_system.hh"
#include "netdev/ethernet_link.hh"
#include "netdev/ethernet_switch.hh"
#include "net/ethernet.hh"
#include "net/icmp.hh"
#include "net/packet.hh"
#include "net/recv_queue.hh"
#include "os/kernel.hh"
#include "os/softirq.hh"
#include "sim/event_queue.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "sim/timer.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};
/// While counting: allocations of exactly watchedSize bytes.
std::atomic<std::size_t> watchedSize{0};
std::atomic<std::size_t> watchedAllocations{0};

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (counting.load(std::memory_order_relaxed)) {
        allocations.fetch_add(1, std::memory_order_relaxed);
        if (n == watchedSize.load(std::memory_order_relaxed))
            watchedAllocations.fetch_add(1,
                                         std::memory_order_relaxed);
    }
    if (n == 0)
        n = 1;
    void *p = align ? std::aligned_alloc(align, (n + align - 1) /
                                                    align * align)
                    : std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}

/** Counts the heap allocations made while it is alive. */
class AllocCount
{
  public:
    /** Also count, separately, allocations of exactly @p size
     *  bytes (0: none). */
    explicit AllocCount(std::size_t size = 0)
    {
        allocations.store(0, std::memory_order_relaxed);
        watchedSize.store(size, std::memory_order_relaxed);
        watchedAllocations.store(0, std::memory_order_relaxed);
        counting.store(true, std::memory_order_relaxed);
    }
    ~AllocCount() { counting.store(false, std::memory_order_relaxed); }

    std::size_t
    count() const
    {
        return allocations.load(std::memory_order_relaxed);
    }

    std::size_t
    ofWatchedSize() const
    {
        return watchedAllocations.load(std::memory_order_relaxed);
    }
};

} // namespace

// Every replaceable allocation function maps onto malloc/free, so
// sanitizer runtimes see matching pairs.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace mcnsim;

TEST(AllocGuard, CountsAllocations)
{
    // The guard itself works: a vector that grows is seen.
    AllocCount c;
    std::vector<int> v(3);
    EXPECT_GE(c.count(), 1u);
}

TEST(AllocGuard, ConditionConstructAndIdleNotify)
{
    sim::EventQueue q;
    AllocCount c;
    {
        sim::Condition cv(q);
        cv.notifyAll();
        cv.notifyOne();
    }
    EXPECT_EQ(c.count(), 0u);
}

TEST(AllocGuard, ConditionWaitNotifyRound)
{
    sim::EventQueue q;
    sim::Condition cv(q);
    int wakes = 0;
    auto waiter = [&]() -> sim::Task<void> {
        for (;;) {
            co_await cv.wait();
            ++wakes;
        }
    };
    sim::spawnDetached(q, waiter());
    q.run();
    cv.notifyAll(); // warm the event pool
    q.run();
    ASSERT_EQ(wakes, 1);
    {
        AllocCount c;
        cv.notifyAll();
        q.run();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(wakes, 2);
    EXPECT_EQ(cv.waiterCount(), 1u);
}

TEST(AllocGuard, RecvQueueSteadyStateMtuSlices)
{
    // Segments arrive (pooled blocks and Packets), are queued as
    // slices and drained: once the pool and the slice vector are
    // warm, none of it touches the heap.
    net::RecvQueue q;
    std::array<std::uint8_t, 4096> sink{};
    auto cycle = [&] {
        for (int i = 0; i < 32; ++i) {
            auto seg = net::Packet::makePattern(
                i % 2 ? 1448 : 9000, static_cast<std::uint8_t>(i));
            q.append(seg->view());
        }
        while (!q.empty()) {
            std::size_t n = std::min(q.size(), sink.size());
            q.take(n, sink.data());
        }
    };
    cycle();
    AllocCount c;
    cycle();
    EXPECT_EQ(c.count(), 0u);
}

TEST(AllocGuard, MpiHeaderReadAcrossTwoSlices)
{
    // The MPI pump's header read: 12 bytes that straddle two
    // segments are copied into a fixed array, with no vector. The
    // first pass warms the pool's free list the read releases into.
    net::RecvQueue q;
    auto first = net::Packet::makePattern(1448, 1);
    auto second = net::Packet::makePattern(1448, 2);
    for (int pass = 0; pass < 2; ++pass) {
        q.append(first->view());
        q.append(second->view());
        q.popFront(1448 - 5);
        std::array<std::uint8_t, 12> hdr{};
        {
            AllocCount c;
            q.take(hdr.size(), hdr.data());
            if (pass == 1) {
                EXPECT_EQ(c.count(), 0u);
            }
        }
        for (std::size_t i = 0; i < 5; ++i)
            EXPECT_EQ(hdr[i], first->cdata()[1448 - 5 + i]);
        for (std::size_t i = 5; i < 12; ++i)
            EXPECT_EQ(hdr[i], second->cdata()[i - 5]);
        q.popFront(q.size());
    }
}

TEST(AllocGuard, ScheduleOfA48ByteCaptureStaysInline)
{
    // A pooled event holds its callable inline: a 48-byte capture
    // (EthernetLink::sendFrom's size) needs no heap once the pool
    // is warm.
    sim::EventQueue q;
    std::array<std::uint64_t, 5> payload{1, 2, 3, 4, 5};
    std::uint64_t sum = 0;
    auto round = [&] {
        for (int i = 0; i < 8; ++i) {
            auto fn = [payload, &sum] {
                for (auto v : payload)
                    sum += v;
            };
            static_assert(sizeof(fn) == 48);
            q.scheduleIn(std::move(fn), 10, "capture");
        }
        q.run();
    };
    round();
    {
        AllocCount c;
        round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(sum, 2u * 8 * 15);
}

TEST(AllocGuard, CoreSlotRound)
{
    // A charge's completion is the core's own member event and its
    // callback waits in a member, so rounds of slots allocate
    // nothing once the slot ring is warm (a std::deque of slots
    // would free and re-make a node every dozen slots).
    sim::Simulation s;
    sim::ClockDomain clk("clk", 1e9);
    cpu::Core core(s, "core", clk);
    int done = 0;
    auto round = [&] {
        for (int i = 0; i < 4; ++i)
            core.execute(100, [&done](sim::Tick) { ++done; }, i == 3);
        s.run();
    };
    round();
    {
        AllocCount c;
        for (int k = 0; k < 16; ++k)
            round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(done, 68);
}

TEST(AllocGuard, CoreRunAwaitAddsNoFrame)
{
    // co_await core.run() is a plain awaiter: charging a running
    // coroutine allocates no coroutine frame of its own.
    sim::Simulation s;
    sim::ClockDomain clk("clk", 1e9);
    cpu::Core core(s, "core", clk);
    int charges = 0;
    auto worker = [&]() -> sim::Task<void> {
        for (;;) {
            co_await core.run(100);
            ++charges;
        }
    };
    sim::spawnDetached(s.eventQueue(), worker());
    s.eventQueue().run(1000 * sim::oneNs);
    ASSERT_GT(charges, 0);
    const int warm = charges;
    {
        AllocCount c;
        s.eventQueue().run(2000 * sim::oneNs);
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(charges, 2 * warm);
}

TEST(AllocGuard, BandwidthArbiterStartAndCancelInPlace)
{
    // Flows live in a vector kept in id order: on a warm arbiter a
    // start appends and a cancel erases, neither touching the heap.
    sim::Simulation s;
    mem::BandwidthArbiter arb(s, "arb", 10e9);
    int done = 0;
    auto round = [&] {
        mem::BandwidthArbiter::FlowId ids[4];
        for (auto &id : ids)
            id = arb.startTransfer(
                100000, [&done](sim::Tick) { ++done; });
        arb.cancel(ids[1]);
        arb.cancel(ids[3]);
        arb.cancel(ids[0]);
        arb.cancel(ids[2]);
        EXPECT_EQ(arb.activeFlows(), 0u);
        s.run(); // pops the completion events the replans dropped
    };
    round();
    {
        AllocCount c;
        round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(done, 0);
}

TEST(AllocGuard, BulkInterleavedTwoChannelRound)
{
    // The per-channel slices of an interleaved transfer join on a
    // pooled record, so a round allocates nothing once the pool and
    // the arbiters are warm.
    sim::Simulation s;
    mem::MemSystem ms(s, "mem", 2, mem::DramTiming::ddr4_3200());
    int done = 0;
    sim::Tick last = 0;
    auto round = [&] {
        for (int i = 0; i < 3; ++i)
            ms.bulkInterleaved(
                4096 * static_cast<std::uint64_t>(i + 1),
                [&done, &last](sim::Tick t) {
                    ++done;
                    last = t;
                });
        s.run();
    };
    round();
    {
        AllocCount c;
        round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(done, 6);
    EXPECT_EQ(last, s.curTick());
}

TEST(AllocGuard, MmioAccessRoundTrip)
{
    // An MMIO completion event keeps only what its observer sees
    // (region, kind, address, size) next to the completion callback:
    // the capture fits an event slot, so a round trip is heap-free.
    sim::Simulation s;
    mem::MemController mc(s, "mc", mem::DramTiming::ddr4_3200());
    mem::MmioRegion r;
    r.base = 1 << 20;
    r.size = 4096;
    r.readLatency = 50 * sim::oneNs;
    r.writeLatency = 10 * sim::oneNs;
    struct Seen
    {
        mem::MemRequest::Kind kind;
        mem::Addr addr;
        std::uint32_t size;
    };
    std::array<Seen, 2> seen{}; // by kind
    r.onAccess = [&seen](const mem::MemRequest &req, sim::Tick) {
        seen[req.kind == mem::MemRequest::Kind::Write] =
            Seen{req.kind, req.addr, req.size};
    };
    mc.addMmioRegion(std::move(r));
    int completions = 0;
    auto round = [&] {
        mem::MemRequest rd;
        rd.addr = (1 << 20) + 128;
        rd.size = 8;
        rd.onComplete = [&completions](sim::Tick) { ++completions; };
        mc.access(std::move(rd));
        mem::MemRequest wr;
        wr.kind = mem::MemRequest::Kind::Write;
        wr.addr = (1 << 20) + 256;
        wr.size = 4;
        wr.onComplete = [&completions](sim::Tick) { ++completions; };
        mc.access(std::move(wr));
        s.run();
    };
    round();
    {
        AllocCount c;
        round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(completions, 4);
    EXPECT_EQ(seen[0].kind, mem::MemRequest::Kind::Read);
    EXPECT_EQ(seen[0].addr, (1u << 20) + 128);
    EXPECT_EQ(seen[0].size, 8u);
    EXPECT_EQ(seen[1].kind, mem::MemRequest::Kind::Write);
    EXPECT_EQ(seen[1].addr, (1u << 20) + 256);
    EXPECT_EQ(seen[1].size, 4u);
}

TEST(AllocGuard, BandwidthArbiterReplansAndRetiresInPlace)
{
    // Every start, cancel, background change and completion replans
    // the water-fill, and completions collect their callbacks before
    // running them. Once the buffers are warm, a round of transfers
    // completing, plus background changes while they run, touches
    // the heap not at all (startTransfer() appends to a warm flow
    // vector; see BandwidthArbiterStartAndCancelInPlace).
    sim::Simulation s;
    mem::BandwidthArbiter arb(s, "arb", 10e9);
    int done = 0;
    auto start = [&] {
        for (int i = 0; i < 4; ++i)
            arb.startTransfer(
                1000 * static_cast<std::uint64_t>(i + 1),
                [&done](sim::Tick) { ++done; },
                i % 2 ? 2e9 : mem::BandwidthArbiter::unlimited);
    };
    auto finish = [&] {
        arb.setBackgroundLoad(0.5);
        arb.setBackgroundLoad(0.0);
        s.run();
    };
    for (int warm = 0; warm < 2; ++warm) {
        start();
        finish();
    }
    ASSERT_EQ(done, 8);
    start();
    {
        AllocCount c;
        finish();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(done, 12);
}

TEST(AllocGuard, MpiSendBuildsNoHeaderVector)
{
    // Each MPI message is a 12-byte header, then the payload; the
    // header is built in a fixed array, so no message allocates a
    // 12-byte buffer for it.
    sim::Simulation s;
    core::ClusterSystemParams p;
    p.numNodes = 2;
    core::ClusterSystem sys(s, p);
    dist::MpiWorld world(s, {sys.node(0), sys.node(1)});
    constexpr int msgs = 50;
    std::uint64_t got = 0;
    world.launch([&](dist::MpiRank &r) -> sim::Task<void> {
        for (int k = 0; k < msgs; ++k) {
            if (r.rank() == 0)
                co_await r.send(1, 100);
            else
                got += co_await r.recv(0);
        }
    });
    AllocCount c(12);
    world.runToCompletion(s, sim::secondsToTicks(5.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(got, 100u * msgs);
    EXPECT_EQ(c.ofWatchedSize(), 0u);
}

TEST(AllocGuard, SoftirqTaskletRound)
{
    // A tasklet waits in the engine's ring, then in a member while
    // its dispatch cost is charged, so the core slot captures only
    // the engine. A tasklet holding a reference-counted object (as
    // a socket's does) stays inline: rounds allocate nothing once
    // the rings are warm.
    sim::Simulation s;
    cpu::CpuCluster cpus(s, "cpus", 2, 1e9);
    os::SoftirqEngine softirq(s, "softirq", cpus);
    auto token = std::make_shared<int>(1);
    int ran = 0;
    auto round = [&] {
        for (int i = 0; i < 4; ++i)
            softirq.schedule([token, &ran] { ran += *token; });
        s.run();
    };
    round();
    {
        AllocCount c;
        for (int k = 0; k < 8; ++k)
            round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(ran, 36);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(AllocGuard, McnDmaTransferRound)
{
    // An MCN-DMA transfer parks its caller's continuation in a
    // pooled job: the descriptor setup, the stream through the
    // channel arbiter and the completion interrupt each capture
    // only the engine and the job, and a continuation holding a
    // frame (the drivers' do) stays inline.
    sim::Simulation s;
    os::Kernel kernel(s, "host", 0, os::KernelParams{});
    mcn::McnDmaEngine dma(s, "dma", kernel,
                          kernel.mem().controller(0).bulk());
    auto frame = net::Packet::makePattern(4096);
    int done = 0;
    auto round = [&] {
        for (int i = 0; i < 3; ++i)
            dma.transfer(4096, [frame, &done](sim::Tick) { ++done; });
        s.run();
    };
    round();
    {
        AllocCount c;
        for (int k = 0; k < 4; ++k)
            round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(done, 15);
    EXPECT_EQ(dma.transfers(), 15u);
    EXPECT_EQ(frame.use_count(), 1);
}

TEST(AllocGuard, TimerRearmKeepingItsSocket)
{
    // TCP's retransmission timer: every arm holds the socket (a
    // shared_ptr) and re-arming an armed timer moves it. The timer
    // keeps the callback inline, so arms, re-arms and fires
    // allocate nothing once the event pool is warm.
    sim::EventQueue q;
    sim::TimerList timers(q, "tcp.rto");
    sim::Timer rto;
    auto socket = std::make_shared<int>(0);
    int fired = 0;
    auto round = [&] {
        for (int i = 0; i < 3; ++i)
            timers.arm(rto, q.curTick() + 1000 + i,
                       [self = socket, &fired] { fired += 1 + *self; });
        q.run();
    };
    round();
    {
        AllocCount c;
        for (int k = 0; k < 8; ++k)
            round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(fired, 9);
    EXPECT_EQ(timers.fires(), 9u);
    EXPECT_EQ(socket.use_count(), 1);
}

TEST(AllocGuard, MmioRoundTripWithA40ByteCompletion)
{
    // The controller parks an access's completion in a pooled
    // record, so the MMIO event captures the record, not the
    // callback: a completion of 40 B (over std::function's small
    // buffer) makes a heap-free round trip.
    sim::Simulation s;
    mem::MemController mc(s, "mc", mem::DramTiming::ddr4_3200());
    mem::MmioRegion r;
    r.base = 1 << 20;
    r.size = 4096;
    r.readLatency = 50 * sim::oneNs;
    r.writeLatency = 10 * sim::oneNs;
    mc.addMmioRegion(std::move(r));
    std::array<std::uint64_t, 4> weights{1, 2, 3, 4};
    std::uint64_t sum = 0;
    auto round = [&] {
        for (auto kind : {mem::MemRequest::Kind::Read,
                          mem::MemRequest::Kind::Write}) {
            mem::MemRequest req;
            req.kind = kind;
            req.addr = (1 << 20) + 64;
            req.size = 8;
            auto fn = [weights, &sum](sim::Tick) {
                for (auto w : weights)
                    sum += w;
            };
            static_assert(sizeof(fn) == 40);
            req.onComplete = std::move(fn);
            mc.access(std::move(req));
        }
        s.run();
    };
    round();
    {
        AllocCount c;
        round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(sum, 40u);
}

namespace {

/** Allocations made by a warm ping from @p from to @p to, and its
 *  RTT through @p rtt. Warm means the pools, rings and event heap
 *  have grown to what pings need: each ping leaves its descheduled
 *  timeout in the heap until compaction, which runs once 64 are
 *  stale, so the heap stops growing only after that many pings. */
std::size_t
warmPingAllocations(sim::Simulation &s, net::NetStack &from,
                    net::Ipv4Addr to, std::size_t payload,
                    sim::Tick &rtt)
{
    std::size_t counted = 0;
    for (int pass = 0; pass < 100; ++pass) {
        bool finished = false;
        auto task = [&]() -> sim::Task<void> {
            rtt = co_await from.icmp().ping(to, payload);
            finished = true;
        };
        AllocCount c;
        sim::spawnDetached(s.eventQueue(), task());
        const sim::Tick deadline = s.curTick() + sim::oneMs;
        while (!finished && s.curTick() < deadline)
            s.run(std::min(s.curTick() + 50 * sim::oneUs, deadline));
        counted = c.count();
    }
    return counted;
}

} // namespace

TEST(AllocGuard, WarmHostToMcnPingAllocatesNothing)
{
    // A warm ping from the host to an MCN DIMM, 16 B (CPU copies)
    // and 8 KB (DMA at mcn5), at mcn0 (HR-timer polling) and mcn5:
    // every completion along the way is inline or parked, the
    // ping() frame and this test's wrapper frame come from the
    // frame pool, and the pending ping sits in a kept vector.
    for (int level : {0, 5}) {
        for (std::size_t payload : {16u, 8192u}) {
            sim::Simulation s;
            core::McnSystemParams p;
            p.config = core::McnConfig::level(level);
            core::McnSystem sys(s, p);
            sim::Tick rtt = sim::maxTick;
            const std::size_t n = warmPingAllocations(
                s, sys.hostStack(), sys.dimmAddr(0), payload, rtt);
            EXPECT_NE(rtt, sim::maxTick);
            EXPECT_EQ(n, 0u) << "mcn" << level << ", " << payload
                             << " B";
        }
    }
}

namespace {

sim::Task<int>
chainLeaf(sim::EventQueue &q, int v)
{
    co_await sim::delayFor(q, sim::oneNs);
    co_return v;
}

sim::Task<int>
chainMiddle(sim::EventQueue &q, int v)
{
    co_return co_await chainLeaf(q, v) + 1;
}

sim::Task<void>
chainRoot(sim::EventQueue &q, int v, int &sum)
{
    sum += co_await chainMiddle(q, v);
}

} // namespace

TEST(AllocGuard, WarmNestedTaskChainAllocatesNothing)
{
    // Each call in a 3-deep co_await chain makes a coroutine frame;
    // once a chain has run, the next one's frames come back from
    // the frame pool.
    sim::EventQueue q;
    int sum = 0;
    auto round = [&](int v) {
        sim::spawnDetached(q, chainRoot(q, v, sum));
        q.run();
    };
    round(1);
    {
        AllocCount c;
        for (int v = 2; v <= 8; ++v)
            round(v);
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(sum, 8 * 9 / 2 + 8);
}

TEST(AllocGuard, CrossShardPostOfA40ByteCaptureStaysInline)
{
    // A cross-shard post (a frame handed to the next shard's link
    // end) rides the mailbox as a Callback: posted, merged into the
    // destination queue and dispatched, a 40 B capture stays inline
    // once the inbox and the event pool are warm.
    sim::Simulation s;
    s.enableSharding();
    const std::size_t other = s.newShard();
    s.addShardEdge(0, other, sim::oneUs);
    std::array<std::uint64_t, 4> weights{1, 2, 3, 4};
    std::uint64_t sum = 0;
    auto round = [&] {
        s.shardQueue(0).scheduleIn(
            [&] {
                for (int i = 0; i < 8; ++i) {
                    auto fn = [weights, &sum] {
                        for (auto w : weights)
                            sum += w;
                    };
                    static_assert(sizeof(fn) == 40);
                    s.postCrossShard(
                        0, other,
                        s.shardQueue(0).curTick() + sim::oneUs,
                        sim::EventPriority::Default, "test.cross",
                        std::move(fn));
                }
            },
            10 * sim::oneNs, "test.src");
        s.run(s.shardQueue(0).curTick() + 10 * sim::oneUs);
    };
    round();
    {
        AllocCount c;
        for (int k = 0; k < 4; ++k)
            round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(sum, 5u * 8 * 10);
}

namespace {

/** Counts the frames a link delivers to it. */
class CountingEndpoint : public netdev::EtherEndpoint
{
  public:
    std::size_t frames = 0;

    void receiveFrame(net::PacketPtr) override { ++frames; }
};

} // namespace

TEST(AllocGuard, FabricIngressPassReusesItsBatch)
{
    // Same-tick arrivals on two ports of a fabric switch are routed
    // in one end-of-tick ingress pass; the pass swaps its batch with
    // the inbox and orders it in place, so once both vectors have
    // grown a round of passes allocates nothing.
    sim::Simulation s;
    netdev::EthernetSwitch sw(s, "sw", 3);
    sw.enableFabric();
    const net::MacAddr dst = net::MacAddr::fromId(9);
    sw.addFabricRoute(dst, {2});
    std::vector<std::unique_ptr<netdev::EthernetLink>> links;
    std::array<CountingEndpoint, 3> hosts;
    for (std::uint32_t p = 0; p < 3; ++p) {
        links.push_back(std::make_unique<netdev::EthernetLink>(
            s, "link" + std::to_string(p), 10e9, sim::oneUs));
        sw.attachLink(p, *links[p]);
        links[p]->attachB(&hosts[p]);
    }
    constexpr int perPort = 4;
    std::vector<net::PacketPtr> frames;
    auto build = [&] {
        for (int i = 0; i < 2 * perPort; ++i) {
            auto pkt = net::Packet::makePattern(100);
            net::EthernetHeader eth;
            eth.dst = dst;
            eth.src = net::MacAddr::fromId(1 + i % 2);
            eth.push(*pkt);
            frames.push_back(std::move(pkt));
        }
    };
    auto round = [&] {
        // Each port's frames arrive one serialization apart, so
        // every pass routes one frame from each of ports 0 and 1.
        for (int i = 0; i < 2 * perPort; ++i)
            links[i % 2]->sendFrom(&hosts[i % 2],
                                   std::move(frames[i]));
        frames.clear();
        s.run(s.curTick() + 100 * sim::oneUs);
    };
    frames.reserve(2 * perPort);
    build();
    round();
    build();
    {
        AllocCount c;
        round();
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(hosts[2].frames, 4u * perPort);
    EXPECT_EQ(sw.forwarded(), 4u * perPort);
}

TEST(AllocGuard, WarmFabricHelloRound)
{
    // Two fabric switches probe one trunk with hellos every
    // helloInterval. A hello's 4-byte payload is written in place
    // into a pooled block, so once the pool and the event slabs are
    // warm a round of hellos allocates nothing.
    sim::Simulation s;
    netdev::EthernetSwitch a(s, "a", 1), b(s, "b", 1);
    const netdev::FabricParams fp;
    a.enableFabric(fp);
    b.enableFabric(fp);
    a.markTrunk(0);
    b.markTrunk(0);
    netdev::EthernetLink trunk(s, "trunk", 10e9, sim::oneUs);
    a.attachLink(0, trunk);
    b.attachLink(0, trunk, /*b_side=*/true);
    s.run(4 * fp.helloInterval);
    {
        AllocCount c;
        s.run(s.curTick() + 2 * fp.helloInterval);
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_TRUE(a.portLive(0));
    EXPECT_TRUE(b.portLive(0));
}

TEST(AllocGuard, PendingSetWarmMixedHorizonRound)
{
    // The pending set's shape on rack_iperf: near-future entries in
    // FIFO order (link deliveries), each re-pushed as it fires, plus
    // far-future timers of which one is re-armed per pop, leaving a
    // stale entry for compaction. Bucket chunks come from the
    // queue's own free list and `now` keeps its capacity, so once
    // warm this allocates nothing.
    sim::EventQueue q;
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<sim::CallbackEvent>> timers;
    for (int i = 0; i < 64; ++i)
        timers.push_back(
            std::make_unique<sim::CallbackEvent>("rto", [] {}));
    struct Near
    {
        sim::EventQueue *q;
        std::vector<std::unique_ptr<sim::CallbackEvent>> *timers;
        std::uint64_t *fired;

        void
        operator()() const
        {
            const std::uint64_t n = ++*fired;
            q->scheduleIn(*this, 1000, "near");
            sim::CallbackEvent *t = (*timers)[n % timers->size()].get();
            const sim::Tick at = q->curTick() + 50'000'000 + n % 977;
            if (t->scheduled())
                q->reschedule(t, at);
            else
                q->schedule(t, at);
        }
    };
    for (int i = 0; i < 256; ++i)
        q.schedule(Near{&q, &timers, &fired}, 1 + i * 3, "near");
    q.runEvents(20000);
    {
        AllocCount c;
        q.runEvents(20000);
        EXPECT_EQ(c.count(), 0u);
    }
    EXPECT_EQ(fired, 40000u);
    EXPECT_EQ(q.pendingEvents(), 256u + timers.size());
}

TEST(AllocGuard, CompactionReturnsEveryChunkOfAStaleBucket)
{
    // Far buckets of several chunks whose entries are all cancelled
    // when compaction runs (old retransmission timers whose re-arms
    // landed in a higher bucket) hand every one of their chunks back
    // to the queue's free list, so repeating the round carves no new
    // chunk slab.
    sim::EventQueue q;
    std::vector<std::unique_ptr<sim::CallbackEvent>> lowBucket, highBucket;
    for (int i = 0; i < 40; ++i)
        lowBucket.push_back(
            std::make_unique<sim::CallbackEvent>("old", [] {}));
    for (int i = 0; i < 25; ++i)
        highBucket.push_back(
            std::make_unique<sim::CallbackEvent>("new", [] {}));
    // 65 entries, all cancelled: the last cancel crosses the
    // compaction threshold and leaves the queue empty, so every round
    // starts from the same state.
    const auto round = [&] {
        for (std::size_t i = 0; i < lowBucket.size(); ++i)
            q.schedule(lowBucket[i].get(), (sim::Tick{1} << 30) + i);
        for (std::size_t i = 0; i < highBucket.size(); ++i)
            q.schedule(highBucket[i].get(), (sim::Tick{1} << 40) + i);
        for (auto &ev : lowBucket)
            q.deschedule(ev.get());
        for (auto &ev : highBucket)
            q.deschedule(ev.get());
        EXPECT_EQ(q.staleEntries(), 0u) << "no compaction";
        EXPECT_EQ(q.internalEntries(), 0u);
    };
    round();
    {
        AllocCount c;
        for (int r = 0; r < 64; ++r)
            round();
        EXPECT_EQ(c.count(), 0u);
    }
}
