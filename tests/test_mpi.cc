/**
 * @file
 * Tests for the mini-MPI runtime and the workload models, on the
 * scale-up node (loopback), the 10 GbE cluster, and the MCN server
 * -- the same binary-level transparency the paper demonstrates.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "dist/mpi.hh"
#include "dist/npb.hh"
#include "dist/workload.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;
using namespace mcnsim::dist;
using namespace mcnsim::sim;

TEST(MpiBasics, SendRecvOnCluster)
{
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    MpiWorld world(s, {sys.node(0), sys.node(1)});
    std::uint64_t got = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        if (r.rank() == 0) {
            co_await r.send(1, 10'000);
        } else {
            got = co_await r.recv(0);
        }
    });
    world.runToCompletion(s, secondsToTicks(5.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(got, 10'000u);
}

TEST(MpiBasics, HeaderSplitAcrossSegmentsIsReadWhole)
{
    // Rank 0 streams messages of uneven sizes to rank 1 back to
    // back, so the 12-byte headers land at every offset of the TCP
    // segments and some straddle two of them. Every size must come
    // out as sent: a header read short or misaligned would yield a
    // wrong length and desynchronise the rest of the stream.
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    constexpr std::size_t msgs = 64;
    std::vector<std::uint64_t> sizes(msgs);
    for (std::size_t k = 0; k < msgs; ++k)
        sizes[k] = 1 + (k * 997) % 5000;
    std::vector<std::size_t> segEnds; // stream offsets at rank 1
    std::size_t streamed = 0;
    sys.node(1).stack->tcp().setDeliveryHook(
        [&](const net::Packet &pkt) {
            streamed += pkt.size();
            segEnds.push_back(streamed);
        });

    MpiWorld world(s, {sys.node(0), sys.node(1)});
    std::vector<std::uint64_t> got;
    world.launch([&](MpiRank &r) -> Task<void> {
        for (std::size_t k = 0; k < msgs; ++k) {
            if (r.rank() == 0)
                co_await r.send(1, sizes[k]);
            else
                got.push_back(co_await r.recv(0));
        }
    });
    world.runToCompletion(s, secondsToTicks(5.0));
    sys.node(1).stack->tcp().setDeliveryHook(nullptr);
    ASSERT_TRUE(world.done());
    EXPECT_EQ(got, sizes);

    // At least one header crossed a segment boundary.
    std::size_t split = 0, hdr = 0;
    for (std::size_t k = 0; k < msgs; ++k) {
        for (std::size_t end : segEnds)
            if (hdr < end && end < hdr + 12)
                ++split;
        hdr += 12 + sizes[k];
    }
    EXPECT_GT(split, 0u);
}

TEST(MpiBasics, SendRecvWithinOneNodeUsesLoopback)
{
    Simulation s;
    ScaleUpSystem sys(s, 4);

    // Two ranks on the same node.
    MpiWorld world(s, {sys.node(0), sys.node(0)});
    std::uint64_t got = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        if (r.rank() == 0)
            co_await r.send(1, 4096);
        else
            got = co_await r.recv(0);
    });
    world.runToCompletion(s, secondsToTicks(5.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(got, 4096u);
}

TEST(MpiBasics, BarrierSynchronisesRanks)
{
    Simulation s;
    ScaleUpSystem sys(s, 4);
    MpiWorld world(s, {sys.node(0), sys.node(0), sys.node(0)});

    std::vector<Tick> after(3);
    Tick slow_done = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        if (r.rank() == 2) {
            co_await delayFor(r.kernel().eventQueue(), oneMs);
            slow_done = r.kernel().curTick();
        }
        co_await r.barrier();
        after[static_cast<std::size_t>(r.rank())] =
            r.kernel().curTick();
    });
    world.runToCompletion(s, secondsToTicks(5.0));
    ASSERT_TRUE(world.done());
    for (auto t : after)
        EXPECT_GE(t, slow_done); // nobody passes before the sleeper
}

TEST(MpiCollectives, BcastReachesEveryRank)
{
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 3;
    ClusterSystem sys(s, p);
    MpiWorld world(s, {sys.node(0), sys.node(1), sys.node(2)});
    int received = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        co_await r.bcast(0, 100'000);
        if (r.rank() != 0)
            received++;
    });
    world.runToCompletion(s, secondsToTicks(10.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(received, 2);
}

TEST(MpiCollectives, AllReduceAndAllToAllComplete)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 3;
    p.config = McnConfig::level(3);
    McnSystem sys(s, p);

    // Ranks: host + 3 DIMMs.
    MpiWorld world(s, {sys.node(0), sys.node(1), sys.node(2),
                       sys.node(3)});
    int finished = 0;
    world.launch([&](MpiRank &r) -> Task<void> {
        co_await r.allreduce(64 * 1024);
        co_await r.alltoall(32 * 1024);
        co_await r.barrier();
        finished++;
    });
    world.runToCompletion(s, secondsToTicks(10.0));
    ASSERT_TRUE(world.done());
    EXPECT_EQ(finished, 4);
    EXPECT_GT(world.bytesMoved(), 4u * (64 + 3 * 32) * 1024u / 2);
}

TEST(MpiWorkloads, NpbSuiteSpecsAreSane)
{
    for (const auto &w : npb::suite()) {
        EXPECT_FALSE(w.name.empty());
        EXPECT_GT(w.iterations, 0);
        // Strong scaling shrinks per-rank work.
        auto scaled = w.scaledTo(16);
        EXPECT_LE(scaled.memBytesPerIter, w.memBytesPerIter);
        EXPECT_LE(scaled.computeCyclesPerIter,
                  w.computeCyclesPerIter);
    }
    // ep is compute-dominated; mg is memory-dominated.
    EXPECT_GT(npb::ep().computeCyclesPerIter,
              10 * npb::mg().computeCyclesPerIter);
    EXPECT_GT(npb::mg().memBytesPerIter,
              10 * npb::ep().memBytesPerIter);
}

TEST(MpiWorkloads, EpRunsOnScaleUpNode)
{
    Simulation s;
    ScaleUpSystem sys(s, 4);
    auto spec = npb::ep();
    spec.iterations = 2; // keep the test fast

    auto report = runMpiWorkload(
        s, sys, spec, {0, 0, 0, 0}, secondsToTicks(20.0));
    ASSERT_TRUE(report.completed);
    EXPECT_GT(report.makespan, 0u);
}

TEST(MpiWorkloads, MgRunsOnMcnServer)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);

    auto spec = npb::mg().scaledTo(3);
    spec.iterations = 2;
    auto report = runMpiWorkload(s, sys, spec, {0, 1, 2},
                                 secondsToTicks(20.0));
    ASSERT_TRUE(report.completed);
    EXPECT_GT(report.mpiBytes, 0u);
}

TEST(MpiWorkloads, SameWorkloadRunsUnchangedOnAllSystems)
{
    // The application-transparency claim: identical workload code
    // on scale-up, cluster, and MCN systems.
    auto spec = npb::cg().scaledTo(2);
    spec.iterations = 2;

    {
        Simulation s;
        ScaleUpSystem sys(s, 4);
        auto r = runMpiWorkload(s, sys, spec, {0, 0},
                                secondsToTicks(20.0));
        EXPECT_TRUE(r.completed) << "scale-up";
    }
    {
        Simulation s;
        ClusterSystemParams p;
        p.numNodes = 2;
        ClusterSystem sys(s, p);
        auto r = runMpiWorkload(s, sys, spec, {0, 1},
                                secondsToTicks(20.0));
        EXPECT_TRUE(r.completed) << "cluster";
    }
    {
        Simulation s;
        McnSystemParams p;
        p.numDimms = 1;
        p.config = McnConfig::level(0);
        McnSystem sys(s, p);
        auto r = runMpiWorkload(s, sys, spec, {0, 1},
                                secondsToTicks(20.0));
        EXPECT_TRUE(r.completed) << "mcn";
    }
}

TEST(Placement, AllCoresPlacementCoversEveryCore)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    McnSystem sys(s, p);
    auto placement = allCoresPlacement(sys);
    // host 8 cores + 2 DIMMs x 4 cores.
    EXPECT_EQ(placement.size(), 8u + 2u * 4u);
}
