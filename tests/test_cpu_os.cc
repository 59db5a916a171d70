/**
 * @file
 * Unit tests for the CPU execution model and the OS service layer
 * (IRQs, softirqs, HR-timers, cost model).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "cpu/cpu_cluster.hh"
#include "os/hrtimer.hh"
#include "os/interrupt.hh"
#include "os/kernel.hh"
#include "os/softirq.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::cpu;
using namespace mcnsim::sim;

TEST(CoreTest, ChargesDurationAtClockRate)
{
    Simulation s;
    ClockDomain clk("clk", 1e9); // 1 GHz: 1 cycle = 1 ns
    Core core(s, "core", clk);

    Tick done_at = 0;
    core.execute(1000, [&](Tick at) { done_at = at; });
    s.run();
    EXPECT_EQ(done_at, 1000 * oneNs);
    EXPECT_EQ(core.busyTicks(), 1000 * oneNs);
}

TEST(CoreTest, WorkSerialisesFifo)
{
    Simulation s;
    ClockDomain clk("clk", 1e9);
    Core core(s, "core", clk);

    std::vector<int> order;
    core.execute(100, [&](Tick) { order.push_back(1); });
    core.execute(100, [&](Tick) { order.push_back(2); });
    core.execute(100, [&](Tick) { order.push_back(3); });
    EXPECT_FALSE(core.idle());
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.curTick(), 300 * oneNs);
    EXPECT_TRUE(core.idle());
}

TEST(CoreTest, IrqWorkJumpsQueueButNotRunningSlot)
{
    Simulation s;
    ClockDomain clk("clk", 1e9);
    Core core(s, "core", clk);

    std::vector<int> order;
    core.execute(100, [&](Tick) { order.push_back(1); }); // running
    core.execute(100, [&](Tick) { order.push_back(2); }); // queued
    core.execute(50, [&](Tick) { order.push_back(9); },
                 /*irq=*/true); // jumps ahead of 2
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 9, 2}));
}

TEST(CoreTest, BacklogAccountsAllQueuedWork)
{
    Simulation s;
    ClockDomain clk("clk", 1e9);
    Core core(s, "core", clk);
    core.execute(100, nullptr);
    core.execute(200, nullptr);
    EXPECT_EQ(core.backlogClearsAt(), 300 * oneNs);
    s.run();
    EXPECT_EQ(core.backlogClearsAt(), s.curTick());
}

TEST(CoreTest, CoroutineRunResumesAfterCharge)
{
    Simulation s;
    ClockDomain clk("clk", 2e9); // 0.5 ns per cycle
    Core core(s, "core", clk);
    Tick resumed = 0;
    auto t = [&]() -> Task<void> {
        co_await core.run(1000);
        resumed = s.curTick();
    };
    spawnDetached(s.eventQueue(), t());
    s.run();
    EXPECT_EQ(resumed, 500 * oneNs);
}

TEST(CpuClusterTest, LeastLoadedBalances)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 4, 1e9);
    // Queue 8 equal slots through the balancer: each core gets 2.
    for (int i = 0; i < 8; ++i)
        cpus.execute(100, nullptr);
    s.run();
    EXPECT_EQ(s.curTick(), 200 * oneNs); // 2 rounds in parallel
    EXPECT_EQ(cpus.totalBusyTicks(), 800 * oneNs);
}

TEST(CpuCluster, LeastLoadedPicksFirstIdleCore)
{
    // The pick is the lowest-index core with the smallest clear
    // tick, whether it is idle (clears now) or every core is busy.
    Simulation s;
    CpuCluster cpus(s, "cpus", 4, 1e9);
    EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(0));
    cpus.core(0).execute(300, nullptr);
    cpus.core(2).execute(100, nullptr);
    EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(1));
    cpus.core(1).execute(200, nullptr);
    EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(3));
    cpus.core(3).execute(100, nullptr);
    // All busy: cores 2 and 3 clear first, at 100 ns; 2 wins the tie.
    EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(2));
    cpus.core(2).execute(250, nullptr);
    EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(3));
    // At 150 ns core 3 is idle again while 0, 1 and 2 still run.
    s.run(150 * oneNs);
    EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(3));
    // At 320 ns cores 0 (300) and 1 (200) are idle; 2 runs to 350.
    s.run(320 * oneNs);
    EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(0));
    EXPECT_TRUE(cpus.core(1).idle());
    EXPECT_FALSE(cpus.core(2).idle());
}

TEST(CpuCluster, LeastLoadedMatchesBacklogScan)
{
    // A seeded mix of pinned and balanced charges, IRQ work pushed
    // to the front of busy queues, and picks made from completion
    // callbacks, where the finishing core is not running but may
    // still hold queued slots: every pick is the lowest-index core
    // whose backlog clears soonest. A core never idles with work
    // queued, so the test's own clear ticks (max(clear, now) + work
    // on every charge, in any queue order) must match each core's.
    Simulation s;
    CpuCluster cpus(s, "cpus", 6, 1e9);
    Rng rng(29);
    std::vector<Tick> clears(cpus.coreCount(), 0);
    int picks = 0, idlePicks = 0, busyPicks = 0;
    int callbackPicksWithQueue = 0, irqFrontPushes = 0;

    auto charge = [&](std::uint32_t i, Callback<void(Tick)> done) {
        Core &c = cpus.core(i);
        const bool irq = rng.chance(0.3);
        if (irq && !c.idle())
            ++irqFrontPushes;
        const Cycles n = rng.uniformInt(1, 2000);
        clears[i] = std::max(clears[i], s.curTick()) +
                    cpus.clock().cyclesToTicks(n);
        c.execute(n, std::move(done), irq);
    };
    std::function<void(int)> balanced = [&](int depth) {
        const Tick now = s.curTick();
        std::uint32_t want = 0;
        for (std::uint32_t i = 0; i < cpus.coreCount(); ++i) {
            const Tick at = std::max(clears[i], now);
            EXPECT_EQ(cpus.core(i).backlogClearsAt(now), at);
            if (at < std::max(clears[want], now))
                want = i;
        }
        ++picks;
        ++(cpus.core(want).idle() ? idlePicks : busyPicks);
        EXPECT_EQ(&cpus.leastLoaded(), &cpus.core(want))
            << "pick " << picks;
        charge(want, [&, depth, want](Tick) {
            if (depth < 3 && rng.chance(0.6)) {
                if (!cpus.core(want).idle())
                    ++callbackPicksWithQueue;
                balanced(depth + 1);
            }
        });
    };
    for (int i = 0; i < 400; ++i) {
        s.eventQueue().schedule(
            [&] {
                for (auto n = rng.uniformInt(0, 2); n > 0; --n)
                    charge(static_cast<std::uint32_t>(rng.uniformInt(
                               0, cpus.coreCount() - 1)),
                           nullptr);
                for (auto n = rng.uniformInt(1, 3); n > 0; --n)
                    balanced(0);
            },
            rng.uniformInt(0, 400) * oneUs, "mix");
    }
    s.run();

    EXPECT_GT(idlePicks, 100);
    EXPECT_GT(busyPicks, 100);
    EXPECT_GT(callbackPicksWithQueue, 100);
    EXPECT_GT(irqFrontPushes, 100);
}

TEST(CpuClusterTest, ZeroCoresRejected)
{
    Simulation s;
    EXPECT_THROW(CpuCluster(s, "bad", 0, 1e9), FatalError);
}

TEST(IrqTest, HandlerRunsAfterEntryCost)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::IrqController irq(s, "irq", cpus);

    Tick handled_at = 0;
    irq.request(7, [&] { handled_at = s.curTick(); });
    irq.raise(7);
    s.run();
    // interruptEntry cycles at 1 GHz.
    EXPECT_EQ(handled_at,
              cpus.costs().interruptEntry * oneNs);
    EXPECT_EQ(irq.raisedCount(), 1u);
}

TEST(IrqTest, UnknownIrqCountedSpurious)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::IrqController irq(s, "irq", cpus);
    irq.raise(99); // nobody registered
    s.run();
    EXPECT_EQ(irq.raisedCount(), 1u);
}

TEST(IrqTest, DynamicLinesArePerControllerNotPerProcess)
{
    // allocateLine() draws from a per-controller counter: a node's
    // line numbers are a pure function of its own device
    // construction order. A process-global counter here (the
    // shard-static analyzer's first real find) made them depend on
    // how many controllers the process had already built.
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::IrqController first(s, "irq0", cpus);
    EXPECT_EQ(first.allocateLine(), 100u);
    EXPECT_EQ(first.allocateLine(), 101u);

    os::IrqController second(s, "irq1", cpus);
    EXPECT_EQ(second.allocateLine(), 100u);
    EXPECT_EQ(first.allocateLine(), 102u);
}

TEST(SoftirqTest, TaskletsSerialise)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 2, 1e9);
    os::SoftirqEngine softirq(s, "softirq", cpus);

    std::vector<int> order;
    softirq.schedule([&] { order.push_back(1); });
    softirq.schedule([&] { order.push_back(2); });
    softirq.schedule([&] { order.push_back(3); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(softirq.executed(), 3u);
}

TEST(SoftirqTest, HandlerMayRescheduleItself)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::SoftirqEngine softirq(s, "softirq", cpus);
    int rounds = 0;
    std::function<void()> poll = [&] {
        if (++rounds < 5)
            softirq.schedule(poll);
    };
    softirq.schedule(poll);
    s.run();
    EXPECT_EQ(rounds, 5);
}

TEST(HrTimerTest, PeriodicFiresUntilCancelled)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::HrTimer timer(s, "timer", cpus);

    int fires = 0;
    timer.startPeriodic(10 * oneUs, [&] {
        if (++fires == 5)
            timer.cancel();
    });
    s.run(oneMs);
    EXPECT_EQ(fires, 5);
    EXPECT_FALSE(timer.active());
    EXPECT_EQ(timer.fires(), 5u);
}

TEST(HrTimerTest, OneShotFiresOnce)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::HrTimer timer(s, "timer", cpus);
    int fires = 0;
    timer.startOnce(5 * oneUs, [&] { fires++; });
    s.run(oneMs);
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(timer.active());
}

TEST(HrTimerTest, CancelBeforeFireSuppresses)
{
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::HrTimer timer(s, "timer", cpus);
    int fires = 0;
    timer.startOnce(5 * oneUs, [&] { fires++; });
    timer.cancel();
    s.run(oneMs);
    EXPECT_EQ(fires, 0);
}

TEST(HrTimerTest, PollingChargesCpu)
{
    // The mcn0 trade-off: periodic polling consumes host cycles
    // even with no traffic.
    Simulation s;
    CpuCluster cpus(s, "cpus", 1, 1e9);
    os::HrTimer timer(s, "timer", cpus);
    timer.startPeriodic(5 * oneUs, [] {});
    s.run(oneMs);
    timer.cancel();
    // ~200 fires x hrtimerFire cycles.
    EXPECT_GT(cpus.totalBusyTicks(), 100 * 500 * oneNs / 2);
}

TEST(CostModelTest, HelpersScaleWithBytes)
{
    CostModel c;
    EXPECT_EQ(c.checksum(1000),
              static_cast<Cycles>(1000 * c.checksumPerByte));
    EXPECT_GT(c.copy(64 * 1024), c.copy(1024));
    // 16 B per cycle for cached copies.
    EXPECT_NEAR(static_cast<double>(c.copy(16384)), 1024.0, 2.0);
}

TEST(KernelTest, BundlesServices)
{
    Simulation s;
    os::KernelParams p;
    p.cores = 2;
    p.coreFreqHz = 2e9;
    p.memChannels = 2;
    os::Kernel k(s, "node", 3, p);

    EXPECT_EQ(k.nodeId(), 3);
    EXPECT_EQ(k.cpus().coreCount(), 2u);
    EXPECT_EQ(k.mem().channelCount(), 2u);
    EXPECT_EQ(k.netStack(), nullptr); // wired by the builder

    bool ran = false;
    // Captureless with reference parameters: a capturing lambda
    // invoked as a temporary would leave the coroutine reading its
    // captures through a dead closure object (ASan finding).
    auto proc = [](os::Kernel &kern, bool &flag) -> Task<void> {
        co_await kern.sleepFor(10 * oneUs);
        flag = true;
    };
    k.spawnProcess(proc(k, ran));
    s.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(s.curTick(), 10 * oneUs);
}
