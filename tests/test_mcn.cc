/**
 * @file
 * Unit + property tests for the MCN hardware pieces: SRAM message
 * rings (Fig. 4), the MCN interface, ALERT_N coalescing, and the
 * Table I configuration levels.
 */

#include <gtest/gtest.h>

#include <deque>

#include "core/mcn_config.hh"
#include "mcn/alert_signal.hh"
#include "mcn/mcn_dma.hh"
#include "mcn/mcn_interface.hh"
#include "mcn/sram_buffer.hh"
#include "os/kernel.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::mcn;
using mcnsim::sim::Rng;
using mcnsim::sim::Simulation;

namespace {

std::vector<std::uint8_t>
patterned(std::size_t n, std::uint8_t seed)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
}

} // namespace

TEST(MessageRingTest, FifoRoundTrip)
{
    MessageRing ring(16 * 1024);
    auto a = patterned(100, 1);
    auto b = patterned(2000, 2);
    EXPECT_TRUE(ring.enqueue(a.data(), a.size()));
    EXPECT_TRUE(ring.enqueue(b.data(), b.size()));
    EXPECT_EQ(ring.messagesEnqueued(), 2u);

    auto out_a = ring.dequeue();
    ASSERT_TRUE(out_a);
    EXPECT_EQ(out_a->bytes, a);
    auto out_b = ring.dequeue();
    ASSERT_TRUE(out_b);
    EXPECT_EQ(out_b->bytes, b);
    EXPECT_FALSE(ring.dequeue());
    EXPECT_TRUE(ring.empty());
}

TEST(MessageRingTest, RejectsWhenFull)
{
    MessageRing ring(4096);
    auto big = patterned(4096 - 3, 0); // footprint 4097 > 4096
    EXPECT_FALSE(ring.enqueue(big.data(), big.size()));

    auto fits = patterned(4092, 0); // footprint exactly 4096
    EXPECT_TRUE(ring.enqueue(fits.data(), fits.size()));
    EXPECT_EQ(ring.freeBytes(), 0u);
    auto one = patterned(1, 0);
    EXPECT_FALSE(ring.enqueue(one.data(), 1));
}

TEST(MessageRingTest, ZeroLengthRejected)
{
    MessageRing ring(4096);
    std::uint8_t dummy = 0;
    EXPECT_FALSE(ring.enqueue(&dummy, 0));
}

TEST(MessageRingTest, WrapsAroundCorrectly)
{
    MessageRing ring(4096);
    // Fill and drain repeatedly with sizes that force wrapping.
    for (int round = 0; round < 50; ++round) {
        auto msg = patterned(1500,
                             static_cast<std::uint8_t>(round));
        ASSERT_TRUE(ring.enqueue(msg.data(), msg.size()));
        auto out = ring.dequeue();
        ASSERT_TRUE(out);
        EXPECT_EQ(out->bytes, msg) << "round " << round;
    }
}

TEST(MessageRingTest, PropertyRandomOpsPreserveFifoAndBytes)
{
    Rng rng(1234);
    MessageRing ring(32 * 1024);
    std::deque<std::vector<std::uint8_t>> model;
    std::size_t model_bytes = 0;

    for (int op = 0; op < 5000; ++op) {
        if (rng.chance(0.55)) {
            std::size_t n = rng.uniformInt(1, 9000);
            auto msg = patterned(
                n, static_cast<std::uint8_t>(op & 0xff));
            bool fits = MessageRing::footprint(n) <=
                        ring.freeBytes();
            EXPECT_EQ(ring.enqueue(msg.data(), msg.size()), fits);
            if (fits) {
                model.push_back(std::move(msg));
                model_bytes += MessageRing::footprint(n);
            }
        } else {
            auto got = ring.dequeue();
            if (model.empty()) {
                EXPECT_FALSE(got);
            } else {
                ASSERT_TRUE(got);
                EXPECT_EQ(got->bytes, model.front());
                model_bytes -=
                    MessageRing::footprint(model.front().size());
                model.pop_front();
            }
        }
        ASSERT_EQ(ring.usedBytes(), model_bytes);
        ASSERT_EQ(ring.empty(), model.empty());
    }
}

TEST(MessageRingTest, FrontLengthMatchesWithoutConsuming)
{
    MessageRing ring(8192);
    auto msg = patterned(777, 5);
    ring.enqueue(msg.data(), msg.size());
    auto len = ring.frontLength();
    ASSERT_TRUE(len);
    EXPECT_EQ(*len, 777u);
    EXPECT_EQ(ring.messagesDequeued(), 0u);
    auto out = ring.dequeue();
    ASSERT_TRUE(out);
    EXPECT_EQ(out->bytes.size(), 777u);
}

TEST(MessageRingTest, DequeuedFrameSharesTheEnqueuedBlock)
{
    MessageRing ring(16 * 1024);
    auto sent = net::Packet::makePattern(1500, 3);
    sent->srcNode = 4;
    sent->tsoMss = 1460;
    sent->path = std::make_unique<net::PathTrace>();
    sent->path->record(net::Stage::DriverTx, "tx", 7);
    const auto expect = sent->bytes();

    ASSERT_TRUE(ring.enqueue(*sent));
    EXPECT_FALSE(sent->path); // the timing record rides the ring
    EXPECT_EQ(ring.usedBytes(), MessageRing::footprint(1500));
    auto got = ring.dequeuePacket();
    ASSERT_TRUE(got);
    EXPECT_TRUE(got->crcOk);
    // Zero byte copies: the consumer reads the producer's block.
    EXPECT_TRUE(got->pkt->sharesBufferWith(*sent));
    EXPECT_EQ(got->pkt->bytes(), expect);
    // Metadata starts fresh, as for a newly made packet.
    EXPECT_EQ(got->pkt->srcNode, -1);
    EXPECT_EQ(got->pkt->tsoMss, 0u);
    ASSERT_TRUE(got->pkt->path);
    EXPECT_EQ(got->pkt->path->last(net::Stage::DriverTx), 7u);
    EXPECT_TRUE(ring.empty());
}

TEST(MessageRingTest, CorruptNewestCopiesOnWriteAndFailsTheCrc)
{
    // The ring-entry CRC is computed only while a fault plan is
    // armed; arm one that matches no site.
    struct PlanScope
    {
        sim::FaultPlan &plan = sim::FaultPlan::instance();
        PlanScope()
        {
            sim::FaultPlan::Spec sp;
            sp.siteGlob = "no-such-site";
            plan.arm(sp);
        }
        ~PlanScope() { plan.clear(); }
    } scope;

    MessageRing ring(16 * 1024);
    EXPECT_FALSE(ring.corruptNewest());
    auto clean = net::Packet::makePattern(64, 1);
    auto sent = net::Packet::makePattern(1500, 3);
    auto held = sent->clone(); // e.g. a retransmit copy
    const auto expect = sent->bytes();
    ASSERT_TRUE(ring.enqueue(*clean));
    ASSERT_TRUE(ring.enqueue(*sent));
    ASSERT_TRUE(ring.corruptNewest());
    // The flip copied the ring's view; the producer keeps its bytes.
    EXPECT_EQ(sent->bytes(), expect);
    EXPECT_EQ(held->bytes(), expect);

    auto first = ring.dequeuePacket();
    ASSERT_TRUE(first);
    EXPECT_TRUE(first->crcOk);
    auto bad = ring.dequeue();
    ASSERT_TRUE(bad);
    EXPECT_FALSE(bad->crcOk);
    ASSERT_EQ(bad->bytes.size(), expect.size());
    EXPECT_EQ(bad->bytes.back(), expect.back() ^ 0x20);
    bad->bytes.back() = expect.back();
    EXPECT_EQ(bad->bytes, expect);
}

TEST(SramBufferTest, LayoutAndPollFlags)
{
    SramBuffer sram(96 * 1024);
    // Rings plus control fit inside the 96 KB budget.
    EXPECT_LE(sram.tx().capacityBytes() +
                  sram.rx().capacityBytes() +
                  SramBuffer::controlBytes,
              96u * 1024u);
    EXPECT_GE(sram.tx().capacityBytes(), 40u * 1024u);

    EXPECT_FALSE(sram.txPoll());
    sram.setTxPoll();
    EXPECT_TRUE(sram.txPoll());
    sram.clearTxPoll();
    EXPECT_FALSE(sram.txPoll());

    EXPECT_FALSE(sram.rxPoll());
    sram.setRxPoll();
    EXPECT_TRUE(sram.rxPoll());
}

TEST(SramBufferTest, TsoChunkFitsInRing)
{
    // Sec. IV-A: the drivers must guarantee space for the largest
    // chunk the stack can hand down.
    SramBuffer sram(96 * 1024);
    std::size_t tso_chunk = 40 * 1024 + 128; // chunk + headers
    EXPECT_GE(sram.tx().freeBytes(),
              MessageRing::footprint(tso_chunk));
    EXPECT_GE(sram.rx().freeBytes(),
              MessageRing::footprint(tso_chunk));
}

TEST(McnInterfaceTest, DepositSignalsFire)
{
    Simulation s;
    McnInterface iface(s, "iface", 96 * 1024);

    int rx_irqs = 0, alerts = 0;
    iface.setRxIrqHandler([&] { rx_irqs++; });
    iface.setAlertHandler([&] { alerts++; });

    iface.hostDepositedRx();
    EXPECT_EQ(rx_irqs, 1);
    EXPECT_TRUE(iface.sram().rxPoll());

    iface.mcnDepositedTx();
    EXPECT_EQ(alerts, 1);
    EXPECT_TRUE(iface.sram().txPoll());
}

TEST(McnInterfaceTest, NoAlertHandlerMeansNoAlertCount)
{
    Simulation s;
    McnInterface iface(s, "iface", 96 * 1024);
    iface.mcnDepositedTx();
    EXPECT_EQ(iface.alertsRaised(), 0u);
    EXPECT_TRUE(iface.sram().txPoll()); // flag still set for polling
}

TEST(AlertSignalTest, DeliversDimmIndexAfterIdentifyLatency)
{
    Simulation s;
    AlertSignal alert(s, "alert", 100 * sim::oneNs);
    std::vector<std::uint32_t> seen;
    std::vector<sim::Tick> when;
    alert.setHandler([&](std::uint32_t d) {
        seen.push_back(d);
        when.push_back(s.curTick());
    });

    alert.assertFrom(3);
    s.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], 3u);
    EXPECT_EQ(when[0], 100 * sim::oneNs);
}

TEST(AlertSignalTest, CoalescesRepeatAssertionsWhileBusy)
{
    Simulation s;
    AlertSignal alert(s, "alert");
    int fired = 0;
    alert.setHandler([&](std::uint32_t) { fired++; });

    alert.assertFrom(0);
    alert.assertFrom(0); // same DIMM, still pending: coalesced
    alert.assertFrom(1); // different DIMM: queued
    s.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(alert.coalesced(), 1u);
    EXPECT_EQ(alert.assertions(), 3u);
}

TEST(McnConfigTest, TableOneLevelsAreCumulative)
{
    using mcnsim::core::McnConfig;
    auto l0 = McnConfig::level(0);
    EXPECT_FALSE(l0.alertInterrupt);
    EXPECT_FALSE(l0.checksumBypass);
    EXPECT_EQ(l0.mtu, 1500u);
    EXPECT_FALSE(l0.tso);
    EXPECT_FALSE(l0.dma);

    auto l1 = McnConfig::level(1);
    EXPECT_TRUE(l1.alertInterrupt);
    EXPECT_FALSE(l1.checksumBypass);

    auto l2 = McnConfig::level(2);
    EXPECT_TRUE(l2.checksumBypass);
    EXPECT_EQ(l2.mtu, 1500u);

    auto l3 = McnConfig::level(3);
    EXPECT_EQ(l3.mtu, 9000u);
    EXPECT_FALSE(l3.tso);

    auto l4 = McnConfig::level(4);
    EXPECT_TRUE(l4.tso);
    EXPECT_FALSE(l4.dma);

    auto l5 = McnConfig::level(5);
    EXPECT_TRUE(l5.alertInterrupt);
    EXPECT_TRUE(l5.checksumBypass);
    EXPECT_EQ(l5.mtu, 9000u);
    EXPECT_TRUE(l5.tso);
    EXPECT_TRUE(l5.dma);

    EXPECT_THROW(McnConfig::level(6), sim::FatalError);
    EXPECT_THROW(McnConfig::level(-1), sim::FatalError);
}

TEST(McnConfigTest, DescribeMentionsFeatures)
{
    using mcnsim::core::McnConfig;
    auto d = McnConfig::level(5).describe();
    EXPECT_NE(d.find("alert"), std::string::npos);
    EXPECT_NE(d.find("bypass"), std::string::npos);
    EXPECT_NE(d.find("9000"), std::string::npos);
    EXPECT_NE(d.find("tso"), std::string::npos);
    EXPECT_NE(d.find("dma"), std::string::npos);
}

// ---------------------------------------------------------------------
// MCN-DMA fault paths: a stalled descriptor and a partial transfer
// ---------------------------------------------------------------------

namespace {

/** What one host-side MCN-DMA transfer (the engine mcn5's host
 *  driver programs per DIMM, on the host channel) did. */
struct DmaRun
{
    sim::Tick doneAt = 0;
    int fires = 0;
    std::uint64_t stalls = 0;
};

constexpr double dmaRateBps = 4e9;
constexpr std::uint64_t dmaBytes = 8192; // above the copybreak

/** Program one @p bytes transfer under fault spec @p fault ("" for
 *  none) and run it to completion. */
DmaRun
runDmaTransfer(std::uint64_t bytes, const std::string &fault)
{
    sim::FaultPlan &plan = sim::FaultPlan::instance();
    plan.clear();
    if (!fault.empty()) {
        sim::FaultPlan::Spec sp;
        std::string err;
        EXPECT_TRUE(sim::FaultPlan::parseSpec(fault, &sp, &err))
            << fault << ": " << err;
        plan.arm(sp);
        plan.resetRunState();
    }
    Simulation s;
    os::Kernel kernel(s, "host", 0, os::KernelParams{});
    McnDmaEngine dma(s, "host.dma0", kernel,
                     kernel.mem().controller(0).bulk(), dmaRateBps);
    DmaRun r;
    dma.transfer(bytes, [&r](sim::Tick at) {
        r.doneAt = at;
        ++r.fires;
    });
    s.run();
    r.stalls = dma.stalls();
    plan.clear();
    return r;
}

/** Ticks the host channel's arbiter takes to stream @p bytes at the
 *  engine's rate, alone on the channel. */
sim::Tick
streamTicks(std::uint64_t bytes)
{
    Simulation s;
    os::Kernel kernel(s, "host", 0, os::KernelParams{});
    sim::Tick end = 0;
    kernel.mem().controller(0).bulk().startTransfer(
        bytes, [&end](sim::Tick at) { end = at; }, dmaRateBps);
    s.run();
    return end;
}

} // namespace

TEST(McnDmaFaults, StalledDescriptorCompletesOnceAfterTheDelay)
{
    const DmaRun clean = runDmaTransfer(dmaBytes, "");
    ASSERT_EQ(clean.fires, 1);
    EXPECT_EQ(clean.stalls, 0u);

    // Default stall: 50 us before streaming.
    const DmaRun stalled =
        runDmaTransfer(dmaBytes, "host.dma0.stall:n=1,max=1");
    EXPECT_EQ(stalled.fires, 1);
    EXPECT_EQ(stalled.stalls, 1u);
    EXPECT_EQ(stalled.doneAt, clean.doneAt + 50 * sim::oneUs);

    // The spec's param sets the delay.
    const DmaRun param =
        runDmaTransfer(dmaBytes, "*.stall:n=1,max=1,param=7us");
    EXPECT_EQ(param.fires, 1);
    EXPECT_EQ(param.stalls, 1u);
    EXPECT_EQ(param.doneAt, clean.doneAt + 7 * sim::oneUs);
}

TEST(McnDmaFaults, PartialTransferReplaysAndCompletesOnce)
{
    // The engine aborts after half the bytes (plus one) and replays
    // the whole descriptor: the completion moves by the half
    // transfer's streaming time, and fires once.
    const DmaRun clean = runDmaTransfer(dmaBytes, "");
    const DmaRun partial =
        runDmaTransfer(dmaBytes, "host.dma0.partial:n=1,max=1");
    EXPECT_EQ(partial.fires, 1);
    EXPECT_EQ(partial.stalls, 1u);
    EXPECT_EQ(partial.doneAt,
              clean.doneAt + streamTicks(dmaBytes / 2 + 1));
}
