/**
 * @file
 * Checked-build detector tests: prove each invariant checker
 * actually trips -- deterministically, with a panic -- when its
 * contract is violated, and that violations are tolerated (or
 * compiled away entirely) in normal builds.
 *
 * Compiled into every build: under -DMCNSIM_CHECKED=ON the negative
 * tests run, otherwise they GTEST_SKIP so the suite documents which
 * configuration it verified. The "free when off" direction is
 * covered two ways: the WhenOff tests pin the tolerate-don't-crash
 * behaviour, and the paired perf runs (tools/perf_pairs.py) would
 * show a release-build cost as a host-time regression.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mcn/sram_buffer.hh"
#include "net/packet.hh"
#include "sim/checked.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/task.hh"

using namespace mcnsim;

#ifdef MCNSIM_CHECKED

TEST(Checked, DescheduleOfFiredManagedEventPanics)
{
    sim::EventQueue q;
    sim::Event *ev = q.scheduleIn([] {}, 10, "victim");
    q.run(20); // fires; the pointer died and the slot is poisoned
    EXPECT_THROW(q.deschedule(ev), sim::PanicError);
}

TEST(Checked, ScheduleOfFiredManagedEventPanics)
{
    sim::EventQueue q;
    sim::Event *ev = q.scheduleIn([] {}, 10, "victim");
    q.run(20);
    EXPECT_THROW(q.schedule(ev, q.curTick() + 5), sim::PanicError);
}

TEST(Checked, DoubleDescheduleOfManagedEventPanics)
{
    sim::EventQueue q;
    sim::Event *ev = q.scheduleIn([] {}, 10, "victim");
    q.deschedule(ev); // legal; the pointer dies here
    EXPECT_THROW(q.deschedule(ev), sim::PanicError);
}

TEST(Checked, PoisonReportsLastLiveName)
{
    sim::EventQueue q;
    sim::Event *ev = q.scheduleIn([] {}, 10, "tcp.rto");
    q.run(20);
    try {
        q.deschedule(ev);
        FAIL() << "expected panic";
    } catch (const sim::PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("tcp.rto"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checked, StaleCowViewWritePanicsAtNextAudit)
{
    auto pkt = net::Packet::makePattern(256);
    auto clone = pkt->clone(); // block shared; both views sealed
    // A write that bypasses copy-on-write: through a const_cast (a
    // cached pointer from before clone() behaves identically).
    const_cast<std::uint8_t *>(pkt->cdata())[7] ^= 0xff;
    EXPECT_THROW(clone->cdata(), sim::PanicError);
}

TEST(Checked, LegalCowWriteDoesNotPanic)
{
    auto pkt = net::Packet::makePattern(256);
    auto clone = pkt->clone();
    pkt->data()[7] ^= 0xff; // mutable data(): detaches first
    EXPECT_NO_THROW(clone->cdata());
    EXPECT_NO_THROW(pkt->cdata());
    EXPECT_FALSE(pkt->sharesBufferWith(*clone));
}

TEST(Checked, SealFollowsThePacketThroughPullAndTrim)
{
    auto pkt = net::Packet::makePattern(256);
    auto clone = pkt->clone();
    clone->pull(14); // header processing reseals the narrowed view
    clone->trim(128);
    const_cast<std::uint8_t *>(pkt->cdata())[64] ^= 0x01;
    EXPECT_THROW(clone->cdata(), sim::PanicError);
}

TEST(Checked, PacketUseAfterRecyclePanics)
{
    // Pool poisoning: once a block returns to a free list, any view
    // still holding it must panic at the next byte access instead of
    // silently reading whatever packet reuses the block.
    auto pkt = net::Packet::makePattern(256);
    EXPECT_NO_THROW(pkt->cdata());
    pkt->forceRecycleForTest();
    EXPECT_THROW(pkt->cdata(), sim::PanicError);
    EXPECT_THROW(pkt->data(), sim::PanicError);
    EXPECT_THROW(pkt->bytes(), sim::PanicError);
}

TEST(Checked, RecycledBlockReacquiresClean)
{
    // The poison is an allocator state, not a permanent scar: the
    // same storage handed back out by acquire() audits live again.
    auto pkt = net::Packet::makePattern(256);
    pkt->forceRecycleForTest();
    pkt.reset(); // dangling release absorbed by the hook's extra ref
    auto fresh = net::Packet::makePattern(256, 9);
    EXPECT_NO_THROW(fresh->cdata());
    EXPECT_EQ(fresh->cdata()[0], 9);
}

TEST(Checked, PoisonNeverLeaksIntoFilledPackets)
{
    // acquire() leaves the caller-filled payload unzeroed, and a
    // recycled block arrives full of 0xA5 poison. Every constructor
    // that skips the payload must overwrite all of it, the headroom
    // must still read zero, and so must a detach's tailroom.
    auto recyclePoisoned = [] {
        for (std::size_t bytes : net::BufferPool::classBytes)
            net::Packet::makePattern(bytes, 0, 0);
    };
    auto zeros = [](const std::uint8_t *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            if (p[i] != 0)
                return false;
        return true;
    };
    constexpr std::size_t hr = net::Packet::defaultHeadroom;
    std::vector<std::uint8_t> payload(700);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 3);

    recyclePoisoned();
    auto filled = net::Packet::makeFilled(
        payload.size(), [&](std::uint8_t *p) {
            std::memcpy(p, payload.data(), payload.size());
        });
    EXPECT_EQ(filled->bytes(), payload);
    EXPECT_TRUE(zeros(filled->push(hr), hr));

    recyclePoisoned();
    auto made = net::Packet::make(payload);
    EXPECT_EQ(made->bytes(), payload);
    EXPECT_TRUE(zeros(made->push(hr), hr));

    recyclePoisoned();
    auto pat = net::Packet::makePattern(payload.size(), 11);
    auto pbytes = pat->bytes();
    for (std::size_t i = 0; i < pbytes.size(); ++i)
        ASSERT_EQ(pbytes[i], static_cast<std::uint8_t>(i + 11)) << i;
    EXPECT_TRUE(zeros(pat->push(hr), hr));

    auto c = made->clone();
    recyclePoisoned();
    std::uint8_t *tail = c->put(48);
    EXPECT_TRUE(zeros(tail, 48));
}

TEST(Checked, RingCorruptionPanicsOnNextOperation)
{
    mcn::MessageRing ring(4096);
    std::vector<std::uint8_t> msg(64, 0xab);
    ASSERT_TRUE(ring.enqueue(msg.data(), msg.size()));
    ring.corruptForTest();
    EXPECT_THROW(ring.dequeue(), sim::PanicError);
}

TEST(Checked, HealthyRingPassesItsAudits)
{
    mcn::MessageRing ring(4096);
    std::vector<std::uint8_t> msg(100, 0x5a);
    // Wrap the ring several times so the modular invariants are
    // audited across the seam.
    for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(ring.enqueue(msg.data(), msg.size()));
        auto out = ring.dequeue();
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->bytes, msg);
    }
}

#else // !MCNSIM_CHECKED

TEST(CheckedWhenOff, DeadManagedPointerOpsAreToleratedNoOps)
{
    // Without the checkers the queue must not crash on the same
    // misuse; deschedule of a dead pointer is a silent no-op.
    sim::EventQueue q;
    sim::Event *ev = q.scheduleIn([] {}, 10, "victim");
    q.run(20);
    EXPECT_NO_THROW(q.deschedule(ev));
}

TEST(CheckedWhenOff, NegativeDetectorTestsRequireCheckedBuild)
{
    GTEST_SKIP() << "detectors compiled out "
                 << "(configure with -DMCNSIM_CHECKED=ON)";
}

#endif // MCNSIM_CHECKED

TEST(Checked, BuildFlagMatchesCompileConfiguration)
{
#ifdef MCNSIM_CHECKED
    EXPECT_TRUE(sim::checkedBuild);
#else
    EXPECT_FALSE(sim::checkedBuild);
#endif
}

// Lifetime plumbing shared by every build ---------------------------

TEST(Lifetime, CallerOwnedEventDyingWhileScheduledDetaches)
{
    sim::EventQueue q;
    bool fired = false;
    {
        sim::CallbackEvent ev("scoped", [&] { fired = true; });
        q.schedule(&ev, 10);
    } // destroyed while scheduled: implicit detach
    q.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.pendingEvents(), 0u);
}

TEST(Lifetime, CallerOwnedEventDyingAfterDescheduleDetaches)
{
    sim::EventQueue q;
    {
        sim::CallbackEvent ev("scoped", [] {});
        q.schedule(&ev, 10);
        q.deschedule(&ev); // lazy: stale heap entry remains
    } // dies with a stale entry outstanding
    q.run();
    SUCCEED();
}

TEST(Lifetime, SuspendedDetachedFrameIsReapedAtQueueTeardown)
{
    auto q = std::make_unique<sim::EventQueue>();
    sim::Condition cv(*q);
    bool done = false;
    auto body = [](sim::Condition &c, bool &d) -> sim::Task<void> {
        co_await c.wait();
        d = true;
    };
    sim::spawnDetached(*q, body(cv, done));
    q->run();
    EXPECT_EQ(q->detachedFramesLive(), 1u);
    // Teardown with the frame still suspended: the registry reaps it
    // (LeakSanitizer in tools/run_sanitizers.sh pins the no-leak
    // claim; this pins the bookkeeping).
    q.reset();
    EXPECT_FALSE(done);
}

TEST(Lifetime, FramesCompletingOutOfOrderKeepTheirRegistrySlots)
{
    // Completion swap-removes a frame from the registry by the slot
    // its promise holds, and the frame moved into that slot learns
    // its new index. Frames finish in an order unrelated to their
    // registration, two never do, and teardown must reap exactly
    // those two: a stale slot would forget a live frame (leaked at
    // teardown) or reap a finished one (destroyed twice).
    auto q = std::make_unique<sim::EventQueue>();
    sim::Condition never(*q);
    int finished = 0, destroyed = 0;
    struct Guard
    {
        int &n;
        ~Guard() { ++n; }
    };
    auto body = [](sim::EventQueue &eq, sim::Condition &c, sim::Tick d,
                   int &fin, int &dead) -> sim::Task<void> {
        Guard g{dead};
        if (d == 0)
            co_await c.wait();
        else
            co_await sim::delayFor(eq, d);
        ++fin;
    };
    const sim::Tick delays[] = {40, 10, 0, 30, 0, 20, 50};
    for (sim::Tick d : delays)
        sim::spawnDetached(*q, body(*q, never, d, finished, destroyed));
    EXPECT_EQ(q->detachedFramesLive(), 7u);
    q->run();
    EXPECT_EQ(finished, 5);
    EXPECT_EQ(destroyed, 5);
    EXPECT_EQ(q->detachedFramesLive(), 2u);
    q.reset();
    EXPECT_EQ(finished, 5);
    EXPECT_EQ(destroyed, 7);
}

TEST(Lifetime, CompletedDetachedFrameLeavesTheRegistry)
{
    sim::EventQueue q;
    auto body = []() -> sim::Task<void> { co_return; };
    sim::spawnDetached(q, body());
    EXPECT_EQ(q.detachedFramesLive(), 1u);
    q.run();
    EXPECT_EQ(q.detachedFramesLive(), 0u);
}
