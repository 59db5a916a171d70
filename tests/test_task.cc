/**
 * @file
 * Unit tests for the coroutine task layer: lazy start, value return,
 * nesting, delays, conditions, semaphores, mailboxes, task groups,
 * and exception propagation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/task.hh"

using namespace mcnsim::sim;

namespace {

Task<int>
answer()
{
    co_return 42;
}

Task<int>
addDelayed(EventQueue &q, int a, int b)
{
    co_await delayFor(q, 100);
    co_return a + b;
}

Task<void>
outerTask(EventQueue &q, std::vector<std::string> &log)
{
    log.push_back("outer-start");
    int v = co_await addDelayed(q, 20, 22);
    log.push_back("got-" + std::to_string(v));
}

} // namespace

/** A shared byte source whose read suspends through the queue. */
struct ByteSource
{
    EventQueue &q;

    Task<std::vector<std::uint8_t>>
    read(std::size_t n)
    {
        co_await delayFor(q, 1);
        co_return std::vector<std::uint8_t>(n, 1);
    }
};

/**
 * The shape of the helper dist/mpi.cc once used to read its message
 * headers. GCC 12 at -O2 miscompiles it when the source is a
 * std::shared_ptr taken by value and the caller passes a local copy
 * inside a loop: the second read()'s frame crashes when the queue
 * resumes it. Taking the source by reference compiles correctly;
 * the headers are now read by a socket member (TcpSocket::recvInto)
 * that never takes the shared_ptr at all. These helpers have
 * external linkage on purpose: in the anonymous namespace GCC
 * inlines the ramps and the by-value form no longer crashes, so the
 * test would guard nothing.
 */
Task<std::vector<std::uint8_t>>
readVia(ByteSource &src, std::size_t n)
{
    co_return co_await src.read(n);
}

Task<void>
readLoop(const std::shared_ptr<ByteSource> &held, int &got)
{
    auto src = held;
    for (int i = 0; i < 4; ++i) {
        auto v = co_await readVia(*src, 8);
        got += static_cast<int>(v.size());
    }
}

TEST(Task, LazyStart)
{
    EventQueue q;
    bool ran = false;
    auto make = [&]() -> Task<void> {
        ran = true;
        co_return;
    };
    Task<void> t = make();
    EXPECT_FALSE(ran); // not started until awaited/spawned
    spawnDetached(q, std::move(t));
    EXPECT_FALSE(ran); // starts via the event queue, not inline
    q.run();
    EXPECT_TRUE(ran);
}

TEST(Task, NestedAwaitReturnsValue)
{
    EventQueue q;
    std::vector<std::string> log;
    spawnDetached(q, outerTask(q, log));
    q.run();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], "outer-start");
    EXPECT_EQ(log[1], "got-42");
    EXPECT_EQ(q.curTick(), 100u);
}

TEST(Task, SharedSourceReadInALoop)
{
    EventQueue q;
    auto src = std::make_shared<ByteSource>(ByteSource{q});
    int got = 0;
    spawnDetached(q, readLoop(src, got));
    q.run();
    EXPECT_EQ(got, 32);
    EXPECT_EQ(q.curTick(), 4u);
    EXPECT_EQ(src.use_count(), 1);
}

TEST(Task, ImmediateValueTask)
{
    EventQueue q;
    int got = 0;
    auto outer = [&]() -> Task<void> {
        got = co_await answer();
    };
    spawnDetached(q, outer());
    q.run();
    EXPECT_EQ(got, 42);
}

TEST(Task, DelaysAccumulate)
{
    EventQueue q;
    Tick end = 0;
    auto t = [&]() -> Task<void> {
        co_await delayFor(q, 10);
        co_await delayFor(q, 20);
        co_await delayFor(q, 30);
        end = q.curTick();
    };
    spawnDetached(q, t());
    q.run();
    EXPECT_EQ(end, 60u);
}

TEST(Task, ExceptionPropagatesToAwaiter)
{
    EventQueue q;
    bool caught = false;
    auto thrower = []() -> Task<void> {
        throw std::runtime_error("boom");
        co_return;
    };
    auto outer = [&]() -> Task<void> {
        try {
            co_await thrower();
        } catch (const std::runtime_error &e) {
            caught = std::string(e.what()) == "boom";
        }
    };
    spawnDetached(q, outer());
    q.run();
    EXPECT_TRUE(caught);
}

TEST(Condition, NotifyAllWakesAllWaiters)
{
    EventQueue q;
    Condition cv(q);
    int woke = 0;
    auto waiter = [&]() -> Task<void> {
        co_await cv.wait();
        woke++;
    };
    for (int i = 0; i < 3; ++i)
        spawnDetached(q, waiter());
    q.run();
    EXPECT_EQ(woke, 0);
    EXPECT_EQ(cv.waiterCount(), 3u);
    cv.notifyAll();
    q.run();
    EXPECT_EQ(woke, 3);
}

TEST(Condition, NotifyOneWakesFifo)
{
    EventQueue q;
    Condition cv(q);
    std::vector<int> order;
    auto waiter = [&](int id) -> Task<void> {
        co_await cv.wait();
        order.push_back(id);
    };
    spawnDetached(q, waiter(1));
    spawnDetached(q, waiter(2));
    q.run();
    cv.notifyOne();
    q.run();
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 1);
    cv.notifyOne();
    q.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[1], 2);
}

TEST(Condition, ReWaitLandsInNextRound)
{
    EventQueue q;
    Condition cv(q);
    int wakes = 0;
    auto waiter = [&]() -> Task<void> {
        co_await cv.wait();
        wakes++;
        co_await cv.wait();
        wakes++;
    };
    spawnDetached(q, waiter());
    q.run();
    cv.notifyAll();
    q.run();
    EXPECT_EQ(wakes, 1); // second wait needs a second notify
    cv.notifyAll();
    q.run();
    EXPECT_EQ(wakes, 2);
}

TEST(Condition, NotifyAllKeepsFifoAcrossInlineAndSpilledWaiters)
{
    // The first waiter sits inline, the rest spill to a vector; one
    // notifyAll() must resume them in arrival order, and waiters
    // that re-wait (inline or spilled) land in the next round in
    // their new arrival order.
    EventQueue q;
    Condition cv(q);
    std::vector<int> order;
    auto waiter = [&](int id, int rounds) -> Task<void> {
        for (int r = 0; r < rounds; ++r) {
            co_await cv.wait();
            order.push_back(id);
        }
    };
    for (int id = 1; id <= 5; ++id)
        spawnDetached(q, waiter(id, id % 2 ? 2 : 1));
    q.run();
    EXPECT_EQ(cv.waiterCount(), 5u);
    cv.notifyAll();
    EXPECT_EQ(cv.waiterCount(), 0u);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(cv.waiterCount(), 3u); // 1, 3 and 5 waited again
    cv.notifyAll();
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 1, 3, 5}));
    EXPECT_EQ(cv.waiterCount(), 0u);
}

TEST(Condition, NotifyOneWalksInlineThenSpilledInOrder)
{
    // notifyOne() wakes the inline waiter and promotes the oldest
    // spilled one; a waiter arriving mid-way queues behind those
    // already waiting, and notifyAll() takes whatever is left.
    EventQueue q;
    Condition cv(q);
    std::vector<int> order;
    auto waiter = [&](int id) -> Task<void> {
        co_await cv.wait();
        order.push_back(id);
    };
    for (int id = 1; id <= 3; ++id)
        spawnDetached(q, waiter(id));
    q.run();
    cv.notifyOne();
    q.run();
    spawnDetached(q, waiter(4));
    q.run();
    EXPECT_EQ(cv.waiterCount(), 3u);
    cv.notifyOne();
    cv.notifyOne();
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    spawnDetached(q, waiter(5));
    q.run();
    cv.notifyAll();
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    cv.notifyOne(); // no waiters: a no-op
    q.run();
    EXPECT_EQ(order.size(), 5u);
}

TEST(Mailbox, FifoDelivery)
{
    EventQueue q;
    Mailbox<int> mb(q);
    std::vector<int> got;
    auto consumer = [&]() -> Task<void> {
        for (int i = 0; i < 3; ++i)
            got.push_back(co_await mb.pop());
    };
    spawnDetached(q, consumer());
    q.run();
    mb.push(10);
    mb.push(20);
    q.run();
    mb.push(30);
    q.run();
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
    EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, PopBeforePushSuspends)
{
    EventQueue q;
    Mailbox<std::string> mb(q);
    std::string got;
    auto consumer = [&]() -> Task<void> {
        got = co_await mb.pop();
    };
    spawnDetached(q, consumer());
    q.run();
    EXPECT_TRUE(got.empty());
    mb.push("hello");
    q.run();
    EXPECT_EQ(got, "hello");
}

TEST(TaskGroup, TracksCompletion)
{
    EventQueue q;
    TaskGroup group(q);
    auto worker = [&](Tick d) -> Task<void> {
        co_await delayFor(q, d);
    };
    group.spawn(worker(100));
    group.spawn(worker(300));
    group.spawn(worker(200));
    EXPECT_EQ(group.liveCount(), 3);
    EXPECT_FALSE(group.allDone());
    q.run();
    EXPECT_TRUE(group.allDone());
    EXPECT_EQ(q.curTick(), 300u);
}

TEST(TaskGroup, WaitResumesAfterAllFinish)
{
    EventQueue q;
    TaskGroup group(q);
    Tick wait_done = 0;
    auto worker = [&](Tick d) -> Task<void> {
        co_await delayFor(q, d);
    };
    group.spawn(worker(500));
    group.spawn(worker(100));
    auto waiter = [&]() -> Task<void> {
        co_await group.wait();
        wait_done = q.curTick();
    };
    spawnDetached(q, waiter());
    q.run();
    EXPECT_EQ(wait_done, 500u);
}
