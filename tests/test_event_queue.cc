/**
 * @file
 * Unit tests for the discrete-event engine: ordering, priorities,
 * (de|re)scheduling, managed callback events, clock domains, RNG
 * determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/clock_domain.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/ring_deque.hh"
#include "sim/simulation.hh"
#include "sim/timer.hh"

using namespace mcnsim::sim;

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule([&] { order.push_back(3); }, 300);
    q.schedule([&] { order.push_back(1); }, 100);
    q.schedule([&] { order.push_back(2); }, 200);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 300u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule([&] { order.push_back(2); }, 50, "a",
               EventPriority::Default);
    q.schedule([&] { order.push_back(3); }, 50, "b",
               EventPriority::Default);
    q.schedule([&] { order.push_back(1); }, 50, "irq",
               EventPriority::HardwareIrq);
    q.schedule([&] { order.push_back(4); }, 50, "proc",
               EventPriority::Process);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, SchedulingInThePastThrows)
{
    EventQueue q;
    q.schedule([] {}, 100);
    q.run();
    EXPECT_THROW(q.schedule([] {}, 50), std::logic_error);
}

TEST(EventQueue, DoubleScheduleThrows)
{
    EventQueue q;
    CallbackEvent ev("e", [] {});
    q.schedule(&ev, 10);
    EXPECT_THROW(q.schedule(&ev, 20), std::logic_error);
    q.deschedule(&ev);
}

TEST(EventQueue, DescheduledEventDoesNotRun)
{
    EventQueue q;
    bool ran = false;
    CallbackEvent ev("e", [&] { ran = true; });
    q.schedule(&ev, 10);
    q.deschedule(&ev);
    q.run();
    EXPECT_FALSE(ran);
    EXPECT_FALSE(ev.scheduled());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue q;
    Tick fired = 0;
    CallbackEvent ev("e", [&] { fired = q.curTick(); });
    q.schedule(&ev, 10);
    q.reschedule(&ev, 500);
    q.run();
    EXPECT_EQ(fired, 500u);
    EXPECT_EQ(q.eventsProcessed(), 1u);
}

TEST(EventQueue, EventsScheduledDuringRunExecute)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleIn(chain, 10);
    };
    q.schedule(chain, 0);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.curTick(), 40u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule([&] { count++; }, 100);
    q.schedule([&] { count++; }, 200);
    q.run(150);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.curTick(), 150u);
    q.run(250);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunEventsExecutesExactCount)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        q.schedule([&] { count++; }, 10 * (i + 1));
    EXPECT_EQ(q.runEvents(4), 4u);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(q.pendingEvents(), 6u);
}

TEST(EventQueue, PeriodicMemberEvent)
{
    struct Ticker
    {
        EventQueue &q;
        int fires = 0;
        MemberEvent<Ticker> ev{"tick", this, &Ticker::fire};

        explicit Ticker(EventQueue &queue) : q(queue) {}

        void
        fire()
        {
            if (++fires < 3)
                q.schedule(&ev, q.curTick() + 100);
        }
    };

    EventQueue q;
    Ticker t(q);
    q.schedule(&t.ev, 0);
    q.run();
    EXPECT_EQ(t.fires, 3);
    EXPECT_EQ(q.curTick(), 200u);
}

TEST(EventQueue, PooledEventsRecycledAfterDrain)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 200; ++i)
        q.schedule([&] { fired++; }, 10 + i);
    EXPECT_GT(q.poolOutstanding(), 0u);
    q.run();
    EXPECT_EQ(fired, 200);
    EXPECT_EQ(q.poolOutstanding(), 0u);

    // A second burst of the same size reuses the recycled slots
    // instead of carving new slabs.
    std::size_t carved = q.poolCarved();
    for (int i = 0; i < 200; ++i)
        q.schedule([&] { fired++; }, q.curTick() + 1 + i);
    q.run();
    EXPECT_EQ(q.poolCarved(), carved);
    EXPECT_EQ(q.poolOutstanding(), 0u);
}

TEST(EventQueue, DescheduledManagedEventIsRecycled)
{
    EventQueue q;
    bool ran = false;
    Event *ev = q.scheduleIn([&] { ran = true; }, 100, "doomed");
    EXPECT_EQ(q.poolOutstanding(), 1u);
    q.deschedule(ev);
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_TRUE(q.empty());
    q.run(); // pops the stale entry, releasing the pooled slot
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.poolOutstanding(), 0u);
}

TEST(EventQueue, RepeatedRescheduleCompactsStaleEntries)
{
    EventQueue q;
    CallbackEvent ev("timer", [] {});
    q.schedule(&ev, 1'000'000);
    for (int i = 1; i <= 10'000; ++i)
        q.reschedule(&ev, 1'000'000 + i);
    // Lazy deletion leaves stale entries behind, but threshold
    // compaction keeps the heap bounded instead of 10k deep.
    EXPECT_LT(q.internalEntries(), 200u);
    EXPECT_EQ(q.pendingEvents(), 1u);
    q.run();
    EXPECT_EQ(q.internalEntries(), 0u);
    EXPECT_EQ(q.staleEntries(), 0u);
}

TEST(EventQueue, DynamicNamesAreInterned)
{
    const char *p1 = internEventName(std::string("dyn.name"));
    const char *p2 = internEventName(std::string("dyn.name"));
    EXPECT_EQ(p1, p2);
    EventQueue q;
    Event *ev = q.scheduleIn([] {}, 5, std::string("dyn.name"));
    EXPECT_EQ(ev->name(), p1); // same pooled storage, no copy
    q.run();
}

TEST(EventQueue, RandomizedStressKeepsDispatchOrderAndPool)
{
    // Property test: random schedule/deschedule churn (driven from
    // inside callbacks, so it interleaves with dispatch) must still
    // fire events in (tick, priority, schedule-order) order, and a
    // full drain must return every pooled event.
    Rng rng(20260806);
    EventQueue q;

    struct Fired
    {
        Tick when;
        int prio;
        std::uint64_t stamp;
        /** nextStamp at fire time: events with a smaller stamp were
         *  already scheduled when this one ran. */
        std::uint64_t watermark;
    };
    std::vector<Fired> fired;
    std::unordered_map<std::uint64_t, Event *> pending;
    std::uint64_t nextStamp = 0;
    int budget = 2500;

    std::function<void(int)> spawn = [&](int count) {
        for (int k = 0; k < count && budget > 0; ++k) {
            --budget;
            Tick when = q.curTick() + rng.uniformInt(0, 50);
            static const EventPriority prios[] = {
                EventPriority::HardwareIrq, EventPriority::Default,
                EventPriority::Process};
            EventPriority prio = prios[rng.uniformInt(0, 2)];
            std::uint64_t stamp = nextStamp++;
            Event *ev = q.schedule(
                [&, when, prio, stamp] {
                    pending.erase(stamp);
                    fired.push_back({when, static_cast<int>(prio),
                                     stamp, nextStamp});
                    spawn(static_cast<int>(rng.uniformInt(0, 2)));
                    // Occasionally cancel a still-pending event; the
                    // map only holds events that have not fired, so
                    // the pointers are alive.
                    if (!pending.empty() && rng.chance(0.15)) {
                        auto it = pending.begin();
                        q.deschedule(it->second);
                        pending.erase(it);
                    }
                },
                when, "stress", prio);
            pending.emplace(stamp, ev);
        }
    };
    spawn(64);
    q.run();

    ASSERT_GT(fired.size(), 100u);
    // Time never runs backward.
    for (std::size_t i = 1; i < fired.size(); ++i)
        ASSERT_LE(fired[i - 1].when, fired[i].when) << "at " << i;
    // Ordering is guaranteed between events that were pending
    // simultaneously: if b was already scheduled when a fired (and b
    // fired later), the queue must have ranked a strictly before b
    // in (tick, priority, schedule-order).
    for (std::size_t i = 0; i < fired.size(); ++i) {
        for (std::size_t j = i + 1; j < fired.size(); ++j) {
            const Fired &a = fired[i];
            const Fired &b = fired[j];
            if (b.stamp >= a.watermark)
                continue; // b not yet scheduled when a ran
            bool ordered =
                a.when < b.when ||
                (a.when == b.when &&
                 (a.prio < b.prio ||
                  (a.prio == b.prio && a.stamp < b.stamp)));
            ASSERT_TRUE(ordered)
                << "dispatch order violated: (" << a.when << ","
                << a.prio << "," << a.stamp << ") fired before ("
                << b.when << "," << b.prio << "," << b.stamp << ")";
        }
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingEvents(), 0u);
    EXPECT_EQ(q.staleEntries(), 0u);
    EXPECT_EQ(q.poolOutstanding(), 0u) << "pooled-event leak";
}

TEST(EventQueue, PendingSetMatchesOrderedModel)
{
    // Differential test of the pending set (front slot plus radix
    // heap) against a std::map keyed on (tick, priority, schedule
    // order): every dispatch must be the model's first entry. The
    // seeded mix covers same-tick schedules at mixed priorities,
    // handlers that schedule the next event to run (which lands in
    // the front slot), deschedule and reschedule of the earliest
    // entry, owner-held events destroyed while earliest, compactions
    // with a cancelled or a live entry in the slot, and run,
    // runEvents, runWindow and nextEventTick. Fixed phases after it
    // cover the radix heap's corners: schedules below the refill
    // tick after run(until) stops early, hundreds of entries on one
    // tick, buckets of several chunks compacted and scrubbed by
    // ~Event, ticks that differ only in bit 63 or sit next to
    // maxTick, and teardown with entries in the buckets.
    using Key = std::tuple<Tick, int, std::uint64_t>;
    Rng rng(20261019);
    EventQueue q;
    std::map<Key, int> model;           // pending key -> event id
    std::unordered_map<int, Key> keyOf; // event id -> pending key
    std::unordered_map<int, Event *> managed; // ids >= 0
    std::uint64_t order = 0;
    int nextId = 0;
    std::uint64_t fired = 0;
    bool chain = true; // handlers schedule more work

    static const EventPriority prios[] = {
        EventPriority::ClockTick, EventPriority::HardwareIrq,
        EventPriority::Default, EventPriority::Softirq,
        EventPriority::Process};
    auto randomPrio = [&] { return prios[rng.uniformInt(0, 4)]; };

    auto track = [&](int id, Tick when, EventPriority prio) {
        const Key k{when, static_cast<int>(prio), order++};
        model.emplace(k, id);
        keyOf[id] = k;
    };
    auto untrack = [&](int id) {
        auto it = keyOf.find(id);
        model.erase(it->second);
        keyOf.erase(it);
    };

    // Owner-held events have ids -1 - i.
    std::function<void(int)> fire;
    std::array<std::unique_ptr<CallbackEvent>, 5> held;
    auto makeHeld = [&](std::size_t i) {
        held[i] = std::make_unique<CallbackEvent>(
            "held", [&fire, i] { fire(-1 - static_cast<int>(i)); },
            prios[i]);
    };
    for (std::size_t i = 0; i < held.size(); ++i)
        makeHeld(i);
    auto heldEvent = [&](int id) {
        return held[static_cast<std::size_t>(-1 - id)].get();
    };

    auto addManaged = [&](Tick when, EventPriority prio) {
        const int id = nextId++;
        track(id, when, prio);
        managed[id] = q.schedule([&fire, id] { fire(id); }, when,
                                 "diff", prio);
    };
    auto scheduleHeld = [&](std::size_t i, Tick when) {
        CallbackEvent *ev = held[i].get();
        const int id = -1 - static_cast<int>(i);
        if (ev->scheduled()) {
            untrack(id);
            track(id, when, ev->priority());
            q.reschedule(ev, when);
        } else {
            track(id, when, ev->priority());
            q.schedule(ev, when);
        }
    };
    auto descheduleId = [&](int id) {
        untrack(id);
        if (id >= 0) {
            q.deschedule(managed[id]);
            managed.erase(id);
        } else {
            q.deschedule(heldEvent(id));
        }
    };
    auto earliestId = [&] { return model.begin()->second; };

    fire = [&](int id) {
        ASSERT_FALSE(model.empty());
        ASSERT_EQ(earliestId(), id) << "dispatch " << fired;
        ASSERT_EQ(std::get<0>(model.begin()->first), q.curTick());
        untrack(id);
        managed.erase(id);
        ++fired;
        if (!chain)
            return;
        // Chains: schedule the next event to run, often at this
        // tick; sometimes cancel or move the earliest pending entry.
        if (rng.chance(0.6))
            addManaged(q.curTick() + rng.uniformInt(0, 2),
                       randomPrio());
        if (!model.empty() && rng.chance(0.1))
            descheduleId(earliestId());
        if (rng.chance(0.1))
            scheduleHeld(rng.uniformInt(0, held.size() - 1),
                         q.curTick() + rng.uniformInt(0, 3));
    };

    for (int step = 0; step < 4000; ++step) {
        const Tick now = q.curTick();
        switch (rng.uniformInt(0, 8)) {
        case 0:
        case 1:
            for (auto k = rng.uniformInt(1, 4); k > 0; --k)
                addManaged(now + rng.uniformInt(0, 20), randomPrio());
            break;
        case 2:
            scheduleHeld(rng.uniformInt(0, held.size() - 1),
                         now + rng.uniformInt(0, 20));
            break;
        case 3:
            if (!model.empty())
                descheduleId(earliestId());
            break;
        case 4: {
            // Destroy an owner-held event, preferring the earliest
            // pending entry when it is one, and build a fresh one.
            int id = model.empty() ? -1 : earliestId();
            if (id >= 0)
                id = -1 - static_cast<int>(
                              rng.uniformInt(0, held.size() - 1));
            if (keyOf.count(id))
                untrack(id);
            makeHeld(static_cast<std::size_t>(-1 - id));
            break;
        }
        case 5: {
            const auto before = fired;
            const auto n = rng.uniformInt(1, 6);
            const auto ran = q.runEvents(n);
            ASSERT_EQ(ran, fired - before);
            ASSERT_LE(ran, n);
            break;
        }
        case 6: {
            const Tick end = now + rng.uniformInt(0, 10);
            q.runWindow(end);
            if (!model.empty()) {
                ASSERT_GE(std::get<0>(model.begin()->first), end);
            }
            break;
        }
        case 7:
            ASSERT_EQ(q.nextEventTick(),
                      model.empty() ? maxTick
                                    : std::get<0>(model.begin()->first));
            break;
        case 8: {
            const Tick until = now + rng.uniformInt(0, 10);
            ASSERT_EQ(q.run(until), until);
            if (!model.empty()) {
                ASSERT_GT(std::get<0>(model.begin()->first), until);
            }
            break;
        }
        }
        if (step % 500 == 250) {
            // Compaction with an entry in the front slot (once
            // nothing is pending at now, a schedule at now takes
            // the slot), cancelled in every other round and live in
            // the rest; then cancel most of a far-future batch.
            q.run(q.curTick());
            addManaged(q.curTick(), EventPriority::Default);
            if (step % 1000 == 250)
                descheduleId(earliestId());
            for (int k = 0; k < 200; ++k)
                addManaged(q.curTick() + 1'000'000 +
                               rng.uniformInt(0, 50),
                           randomPrio());
            for (int k = 0; k < 150; ++k)
                descheduleId(model.rbegin()->second);
            EXPECT_LT(q.staleEntries(), 150u) << "no compaction";
        }
        ASSERT_EQ(q.pendingEvents(), model.size()) << "step " << step;
    }
    q.run();
    ASSERT_TRUE(model.empty());

    // Below the refill tick: run(until) refills up to the one far
    // entry and stops, so what is scheduled next (and what those
    // handlers chain) lands below it.
    {
        SCOPED_TRACE("phase: below the refill tick");
        for (int round = 0; round < 20; ++round) {
            const Tick t0 = q.curTick();
            addManaged(t0 + 5000, randomPrio());
            ASSERT_EQ(q.run(t0 + 10), t0 + 10);
            for (int k = 0; k < 8; ++k)
                addManaged(t0 + 10 + rng.uniformInt(0, 40), randomPrio());
            scheduleHeld(rng.uniformInt(0, held.size() - 1),
                         t0 + 10 + rng.uniformInt(0, 40));
            ASSERT_EQ(q.nextEventTick(), std::get<0>(model.begin()->first));
            q.run();
            ASSERT_TRUE(model.empty()) << "round " << round;
        }
    }

    // Many entries on one tick, at every priority, around a chain.
    {
        SCOPED_TRACE("phase: one tick");
        for (int k = 0; k < 600; ++k)
            addManaged(q.curTick() + 7, randomPrio());
        q.run();
        ASSERT_TRUE(model.empty());
    }

    // Buckets of several chunks: a batch spread over one far bucket,
    // owner-held entries among them destroyed (scrubbed in place in
    // their chunks), then most of the batch cancelled so compaction
    // packs the chunks.
    {
        SCOPED_TRACE("phase: chunked buckets");
        chain = false;
        for (int round = 0; round < 4; ++round) {
            const Tick far = q.curTick() + (Tick{1} << 30);
            for (int k = 0; k < 300; ++k)
                addManaged(far + rng.uniformInt(0, 1 << 20), randomPrio());
            for (std::size_t i = 0; i < held.size(); ++i)
                scheduleHeld(i, far + rng.uniformInt(0, 1 << 20));
            for (std::size_t i = 0; i < held.size(); i += 2) {
                untrack(-1 - static_cast<int>(i));
                makeHeld(i);
            }
            ASSERT_EQ(q.pendingEvents(), model.size());
            const auto staleBefore = q.staleEntries();
            for (int k = 0; k < 200; ++k) {
                auto it = std::next(model.begin(),
                                    rng.uniformInt(0, model.size() - 1));
                descheduleId(it->second);
            }
            EXPECT_LT(q.staleEntries(), staleBefore + 200) << "no compaction";
            ASSERT_EQ(q.pendingEvents(), model.size());
            ASSERT_EQ(q.run(far + (1 << 19)), far + (1 << 19));
            q.run();
            ASSERT_TRUE(model.empty()) << "round " << round;
        }
    }

    // Ticks that differ only in bit 63, and ticks next to maxTick.
    {
        SCOPED_TRACE("phase: bit 63 and maxTick");
        const Tick bit63 = Tick{1} << 63;
        // An untracked handler dispatched just before bit63 - 2, which
        // then sits alone in a bucket (slot and `now` empty), schedules
        // a tick that differs from it in bit 63.
        addManaged(bit63 - 2, randomPrio());
        q.schedule([&] { addManaged(bit63 + 1, randomPrio()); },
                   bit63 - 3, "probe");
        ASSERT_EQ(q.run(bit63 - 3), bit63 - 3);
        ASSERT_EQ(q.nextEventTick(), bit63 - 2);
        for (Tick t : {bit63 - 1, bit63, bit63 | 7, maxTick - 3, maxTick - 1,
                       maxTick - 2, maxTick - 1})
            addManaged(t, randomPrio());
        scheduleHeld(0, bit63 + 1);
        scheduleHeld(1, maxTick - 1);
        ASSERT_EQ(q.nextEventTick(), bit63 - 2);
        ASSERT_EQ(q.run(bit63), bit63);
        for (int k = 0; k < 4; ++k)
            addManaged(bit63 + rng.uniformInt(0, 3), randomPrio());
        q.run();
        ASSERT_TRUE(model.empty());
        EXPECT_EQ(q.curTick(), maxTick - 1);
    }

    EXPECT_GT(fired, 3000u);
    EXPECT_EQ(q.internalEntries(), 0u);
    EXPECT_EQ(q.staleEntries(), 0u);
    EXPECT_EQ(q.poolOutstanding(), 0u) << "pooled-event leak";

    // Teardown of a second queue with live and cancelled entries
    // spread over the front slot, `now` and many buckets: every
    // managed capture is destroyed unrun, and every owner-held event
    // is detached.
    {
        SCOPED_TRACE("phase: teardown");
        auto token = std::make_shared<int>(0);
        std::vector<std::unique_ptr<CallbackEvent>> owned;
        int ran = 0;
        {
            EventQueue q2;
            for (int k = 0; k < 500; ++k) {
                const Tick t = Tick{1} << rng.uniformInt(0, 62);
                Event *ev = q2.schedule([token, &ran] { ++ran; },
                                        t + rng.uniformInt(0, 100));
                if (k % 3 == 0)
                    q2.deschedule(ev);
            }
            for (int k = 0; k < 40; ++k) {
                owned.push_back(std::make_unique<CallbackEvent>(
                    "owned", [&ran] { ++ran; }));
                q2.schedule(owned.back().get(),
                            Tick{1} << rng.uniformInt(0, 62));
            }
            ASSERT_GT(q2.internalEntries(), 500u);
            EXPECT_GT(token.use_count(), 300);
        }
        EXPECT_EQ(ran, 0);
        EXPECT_EQ(token.use_count(), 1) << "a capture outlived the queue";
        for (const auto &ev : owned)
            EXPECT_FALSE(ev->scheduled());
        owned.clear(); // their destructors must not touch the dead queue
    }
}

// ---------------------------------------------------------------------
// Timer: one managed event per armed timer
// ---------------------------------------------------------------------

TEST(Timer, FiresAtExactDeadlines)
{
    EventQueue q;
    TimerList w(q, "test.timer");
    Timer t1, t2, t3;
    std::vector<std::pair<int, Tick>> fired;
    w.arm(t2, 500, [&] { fired.emplace_back(2, q.curTick()); });
    w.arm(t1, 100, [&] { fired.emplace_back(1, q.curTick()); });
    w.arm(t3, 90'000, [&] { fired.emplace_back(3, q.curTick()); });
    EXPECT_EQ(w.armedCount(), 3u);
    EXPECT_EQ(w.nextDeadline(), 100u);
    q.run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], (std::pair<int, Tick>{1, 100}));
    EXPECT_EQ(fired[1], (std::pair<int, Tick>{2, 500}));
    EXPECT_EQ(fired[2], (std::pair<int, Tick>{3, 90'000}));
    EXPECT_EQ(w.armedCount(), 0u);
    EXPECT_EQ(w.fires(), 3u);
}

TEST(Timer, SameTickTimersFireInArmOrder)
{
    EventQueue q;
    TimerList w(q, "test.timer");
    Timer a, b, c;
    std::vector<char> order;
    // Arm out of alphabetical order; firing must follow *arm* order.
    w.arm(b, 200, [&] { order.push_back('b'); });
    w.arm(c, 200, [&] { order.push_back('c'); });
    w.arm(a, 200, [&] { order.push_back('a'); });
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'b', 'c', 'a'}));
}

TEST(Timer, InterleavesWithPlainEventsByScheduleOrder)
{
    // The ordering contract: a timer armed between two plain
    // schedule() calls fires between them at a shared tick.
    EventQueue q;
    TimerList w(q, "test.timer");
    Timer t;
    std::vector<int> order;
    q.schedule([&] { order.push_back(1); }, 300);
    w.arm(t, 300, [&] { order.push_back(2); });
    q.schedule([&] { order.push_back(3); }, 300);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Timer, CancelAndRearm)
{
    EventQueue q;
    TimerList w(q, "test.timer");
    Timer t, u;
    int tFired = 0, uFired = 0;
    Tick uAt = 0;
    w.arm(t, 100, [&] { tFired++; });
    w.arm(u, 100, [&] { uFired++; });
    t.cancel();
    EXPECT_FALSE(t.armed());
    EXPECT_TRUE(u.armed());
    EXPECT_EQ(w.armedCount(), 1u);
    // Re-arming an armed node moves it: only the new deadline runs.
    w.arm(u, 700, [&] {
        uFired++;
        uAt = q.curTick();
    });
    EXPECT_EQ(w.armedCount(), 1u);
    q.run();
    EXPECT_EQ(tFired, 0);
    EXPECT_EQ(uFired, 1);
    EXPECT_EQ(uAt, 700u);
    EXPECT_EQ(q.curTick(), 700u); // canceled deadlines leave no event
}

TEST(Timer, RearmFromInsideCallbackChains)
{
    // The RTO pattern: each fire re-arms the same timer.
    EventQueue q;
    TimerList w(q, "test.timer");
    Timer t;
    std::vector<Tick> at;
    std::function<void()> tick = [&] {
        at.push_back(q.curTick());
        if (at.size() < 5)
            w.arm(t, q.curTick() + 1000, tick);
    };
    w.arm(t, 1000, tick);
    q.run();
    EXPECT_EQ(at, (std::vector<Tick>{1000, 2000, 3000, 4000, 5000}));
    EXPECT_EQ(w.armedCount(), 0u);
}

TEST(Timer, CancelFromInsideAnotherCallback)
{
    // A firing timer may cancel a same-tick sibling; the sibling
    // must not run even though it was already due.
    EventQueue q;
    TimerList w(q, "test.timer");
    Timer killer, victim, bystander;
    std::vector<char> order;
    w.arm(killer, 50, [&] {
        order.push_back('k');
        victim.cancel();
    });
    w.arm(victim, 50, [&] { order.push_back('v'); });
    w.arm(bystander, 50, [&] { order.push_back('b'); });
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'k', 'b'}));
}

TEST(Timer, ListTeardownDropsArmedTimers)
{
    // A layer dying with protocol timers outstanding (node removal,
    // end of run) must not fire them or leak their captures.
    EventQueue q;
    Timer t1, t2;
    int fired = 0;
    auto keepAlive = std::make_shared<int>(0);
    {
        TimerList w(q, "test.timer");
        w.arm(t1, 100, [&fired, keepAlive] { fired++; });
        w.arm(t2, 99'999, [&] { fired++; });
        EXPECT_EQ(keepAlive.use_count(), 2);
    }
    EXPECT_FALSE(t1.armed());
    EXPECT_FALSE(t2.armed());
    EXPECT_EQ(keepAlive.use_count(), 1) << "capture outlived teardown";
    q.run();
    EXPECT_EQ(fired, 0);
    // Canceling against the dead list is a safe no-op.
    t1.cancel();
    EXPECT_EQ(q.poolOutstanding(), 0u);
}

TEST(Timer, FarDeadlinesFireInDeadlineOrder)
{
    // Deadlines spread over seven decades of ticks all land exactly.
    EventQueue q;
    TimerList w(q, "test.timer");
    constexpr int n = 32;
    Timer nodes[n];
    std::vector<Tick> want, got;
    for (int i = 0; i < n; ++i) {
        Tick d = 1 + (static_cast<Tick>(i) * 2'654'435'761u) %
                         10'000'000u;
        want.push_back(d);
        w.arm(nodes[i], d, [&got, &q] { got.push_back(q.curTick()); });
    }
    std::sort(want.begin(), want.end());
    q.run();
    EXPECT_EQ(got, want);
    EXPECT_EQ(w.fires(), static_cast<std::uint64_t>(n));
}

TEST(Timer, RearmChurnStaysBoundedByCompaction)
{
    // Every re-arm leaves the old event behind as a stale heap entry
    // (deschedule is lazy). Stale-entry compaction must keep the
    // heap and the event pool small through 100 000 moves.
    EventQueue q;
    TimerList w(q, "test.timer");
    Timer t;
    int fired = 0;
    std::size_t peak = 0;
    constexpr Tick n = 100'000;
    for (Tick i = 0; i < n; ++i) {
        w.arm(t, 1000 + i, [&fired] { fired++; });
        peak = std::max(peak, q.internalEntries());
    }
    EXPECT_LE(peak, 128u);
    EXPECT_LE(q.poolCarved(), 128u);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.curTick(), 1000 + n - 1);
    EXPECT_EQ(q.poolOutstanding(), 0u);
}

TEST(ClockDomain, PeriodAndConversions)
{
    ClockDomain ghz("cpu", 1e9);
    EXPECT_EQ(ghz.period(), 1000u);
    EXPECT_EQ(ghz.cyclesToTicks(5), 5000u);
    EXPECT_EQ(ghz.ticksToCycles(5000), 5u);
    EXPECT_EQ(ghz.ticksToCycles(5001), 6u); // partial cycle rounds up
    EXPECT_EQ(ghz.nextEdge(1500), 2000u);
    EXPECT_EQ(ghz.nextEdge(2000), 2000u);
}

TEST(ClockDomain, HighFrequencyClamps)
{
    ClockDomain fast("f", 2e12); // would be 0.5 ps
    EXPECT_GE(fast.period(), 1u);
}

TEST(ClockDomain, BadFrequencyFatal)
{
    EXPECT_THROW(ClockDomain("bad", 0.0), FatalError);
}

TEST(EventCallback, OversizedAndMoveOnlyCapturesRunAndDie)
{
    // A capture over the inline capacity goes to the heap, a
    // move-only one is constructed in place; both run when the
    // event fires and are destroyed when the slot is recycled.
    EventQueue q;
    auto alive = std::make_shared<int>(0);
    std::array<std::uint64_t, 16> big{};
    big[15] = 7;
    std::uint64_t seen = 0;
    static_assert(sizeof(big) > Callback<void()>::inlineBytes);
    q.schedule([big, &seen, keep = alive] { seen = big[15]; }, 10);
    auto owned = std::make_unique<int>(3);
    q.schedule([p = std::move(owned), &seen] { seen += *p; }, 20);
    EXPECT_EQ(alive.use_count(), 2);
    q.run(15);
    EXPECT_EQ(seen, 7u);
    EXPECT_EQ(alive.use_count(), 1); // the fired slot let go
    q.run();
    EXPECT_EQ(seen, 10u);
}

TEST(EventCallback, DescheduledCaptureIsReleased)
{
    EventQueue q;
    auto alive = std::make_shared<int>(0);
    Event *ev = q.schedule([keep = alive] {}, 10);
    q.deschedule(ev);
    q.run();
    EXPECT_EQ(alive.use_count(), 1);
    EXPECT_EQ(q.poolOutstanding(), 0u);
}

TEST(Callback, MovesKeepEveryKindOfCapture)
{
    // Inline non-trivial (a shared_ptr), inline trivially copyable
    // (moved as bytes) and heap-held (moved as its pointer)
    // captures all survive a chain of moves and run once; the
    // moved-from callbacks are empty.
    auto alive = std::make_shared<int>(5);
    std::array<std::uint64_t, 16> big{};
    big[3] = 11;
    static_assert(sizeof(big) > Callback<int(int)>::inlineBytes);
    std::vector<Callback<int(int)>> chain;
    chain.emplace_back([keep = alive](int x) { return x + *keep; });
    chain.emplace_back([k = 2](int x) { return x * k; });
    chain.emplace_back([big](int x) { return x - int(big[3]); });
    for (int hop = 0; hop < 3; ++hop) {
        std::vector<Callback<int(int)>> moved;
        for (auto &cb : chain) {
            moved.push_back(std::move(cb));
            EXPECT_FALSE(cb);
        }
        chain = std::move(moved);
    }
    EXPECT_EQ(alive.use_count(), 2);
    EXPECT_EQ(chain[0](1), 6);
    EXPECT_EQ(chain[1](4), 8);
    EXPECT_EQ(chain[2](20), 9);
    Callback<int(int)> sink;
    sink = std::move(chain[0]);
    chain.clear();
    EXPECT_EQ(alive.use_count(), 2); // held by sink alone
    sink = nullptr;
    EXPECT_EQ(alive.use_count(), 1);
}

TEST(Callback, NullSourcesMakeEmptyCallbacks)
{
    std::function<void(Tick)> none;
    void (*nofn)(Tick) = nullptr;
    EXPECT_FALSE(Callback<void(Tick)>(nullptr));
    EXPECT_FALSE(Callback<void(Tick)>(none));
    EXPECT_FALSE(Callback<void(Tick)>(nofn));
    Tick got = 0;
    std::function<void(Tick)> some = [&got](Tick t) { got = t; };
    Callback<void(Tick)> wrapped(some);
    ASSERT_TRUE(wrapped);
    wrapped(7);
    EXPECT_EQ(got, 7u);
}

TEST(Callback, MoveOnlyArgumentsAndCapturesForward)
{
    auto owned = std::make_unique<int>(4);
    Callback<int(std::unique_ptr<int>)> cb(
        [p = std::move(owned)](std::unique_ptr<int> q) {
            return *p * *q;
        });
    EXPECT_EQ(cb(std::make_unique<int>(3)), 12);
}

TEST(Callback, ResetEmptiesBeforeTheCaptureDies)
{
    // A capture's destructor that looks back at its callback finds
    // it empty (the re-entrancy rule pooled events rely on).
    struct Probe
    {
        Callback<void()> *home = nullptr;
        bool *sawEmpty = nullptr;
        Probe() = default;
        Probe(Probe &&o) noexcept : home(o.home), sawEmpty(o.sawEmpty)
        {
            o.home = nullptr;
        }
        ~Probe()
        {
            if (home)
                *sawEmpty = !*home;
        }
        void operator()() {}
    };
    bool saw_empty = false;
    Callback<void()> cb;
    Probe probe;
    probe.home = &cb;
    probe.sawEmpty = &saw_empty;
    cb.emplace(std::move(probe));
    cb.reset();
    EXPECT_TRUE(saw_empty);
}

TEST(RingDeque, MatchesStdDequeAcrossWrapAndGrowth)
{
    // Mixed front/back pushes and pops, wrapping the ring and
    // growing it several times, against std::deque as the model.
    RingDeque<int> d;
    std::deque<int> model;
    Rng r(3);
    for (int i = 0; i < 2000; ++i) {
        const auto op = r.uniformInt(0, 9);
        if (op < 4 || model.empty()) {
            d.push_back(i);
            model.push_back(i);
        } else if (op < 5) {
            d.push_front(i);
            model.push_front(i);
        } else {
            ASSERT_EQ(d.front(), model.front()) << i;
            d.pop_front();
            model.pop_front();
        }
        ASSERT_EQ(d.size(), model.size());
        if (!model.empty()) {
            ASSERT_EQ(d.back(), model.back()) << i;
        }
    }
    while (!model.empty()) {
        ASSERT_EQ(d.front(), model.front());
        d.pop_front();
        model.pop_front();
    }
    EXPECT_TRUE(d.empty());
}

TEST(Rng, DeterministicWithSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1'000'000),
                  b.uniformInt(0, 1'000'000));
}

TEST(Rng, RangesRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
        auto d = r.uniformReal(1.0, 2.0);
        EXPECT_GE(d, 1.0);
        EXPECT_LT(d, 2.0);
        EXPECT_GE(r.normalNonNeg(0.0, 1.0), 0.0);
    }
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Simulation, RunForAdvancesTime)
{
    Simulation sim;
    int fired = 0;
    sim.eventQueue().schedule([&] { fired++; }, oneUs);
    sim.runFor(2 * oneUs);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.curTick(), 2 * oneUs);
}

TEST(Types, TickConversions)
{
    EXPECT_EQ(secondsToTicks(1e-6), oneUs);
    EXPECT_DOUBLE_EQ(ticksToSeconds(oneMs), 1e-3);
    EXPECT_DOUBLE_EQ(ticksToUs(oneMs), 1000.0);
}
