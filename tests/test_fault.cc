/**
 * @file
 * Fault-injection framework tests plus the TCP/MCN resilience
 * corners it enables:
 *
 *  - FaultPlan unit behaviour: spec grammar, glob matching,
 *    trigger/window/cap semantics, replay determinism;
 *  - TCP corner cases driven by deterministic faults: RTO backoff
 *    aborting with an explicit error, dup-ACK fast retransmit,
 *    out-of-window discard, zero-window persist probes rescuing a
 *    lost window update;
 *  - MCN recovery: injected ring corruption never reaches the
 *    application, a crashed DIMM is degraded by the host watchdog
 *    and open connections fail fast instead of hanging, and a
 *    MapReduce job survives a DIMM hang.
 */

#include <gtest/gtest.h>

#include "core/system_builder.hh"
#include "dist/mapreduce.hh"
#include "net/net_stack.hh"
#include "net/socket.hh"
#include "net/tcp.hh"
#include "netdev/ethernet_link.hh"
#include "os/kernel.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;
using namespace mcnsim::net;
using namespace mcnsim::sim;

namespace {

/** The FaultPlan is process-wide state: every test that arms specs
 *  scopes them with this guard so later tests start disarmed. */
struct PlanGuard
{
    FaultPlan &plan = FaultPlan::instance();

    PlanGuard() { plan.clear(); }
    ~PlanGuard() { plan.clear(); }

    /** Parse-or-die convenience for arming one spec. */
    void
    arm(const std::string &text)
    {
        FaultPlan::Spec sp;
        std::string err;
        ASSERT_TRUE(FaultPlan::parseSpec(text, &sp, &err))
            << text << ": " << err;
        plan.arm(sp);
    }

    /** Seed + arm several specs, then rewind run state. */
    void
    armAll(std::uint64_t seed,
           const std::vector<std::string> &specs)
    {
        plan.setSeed(seed);
        for (const auto &t : specs)
            arm(t);
        plan.resetRunState();
    }
};

/** A SimObject carrying one injection site, for unit tests. */
struct Probe : public SimObject
{
    Probe(Simulation &s, const std::string &nm)
        : SimObject(s, nm)
    {}
    FaultSite site = FAULT_POINT("tick");
};

} // namespace

// ---------------------------------------------------------------------
// FaultPlan unit behaviour
// ---------------------------------------------------------------------

TEST(FaultPlanUnit, GlobMatchBasics)
{
    EXPECT_TRUE(FaultPlan::globMatch("a.b", "a.b"));
    EXPECT_FALSE(FaultPlan::globMatch("a.b", "a.c"));
    EXPECT_TRUE(FaultPlan::globMatch("*", "anything.at.all"));
    EXPECT_TRUE(FaultPlan::globMatch("*.drop", "node0.link.drop"));
    EXPECT_FALSE(FaultPlan::globMatch("*.drop", "node0.link.dup"));
    EXPECT_TRUE(FaultPlan::globMatch("mcn?.crash", "mcn1.crash"));
    EXPECT_FALSE(FaultPlan::globMatch("mcn?.crash", "mcn12.crash"));
    EXPECT_TRUE(FaultPlan::globMatch("mcn*.crash", "mcn12.crash"));
    EXPECT_TRUE(FaultPlan::globMatch("a*b*c", "a-x-b-y-c"));
    EXPECT_FALSE(FaultPlan::globMatch("a*b*c", "a-x-c"));
}

TEST(FaultPlanUnit, HierarchicalSwitchGlobs)
{
    // Multi-switch fabrics address sites through three-level names
    // ("rack0.leaf.port3.down", "spine1.crash"); globs must select
    // whole tiers without bleeding across site kinds.
    EXPECT_TRUE(FaultPlan::globMatch("rack*.leaf.port*.down",
                                     "rack0.leaf.port2.down"));
    EXPECT_TRUE(FaultPlan::globMatch("rack*.leaf.port*.down",
                                     "rack13.leaf.port10.down"));
    EXPECT_FALSE(FaultPlan::globMatch("rack*.leaf.port*.down",
                                      "spine0.crash"));
    EXPECT_FALSE(FaultPlan::globMatch("rack*.leaf.port*.down",
                                      "rack0.leaf.drop"));
    EXPECT_TRUE(FaultPlan::globMatch("spine?.crash",
                                     "spine1.crash"));
    EXPECT_FALSE(FaultPlan::globMatch("spine?.crash",
                                      "spine1.hang"));
    EXPECT_TRUE(FaultPlan::globMatch("rack0.*", "rack0.leaf.drop"));
    EXPECT_FALSE(FaultPlan::globMatch("rack0.*",
                                      "rack1.leaf.drop"));
}

TEST(FaultPlanUnit, OneGlobSchedulesManySwitches)
{
    PlanGuard g;
    // A single scheduled spec fans out to every matching site: both
    // leaves' port2 resolve the same "rack*..." glob, each spine
    // resolves the crash glob, and an unrelated switch sees nothing.
    g.armAll(1, {"rack*.leaf.port?.down:at=1ms,param=500us",
                 "spine*.crash:at=2ms"});

    for (const char *site : {"rack0.leaf.port2.down",
                             "rack1.leaf.port2.down",
                             "rack1.leaf.port3.down"}) {
        auto hits = g.plan.scheduledFor(site);
        ASSERT_EQ(hits.size(), 1u) << site;
        EXPECT_EQ(hits[0].at, 1 * oneMs) << site;
        EXPECT_EQ(hits[0].param, static_cast<std::uint64_t>(
            500 * oneUs)) << site;
    }
    ASSERT_EQ(g.plan.scheduledFor("spine0.crash").size(), 1u);
    ASSERT_EQ(g.plan.scheduledFor("spine1.crash").size(), 1u);
    EXPECT_TRUE(g.plan.scheduledFor("spine0.hang").empty());
    EXPECT_TRUE(g.plan.scheduledFor("tor.crash").empty());
}

TEST(FaultPlanUnit, PerSiteRngIndependentAcrossSwitches)
{
    PlanGuard g;
    Simulation s;
    // Two sites on different "switches" matched by the same
    // probabilistic spec: each draws from its own deterministic
    // stream, so one switch's faults never shift another's.
    Probe leaf0(s, "rack0.leaf");
    Probe leaf1(s, "rack1.leaf");
    g.armAll(99, {"rack*.leaf.tick:p=0.5"});

    auto collect = [](Probe &p) {
        std::vector<bool> v;
        for (int i = 0; i < 200; ++i)
            v.push_back(p.site.fires());
        return v;
    };
    auto a0 = collect(leaf0);
    auto b0 = collect(leaf1);
    EXPECT_NE(a0, b0)
        << "sites on different switches share an RNG stream";

    // Replay: rewinding run state reproduces both schedules
    // exactly, and the order the sites are queried in does not
    // leak between streams (query leaf1 first this time).
    g.plan.resetRunState();
    auto b1 = collect(leaf1);
    auto a1 = collect(leaf0);
    EXPECT_EQ(a0, a1);
    EXPECT_EQ(b0, b1);
}

TEST(FaultPlanUnit, ParseSpecFullGrammar)
{
    FaultPlan::Spec sp;
    std::string err;

    ASSERT_TRUE(FaultPlan::parseSpec("*.drop:p=0.25", &sp, &err))
        << err;
    EXPECT_EQ(sp.siteGlob, "*.drop");
    EXPECT_DOUBLE_EQ(sp.probability, 0.25);
    EXPECT_EQ(sp.every, 0u);
    EXPECT_FALSE(sp.scheduled);

    ASSERT_TRUE(FaultPlan::parseSpec(
        "x.y:n=7,max=3,from=10us,until=2ms,param=50us", &sp, &err))
        << err;
    EXPECT_EQ(sp.every, 7u);
    EXPECT_EQ(sp.maxFires, 3u);
    EXPECT_EQ(sp.windowStart, 10 * oneUs);
    EXPECT_EQ(sp.windowEnd, 2 * oneMs);
    EXPECT_EQ(sp.param, static_cast<std::uint64_t>(50 * oneUs));

    // at= marks the spec scheduled; times accept all suffixes and
    // bare ticks.
    ASSERT_TRUE(FaultPlan::parseSpec("mcn1.crash:at=2ms", &sp, &err))
        << err;
    EXPECT_TRUE(sp.scheduled);
    EXPECT_EQ(sp.at, 2 * oneMs);
    ASSERT_TRUE(FaultPlan::parseSpec("a.b:at=1s", &sp, &err));
    EXPECT_EQ(sp.at, oneSec);
    ASSERT_TRUE(FaultPlan::parseSpec("a.b:at=500ns", &sp, &err));
    EXPECT_EQ(sp.at, 500 * oneNs);
    ASSERT_TRUE(FaultPlan::parseSpec("a.b:at=1234", &sp, &err));
    EXPECT_EQ(sp.at, static_cast<Tick>(1234));
}

TEST(FaultPlanUnit, ParseSpecRejectsMalformed)
{
    FaultPlan::Spec sp;
    std::string err;
    const char *bad[] = {
        "",               // empty
        "no-colon",       // no trigger list
        ":p=1",           // empty glob
        "x:p",            // not key=value
        "x:boom=1",       // unknown key
        "x:p=2",          // probability out of range
        "x:p=abc",        // unparsable number
        "x:n=0",          // every-0th is meaningless
        "x:max=2",        // modifier without a trigger
        "x:at=5q",        // bad time suffix
    };
    for (const char *t : bad) {
        err.clear();
        EXPECT_FALSE(FaultPlan::parseSpec(t, &sp, &err))
            << "accepted malformed spec: '" << t << "'";
        EXPECT_FALSE(err.empty()) << t;
    }
}

TEST(FaultPlanUnit, SpecPrefixesAndMutationsParseOrDiagnose)
{
    // Every prefix of a valid spec, and each prefix with one byte
    // replaced, must parse or be rejected with a message -- never
    // crash (the asan/ubsan stages run this).
    const char steer[] = {':', ',', '=', '.', '*', '-', 'e', '9',
                          'u', 's', '\0', '\xff'};
    for (const std::string spec :
         {"mcn1.iface.rx-irq-lost:n=7,max=3,from=10us,until=2ms,"
          "param=50us",
          "*.link*.drop:p=0.25", "mcn1.crash:at=1.5ms"}) {
        FaultPlan::Spec sp;
        std::string err;
        ASSERT_TRUE(FaultPlan::parseSpec(spec, &sp, &err)) << err;
        auto check = [&](const std::string &text) {
            err.clear();
            if (!FaultPlan::parseSpec(text, &sp, &err)) {
                EXPECT_FALSE(err.empty()) << "no diagnostic: " << text;
            }
        };
        for (std::size_t len = 0; len <= spec.size(); ++len) {
            const std::string prefix = spec.substr(0, len);
            check(prefix);
            for (std::size_t pos = 0; pos < len; ++pos) {
                std::string m = prefix;
                m[pos] = steer[(len + pos) % sizeof(steer)];
                check(m);
            }
        }
    }
}

TEST(FaultPlanUnit, EveryNthFiresOnSchedule)
{
    PlanGuard g;
    Simulation s;
    Probe p(s, "probe");
    g.armAll(1, {"probe.tick:n=3,param=42"});

    std::vector<bool> fired;
    for (int i = 0; i < 9; ++i)
        fired.push_back(p.site.fires());
    std::vector<bool> expect = {false, false, true,  false, false,
                                true,  false, false, true};
    EXPECT_EQ(fired, expect);
    EXPECT_EQ(g.plan.totalFires(), 3u);
    EXPECT_EQ(p.site.param(), 42u);
}

TEST(FaultPlanUnit, MaxFiresCapsAndWindowGates)
{
    PlanGuard g;
    Simulation s;
    Probe p(s, "probe");
    g.armAll(1, {"probe.tick:n=1,max=2"});
    for (int i = 0; i < 5; ++i)
        p.site.fires();
    EXPECT_EQ(g.plan.totalFires(), 2u) << "max= did not cap fires";

    // A window that has not opened yet (sim is at tick 0) gates the
    // trigger off entirely.
    g.plan.clear();
    g.armAll(1, {"probe.tick:n=1,from=1us"});
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(p.site.fires());
    EXPECT_EQ(g.plan.totalFires(), 0u);
}

TEST(FaultPlanUnit, ProbabilisticFiringReplaysAcrossReset)
{
    PlanGuard g;
    Simulation s;
    Probe p(s, "probe");
    g.armAll(12345, {"probe.tick:p=0.3"});

    auto collect = [&] {
        std::vector<bool> v;
        for (int i = 0; i < 300; ++i)
            v.push_back(p.site.fires());
        return v;
    };
    auto first = collect();
    std::uint64_t fires1 = g.plan.totalFires();
    EXPECT_GT(fires1, 0u);
    EXPECT_LT(fires1, 300u);

    g.plan.resetRunState();
    auto second = collect();
    EXPECT_EQ(first, second)
        << "resetRunState() must replay the identical schedule";
    EXPECT_EQ(g.plan.totalFires(), fires1);

    // A different seed draws a different schedule.
    g.plan.setSeed(54321);
    g.plan.resetRunState();
    EXPECT_NE(collect(), first);
}

TEST(FaultPlanUnit, ScheduledForMatchesAndSorts)
{
    PlanGuard g;
    g.armAll(1, {"mcn1.crash:at=5ms", "mcn*.crash:at=2ms,param=7",
                 "mcn2.hang:at=1ms"});

    auto hits = g.plan.scheduledFor("mcn1.crash");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0].at, 2 * oneMs);
    EXPECT_EQ(hits[0].param, 7u);
    EXPECT_EQ(hits[1].at, 5 * oneMs);
    EXPECT_TRUE(g.plan.scheduledFor("mcn1.hang").empty());

    // recordFire folds scheduled hits into the same counters the
    // inline sites use.
    g.plan.recordFire("mcn1.crash");
    EXPECT_EQ(g.plan.totalFires(), 1u);
    auto counts = g.plan.fireCounts();
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts[0].first, "mcn1.crash");
    EXPECT_EQ(counts[0].second, 1u);
}

TEST(FaultPlanUnit, DisarmedSitesNeverFire)
{
    PlanGuard g;
    Simulation s;
    Probe p(s, "probe");
    EXPECT_FALSE(FaultPlan::active());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(p.site.fires());
    EXPECT_EQ(g.plan.totalFires(), 0u);

    // Armed specs that match nothing leave other sites silent too.
    g.armAll(1, {"some.other.site:n=1"});
    EXPECT_TRUE(FaultPlan::active());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(p.site.fires());
    EXPECT_EQ(g.plan.totalFires(), 0u);
}

// ---------------------------------------------------------------------
// TCP corner cases
// ---------------------------------------------------------------------

namespace {

/** A standalone node (kernel + stack) for loopback tests. */
struct LoneNode
{
    os::Kernel kernel;
    NetStack stack;

    explicit LoneNode(Simulation &s)
        : kernel(s, "lone", 0, os::KernelParams{}),
          stack(s, "lone.net", kernel)
    {
        stack.setNodeAddress(Ipv4Addr(10, 9, 9, 9));
    }
};

/** Drive @p s in @p step slices until @p done or @p deadline. */
template <typename Pred>
void
runUntil(Simulation &s, Pred done, Tick deadline, Tick step = oneMs)
{
    while (!done() && s.curTick() < deadline)
        s.run(std::min(s.curTick() + step, deadline));
}

} // namespace

TEST(TcpCorners, RtoBackoffAbortsWithExplicitTimeout)
{
    PlanGuard g;
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    constexpr std::size_t bytes = 1 << 20;
    TcpSocketPtr client;
    bool up = false;
    std::size_t got = 0;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(*sys.node(1).stack, 9800);
        up = true;
        auto conn = co_await lst->accept();
        while (got < bytes) {
            auto chunk = co_await conn->recv(16384);
            if (chunk.empty())
                break;
            got += chunk.size();
        }
    };
    auto sender = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        client = co_await tcpConnect(*sys.node(0).stack,
                                     {sys.addrOf(1), 9800});
        if (client)
            co_await client->sendPattern(bytes);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), sender());

    // Let the handshake finish and data start flowing, then cut the
    // wire completely while most of the megabyte is still queued.
    runUntil(s, [&] { return got > 0; }, secondsToTicks(1.0),
             20 * oneUs);
    ASSERT_LT(got, bytes) << "transfer finished before the cut";
    ASSERT_TRUE(client);
    ASSERT_EQ(client->state(), TcpState::Established);
    const Tick cut = s.curTick();
    g.arm(sys.link(0).name() + ".drop:p=1,from=" +
          std::to_string(cut));

    // The sender must not hang: maxRetransmits consecutive backoffs
    // end in an explicit per-socket error.
    runUntil(s, [&] { return client->error() != TcpError::None; },
             cut + secondsToTicks(30.0));
    EXPECT_EQ(client->error(), TcpError::TimedOut);
    EXPECT_EQ(client->state(), TcpState::Closed);
    EXPECT_GE(client->retransmits(),
              static_cast<std::uint64_t>(TcpSocket::maxRetransmits));
    // The schedule doubles from >= minRto (200 us): 8 consecutive
    // backoffs cannot complete faster than (2^8 - 1) * minRto.
    EXPECT_GE(s.curTick() - cut, 255 * 200 * oneUs);
}

TEST(TcpCorners, SingleDropRecoversViaDupAckFastRetransmit)
{
    PlanGuard g;
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    // Drop two consecutive frames mid-stream on the sender's link
    // (opportunities 60 and 61 -- deep in the bulk transfer, so at
    // least one is a data segment). The dup-ACK fast path must
    // recover without waiting for an RTO.
    g.armAll(11, {"node0.link.drop:n=60,max=1",
                  "node0.link.drop:n=61,max=1"});

    constexpr std::size_t bytes = 256 * 1024;
    TcpSocketPtr client;
    std::size_t got = 0;
    bool up = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(*sys.node(1).stack, 9801);
        up = true;
        auto conn = co_await lst->accept();
        got = co_await conn->recvDrain(bytes);
    };
    auto sender = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        client = co_await tcpConnect(*sys.node(0).stack,
                                     {sys.addrOf(1), 9801});
        if (client)
            co_await client->sendPattern(bytes);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), sender());
    runUntil(s, [&] { return got == bytes; }, secondsToTicks(10.0));

    ASSERT_EQ(got, bytes) << "transfer starved after injected drop";
    ASSERT_TRUE(client);
    EXPECT_EQ(client->error(), TcpError::None);
    EXPECT_GE(g.plan.totalFires(), 1u);
    EXPECT_GE(client->fastRetransmits(), 1u)
        << "loss was not recovered through the dup-ACK fast path";
}

TEST(TcpCorners, OutOfWindowSegmentDiscardedNotBuffered)
{
    Simulation s;
    LoneNode node(s);

    auto listener = tcpListen(node.stack, 8002);
    TcpSocketPtr client, served;
    auto server = [&]() -> Task<void> {
        served = co_await listener->accept();
    };
    auto connect = [&]() -> Task<void> {
        client = node.stack.tcpSocket();
        co_await client->connect(Ipv4Addr(10, 9, 9, 9), 8002);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), connect());
    s.run(s.curTick() + secondsToTicks(0.1));
    ASSERT_TRUE(served);
    ASSERT_EQ(served->state(), TcpState::Established);

    // Craft a segment whose payload ends beyond rcvNxt + rcvBufCap:
    // a corrupt or hostile sequence number. It must be dropped and
    // counted, never buffered.
    const std::uint64_t before =
        node.stack.tcp().outOfWindowDrops();
    TcpHeader h;
    h.srcPort = served->tuple().remotePort;
    h.dstPort = served->tuple().localPort;
    h.seq = served->rcvNxt() + TcpSocket::rcvBufCap + 1000;
    h.ack = 0; // stale ack: ignored by processAck
    h.flags = tcpAck;
    h.window = 500;
    served->segmentArrived(h, served->tuple().remoteIp,
                           served->tuple().localIp,
                           Packet::makePattern(64));
    EXPECT_EQ(node.stack.tcp().outOfWindowDrops(), before + 1);
    EXPECT_EQ(served->bytesReceived(), 0u);

    // The connection survives: a normal transfer still goes through.
    std::size_t got = 0;
    auto reader = [&]() -> Task<void> {
        got = co_await served->recvDrain(5000);
    };
    auto writer = [&]() -> Task<void> {
        co_await client->sendPattern(5000);
    };
    spawnDetached(s.eventQueue(), reader());
    spawnDetached(s.eventQueue(), writer());
    runUntil(s, [&] { return got == 5000; }, secondsToTicks(1.0));
    EXPECT_EQ(got, 5000u);
    EXPECT_EQ(served->error(), TcpError::None);
}

TEST(TcpCorners, ZeroWindowPersistProbesRescueLostWindowUpdate)
{
    PlanGuard g;
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    // The receiver's application stalls until t = 200 ms, so the
    // sender fills the 1 MB receive buffer and hits a zero window.
    // When the app finally drains, every window-update ACK it sends
    // is eaten by a 100% drop window on its link (199..215 ms) --
    // without persist probes the connection would deadlock forever.
    g.armAll(11, {"node1.link.drop:p=1,from=199ms,until=215ms"});

    constexpr std::size_t bytes =
        TcpSocket::rcvBufCap + 256 * 1024;
    TcpSocketPtr client;
    std::size_t got = 0;
    bool up = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(*sys.node(1).stack, 9802);
        up = true;
        auto conn = co_await lst->accept();
        co_await delayFor(s.eventQueue(), 200 * oneMs);
        got = co_await conn->recvDrain(bytes);
    };
    auto sender = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        client = co_await tcpConnect(*sys.node(0).stack,
                                     {sys.addrOf(1), 9802});
        if (client)
            co_await client->sendPattern(bytes);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), sender());
    runUntil(s, [&] { return got == bytes; }, secondsToTicks(5.0));

    ASSERT_EQ(got, bytes)
        << "zero-window deadlock: persist probes did not rescue "
           "the lost window update";
    ASSERT_TRUE(client);
    EXPECT_EQ(client->error(), TcpError::None);
    EXPECT_GE(client->persistProbes(), 3u)
        << "the sender never probed the zero window";
}

// ---------------------------------------------------------------------
// MCN recovery end to end
// ---------------------------------------------------------------------

TEST(McnRecovery, InjectedRingCorruptionNeverReachesApplication)
{
    PlanGuard g;
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);

    // Corrupt ~5% of ring messages in SRAM, after the producer's
    // checksum was computed (tx-corrupt flips a payload byte in
    // place). The ring-entry CRC must catch every one; TCP
    // retransmits the dropped segments.
    g.armAll(11, {"*.tx-corrupt:p=0.05"});

    constexpr std::size_t bytes = 256 * 1024;
    std::vector<std::uint8_t> rx;
    TcpSocketPtr client;
    bool up = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(sys.hostStack(), 9803);
        up = true;
        auto conn = co_await lst->accept();
        while (rx.size() < bytes) {
            auto chunk = co_await conn->recv(65536);
            if (chunk.empty())
                break;
            rx.insert(rx.end(), chunk.begin(), chunk.end());
        }
    };
    auto sender = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        client = co_await tcpConnect(*sys.node(1).stack,
                                     {sys.hostAddr(), 9803});
        if (!client)
            co_return;
        std::vector<std::uint8_t> data(bytes);
        for (std::size_t i = 0; i < bytes; ++i)
            data[i] = static_cast<std::uint8_t>((i * 31) & 0xff);
        co_await client->send(std::move(data));
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), sender());
    runUntil(s, [&] { return rx.size() == bytes; },
             secondsToTicks(10.0));

    ASSERT_EQ(rx.size(), bytes)
        << "transfer starved under ring corruption";
    std::uint64_t crc_drops = sys.driver().ringCrcDrops();
    for (std::size_t i = 0; i < sys.dimmCount(); ++i)
        crc_drops += sys.dimm(i).driver().ringCrcDrops();
    EXPECT_GT(g.plan.totalFires(), 0u);
    EXPECT_GT(crc_drops, 0u)
        << "no corruption was caught by the ring-entry CRC";
    for (std::size_t i = 0; i < rx.size(); ++i)
        ASSERT_EQ(rx[i], static_cast<std::uint8_t>((i * 31) & 0xff))
            << "corruption reached the application at offset " << i;
}

TEST(McnRecovery, CrashedDimmDegradesAndConnectionsFailFast)
{
    PlanGuard g;
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);

    // DIMM "mcn1" (index 1) dies 3 ms in, mid-transfer. Pre-fault-
    // framework this scenario hung forever: the host kept relaying
    // into a ring nobody drains and the sender retried unboundedly.
    // Now the host watchdog degrades the DIMM and the sender's
    // connection aborts with an explicit error.
    g.armAll(11, {"mcn1.crash:at=3ms"});

    TcpSocketPtr client;
    bool up = false;
    std::size_t got = 0;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(*sys.node(2).stack, 9804);
        up = true;
        auto conn = co_await lst->accept();
        got = co_await conn->recvDrain(8 << 20);
    };
    auto sender = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        client = co_await tcpConnect(sys.hostStack(),
                                     {sys.dimmAddr(1), 9804});
        if (client)
            co_await client->sendPattern(8 << 20);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), sender());

    runUntil(s, [&] {
        return client && client->error() != TcpError::None;
    }, secondsToTicks(30.0));

    ASSERT_TRUE(client);
    EXPECT_NE(client->error(), TcpError::None)
        << "connection toward the dead DIMM hung instead of failing";
    EXPECT_EQ(client->state(), TcpState::Closed);
    EXPECT_GE(sys.driver().dimmsDegraded(), 1u);
    EXPECT_EQ(sys.driver().dimmHealth(1),
              mcn::McnHostDriver::Health::Degraded);
    EXPECT_EQ(g.plan.totalFires(), 1u); // the scheduled crash
}

TEST(McnRecovery, MapReduceSurvivesDimmHang)
{
    PlanGuard g;
    Simulation s;
    McnSystemParams p;
    p.numDimms = 4;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);

    // One worker DIMM goes dark for 500 us early in the job (the
    // whole job runs well under 1 ms of simulated time); the
    // revived node drains its backlog and TCP retransmission covers
    // the gap, so the job completes -- degraded, not dead.
    g.armAll(11, {"mcn1.hang:at=100us,param=500us"});

    dist::MapReduceJob job = dist::wordcountJob();
    job.inputBytesPerWorker = 1 << 20;
    auto rep = dist::runMapReduce(s, sys, job, {1, 2, 3, 4},
                                  30 * oneSec);

    EXPECT_TRUE(rep.completed)
        << "MapReduce did not survive a transient DIMM hang";
    EXPECT_GE(g.plan.totalFires(), 1u); // the scheduled hang
}
