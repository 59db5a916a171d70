/**
 * @file
 * TCP behaviour tests: handshake state machine, loopback transfer,
 * congestion-window growth, loss recovery through a congested
 * switch, payload bytes end to end, and close semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>

#include "core/system_builder.hh"
#include "net/net_stack.hh"
#include "net/socket.hh"
#include "net/tcp.hh"
#include "os/kernel.hh"
#include "sim/fault.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;
using namespace mcnsim::net;
using namespace mcnsim::sim;

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

} // namespace

TEST(TcpStates, HandshakeOverLoopback)
{
    Simulation s;
    LoneNode node(s);

    auto listener = tcpListen(node.stack, 8000);
    EXPECT_EQ(listener->state(), TcpState::Listen);

    TcpSocketPtr client, served;
    auto server = [&]() -> Task<void> {
        served = co_await listener->accept();
    };
    auto connect = [&]() -> Task<void> {
        client = node.stack.tcpSocket();
        bool ok = co_await client->connect(
            Ipv4Addr(10, 9, 9, 9), 8000);
        EXPECT_TRUE(ok);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), connect());
    s.run(s.curTick() + secondsToTicks(0.5));

    ASSERT_TRUE(client);
    ASSERT_TRUE(served);
    EXPECT_EQ(client->state(), TcpState::Established);
    EXPECT_EQ(served->state(), TcpState::Established);
    // Initial congestion window: 10 segments.
    EXPECT_GE(client->cwnd(), 10 * 1400u);
}

TEST(TcpStates, ConnectToClosedPortFails)
{
    Simulation s;
    LoneNode node(s);
    bool result = true;
    bool finished = false;
    auto t = [&]() -> Task<void> {
        auto sock = node.stack.tcpSocket();
        // No listener: the SYN is dropped and retried until the
        // caller's retry budget is spent.
        result = co_await sock->connect(Ipv4Addr(10, 9, 9, 9),
                                        9999);
        finished = true;
    };
    spawnDetached(s.eventQueue(), t());
    // SYN retransmission backs off; give it a bounded window only.
    s.run(s.curTick() + secondsToTicks(0.05));
    EXPECT_FALSE(finished && result);
}

TEST(TcpTransfer, LoopbackDeliversInOrder)
{
    Simulation s;
    LoneNode node(s);

    std::vector<std::uint8_t> rx;
    constexpr std::size_t n = 50'000;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(node.stack, 8001);
        auto conn = co_await lst->accept();
        while (rx.size() < n) {
            auto chunk = co_await conn->recv(8192);
            if (chunk.empty())
                break;
            rx.insert(rx.end(), chunk.begin(), chunk.end());
        }
    };
    auto client = [&]() -> Task<void> {
        SockAddr dst{Ipv4Addr(10, 9, 9, 9), 8001};
        auto sock = co_await tcpConnect(node.stack, dst);
        if (!sock)
            co_return;
        std::vector<std::uint8_t> data(n);
        for (std::size_t i = 0; i < n; ++i)
            data[i] = static_cast<std::uint8_t>(i * 13);
        co_await sock->send(std::move(data));
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());
    s.run(s.curTick() + secondsToTicks(1.0));

    ASSERT_EQ(rx.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(rx[i], static_cast<std::uint8_t>(i * 13))
            << "offset " << i;
}

TEST(TcpCongestion, WindowGrowsDuringBulkTransfer)
{
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    TcpSocketPtr client;
    bool done = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(*sys.node(1).stack, 8002);
        auto conn = co_await lst->accept();
        co_await conn->recvDrain(512 * 1024);
        done = true;
    };
    auto sender = [&]() -> Task<void> {
        client = co_await tcpConnect(*sys.node(0).stack,
                                     {sys.addrOf(1), 8002});
        if (!client)
            co_return;
        co_await client->sendPattern(512 * 1024);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), sender());
    s.run(s.curTick() + secondsToTicks(2.0));

    ASSERT_TRUE(done);
    ASSERT_TRUE(client);
    // Slow start must have grown cwnd well past the initial 10 MSS.
    EXPECT_GT(client->cwnd(), 20 * 1400u);
    EXPECT_GT(client->srtt(), 0u); // RTT estimator ran
}

TEST(TcpLoss, RecoversThroughCongestedSwitch)
{
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 3;
    ClusterSystem sys(s, p);

    // Two senders blast one receiver: the shared egress queue
    // overflows and drops; both transfers must still complete.
    constexpr std::size_t bytes = 256 * 1024;
    std::size_t got0 = 0, got1 = 0;
    TcpSocketPtr c0, c1;

    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(*sys.node(2).stack, 8003);
        auto handle = [&](TcpSocketPtr conn,
                          std::size_t *sink) -> Task<void> {
            *sink = co_await conn->recvDrain(bytes);
        };
        auto a = co_await lst->accept();
        spawnDetached(s.eventQueue(), handle(a, &got0));
        auto b = co_await lst->accept();
        spawnDetached(s.eventQueue(), handle(b, &got1));
    };
    auto sender = [&](std::size_t from,
                      TcpSocketPtr *out) -> Task<void> {
        auto sock = co_await tcpConnect(*sys.node(from).stack,
                                        {sys.addrOf(2), 8003});
        if (!sock)
            co_return;
        *out = sock;
        co_await sock->sendPattern(bytes);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), sender(0, &c0));
    spawnDetached(s.eventQueue(), sender(1, &c1));

    Tick deadline = s.curTick() + secondsToTicks(5.0);
    while ((got0 < bytes || got1 < bytes) &&
           s.curTick() < deadline)
        s.run(std::min(s.curTick() + oneMs, deadline));

    EXPECT_EQ(got0, bytes);
    EXPECT_EQ(got1, bytes);
}

namespace {

/**
 * MPI-style framing end to end: the client sends a 12-byte header
 * with send() then a payload with sendPattern(n), message after
 * message, with n never a multiple of 256, so the send queue holds
 * alternating literal and pattern runs that do not merge. The server
 * recv()s the stream; returns what arrived and sets @p sender to
 * the client socket.
 */
struct FramedStream
{
    std::vector<std::uint8_t> expected;
    std::vector<std::uint8_t> received;
    TcpSocketPtr sender;
};

FramedStream
runFramedStream(Simulation &s, NetStack &client_stack,
                NetStack &server_stack, Ipv4Addr server_addr)
{
    constexpr std::size_t msgs = 60;
    FramedStream fs;
    std::vector<std::vector<std::uint8_t>> headers(msgs);
    std::vector<std::size_t> sizes(msgs);
    for (std::size_t k = 0; k < msgs; ++k) {
        headers[k].resize(12);
        for (std::size_t j = 0; j < 12; ++j)
            headers[k][j] = static_cast<std::uint8_t>(k * 29 + j * 3);
        sizes[k] = 1 + (k * 1013) % 6000;
        if (sizes[k] % 256 == 0)
            ++sizes[k];
        fs.expected.insert(fs.expected.end(), headers[k].begin(),
                           headers[k].end());
        for (std::size_t i = 0; i < sizes[k]; ++i)
            fs.expected.push_back(static_cast<std::uint8_t>(i));
    }

    bool server_up = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(server_stack, 8006);
        server_up = true;
        auto conn = co_await lst->accept();
        while (fs.received.size() < fs.expected.size()) {
            auto chunk = co_await conn->recv(65536);
            if (chunk.empty())
                break;
            fs.received.insert(fs.received.end(), chunk.begin(),
                               chunk.end());
        }
    };
    auto client = [&]() -> Task<void> {
        while (!server_up)
            co_await delayFor(s.eventQueue(), oneUs);
        fs.sender = co_await tcpConnect(client_stack,
                                        {server_addr, 8006});
        if (!fs.sender)
            co_return;
        for (std::size_t k = 0; k < msgs; ++k) {
            co_await fs.sender->send(headers[k]);
            co_await fs.sender->sendPattern(sizes[k]);
        }
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());
    // MCN polling keeps the queue busy forever: run in slices.
    Tick deadline = s.curTick() + secondsToTicks(5.0);
    while (fs.received.size() < fs.expected.size() &&
           s.curTick() < deadline)
        s.run(std::min(s.curTick() + oneMs, deadline));
    return fs;
}

/** Compare every received byte with the expected stream. */
void
expectSameStream(const FramedStream &fs)
{
    ASSERT_EQ(fs.received.size(), fs.expected.size());
    for (std::size_t i = 0; i < fs.expected.size(); ++i)
        ASSERT_EQ(fs.received[i], fs.expected[i]) << "offset " << i;
}

} // namespace

TEST(TcpPayload, FramedPatternBytesSurviveLossyLink)
{
    // Drops force retransmits, which read the send queue from the
    // middle rather than where the last segment ended.
    Simulation s;
    ClusterSystemParams p;
    ClusterSystem sys(s, p);
    // The plan is process-wide: clear it on both ends of the test.
    struct PlanScope
    {
        FaultPlan &plan = FaultPlan::instance();
        PlanScope() { plan.clear(); }
        ~PlanScope() { plan.clear(); }
    } scope;
    FaultPlan::Spec sp;
    ASSERT_TRUE(FaultPlan::parseSpec(
        sys.link(0).name() + ".drop:p=0.02", &sp, nullptr));
    scope.plan.setSeed(1);
    scope.plan.arm(sp);
    auto fs = runFramedStream(s, *sys.node(0).stack,
                              *sys.node(1).stack, sys.addrOf(1));
    expectSameStream(fs);
    ASSERT_TRUE(fs.sender);
    EXPECT_GT(fs.sender->retransmits(), 0u);
}

TEST(TcpPayload, FramedPatternBytesOverMcnSoftwareChecksum)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);
    expectSameStream(runFramedStream(s, sys.hostStack(),
                                     sys.dimm(0).stack(),
                                     sys.dimmAddr(0)));
}

TEST(TcpPayload, FramedPatternBytesOverMcnBypassAndDma)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);
    expectSameStream(runFramedStream(s, sys.hostStack(),
                                     sys.dimm(0).stack(),
                                     sys.dimmAddr(0)));
}

namespace {

/** What a host server saw while draining one bulk stream. */
struct DrainRun
{
    Tick closedAt = 0; ///< tick the server read end-of-stream
    std::uint64_t bytesReceived = 0;
    std::string stats; ///< stats JSON without its host wall clock
};

/**
 * A DIMM sends 2 MiB to the host over MCN and closes. The host's
 * server first lets the 1 MiB receive buffer fill, so the window
 * closes and the first read must send a window update; then it
 * drains the stream with recv(), or with recvDiscard() when
 * @p discard is set, and does nothing else with the bytes.
 */
DrainRun
drainFromDimm(bool discard)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);
    constexpr std::size_t bytes = 2 * TcpSocket::rcvBufCap;

    DrainRun r;
    bool up = false, closed = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(sys.hostStack(), 8011);
        up = true;
        auto conn = co_await lst->accept();
        co_await delayFor(s.eventQueue(), 5 * oneMs);
        while (true) {
            std::size_t n = 0;
            if (discard)
                n = co_await conn->recvDiscard(65536);
            else
                n = (co_await conn->recv(65536)).size();
            if (n == 0)
                break;
        }
        r.closedAt = s.curTick();
        r.bytesReceived = conn->bytesReceived();
        closed = true;
    };
    auto client = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        auto sock = co_await tcpConnect(sys.dimm(0).stack(),
                                        {sys.hostAddr(), 8011});
        if (!sock)
            co_return;
        co_await sock->sendPattern(bytes);
        co_await sock->close();
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());
    // MCN polling keeps the queue busy forever: run in slices.
    Tick deadline = s.curTick() + secondsToTicks(5.0);
    while (!closed && s.curTick() < deadline)
        s.run(std::min(s.curTick() + oneMs, deadline));

    std::ostringstream os;
    s.dumpStatsJson(os);
    r.stats = os.str();
    auto at = r.stats.find("\"wall_seconds\"");
    if (at != std::string::npos)
        r.stats.erase(at, r.stats.find(',', at) - at);
    return r;
}

} // namespace

TEST(TcpRecv, DiscardingReceiveMatchesRecv)
{
    // recvDiscard() is recv() without the vector: the same waits,
    // window updates and syscall + copy charges, so the modeled run
    // is identical to the last tick and the last stat.
    const DrainRun kept = drainFromDimm(false);
    ASSERT_EQ(kept.bytesReceived, 2 * TcpSocket::rcvBufCap);
    const DrainRun dropped = drainFromDimm(true);
    EXPECT_EQ(dropped.closedAt, kept.closedAt);
    EXPECT_EQ(dropped.bytesReceived, kept.bytesReceived);
    EXPECT_EQ(dropped.stats, kept.stats);
}

namespace {

/**
 * A DIMM sends MPI-style messages (a 12-byte header carrying the
 * payload length, then the payload) to the host, which reads each
 * header with recvInto(), or, when @p into is false, with a loop of
 * recv() calls that appends until 12 bytes arrived, and drains the
 * payload. Returns the end tick, the bytes received and the stats
 * JSON; @p lengths collects the decoded payload lengths.
 */
DrainRun
readHeadersFromDimm(bool into, std::vector<std::uint32_t> &lengths)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(5);
    McnSystem sys(s, p);
    constexpr std::size_t msgs = 40;

    DrainRun r;
    bool up = false, closed = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(sys.hostStack(), 8012);
        up = true;
        auto conn = co_await lst->accept();
        for (std::size_t k = 0; k < msgs; ++k) {
            std::array<std::uint8_t, 12> hdr{};
            std::size_t got = 0;
            if (into) {
                got = co_await conn->recvInto(hdr.data(), hdr.size());
            } else {
                while (got < hdr.size()) {
                    auto chunk = co_await conn->recv(hdr.size() - got);
                    if (chunk.empty())
                        break;
                    std::copy(chunk.begin(), chunk.end(),
                              hdr.begin() +
                                  static_cast<std::ptrdiff_t>(got));
                    got += chunk.size();
                }
            }
            if (got < hdr.size())
                break;
            std::uint32_t len = (std::uint32_t(hdr[8]) << 24) |
                                (std::uint32_t(hdr[9]) << 16) |
                                (std::uint32_t(hdr[10]) << 8) | hdr[11];
            lengths.push_back(len);
            co_await conn->recvDrain(len);
        }
        r.closedAt = s.curTick();
        r.bytesReceived = conn->bytesReceived();
        closed = true;
    };
    auto client = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        auto sock = co_await tcpConnect(sys.dimm(0).stack(),
                                        {sys.hostAddr(), 8012});
        if (!sock)
            co_return;
        for (std::size_t k = 0; k < msgs; ++k) {
            const auto len = static_cast<std::uint32_t>(
                1 + (k * 2777) % 20000);
            std::vector<std::uint8_t> hdr(12);
            for (int b = 0; b < 4; ++b)
                hdr[8 + b] = static_cast<std::uint8_t>(
                    len >> (24 - 8 * b));
            co_await sock->send(std::move(hdr));
            co_await sock->sendPattern(len);
        }
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());
    Tick deadline = s.curTick() + secondsToTicks(5.0);
    while (!closed && s.curTick() < deadline)
        s.run(std::min(s.curTick() + oneMs, deadline));

    std::ostringstream os;
    s.dumpStatsJson(os);
    r.stats = os.str();
    auto at = r.stats.find("\"wall_seconds\"");
    if (at != std::string::npos)
        r.stats.erase(at, r.stats.find(',', at) - at);
    return r;
}

} // namespace

TEST(TcpRecv, RecvIntoMatchesARecvLoop)
{
    // recvInto() is the recv() loop a message reader would write,
    // minus the vectors: the same reads, waits and charges, so the
    // modeled run is identical, and the headers decode the same.
    std::vector<std::uint32_t> viaLoop, viaInto;
    const DrainRun loop = readHeadersFromDimm(false, viaLoop);
    const DrainRun into = readHeadersFromDimm(true, viaInto);
    ASSERT_EQ(viaLoop.size(), 40u);
    for (std::size_t k = 0; k < viaLoop.size(); ++k)
        EXPECT_EQ(viaLoop[k], 1 + (k * 2777) % 20000) << k;
    EXPECT_EQ(viaInto, viaLoop);
    EXPECT_EQ(into.closedAt, loop.closedAt);
    EXPECT_EQ(into.bytesReceived, loop.bytesReceived);
    EXPECT_EQ(into.stats, loop.stats);
}

TEST(TcpRecv, PatternPayloadIsNeverWrittenOnDrainingPaths)
{
    // Segments keep their pattern payload as a lazy extent. An
    // iperf-style stream at mcn5 read with recvDiscard(), and
    // MPI-style messages (header via recvInto(), payload via
    // recvDrain()), cross rings, relays and the receive queue
    // without a single lazy byte written.
    const std::uint64_t before = Packet::materialisedBytes();
    const DrainRun iperf = drainFromDimm(true);
    EXPECT_EQ(iperf.bytesReceived, 2 * TcpSocket::rcvBufCap);
    EXPECT_EQ(Packet::materialisedBytes(), before);
    std::vector<std::uint32_t> lengths;
    readHeadersFromDimm(true, lengths);
    EXPECT_EQ(lengths.size(), 40u);
    EXPECT_EQ(Packet::materialisedBytes(), before);
}

namespace {

/** Byte @p i of the crafted stream; not 256-periodic, so a slice
 *  read at an offset off by a multiple of 256 still shows. */
std::uint8_t
craftedByte(std::size_t i)
{
    return static_cast<std::uint8_t>(i * 131 + i / 256);
}

/** FNV-1a of @p s: pins a stats dump without storing it. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

} // namespace

TEST(TcpRecv, ReorderedAndOverlappingSegmentsReassemble)
{
    // Crafted segments reach an established loopback socket out of
    // order, overlapping in-order data, queued out-of-order data and
    // each other, as retransmissions with other boundaries do; some
    // are pure duplicates, one reuses a queued segment's sequence
    // number, and a run of 1-byte segments lands on the in-order
    // tail. A reader takes the stream with recv() sizes that span
    // segments. The bytes must arrive in order, and the final tick
    // and the stats dump are pinned: the receive queue is host-side
    // storage and must not move the model.
    Simulation s;
    LoneNode node(s);
    auto listener = tcpListen(node.stack, 8021);
    TcpSocketPtr client, served;
    auto server = [&]() -> Task<void> {
        served = co_await listener->accept();
    };
    auto connect = [&]() -> Task<void> {
        client = node.stack.tcpSocket();
        co_await client->connect(Ipv4Addr(10, 9, 9, 9), 8021);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), connect());
    s.run(s.curTick() + secondsToTicks(0.01));
    ASSERT_TRUE(served);
    ASSERT_EQ(served->state(), TcpState::Established);

    struct Seg
    {
        std::size_t off, len;
    };
    // Groups are injected 20 us apart so reads interleave.
    const std::vector<std::vector<Seg>> groups = {
        {{3000, 1000}, {3500, 1500}, {3000, 200}, {6000, 100}},
        {{0, 1000}, {500, 1500}, {100, 800}},
        {{2000, 1100}, {4900, 1150}},
        {{6100, 1}, {6101, 1}, {6102, 1}, {6103, 1}, {6104, 1},
         {6106, 1}, {6105, 1}, {6107, 3}},
        {{7000, 2000}, {6110, 1500}, {8500, 600}, {9100, 9000}},
    };
    constexpr std::size_t total = 18'100;
    const std::uint32_t base = served->rcvNxt();
    auto inject = [&]() -> Task<void> {
        for (const auto &g : groups) {
            for (const Seg &sg : g) {
                TcpHeader h;
                h.srcPort = served->tuple().remotePort;
                h.dstPort = served->tuple().localPort;
                h.seq = base + static_cast<std::uint32_t>(sg.off);
                h.ack = 0; // stale: processAck ignores it
                h.flags = tcpAck;
                h.window = 500;
                auto pkt = Packet::makeFilled(
                    sg.len, [&](std::uint8_t *p) {
                        for (std::size_t i = 0; i < sg.len; ++i)
                            p[i] = craftedByte(sg.off + i);
                    });
                served->segmentArrived(h, served->tuple().remoteIp,
                                       served->tuple().localIp,
                                       std::move(pkt));
            }
            co_await delayFor(s.eventQueue(), 20 * oneUs);
        }
    };
    std::vector<std::uint8_t> rx;
    Tick doneAt = 0;
    auto reader = [&]() -> Task<void> {
        const std::size_t sizes[] = {37, 1000, 3, 5000, 1, 777};
        for (std::size_t k = 0; rx.size() < total; ++k) {
            auto chunk = co_await served->recv(sizes[k % 6]);
            if (chunk.empty())
                break;
            rx.insert(rx.end(), chunk.begin(), chunk.end());
        }
        doneAt = s.curTick();
    };
    spawnDetached(s.eventQueue(), reader());
    spawnDetached(s.eventQueue(), inject());
    s.run(s.curTick() + secondsToTicks(0.01));

    ASSERT_EQ(rx.size(), total);
    for (std::size_t i = 0; i < total; ++i)
        ASSERT_EQ(rx[i], craftedByte(i)) << "offset " << i;
    EXPECT_EQ(served->bytesReceived(), total);
    EXPECT_EQ(served->rcvNxt(), base + total);

    std::ostringstream os;
    s.dumpStatsJson(os);
    std::string stats = os.str();
    auto at = stats.find("\"wall_seconds\"");
    if (at != std::string::npos)
        stats.erase(at, stats.find(',', at) - at);
    EXPECT_EQ(doneAt, 10'082'756'448u);
    EXPECT_EQ(fnv1a(stats), 0xb68fe3f3ef45039aull);
}

TEST(TcpClose, OrderlyFinHandshake)
{
    Simulation s;
    LoneNode node(s);

    TcpSocketPtr client, served;
    bool closed = false;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(node.stack, 8004);
        served = co_await lst->accept();
        auto data = co_await served->recv(100);
        EXPECT_EQ(data.size(), 5u);
        // Peer closes; our next recv returns empty (EOF).
        auto eof = co_await served->recv(100);
        EXPECT_TRUE(eof.empty());
        co_await served->close();
    };
    auto cl = [&]() -> Task<void> {
        SockAddr dst{Ipv4Addr(10, 9, 9, 9), 8004};
        client = co_await tcpConnect(node.stack, dst);
        if (!client)
            co_return;
        // (initializer lists inside coroutines trip GCC 12; build
        // the payload without one)
        std::vector<std::uint8_t> payload(5);
        for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = static_cast<std::uint8_t>(i + 1);
        co_await client->send(std::move(payload));
        co_await client->close();
        closed = true;
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), cl());
    s.run(s.curTick() + secondsToTicks(1.0));

    EXPECT_TRUE(closed);
    ASSERT_TRUE(client);
    // Client ends in TimeWait/FinWait2/Closed depending on timing,
    // but never Established.
    EXPECT_NE(client->state(), TcpState::Established);
}

TEST(TcpLayer, PartitionAbortsInTupleOrder)
{
    // Eight loopback connections: a partition notice about the
    // node's own address aborts all sixteen sockets. Each abort
    // wakes its socket's blocked recv(), so the wake order is the
    // abort order, which must be ascending by tuple (the served
    // ends, local port 8000, before the clients' ephemeral ports)
    // whatever order the hashed demux holds them in.
    Simulation s;
    LoneNode node(s);
    const Ipv4Addr self(10, 9, 9, 9);
    auto listener = tcpListen(node.stack, 8000);
    std::vector<TcpSocketPtr> socks;
    std::vector<TcpTuple> woke;
    auto reader = [&](TcpSocketPtr sock) -> Task<void> {
        auto bytes = co_await sock->recv(64);
        EXPECT_TRUE(bytes.empty());
        woke.push_back(sock->tuple());
    };
    auto server = [&]() -> Task<void> {
        for (int i = 0; i < 8; ++i) {
            auto conn = co_await listener->accept();
            socks.push_back(conn);
            spawnDetached(s.eventQueue(), reader(conn));
        }
    };
    auto client = [&]() -> Task<void> {
        auto sock = node.stack.tcpSocket();
        socks.push_back(sock);
        if (co_await sock->connect(self, 8000))
            co_await reader(sock);
    };
    spawnDetached(s.eventQueue(), server());
    for (int i = 0; i < 8; ++i)
        spawnDetached(s.eventQueue(), client());
    s.run(s.curTick() + secondsToTicks(0.01));
    ASSERT_EQ(socks.size(), 16u);
    for (const auto &sock : socks)
        ASSERT_EQ(sock->state(), TcpState::Established);
    ASSERT_TRUE(woke.empty());

    node.stack.tcp().peerPartitioned(self);
    s.run(s.curTick() + secondsToTicks(0.01));
    EXPECT_EQ(node.stack.tcp().partitionAborts(), 16u);
    ASSERT_EQ(woke.size(), 16u);
    EXPECT_TRUE(std::is_sorted(woke.begin(), woke.end()));
    EXPECT_EQ(woke.front().localPort, 8000);
    for (const auto &sock : socks)
        EXPECT_EQ(sock->error(), TcpError::Unreachable);
}

TEST(TcpMisc, StateNamesComplete)
{
    EXPECT_STREQ(to_string(TcpState::Closed), "Closed");
    EXPECT_STREQ(to_string(TcpState::Listen), "Listen");
    EXPECT_STREQ(to_string(TcpState::SynSent), "SynSent");
    EXPECT_STREQ(to_string(TcpState::SynRcvd), "SynRcvd");
    EXPECT_STREQ(to_string(TcpState::Established), "Established");
    EXPECT_STREQ(to_string(TcpState::FinWait1), "FinWait1");
    EXPECT_STREQ(to_string(TcpState::FinWait2), "FinWait2");
    EXPECT_STREQ(to_string(TcpState::CloseWait), "CloseWait");
    EXPECT_STREQ(to_string(TcpState::LastAck), "LastAck");
    EXPECT_STREQ(to_string(TcpState::TimeWait), "TimeWait");
}

TEST(TcpMisc, ByteCountersMatchTransfer)
{
    Simulation s;
    LoneNode node(s);
    TcpSocketPtr client, served;
    auto server = [&]() -> Task<void> {
        auto lst = tcpListen(node.stack, 8005);
        served = co_await lst->accept();
        co_await served->recvDrain(10'000);
    };
    auto cl = [&]() -> Task<void> {
        SockAddr dst{Ipv4Addr(10, 9, 9, 9), 8005};
        client = co_await tcpConnect(node.stack, dst);
        if (client)
            co_await client->sendPattern(10'000);
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), cl());
    s.run(s.curTick() + secondsToTicks(1.0));
    ASSERT_TRUE(client && served);
    EXPECT_EQ(client->bytesSent(), 10'000u);
    EXPECT_EQ(served->bytesReceived(), 10'000u);
}
