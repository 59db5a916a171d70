/**
 * @file
 * End-to-end integration tests: ping and TCP across the baseline
 * 10 GbE cluster and across MCN systems at several optimisation
 * levels, exercising every layer from sockets down to DRAM.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "net/icmp.hh"
#include "net/socket.hh"
#include "net/tcp.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;
using namespace mcnsim::net;
using namespace mcnsim::sim;

namespace {

/** Run one ping and return the RTT (maxTick on failure). */
Tick
runPing(Simulation &s, NetStack &from, Ipv4Addr to,
        std::size_t payload)
{
    Tick rtt = maxTick;
    bool finished = false;
    auto task = [&]() -> Task<void> {
        rtt = co_await from.icmp().ping(to, payload);
        finished = true;
    };
    spawnDetached(s.eventQueue(), task());
    // Periodic MCN polling timers keep the queue busy forever; run
    // in slices and stop as soon as the ping resolves.
    Tick deadline = s.curTick() + secondsToTicks(0.5);
    while (!finished && s.curTick() < deadline)
        s.run(std::min(s.curTick() + 50 * oneUs, deadline));
    return rtt;
}

/** Bulk TCP transfer; returns bytes the server drained. */
std::size_t
runTcpTransfer(Simulation &s, NetStack &client_stack,
               NetStack &server_stack, Ipv4Addr server_addr,
               std::size_t bytes)
{
    std::size_t drained = 0;
    bool server_up = false;
    bool finished = false;

    auto server = [&]() -> Task<void> {
        auto listener = tcpListen(server_stack, 5001);
        server_up = true;
        auto conn = co_await listener->accept();
        drained = co_await conn->recvDrain(bytes);
        co_await conn->close();
        finished = true;
    };
    auto client = [&]() -> Task<void> {
        while (!server_up)
            co_await delayFor(s.eventQueue(), oneUs);
        auto sock = co_await tcpConnect(client_stack,
                                        {server_addr, 5001});
        EXPECT_TRUE(sock);
        if (!sock)
            co_return;
        co_await sock->sendPattern(bytes);
        co_await sock->close();
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());
    Tick deadline = s.curTick() + secondsToTicks(2.0);
    while (!finished && s.curTick() < deadline)
        s.run(std::min(s.curTick() + 200 * oneUs, deadline));
    return drained;
}

} // namespace

// ---------------------------------------------------------------------
// Baseline cluster
// ---------------------------------------------------------------------

TEST(ClusterIntegration, PingAcrossSwitch)
{
    Simulation s;
    ClusterSystemParams p;
    p.numNodes = 2;
    ClusterSystem sys(s, p);

    Tick rtt = runPing(s, *sys.node(0).stack, sys.addrOf(1), 56);
    ASSERT_NE(rtt, maxTick) << "ping timed out";
    // Two 1 us links each way + switch + software: single-digit us
    // up to tens of us.
    EXPECT_GT(rtt, 4 * oneUs);
    EXPECT_LT(rtt, 100 * oneUs);
}

TEST(ClusterIntegration, PingRttGrowsWithPayload)
{
    Simulation s;
    ClusterSystemParams p;
    ClusterSystem sys(s, p);

    Tick small = runPing(s, *sys.node(0).stack, sys.addrOf(1), 16);
    Tick large = runPing(s, *sys.node(0).stack, sys.addrOf(1), 1400);
    ASSERT_NE(small, maxTick);
    ASSERT_NE(large, maxTick);
    EXPECT_GT(large, small);
}

TEST(ClusterIntegration, TcpBulkTransferDeliversAllBytes)
{
    Simulation s;
    ClusterSystemParams p;
    ClusterSystem sys(s, p);

    constexpr std::size_t bytes = 1 << 20;
    std::size_t drained =
        runTcpTransfer(s, *sys.node(0).stack, *sys.node(1).stack,
                       sys.addrOf(1), bytes);
    EXPECT_EQ(drained, bytes);
}

TEST(ClusterIntegration, TcpDataIntegrity)
{
    Simulation s;
    ClusterSystemParams p;
    ClusterSystem sys(s, p);

    std::vector<std::uint8_t> received;
    bool server_up = false;
    constexpr std::size_t n = 100'000;

    auto server = [&]() -> Task<void> {
        auto listener = tcpListen(*sys.node(1).stack, 5001);
        server_up = true;
        auto conn = co_await listener->accept();
        while (received.size() < n) {
            auto chunk = co_await conn->recv(65536);
            if (chunk.empty())
                break;
            received.insert(received.end(), chunk.begin(),
                            chunk.end());
        }
    };
    auto client = [&]() -> Task<void> {
        while (!server_up)
            co_await delayFor(s.eventQueue(), oneUs);
        auto sock = co_await tcpConnect(*sys.node(0).stack,
                                        {sys.addrOf(1), 5001});
        EXPECT_TRUE(sock);
        if (!sock)
            co_return;
        std::vector<std::uint8_t> data(n);
        for (std::size_t i = 0; i < n; ++i)
            data[i] = static_cast<std::uint8_t>((i * 7) & 0xff);
        co_await sock->send(std::move(data));
        co_await sock->close();
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());
    s.run(s.curTick() + secondsToTicks(2.0));

    ASSERT_EQ(received.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(received[i],
                  static_cast<std::uint8_t>((i * 7) & 0xff))
            << "at offset " << i;
}

// ---------------------------------------------------------------------
// MCN system
// ---------------------------------------------------------------------

TEST(McnIntegration, HostPingsDimm)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);

    Tick rtt = runPing(s, sys.hostStack(), sys.dimmAddr(0), 56);
    ASSERT_NE(rtt, maxTick) << "host->mcn ping timed out";
    // No PHY: should be well under the 10GbE class RTT but gated by
    // the polling period.
    EXPECT_LT(rtt, 60 * oneUs);
    EXPECT_GT(rtt, oneUs / 2);
}

TEST(McnIntegration, DimmPingsHost)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);

    Tick rtt = runPing(s, sys.dimm(0).stack(), sys.hostAddr(), 56);
    ASSERT_NE(rtt, maxTick) << "mcn->host ping timed out";
    EXPECT_LT(rtt, 60 * oneUs);
}

TEST(McnIntegration, DimmPingsDimmThroughForwardingEngine)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);

    Tick rtt = runPing(s, sys.dimm(0).stack(), sys.dimmAddr(1), 56);
    ASSERT_NE(rtt, maxTick) << "mcn->mcn ping timed out";
    // The round trip crosses the host forwarding engine (F3) twice.
    EXPECT_GT(sys.driver().forwardedMcnToMcn(), 0u);
}

TEST(McnIntegration, AlertModeSkipsPeriodicPolling)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(1); // ALERT_N interrupts
    McnSystem sys(s, p);

    Tick rtt = runPing(s, sys.hostStack(), sys.dimmAddr(0), 56);
    ASSERT_NE(rtt, maxTick);
    // Interrupt-driven: no periodic poll scans should accumulate.
    EXPECT_EQ(sys.driver().pollScans(), 0u);
    EXPECT_GT(sys.dimm(0).iface().alertsRaised(), 0u);
}

TEST(McnIntegration, AlertLatencyBeatsPolling)
{
    auto rtt_at = [](int level) {
        Simulation s;
        McnSystemParams p;
        p.numDimms = 1;
        p.config = McnConfig::level(level);
        McnSystem sys(s, p);
        return runPing(s, sys.hostStack(), sys.dimmAddr(0), 56);
    };
    Tick poll = rtt_at(0);
    Tick alert = rtt_at(1);
    ASSERT_NE(poll, maxTick);
    ASSERT_NE(alert, maxTick);
    EXPECT_LT(alert, poll);
}

TEST(McnIntegration, EchoPayloadsStayLazyAndRttsHold)
{
    // Echo payloads are lazy pattern extents end to end: the
    // request's checksum, the reflected reply (a view of the
    // request) and its checksum read them in closed form, so 16 B
    // and 8 KB pings over 10GbE and to an MCN DIMM at mcn0 (CPU
    // copies) and mcn5 (DMA) write no pattern byte. Their RTTs are
    // those of the eagerly written payloads (ps).
    struct Case
    {
        int level; ///< -1: the 10GbE cluster
        std::size_t payload;
        Tick rtt;
    };
    const Case cases[] = {
        {-1, 16, 12'128'100}, {0, 16, 12'018'463}, {5, 16, 8'062'474},
        {-1, 8192, 40'335'296}, {0, 8192, 21'001'197},
        {5, 8192, 10'172'674},
    };
    for (const Case &c : cases) {
        Simulation s;
        const auto written = Packet::materialisedBytes();
        Tick rtt;
        if (c.level < 0) {
            ClusterSystemParams p;
            ClusterSystem sys(s, p);
            rtt = runPing(s, *sys.node(0).stack, sys.addrOf(1),
                          c.payload);
        } else {
            McnSystemParams p;
            p.config = McnConfig::level(c.level);
            McnSystem sys(s, p);
            rtt = runPing(s, sys.hostStack(), sys.dimmAddr(0),
                          c.payload);
        }
        EXPECT_EQ(rtt, c.rtt) << "level " << c.level << ", "
                              << c.payload << " B";
        EXPECT_EQ(Packet::materialisedBytes(), written)
            << "level " << c.level << ", " << c.payload << " B";
    }
}

TEST(McnIntegration, PingSweepDigestMatchesPinnedSchedule)
{
    // Pinned fingerprint of a 2-DIMM ping sweep's modeled end state
    // (stat JSON, final tick and event count) at mcn0 and mcn5: 16 B,
    // 1 KB and 8 KB, host<->MCN and MCN<->MCN, at the 9 KB MTU the
    // mcn_ping benchmark uses. MCN polling and driver work make
    // chains of short events here, so this pins the event engine's
    // dispatch order on the paper's latency path, event count
    // included, as Pdes.IperfDigestsMatchPinnedSchedule does for
    // iperf.
    std::string digest;
    for (int level : {0, 5}) {
        Simulation s(1);
        McnSystemParams p;
        p.numDimms = 2;
        p.config = McnConfig::level(level);
        p.config.mtu = 9000;
        McnSystem sys(s, p);
        const std::vector<std::size_t> sizes = {16, 1024, 8192};
        for (const auto &pt : runPingSweep(s, sys, 0, 1, sizes, 3))
            EXPECT_EQ(pt.lost, 0) << "mcn" << level << " host<->mcn";
        for (const auto &pt : runPingSweep(s, sys, 1, 2, sizes, 3))
            EXPECT_EQ(pt.lost, 0) << "mcn" << level << " mcn<->mcn";
        std::ostringstream os;
        s.prepareStatsDump();
        s.statRegistry().dumpJson(os);
        os << "tick=" << s.curTick()
           << " events=" << s.eventsProcessed() << "\n";
        digest += os.str();
    }
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a
    for (unsigned char c : digest) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    EXPECT_EQ(h, 0x500cdca79a2beb44ull) << std::hex << h;
}

TEST(McnIntegration, TcpHostToDimm)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);

    constexpr std::size_t bytes = 512 * 1024;
    std::size_t drained = runTcpTransfer(
        s, sys.hostStack(), sys.dimm(0).stack(), sys.dimmAddr(0),
        bytes);
    EXPECT_EQ(drained, bytes);
}

TEST(McnIntegration, TcpDimmToDimm)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 2;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);

    constexpr std::size_t bytes = 256 * 1024;
    std::size_t drained = runTcpTransfer(
        s, sys.dimm(0).stack(), sys.dimm(1).stack(),
        sys.dimmAddr(1), bytes);
    EXPECT_EQ(drained, bytes);
}

TEST(McnIntegration, TcpWorksAtEveryOptimizationLevel)
{
    for (int level = 0; level <= 5; ++level) {
        Simulation s;
        McnSystemParams p;
        p.numDimms = 1;
        p.config = McnConfig::level(level);
        McnSystem sys(s, p);

        constexpr std::size_t bytes = 256 * 1024;
        std::size_t drained = runTcpTransfer(
            s, sys.hostStack(), sys.dimm(0).stack(),
            sys.dimmAddr(0), bytes);
        EXPECT_EQ(drained, bytes) << "at mcn" << level;
    }
}

TEST(McnIntegration, JumboMtuReducesSegmentCount)
{
    auto segments_at = [](int level) {
        Simulation s;
        McnSystemParams p;
        p.numDimms = 1;
        p.config = McnConfig::level(level);
        McnSystem sys(s, p);
        runTcpTransfer(s, sys.hostStack(), sys.dimm(0).stack(),
                       sys.dimmAddr(0), 512 * 1024);
        return sys.hostStack().tcp().segmentsOut();
    };
    auto small_mtu = segments_at(2); // 1.5 KB MTU
    auto jumbo = segments_at(3);     // 9 KB MTU
    EXPECT_GT(small_mtu, 3 * jumbo);
}

TEST(McnIntegration, BroadcastReachesAllDimms)
{
    Simulation s;
    McnSystemParams p;
    p.numDimms = 3;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);

    // Broadcast a raw frame from DIMM 0 by sending to the
    // broadcast MAC through the driver's forwarding engine.
    auto task = [&]() -> Task<void> {
        auto pkt = Packet::makePattern(100);
        Ipv4Header ip;
        ip.src = sys.dimmAddr(0);
        ip.dst = Ipv4Addr(255, 255, 255, 255);
        ip.protocol = protoUdp;
        ip.totalLength =
            static_cast<std::uint16_t>(100 + Ipv4Header::size);
        ip.push(*pkt, true);
        EthernetHeader eth;
        eth.dst = MacAddr::broadcast();
        eth.src = sys.dimm(0).mac();
        eth.push(*pkt);
        sys.dimm(0).driver().xmit(pkt);
        co_return;
    };
    spawnDetached(s.eventQueue(), task());
    s.run(s.curTick() + secondsToTicks(0.05));

    // The other two DIMMs each received one copy.
    EXPECT_GE(sys.dimm(1).driver().rxMessages(), 1u);
    EXPECT_GE(sys.dimm(2).driver().rxMessages(), 1u);
}

TEST(McnIntegration, PathHasNoDmaOrPhyHop)
{
    // Table III: MCN has no DMA-TX/PHY/DMA-RX components.
    Simulation s;
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(0);
    McnSystem sys(s, p);

    std::size_t delivered = 0;
    std::vector<std::string> bad;
    sys.dimm(0).stack().tcp().setDeliveryHook([&](const Packet &pkt) {
        ASSERT_TRUE(pkt.path);
        ++delivered;
        for (std::size_t i = 0; i < pkt.path->size(); ++i) {
            Stage st = pkt.path->at(i).stage;
            if (st == Stage::DmaTx || st == Stage::Phy ||
                st == Stage::DmaRx)
                bad.emplace_back(pkt.path->at(i).name);
        }
    });
    mcnsim::sim::FlowTelemetry::instance().enable();
    runTcpTransfer(s, sys.hostStack(), sys.dimm(0).stack(),
                   sys.dimmAddr(0), 8 * 1024);
    mcnsim::sim::FlowTelemetry::instance().disable();
    sys.dimm(0).stack().tcp().setDeliveryHook(nullptr);

    EXPECT_GT(delivered, 0u);
    EXPECT_TRUE(bad.empty()) << "first DMA/PHY hop: " << bad.front();
}
