/**
 * @file
 * Parameterized property sweeps (TEST_P): invariants checked across
 * whole parameter grids rather than single points -- ring geometry,
 * DRAM presets, interleave widths, TCP transfer configurations, TSO
 * segmentations and copy-mode orderings.
 */

#include <gtest/gtest.h>

#include <deque>
#include <tuple>

#include "core/system_builder.hh"
#include "mcn/sram_buffer.hh"
#include "mem/dram_timing.hh"
#include "mem/interleave.hh"
#include "mem/mem_controller.hh"
#include "mem/memcpy_model.hh"
#include "net/socket.hh"
#include "net/tcp.hh"
#include "netdev/nic.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::mem;
using namespace mcnsim::sim;

// ---------------------------------------------------------------------
// MessageRing: FIFO + byte-accounting invariants over geometry grid
// ---------------------------------------------------------------------

class RingSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t /*capacity*/,
                     std::size_t /*max msg*/>>
{};

TEST_P(RingSweep, RandomOpsKeepInvariants)
{
    auto [capacity, max_msg] = GetParam();
    mcn::MessageRing ring(capacity);
    Rng rng(static_cast<std::uint64_t>(capacity * 31 + max_msg));
    std::deque<std::vector<std::uint8_t>> model;

    for (int op = 0; op < 1200; ++op) {
        if (rng.chance(0.6)) {
            std::size_t n = rng.uniformInt(1, max_msg);
            std::vector<std::uint8_t> msg(n);
            for (auto &v : msg)
                v = static_cast<std::uint8_t>(
                    rng.uniformInt(0, 255));
            bool fits = mcn::MessageRing::footprint(n) <=
                        ring.freeBytes();
            ASSERT_EQ(ring.enqueue(msg.data(), n), fits);
            if (fits)
                model.push_back(std::move(msg));
        } else {
            auto got = ring.dequeue();
            if (model.empty()) {
                ASSERT_FALSE(got);
            } else {
                ASSERT_TRUE(got);
                ASSERT_EQ(got->bytes, model.front());
                model.pop_front();
            }
        }
        ASSERT_LE(ring.usedBytes(), ring.capacityBytes());
        ASSERT_EQ(ring.usedBytes() + ring.freeBytes(),
                  ring.capacityBytes());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, RingSweep,
    ::testing::Combine(::testing::Values(std::size_t{8192},
                                         std::size_t{48 * 1024},
                                         std::size_t{192 * 1024}),
                       ::testing::Values(std::size_t{64},
                                         std::size_t{1500},
                                         std::size_t{9000})));

// ---------------------------------------------------------------------
// DRAM presets: first-access latency identity for every part
// ---------------------------------------------------------------------

class DramPresetSweep
    : public ::testing::TestWithParam<int>
{
  public:
    static DramTiming
    preset(int i)
    {
        switch (i) {
          case 0:
            return DramTiming::ddr4_3200();
          case 1:
            return DramTiming::lpddr4_1866();
          default:
            return DramTiming::ddr3_1066();
        }
    }
};

TEST_P(DramPresetSweep, ColdReadLatencyIsActRcdClBurst)
{
    auto t = preset(GetParam());
    Simulation s;
    MemController mc(s, "mc", t);
    Tick done = 0;
    MemRequest r;
    r.kind = MemRequest::Kind::Read;
    r.addr = 0;
    r.onComplete = [&](Tick at) { done = at; };
    mc.access(std::move(r));
    s.run();
    EXPECT_EQ(done, t.tRCD + t.tCL + t.tBURST) << t.name;
}

TEST_P(DramPresetSweep, StreamApproachesPeakBandwidth)
{
    auto t = preset(GetParam());
    Simulation s;
    MemController mc(s, "mc", t);
    // 512 sequential lines: mostly row hits, bus-limited.
    int outstanding = 512;
    Tick last = 0;
    for (int i = 0; i < 512; ++i) {
        MemRequest r;
        r.kind = MemRequest::Kind::Read;
        r.addr = static_cast<Addr>(i) * 64;
        r.onComplete = [&](Tick at) {
            outstanding--;
            last = std::max(last, at);
        };
        mc.access(std::move(r));
    }
    s.run();
    ASSERT_EQ(outstanding, 0);
    double achieved = 512.0 * 64.0 / ticksToSeconds(last);
    EXPECT_GT(achieved, 0.6 * t.peakBandwidthBps()) << t.name;
    EXPECT_LE(achieved, 1.01 * t.peakBandwidthBps()) << t.name;
}

INSTANTIATE_TEST_SUITE_P(Parts, DramPresetSweep,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------
// Interleave: host-address round trip across channel widths
// ---------------------------------------------------------------------

class InterleaveSweep
    : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(InterleaveSweep, RoundTripAndStrideLaws)
{
    std::uint32_t channels = GetParam();
    InterleaveMap m(channels);
    Rng rng(channels);
    for (int i = 0; i < 1500; ++i) {
        Addr a = rng.uniformInt(0, 1ull << 36);
        ASSERT_EQ(m.hostAddr(m.channelOf(a), m.channelOffset(a)),
                  a);
    }
    // Stride law: k-th line of a channel-pinned buffer advances the
    // host address by exactly lineBytes * channels.
    for (std::uint32_t ch = 0; ch < channels; ++ch)
        for (std::uint64_t k = 1; k < 32; ++k)
            ASSERT_EQ(m.strideAddr(ch, 0, k) -
                          m.strideAddr(ch, 0, k - 1),
                      static_cast<Addr>(64) * channels);
}

INSTANTIATE_TEST_SUITE_P(Widths, InterleaveSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// ---------------------------------------------------------------------
// TCP: delivery correctness over (MTU, checksum-bypass, size) grid
// ---------------------------------------------------------------------

class TcpTransferSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t /*mtu*/, bool /*bypass*/,
                     std::size_t /*bytes*/>>
{};

TEST_P(TcpTransferSweep, AllBytesArriveInOrder)
{
    auto [mtu, bypass, bytes] = GetParam();
    Simulation s;
    core::ClusterSystemParams p;
    p.numNodes = 2;
    p.net.mtu = mtu;
    core::ClusterSystem sys(s, p);
    sys.node(0).stack->setChecksumBypass(bypass);
    sys.node(1).stack->setChecksumBypass(bypass);

    std::vector<std::uint8_t> rx;
    bool up = false;
    auto server = [&]() -> Task<void> {
        auto lst = net::tcpListen(*sys.node(1).stack, 9100);
        up = true;
        auto conn = co_await lst->accept();
        while (rx.size() < bytes) {
            auto chunk = co_await conn->recv(65536);
            if (chunk.empty())
                break;
            rx.insert(rx.end(), chunk.begin(), chunk.end());
        }
    };
    std::size_t want = bytes;
    auto client = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        net::SockAddr dst{sys.addrOf(1), 9100};
        auto sock = co_await net::tcpConnect(*sys.node(0).stack,
                                             dst);
        if (!sock)
            co_return;
        std::vector<std::uint8_t> data(want);
        for (std::size_t i = 0; i < want; ++i)
            data[i] = static_cast<std::uint8_t>((i * 31) & 0xff);
        co_await sock->send(std::move(data));
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());
    s.run(s.curTick() + secondsToTicks(2.0));

    ASSERT_EQ(rx.size(), bytes)
        << "mtu=" << mtu << " bypass=" << bypass;
    for (std::size_t i = 0; i < bytes; ++i)
        ASSERT_EQ(rx[i], static_cast<std::uint8_t>((i * 31) & 0xff))
            << "offset " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpTransferSweep,
    ::testing::Combine(::testing::Values(1500u, 9000u),
                       ::testing::Bool(),
                       ::testing::Values(std::size_t{1},
                                         std::size_t{1500},
                                         std::size_t{100'000})));

// ---------------------------------------------------------------------
// TSO: segmentation identity over (payload, mss) grid
// ---------------------------------------------------------------------

class TsoSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t /*payload*/,
                     std::uint32_t /*mss*/>>
{};

TEST_P(TsoSweep, SegmentsPartitionThePayload)
{
    using namespace net;
    auto [payload, mss] = GetParam();

    auto pkt = Packet::makePattern(payload, 3);
    pkt->tsoMss = mss;
    TcpHeader th;
    th.srcPort = 5;
    th.dstPort = 6;
    th.seq = 500;
    th.push(*pkt, Ipv4Addr(1, 0, 0, 1), Ipv4Addr(1, 0, 0, 2),
            true);
    Ipv4Header ih;
    ih.src = Ipv4Addr(1, 0, 0, 1);
    ih.dst = Ipv4Addr(1, 0, 0, 2);
    ih.totalLength =
        static_cast<std::uint16_t>(pkt->size() + Ipv4Header::size);
    ih.push(*pkt, true);
    EthernetHeader eh;
    eh.dst = MacAddr::fromId(9);
    eh.src = MacAddr::fromId(8);
    eh.push(*pkt);

    auto segs = netdev::Nic::segmentTso(pkt);
    std::size_t expect =
        (payload + mss - 1) / mss;
    ASSERT_EQ(segs.size(), expect);

    std::uint32_t seq = 500;
    std::size_t total = 0;
    for (auto &sp : segs) {
        auto seg = sp->clone();
        EthernetHeader::pull(*seg);
        auto ip = Ipv4Header::pull(*seg, true);
        ASSERT_TRUE(ip);
        auto tcp = TcpHeader::pull(*seg, ip->src, ip->dst, true);
        ASSERT_TRUE(tcp);
        ASSERT_EQ(tcp->seq, seq);
        seq += static_cast<std::uint32_t>(seg->size());
        total += seg->size();
        ASSERT_LE(seg->size(), mss);
    }
    ASSERT_EQ(total, payload);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TsoSweep,
    ::testing::Combine(::testing::Values(std::size_t{100},
                                         std::size_t{1460},
                                         std::size_t{10'000},
                                         std::size_t{40'000}),
                       ::testing::Values(536u, 1460u, 8960u)));

// ---------------------------------------------------------------------
// Copy modes: rate ordering holds for every channel preset
// ---------------------------------------------------------------------

class CopyModeSweep
    : public ::testing::TestWithParam<int>
{};

TEST_P(CopyModeSweep, UncachedSlowerThanWcSlowerThanDma)
{
    auto t = DramPresetSweep::preset(GetParam());
    CopyParams p;
    double peak = t.peakBandwidthBps();
    EXPECT_LT(p.rateFor(CopyMode::UncachedWord, peak),
              p.rateFor(CopyMode::CacheableRead, peak));
    EXPECT_LT(p.rateFor(CopyMode::UncachedWord, peak),
              p.rateFor(CopyMode::WriteCombined, peak));
    EXPECT_LE(p.rateFor(CopyMode::WriteCombined, peak),
              p.rateFor(CopyMode::DmaBurst, peak));
    EXPECT_LE(p.rateFor(CopyMode::DmaBurst, peak), peak);
}

INSTANTIATE_TEST_SUITE_P(Parts, CopyModeSweep,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------
// MCN config levels: every level still moves TCP data correctly
// (bytes identical; covered for speed at 64 KB per level)
// ---------------------------------------------------------------------

class McnLevelSweep : public ::testing::TestWithParam<int>
{};

TEST_P(McnLevelSweep, PingAndDataIntegrity)
{
    int level = GetParam();
    Simulation s;
    core::McnSystemParams p;
    p.numDimms = 1;
    p.config = core::McnConfig::level(level);
    core::McnSystem sys(s, p);

    std::vector<std::uint8_t> rx;
    constexpr std::size_t bytes = 64 * 1024;
    bool up = false;
    auto server = [&]() -> Task<void> {
        auto lst =
            net::tcpListen(sys.dimm(0).stack(), 9200);
        up = true;
        auto conn = co_await lst->accept();
        while (rx.size() < bytes) {
            auto chunk = co_await conn->recv(65536);
            if (chunk.empty())
                break;
            rx.insert(rx.end(), chunk.begin(), chunk.end());
        }
    };
    auto client = [&]() -> Task<void> {
        while (!up)
            co_await delayFor(s.eventQueue(), oneUs);
        net::SockAddr dst{sys.dimmAddr(0), 9200};
        auto sock =
            co_await net::tcpConnect(sys.hostStack(), dst);
        if (!sock)
            co_return;
        std::vector<std::uint8_t> data(bytes);
        for (std::size_t i = 0; i < bytes; ++i)
            data[i] = static_cast<std::uint8_t>((i * 131) & 0xff);
        co_await sock->send(std::move(data));
    };
    spawnDetached(s.eventQueue(), server());
    spawnDetached(s.eventQueue(), client());

    Tick deadline = s.curTick() + secondsToTicks(2.0);
    while (rx.size() < bytes && s.curTick() < deadline)
        s.run(std::min(s.curTick() + 200 * oneUs, deadline));

    ASSERT_EQ(rx.size(), bytes) << "mcn" << level;
    for (std::size_t i = 0; i < bytes; ++i)
        ASSERT_EQ(rx[i],
                  static_cast<std::uint8_t>((i * 131) & 0xff))
            << "offset " << i << " at mcn" << level;
}

INSTANTIATE_TEST_SUITE_P(Levels, McnLevelSweep,
                         ::testing::Range(0, 6));
