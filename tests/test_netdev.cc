/**
 * @file
 * Tests for the baseline network devices: links, the learning
 * switch, the NIC (rings, NAPI, interrupts) and hardware TSO
 * segmentation (the paper's O1-O4 steps on real bytes).
 */

#include <gtest/gtest.h>

#include "net/checksum.hh"
#include "net/tcp.hh"
#include "netdev/ethernet_link.hh"
#include "netdev/ethernet_switch.hh"
#include "netdev/mac_fib.hh"
#include "netdev/nic.hh"
#include "os/kernel.hh"
#include "sim/fault.hh"
#include "sim/flow_stats.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::net;
using namespace mcnsim::netdev;
using namespace mcnsim::sim;

namespace {

/** A link endpoint that records arrivals. */
class SinkEndpoint : public EtherEndpoint
{
  public:
    std::vector<PacketPtr> got;
    std::vector<Tick> when;
    Simulation *sim = nullptr;

    void
    receiveFrame(PacketPtr pkt) override
    {
        got.push_back(std::move(pkt));
        if (sim)
            when.push_back(sim->curTick());
    }
};

PacketPtr
framedPacket(std::size_t payload, MacAddr dst, MacAddr src)
{
    auto pkt = Packet::makePattern(payload);
    EthernetHeader eth;
    eth.dst = dst;
    eth.src = src;
    eth.push(*pkt);
    return pkt;
}

/** Build a TSO super-frame with full Ethernet+IP+TCP headers. */
PacketPtr
tsoFrame(std::size_t payload, std::uint32_t mss, bool checksummed)
{
    auto pkt = Packet::makePattern(payload);
    pkt->tsoMss = mss;
    TcpHeader th;
    th.srcPort = 10;
    th.dstPort = 20;
    th.seq = 1000;
    th.ack = 77;
    th.flags = tcpAck | tcpPsh;
    th.window = 500;
    th.push(*pkt, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
            checksummed);
    Ipv4Header ih;
    ih.src = Ipv4Addr(1, 1, 1, 1);
    ih.dst = Ipv4Addr(2, 2, 2, 2);
    ih.protocol = protoTcp;
    ih.id = 5;
    ih.totalLength =
        static_cast<std::uint16_t>(pkt->size() + Ipv4Header::size);
    ih.push(*pkt, checksummed);
    EthernetHeader eh;
    eh.dst = MacAddr::fromId(2);
    eh.src = MacAddr::fromId(1);
    eh.push(*pkt);
    return pkt;
}

} // namespace

TEST(LinkTest, SerializationPlusLatency)
{
    Simulation s;
    EthernetLink link(s, "link", 10e9, oneUs);
    SinkEndpoint a, b;
    b.sim = &s;
    link.attachA(&a);
    link.attachB(&b);

    FlowTelemetry::instance().enable(); // packets carry their path
    auto pkt = Packet::makePattern(1250); // 1 us at 10 Gbps
    link.sendFrom(&a, pkt);
    s.run();
    FlowTelemetry::instance().disable();
    ASSERT_EQ(b.got.size(), 1u);
    // 1 us serialization + 1 us propagation.
    EXPECT_EQ(b.when[0], 2 * oneUs);
    EXPECT_EQ(b.got[0]->lastStamp(Stage::Phy), 2 * oneUs);
}

TEST(LinkTest, FramesSerialiseFifo)
{
    Simulation s;
    EthernetLink link(s, "link", 10e9, 0);
    SinkEndpoint a, b;
    b.sim = &s;
    link.attachA(&a);
    link.attachB(&b);

    link.sendFrom(&a, Packet::makePattern(1250));
    link.sendFrom(&a, Packet::makePattern(1250));
    EXPECT_EQ(link.backlogBytes(&a), 2500u);
    s.run();
    ASSERT_EQ(b.got.size(), 2u);
    EXPECT_EQ(b.when[0], oneUs);
    EXPECT_EQ(b.when[1], 2 * oneUs); // back to back, no overlap
    EXPECT_EQ(link.backlogBytes(&a), 0u);
}

TEST(LinkTest, DirectionsAreIndependent)
{
    Simulation s;
    EthernetLink link(s, "link", 10e9, 0);
    SinkEndpoint a, b;
    a.sim = b.sim = &s;
    link.attachA(&a);
    link.attachB(&b);

    link.sendFrom(&a, Packet::makePattern(1250));
    link.sendFrom(&b, Packet::makePattern(1250));
    s.run();
    // Full duplex: both arrive at 1 us, not serialized together.
    ASSERT_EQ(a.got.size(), 1u);
    ASSERT_EQ(b.got.size(), 1u);
    EXPECT_EQ(a.when[0], oneUs);
    EXPECT_EQ(b.when[0], oneUs);
}

TEST(FibTest, LearnsLooksUpAndUpdates)
{
    MacFib fib(16);
    EXPECT_EQ(fib.lookup(42), MacFib::noPort);
    fib.learn(42, 3);
    fib.learn(77, 5);
    EXPECT_EQ(fib.size(), 2u);
    EXPECT_EQ(fib.lookup(42), 3u);
    EXPECT_EQ(fib.lookup(77), 5u);
    // A host moving ports updates in place, no growth.
    fib.learn(42, 9);
    EXPECT_EQ(fib.size(), 2u);
    EXPECT_EQ(fib.lookup(42), 9u);
    EXPECT_EQ(fib.evictions(), 0u);
}

TEST(FibTest, LastFlowCacheHitsAndStaysCoherent)
{
    MacFib fib(16);
    fib.learn(42, 3);
    EXPECT_EQ(fib.lookup(42), 3u); // miss: fills the cache
    std::uint64_t h0 = fib.cacheHits();
    EXPECT_EQ(fib.lookup(42), 3u); // back-to-back: cache hit
    EXPECT_EQ(fib.cacheHits(), h0 + 1);
    // learn() must keep the cached translation coherent.
    fib.learn(42, 7);
    EXPECT_EQ(fib.lookup(42), 7u);
}

TEST(FibTest, EvictionIsDeterministicAndRelearnable)
{
    // Flood a deliberately tiny table (hint 1 -> 64 slots) with far
    // more MACs than it can hold: learns must stay bounded, evict
    // deterministically, and evicted MACs must be relearnable.
    constexpr std::uint64_t population = 1000;
    auto flood = [] {
        MacFib fib(1);
        for (std::uint64_t k = 1; k <= population; ++k)
            fib.learn(k, static_cast<std::uint32_t>(k & 0xf));
        return fib;
    };
    MacFib fib = flood();
    EXPECT_LE(fib.size(), fib.capacity());
    EXPECT_GT(fib.evictions(), 0u);
    // size + evictions accounts for every learn of a new key.
    EXPECT_EQ(fib.size() + fib.evictions(), population);

    std::vector<std::uint64_t> lost;
    for (std::uint64_t k = 1; k <= population; ++k)
        if (fib.lookup(k) == MacFib::noPort)
            lost.push_back(k);
    EXPECT_EQ(lost.size(), fib.evictions());
    ASSERT_FALSE(lost.empty());

    // Determinism: an identical insertion sequence loses the exact
    // same set of keys.
    MacFib fib2 = flood();
    for (std::uint64_t k : lost)
        EXPECT_EQ(fib2.lookup(k), MacFib::noPort) << k;

    // Relearn: an evicted key becomes resolvable again.
    fib.learn(lost[0], 11);
    EXPECT_EQ(fib.lookup(lost[0]), 11u);
}

TEST(SwitchTest, FibRecordsLearnedStations)
{
    Simulation s;
    EthernetSwitch sw(s, "sw", 3);
    std::vector<std::unique_ptr<EthernetLink>> links;
    std::vector<std::unique_ptr<SinkEndpoint>> hosts;
    for (std::uint32_t i = 0; i < 3; ++i) {
        links.push_back(std::make_unique<EthernetLink>(
            s, "l" + std::to_string(i), 10e9, 0));
        hosts.push_back(std::make_unique<SinkEndpoint>());
        sw.attachLink(i, *links[i]);
        links[i]->attachB(hosts[i].get());
    }
    EXPECT_EQ(sw.fib().size(), 0u);
    for (std::uint32_t i = 0; i < 3; ++i) {
        links[i]->sendFrom(hosts[i].get(),
                           framedPacket(64, MacAddr::broadcast(),
                                        MacAddr::fromId(200 + i)));
        s.run();
    }
    EXPECT_EQ(sw.fib().size(), 3u);
    EXPECT_EQ(sw.fib().evictions(), 0u);
}

TEST(SwitchTest, LearnsAndForwards)
{
    Simulation s;
    EthernetSwitch sw(s, "sw", 3);
    std::vector<std::unique_ptr<EthernetLink>> links;
    std::vector<std::unique_ptr<SinkEndpoint>> hosts;
    for (std::uint32_t i = 0; i < 3; ++i) {
        links.push_back(std::make_unique<EthernetLink>(
            s, "l" + std::to_string(i), 10e9, 0));
        hosts.push_back(std::make_unique<SinkEndpoint>());
        sw.attachLink(i, *links[i]);
        links[i]->attachB(hosts[i].get());
    }

    auto mac = [](int i) { return MacAddr::fromId(100 + i); };

    // Unknown destination floods; the switch learns the source.
    links[0]->sendFrom(hosts[0].get(),
                       framedPacket(100, mac(1), mac(0)));
    s.run();
    EXPECT_EQ(hosts[1]->got.size(), 1u); // flooded
    EXPECT_EQ(hosts[2]->got.size(), 1u); // flooded

    // Now host1 replies: switch knows mac(0) is behind port 0.
    links[1]->sendFrom(hosts[1].get(),
                       framedPacket(100, mac(0), mac(1)));
    s.run();
    EXPECT_EQ(hosts[0]->got.size(), 1u);
    EXPECT_EQ(hosts[2]->got.size(), 1u); // no new frame at host2

    // Third exchange is fully learned: unicast only.
    links[0]->sendFrom(hosts[0].get(),
                       framedPacket(100, mac(1), mac(0)));
    s.run();
    EXPECT_EQ(hosts[1]->got.size(), 2u);
    EXPECT_EQ(hosts[2]->got.size(), 1u);
    EXPECT_GT(sw.forwarded(), 0u);
}

TEST(SwitchTest, BroadcastFloodsAllButSource)
{
    Simulation s;
    EthernetSwitch sw(s, "sw", 4);
    std::vector<std::unique_ptr<EthernetLink>> links;
    std::vector<std::unique_ptr<SinkEndpoint>> hosts;
    for (std::uint32_t i = 0; i < 4; ++i) {
        links.push_back(std::make_unique<EthernetLink>(
            s, "l" + std::to_string(i), 10e9, 0));
        hosts.push_back(std::make_unique<SinkEndpoint>());
        sw.attachLink(i, *links[i]);
        links[i]->attachB(hosts[i].get());
    }
    links[0]->sendFrom(
        hosts[0].get(),
        framedPacket(64, MacAddr::broadcast(), MacAddr::fromId(0)));
    s.run();
    EXPECT_EQ(hosts[0]->got.size(), 0u);
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(hosts[i]->got.size(), 1u) << i;
}

TEST(SwitchTest, EgressQueueTailDrops)
{
    Simulation s;
    // Tiny egress cap: 2 KB.
    EthernetSwitch sw(s, "sw", 2, 600 * oneNs, 2048);
    EthernetLink l0(s, "l0", 10e9, 0), l1(s, "l1", 1e9, 0);
    SinkEndpoint h0, h1;
    sw.attachLink(0, l0);
    sw.attachLink(1, l1);
    l0.attachB(&h0);
    l1.attachB(&h1);

    // Teach the switch where h1 is.
    l1.sendFrom(&h1, framedPacket(64, MacAddr::fromId(0),
                                  MacAddr::fromId(1)));
    s.run();

    // Blast 10 x 1.5KB at a slow egress: most must drop.
    for (int i = 0; i < 10; ++i)
        l0.sendFrom(&h0, framedPacket(1500, MacAddr::fromId(1),
                                      MacAddr::fromId(0)));
    s.run();
    EXPECT_GT(sw.drops(), 0u);
    EXPECT_LT(h1.got.size(), 10u);
}

// ---------------------------------------------------------------------
// TSO segmentation: the paper's O1-O4 on real bytes
// ---------------------------------------------------------------------

TEST(TsoTest, SplitsIntoMssSizedSegments)
{
    auto frame = tsoFrame(10000, 1460, true);
    auto segs = Nic::segmentTso(frame);
    // ceil(10000 / 1460) = 7 segments.
    ASSERT_EQ(segs.size(), 7u);

    std::size_t total = 0;
    std::uint32_t expect_seq = 1000;
    for (std::size_t i = 0; i < segs.size(); ++i) {
        auto seg = segs[i]->clone();
        auto eth = EthernetHeader::pull(*seg);
        EXPECT_EQ(eth.dst, MacAddr::fromId(2));
        auto ip = Ipv4Header::pull(*seg, true);
        ASSERT_TRUE(ip) << "segment " << i
                        << " has a bad IP checksum";
        auto tcp = TcpHeader::pull(*seg, ip->src, ip->dst, true);
        ASSERT_TRUE(tcp) << "segment " << i
                         << " has a bad TCP checksum";
        // O3: sequence numbers advance by the payload size.
        EXPECT_EQ(tcp->seq, expect_seq);
        expect_seq += static_cast<std::uint32_t>(seg->size());
        // Only the last segment keeps PSH.
        if (i + 1 < segs.size())
            EXPECT_FALSE(tcp->flags & tcpPsh);
        else
            EXPECT_TRUE(tcp->flags & tcpPsh);
        EXPECT_LE(seg->size(), 1460u);
        total += seg->size();
    }
    EXPECT_EQ(total, 10000u);
}

TEST(TsoTest, PayloadBytesPreservedInOrder)
{
    auto frame = tsoFrame(5000, 1000, true);
    auto segs = Nic::segmentTso(frame);
    std::vector<std::uint8_t> reassembled;
    for (auto &sp : segs) {
        auto seg = sp->clone();
        EthernetHeader::pull(*seg);
        auto ip = Ipv4Header::pull(*seg, false);
        ASSERT_TRUE(ip);
        TcpHeader::pull(*seg, ip->src, ip->dst, false);
        auto bytes = seg->bytes();
        reassembled.insert(reassembled.end(), bytes.begin(),
                           bytes.end());
    }
    ASSERT_EQ(reassembled.size(), 5000u);
    for (std::size_t i = 0; i < reassembled.size(); ++i)
        ASSERT_EQ(reassembled[i],
                  static_cast<std::uint8_t>(i & 0xff));
}

TEST(TsoTest, BypassedChecksumsStayAbsent)
{
    // mcn2+mcn4: the super-frame carries no checksums; segments
    // must not invent them.
    auto frame = tsoFrame(4000, 1460, false);
    auto segs = Nic::segmentTso(frame);
    for (auto &sp : segs) {
        auto seg = sp->clone();
        EthernetHeader::pull(*seg);
        auto ip = Ipv4Header::pull(*seg, false);
        ASSERT_TRUE(ip);
        auto tcp = TcpHeader::pull(*seg, ip->src, ip->dst, false);
        ASSERT_TRUE(tcp);
        EXPECT_EQ(tcp->checksum, 0);
    }
}

TEST(TsoTest, NonTsoPacketPassesThrough)
{
    auto pkt = Packet::makePattern(500);
    pkt->tsoMss = 0;
    auto segs = Nic::segmentTso(pkt);
    ASSERT_EQ(segs.size(), 1u);
    EXPECT_EQ(segs[0].get(), pkt.get());
}

// ---------------------------------------------------------------------
// NIC datapath
// ---------------------------------------------------------------------

TEST(NicTest, TxTravelsLinkAndRxDeliversWithTrace)
{
    Simulation s;
    os::KernelParams kp;
    os::Kernel ka(s, "a", 0, kp), kb(s, "b", 1, kp);
    Nic nic_a(s, "nicA", MacAddr::fromId(1), ka);
    Nic nic_b(s, "nicB", MacAddr::fromId(2), kb);
    EthernetLink link(s, "link", 10e9, oneUs);
    nic_a.attachLink(link);
    link.attachA(&nic_b); // nic_b on the A side

    PacketPtr got;
    nic_b.setRxHandler([&](os::NetDevice &, PacketPtr p) {
        got = std::move(p);
    });

    auto frame =
        framedPacket(1000, MacAddr::fromId(2), MacAddr::fromId(1));
    FlowTelemetry::instance().enable(); // packets carry their path
    EXPECT_EQ(nic_a.xmit(frame), os::TxResult::Ok);
    s.run();
    FlowTelemetry::instance().disable();

    // One hop per Table III stage, in causal order, each DMA stamp
    // under its own hop name.
    ASSERT_TRUE(got);
    ASSERT_TRUE(got->path);
    const PathTrace &path = *got->path;
    const std::pair<Stage, std::string> expect[] = {
        {Stage::DriverTx, "nicA"},     {Stage::DmaTx, "nicA.dmaTx"},
        {Stage::Phy, "link"},          {Stage::DmaRx, "nicB.dmaRx"},
        {Stage::DriverRx, "nicB"},
    };
    ASSERT_EQ(path.size(), std::size(expect));
    for (std::size_t i = 0; i < path.size(); ++i) {
        EXPECT_EQ(path.at(i).stage, expect[i].first) << i;
        EXPECT_EQ(path.at(i).name, expect[i].second) << i;
        if (i > 0) {
            EXPECT_LT(path.at(i - 1).t, path.at(i).t) << i;
        }
    }
    EXPECT_EQ(nic_b.interrupts(), 1u);
}

TEST(NicTest, TxRingFullReturnsBusy)
{
    Simulation s;
    os::KernelParams kp;
    os::Kernel k(s, "k", 0, kp);
    NicParams np;
    np.txRingEntries = 2;
    Nic nic(s, "nic", MacAddr::fromId(1), k, np);
    // No link attached: descriptors DMA but frames go nowhere;
    // ring slots free after DMA, so fill faster than that.
    auto mk = [] {
        return framedPacket(1500, MacAddr::fromId(2),
                            MacAddr::fromId(1));
    };
    EXPECT_EQ(nic.xmit(mk()), os::TxResult::Ok);
    EXPECT_EQ(nic.xmit(mk()), os::TxResult::Ok);
    EXPECT_EQ(nic.xmit(mk()), os::TxResult::Busy);
}

TEST(NicTest, RxRingOverflowDrops)
{
    Simulation s;
    os::KernelParams kp;
    os::Kernel k(s, "k", 0, kp);
    NicParams np;
    np.rxRingEntries = 4;
    Nic nic(s, "nic", MacAddr::fromId(1), k, np);
    // Swallow deliveries slowly by never running the sim between
    // arrivals.
    for (int i = 0; i < 10; ++i)
        nic.receiveFrame(framedPacket(500, MacAddr::fromId(1),
                                      MacAddr::fromId(9)));
    s.run();
    EXPECT_GT(nic.rxDrops(), 0u);
}

// ---------------------------------------------------------------------
// Fabric liveness (DESIGN.md §12)
// ---------------------------------------------------------------------

namespace {

/** Scope armed fault specs so later tests start disarmed. */
struct FabricPlanGuard
{
    FaultPlan &plan = FaultPlan::instance();

    explicit FabricPlanGuard(const std::vector<std::string> &specs)
    {
        plan.clear();
        plan.setSeed(1);
        for (const auto &t : specs) {
            FaultPlan::Spec sp;
            std::string err;
            if (!FaultPlan::parseSpec(t, &sp, &err))
                ADD_FAILURE() << t << ": " << err;
            else
                plan.arm(sp);
        }
        plan.resetRunState();
    }

    ~FabricPlanGuard() { plan.clear(); }
};

} // namespace

TEST(FabricLiveness, ReconvergenceWindowBoundsDetectionLag)
{
    // Two fabric switches on one trunk. Holding b.port0 admin-down
    // (200..700 us) suppresses b's hellos, so a must declare the
    // trunk dead exactly one dead interval after the last hello it
    // heard -- and readmit it within a hello interval of recovery.
    FabricPlanGuard g({"b.port0.down:at=200us,param=500us"});
    Simulation s;
    EthernetSwitch a(s, "a", 1), b(s, "b", 1);
    FabricParams fp; // hello 50 us, dead 150 us
    a.enableFabric(fp);
    b.enableFabric(fp);
    a.markTrunk(0);
    b.markTrunk(0);
    EthernetLink trunk(s, "trunk", 10e9, oneUs);
    a.attachLink(0, trunk);
    b.attachLink(0, trunk, /*b_side=*/true);

    // Steady state: hellos keep both ends live.
    s.run(200 * oneUs);
    EXPECT_TRUE(a.portLive(0));
    EXPECT_EQ(a.portDownEvents(), 0u);

    // b's last hello lands just before 200 us; a's port must be
    // dead once the 150 us dead interval expires (and not before:
    // at 300 us the port is still within the window).
    s.run(300 * oneUs);
    EXPECT_TRUE(a.portLive(0));
    s.run(450 * oneUs);
    EXPECT_FALSE(a.portLive(0));
    EXPECT_EQ(a.portDownEvents(), 1u);
    EXPECT_EQ(a.portUpEvents(), 0u);

    // The admin-down window closes at 700 us; b's next hello
    // readmits the trunk, with the up edge swept within one hello
    // interval.
    s.run(850 * oneUs);
    EXPECT_TRUE(a.portLive(0));
    EXPECT_EQ(a.portUpEvents(), 1u);
    EXPECT_EQ(a.portDownEvents(), 1u);

    // The reconvergence SLO: the sweep acted on the failure within
    // one hello interval of it becoming observable.
    EXPECT_LE(a.worstDetectLag(), fp.helloInterval);
}

TEST(FabricLiveness, PlainSwitchIgnoresFabricMachinery)
{
    // A switch that never calls enableFabric() must not probe, not
    // time out, and route by MAC learning exactly as before.
    Simulation s;
    EthernetSwitch sw(s, "tor", 2);
    EXPECT_FALSE(sw.fabricEnabled());
    EXPECT_TRUE(sw.liveEcmpPorts(MacAddr::fromId(1)).empty());
    const auto before = s.eventsProcessed();
    s.run(oneMs);
    // No hello pump: an idle plain switch schedules nothing.
    EXPECT_EQ(s.eventsProcessed(), before);
    EXPECT_EQ(sw.portDownEvents(), 0u);
    EXPECT_EQ(sw.portUpEvents(), 0u);
}
