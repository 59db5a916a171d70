/**
 * @file
 * Rack-scale fabric tests (DESIGN.md §12): FabricSystem wiring
 * (addresses, MACs, uplink port layout for both topologies), the
 * deterministic ECMP flow hash and its live-member filtering, the
 * partition fail-fast path from a dead uplink group down to the
 * endpoint sockets, and crash recovery readmitting trunk ports
 * within the reconvergence SLO.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "net/icmp.hh"
#include "net/tcp.hh"
#include "netdev/ethernet_switch.hh"
#include "sim/fault.hh"
#include "sim/flow_stats.hh"
#include "sim/simulation.hh"

using namespace mcnsim;
using namespace mcnsim::core;
using namespace mcnsim::net;
using namespace mcnsim::sim;

namespace {

/** Scope armed fault specs so later tests start disarmed. */
struct PlanGuard
{
    FaultPlan &plan = FaultPlan::instance();

    PlanGuard() { plan.clear(); }
    ~PlanGuard() { plan.clear(); }

    void
    armAll(std::uint64_t seed,
           const std::vector<std::string> &specs)
    {
        plan.setSeed(seed);
        for (const auto &t : specs) {
            FaultPlan::Spec sp;
            std::string err;
            ASSERT_TRUE(FaultPlan::parseSpec(t, &sp, &err))
                << t << ": " << err;
            plan.arm(sp);
        }
        plan.resetRunState();
    }
};

/** An IPv4/TCP frame with the 5-tuple the ECMP hash reads. */
PacketPtr
tupleFrame(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sp,
           std::uint16_t dp)
{
    auto pkt = Packet::makePattern(100);
    TcpHeader th;
    th.srcPort = sp;
    th.dstPort = dp;
    th.flags = tcpAck;
    th.window = 500;
    th.push(*pkt, src, dst, false);
    Ipv4Header ih;
    ih.src = src;
    ih.dst = dst;
    ih.protocol = protoTcp;
    ih.totalLength =
        static_cast<std::uint16_t>(pkt->size() + Ipv4Header::size);
    ih.push(*pkt, false);
    EthernetHeader eh;
    eh.dst = MacAddr::fromId(2);
    eh.src = MacAddr::fromId(1);
    eh.push(*pkt);
    return pkt;
}

/** Sum of partition-notice-driven connection aborts over all
 *  endpoint stacks. */
std::uint64_t
totalPartitionAborts(FabricSystem &sys)
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < sys.nodeCount(); ++i)
        n += sys.node(i).stack->tcp().partitionAborts();
    return n;
}

} // namespace

// ---------------------------------------------------------------------
// Wiring
// ---------------------------------------------------------------------

TEST(FabricWiring, LeafSpineAddressesMacsAndUplinks)
{
    Simulation s;
    FabricSystemParams p; // 2 racks x 2 nodes x 2 spines
    FabricSystem sys(s, p);

    EXPECT_EQ(sys.nodeCount(), 4u);
    EXPECT_EQ(sys.leafCount(), 2u);
    EXPECT_EQ(sys.spineCount(), 2u);
    EXPECT_EQ(sys.uplinksPerSpine(), 1u);
    EXPECT_EQ(sys.uplinkPortBase(), 2u);
    EXPECT_EQ(sys.uplinkPortCount(), 2u);
    EXPECT_EQ(sys.diameterHops(), 12u);

    // Node i = rack (i / nodesPerRack), member (i % nodesPerRack):
    // addresses encode (rack, member), MACs are unique.
    EXPECT_EQ(sys.addrOf(0).str(), "10.32.0.1");
    EXPECT_EQ(sys.addrOf(1).str(), "10.32.0.2");
    EXPECT_EQ(sys.addrOf(2).str(), "10.32.1.1");
    EXPECT_EQ(sys.addrOf(3).str(), "10.32.1.2");
    for (std::size_t i = 0; i < sys.nodeCount(); ++i)
        for (std::size_t j = i + 1; j < sys.nodeCount(); ++j)
            EXPECT_FALSE(sys.macOf(i) == sys.macOf(j))
                << "duplicate MAC between nodes " << i << "/" << j;

    // Every switch runs the fabric control plane; leaves have
    // access + uplink ports, spines one port per (rack, uplink).
    for (std::size_t r = 0; r < sys.leafCount(); ++r) {
        EXPECT_TRUE(sys.leaf(r).fabricEnabled());
        EXPECT_EQ(sys.leaf(r).portCount(), 4u);
    }
    for (std::size_t j = 0; j < sys.spineCount(); ++j) {
        EXPECT_TRUE(sys.spine(j).fabricEnabled());
        EXPECT_EQ(sys.spine(j).portCount(), 2u);
    }
}

TEST(FabricWiring, FatTreeSpreadsUplinksOverSpines)
{
    Simulation s;
    FabricSystemParams p;
    p.topology = FabricTopology::FatTree;
    p.nodesPerRack = 4;
    FabricSystem sys(s, p);

    // ceil(4 / 2) = 2 parallel uplinks per (leaf, spine): full
    // bisection -- as many uplink ports as access ports.
    EXPECT_EQ(sys.uplinksPerSpine(), 2u);
    EXPECT_EQ(sys.uplinkPortBase(), 4u);
    EXPECT_EQ(sys.uplinkPortCount(), 4u);
    EXPECT_EQ(sys.leaf(0).portCount(), 8u);
    EXPECT_EQ(sys.spine(0).portCount(), 4u);
}

// ---------------------------------------------------------------------
// ECMP
// ---------------------------------------------------------------------

TEST(FabricEcmp, FlowHashIsDeterministicAndTupleSensitive)
{
    const Ipv4Addr a(10, 32, 0, 1), b(10, 32, 1, 1);

    // Same 5-tuple, same bytes -> same hash, every time.
    auto p1 = tupleFrame(a, b, 40000, 5201);
    auto p2 = tupleFrame(a, b, 40000, 5201);
    const std::uint32_t h =
        netdev::EthernetSwitch::flowHash(*p1);
    EXPECT_EQ(h, netdev::EthernetSwitch::flowHash(*p2));

    // Varying one tuple field moves flows across ECMP members:
    // 64 source ports must not all collapse onto one hash.
    std::set<std::uint32_t> hashes;
    for (std::uint16_t sp = 40000; sp < 40064; ++sp)
        hashes.insert(netdev::EthernetSwitch::flowHash(
            *tupleFrame(a, b, sp, 5201)));
    EXPECT_GT(hashes.size(), 8u)
        << "flow hash barely spreads across source ports";
}

TEST(FabricEcmp, LiveMembersFollowPortLiveness)
{
    PlanGuard g;
    Simulation s;
    FabricSystemParams p;
    FabricSystem sys(s, p);

    // Cross-rack routes on a leaf use the full uplink group while
    // everything is live.
    const MacAddr remote = sys.macOf(2); // rack1 from rack0's leaf
    auto live = sys.leaf(0).liveEcmpPorts(remote);
    EXPECT_EQ(live, (std::vector<std::uint32_t>{2, 3}));

    // Holding uplink port 2 down shrinks the group to the
    // survivor the instant the admin-down window opens.
    g.armAll(7, {"rack0.leaf.port2.down:at=100us,param=1ms"});
    s.run(200 * oneUs);
    EXPECT_FALSE(sys.leaf(0).portLive(2));
    EXPECT_TRUE(sys.leaf(0).portLive(3));
    EXPECT_EQ(sys.leaf(0).liveEcmpPorts(remote),
              (std::vector<std::uint32_t>{3}));

    // Access ports are not trunks: they stay live without hellos.
    EXPECT_TRUE(sys.leaf(0).portLive(0));
}

// ---------------------------------------------------------------------
// Traffic + partition fail-fast
// ---------------------------------------------------------------------

TEST(FabricTraffic, CrossRackIperfDeliversWithinDiameter)
{
    Simulation s;
    FabricSystemParams p;
    FabricSystem sys(s, p);
    auto &tel = FlowTelemetry::instance();
    tel.enable();

    auto rep = runIperf(s, sys, 0, {1, 2, 3}, 500 * oneUs);
    tel.disable();

    EXPECT_GT(rep.gbps, 1.0) << "fabric goodput collapsed";
    EXPECT_EQ(rep.connections, 3);

    // Path-hop telemetry: no delivered packet may carry more
    // stamps than the topology diameter -- a longer path is a
    // forwarding loop.
    const auto lens = tel.foldPathLens();
    std::uint64_t delivered = 0;
    for (std::size_t n = 0; n < FlowTelemetry::kMaxPathLen; ++n) {
        if (n > sys.diameterHops()) {
            EXPECT_EQ(lens[n], 0u)
                << lens[n] << " packet(s) took " << n
                << " hops, over the diameter";
        }
        delivered += lens[n];
    }
    EXPECT_GT(delivered, 0u) << "no path-hop samples recorded";
    // Cross-rack clients reach the diameter exactly, so a stale
    // diameter cannot hide behind a loose bound.
    EXPECT_GT(lens[sys.diameterHops()], 0u);
}

TEST(FabricPartition, DeadUplinkGroupFailsSocketsFast)
{
    PlanGuard g;
    Simulation s;
    FabricSystemParams p;
    FabricSystem sys(s, p);

    // Both of rack0's uplinks go admin-down at 1 ms for 1 ms: rack0
    // is partitioned from rack1. The leaf's unreachable notifier
    // must abort the established cross-rack connections on both
    // sides instead of leaving them to retransmit into the void.
    g.armAll(7, {"rack0.leaf.port2.down:at=1ms,param=1ms",
                 "rack0.leaf.port3.down:at=1ms,param=1ms"});

    auto rep = runIperf(s, sys, 0, {1, 2, 3}, 4 * oneMs);
    EXPECT_GT(rep.gbps, 0.0);
    EXPECT_GE(totalPartitionAborts(sys), 2u)
        << "partition notices did not abort the cut connections";

    std::uint64_t notices = 0;
    for (std::size_t i = 0; i < sys.nodeCount(); ++i)
        notices += sys.node(i).stack->icmp().partitionNotices();
    EXPECT_GE(notices, 2u);

    // The intra-rack flow (node 1 -> node 0) never crossed the cut
    // and must be untouched.
    EXPECT_EQ(sys.node(1).stack->tcp().partitionAborts(), 0u);

    // After the window closes the fabric heals: a fresh cross-rack
    // ping sails through.
    auto pts = runPingSweep(s, sys, 2, 0, {56}, 3);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pts[0].lost, 0);
}

// ---------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------

TEST(FabricRecovery, SpineCrashDetectedAndReadmittedWithinSlo)
{
    PlanGuard g;
    Simulation s;
    FabricSystemParams p;
    FabricSystem sys(s, p);

    // spine0 crashes at 1 ms for 1 ms (state loss: its hello
    // history clears). Each leaf must see its uplink to spine0 die
    // within a dead interval and readmit it after recovery; spine1
    // keeps the ECMP groups non-empty throughout, so nothing
    // aborts.
    g.armAll(7, {"spine0.crash:at=1ms,param=1ms"});

    auto rep = runIperf(s, sys, 0, {1, 2, 3}, 4 * oneMs);
    EXPECT_GT(rep.gbps, 1.0);
    EXPECT_EQ(totalPartitionAborts(sys), 0u)
        << "a single spine loss must degrade, not partition";

    for (std::size_t r = 0; r < sys.leafCount(); ++r) {
        auto &leaf = sys.leaf(r);
        EXPECT_GE(leaf.portDownEvents(), 1u)
            << "leaf " << r << " never noticed the dead spine";
        EXPECT_EQ(leaf.portUpEvents(), leaf.portDownEvents())
            << "leaf " << r << " did not readmit the revived spine";
        EXPECT_LE(leaf.worstDetectLag(),
                  p.fabric.helloInterval)
            << "leaf " << r << " blew the reconvergence SLO";
        // All uplinks are live again at the end.
        for (std::size_t u = 0; u < sys.uplinkPortCount(); ++u)
            EXPECT_TRUE(leaf.portLive(static_cast<std::uint32_t>(
                sys.uplinkPortBase() + u)));
    }
}
