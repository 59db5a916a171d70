/**
 * @file
 * Unit tests for the flow telemetry subsystem: the FlowTelemetry
 * tables and shard fold, PathTrace recording/truncation and its
 * per-packet lifecycle, the hop-attribution fold, and the exported
 * artifact -- plus an end-to-end run asserting the tables populate
 * deterministically on a real system.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "net/packet.hh"
#include "sim/flow_stats.hh"
#include "sim/json.hh"

using namespace mcnsim;
using sim::FlowTelemetry;
using sim::Tick;

namespace {

FlowTelemetry::FlowKey
key(std::uint32_t src, std::uint32_t dst, std::uint16_t sp,
    std::uint16_t dp, std::uint8_t proto = 6)
{
    FlowTelemetry::FlowKey k;
    k.srcIp = src;
    k.dstIp = dst;
    k.srcPort = sp;
    k.dstPort = dp;
    k.proto = proto;
    return k;
}

} // namespace

TEST(FlowTelemetry, GateTogglesAndEnableResetsTables)
{
    auto &tel = FlowTelemetry::instance();
    tel.disable();
    EXPECT_FALSE(FlowTelemetry::active());

    tel.enable();
    EXPECT_TRUE(FlowTelemetry::active());
    tel.recordTx(0, key(1, 2, 10, 20), 100, 5);
    EXPECT_TRUE(tel.hasData());

    // enable() scopes a fresh run: tables reset, gate on.
    tel.enable();
    EXPECT_FALSE(tel.hasData());
    tel.disable();
    EXPECT_FALSE(FlowTelemetry::active());
}

TEST(FlowTelemetry, FoldMergesShardsPerFlow)
{
    auto &tel = FlowTelemetry::instance();
    tel.enable();
    auto k = key(0x0a000001, 0x0a000002, 1000, 2000);

    // The same flow recorded from two shards (tx side on shard 1,
    // delivery on shard 2), plus a second flow on shard 0.
    tel.recordTx(1, k, 1500, 10);
    tel.recordTx(1, k, 1500, 20);
    tel.recordRx(2, k, 1500, 30, 25);
    tel.recordRx(2, k, 1500, 40, 35);
    tel.recordRetransmit(1, k);
    tel.recordRtt(1, k, 50);
    tel.recordRtt(1, k, 70);
    tel.recordTx(0, key(0x0a000002, 0x0a000001, 2000, 1000), 40, 15);

    auto flows = tel.foldFlows();
    ASSERT_EQ(flows.size(), 2u);
    const auto &r = flows.at(k);
    EXPECT_EQ(r.txBytes, 3000u);
    EXPECT_EQ(r.txPackets, 2u);
    EXPECT_EQ(r.rxBytes, 3000u);
    EXPECT_EQ(r.rxPackets, 2u);
    EXPECT_EQ(r.retransmits, 1u);
    EXPECT_EQ(r.rttSamples, 2u);
    EXPECT_EQ(r.rttSumTicks, 120u);
    EXPECT_EQ(r.rttMinTicks, 50u);
    EXPECT_EQ(r.rttMaxTicks, 70u);
    EXPECT_EQ(r.firstTick, 10u);
    EXPECT_EQ(r.lastTick, 40u);
    EXPECT_EQ(r.latency.count(), 2u);
    EXPECT_EQ(r.latency.sum(), 60u);
    tel.disable();
}

TEST(FlowTelemetry, HopsMergeByNameAcrossShards)
{
    auto &tel = FlowTelemetry::instance();
    tel.enable();
    // Distinct pointers with equal content must land in one record:
    // the table compares by string content, not pointer identity.
    std::string a1 = "node0.nic", a2 = "node0.nic";
    tel.recordHop(0, a1.c_str(), 10);
    tel.recordHop(3, a2.c_str(), 30);
    tel.recordHop(0, "tor", 7);

    auto hops = tel.foldHops();
    ASSERT_EQ(hops.size(), 2u);
    EXPECT_EQ(hops.at("node0.nic").latency.count(), 2u);
    EXPECT_EQ(hops.at("node0.nic").latency.sum(), 40u);
    EXPECT_EQ(hops.at("tor").latency.sum(), 7u);
    tel.disable();
}

TEST(PathTrace, RecordsInOrderAndTruncatesAtCapacity)
{
    net::PathTrace p;
    EXPECT_EQ(p.size(), 0u);
    EXPECT_FALSE(p.truncated());
    for (std::size_t i = 0; i < net::PathTrace::kMaxHops; ++i)
        p.record(net::Stage::Phy, "hop", static_cast<Tick>(i * 10));
    EXPECT_EQ(p.size(), net::PathTrace::kMaxHops);
    EXPECT_FALSE(p.truncated());
    EXPECT_EQ(p.at(3).t, 30u);

    // One past capacity: dropped, flagged, size unchanged.
    p.record(net::Stage::Phy, "late", 999);
    EXPECT_EQ(p.size(), net::PathTrace::kMaxHops);
    EXPECT_TRUE(p.truncated());
}

TEST(PathTrace, PacketAllocatesLazilyAndClonesDeeply)
{
    using net::Stage;
    auto pkt = net::Packet::makePattern(64);
    pkt->stamp(Stage::StackTx, "a", 1);
    EXPECT_EQ(pkt->path, nullptr); // no telemetry, no allocation

    auto &tel = FlowTelemetry::instance();
    tel.enable();
    pkt->stamp(Stage::StackTx, "a", 5);
    pkt->stamp(Stage::DriverTx, "b", 9);
    ASSERT_NE(pkt->path, nullptr);
    EXPECT_EQ(pkt->path->size(), 2u);

    auto copy = pkt->clone();
    ASSERT_NE(copy->path, nullptr);
    EXPECT_NE(copy->path.get(), pkt->path.get()); // deep copy
    copy->stamp(Stage::Phy, "c", 12);
    EXPECT_EQ(copy->path->size(), 3u);
    EXPECT_EQ(pkt->path->size(), 2u); // original untouched
    tel.disable();
}

TEST(PathTrace, FoldAttributesDeltasToTheLaterHop)
{
    auto &tel = FlowTelemetry::instance();
    tel.enable();

    auto pkt = net::Packet::makePattern(64);
    pkt->stamp(net::Stage::StackTx, "a", 10);
    pkt->stamp(net::Stage::DriverTx, "b", 25);
    pkt->stamp(net::Stage::Phy, "c", 40);
    net::foldPathLatency(*pkt, 0, "sink", 60);

    auto hops = tel.foldHops();
    // "a" is the first stamp: no predecessor, nothing attributed.
    EXPECT_EQ(hops.count("a"), 0u);
    EXPECT_EQ(hops.at("b").latency.sum(), 15u); // 25 - 10
    EXPECT_EQ(hops.at("c").latency.sum(), 15u); // 40 - 25
    EXPECT_EQ(hops.at("sink").latency.sum(), 20u); // 60 - 40

    // A packet without a trace is a no-op.
    auto bare = net::Packet::makePattern(8);
    net::foldPathLatency(*bare, 0, "sink", 100);
    EXPECT_EQ(tel.foldHops().at("sink").latency.count(), 1u);
    tel.disable();
}

TEST(FlowTelemetry, ExportJsonCarriesFlowsAndHops)
{
    auto &tel = FlowTelemetry::instance();
    tel.enable();
    auto k = key(0x01020304, 0x05060708, 42, 4242, 17);
    tel.recordTx(0, k, 512, 100);
    tel.recordRx(0, k, 512, 200, 100);
    tel.recordHop(0, "node0.nic", 33);

    std::ostringstream os;
    tel.exportJson(os, {{"command", "unit-test"}});
    auto doc = sim::json::parse(os.str());

    EXPECT_EQ(doc["schema_version"].asNumber(), 1.0);
    EXPECT_EQ(doc["kind"].asString(), "mcnsim-flow-stats");
    EXPECT_EQ(doc["meta"]["command"].asString(), "unit-test");
    ASSERT_EQ(doc["flows"].size(), 1u);
    const auto &f = doc["flows"][std::size_t{0}];
    EXPECT_EQ(f["src_ip"].asString(), "1.2.3.4");
    EXPECT_EQ(f["dst_ip"].asString(), "5.6.7.8");
    EXPECT_EQ(f["proto"].asString(), "udp");
    EXPECT_EQ(f["tx_bytes"].asNumber(), 512.0);
    EXPECT_EQ(f["rx_bytes"].asNumber(), 512.0);
    EXPECT_EQ(f["latency"]["count"].asNumber(), 1.0);
    ASSERT_EQ(doc["path_latency"].size(), 1u);
    EXPECT_EQ(doc["path_latency"][std::size_t{0}]["hop"].asString(),
              "node0.nic");
    tel.disable();
}

TEST(FlowTelemetry, EndToEndIperfPopulatesTablesDeterministically)
{
    auto run = [] {
        FlowTelemetry::instance().enable();
        sim::Simulation s(7);
        core::ClusterSystemParams p;
        p.numNodes = 3;
        core::ClusterSystem sys(s, p);
        runIperf(s, sys, 0, {1, 2}, sim::oneMs);
        FlowTelemetry::instance().disable();
        std::ostringstream os;
        FlowTelemetry::instance().exportJson(
            os, {{"command", "test"}});
        return os.str();
    };

    std::string first = run();
    auto doc = sim::json::parse(first);
    // Two client->server data flows plus the reverse ack flows.
    EXPECT_GE(doc["flows"].size(), 2u);
    bool delivered = false;
    for (std::size_t i = 0; i < doc["flows"].size(); ++i)
        if (doc["flows"][i]["rx_packets"].asNumber() > 0)
            delivered = true;
    EXPECT_TRUE(delivered);
    EXPECT_GE(doc["path_latency"].size(), 2u);
    for (std::size_t i = 0; i < doc["path_latency"].size(); ++i)
        EXPECT_GT(
            doc["path_latency"][i]["latency"]["count"].asNumber(),
            0.0);

    // The artifact is a modeled result: byte-identical on rerun.
    EXPECT_EQ(first, run());
}
