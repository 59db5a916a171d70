/**
 * @file
 * FlowTelemetry implementation.
 */

#include "sim/flow_stats.hh"

#include <algorithm>
#include <string_view>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace mcnsim::sim {

FlowTelemetry &
FlowTelemetry::instance()
{
    // analyze-ok: shard-static (per-shard single-writer tables inside;
    // the enable gate flips only outside run windows)
    static FlowTelemetry t;
    return t;
}

void
FlowTelemetry::enable()
{
    for (auto &sh : shards_) {
        sh.flows.clear();
        sh.hops.clear();
        sh.pathLen.fill(0);
    }
    detail::flowTelemetryActive = true;
}

void
FlowTelemetry::disable()
{
    detail::flowTelemetryActive = false;
}

FlowTelemetry::Shard &
FlowTelemetry::shard(std::size_t idx)
{
    MCNSIM_ASSERT(idx < kMaxShards, "shard id out of range");
    return shards_[idx];
}

void
FlowTelemetry::FlowRecord::merge(const FlowRecord &o)
{
    txBytes += o.txBytes;
    txPackets += o.txPackets;
    rxBytes += o.rxBytes;
    rxPackets += o.rxPackets;
    retransmits += o.retransmits;
    rttSamples += o.rttSamples;
    rttSumTicks += o.rttSumTicks;
    rttMinTicks = std::min(rttMinTicks, o.rttMinTicks);
    rttMaxTicks = std::max(rttMaxTicks, o.rttMaxTicks);
    firstTick = std::min(firstTick, o.firstTick);
    lastTick = std::max(lastTick, o.lastTick);
    latency.merge(o.latency);
}

void
FlowTelemetry::recordTx(std::size_t shard_id, const FlowKey &key,
                        std::uint64_t bytes, Tick now)
{
    FlowRecord &r = shard(shard_id).flows[key];
    r.txBytes += bytes;
    r.txPackets += 1;
    r.firstTick = std::min(r.firstTick, now);
    r.lastTick = std::max(r.lastTick, now);
}

void
FlowTelemetry::recordRx(std::size_t shard_id, const FlowKey &key,
                        std::uint64_t bytes, Tick now, Tick latency)
{
    FlowRecord &r = shard(shard_id).flows[key];
    r.rxBytes += bytes;
    r.rxPackets += 1;
    r.firstTick = std::min(r.firstTick, now);
    r.lastTick = std::max(r.lastTick, now);
    if (latency != maxTick)
        r.latency.sample(latency);
}

void
FlowTelemetry::recordRetransmit(std::size_t shard_id,
                                const FlowKey &key)
{
    shard(shard_id).flows[key].retransmits += 1;
}

void
FlowTelemetry::recordRtt(std::size_t shard_id, const FlowKey &key,
                         Tick rtt)
{
    FlowRecord &r = shard(shard_id).flows[key];
    r.rttSamples += 1;
    r.rttSumTicks += rtt;
    r.rttMinTicks = std::min(r.rttMinTicks, rtt);
    r.rttMaxTicks = std::max(r.rttMaxTicks, rtt);
}

void
FlowTelemetry::recordHop(std::size_t shard_id, const char *hop,
                         Tick delta)
{
    auto &hops = shard(shard_id).hops;
    auto it = hops.find(std::string_view{hop});
    if (it == hops.end()) [[unlikely]]
        it = hops.emplace(hop, HopRecord{}).first;
    it->second.latency.sample(delta);
}

void
FlowTelemetry::recordPathLen(std::size_t shard_id,
                             std::size_t hops)
{
    shard(shard_id)
        .pathLen[std::min(hops, kMaxPathLen - 1)] += 1;
}

std::map<FlowTelemetry::FlowKey, FlowTelemetry::FlowRecord>
FlowTelemetry::foldFlows() const
{
    std::map<FlowKey, FlowRecord> out;
    for (const auto &sh : shards_)
        for (const auto &[key, rec] : sh.flows)
            out[key].merge(rec);
    return out;
}

std::map<std::string, FlowTelemetry::HopRecord>
FlowTelemetry::foldHops() const
{
    std::map<std::string, HopRecord> out;
    for (const auto &sh : shards_)
        for (const auto &[name, rec] : sh.hops)
            out[name].merge(rec);
    return out;
}

std::array<std::uint64_t, FlowTelemetry::kMaxPathLen>
FlowTelemetry::foldPathLens() const
{
    std::array<std::uint64_t, kMaxPathLen> out{};
    for (const auto &sh : shards_)
        for (std::size_t i = 0; i < kMaxPathLen; ++i)
            out[i] += sh.pathLen[i];
    return out;
}

bool
FlowTelemetry::hasData() const
{
    for (const auto &sh : shards_)
        if (!sh.flows.empty() || !sh.hops.empty())
            return true;
    return false;
}

std::string
FlowTelemetry::ipToString(std::uint32_t ip)
{
    return std::to_string((ip >> 24) & 0xff) + "." +
           std::to_string((ip >> 16) & 0xff) + "." +
           std::to_string((ip >> 8) & 0xff) + "." +
           std::to_string(ip & 0xff);
}

std::string
FlowTelemetry::protoName(std::uint8_t proto)
{
    switch (proto) {
      case 1: return "icmp";
      case 6: return "tcp";
      case 17: return "udp";
      default: return std::to_string(proto);
    }
}

void
FlowTelemetry::writeJsonBlocks(json::Writer &w) const
{
    w.key("flows");
    w.beginArray();
    for (const auto &[key, r] : foldFlows()) {
        w.beginObject();
        w.kv("src_ip", ipToString(key.srcIp));
        w.kv("dst_ip", ipToString(key.dstIp));
        w.kv("src_port", std::uint64_t{key.srcPort});
        w.kv("dst_port", std::uint64_t{key.dstPort});
        w.kv("proto", protoName(key.proto));
        w.kv("tx_bytes", r.txBytes);
        w.kv("tx_packets", r.txPackets);
        w.kv("rx_bytes", r.rxBytes);
        w.kv("rx_packets", r.rxPackets);
        w.kv("retransmits", r.retransmits);
        w.kv("first_tick", r.firstTick == maxTick ? 0 : r.firstTick);
        w.kv("last_tick", r.lastTick);
        w.key("rtt");
        w.beginObject();
        w.kv("samples", r.rttSamples);
        w.kv("sum_ticks", r.rttSumTicks);
        w.kv("min_ticks",
             r.rttSamples ? r.rttMinTicks : std::uint64_t{0});
        w.kv("max_ticks", r.rttMaxTicks);
        w.endObject();
        w.key("latency");
        w.beginObject();
        r.latency.writeJsonBody(w);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("path_latency");
    w.beginArray();
    for (const auto &[name, r] : foldHops()) {
        w.beginObject();
        w.kv("hop", name);
        w.key("latency");
        w.beginObject();
        r.latency.writeJsonBody(w);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("path_hops");
    w.beginArray();
    const auto lens = foldPathLens();
    for (std::size_t n = 0; n < kMaxPathLen; ++n) {
        if (!lens[n])
            continue;
        w.beginObject();
        w.kv("hops", std::uint64_t{n});
        w.kv("packets", lens[n]);
        w.endObject();
    }
    w.endArray();
}

void
FlowTelemetry::exportJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta)
    const
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema_version", std::uint64_t{1});
    w.kv("kind", "mcnsim-flow-stats");
    w.key("meta");
    w.beginObject();
    for (const auto &[k, v] : meta)
        w.kv(k, v);
    w.endObject();
    w.kv("ticks_per_us", oneUs);
    writeJsonBlocks(w);
    w.endObject();
    os << "\n";
}

} // namespace mcnsim::sim
