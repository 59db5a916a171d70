/**
 * @file
 * Network-wide flow telemetry: per-flow accounting tables plus
 * per-hop path-latency histograms, the "which flow, which hop,
 * which queue?" layer the whole-run stats cannot answer.
 *
 * Three record families feed one process-wide FlowTelemetry
 * registry:
 *
 *  - *flows*: the transport layers (TCP/ICMP) record tx/rx
 *    bytes and packets, retransmits, RTT samples and end-to-end
 *    delivery latency per 5-tuple (src ip/port, dst ip/port,
 *    proto). A flow is unidirectional, like an IPFIX/NetFlow
 *    record: one TCP connection shows up as two flows.
 *
 *  - *path hops*: delivery sites fold a packet's PathTrace
 *    (net/packet.hh) into per-hop latency histograms -- the delta
 *    between consecutive hop stamps is attributed to the later
 *    hop, INT-style, so "where does the time go between these two
 *    stacks" is answerable per component, not just end to end.
 *
 *  - *queues* live elsewhere: QueueStat (sim/stats.hh) instances
 *    registered in the owners' stat groups, updated behind the
 *    same FlowTelemetry::active() gate.
 *
 * Cost model follows the Timeline/FaultPlan pattern exactly: every
 * record site is gated on FlowTelemetry::active(), an inline
 * one-load-one-branch check against detail::flowTelemetryActive.
 * Telemetry only *observes* ticks that already exist -- it
 * schedules no events and draws no RNG -- so modeled metrics are
 * bit-identical with the gate on or off.
 *
 * Threading / parallel engine (DESIGN.md §9): tables are
 * per-shard. A record site passes its owner's shardId(), making
 * each table single-writer (that shard's worker thread); the fold
 * step merges shards in index order with commutative integer
 * arithmetic and emits map-sorted JSON, so the artifact is
 * byte-identical for every --threads=N (shard structure is a
 * function of topology, not worker count).
 */

#ifndef MCNSIM_SIM_FLOW_STATS_HH
#define MCNSIM_SIM_FLOW_STATS_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

namespace detail {
/** Mirror of "flow telemetry enabled", inline so record-site gates
 *  compile to one load + branch. Maintained by FlowTelemetry::
 *  enable()/disable(). */
// analyze-ok: shard-static (config gate: toggled by enable()/disable()
// outside run windows only; read-only during a window, and the tables
// it gates are per-shard single-writer)
inline bool flowTelemetryActive = false;
} // namespace detail

/** Process-wide flow/path telemetry registry (see file comment). */
class FlowTelemetry
{
  public:
    /** Upper bound on shard ids; topology shard counts are node
     *  counts, far below this. Fixed storage keeps record sites
     *  allocation- and race-free. */
    static constexpr std::size_t kMaxShards = 64;

    /** Unidirectional 5-tuple flow identity. */
    struct FlowKey
    {
        std::uint32_t srcIp = 0;
        std::uint32_t dstIp = 0;
        std::uint16_t srcPort = 0;
        std::uint16_t dstPort = 0;
        std::uint8_t proto = 0; ///< IP proto (1 icmp, 6 tcp, 17 udp)

        bool
        operator<(const FlowKey &o) const
        {
            return std::tie(srcIp, dstIp, srcPort, dstPort, proto) <
                   std::tie(o.srcIp, o.dstIp, o.srcPort, o.dstPort,
                            o.proto);
        }
    };

    /** Per-flow accumulators. All integer, so shard merges are
     *  order-independent. */
    struct FlowRecord
    {
        std::uint64_t txBytes = 0;
        std::uint64_t txPackets = 0;
        std::uint64_t rxBytes = 0;
        std::uint64_t rxPackets = 0;
        std::uint64_t retransmits = 0;
        std::uint64_t rttSamples = 0;
        std::uint64_t rttSumTicks = 0;
        std::uint64_t rttMinTicks = ~std::uint64_t{0};
        std::uint64_t rttMaxTicks = 0;
        Tick firstTick = maxTick; ///< first record touching the flow
        Tick lastTick = 0;        ///< last record touching the flow
        /** End-to-end delivery latency (StackTx -> Delivered). */
        LogBuckets latency;

        void merge(const FlowRecord &o);
    };

    /** Per-hop path latency (time attributed to reaching a hop). */
    struct HopRecord
    {
        LogBuckets latency;

        void merge(const HopRecord &o) { latency.merge(o.latency); }
    };

    /** Upper bound on counted path lengths (PathTrace stamps per
     *  packet); longer paths clamp into the last bin. */
    static constexpr std::size_t kMaxPathLen = 32;

    static FlowTelemetry &instance();

    /** One-branch gate for record sites (process-wide). */
    static bool active() { return detail::flowTelemetryActive; }

    /** Reset all tables and activate the gate. */
    void enable();

    /** Deactivate the gate. Tables survive for export. */
    void disable();

    // --- Record API ---------------------------------------------------
    // Callers gate on active() first and pass their owning
    // SimObject's shardId(): each shard table is single-writer.

    void recordTx(std::size_t shard, const FlowKey &key,
                  std::uint64_t bytes, Tick now);

    /** @p latency is the StackTx->Delivered span in ticks, or
     *  maxTick when the packet carries no usable trace. */
    void recordRx(std::size_t shard, const FlowKey &key,
                  std::uint64_t bytes, Tick now, Tick latency);

    void recordRetransmit(std::size_t shard, const FlowKey &key);

    void recordRtt(std::size_t shard, const FlowKey &key, Tick rtt);

    /** Attribute @p delta ticks to hop @p hop (a component name;
     *  copied into the table on first sight, so the caller's string
     *  only needs to live for this call -- benches fold after their
     *  Simulation, and every SimObject name in it, is gone). */
    void recordHop(std::size_t shard, const char *hop, Tick delta);

    /** Count one delivered packet whose PathTrace carried @p hops
     *  stamps (a path-length histogram: multi-switch fabrics show
     *  their diameter here, and a packet seen with more stamps than
     *  the topology diameter means a forwarding loop). */
    void recordPathLen(std::size_t shard, std::size_t hops);

    // --- Fold / export ------------------------------------------------

    /** Merge every shard table (deterministic order). */
    std::map<FlowKey, FlowRecord> foldFlows() const;
    std::map<std::string, HopRecord> foldHops() const;
    std::array<std::uint64_t, kMaxPathLen> foldPathLens() const;

    /** True when any shard recorded anything. */
    bool hasData() const;

    /** Write the "flows" and "path_latency" members into an open
     *  JSON object (the schema-v3 stats blocks). */
    void writeJsonBlocks(json::Writer &w) const;

    /** Standalone mcnsim-flow-stats artifact. */
    void exportJson(
        std::ostream &os,
        const std::vector<std::pair<std::string, std::string>> &meta)
        const;

    /** Dotted-quad rendering of a FlowKey IP. */
    static std::string ipToString(std::uint32_t ip);

    /** "tcp"/"udp"/"icmp", or the number for anything else. */
    static std::string protoName(std::uint8_t proto);

  private:
    struct Shard
    {
        std::map<FlowKey, FlowRecord> flows;
        /** Keyed by owned name copies (transparent comparator, so
         *  the steady-state recordHop lookup takes the raw char*
         *  without allocating); map order is name order, which
         *  makes the fold and the JSON deterministic. */
        std::map<std::string, HopRecord, std::less<>> hops;
        /** pathLen[n] = delivered packets with n PathTrace stamps. */
        std::array<std::uint64_t, kMaxPathLen> pathLen{};
    };

    Shard &shard(std::size_t idx);

    std::array<Shard, kMaxShards> shards_;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_FLOW_STATS_HH
