/**
 * @file
 * Table III: breakdown of the end-to-end latency of transmitting
 * and receiving a single TCP packet (1.5KB and 9KB) over 10GbE and
 * over MCN (mcn0), by hardware/software component:
 *
 *   Driver-TX | DMA-TX | PHY | DMA-RX | Driver-RX | Total
 *
 * All values are normalized to the 10GbE total for the same packet
 * size, as in the paper. The breakdown is *measured* from the
 * packet's path stamps (net::PathTrace), not estimated.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "net/socket.hh"
#include "net/tcp.hh"
#include "sim/flow_stats.hh"

using namespace mcnsim;
using namespace mcnsim::core;
using namespace mcnsim::net;

namespace {

struct Breakdown
{
    double driverTx = 0, dmaTx = 0, phy = 0, dmaRx = 0,
           driverRx = 0, total = 0;
    bool valid = false;
};

/** Ticks from @p a to @p b; 0 if either stamp is missing. */
double
span(sim::Tick a, sim::Tick b)
{
    if (a == PathTrace::unreached || b == PathTrace::unreached ||
        b < a)
        return 0;
    return static_cast<double>(b - a);
}

/**
 * Send one TCP data packet of @p payload bytes and read its path.
 * Flow telemetry is on only so the packet carries its stamps; it
 * observes modeled ticks without changing them.
 */
Breakdown
measureOnePacket(sim::Simulation &s, System &sys,
                 std::size_t from_node, std::size_t to_node,
                 std::size_t payload, TcpLayer &rx_layer)
{
    Breakdown bd;
    PathTrace path;
    sim::Tick delivered = 0;
    bool captured = false;
    sim::FlowTelemetry::instance().enable();
    rx_layer.setDeliveryHook([&](const Packet &pkt) {
        if (!captured && pkt.size() >= payload / 2 && pkt.path) {
            path = *pkt.path;
            delivered = rx_layer.curTick();
            captured = true;
        }
    });

    bool server_up = false;
    auto server = [&]() -> sim::Task<void> {
        auto lst = tcpListen(*sys.node(to_node).stack, 6000);
        server_up = true;
        auto conn = co_await lst->accept();
        co_await conn->recvDrain(payload);
    };
    auto client = [&]() -> sim::Task<void> {
        while (!server_up)
            co_await sim::delayFor(s.eventQueue(), sim::oneUs);
        auto sock = co_await tcpConnect(
            *sys.node(from_node).stack,
            {sys.node(to_node).addr, 6000});
        if (!sock)
            co_return;
        co_await sock->sendPattern(payload);
    };
    sim::spawnDetached(s.eventQueue(), server());
    sim::spawnDetached(s.eventQueue(), client());
    runUntil(
        s, [&] { return captured; },
        s.curTick() + sim::secondsToTicks(0.2));
    rx_layer.setDeliveryHook(nullptr);
    sim::FlowTelemetry::instance().disable();
    if (!captured)
        return bd;

    auto at = [&](Stage st) { return path.last(st); };
    bd.driverTx = span(at(Stage::StackTx), at(Stage::DriverTx));
    bd.dmaTx = span(at(Stage::DriverTx), at(Stage::DmaTx));
    bd.phy = span(at(Stage::DmaTx), at(Stage::Phy));
    bd.dmaRx = span(at(Stage::Phy), at(Stage::DmaRx));
    // Driver-RX covers ring clean + push up to the stack through
    // delivery (matching the paper's definition); MCN has no DMA-RX
    // stamp, so its Driver-RX starts at the sender's Driver-TX.
    const sim::Tick rx_start = at(Stage::DmaRx) != PathTrace::unreached
                                   ? at(Stage::DmaRx)
                                   : at(Stage::DriverTx);
    bd.driverRx = span(rx_start, delivered);
    bd.total = span(at(Stage::StackTx), delivered);
    bd.valid = bd.total > 0;
    return bd;
}

Breakdown
run10GbE(std::size_t payload, std::uint32_t mtu)
{
    sim::Simulation s;
    bench::applyThreads(s);
    ClusterSystemParams p;
    p.numNodes = 2;
    p.net.mtu = mtu;
    ClusterSystem sys(s, p);
    return measureOnePacket(s, sys, 0, 1, payload,
                            sys.node(1).stack->tcp());
}

Breakdown
runMcn0(std::size_t payload, std::uint32_t mtu)
{
    sim::Simulation s;
    bench::applyThreads(s);
    McnSystemParams p;
    p.numDimms = 1;
    p.config = McnConfig::level(0);
    p.config.mtu = mtu;
    McnSystem sys(s, p);
    return measureOnePacket(s, sys, 0, 1, payload,
                            sys.dimm(0).stack().tcp());
}

void
printRow(bench::Table &t, const char *size, const char *type,
         const Breakdown &bd, double ref_total)
{
    using bench::fmt;
    if (!bd.valid) {
        t.addRow({size, type, "-", "-", "-", "-", "-", "-"});
        return;
    }
    t.addRow({size, type, fmt("%.3f", bd.driverTx / ref_total),
              fmt("%.3f", bd.dmaTx / ref_total),
              fmt("%.3f", bd.phy / ref_total),
              fmt("%.3f", bd.dmaRx / ref_total),
              fmt("%.3f", bd.driverRx / ref_total),
              fmt("%.3f", bd.total / ref_total)});
}

/** Pin one row's five component columns, normalized like the
 *  printed table, as metrics (`<row>_driver_tx_norm`, ...). */
void
recordRow(bench::BenchReport &rep, const std::string &row,
          const Breakdown &bd, double ref_total)
{
    if (!bd.valid || ref_total <= 0)
        return;
    rep.metric(row + "_driver_tx_norm", bd.driverTx / ref_total);
    rep.metric(row + "_dma_tx_norm", bd.dmaTx / ref_total);
    rep.metric(row + "_phy_norm", bd.phy / ref_total);
    rep.metric(row + "_dma_rx_norm", bd.dmaRx / ref_total);
    rep.metric(row + "_driver_rx_norm", bd.driverRx / ref_total);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = bench::threadsArg(argc, argv);
    bench::BenchReport rep("table3_breakdown",
                           bench::quickMode(argc, argv));
    rep.config("threads", threads ? threads : 1);
    rep.config("payload_1p5kb", 1400);
    rep.config("payload_9kb", 8800);

    std::printf("== Table III: single TCP packet latency breakdown "
                "(normalized to the 10GbE total per size) ==\n\n");

    bench::Table t({"Size", "Type", "Driver-TX", "DMA-TX", "PHY",
                    "DMA-RX", "Driver-RX", "Total"});

    // 1.5KB packet: standard MTU everywhere.
    auto ge_15 = run10GbE(1400, 1500);
    auto mcn_15 = runMcn0(1400, 1500);
    double ref15 = ge_15.total;
    printRow(t, "1.5KB", "10GbE", ge_15, ref15);
    printRow(t, "1.5KB", "MCN-0", mcn_15, ref15);

    // 9KB packet: jumbo frames on both systems.
    auto ge_9k = run10GbE(8800, 9000);
    auto mcn_9k = runMcn0(8800, 9000);
    double ref9 = ge_9k.total;
    printRow(t, "9KB", "10GbE", ge_9k, ref9);
    printRow(t, "9KB", "MCN-0", mcn_9k, ref9);

    t.print();

    std::printf("\nabsolute totals: 10GbE 1.5KB %.2f us, MCN-0 "
                "1.5KB %.2f us, 10GbE 9KB %.2f us, MCN-0 9KB "
                "%.2f us\n",
                ge_15.total / 1e6, mcn_15.total / 1e6,
                ge_9k.total / 1e6, mcn_9k.total / 1e6);
    std::printf("paper shape: MCN has no DMA-TX/PHY/DMA-RX; "
                "removing the PHY dominates the reduction; MCN "
                "Driver-TX/RX exceed 10GbE's because the CPU does "
                "the copies (mcn0 has no DMA engine)\n");

    rep.metric("10gbe_1p5kb_total_us", ge_15.total / 1e6);
    rep.metric("mcn0_1p5kb_total_us", mcn_15.total / 1e6);
    rep.metric("10gbe_9kb_total_us", ge_9k.total / 1e6);
    rep.metric("mcn0_9kb_total_us", mcn_9k.total / 1e6);
    if (ref15 > 0)
        rep.metric("mcn0_1p5kb_total_norm", mcn_15.total / ref15);
    if (ref9 > 0)
        rep.metric("mcn0_9kb_total_norm", mcn_9k.total / ref9);
    recordRow(rep, "10gbe_1p5kb", ge_15, ref15);
    recordRow(rep, "mcn0_1p5kb", mcn_15, ref15);
    recordRow(rep, "10gbe_9kb", ge_9k, ref9);
    recordRow(rep, "mcn0_9kb", mcn_9k, ref9);
    // MCN removes the DMA engines and the PHY entirely.
    rep.target("mcn0_1p5kb_phy_norm", 0.0);
    return bench::writeReport(rep, argc, argv);
}
