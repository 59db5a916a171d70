/**
 * @file
 * Fig. 8(a): achieved iperf bandwidth of MCN at optimisation
 * levels mcn0..mcn5, for the host-mcn and mcn-mcn setups,
 * normalized to a conventional 10GbE network.
 *
 * Paper setup (Sec. V): one iperf server, four iperf clients
 * communicating simultaneously. Baseline: 5 conventional nodes on
 * 10GbE. host-mcn: server on the host, clients on 4 MCN DIMMs.
 * mcn-mcn: server on an MCN DIMM, clients on the host and the
 * remaining DIMMs.
 */

#include <cstdio>

#include "bench_util.hh"
#include "core/experiment.hh"
#include "core/system_builder.hh"
#include "sim/flow_stats.hh"

using namespace mcnsim;
using namespace mcnsim::core;

namespace {

double
baseline10GbE(sim::Tick duration)
{
    sim::Simulation s;
    bench::applyThreads(s);
    ClusterSystemParams p;
    p.numNodes = 5;
    ClusterSystem sys(s, p);
    auto r = runIperf(s, sys, 0, {1, 2, 3, 4}, duration);
    return r.gbps;
}

double
mcnRun(int level, bool host_server, sim::Tick duration)
{
    sim::Simulation s;
    bench::applyThreads(s);
    McnSystemParams p;
    p.numDimms = 4;
    p.config = McnConfig::level(level);
    McnSystem sys(s, p);

    std::size_t server;
    std::vector<std::size_t> clients;
    if (host_server) {
        server = 0;             // host
        clients = {1, 2, 3, 4}; // the four DIMMs
    } else {
        server = 1;             // first DIMM
        clients = {0, 2, 3, 4}; // host + remaining DIMMs
    }
    auto r = runIperf(s, sys, server, clients, duration);
    return r.gbps;
}

} // namespace

int
main(int argc, char **argv)
{
    using bench::fmt;
    bool quick = bench::quickMode(argc, argv);
    sim::Tick duration =
        quick ? 4 * sim::oneMs : 20 * sim::oneMs;

    unsigned threads = bench::threadsArg(argc, argv);
    bench::BenchReport rep("fig8a_iperf", quick);
    rep.config("threads", threads ? threads : 1);
    rep.config("dimms", 4);
    rep.config("duration_ms",
               sim::ticksToSeconds(duration) * 1e3);

    std::printf("== Fig. 8(a): iperf bandwidth, normalized to "
                "10GbE (duration %.0f ms %s) ==\n",
                sim::ticksToSeconds(duration) * 1e3,
                quick ? "quick" : "full");

    double base = baseline10GbE(duration);
    std::printf("10GbE baseline: %.2f Gbit/s\n\n", base);
    rep.metric("baseline_10gbe_gbps", base);

    bench::Table t({"config", "host-mcn Gbps", "host-mcn norm",
                    "mcn-mcn Gbps", "mcn-mcn norm"});
    for (int level = 0; level <= 5; ++level) {
        // Instrument the headline configuration (mcn5 host-mcn)
        // with flow telemetry: the artifact then carries per-flow
        // delivery percentiles and the per-hop path breakdown next
        // to the bandwidth number. Telemetry only observes, so the
        // modeled Gbps is unchanged (the modeled gate checks this).
        if (level == 5)
            sim::FlowTelemetry::instance().enable();
        double hm = mcnRun(level, true, duration);
        if (level == 5)
            bench::collectFlowMetrics(rep, "mcn5_host_mcn");
        double mm = mcnRun(level, false, duration);
        t.addRow({"mcn" + std::to_string(level),
                  fmt("%.2f", hm), fmt("%.2fx", hm / base),
                  fmt("%.2f", mm), fmt("%.2fx", mm / base)});
        std::string lv = std::to_string(level);
        rep.metric("mcn" + lv + "_host_mcn_gbps", hm);
        rep.metric("mcn" + lv + "_host_mcn_norm", hm / base);
        rep.metric("mcn" + lv + "_mcn_mcn_gbps", mm);
        rep.metric("mcn" + lv + "_mcn_mcn_norm", mm / base);
    }
    t.print();

    std::printf("\npaper shape: mcn0 ~1.3x (host-mcn); big jump at "
                "mcn3 (9KB MTU); mcn5 ~4.6x; mcn-mcn trails "
                "host-mcn by 10-20%%\n");
    rep.target("mcn0_host_mcn_norm", 1.3);
    rep.target("mcn5_host_mcn_norm", 4.6);
    return bench::writeReport(rep, argc, argv);
}
