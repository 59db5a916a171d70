/**
 * @file
 * Shared helpers for the benchmark/reproduction binaries: simple
 * fixed-width table printing, command-line knobs, and the BENCH_*
 * JSON artifact writer every bench uses for `--json <path>`.
 *
 * Usage in a bench main():
 *
 *   bool quick = bench::quickMode(argc, argv);
 *   bench::BenchReport rep("fig8a_iperf", quick);
 *   rep.config("dimms", 4);
 *   rep.metric("mcn5_host_mcn_gbps", gbps);
 *   rep.target("mcn5_host_mcn_norm", 4.6);   // the paper's number
 *   return bench::writeReport(rep, argc, argv);
 *
 * The artifact schema is documented in README.md §Observability;
 * tools/run_benches.sh regenerates and validates all of them.
 */

#ifndef MCNSIM_BENCH_BENCH_UTIL_HH
#define MCNSIM_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/flow_stats.hh"
#include "sim/json.hh"
#include "sim/simulation.hh"

namespace mcnsim::bench {

/** Column-aligned table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &r : rows_)
            for (std::size_t c = 0;
                 c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        auto line = [&](const std::vector<std::string> &cells) {
            std::printf("|");
            for (std::size_t c = 0; c < headers_.size(); ++c) {
                const std::string &v =
                    c < cells.size() ? cells[c] : "";
                std::printf(" %-*s |",
                            static_cast<int>(width[c]), v.c_str());
            }
            std::printf("\n");
        };
        line(headers_);
        std::printf("|");
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            for (std::size_t i = 0; i < width[c] + 2; ++i)
                std::printf("-");
            std::printf("|");
        }
        std::printf("\n");
        for (const auto &r : rows_)
            line(r);
        std::fflush(stdout);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style float formatting into std::string. */
inline std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

/** True when --quick was passed (shorter windows for CI). */
inline bool
quickMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            return true;
    // Benches default to quick mode unless --full is given, so the
    // whole suite stays runnable on a laptop.
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--full") == 0)
            return false;
    return true;
}

/** Worker count parsed from `--threads N` / `--threads=N`, kept in
 *  a process-wide slot so bench helpers that build their own
 *  Simulation can pick it up without threading a parameter through
 *  every call chain. 0 = flag absent = classic engine. */
inline unsigned benchThreads = 0;

/** Parse `--threads` (0 when absent) and remember it for
 *  applyThreads(). Record the result in the report's config block
 *  (`rep.config("threads", ...)`): host-time metrics compare only
 *  between runs with the same worker count. */
inline unsigned
threadsArg(int argc, char **argv)
{
    unsigned n = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            n = static_cast<unsigned>(
                std::max(1l, std::strtol(argv[i + 1], nullptr, 10)));
        else if (std::strncmp(argv[i], "--threads=", 10) == 0)
            n = static_cast<unsigned>(
                std::max(1l, std::strtol(argv[i] + 10, nullptr, 10)));
    }
    benchThreads = n;
    return n;
}

/**
 * Switch @p s to the sharded parallel engine when `--threads` was
 * given. Call straight after constructing the Simulation, before
 * any system builder runs (sharding must be enabled while the
 * object list is still empty). Flag absent keeps the classic
 * single-queue engine, so default bench runs -- and the perf
 * baseline -- keep their exact event schedule. With the flag, the
 * modeled output is identical for every N (see DESIGN.md §9); only
 * wall clock changes.
 */
inline void
applyThreads(sim::Simulation &s)
{
    if (benchThreads == 0)
        return;
    s.enableSharding();
    s.setThreads(benchThreads);
}

/**
 * For benches whose workloads cannot shard (the MPI world of
 * fig10/fig11 shares coordinator state across all ranks' nodes):
 * drop a requested `--threads` with a note, mirroring the CLI's
 * shardable=false handling, and return the effective worker count
 * (always 1) for the report's config block.
 */
inline unsigned
refuseThreads(const char *why)
{
    if (benchThreads != 0) {
        std::fprintf(stderr,
                     "note: --threads ignored (%s; see DESIGN.md "
                     "section 9)\n",
                     why);
        benchThreads = 0;
    }
    return 1;
}

/** Path given via `--json <path>` or `--json=<path>`; "" if absent. */
inline std::string
jsonPath(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            return argv[i + 1];
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            return argv[i] + 7;
    }
    return "";
}

/**
 * Machine-readable result artifact for one bench run. Collects the
 * configuration, the measured metrics and the paper's target values
 * while the bench runs, then serializes one BENCH_<name>.json
 * document (see README.md §Observability for the schema).
 */
class BenchReport
{
  public:
    BenchReport(std::string name, bool quick)
        : name_(std::move(name)), quick_(quick),
          start_(std::chrono::steady_clock::now())
    {}

    /** Record one configuration knob of this run. */
    void
    config(const std::string &key, double v)
    {
        config_.emplace_back(key, v);
    }

    /** Record one measured metric. */
    void
    metric(const std::string &key, double v)
    {
        metrics_.emplace_back(key, v);
    }

    /** Record the paper's value the metric is compared against. */
    void
    target(const std::string &key, double v)
    {
        targets_.emplace_back(key, v);
    }

    const std::string &name() const { return name_; }

    /** Serialize to @p os. */
    void
    write(std::ostream &os) const
    {
        using clock = std::chrono::steady_clock;
        double wall =
            std::chrono::duration<double>(clock::now() - start_)
                .count();

        sim::json::Writer w(os);
        w.beginObject();
        w.kv("bench", name_);
        w.kv("schema_version", std::uint64_t{1});
        w.kv("generator", "mcnsim");
        w.kv("mode", quick_ ? "quick" : "full");
        writeMap(w, "config", config_);
        // How the binary was built and where it ran: recorded so
        // host-time metrics are compared only between like builds.
        w.key("build");
        w.beginObject();
        w.kv("compiler", MCNSIM_BENCH_COMPILER);
        w.kv("build_type", MCNSIM_BENCH_BUILD_TYPE);
        w.kv("opt_flags", MCNSIM_BENCH_OPT_FLAGS);
        w.kv("cores", std::uint64_t{std::thread::hardware_concurrency()});
        w.endObject();
        writeMap(w, "metrics", metrics_);
        writeMap(w, "paper_targets", targets_);
        w.kv("wall_seconds", wall);
        w.endObject();
        os << "\n";
    }

    /** Write to @p path; complains on stderr and fails cleanly. */
    bool
    writeFile(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        write(f);
        return f.good();
    }

  private:
    using Entries = std::vector<std::pair<std::string, double>>;

    static void
    writeMap(sim::json::Writer &w, const char *key,
             const Entries &entries)
    {
        w.key(key);
        w.beginObject();
        for (const auto &[k, v] : entries)
            w.kv(k, v);
        w.endObject();
    }

    std::string name_;
    bool quick_;
    std::chrono::steady_clock::time_point start_;
    Entries config_, metrics_, targets_;
};

/**
 * Fold the process-wide FlowTelemetry tables into @p rep: aggregate
 * end-to-end delivery-latency percentiles over every recorded flow
 * plus a per-hop path-latency breakdown, all in microseconds under
 * `<prefix>_` keys. Disables the telemetry gate. Pair with
 * `sim::FlowTelemetry::instance().enable()` immediately before the
 * one run the bench wants instrumented -- enable() resets the
 * tables, so each enable/collect pair scopes one run.
 */
inline void
collectFlowMetrics(BenchReport &rep, const std::string &prefix)
{
    auto &tel = sim::FlowTelemetry::instance();
    tel.disable();
    auto toUs = [](double ticks) {
        return ticks / static_cast<double>(sim::oneUs);
    };

    auto flows = tel.foldFlows();
    sim::LogBuckets e2e;
    for (const auto &[key, rec] : flows)
        e2e.merge(rec.latency);
    rep.metric(prefix + "_flows",
               static_cast<double>(flows.size()));
    if (e2e.count() > 0) {
        rep.metric(prefix + "_flow_p50_us",
                   toUs(e2e.percentile(50)));
        rep.metric(prefix + "_flow_p99_us",
                   toUs(e2e.percentile(99)));
        rep.metric(prefix + "_flow_p999_us",
                   toUs(e2e.percentile(99.9)));
    }
    for (const auto &[hop, rec] : tel.foldHops()) {
        if (rec.latency.count() == 0)
            continue;
        rep.metric(prefix + "_hop_" + hop + "_p50_us",
                   toUs(rec.latency.percentile(50)));
        rep.metric(prefix + "_hop_" + hop + "_p99_us",
                   toUs(rec.latency.percentile(99)));
    }
}

/** Standard bench epilogue: honour --json if present. Returns the
 *  process exit code. */
inline int
writeReport(const BenchReport &rep, int argc, char **argv)
{
    std::string path = jsonPath(argc, argv);
    if (path.empty())
        return 0;
    if (!rep.writeFile(path))
        return 1;
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}

} // namespace mcnsim::bench

#endif // MCNSIM_BENCH_BENCH_UTIL_HH
