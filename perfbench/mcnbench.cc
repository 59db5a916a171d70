/**
 * @file
 * mcnbench: the repository benchmark. Builds and runs one seeded
 * mcnsim scenario through the public core API, times every builder
 * and run call from outside with std::chrono::steady_clock, checks
 * each run's modeled output against a reference digest, and prints
 * one JSON result line.
 *
 *   mcnbench --workload rack_iperf --seed 1 --seconds 10 --trace 0
 *
 * Workloads: rack_iperf, fabric_iperf_2w, npb_bandwidth, mcn_ping
 * (perfbench/README.md says what each stresses and why).
 *
 * A run first executes the scenario once as the reference (for
 * fabric_iperf_2w on the classic engine), then repeats it until
 * --seconds have passed. Every simulation of every repetition must
 * reproduce the reference's modeled digest -- stat registry JSON,
 * final tick and event count -- or it counts as a failed operation.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * plain and profiled repetitions (EventQueue::setProfiling on every
 * shard queue) and reports the per-layer metrics: host time by
 * event-name layer, stat-registry work counts and outside-timed
 * probes of the layers' byte-handling primitives.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cctype>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/mcn_config.hh"
#include "core/system_builder.hh"
#include "dist/bigdata.hh"
#include "dist/coral.hh"
#include "dist/npb.hh"
#include "mcn/sram_buffer.hh"
#include "net/byte_ring.hh"
#include "net/checksum.hh"
#include "sim/json.hh"

#include "layer_table.hh"

using namespace mcnsim;
using namespace mcnsim::core;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** FNV-1a: a printable, build-independent digest fingerprint. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Everything one repetition of a scenario produced: host times,
 * modeled digests and counters of each simulation it ran, and the
 * scenario's modeled outputs.
 */
struct Rep
{
    bool traced = false;

    // Host time, charged from outside the simulator.
    double setupS = 0;     ///< system builders
    double wallS = 0;      ///< run calls (incl. energy model)
    double statsDumpS = 0; ///< stat-registry JSON dumps (digests)
    double modelS = 0;     ///< energy model build + compute

    // One entry per simulation, in run order.
    std::vector<std::uint64_t> digests;
    std::vector<bool> ok;
    std::vector<double> simWallS; ///< run calls' share of wallS
    double calibS = 0; ///< calibrationSliceS() just before the rep

    // Summed over the repetition's simulations.
    std::size_t nodes = 0;
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    double simSeconds = 0;
    double coreTicks = 0; ///< cores x simulated ticks (busy_frac base)
    /** Scalar stats summed by "<group kind>.<stat>" (groupKind()). */
    std::map<std::string, double> stats;
    /** Profiled event name -> accumulated host ns (traced reps). */
    std::map<std::string, double> profileNs;

    // Modeled outputs.
    double paperValue = 0; ///< the quantity paper_err compares
    double iperfGbps = 0;
    double appBytes = 0; ///< application payload through TCP sockets
    double mpiMakespanMs = 0;
    double mpiBytes = 0;
    double pingRttUs = 0;
    double energyJ = 0;

    double
    stat(const std::string &key) const
    {
        auto it = stats.find(key);
        return it == stats.end() ? 0.0 : it->second;
    }

    /** Sum of every stat whose name (after the group kind) is
     *  @p name, whatever group kind carries it. */
    double
    statAnyGroup(const std::string &name) const
    {
        double sum = 0;
        std::string suffix = "." + name;
        for (const auto &[key, v] : stats)
            if (key.size() > suffix.size() &&
                key.compare(key.size() - suffix.size(), suffix.size(),
                            suffix) == 0)
                sum += v;
        return sum;
    }
};

/** Time a system builder; arm the profiler on a traced rep. */
template <typename Build>
auto
build(Rep &r, sim::Simulation &s, Build &&b)
{
    auto t0 = Clock::now();
    auto sys = b();
    r.setupS += secondsSince(t0);
    r.nodes += sys->nodeCount();
    if (r.traced)
        for (std::size_t i = 0; i < s.shardCount(); ++i)
            s.shardQueue(i).setProfiling(true);
    return sys;
}

/** Time one run-phase call. */
template <typename F>
auto
timed(Rep &r, F &&f)
{
    auto t0 = Clock::now();
    auto out = f();
    r.wallS += secondsSince(t0);
    return out;
}

/** Group kind: the last dotted component of a stat-group name with
 *  its digits dropped ("srv3.mcn1.kernel.cpu.core2" -> "core"). */
std::string
groupKind(const std::string &group)
{
    auto dot = group.rfind('.');
    std::string last =
        dot == std::string::npos ? group : group.substr(dot + 1);
    last.erase(std::remove_if(last.begin(), last.end(),
                              [](unsigned char c) {
                                  return std::isdigit(c);
                              }),
               last.end());
    return last;
}

/**
 * Close out one simulation of a repetition: its modeled digest (the
 * same one mcnsim_cli --selfcheck compares), its scalar stats, event
 * and window counts, and -- on a traced rep -- its event profile.
 */
void
collect(Rep &r, sim::Simulation &s, bool ok)
{
    auto t0 = Clock::now();
    std::ostringstream os;
    s.prepareStatsDump();
    s.statRegistry().dumpJson(os);
    os << "tick=" << s.curTick() << " events=" << s.eventsProcessed()
       << "\n";
    r.statsDumpS += secondsSince(t0);
    r.digests.push_back(fnv1a(os.str()));
    r.ok.push_back(ok);
    r.simWallS.push_back(r.wallS - std::accumulate(r.simWallS.begin(),
                                                   r.simWallS.end(), 0.0));

    r.events += s.eventsProcessed();
    r.simSeconds += sim::ticksToSeconds(s.curTick());
    if (auto *set = s.shardSet())
        r.windows += set->windowsRun();
    for (const auto *g : s.statRegistry().groups()) {
        std::string kind = groupKind(g->name());
        if (kind == "core")
            r.coreTicks += static_cast<double>(s.curTick());
        for (const auto *st : g->stats())
            if (auto *sc = dynamic_cast<const sim::Scalar *>(st))
                r.stats[kind + "." + sc->name()] += sc->value();
    }
    if (r.traced)
        for (std::size_t i = 0; i < s.shardCount(); ++i)
            for (const auto &e : s.shardQueue(i).profileEntries())
                r.profileNs[e.name] += static_cast<double>(e.hostNs);
}

/** The seed's one effect on a scenario: the order in which its
 *  independent inputs (clients, kernels, payloads) are issued. */
template <typename T>
void
seededShuffle(std::vector<T> &v, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (std::size_t i = v.size(); i > 1; --i) {
        std::uniform_int_distribution<std::size_t> pick(0, i - 1);
        std::swap(v[i - 1], v[pick(rng)]);
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/** Window of simulated iperf traffic: long enough that the 191-way
 *  connection ramp is not most of the run. */
constexpr sim::Tick iperfWindow = 20 * sim::oneMs;

/** iperf chunk the dist::iperfClient writes per send() call. */
constexpr std::size_t iperfChunk = 128 * 1024;

/** Sec. VII: up to ~25 % of iperf TCP segments are pure ACKs. */
constexpr double pureAckPaperPct = 25.0;

/** Pure-ACK share of TCP segments, in percent. */
double
pureAckPct(const Rep &r)
{
    return 100.0 *
           ratio(r.stat("tcp.pureAcksOut"), r.stat("tcp.segmentsOut"));
}

std::vector<std::size_t>
iperfClients(std::size_t nodes, std::uint64_t seed)
{
    std::vector<std::size_t> c;
    for (std::size_t i = 1; i < nodes; ++i)
        c.push_back(i);
    seededShuffle(c, seed);
    return c;
}

void
iperfInto(Rep &r, sim::Simulation &s, System &sys, std::uint64_t seed)
{
    auto clients = iperfClients(sys.nodeCount(), seed);
    auto rep = timed(r, [&] {
        return runIperf(s, sys, 0, clients, iperfWindow);
    });
    r.iperfGbps += rep.gbps;
    r.appBytes += static_cast<double>(rep.bytes);
    collect(r, s,
            rep.bytes > 0 &&
                rep.connections == static_cast<int>(clients.size()));
    r.paperValue = pureAckPct(r);
}

/** 64 MCN servers x 2 DIMMs at mcn5, every node streaming to node 0
 *  (server 0's host) on the classic engine. */
void
rackIperf(Rep &r, std::uint64_t seed, bool)
{
    sim::Simulation s(seed);
    auto sys = build(r, s, [&] {
        McnMultiServerParams p;
        p.numServers = 64;
        p.dimmsPerServer = 2;
        p.config = McnConfig::level(5);
        return std::make_unique<McnMultiServer>(s, p);
    });
    iperfInto(r, s, *sys, seed);
}

/** Sharded-engine workers for fabric_iperf_2w: 4 workers on a
 *  shared 4-core host gave 2x outliers, 2 workers stay steady. */
constexpr unsigned fabricWorkers = 2;

/** 16 racks x 4 nodes, 4 spines, fat tree, every node streaming to
 *  node 0: sharded engine, or the classic engine for the reference
 *  run (DESIGN.md §9: the output must not change). */
void
fabricIperf(Rep &r, std::uint64_t seed, bool reference)
{
    sim::Simulation s(seed);
    if (!reference) {
        s.enableSharding();
        s.setThreads(fabricWorkers);
    }
    auto sys = build(r, s, [&] {
        FabricSystemParams p;
        p.topology = FabricTopology::FatTree;
        p.racks = 16;
        p.nodesPerRack = 4;
        p.spines = 4;
        return std::make_unique<FabricSystem>(s, p);
    });
    iperfInto(r, s, *sys, seed);
}

/** MPI iterations per kernel: the Fig. 9 --quick setting, whose
 *  4-DIMM geomean the BENCH_fig9_bandwidth artifact records. */
constexpr int npbIterations = 2;

/** Fig. 9 paper target: 4-DIMM geomean bandwidth gain. */
constexpr double fig9Paper4Dimms = 2.6;

std::vector<dist::WorkloadSpec>
mpiSuite()
{
    std::vector<dist::WorkloadSpec> all;
    for (auto &w : dist::npb::suite())
        all.push_back(w);
    for (auto &w : dist::coral::suite())
        all.push_back(w);
    for (auto &w : dist::bigdata::suite())
        all.push_back(w);
    return all;
}

/** Aggregate memory bandwidth (GB/s) of one MPI run, as Fig. 9
 *  measures it; 0 when the run did not complete. */
double
mpiBandwidth(Rep &r, sim::Simulation &s, System &sys,
             const dist::WorkloadSpec &base,
             const std::vector<std::size_t> &placement,
             power::EnergyModel *energy)
{
    auto spec = base.scaledTo(static_cast<int>(placement.size()));
    spec.iterations = npbIterations;
    auto memBytes = [&] {
        std::uint64_t b = 0;
        for (std::size_t n = 0; n < sys.nodeCount(); ++n)
            b += sys.node(n).kernel->mem().totalBytes();
        return b;
    };
    std::uint64_t before = memBytes();
    auto rep = timed(r, [&] {
        return runMpiWorkload(s, sys, spec, placement,
                              30 * sim::oneSec);
    });
    if (energy) {
        auto t0 = Clock::now();
        r.energyJ += energy->compute(s.curTick()).total();
        double dt = secondsSince(t0);
        r.modelS += dt;
        r.wallS += dt;
    }
    r.mpiMakespanMs += sim::ticksToSeconds(rep.makespan) * 1e3;
    r.mpiBytes += static_cast<double>(rep.mpiBytes);
    r.appBytes += static_cast<double>(rep.mpiBytes);
    bool ok = rep.completed && rep.makespan > 0;
    collect(r, s, ok);
    if (!ok)
        return 0.0;
    return static_cast<double>(memBytes() - before) /
           sim::ticksToSeconds(rep.makespan) / 1e9;
}

/** Fig. 9 at 4 DIMMs: every MPI kernel on an 8-core scale-up server
 *  and on a 4-DIMM mcn5 server, plus the MCN server's energy. */
void
npbBandwidth(Rep &r, std::uint64_t seed, bool)
{
    auto suite = mpiSuite();
    seededShuffle(suite, seed);
    double logSum = 0;
    for (const auto &w : suite) {
        double conv;
        {
            sim::Simulation s(seed);
            auto sys = build(r, s, [&] {
                return std::make_unique<ScaleUpSystem>(s, 8);
            });
            conv = mpiBandwidth(r, s, *sys, w,
                                {0, 0, 0, 0, 0, 0, 0, 0}, nullptr);
        }
        sim::Simulation s(seed);
        auto sys = build(r, s, [&] {
            McnSystemParams p;
            p.numDimms = 4;
            p.config = McnConfig::level(5);
            return std::make_unique<McnSystem>(s, p);
        });
        auto t0 = Clock::now();
        auto energy = energyModelFor(*sys);
        energy.snapshot(s.curTick());
        double dt = secondsSince(t0);
        r.modelS += dt;
        r.wallS += dt;
        double mcn = mpiBandwidth(r, s, *sys, w,
                                  allCoresPlacement(*sys), &energy);
        if (conv > 0 && mcn > 0)
            logSum += std::log(mcn / conv);
    }
    r.paperValue =
        std::exp(logSum / static_cast<double>(suite.size()));
}

/** Probes per payload size and direction in mcn_ping. */
constexpr int pingCount = 400;

/** Every mcn_ping system runs at this MTU, so 8 KB pings are not
 *  fragmented (as in bench_fig8bc_ping). */
constexpr std::uint32_t pingMtu = 9000;

/** Fig. 8(b) paper target: mcn0 16 B host<->MCN RTT / 10GbE RTT. */
constexpr double fig8bPaperMcn0 = 0.38;

std::vector<dist::PingPoint>
pingInto(Rep &r, sim::Simulation &s, System &sys, std::size_t from,
         std::size_t to, const std::vector<std::size_t> &sizes)
{
    auto pts = timed(r, [&] {
        return runPingSweep(s, sys, from, to, sizes, pingCount);
    });
    bool ok = pts.size() == sizes.size();
    for (const auto &p : pts) {
        ok = ok && p.lost == 0;
        r.pingRttUs += sim::ticksToUs(p.avgRtt);
    }
    collect(r, s, ok);
    return pts;
}

sim::Tick
rttOf(const std::vector<dist::PingPoint> &pts, std::size_t size)
{
    for (const auto &p : pts)
        if (p.payloadBytes == size)
            return p.avgRtt;
    return 0;
}

/** Fig. 8(b)/(c): 16 B / 1 KB / 8 KB pings host<->MCN and MCN<->MCN
 *  at mcn0 and mcn5 on a 2-DIMM server, and the 2-node 10GbE
 *  baseline they are normalized to. */
void
mcnPing(Rep &r, std::uint64_t seed, bool)
{
    std::vector<std::size_t> sizes = {16, 1024, 8192};
    seededShuffle(sizes, seed);
    std::size_t points = 0;

    sim::Tick base16;
    {
        sim::Simulation s(seed);
        auto sys = build(r, s, [&] {
            ClusterSystemParams p;
            p.numNodes = 2;
            p.net.mtu = pingMtu;
            return std::make_unique<ClusterSystem>(s, p);
        });
        base16 = rttOf(pingInto(r, s, *sys, 0, 1, sizes), 16);
        points += sizes.size();
    }
    sim::Tick mcn0Host16 = 0;
    for (int level : {0, 5}) {
        for (bool hostSide : {true, false}) {
            sim::Simulation s(seed);
            auto sys = build(r, s, [&] {
                McnSystemParams p;
                p.numDimms = 2;
                p.config = McnConfig::level(level);
                p.config.mtu = pingMtu;
                return std::make_unique<McnSystem>(s, p);
            });
            auto pts = hostSide ? pingInto(r, s, *sys, 0, 1, sizes)
                                : pingInto(r, s, *sys, 1, 2, sizes);
            if (level == 0 && hostSide)
                mcn0Host16 = rttOf(pts, 16);
            points += sizes.size();
        }
    }
    r.pingRttUs /= static_cast<double>(points);
    r.paperValue = ratio(static_cast<double>(mcn0Host16),
                         static_cast<double>(base16));
}

struct Workload
{
    const char *name;
    void (*run)(Rep &, std::uint64_t seed, bool reference);
    double paperTarget;
    /** Application chunk the TCP byte rings move per call. */
    std::size_t chunkBytes;
    /** MTU the workload's packets are checksummed at. */
    std::size_t mtu;
    unsigned workers;
};

/** Mean MPI message chunk across the suite at the MCN placement:
 *  the shape net::ByteRing sees under npb_bandwidth. */
std::size_t
mpiChunkBytes()
{
    const auto ranks =
        hostKernelParams().cores + 4 * mcnKernelParams().cores;
    double sum = 0;
    int n = 0;
    for (const auto &w : mpiSuite()) {
        auto scaled = w.scaledTo(static_cast<int>(ranks));
        if (scaled.commBytesPerIter) {
            sum += static_cast<double>(scaled.commBytesPerIter);
            n++;
        }
    }
    return n ? static_cast<std::size_t>(sum / n) : iperfChunk;
}

std::vector<Workload>
workloads()
{
    const auto mcn5Mtu = McnConfig::level(5).mtu;
    return {
        {"rack_iperf", rackIperf, pureAckPaperPct, iperfChunk,
         mcn5Mtu, 1},
        {"fabric_iperf_2w", fabricIperf, pureAckPaperPct, iperfChunk,
         BaselineNetParams{}.mtu, fabricWorkers},
        {"npb_bandwidth", npbBandwidth, fig9Paper4Dimms,
         mpiChunkBytes(), mcn5Mtu, 1},
        {"mcn_ping", mcnPing, fig8bPaperMcn0, iperfChunk, pingMtu, 1},
    };
}

// ---------------------------------------------------------------------
// Layer probes: outside-timed calls into a layer's primitives, at the
// shapes the workload drives them with.
// ---------------------------------------------------------------------

/** Median ns per unit of @p op over batches of @p iters calls, each
 *  call doing @p units units of work. */
template <typename Op>
double
probe(Op &&op, int iters, double units)
{
    std::vector<double> samples;
    for (int b = 0; b < 15; ++b) {
        auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i)
            op();
        samples.push_back(secondsSince(t0) * 1e9 /
                          (iters * units));
    }
    return median(samples);
}

/** net::ByteRing: appendPattern + take of one chunk, ns per KB. */
double
probeByteRing(std::size_t chunk)
{
    net::ByteRing ring;
    std::size_t base = 0;
    volatile std::uint8_t sink = 0;
    int iters = static_cast<int>(
        std::max<std::size_t>(4, (8u << 20) / chunk));
    return probe(
        [&] {
            ring.appendPattern(base, chunk);
            base += chunk;
            auto out = ring.take(chunk);
            sink = static_cast<std::uint8_t>(sink ^ out[chunk / 2]);
        },
        iters, static_cast<double>(chunk) / 1024.0);
}

/** net::checksum over one MTU-sized packet, ns per KB. */
double
probeChecksum(std::size_t mtu)
{
    std::vector<std::uint8_t> pkt(mtu);
    for (std::size_t i = 0; i < mtu; ++i)
        pkt[i] = static_cast<std::uint8_t>(i * 7 + 1);
    volatile std::uint16_t sink = 0;
    int iters = static_cast<int>(
        std::max<std::size_t>(16, (8u << 20) / mtu));
    return probe(
        [&] {
            sink = static_cast<std::uint16_t>(
                sink ^ net::checksum(pkt.data(), pkt.size()));
            pkt[0]++;
        },
        iters, static_cast<double>(mtu) / 1024.0);
}

/** mcn::MessageRing: enqueue + dequeue of one MTU frame, ns per
 *  message. */
double
probeMessageRing(std::size_t mtu)
{
    mcn::MessageRing ring(48 * 1024);
    std::vector<std::uint8_t> frame(mtu, 0x5a);
    volatile std::size_t sink = 0;
    return probe(
        [&] {
            ring.enqueue(frame.data(), frame.size());
            auto m = ring.dequeue();
            sink = sink + (m ? m->bytes.size() : 0);
        },
        2000, 1.0);
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

bool
parseOptions(int argc, char **argv, Options *o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            o->workload = v;
        else if (k == "--seed")
            o->seed = std::stoull(v);
        else if (k == "--seconds")
            o->seconds = std::stod(v);
        else if (k == "--trace")
            o->trace = v == "1";
        else
            return false;
    }
    return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

/**
 * Peak resident set of a child process that runs the scenario's
 * reference and one timed repetition: the scenario's footprint, not
 * the number of repetitions that fit in --seconds, and not the
 * launcher's (a process's ru_maxrss survives exec). 0 on failure.
 */
double
scenarioPeakRssMb(const Workload &wl, std::uint64_t seed)
{
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid == 0) {
        Rep ref, rep;
        wl.run(ref, seed, true);
        wl.run(rep, seed, false);
        _exit(0);
    }
    int status = 0;
    struct rusage ru = {};
    if (pid < 0 || wait4(pid, &status, 0, &ru) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Metrics in insertion order: name -> (value, unit). */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        rows_.push_back({name, value, unit});
    }

    void
    write(sim::json::Writer &w) const
    {
        w.key("metrics");
        w.beginObject();
        for (const auto &r : rows_) {
            w.key(r.name);
            w.beginObject();
            w.kv("value", std::isfinite(r.value) ? r.value : 0.0);
            w.kv("unit", r.unit);
            w.endObject();
        }
        w.endObject();
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Row> rows_;
};

/** Per-layer metrics of --trace 1 (README.md has the table). */
void
layerMetrics(Metrics &m, const Workload &wl,
             const std::vector<Rep> &plain,
             const std::vector<Rep> &traced)
{
    auto med = [](const std::vector<Rep> &reps, double Rep::*f) {
        std::vector<double> v;
        for (const auto &r : reps)
            v.push_back(r.*f);
        return median(v);
    };
    double wall = med(plain, &Rep::wallS);
    double tracedWall = med(traced, &Rep::wallS);

    // Host time by layer, over every traced repetition. Engine time
    // outside any dispatch (heap, run slices) is the sim layer's.
    std::map<std::string, double> layerNs;
    std::set<std::string> unclassified;
    double profiledNs = 0, tracedNs = 0;
    for (const auto &r : traced) {
        tracedNs += r.wallS * 1e9;
        for (const auto &[name, ns] : r.profileNs) {
            const char *layer = perfbench::layerOf(name);
            if (layer == perfbench::unclassified)
                unclassified.insert(name);
            layerNs[layer] += ns;
            profiledNs += ns;
        }
    }
    layerNs["sim"] += std::max(0.0, tracedNs - profiledNs);
    for (const auto &name : unclassified)
        std::fprintf(stderr, "unclassified event name: %s\n",
                     name.c_str());
    auto share = [&](const char *layer) {
        return ratio(layerNs[layer], tracedNs);
    };

    // Counts come from a timed repetition: its digest matched the
    // reference's, and on fabric_iperf_2w it ran the sharded engine.
    const Rep &st = plain.front();
    double events = static_cast<double>(st.events);
    m.add("sim.events", events, "count");
    m.add("sim.ns_per_event", ratio(wall * 1e9, events), "ns");
    m.add("sim.sim_us_per_host_s", ratio(st.simSeconds * 1e6, wall),
          "us/s");
    m.add("sim.host_share", share("sim"), "fraction");
    m.add("sim.stats_dump_s", med(plain, &Rep::statsDumpS), "s");
    m.add("sim.trace_overhead", ratio(tracedWall, wall) - 1.0,
          "fraction");
    m.add("sim.shard.windows", static_cast<double>(st.windows),
          "count");
    m.add("sim.shard.events_per_window",
          ratio(events, static_cast<double>(st.windows)), "count");

    m.add("cpu.core_slot.host_share", share("cpu"), "fraction");
    m.add("cpu.slots", st.stat("core.slots"), "count");
    m.add("cpu.busy_frac", ratio(st.stat("core.busyTicks"), st.coreTicks),
          "fraction");

    double irqs = st.stat("irq.irqsRaised");
    m.add("os.host_share", share("os"), "fraction");
    m.add("os.irqs", irqs, "count");
    m.add("os.irq_spurious_frac", ratio(st.stat("irq.irqsSpurious"), irqs),
          "fraction");
    m.add("os.tasklets", st.stat("softirq.taskletsRun"), "count");

    double txBytes = st.statAnyGroup("txBytes");
    double ringNsPerKb = probeByteRing(wl.chunkBytes);
    double csumNsPerKb = probeChecksum(wl.mtu);
    m.add("net.host_share", share("net"), "fraction");
    m.add("net.tcp.segments_out", st.stat("tcp.segmentsOut"), "count");
    m.add("net.tcp.pure_ack_frac", pureAckPct(st) / 100.0, "fraction");
    m.add("net.tcp.drops", st.stat("tcp.drops"), "count");
    m.add("net.ip_tx_packets", st.stat("net.ipTxPackets"), "count");
    m.add("net.byte_ring.ns_per_kb", ringNsPerKb, "ns/KB");
    m.add("net.byte_ring.run_s", ringNsPerKb * st.appBytes / 1024 / 1e9,
          "s");
    m.add("net.checksum.ns_per_kb", csumNsPerKb, "ns/KB");
    m.add("net.checksum.run_s", csumNsPerKb * txBytes / 1024 / 1e9, "s");

    m.add("netdev.host_share", share("netdev"), "fraction");
    m.add("netdev.switch.forwarded", st.statAnyGroup("forwarded"),
          "count");
    m.add("netdev.link.frames", st.statAnyGroup("frames"), "count");
    m.add("netdev.nic.interrupts", st.stat("nic.interrupts"), "count");
    m.add("netdev.nic.napi_polls", st.stat("nic.napiPolls"), "count");
    m.add("netdev.nic.tso_segments", st.stat("nic.tsoSegments"), "count");

    double scans = st.stat("mcndrv.pollScans");
    double msgs = st.stat("eth.txMessages") + st.stat("eth.rxMessages");
    double msgNs = probeMessageRing(wl.mtu);
    m.add("mcn.host_share", share("mcn"), "fraction");
    m.add("mcn.poll_scans", scans, "count");
    m.add("mcn.poll_hit_frac", ratio(st.stat("mcndrv.pollHits"), scans),
          "fraction");
    m.add("mcn.forwarded",
          st.stat("mcndrv.f1HostDeliveries") +
              st.stat("mcndrv.f2Broadcasts") +
              st.stat("mcndrv.f3McnToMcn") + st.stat("mcndrv.f4Uplink"),
          "count");
    m.add("mcn.copy_bytes", st.stat("copy.copyBytes"), "B");
    m.add("mcn.dma_bytes", st.stat("dma.bytes"), "B");
    m.add("mcn.rx_ring_full", st.stat("mcndrv.rxRingFull"), "count");
    m.add("mcn.alerts", st.stat("iface.alerts"), "count");
    m.add("mcn.message_ring.ns_per_msg", msgNs, "ns");
    m.add("mcn.message_ring.run_s", msgNs * msgs / 1e9, "s");

    double rowAcc = st.stat("mc.rowHits") + st.stat("mc.rowMisses") +
                    st.stat("mc.rowClosed");
    m.add("mem.host_share", share("mem"), "fraction");
    m.add("mem.read_bytes", st.stat("mc.readBytes"), "B");
    m.add("mem.write_bytes", st.stat("mc.writeBytes"), "B");
    m.add("mem.row_hit_frac", ratio(st.stat("mc.rowHits"), rowAcc),
          "fraction");
    m.add("mem.bulk_bytes", st.statAnyGroup("bulkBytes"), "B");
    m.add("mem.mmio_accesses", st.stat("mc.mmioAccesses"), "count");

    m.add("dist.iperf_gbps", st.iperfGbps, "Gb/s");
    m.add("dist.mpi_makespan_ms", st.mpiMakespanMs, "ms");
    m.add("dist.mpi_bytes", st.mpiBytes, "B");
    m.add("dist.ping_rtt_us", st.pingRttUs, "us");

    m.add("power.energy_j", st.energyJ, "J");
    m.add("power.model_s", med(plain, &Rep::modelS), "s");
    m.add("core.nodes", static_cast<double>(st.nodes), "count");
    m.add("core.build_ms_per_node",
          ratio(med(plain, &Rep::setupS) * 1e3,
                static_cast<double>(st.nodes)),
          "ms");

    m.add("unclassified.host_share", share(perfbench::unclassified),
          "fraction");
}

/** Build and run metadata, printed on its own line before the
 *  result so a config change reads as one. */
void
printMeta(const Options &o, const Workload &wl, const Rep &ref,
          std::size_t reps, double slowdown)
{
    std::ostringstream os;
    sim::json::Writer w(os, 0);
    w.beginObject();
    w.key("meta");
    w.beginObject();
    w.kv("workload", wl.name);
    w.kv("seed", static_cast<std::uint64_t>(o.seed));
    w.kv("trace", o.trace);
    w.kv("compiler", MCNBENCH_COMPILER);
    w.kv("build_type", MCNBENCH_BUILD_TYPE);
    w.kv("opt_flags", MCNBENCH_OPT_FLAGS);
    w.kv("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    w.kv("workers", static_cast<std::uint64_t>(wl.workers));
    w.kv("repetitions", static_cast<std::uint64_t>(reps));
    w.kv("host_slowdown", slowdown);
    w.key("reference_digest");
    std::uint64_t combined = 0;
    for (auto d : ref.digests)
        combined = combined * 31 + d;
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(combined));
    w.value(hex);
    w.kv("paper_value", ref.paperValue);
    w.kv("paper_target", wl.paperTarget);
    w.endObject();
    w.endObject();
    std::printf("%s\n", os.str().c_str());
}

/**
 * A fixed chain of dependent multiply-adds: about 2.7 ms on an idle
 * core of the 4-core Xeon host the bounds were set on. Multiplier
 * latency alone sets its time at -O1 and above, so it takes longer
 * only when the host runs this CPU slower.
 */
double
calibrationSliceS()
{
    static volatile std::uint64_t sink = 1;
    auto t0 = Clock::now();
    std::uint64_t x = sink;
    for (int i = 0; i < 2000000; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink = x;
    return secondsSince(t0);
}

/** How much slower than its best the host ran during @p reps: the
 *  median calibration slice over the fastest one. */
double
hostSlowdown(const std::vector<Rep> &reps)
{
    std::vector<double> v;
    for (const auto &r : reps)
        v.push_back(r.calibS);
    return median(v) / *std::min_element(v.begin(), v.end());
}

/**
 * Pins the calling thread, and the engine workers it starts later, to
 * @p count consecutive CPUs of @p cpus starting at index @p first
 * (wrapping). On a shared virtual host a repetition can take 1.8 times
 * as long on one virtual CPU as on another for tens of seconds, while
 * another tenant loads the physical core under it; repetitions spread
 * over every CPU let fastestWallS() find a fast one.
 */
void
pinTo(const cpu_set_t &cpus, std::size_t first, unsigned count)
{
    std::vector<int> ids;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &cpus))
            ids.push_back(c);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned k = 0; k < std::min<std::size_t>(count, ids.size()); ++k)
        CPU_SET(ids[(first + k) % ids.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
}

/**
 * Run-call wall time of one repetition, each simulation taken at its
 * fastest timed repetition. Other tenants of a shared host slow it in
 * phases that last seconds to minutes; a per-repetition median moves
 * with them by up to a third.
 */
double
fastestWallS(const std::vector<Rep> &reps)
{
    std::vector<double> fastest = reps.front().simWallS;
    for (const auto &r : reps)
        for (std::size_t k = 0; k < fastest.size() && k < r.simWallS.size();
             ++k)
            fastest[k] = std::min(fastest[k], r.simWallS[k]);
    return std::accumulate(fastest.begin(), fastest.end(), 0.0);
}

/** Minimum timed repetitions, however short --seconds is. */
constexpr std::size_t minReps = 3;

int
runBenchmark(const Options &o, const Workload &wl)
{
    // Before anything else runs here, so the child starts small.
    double rssMb = o.trace ? 0.0 : scenarioPeakRssMb(wl, o.seed);

    // Keep freed memory in the process instead of handing it back to
    // the kernel, so repetitions reuse pages the reference run faulted
    // in. Without this, page faults take about a tenth of an
    // npb_bandwidth repetition, and on a virtual host their cost swings
    // with the other tenants' load.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

    // Reference run: warms caches and lazy set-up, and fixes the
    // digests every later repetition must reproduce.
    Rep ref;
    wl.run(ref, o.seed, true);

    std::vector<Rep> plain, traced;
    std::size_t attempted = ref.ok.size(), failed = 0;
    for (bool b : ref.ok)
        failed += !b;
    bool sane = std::isfinite(ref.paperValue) && ref.paperValue > 0;

    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    auto t0 = Clock::now();
    for (std::size_t i = 0;
         secondsSince(t0) < o.seconds ||
         plain.size() < minReps || (o.trace && traced.size() < minReps);
         ++i) {
        Rep r;
        r.traced = o.trace && i % 2 == 1;
        pinTo(allowed, (r.traced ? traced : plain).size(), wl.workers);
        r.calibS = calibrationSliceS();
        wl.run(r, o.seed, false);
        attempted += r.ok.size();
        for (std::size_t k = 0; k < r.ok.size(); ++k)
            failed += !r.ok[k] || k >= ref.digests.size() ||
                      r.digests[k] != ref.digests[k];
        (r.traced ? traced : plain).push_back(std::move(r));
    }
    sched_setaffinity(0, sizeof allowed, &allowed);

    double slowdown = hostSlowdown(plain);
    Metrics m;
    if (!o.trace) {
        sane = sane && rssMb > 0;
        auto med = [&](double Rep::*f) {
            std::vector<double> v;
            for (const auto &r : plain)
                v.push_back(r.*f);
            return median(v);
        };
        // Both times are rescaled to the host's best speed in the run.
        m.add("run_s", fastestWallS(plain) / slowdown, "s");
        m.add("setup_s", med(&Rep::setupS) / slowdown, "s");
        m.add("peak_rss_mb", rssMb, "MB");
        m.add("paper_err",
              std::fabs(std::log(ref.paperValue / wl.paperTarget)),
              "ln-ratio");
    } else {
        layerMetrics(m, wl, plain, traced);
    }

    printMeta(o, wl, ref, plain.size() + traced.size(), slowdown);
    std::ostringstream os;
    sim::json::Writer w(os, 0);
    w.beginObject();
    w.kv("correct", failed == 0 && sane);
    w.kv("attempted", static_cast<std::uint64_t>(attempted));
    w.kv("failed", static_cast<std::uint64_t>(failed));
    m.write(w);
    w.endObject();
    std::printf("%s\n", os.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    bool parsed = false;
    try {
        parsed = parseOptions(argc, argv, &o);
    } catch (const std::exception &) {
        // A malformed --seed or --seconds: reported as usage below.
    }
    if (!parsed) {
        std::fprintf(stderr,
                     "usage: mcnbench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }
    for (const auto &wl : workloads())
        if (o.workload == wl.name)
            return runBenchmark(o, wl);
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
}
