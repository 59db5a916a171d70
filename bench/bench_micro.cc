/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * event queue churn, internet checksum, SRAM message rings, the TCP
 * receive queue, condition wakeups, interleave address math,
 * hardware TSO segmentation, and the sharded engine's per-window
 * cost. These guard the simulator's own performance (a full
 * Fig. 8(a) sweep pushes tens of millions of events).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "mcn/sram_buffer.hh"
#include "mem/interleave.hh"
#include "net/checksum.hh"
#include "net/ethernet.hh"
#include "net/ipv4.hh"
#include "net/recv_queue.hh"
#include "net/tcp.hh"
#include "netdev/ethernet_link.hh"
#include "netdev/ethernet_switch.hh"
#include "netdev/nic.hh"
#include "sim/event_queue.hh"
#include "sim/shard.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "sim/timer.hh"

using namespace mcnsim;

namespace {

/** Frame sink for the link/switch datapath benches. */
class NullEndpoint : public netdev::EtherEndpoint
{
  public:
    void receiveFrame(net::PacketPtr) override {}
};

} // namespace

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            q.schedule([&] { sink++; }, q.curTick() + 100 + i);
        q.run();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_EventChain(benchmark::State &state)
{
    // Each handler schedules its successor, the next event to run,
    // ahead of a standing backlog of far-future events: the pattern
    // of MCN polling and driver work on a core, which
    // BM_EventQueueScheduleRun's batch of 64 misses.
    sim::EventQueue q;
    for (int i = 0; i < 64; ++i)
        q.schedule([] {}, sim::maxTick / 2 + i, "bench.backlog");
    struct Link
    {
        sim::EventQueue *q;
        int *left;

        void
        operator()() const
        {
            if (--*left > 0)
                q->scheduleIn(*this, 10, "bench.chain");
        }
    };
    for (auto _ : state) {
        int left = 64;
        q.scheduleIn(Link{&q, &left}, 10, "bench.chain");
        q.run(q.curTick() + 64 * 10);
    }
    benchmark::DoNotOptimize(q.eventsProcessed());
}
BENCHMARK(BM_EventChain);

static void
BM_Checksum(benchmark::State &state)
{
    std::vector<std::uint8_t> data(
        static_cast<std::size_t>(state.range(0)), 0xa5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            net::checksum(data.data(), data.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_Checksum)->Arg(64)->Arg(1500)->Arg(9000)->Arg(65536);

static void
BM_ManagedEventScheduleRun(benchmark::State &state)
{
    // Like BM_EventQueueScheduleRun, but half the events are
    // descheduled before the drain, exercising the lazy-deletion
    // stale path and the pooled-event recycle-on-deschedule path.
    sim::EventQueue q;
    std::uint64_t sink = 0;
    std::vector<sim::Event *> cancel;
    cancel.reserve(32);
    for (auto _ : state) {
        cancel.clear();
        for (int i = 0; i < 64; ++i) {
            auto *ev = q.schedule([&] { sink++; },
                                  q.curTick() + 100 + i, "bench.ev");
            if (i & 1)
                cancel.push_back(ev);
        }
        for (auto *ev : cancel)
            q.deschedule(ev);
        q.run();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ManagedEventScheduleRun);

static void
BM_PacketClone(benchmark::State &state)
{
    auto pkt = net::Packet::makePattern(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto c = pkt->clone();
        benchmark::DoNotOptimize(c);
    }
}
// Copy-on-write: all sizes should cost the same (no byte copies).
BENCHMARK(BM_PacketClone)->Arg(64)->Arg(1500)->Arg(9000);

static void
BM_PacketAlloc(benchmark::State &state)
{
    // Allocate-and-drop: steady state must run entirely from the
    // buffer pool's thread-local free lists (zero malloc/free).
    std::size_t n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto pkt = net::Packet::makePattern(n);
        benchmark::DoNotOptimize(pkt);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_PacketAlloc)->Arg(64)->Arg(1500)->Arg(9000);

static void
BM_SwitchForward(benchmark::State &state)
{
    // Learned unicast through a P-port switch: FIB lookup + egress
    // + link serialization, rotating the destination so the inline
    // flow cache sees realistic (imperfect) locality.
    using namespace netdev;
    std::uint32_t ports = static_cast<std::uint32_t>(state.range(0));
    sim::Simulation s;
    EthernetSwitch sw(s, "sw", ports);
    std::vector<std::unique_ptr<EthernetLink>> links;
    std::vector<std::unique_ptr<NullEndpoint>> hosts;
    for (std::uint32_t i = 0; i < ports; ++i) {
        links.push_back(std::make_unique<EthernetLink>(
            s, "l" + std::to_string(i), 100e9, 0));
        hosts.push_back(std::make_unique<NullEndpoint>());
        sw.attachLink(i, *links[i]);
        links[i]->attachB(hosts[i].get());
    }
    auto frame = [](net::MacAddr dst, net::MacAddr src) {
        auto pkt = net::Packet::makePattern(1500);
        net::EthernetHeader eh;
        eh.dst = dst;
        eh.src = src;
        eh.push(*pkt);
        return pkt;
    };
    // Teach the FIB every station before timing.
    for (std::uint32_t i = 0; i < ports; ++i) {
        links[i]->sendFrom(hosts[i].get(),
                           frame(net::MacAddr::broadcast(),
                                 net::MacAddr::fromId(i)));
        s.run();
    }
    std::uint32_t dst = 1;
    for (auto _ : state) {
        links[0]->sendFrom(hosts[0].get(),
                           frame(net::MacAddr::fromId(dst),
                                 net::MacAddr::fromId(0)));
        s.run();
        dst = (dst + 1 == ports) ? 1 : dst + 1;
    }
}
BENCHMARK(BM_SwitchForward)->Arg(2)->Arg(16)->Arg(64);

static void
BM_TcpTimerChurn(benchmark::State &state)
{
    // The RTO lifecycle: every timer is armed, re-armed (each ACK
    // moves the deadline), and half are canceled before firing --
    // the arm/cancel-heavy mix TCP puts on its timers.
    sim::EventQueue q;
    sim::TimerList w(q, "bench.timer");
    constexpr int n = 64;
    sim::Timer nodes[n];
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < n; ++i)
            w.arm(nodes[i], q.curTick() + 1000 + i,
                  [&] { sink++; });
        for (int i = 0; i < n; ++i)
            w.arm(nodes[i], q.curTick() + 2000 + i,
                  [&] { sink++; });
        for (int i = 0; i < n; ++i)
            if (i & 1)
                nodes[i].cancel();
        q.run();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_TcpTimerChurn);

static void
BM_MessageRingRoundTrip(benchmark::State &state)
{
    // The drivers' path: enqueue a packet, dequeue a view of its
    // block. No payload byte is copied.
    mcn::MessageRing ring(48 * 1024);
    auto frame = net::Packet::makePattern(
        static_cast<std::size_t>(state.range(0)), 7);
    for (auto _ : state) {
        ring.enqueue(*frame);
        benchmark::DoNotOptimize(ring.dequeuePacket());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}
BENCHMARK(BM_MessageRingRoundTrip)->Arg(1500)->Arg(9000);

static void
BM_TcpRecvQueue(benchmark::State &state)
{
    // The receive side of a bulk stream: eight 9000 B segments are
    // queued and drained unread (recvDrain), as the MPI pump does.
    // Arg 0 times the slice queue; arg 1 the ByteRing it replaced,
    // which copied every segment in.
    std::vector<net::PacketPtr> segs;
    for (std::uint8_t i = 0; i < 8; ++i)
        segs.push_back(net::Packet::makePattern(9000, i));
    const bool ring = state.range(0) == 1;
    net::RecvQueue q;
    net::ByteRing r;
    for (auto _ : state) {
        for (const auto &seg : segs) {
            if (ring)
                r.append(seg->cdata(), seg->size());
            else
                q.append(seg->view());
        }
        benchmark::ClobberMemory(); // the ring's copies are the work
        if (ring)
            r.popFront(r.size());
        else
            q.popFront(q.size());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * segs.size() * 9000));
}
BENCHMARK(BM_TcpRecvQueue)->Arg(0)->Arg(1);

static void
BM_ConditionNotifyAll(benchmark::State &state)
{
    // Every delivered segment and ACK notifies a socket condition.
    // Arg 0: nobody waits (notifyAll must be a no-op); arg 1: one
    // waiter is woken and re-waits each round.
    sim::EventQueue q;
    sim::Condition cv(q);
    std::uint64_t wakes = 0;
    if (state.range(0) == 1) {
        auto waiter = [](sim::Condition &c,
                         std::uint64_t &n) -> sim::Task<void> {
            for (;;) {
                co_await c.wait();
                ++n;
            }
        };
        sim::spawnDetached(q, waiter(cv, wakes));
        q.run();
    }
    for (auto _ : state) {
        cv.notifyAll();
        q.run();
    }
    benchmark::DoNotOptimize(wakes);
}
BENCHMARK(BM_ConditionNotifyAll)->Arg(0)->Arg(1);

static void
BM_InterleaveMath(benchmark::State &state)
{
    mem::InterleaveMap map(4);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::uint64_t k = 0; k < 64; ++k)
            sink += map.strideAddr(k & 3, 4096, k);
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_InterleaveMath);

static void
BM_TsoSegmentation(benchmark::State &state)
{
    using namespace net;
    // Build a 40 KB TSO super-frame once per iteration batch.
    auto make_frame = [] {
        auto pkt = Packet::makePattern(40 * 1024);
        pkt->tsoMss = 1460;
        TcpHeader th;
        th.srcPort = 1;
        th.dstPort = 2;
        th.push(*pkt, Ipv4Addr(1, 1, 1, 1), Ipv4Addr(2, 2, 2, 2),
                true);
        Ipv4Header ih;
        ih.src = Ipv4Addr(1, 1, 1, 1);
        ih.dst = Ipv4Addr(2, 2, 2, 2);
        ih.totalLength = static_cast<std::uint16_t>(
            pkt->size() + Ipv4Header::size);
        ih.push(*pkt, true);
        EthernetHeader eh;
        eh.dst = MacAddr::fromId(2);
        eh.src = MacAddr::fromId(1);
        eh.push(*pkt);
        return pkt;
    };
    auto frame = make_frame();
    for (auto _ : state) {
        auto segs = netdev::Nic::segmentTso(frame);
        benchmark::DoNotOptimize(segs);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 40 * 1024);
}
BENCHMARK(BM_TsoSegmentation);

static void
BM_ShardWindow(benchmark::State &state)
{
    // The sharded engine's cost per window: 85 shards (a 64-node fat
    // tree's count) and sparse mail -- four balls hopping to a random
    // shard one lookahead out, so every window holds four events and
    // four posts. The window loop, not event work, dominates.
    constexpr std::size_t shards = 85;
    constexpr sim::Tick lookahead = sim::oneUs;
    constexpr sim::Tick windowsPerRun = 64;
    sim::ShardSet set;
    std::vector<std::unique_ptr<sim::EventQueue>> queues;
    for (std::size_t i = 0; i < shards; ++i) {
        queues.push_back(std::make_unique<sim::EventQueue>("shard"));
        set.addQueue(queues.back().get());
        if (i > 0)
            set.addEdge(0, i, lookahead);
    }
    std::function<void(std::size_t, std::uint32_t)> hop =
        [&](std::size_t at, std::uint32_t ball) {
            ball = ball * 1664525u + 1013904223u;
            const std::size_t to = (ball >> 8) % shards;
            set.post(at, to, queues[at]->curTick() + lookahead,
                     sim::EventPriority::Default, "bench.ball",
                     [&hop, to, ball] { hop(to, ball); });
        };
    for (std::uint32_t b = 0; b < 4; ++b) {
        const std::size_t at = b * 21;
        queues[at]->schedule([&hop, at, b] { hop(at, b + 1); }, 0,
                             "bench.serve");
    }
    const auto workers = static_cast<unsigned>(state.range(0));
    sim::Tick until = 0;
    for (auto _ : state) {
        until += windowsPerRun * lookahead;
        set.run(until, workers);
    }
    state.counters["ops"] = benchmark::Counter(
        static_cast<double>(set.windowsRun()),
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ShardWindow)->Arg(1)->Arg(2);

namespace {

/** Console output plus a captured (name, real time) per run, so
 *  the --json artifact can list every microbenchmark. */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const auto &run : reports) {
            if (run.error_occurred ||
                run.run_type == Run::RT_Aggregate)
                continue;
            // Keep the fastest repetition per benchmark: on a shared
            // machine the minimum is the least-contended sample, so
            // the artifact tracks the code, not the neighbors.
            auto it = std::find_if(
                runs.begin(), runs.end(), [&](const auto &r) {
                    return r.first == run.benchmark_name();
                });
            double t = run.GetAdjustedRealTime();
            // A bench that does several operations per iteration
            // counts them in an "ops" counter: record time per op.
            if (auto ops = run.counters.find("ops");
                ops != run.counters.end() && ops->second.value > 0)
                t /= ops->second.value;
            if (it == runs.end())
                runs.emplace_back(run.benchmark_name(), t);
            else
                it->second = std::min(it->second, t);
        }
        ConsoleReporter::ReportRuns(reports);
    }

    std::vector<std::pair<std::string, double>> runs;
};

/** JSON metric keys can't be arbitrary display names; flatten
 *  "BM_Checksum/1500" to "BM_Checksum_1500". */
std::string
metricKey(std::string name)
{
    std::replace(name.begin(), name.end(), '/', '_');
    return name;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mcnsim;
    bool quick = bench::quickMode(argc, argv);
    unsigned threads = bench::threadsArg(argc, argv);
    bench::BenchReport rep("micro", quick);
    rep.config("threads", threads ? threads : 1);

    // Strip our flags before handing argv to google-benchmark,
    // which rejects unknown arguments.
    std::vector<char *> bench_argv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--quick" || a == "--full")
            continue;
        if (a == "--json") {
            ++i; // skip the path operand too
            continue;
        }
        if (a.rfind("--json=", 0) == 0)
            continue;
        bench_argv.push_back(argv[i]);
    }
    // Default to a few repetitions (artifact keeps the fastest; see
    // CaptureReporter) unless the caller picked a count themselves.
    static char default_reps[] = "--benchmark_repetitions=5";
    bool has_reps = false;
    for (char *a : bench_argv)
        if (std::string(a).rfind("--benchmark_repetitions", 0) == 0)
            has_reps = true;
    if (!has_reps)
        bench_argv.push_back(default_reps);

    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data()))
        return 1;

    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    for (const auto &[name, real_time] : reporter.runs)
        rep.metric(metricKey(name) + "_ns", real_time);
    return bench::writeReport(rep, argc, argv);
}
