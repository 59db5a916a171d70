/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/json.hh"
#include "sim/stats.hh"

using namespace mcnsim::sim;

namespace {

/** Serialize one stat and parse the result back. */
json::Value
roundTrip(const StatBase &s)
{
    std::ostringstream os;
    json::Writer w(os);
    s.toJson(w);
    return json::parse(os.str());
}

} // namespace

TEST(Scalar, AccumulatesAndResets)
{
    Scalar s("bytes", "bytes moved");
    s += 10;
    s += 5.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 16.5);
}

TEST(Average, MeanOverSamples)
{
    Average a("lat", "latency");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
}

TEST(StatGroup, PrintsAllMembers)
{
    StatGroup g("node0.nic");
    Scalar s1("txBytes", "transmitted bytes");
    Scalar s2("rxBytes", "received bytes");
    g.add(&s1);
    g.add(&s2);
    s1 += 100;
    s2 += 200;

    std::ostringstream os;
    g.print(os);
    auto out = os.str();
    EXPECT_NE(out.find("node0.nic.txBytes"), std::string::npos);
    EXPECT_NE(out.find("node0.nic.rxBytes"), std::string::npos);
    EXPECT_NE(out.find("transmitted bytes"), std::string::npos);
}

TEST(StatRegistry, DumpAndResetAll)
{
    StatRegistry reg;
    StatGroup g1("a"), g2("b");
    Scalar s1("x", "x"), s2("y", "y");
    g1.add(&s1);
    g2.add(&s2);
    reg.add(&g1);
    reg.add(&g2);
    s1 += 5;
    s2 += 7;

    std::ostringstream os;
    reg.dump(os);
    EXPECT_NE(os.str().find("a.x"), std::string::npos);
    EXPECT_NE(os.str().find("b.y"), std::string::npos);
}

TEST(LogBuckets, BucketMathCoversTheRange)
{
    // Below kSubBuckets: unit-width buckets, index == value.
    for (std::uint64_t v : {0ull, 1ull, 15ull}) {
        EXPECT_EQ(LogBuckets::bucketIndex(v), v);
        EXPECT_EQ(LogBuckets::bucketLow(v), v);
        EXPECT_EQ(LogBuckets::bucketHigh(v), v + 1);
    }
    // At and above: each power-of-two range splits into kSubBuckets
    // linear subbuckets; every value lands in [low, high).
    const std::uint64_t probes[] = {16, 17, 31, 32, 1000,
                                    std::uint64_t{1} << 20,
                                    (std::uint64_t{1} << 40) + 12345,
                                    ~std::uint64_t{0} >> 1};
    for (std::uint64_t v : probes) {
        std::size_t idx = LogBuckets::bucketIndex(v);
        EXPECT_LE(LogBuckets::bucketLow(idx), v) << v;
        EXPECT_GT(LogBuckets::bucketHigh(idx), v) << v;
        // Relative bucket width stays under 1/kSubBuckets.
        double width = static_cast<double>(
            LogBuckets::bucketHigh(idx) - LogBuckets::bucketLow(idx));
        EXPECT_LE(width / static_cast<double>(v),
                  1.0 / LogBuckets::kSubBuckets + 1e-12)
            << v;
    }
    // Bucket indices are monotone in the value.
    EXPECT_LT(LogBuckets::bucketIndex(16), LogBuckets::bucketIndex(32));
    EXPECT_LT(LogBuckets::bucketIndex(100),
              LogBuckets::bucketIndex(1000));
}

TEST(LogBuckets, MergeIsOrderIndependent)
{
    // The sharded fold relies on commutative merges: A+B == B+A,
    // bit for bit, including percentiles.
    LogBuckets a, b, ab, ba;
    for (std::uint64_t v : {3ull, 700ull, 1ull << 30})
        a.sample(v);
    for (std::uint64_t v : {5ull, 5ull, 90000ull})
        b.sample(v);
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.count(), 6u);
    EXPECT_EQ(ab.count(), ba.count());
    EXPECT_EQ(ab.sum(), ba.sum());
    EXPECT_EQ(ab.minSample(), 3u);
    EXPECT_EQ(ab.maxSample(), std::uint64_t{1} << 30);
    EXPECT_EQ(ab.nonzero(), ba.nonzero());
    for (double p : {50.0, 90.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(ab.percentile(p), ba.percentile(p));
}

TEST(LogBuckets, PercentilesClampToObservedExtremes)
{
    LogBuckets lb;
    EXPECT_DOUBLE_EQ(lb.percentile(50), 0.0); // empty
    lb.sample(1000);
    EXPECT_DOUBLE_EQ(lb.percentile(50), 1000.0);
    EXPECT_DOUBLE_EQ(lb.percentile(99.9), 1000.0);
    for (int i = 0; i < 99; ++i)
        lb.sample(10);
    // 99 fast samples, 1 slow: the tail percentile must surface the
    // outlier, the median must stay inside the fast samples' unit
    // bucket [10, 11).
    EXPECT_GE(lb.percentile(50), 10.0);
    EXPECT_LT(lb.percentile(50), 11.0);
    EXPECT_DOUBLE_EQ(lb.percentile(99.9), 1000.0);
}

TEST(QueueStat, TimeWeightedAverageAndPeak)
{
    QueueStat q("q.depth", "test queue");
    // Level 4 over [0,10), level 10 over [10,15), level 0 after.
    q.update(0, 4);
    q.update(10, 10);
    q.update(15, 0);
    q.update(20, 0);
    // area = 10*4 + 5*10 + 5*0 = 90 over 20 ticks.
    EXPECT_DOUBLE_EQ(q.timeWeightedMean(), 90.0 / 20.0);
    EXPECT_EQ(q.peak(), 10u);
    EXPECT_EQ(q.updates(), 4u);
    EXPECT_EQ(q.lastLevel(), 0u);
    EXPECT_EQ(q.lastTick(), 20u);

    auto v = roundTrip(q);
    EXPECT_EQ(v["type"].asString(), "queue");
    EXPECT_DOUBLE_EQ(v["twa"].asNumber(), 4.5);
    EXPECT_DOUBLE_EQ(v["peak"].asNumber(), 10.0);
}

TEST(JsonStats, ScalarRoundTrips)
{
    Scalar s("txBytes", "transmitted bytes");
    s += 16.5;
    auto v = roundTrip(s);
    EXPECT_EQ(v["name"].asString(), "txBytes");
    EXPECT_EQ(v["type"].asString(), "scalar");
    EXPECT_EQ(v["desc"].asString(), "transmitted bytes");
    EXPECT_DOUBLE_EQ(v["value"].asNumber(), 16.5);
}

TEST(JsonStats, AverageRoundTrips)
{
    Average a("lat", "latency");
    a.sample(10);
    a.sample(30);
    auto v = roundTrip(a);
    EXPECT_EQ(v["type"].asString(), "average");
    EXPECT_DOUBLE_EQ(v["count"].asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(v["sum"].asNumber(), 40.0);
    EXPECT_DOUBLE_EQ(v["mean"].asNumber(), 20.0);
}

TEST(JsonStats, RegistryDumpJsonParses)
{
    StatRegistry reg;
    StatGroup g1("node0.nic"), g2("node1.nic");
    Scalar s1("tx", "tx bytes");
    Average a1("lat", "latency");
    QueueStat q1("q", "queue depth");
    g1.add(&s1);
    g1.add(&a1);
    g2.add(&q1);
    reg.add(&g1);
    reg.add(&g2);
    s1 += 99;
    a1.sample(7);
    q1.update(5, 3);

    std::ostringstream os;
    reg.dumpJson(os);
    auto v = json::parse(os.str());
    EXPECT_DOUBLE_EQ(v["schema_version"].asNumber(), 1.0);
    ASSERT_EQ(v["groups"].size(), 2u);
    EXPECT_EQ(v["groups"][0]["name"].asString(), "node0.nic");
    EXPECT_EQ(v["groups"][0]["stats"].size(), 2u);
    EXPECT_DOUBLE_EQ(
        v["groups"][0]["stats"][0]["value"].asNumber(), 99.0);
    EXPECT_EQ(
        v["groups"][1]["stats"][0]["type"].asString(), "queue");
}

TEST(RateHelpers, GbpsAndGBps)
{
    // 1.25 GB over 1 simulated second = 10 Gbit/s.
    EXPECT_DOUBLE_EQ(toGbps(1.25e9, oneSec), 10.0);
    EXPECT_DOUBLE_EQ(toGBps(1.25e9, oneSec), 1.25);
    EXPECT_DOUBLE_EQ(toGbps(100, 0), 0.0);
}
