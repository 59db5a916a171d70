/**
 * @file
 * Statistics package, a small cousin of gem5's: named scalar
 * counters, averages, queue-occupancy stats and rate helpers,
 * organised into per-object groups and dumpable as text or as JSON.
 * LogBuckets is the log-bucketed distribution core the flow
 * telemetry tables (sim/flow_stats.hh) build on.
 *
 * Usage:
 *
 *   Scalar txBytes{"txBytes", "bytes transmitted"};
 *   group.add(&txBytes);
 *   txBytes += pkt.size();
 *   registry.dump(std::cout);       // gem5-style text
 *   registry.dumpJson(out);         // machine-readable artifact
 *
 * The JSON schema is documented in README.md §Observability: one
 * top-level object with "schema_version" and "groups", each group
 * carrying its stats as typed objects ("scalar" / "average" /
 * "queue").
 */

#ifndef MCNSIM_SIM_STATS_HH
#define MCNSIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

/** Base for all statistics: a name, a description, and text/JSON
 *  output. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}

    virtual ~StatBase() = default;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Print "name value # desc" style lines. */
    virtual void print(std::ostream &os,
                       const std::string &prefix) const = 0;

    /** Write this stat as one JSON object ({"name":..., "type":...,
     *  ...}). The writer must be positioned where a value fits. */
    virtual void toJson(json::Writer &w) const = 0;

  protected:
    /** Shared "name"/"desc"/"type" members of the JSON object. */
    void jsonHeader(json::Writer &w, const char *type) const;

  private:
    std::string name_;
    std::string desc_;
};

/** A simple accumulating counter (double so it can count bytes,
 * packets, joules, ...). */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    double value() const { return value_; }

    void print(std::ostream &os,
               const std::string &prefix) const override;
    void toJson(json::Writer &w) const override;

  private:
    double value_ = 0.0;
};

/** Running average (sum / count). */
class Average : public StatBase
{
  public:
    using StatBase::StatBase;

    void sample(double v) { sum_ += v; count_++; }

    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void print(std::ostream &os,
               const std::string &prefix) const override;
    void toJson(json::Writer &w) const override;

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Log-bucketed counting core of the flow telemetry tables
 * (sim/flow_stats.hh): HDR-histogram-style
 * log-linear buckets over unsigned tick values. Values below
 * kSubBuckets land in unit-width buckets; above that each power-of-
 * two range splits into kSubBuckets linear subbuckets, so relative
 * quantization error stays under 1/kSubBuckets across the full
 * 64-bit range. Integer counts make merges commutative and
 * percentiles bit-reproducible regardless of sample order -- the
 * property the sharded engine's fold step relies on.
 */
class LogBuckets
{
  public:
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSubBuckets = 1u << kSubBits;

    void sample(std::uint64_t v);

    /** Fold @p other into this (integer adds; order-independent). */
    void merge(const LogBuckets &other);

    /** p-th percentile (0..100) with within-bucket linear
     *  interpolation, clamped to the exact observed [min, max]. */
    double percentile(double p) const;

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minSample() const { return count_ ? min_ : 0; }
    std::uint64_t maxSample() const { return max_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Bucket index for @p v (test / report introspection). */
    static std::size_t bucketIndex(std::uint64_t v);

    /** Inclusive lower bound of bucket @p idx. */
    static std::uint64_t bucketLow(std::size_t idx);

    /** Exclusive upper bound of bucket @p idx. */
    static std::uint64_t bucketHigh(std::size_t idx);

    /** Sparse view: (bucket index, count) for non-empty buckets in
     *  ascending index order. */
    std::vector<std::pair<std::size_t, std::uint64_t>> nonzero() const;

    /** Write the standard JSON body (count/sum/min/max/mean/
     *  percentiles/sparse buckets) into an open object. */
    void writeJsonBody(json::Writer &w) const;

  private:
    std::vector<std::uint64_t> buckets_; ///< grown to the max index
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

/**
 * Queue-occupancy stat: time-weighted-average level plus high
 * watermark. Owners call update(now, level) at every enqueue/
 * dequeue (gated behind FlowTelemetry::active() so disabled runs
 * pay one load + branch); the TWA integrates level over the time it
 * was held, so sparse updates are exact, not sampled. Exported as
 * JSON type "queue" with the raw integral so tools can recompute.
 */
class QueueStat : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    update(Tick now, std::uint64_t level)
    {
        area_ += static_cast<double>(now - lastTick_) *
                 static_cast<double>(lastLevel_);
        lastTick_ = now;
        lastLevel_ = level;
        if (level > peak_)
            peak_ = level;
        updates_++;
    }

    std::uint64_t peak() const { return peak_; }
    std::uint64_t updates() const { return updates_; }
    std::uint64_t lastLevel() const { return lastLevel_; }
    Tick lastTick() const { return lastTick_; }

    /** Time-weighted mean level over [0, last update]. */
    double
    timeWeightedMean() const
    {
        return lastTick_ ? area_ / static_cast<double>(lastTick_)
                         : 0.0;
    }

    void print(std::ostream &os,
               const std::string &prefix) const override;
    void toJson(json::Writer &w) const override;

  private:
    double area_ = 0.0; ///< integral of level over time (level*ticks)
    Tick lastTick_ = 0;
    std::uint64_t lastLevel_ = 0;
    std::uint64_t peak_ = 0;
    std::uint64_t updates_ = 0;
};

/**
 * A named group of statistics, typically one per SimObject. The
 * group does not own registered stats; owners embed them by value.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void add(StatBase *stat) { stats_.push_back(stat); }

    void print(std::ostream &os) const;

    /** Write {"name":..., "stats":[...]} for this group. */
    void toJson(json::Writer &w) const;

    const std::string &name() const { return name_; }
    const std::vector<StatBase *> &stats() const { return stats_; }

  private:
    std::string name_;
    std::vector<StatBase *> stats_;
};

/**
 * Registry of all stat groups in a simulation, for a gem5-style
 * stats dump at end of run.
 */
class StatRegistry
{
  public:
    void add(StatGroup *group) { groups_.push_back(group); }
    void dump(std::ostream &os) const;

    /** Machine-readable dump: one JSON document with every group
     *  and stat (schema in README.md §Observability). */
    void dumpJson(std::ostream &os) const;

    /** Write just the "groups" member (key + array) into an open
     *  JSON object, for callers composing a larger document
     *  (Simulation::dumpStatsJson wraps this with run metadata). */
    void writeGroups(json::Writer &w) const;

    /** Registered groups, for walkers like
     *  Simulation::sampleStatsToTimeline. */
    const std::vector<StatGroup *> &groups() const { return groups_; }

  private:
    std::vector<StatGroup *> groups_;
};

/** Bytes + window → Gbit/s, the unit the paper's Fig. 8 uses. */
inline double
toGbps(double bytes, Tick window)
{
    double secs = ticksToSeconds(window);
    return secs > 0 ? bytes * 8.0 / secs / 1e9 : 0.0;
}

/** Bytes + window → GB/s, the unit the paper's Sec. VII uses. */
inline double
toGBps(double bytes, Tick window)
{
    double secs = ticksToSeconds(window);
    return secs > 0 ? bytes / secs / 1e9 : 0.0;
}

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_STATS_HH
