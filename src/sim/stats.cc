/**
 * @file
 * Statistics package implementation.
 */

#include "sim/stats.hh"

#include <iomanip>

namespace mcnsim::sim {

void
StatBase::jsonHeader(json::Writer &w, const char *type) const
{
    w.kv("name", name_);
    w.kv("type", type);
    w.kv("desc", desc_);
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(48) << (prefix + name()) << " "
       << std::setw(16) << value_ << " # " << desc() << "\n";
}

void
Scalar::toJson(json::Writer &w) const
{
    w.beginObject();
    jsonHeader(w, "scalar");
    w.kv("value", value_);
    w.endObject();
}

void
Average::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(48) << (prefix + name()) << " "
       << std::setw(16) << mean() << " # " << desc() << " (n="
       << count_ << ")\n";
}

void
Average::toJson(json::Writer &w) const
{
    w.beginObject();
    jsonHeader(w, "average");
    w.kv("count", count_);
    w.kv("sum", sum_);
    w.kv("mean", mean());
    w.endObject();
}

// ---------------------------------------------------------------------
// LogBuckets
// ---------------------------------------------------------------------

std::size_t
LogBuckets::bucketIndex(std::uint64_t v)
{
    if (v < kSubBuckets)
        return static_cast<std::size_t>(v);
    // Highest set bit k >= kSubBits: range [2^k, 2^(k+1)) splits
    // into kSubBuckets linear subbuckets of width 2^(k-kSubBits).
    unsigned k = 63u - static_cast<unsigned>(__builtin_clzll(v));
    std::uint64_t sub = (v - (std::uint64_t{1} << k)) >>
                        (k - kSubBits);
    return static_cast<std::size_t>(
        (std::uint64_t{k - kSubBits + 1} << kSubBits) + sub);
}

std::uint64_t
LogBuckets::bucketLow(std::size_t idx)
{
    if (idx < kSubBuckets)
        return idx;
    std::uint64_t major = (idx >> kSubBits) + kSubBits - 1;
    std::uint64_t sub = idx & (kSubBuckets - 1);
    return (std::uint64_t{1} << major) +
           (sub << (major - kSubBits));
}

std::uint64_t
LogBuckets::bucketHigh(std::size_t idx)
{
    if (idx < kSubBuckets)
        return idx + 1;
    std::uint64_t major = (idx >> kSubBits) + kSubBits - 1;
    return bucketLow(idx) + (std::uint64_t{1} << (major - kSubBits));
}

void
LogBuckets::sample(std::uint64_t v)
{
    std::size_t idx = bucketIndex(v);
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    buckets_[idx]++;
    count_++;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

void
LogBuckets::merge(const LogBuckets &other)
{
    if (other.count_ == 0)
        return;
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
LogBuckets::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    double target = p / 100.0 * static_cast<double>(count_);
    double seen = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        double n = static_cast<double>(buckets_[i]);
        if (n > 0.0 && seen + n >= target) {
            double frac = (target - seen) / n;
            double lo = static_cast<double>(bucketLow(i));
            double hi = static_cast<double>(bucketHigh(i));
            double v = lo + (hi - lo) * frac;
            return std::clamp(v, static_cast<double>(min_),
                              static_cast<double>(max_));
        }
        seen += n;
    }
    return static_cast<double>(max_);
}

std::vector<std::pair<std::size_t, std::uint64_t>>
LogBuckets::nonzero() const
{
    std::vector<std::pair<std::size_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        if (buckets_[i])
            out.emplace_back(i, buckets_[i]);
    return out;
}

void
LogBuckets::writeJsonBody(json::Writer &w) const
{
    w.kv("count", count_);
    w.kv("sum", sum_);
    w.kv("min", minSample());
    w.kv("max", max_);
    w.kv("mean", mean());
    w.key("percentiles");
    w.beginObject();
    w.kv("p50", percentile(50));
    w.kv("p90", percentile(90));
    w.kv("p99", percentile(99));
    w.kv("p999", percentile(99.9));
    w.endObject();
    // Sparse encoding: [bucket-low, count] pairs; empty buckets are
    // the common case in a log-bucketed 64-bit range.
    w.key("buckets");
    w.beginArray();
    for (const auto &[idx, n] : nonzero()) {
        w.beginArray();
        w.value(bucketLow(idx));
        w.value(n);
        w.endArray();
    }
    w.endArray();
}

// ---------------------------------------------------------------------
// QueueStat
// ---------------------------------------------------------------------

void
QueueStat::print(std::ostream &os, const std::string &prefix) const
{
    os << std::left << std::setw(48) << (prefix + name())
       << " twa=" << timeWeightedMean() << " peak=" << peak_
       << " updates=" << updates_ << " # " << desc() << "\n";
}

void
QueueStat::toJson(json::Writer &w) const
{
    w.beginObject();
    jsonHeader(w, "queue");
    w.kv("twa", timeWeightedMean());
    w.kv("peak", peak_);
    w.kv("updates", updates_);
    w.kv("area", area_);
    w.kv("last_level", lastLevel_);
    w.kv("last_tick", lastTick_);
    w.endObject();
}

void
StatGroup::print(std::ostream &os) const
{
    for (const auto *s : stats_)
        s->print(os, name_ + ".");
}

void
StatGroup::toJson(json::Writer &w) const
{
    w.beginObject();
    w.kv("name", name_);
    w.key("stats");
    w.beginArray();
    for (const auto *s : stats_)
        s->toJson(w);
    w.endArray();
    w.endObject();
}

void
StatRegistry::dump(std::ostream &os) const
{
    os << "---------- Begin Simulation Statistics ----------\n";
    for (const auto *g : groups_)
        g->print(os);
    os << "---------- End Simulation Statistics   ----------\n";
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema_version", std::uint64_t{1});
    writeGroups(w);
    w.endObject();
    os << "\n";
}

void
StatRegistry::writeGroups(json::Writer &w) const
{
    w.key("groups");
    w.beginArray();
    for (const auto *g : groups_)
        g->toJson(w);
    w.endArray();
}

} // namespace mcnsim::sim
