/**
 * @file
 * Timeline implementation: track registration and the Chrome
 * trace-event JSON export.
 */

#include "sim/timeline.hh"

#include <algorithm>
#include <numeric>
#include <set>

#include "sim/json.hh"

namespace mcnsim::sim {

Timeline &
Timeline::instance()
{
    // analyze-ok: shard-static (process-wide recorder, but
    // ShardSet::run clamps to one worker while the timeline is active;
    // start()/stop() happen outside run windows)
    static Timeline tl;
    return tl;
}

Timeline::Timeline(std::size_t capacity) : capacity_(capacity) {}

void
Timeline::enable(bool on)
{
    enabled_ = on;
    if (this == &instance())
        detail::timelineActive = on;
    if (on && records_.capacity() == 0)
        records_.reserve(std::min<std::size_t>(capacity_, 1u << 16));
}

Timeline::TrackId
Timeline::track(const std::string &process, const std::string &thread)
{
    auto key = std::make_pair(process, thread);
    auto it = byName_.find(key);
    if (it != byName_.end())
        return it->second;

    auto [pit, fresh] = pidByProcess_.try_emplace(
        process,
        static_cast<std::uint32_t>(pidByProcess_.size() + 1));
    (void)fresh;
    const std::uint32_t pid = pit->second;
    const std::uint32_t tid = ++nextTid_[pid];

    auto id = static_cast<TrackId>(tracks_.size());
    tracks_.push_back(Track{process, thread, pid, tid});
    byName_.emplace(std::move(key), id);
    return id;
}

Timeline::TrackId
Timeline::trackFor(const std::string &component)
{
    auto dot = component.find('.');
    return track(dot == std::string::npos ? component
                                          : component.substr(0, dot),
                 component);
}

bool
Timeline::room()
{
    if (records_.size() < capacity_) [[likely]]
        return true;
    dropped_++;
    return false;
}

void
Timeline::span(TrackId t, const char *name, Tick start, Tick end)
{
    if (!enabled_ || !room())
        return;
    if (end < start)
        end = start;
    records_.push_back(Record{start, end, 0, name, t, Phase::Span});
}

void
Timeline::counter(TrackId t, const char *name, Tick when, double value)
{
    if (!enabled_ || !room())
        return;
    records_.push_back(
        Record{when, when, value, name, t, Phase::Counter});
}

void
Timeline::instant(TrackId t, const char *name, Tick when)
{
    if (!enabled_ || !room())
        return;
    records_.push_back(Record{when, when, 0, name, t, Phase::Instant});
}

void
Timeline::setCapacity(std::size_t max_events)
{
    capacity_ = max_events;
    if (records_.size() > capacity_) {
        dropped_ += records_.size() - capacity_;
        records_.resize(capacity_);
    }
}

void
Timeline::clear()
{
    records_.clear();
    dropped_ = 0;
}

void
Timeline::exportJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    // Sort by start tick (stably, so same-tick records keep record
    // order): Perfetto tolerates out-of-order events, but a sorted
    // stream keeps ts monotone per thread, which our tests and
    // timeline_summary.py check.
    std::vector<std::uint32_t> order(records_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return records_[a].start < records_[b].start;
                     });

    std::set<TrackId> used;
    for (const Record &r : records_)
        used.insert(r.track);

    json::Writer w(os, 1);
    w.beginObject();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData");
    w.beginObject();
    w.kv("tool", "mcnsim");
    w.kv("time_unit", "us (1 tick = 1 ps)");
    w.kv("dropped_events", dropped_);
    for (const auto &[k, v] : meta)
        w.kv(k, v);
    w.endObject();
    w.key("traceEvents");
    w.beginArray();

    // Metadata rows first: name every referenced process and thread
    // so the Perfetto UI shows component names, not bare pids/tids.
    std::set<std::uint32_t> namedPids;
    for (TrackId id : used) {
        const Track &t = tracks_[id];
        if (namedPids.insert(t.pid).second) {
            w.beginObject();
            w.kv("name", "process_name");
            w.kv("ph", "M");
            w.kv("pid", std::uint64_t{t.pid});
            w.kv("tid", std::uint64_t{0});
            w.key("args");
            w.beginObject();
            w.kv("name", t.process);
            w.endObject();
            w.endObject();
        }
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", std::uint64_t{t.pid});
        w.kv("tid", std::uint64_t{t.tid});
        w.key("args");
        w.beginObject();
        w.kv("name", t.thread);
        w.endObject();
        w.endObject();
    }

    for (std::uint32_t idx : order) {
        const Record &r = records_[idx];
        const Track &t = tracks_[r.track];
        w.beginObject();
        // Trace-event counters are keyed by (pid, name), never tid:
        // qualify a counter with its thread so two components of one
        // process never merge into one Perfetto track.
        if (r.phase == Phase::Counter)
            w.kv("name", t.thread + "." + r.name);
        else
            w.kv("name", r.name);
        w.kv("pid", std::uint64_t{t.pid});
        w.kv("tid", std::uint64_t{t.tid});
        w.kv("ts", ticksToUs(r.start));
        switch (r.phase) {
          case Phase::Span:
            w.kv("ph", "X");
            w.kv("dur", ticksToUs(r.end - r.start));
            break;
          case Phase::Counter:
            w.kv("ph", "C");
            w.key("args");
            w.beginObject();
            w.kv("value", r.value);
            w.endObject();
            break;
          case Phase::Instant:
            w.kv("ph", "i");
            w.kv("s", "t");
            break;
        }
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace mcnsim::sim
