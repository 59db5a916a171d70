/**
 * @file
 * Flight-recorder trace ring implementation.
 */

#include "sim/trace_ring.hh"

#include <cstdlib>

namespace mcnsim::sim {

TraceRing &
TraceRing::instance()
{
    // MCNSIM_TRACE_RING=N sizes the process-wide ring at first use
    // (the CLI's --trace-ring flag calls setCapacity() instead).
    // analyze-ok: shard-static (process-wide trace ring, but tracing
    // clamps the ShardSet to one worker; capacity is set during static
    // init or CLI parsing)
    static TraceRing ring = [] {
        std::size_t cap = defaultCapacity;
        if (const char *env = std::getenv("MCNSIM_TRACE_RING")) {
            char *end = nullptr;
            unsigned long long v = std::strtoull(env, &end, 10);
            if (end != env && *end == '\0' && v > 0)
                cap = static_cast<std::size_t>(v);
        }
        return TraceRing(cap);
    }();
    return ring;
}

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    entries_.reserve(capacity_);
}

void
TraceRing::setCapacity(std::size_t n)
{
    capacity_ = n ? n : 1;
    clear();
    entries_.reserve(capacity_);
}

void
TraceRing::record(Tick when, std::string flag, std::string msg)
{
    recorded_++;
    if (entries_.size() < capacity_) {
        entries_.push_back(
            {when, std::move(flag), std::move(msg)});
        return;
    }
    entries_[head_] = {when, std::move(flag), std::move(msg)};
    head_ = (head_ + 1) % capacity_;
}

std::vector<TraceRecord>
TraceRing::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(entries_.size());
    // head_ is the oldest entry once the ring has wrapped.
    for (std::size_t i = 0; i < entries_.size(); ++i)
        out.push_back(entries_[(head_ + i) % entries_.size()]);
    return out;
}

void
TraceRing::dump(std::ostream &os) const
{
    if (entries_.empty())
        return;
    os << "---------- flight recorder (last " << entries_.size()
       << " of " << recorded_ << " trace events) ----------\n";
    for (const auto &r : snapshot())
        os << "  " << r.when << ": [" << r.flag << "] " << r.msg
           << "\n";
    os << "---------- end flight recorder ----------\n";
}

void
TraceRing::clear()
{
    entries_.clear();
    head_ = 0;
}

} // namespace mcnsim::sim
