/**
 * @file
 * BandwidthArbiter implementation: analytic processor sharing with
 * per-flow caps.
 */

#include "mem/bandwidth_arbiter.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::mem {

namespace {
// Flows complete when this many bytes (or fewer) remain; guards
// against floating point dust never reaching exactly zero.
constexpr double completionSlack = 0.5;
} // namespace

BandwidthArbiter::BandwidthArbiter(sim::Simulation &s, std::string name,
                                   double peak_bps, double efficiency)
    : sim::SimObject(s, std::move(name)), peakBps_(peak_bps),
      efficiency_(efficiency)
{
    if (peak_bps <= 0.0 || efficiency <= 0.0 || efficiency > 1.0)
        sim::fatal(this->name(), ": bad bandwidth parameters");
    regStat(&statBytes_);
    regStat(&statFlows_);
    regStat(&statActiveQ_);
}

double
BandwidthArbiter::effectiveBps() const
{
    return peakBps_ * efficiency_ * std::max(0.05, 1.0 - background_);
}

double
BandwidthArbiter::utilization() const
{
    if (flows_.empty())
        return 0.0;
    double demand = 0.0;
    for (const Flow &f : flows_)
        demand += f.rate;
    return std::min(1.0, demand / std::max(1.0, effectiveBps()));
}

void
BandwidthArbiter::setBackgroundLoad(double frac)
{
    advance();
    background_ = std::clamp(frac, 0.0, 0.95);
    replan();
}

BandwidthArbiter::FlowId
BandwidthArbiter::startTransfer(std::uint64_t bytes,
                                sim::Callback<void(Tick)> done,
                                double rate_cap_bps)
{
    advance();
    FlowId id = nextId_++;
    flows_.emplace_back(id, static_cast<double>(bytes), rate_cap_bps,
                        std::move(done));
    statFlows_ += 1;
    if (sim::FlowTelemetry::active()) [[unlikely]]
        statActiveQ_.update(curTick(), flows_.size());
    replan();
    return id;
}

void
BandwidthArbiter::cancel(FlowId id)
{
    advance();
    auto it = std::lower_bound(
        flows_.begin(), flows_.end(), id,
        [](const Flow &f, FlowId want) { return f.id < want; });
    if (it != flows_.end() && it->id == id)
        flows_.erase(it);
    if (sim::FlowTelemetry::active()) [[unlikely]]
        statActiveQ_.update(curTick(), flows_.size());
    replan();
}

void
BandwidthArbiter::advance()
{
    Tick now = curTick();
    if (now > lastUpdate_) {
        double secs = sim::ticksToSeconds(now - lastUpdate_);
        for (Flow &f : flows_) {
            double moved = f.rate * secs;
            moved = std::min(moved, f.remaining);
            f.remaining -= moved;
            bytesMoved_ += static_cast<std::uint64_t>(moved);
            statBytes_ += moved;
        }
    }
    lastUpdate_ = now;

    // Retire completed flows (callbacks may start new transfers;
    // collect first, then invoke). The list borrows the spare
    // buffer's capacity; a callback re-entering advance() finds the
    // spare empty and builds its own.
    std::vector<sim::Callback<void(Tick)>> finished;
    finished.swap(finishedSpare_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        if (flows_[i].remaining <= completionSlack)
            finished.push_back(std::move(flows_[i].done));
        else if (kept++ != i)
            flows_[kept - 1] = std::move(flows_[i]);
    }
    flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(kept),
                 flows_.end());
    if (!finished.empty() && sim::FlowTelemetry::active())
        [[unlikely]]
        statActiveQ_.update(now, flows_.size());
    for (auto &cb : finished)
        if (cb)
            cb(now);
    finished.clear();
    if (finished.capacity() > finishedSpare_.capacity())
        finished.swap(finishedSpare_);
}

void
BandwidthArbiter::replan()
{
    if (pending_) {
        eventQueue().deschedule(pending_);
        pending_ = nullptr;
    }
    if (flows_.empty())
        return;

    // Water-fill: every flow gets an equal share; capped flows
    // donate their surplus to the rest.
    // open_ is a member so steady-state replans allocate nothing;
    // nothing below calls out, so it cannot be re-entered.
    double budget = effectiveBps();
    open_.clear();
    for (Flow &f : flows_) {
        f.rate = 0.0;
        open_.push_back(&f);
    }
    std::sort(open_.begin(), open_.end(),
              [](const Flow *a, const Flow *b) { return a->cap < b->cap; });
    std::size_t remaining_flows = open_.size();
    for (Flow *f : open_) {
        double share = budget / static_cast<double>(remaining_flows);
        f->rate = std::min(share, f->cap);
        budget -= f->rate;
        remaining_flows--;
    }

    // Earliest completion determines the next wakeup.
    double min_secs = std::numeric_limits<double>::infinity();
    for (const Flow &f : flows_) {
        if (f.rate <= 0.0)
            continue;
        min_secs = std::min(min_secs, f.remaining / f.rate);
    }
    if (!std::isfinite(min_secs))
        return; // all rates zero (fully backgrounded); stalled

    Tick delta = std::max<Tick>(1, sim::secondsToTicks(min_secs));
    pending_ = eventQueue().scheduleIn(
        [this] {
            pending_ = nullptr;
            advance();
            replan();
        },
        delta, "bw.complete", sim::EventPriority::ClockTick);
}

} // namespace mcnsim::mem
