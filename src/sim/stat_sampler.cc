/**
 * @file
 * StatSampler implementation.
 */

#include "sim/stat_sampler.hh"

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace mcnsim::sim {

StatSampler::StatSampler(Simulation &sim, Tick period)
    : sim_(sim), period_(period)
{
    MCNSIM_ASSERT(period_ > 0, "sampler period must be nonzero");
}

StatSampler::~StatSampler()
{
    stop();
}

void
StatSampler::addProbe(std::string name, std::function<double()> fn)
{
    MCNSIM_ASSERT(ticks_.empty(),
                  "probes must be registered before sampling starts");
    probes_.push_back(Probe{std::move(name), std::move(fn)});
    data_.emplace_back();
}

std::size_t
StatSampler::addRegistryStats(const std::string &filter)
{
    std::size_t added = 0;
    for (const StatGroup *g : sim_.statRegistry().groups()) {
        for (StatBase *s : g->stats()) {
            std::string qualified = g->name() + "." + s->name();
            if (!filter.empty() &&
                qualified.find(filter) == std::string::npos)
                continue;
            if (auto *sc = dynamic_cast<const Scalar *>(s)) {
                addProbe(qualified, [sc] { return sc->value(); });
                added++;
            } else if (auto *av = dynamic_cast<const Average *>(s)) {
                addProbe(qualified, [av] { return av->mean(); });
                added++;
            }
            // Histograms are skipped: a distribution does not
            // collapse to one meaningful time-series value.
        }
    }
    return added;
}

void
StatSampler::start()
{
    if (running_)
        return;
    // The sampler reads live stats mid-run: prepareStatsDump() and
    // the probe lambdas touch every shard's objects between
    // windows. Clamp the sharded engine to one worker so those
    // reads are race-free; the shard structure (and therefore the
    // modeled output) is untouched -- --threads=N stays
    // byte-identical, it just executes serially while sampling.
    if (sim_.threads() > 1)
        sim_.setThreads(1);
    running_ = true;
    sampleAndReschedule();
}

void
StatSampler::stop()
{
    if (!running_)
        return;
    running_ = false;
    if (ev_) {
        sim_.eventQueue().deschedule(ev_);
        ev_ = nullptr;
    }
}

void
StatSampler::sampleOnce()
{
    // Fold shard-local counters (split-link deltas, see DESIGN.md
    // §9) into the registry before reading it; no-op when nothing
    // is pending.
    sim_.prepareStatsDump();
    ticks_.push_back(sim_.curTick());
    for (std::size_t i = 0; i < probes_.size(); ++i)
        data_[i].push_back(probes_[i].fn());
}

void
StatSampler::sampleAndReschedule()
{
    // The managed event pointer dies when the event fires; null it
    // before anything can observe it (canonical pattern, see the
    // EventQueue lifetime rules).
    ev_ = nullptr;
    sampleOnce();
    // analyze-ok: this-capture (stop() deschedules in ~StatSampler)
    ev_ = sim_.eventQueue().scheduleIn(
        [this] { sampleAndReschedule(); }, period_, "stat-sample",
        EventPriority::StatsDump);
}

const std::vector<double> &
StatSampler::values(std::size_t probe) const
{
    MCNSIM_ASSERT(probe < data_.size(), "probe index out of range");
    return data_[probe];
}

void
StatSampler::exportJson(
    std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &meta) const
{
    json::Writer w(os);
    w.beginObject();
    w.kv("schema_version", std::uint64_t{1});
    w.kv("kind", "mcnsim-stats-series");
    w.key("meta");
    w.beginObject();
    for (const auto &[k, v] : meta)
        w.kv(k, v);
    w.endObject();
    w.kv("period_ticks", period_);
    w.kv("period_us", ticksToUs(period_));
    w.kv("snapshots", std::uint64_t{ticks_.size()});
    w.key("ticks");
    w.beginArray();
    for (Tick t : ticks_)
        w.value(t);
    w.endArray();
    w.key("series");
    w.beginArray();
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        w.beginObject();
        w.kv("name", probes_[i].name);
        w.key("values");
        w.beginArray();
        for (double v : data_[i])
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace mcnsim::sim
