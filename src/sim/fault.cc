/**
 * @file
 * FaultPlan / FaultSite implementation.
 */

#include "sim/fault.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/timeline.hh"

namespace mcnsim::sim {

FaultPlan &
FaultPlan::instance()
{
    // analyze-ok: shard-static (process-wide plan, but ShardSet::run
    // clamps to one worker while a plan is armed, and arm()/clear()
    // happen outside run windows)
    static FaultPlan plan;
    return plan;
}

void
FaultPlan::arm(Spec spec)
{
    specs_.push_back(std::move(spec));
    ++epoch_;
    detail::faultPlanArmed = true;
}

void
FaultPlan::clear()
{
    specs_.clear();
    ++epoch_;
    totalFires_ = 0;
    detail::faultPlanArmed = false;
}

void
FaultPlan::setSeed(std::uint64_t seed)
{
    seed_ = seed;
    ++epoch_;
}

void
FaultPlan::resetRunState()
{
    ++epoch_;
    totalFires_ = 0;
}

namespace {

/** FNV-1a over the site name, mixed with the run seed, so each
 *  site gets an independent deterministic stream regardless of
 *  construction order. */
std::uint64_t
siteSeed(std::uint64_t run_seed, const std::string &name)
{
    std::uint64_t h = 1469598103934665603ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    // splitmix64 finalizer over (hash ^ seed)
    std::uint64_t z = h ^ (run_seed + 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Parse "<number>[ns|us|ms|s]" into ticks; bare numbers are
 *  ticks (picoseconds). */
bool
parseTime(const std::string &v, Tick *out)
{
    std::size_t pos = 0;
    double num;
    try {
        num = std::stod(v, &pos);
    } catch (...) {
        return false;
    }
    const std::string suffix = v.substr(pos);
    double scale = 1.0;
    if (suffix == "ns")
        scale = static_cast<double>(oneNs);
    else if (suffix == "us")
        scale = static_cast<double>(oneUs);
    else if (suffix == "ms")
        scale = static_cast<double>(oneMs);
    else if (suffix == "s")
        scale = static_cast<double>(oneSec);
    else if (!suffix.empty())
        return false;
    if (num < 0)
        return false;
    *out = static_cast<Tick>(num * scale);
    return true;
}

} // namespace

bool
FaultPlan::parseSpec(const std::string &text, Spec *out,
                     std::string *err)
{
    const auto colon = text.find(':');
    if (colon == std::string::npos || colon == 0) {
        if (err)
            *err = "expected '<site-glob>:<key>=<value>,...'";
        return false;
    }
    Spec spec;
    spec.siteGlob = text.substr(0, colon);
    bool have_trigger = false;

    std::string rest = text.substr(colon + 1);
    while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string kv = rest.substr(0, comma);
        rest = comma == std::string::npos ? ""
                                          : rest.substr(comma + 1);
        const auto eq = kv.find('=');
        if (eq == std::string::npos) {
            if (err)
                *err = "expected key=value, got '" + kv + "'";
            return false;
        }
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        bool ok = true;
        if (key == "p") {
            try {
                spec.probability = std::stod(val);
            } catch (...) {
                ok = false;
            }
            ok = ok && spec.probability >= 0.0
                 && spec.probability <= 1.0;
            have_trigger = true;
        } else if (key == "n") {
            spec.every = std::strtoull(val.c_str(), nullptr, 10);
            ok = spec.every > 0;
            have_trigger = true;
        } else if (key == "at") {
            ok = parseTime(val, &spec.at);
            spec.scheduled = true;
            have_trigger = true;
        } else if (key == "param") {
            ok = parseTime(val, &spec.param);
        } else if (key == "max") {
            spec.maxFires = std::strtoull(val.c_str(), nullptr, 10);
            ok = spec.maxFires > 0;
        } else if (key == "from") {
            ok = parseTime(val, &spec.windowStart);
        } else if (key == "until") {
            ok = parseTime(val, &spec.windowEnd);
        } else {
            if (err)
                *err = "unknown key '" + key + "'";
            return false;
        }
        if (!ok) {
            if (err)
                *err = "bad value for '" + key + "': '" + val + "'";
            return false;
        }
    }
    if (!have_trigger) {
        if (err)
            *err = "need a trigger: p=, n= or at=";
        return false;
    }
    *out = std::move(spec);
    return true;
}

std::vector<FaultPlan::Scheduled>
FaultPlan::scheduledFor(const std::string &site)
{
    std::vector<Scheduled> hits;
    for (const Spec &s : specs_) {
        if (s.scheduled && globMatch(s.siteGlob, site))
            hits.push_back({s.at, s.param});
    }
    std::sort(hits.begin(), hits.end(),
              [](const Scheduled &a, const Scheduled &b) {
                  return a.at < b.at;
              });
    return hits;
}

std::vector<std::pair<std::string, std::uint64_t>>
FaultPlan::fireCounts() const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto &[name, state] : sites_) {
        if (state->epoch == epoch_ && state->totalFires)
            out.emplace_back(name, state->totalFires);
    }
    return out;
}

bool
FaultPlan::globMatch(const std::string &pattern,
                     const std::string &str)
{
    // Iterative backtracking matcher: '*' matches any run
    // (including dots), '?' any single character.
    std::size_t p = 0, s = 0;
    std::size_t star = std::string::npos, mark = 0;
    while (s < str.size()) {
        if (p < pattern.size()
            && (pattern[p] == '?' || pattern[p] == str[s])) {
            ++p;
            ++s;
        } else if (p < pattern.size() && pattern[p] == '*') {
            star = p++;
            mark = s;
        } else if (star != std::string::npos) {
            p = star + 1;
            s = ++mark;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

FaultPlan::SiteState *
FaultPlan::site(const std::string &name)
{
    auto it = sites_.find(name);
    if (it == sites_.end()) {
        it = sites_
                 .emplace(name,
                          std::make_unique<SiteState>(name))
                 .first;
    }
    return it->second.get();
}

void
FaultPlan::refresh(SiteState &s)
{
    if (s.epoch == epoch_)
        return;
    s.epoch = epoch_;
    s.opportunities = 0;
    s.totalFires = 0;
    s.rng.seed(siteSeed(seed_, s.name));
    s.matches.clear();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (!specs_[i].scheduled
            && globMatch(specs_[i].siteGlob, s.name))
            s.matches.push_back(i);
    }
    s.fires.assign(s.matches.size(), 0);
}

bool
FaultPlan::query(SiteState &s, Tick now, std::uint64_t *param)
{
    refresh(s);
    if (s.matches.empty())
        return false;
    ++s.opportunities;
    for (std::size_t i = 0; i < s.matches.size(); ++i) {
        const Spec &spec = specs_[s.matches[i]];
        if (now < spec.windowStart || now > spec.windowEnd)
            continue;
        if (s.fires[i] >= spec.maxFires)
            continue;
        const bool hit =
            spec.every ? (s.opportunities % spec.every == 0)
                       : s.rng.chance(spec.probability);
        if (!hit)
            continue;
        ++s.fires[i];
        *param = spec.param;
        noteFire(s);
        return true;
    }
    return false;
}

void
FaultPlan::noteFire(SiteState &s)
{
    ++s.totalFires;
    ++totalFires_;
}

void
FaultPlan::recordFire(const std::string &site_name)
{
    SiteState *s = site(site_name);
    refresh(*s);
    noteFire(*s);
}

void
reportScheduledFault(const SimObject &owner, const char *point)
{
    const std::string site = owner.name() + "." + point;
    const Tick now = owner.curTick();
    FaultPlan::instance().recordFire(site);
    dprintf(now, "Fault", site, ": scheduled fault fired");
    if (Timeline::active()) [[unlikely]]
        Timeline::instance().instant(owner.tlTrack(), "Fault", now);
}

bool
FaultSite::firesSlow()
{
    FaultPlan &plan = FaultPlan::instance();
    if (!state_)
        state_ = plan.site(name_);
    const Tick now = owner_.curTick();
    if (!plan.query(*state_, now, &param_))
        return false;
    dprintf(now, "Fault", name_, ": fired (site fire #",
            state_->totalFires, ", param=", param_, ")");
    if (Timeline::active()) [[unlikely]]
        Timeline::instance().instant(owner_.tlTrack(), "Fault",
                                     now);
    return true;
}

Rng &
FaultSite::rng()
{
    FaultPlan &plan = FaultPlan::instance();
    if (!state_)
        state_ = plan.site(name_);
    plan.refresh(*state_);
    return state_->rng;
}

} // namespace mcnsim::sim
