/**
 * @file
 * Deterministic fault injection: a process-wide FaultPlan registry
 * plus per-component FaultSite injection points.
 *
 * Components declare *sites* -- named places where a fault could
 * strike -- via the FAULT_POINT macro. A site's full name is the
 * owning SimObject's hierarchical name plus a short point suffix
 * ("cluster.link0.drop", "mcn1.iface.alert-lost"), so a fault
 * schedule can address any component the same way stats and
 * timeline tracks do. Faults themselves are declarative FaultPlan
 * specs: a site glob, a trigger (per-opportunity probability, every
 * Nth opportunity, or an exact tick for scheduled faults such as a
 * node crash), an optional tick window / fire cap, and a
 * kind-specific numeric parameter.
 *
 *   sim::FaultPlan::instance().setSeed(seed);
 *   sim::FaultPlan::instance().arm(
 *       sim::FaultPlan::parseSpec("*.link*.drop:p=0.01", &err));
 *   ... run; every matching site now flips a deterministic coin ...
 *
 * Cost model follows the Trace/Timeline gate pattern: FaultSite::
 * fires() is an inline one-load-one-branch check against
 * detail::faultPlanArmed when no plan is armed, and an armed plan
 * whose specs do not fire draws only from *per-site* RNG streams
 * (split from the run seed by site-name hash), never from the
 * Simulation's model RNG -- so modeled timing cannot drift unless a
 * fault actually strikes.
 *
 * Determinism: per-site streams make firing independent of
 * component construction order, and FaultPlan::resetRunState()
 * rewinds every site (counters + RNG) so a --selfcheck rerun
 * replays the identical fault schedule.
 *
 * Threading / parallel engine (DESIGN.md §9): the plan registry and
 * per-site RNG streams are process-wide mutable state, so the shard
 * set clamps to one worker while a plan is armed
 * (FaultPlan::active() is one of ShardSet::run's clamp conditions).
 * The window *schedule* is unchanged -- chaos runs under --threads
 * produce the same bytes as --threads=1, just without parallelism.
 */

#ifndef MCNSIM_SIM_FAULT_HH
#define MCNSIM_SIM_FAULT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

namespace detail {
/** Mirror of "any fault spec armed", inline so the FaultSite::
 *  fires() gate compiles to one load + branch on instrumented hot
 *  paths. Maintained by FaultPlan::arm()/clear(). */
// analyze-ok: shard-static (config gate: written by arm()/clear()
// outside run windows only; ShardSet::run clamps to one worker while
// armed, so per-site RNG draw order stays deterministic)
inline bool faultPlanArmed = false;
} // namespace detail

/** Process-wide registry of armed fault specs (see file comment). */
class FaultPlan
{
  public:
    /** One declarative fault. Exactly one trigger is used: @p at
     *  (scheduled, consumed via scheduledFor()), @p every (every
     *  Nth opportunity), or @p probability. */
    struct Spec
    {
        std::string siteGlob;     ///< glob over site names (*, ?)
        double probability = 0.0; ///< per-opportunity Bernoulli
        std::uint64_t every = 0;  ///< fire each Nth opportunity
        Tick at = 0;              ///< scheduled trigger tick
        bool scheduled = false;   ///< @p at is valid
        Tick windowStart = 0;     ///< inline triggers: active from
        Tick windowEnd = maxTick; ///< ...through this tick
        std::uint64_t maxFires = ~std::uint64_t{0};
        std::uint64_t param = 0;  ///< kind-specific (ticks, bytes..)
    };

    /** A scheduled (crash/hang/spurious-doorbell) hit for a site. */
    struct Scheduled
    {
        Tick at;
        std::uint64_t param;
    };

    /** The process-wide plan all sites consult. */
    static FaultPlan &instance();

    /** One-branch gate for injection sites (process-wide). */
    static bool active() { return detail::faultPlanArmed; }

    /** Arm one spec; activates the gate. */
    void arm(Spec spec);

    /** Disarm everything and deactivate the gate. Site records
     *  survive (components cache pointers into them). */
    void clear();

    /** Seed for the per-site RNG streams; call before arming (or
     *  follow with resetRunState()). */
    void setSeed(std::uint64_t seed);

    /** Rewind every site -- opportunity/fire counters and RNG
     *  streams -- so the next run replays the identical schedule.
     *  Required between --selfcheck repetitions. */
    void resetRunState();

    /**
     * Parse "glob:key=value[,key=value...]" into a Spec. Triggers:
     * p=<prob>, n=<every-Nth>, at=<time>. Modifiers: param=<time|n>,
     * max=<fires>, from=<time>, until=<time>. Times take ns/us/ms/s
     * suffixes (bare numbers are ticks). Returns false and sets
     * @p err on malformed input.
     */
    static bool parseSpec(const std::string &text, Spec *out,
                          std::string *err);

    /** Scheduled hits whose glob matches @p site, sorted by tick.
     *  Components query this in startup() (behind active()). */
    std::vector<Scheduled> scheduledFor(const std::string &site);

    /** Total inline fires since the last resetRunState(). */
    std::uint64_t totalFires() const { return totalFires_; }

    /** Per-site fire counts since the last resetRunState(). */
    std::vector<std::pair<std::string, std::uint64_t>>
    fireCounts() const;

    /** Armed specs (for reporting). */
    const std::vector<Spec> &specs() const { return specs_; }

    /** Simple glob: '*' any run, '?' any one char. */
    static bool globMatch(const std::string &pattern,
                          const std::string &str);

    /** Record a scheduled fault firing at @p site (crash, hang,
     *  spurious doorbell): counts it like an inline site fire so
     *  fireCounts()/totalFires() cover the whole schedule. */
    void recordFire(const std::string &site);

  private:
    friend class FaultSite;

    /** Per-site record: process lifetime, rebound lazily whenever
     *  the plan epoch moves (arm/clear/reset/seed). */
    struct SiteState
    {
        explicit SiteState(std::string n)
            : name(std::move(n)), rng(0)
        {}
        std::string name;
        Rng rng;
        std::vector<std::size_t> matches; ///< indices into specs_
        std::vector<std::uint64_t> fires; ///< per matched spec
        std::uint64_t opportunities = 0;
        std::uint64_t totalFires = 0;
        std::uint64_t epoch = 0;
    };

    SiteState *site(const std::string &name);
    void refresh(SiteState &s);
    bool query(SiteState &s, Tick now, std::uint64_t *param);
    void noteFire(SiteState &s);

    std::vector<Spec> specs_;
    std::map<std::string, std::unique_ptr<SiteState>> sites_;
    std::uint64_t seed_ = 0;
    std::uint64_t epoch_ = 1;
    std::uint64_t totalFires_ = 0;
};

/**
 * One injection point owned by a SimObject. Declare with
 * FAULT_POINT so the site name follows the hierarchy convention
 * (enforced by the fault-site lint rule):
 *
 *   sim::FaultSite faultDrop_ = FAULT_POINT("drop");
 *
 * fires() asks the plan whether a matching spec strikes at this
 * opportunity; on a hit it emits a "Fault" trace event and a
 * timeline instant on the owner's track, then returns true. param()
 * exposes the firing spec's argument, rng() a deterministic
 * per-site stream for shaping the damage (byte to flip, delay...).
 */
class FaultSite
{
  public:
    FaultSite(const SimObject &owner, const char *point)
        : name_(owner.name() + "." + point), owner_(owner)
    {}

    /** Did a fault strike at this opportunity? One branch when no
     *  plan is armed. */
    bool
    fires()
    {
        if (!FaultPlan::active()) [[likely]]
            return false;
        return firesSlow();
    }

    /** The firing spec's kind-specific parameter (valid after
     *  fires() returned true). */
    std::uint64_t param() const { return param_; }

    /** Deterministic per-site stream for shaping a hit. */
    Rng &rng();

    const std::string &name() const { return name_; }

  private:
    bool firesSlow();

    std::string name_;
    const SimObject &owner_;
    FaultPlan::SiteState *state_ = nullptr;
    std::uint64_t param_ = 0;
};

/** Declare an injection site on `this` SimObject; the site name is
 *  "<object-name>.<point>". @p point must be a literal matching
 *  [a-z][a-z0-9-]* (lint rule: fault-site). */
#define FAULT_POINT(point) ::mcnsim::sim::FaultSite{*this, point}

/**
 * Report a *scheduled* fault striking (node crash, hang, spurious
 * doorbell): emits the same "Fault" trace event + timeline instant
 * a FaultSite hit produces and records the fire under
 * "<owner>.<point>" in the plan's counts. Components call this at
 * the moment the event they scheduled from scheduledFor() fires.
 */
void reportScheduledFault(const SimObject &owner, const char *point);

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_FAULT_HH
