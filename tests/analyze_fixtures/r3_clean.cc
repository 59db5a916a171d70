/**
 * @file
 * Analyzer fixture: R3 clean counterpart. Modeled jitter draws from
 * the seeded simulation RNG; timestamps come from the event queue.
 * Mentions of rand()/steady_clock in comments and strings must not
 * trip the rule.
 */

#include <cstdint>

namespace mcnsim::fixture {

struct Rng
{
    // Deterministic engine seeded per Simulation -- stands in for
    // sim::Random. Never calls rand() or std::random_device (the
    // analyzer strips this comment before matching).
    std::uint64_t state = 1;

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    }
};

int
jitteredBackoff(Rng &rng, int base)
{
    return base + static_cast<int>(rng.next() % 7);
}

// Clock-domain accessors are model state, not host clocks.
struct ClockDomain
{
    double frequencyHz() const;
};

struct Core
{
    const ClockDomain &clock() const { return clock_; }
    ClockDomain clock_;
};

struct Cluster
{
    const ClockDomain &clock() const;
    ClockDomain clock_;
};

const ClockDomain &
Cluster::clock() const
{
    return clock_;
}

double
cyclesFor(const Core *core_, const Cluster &cluster, double secs)
{
    return secs * core_->clock().frequencyHz() +
           secs * cluster.clock().frequencyHz();
}

// Model-time members named like the C time() call.
struct Window
{
    std::uint64_t time(int edge) const;
    std::uint64_t lifetime(int edge) const;
};

std::uint64_t
span(const Window &w)
{
    return w.lifetime(0) + w.time(0);
}

const char *
helpText()
{
    return "never use rand() or steady_clock::now() in model code";
}

} // namespace mcnsim::fixture
