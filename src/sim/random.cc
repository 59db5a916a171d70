/**
 * @file
 * Rng implementation.
 */

#include "sim/random.hh"

#include <algorithm>

namespace mcnsim::sim {

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::uniformReal(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

double
Rng::normalNonNeg(double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return std::max(0.0, dist(engine_));
}

} // namespace mcnsim::sim
