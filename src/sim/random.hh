/**
 * @file
 * Deterministic pseudo-random number generation for workload models
 * and failure injection. One Rng per Simulation keeps runs
 * reproducible regardless of component construction order.
 *
 * Usage:
 *
 *   Rng rng(42);                              // same seed, same run
 *   auto burst = rng.uniformInt(1, 8);
 *   auto jitter = rng.normalNonNeg(meanTicks, sdTicks);
 *   if (rng.chance(0.01)) dropPacket();
 */

#ifndef MCNSIM_SIM_RANDOM_HH
#define MCNSIM_SIM_RANDOM_HH

#include <cstdint>
#include <random>

namespace mcnsim::sim {

/** A seeded RNG with the distributions the simulator needs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli trial with probability @p p of true. */
    bool chance(double p);

    /** Normal value clamped at >= 0 (for jittered latencies). */
    double normalNonNeg(double mean, double stddev);

    /** Re-seed (used by parameterized tests). */
    void seed(std::uint64_t s) { engine_.seed(s); }

    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_RANDOM_HH
