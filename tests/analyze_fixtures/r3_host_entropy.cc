/**
 * @file
 * Analyzer fixture: R3 host-entropy violations. Host randomness and
 * host wall-clock reads make modeled behaviour a function of the
 * machine the simulation runs on.
 */

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <x86intrin.h>

namespace mcnsim::fixture {

int
jitteredBackoff(int base)
{
    return base + rand() % 7; // expect: host-entropy
}

unsigned
seedFromHardware()
{
    std::random_device rd; // expect: host-entropy
    srand(rd()); // expect: host-entropy
    return 0;
}

long
wrongTimestamp()
{
    auto t0 = std::chrono::steady_clock::now(); // expect: host-entropy
    (void)t0;
    long stamp = std::time(nullptr); // expect: host-entropy
    return stamp;
}

long
otherHostClocks()
{
    long ticks = std::clock(); // expect: host-entropy
    unsigned long long tsc = __rdtsc(); // expect: host-entropy
    auto u = std::chrono::utc_clock::now(); // expect: host-entropy
    auto f = std::chrono::file_clock::now(); // expect: host-entropy
    auto a = std::chrono::tai_clock::now(); // expect: host-entropy
    auto g = std::chrono::gps_clock::now(); // expect: host-entropy
    long t0 = time(0); // expect: host-entropy
    long t1 = ::time(nullptr); // expect: host-entropy
    (void)u, (void)f, (void)a, (void)g;
    return ticks + static_cast<long>(tsc) + t0 + t1;
}

} // namespace mcnsim::fixture
