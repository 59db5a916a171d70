/**
 * @file
 * Analyzer fixture: R10 stat-name violations. Stats are addressed as
 * group.stat by filters and report tools, so names must be literal
 * lowerCamel, optionally dotted.
 */

#include <string>

namespace mcnsim::fixture {

struct Scalar
{
    Scalar(const std::string &name, const char *desc);
};
using Average = Scalar;
using QueueStat = Scalar;

struct NicStats
{
    std::string prefix = "rx";
    Scalar txBytes{"TxBytes", "bytes sent"}; // expect: stat-name
    Scalar rxDrops{"rx_drops", "frames dropped"}; // expect: stat-name
    Average latency{prefix + "Latency", "mean latency"}; // expect: stat-name
    Average depth{"ring..depth", "ring depth"}; // expect: stat-name
    // analyze-ok: stat-name
    QueueStat queue{"Queue", "queue occupancy"}; // expect: stat-name
};

} // namespace mcnsim::fixture
