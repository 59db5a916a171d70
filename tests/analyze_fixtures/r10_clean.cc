/**
 * @file
 * Analyzer fixture: R10 clean counterpart. Literal lowerCamel names,
 * dotted sub-names, and one justified non-literal name.
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
    Scalar txBytes{"txBytes", "bytes sent"};
    Average ringUsed{"txRing.usedBytes", "mean ring occupancy"};
    QueueStat rxBacklog{"rxBacklog", "rx ring occupancy"};
    // analyze-ok: stat-name (kRttName is the literal "rttUs")
    Scalar rtt{kRttName, "round-trip time"};
};

} // namespace mcnsim::fixture
