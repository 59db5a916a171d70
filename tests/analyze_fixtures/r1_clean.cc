/**
 * @file
 * Analyzer fixture: R1 shard-static clean counterpart. Nothing in
 * this file may be flagged -- it exercises every shape the rule
 * must NOT fire on, including a one-line and a multi-line
 * suppression.
 */

#include <cstdint>
#include <string>

namespace mcnsim::fixture {

// Immutable state is fine at any scope.
constexpr int kMaxRetries = 3;
const std::string kBannerText = "mcnsim";
static constexpr double kAlpha = 0.125;

// extern declarations are not definitions.
extern int definedElsewhere;

// Function declarations are not variables.
int helperFunction(int x);
static int fileLocalHelper();

// An annotated mutable static: tracked, not flagged.
// analyze-ok: shard-static (fixture: single-writer, set by the test
// harness before any event loop runs)
static bool fixtureConfigured = false;

struct Widget
{
    // Non-static members are per-object: fine.
    std::uint64_t count = 0;
    std::string label;
};

int
perCallState()
{
    // Plain locals are per-invocation: fine.
    int scratch = 0;

    // analyze-ok: shard-static (fixture: memoized pure constant,
    // same value on every thread)
    static const int cachedAnswer = 42;
    return scratch + cachedAnswer;
}

} // namespace mcnsim::fixture
