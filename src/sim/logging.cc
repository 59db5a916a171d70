/**
 * @file
 * Logging implementation: trace-flag registry and status output.
 */

#include "sim/logging.hh"

#include <cstdlib>
#include <iostream>
#include <set>

#include "sim/trace_ring.hh"

namespace mcnsim::sim {

namespace {

// analyze-ok: shard-static (trace-echo toggle: flipped by tests/CLI
// outside run windows; traces force one worker anyway)
bool echoTraces = true;

std::set<std::string> &
flagSet()
{
    // analyze-ok: shard-static (debug-flag set: parsed once during
    // static init, mutated by setFlag() outside run windows only; any
    // active flag clamps the ShardSet to one worker)
    static std::set<std::string> flags = [] {
        std::set<std::string> s;
        if (const char *env = std::getenv("MCNSIM_DEBUG")) {
            std::string cur;
            for (const char *p = env;; ++p) {
                if (*p == ',' || *p == '\0') {
                    if (!cur.empty())
                        s.insert(cur);
                    cur.clear();
                    if (*p == '\0')
                        break;
                } else {
                    cur.push_back(*p);
                }
            }
        }
        detail::traceActiveFlagCount = s.size();
        return s;
    }();
    return flags;
}

// analyze-ok: shard-static (CLI-set output toggle: written during
// argument parsing before any event loop runs)
bool quietMode = false;

/** Force the one-time MCNSIM_DEBUG parse during static init so
 *  env-enabled flags are counted before the first anyActive()
 *  fast-path check (which is now a bare inline load). */
[[maybe_unused]] const bool traceEnvParsed = (flagSet(), true);

} // namespace

void
Trace::setFlag(const std::string &flag, bool on)
{
    if (on)
        flagSet().insert(flag);
    else
        flagSet().erase(flag);
    detail::traceActiveFlagCount = flagSet().size();
}

bool
Trace::enabled(const std::string &flag)
{
    const auto &flags = flagSet();
    return flags.count(flag) > 0 || flags.count("ALL") > 0;
}

void
Trace::setEcho(bool echo)
{
    echoTraces = echo;
}

void
Trace::emit(Tick when, const std::string &flag, const std::string &msg)
{
    TraceRing::instance().record(when, flag, msg);
    if (echoTraces)
        std::fprintf(stderr, "%12llu: [%s] %s\n",
                     static_cast<unsigned long long>(when),
                     flag.c_str(), msg.c_str());
}

void
detail::dumpFlightRecorder(const char *kind)
{
    const auto &ring = TraceRing::instance();
    if (ring.size() == 0)
        return;
    std::cerr << "== " << kind
              << "() raised; dumping flight recorder ==\n";
    ring.dump(std::cerr);
}

void
inform(const std::string &msg)
{
    if (!quietMode)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
warn(const std::string &msg)
{
    if (!quietMode)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    quietMode = quiet;
}

} // namespace mcnsim::sim
