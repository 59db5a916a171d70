/**
 * @file
 * Lightweight logging / diagnostics in the spirit of gem5's
 * logging.hh: panic() for simulator bugs, fatal() for user errors,
 * warn()/inform() for status, plus tick-stamped debug tracing gated
 * by named flags.
 */

#ifndef MCNSIM_SIM_LOGGING_HH
#define MCNSIM_SIM_LOGGING_HH

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/types.hh"

namespace mcnsim::sim {

/** Thrown by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thrown by panic(): an internal simulator bug. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

namespace detail {

/** Count of enabled trace flags, mirrored here so the
 *  Trace::anyActive() gate inlines to one load + branch on the
 *  event-dispatch hot path. Maintained by logging.cc (env parse at
 *  startup, Trace::setFlag at runtime). */
// analyze-ok: shard-static (config gate: written by setFlag() outside
// run windows only; ShardSet::run clamps to one worker while any trace
// flag is active)
inline std::size_t traceActiveFlagCount = 0;

/** Dump the flight-recorder ring to stderr (see trace_ring.hh).
 *  Called by panic()/fatal() so crashes carry recent-event context;
 *  a no-op when no trace events were recorded. */
void dumpFlightRecorder(const char *kind);

inline void
format_to(std::ostringstream &) {}

template <typename T, typename... Rest>
void
format_to(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    format_to(os, rest...);
}

} // namespace detail

/** Concatenate arbitrary streamable arguments into a string. */
template <typename... Args>
std::string
strcat(const Args &...args)
{
    std::ostringstream os;
    detail::format_to(os, args...);
    return os.str();
}

/** Report an unrecoverable internal error (simulator bug). */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    detail::dumpFlightRecorder("panic");
    throw PanicError("panic: " + strcat(args...));
}

/** Report an unrecoverable user error (bad config / arguments). */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    detail::dumpFlightRecorder("fatal");
    throw FatalError("fatal: " + strcat(args...));
}

/** panic() unless @p cond holds. */
#define MCNSIM_ASSERT(cond, ...)                                      \
    do {                                                              \
        if (!(cond))                                                  \
            ::mcnsim::sim::panic("assertion '", #cond, "' failed: ",  \
                                 __VA_ARGS__);                        \
    } while (0)

/**
 * Debug trace control. Flags are plain strings ("TCP", "MCNDriver",
 * "DRAM", ...); tracing is off by default and enabled per flag, or
 * globally via MCNSIM_DEBUG=FLAG1,FLAG2 in the environment.
 */
class Trace
{
  public:
    /** Enable or disable a debug flag at runtime. */
    static void setFlag(const std::string &flag, bool on);

    /** True when @p flag tracing is active. */
    static bool enabled(const std::string &flag);

    /** True when at least one flag is enabled — a cheap first-level
     *  gate so disabled tracing stays off the hot paths. Inline so
     *  the disabled case costs one load + branch. */
    static bool
    anyActive()
    {
        return detail::traceActiveFlagCount != 0;
    }

    /** Enable/disable echoing trace lines to stderr. Recording into
     *  the flight-recorder ring (trace_ring.hh) always happens; with
     *  echo off, enabled flags feed the ring silently. */
    static void setEcho(bool echo);

    /** Emit one tick-stamped trace line: appended to the
     *  flight-recorder ring and (when echo is on) printed. */
    static void emit(Tick when, const std::string &flag,
                     const std::string &msg);
};

/** Status messages (always shown unless quieted). */
void inform(const std::string &msg);
void warn(const std::string &msg);
void setQuiet(bool quiet);

/** Tick-stamped debug print, compiled in but gated at runtime. */
template <typename... Args>
void
dprintf(Tick when, const std::string &flag, const Args &...args)
{
    if (Trace::anyActive() && Trace::enabled(flag))
        Trace::emit(when, flag, strcat(args...));
}

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_LOGGING_HH
