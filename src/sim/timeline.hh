/**
 * @file
 * Timeline recorder: a low-overhead span/counter/instant event
 * recorder keyed on simulation ticks, exported in the Chrome
 * trace-event format so a run opens directly in chrome://tracing or
 * ui.perfetto.dev.
 *
 * The model follows the trace-event JSON: every simulated component
 * records onto a *track*, and tracks are grouped into a "process"
 * (the simulated node: host, mcn0, node1, ...) with one "thread" per
 * component (host driver, a DIMM's MCN driver, a memory controller).
 * SimObject derives both names from its hierarchical name, so every
 * component owns a track with zero extra wiring (see
 * SimObject::tlSpan and friends).
 *
 * Usage:
 *
 *   sim::Timeline::instance().enable(true);
 *   sim.sampleStatsToTimeline(50 * oneUs, "txBytes"); // optional
 *   ... run the simulation; instrumented components record ...
 *   std::ofstream f("trace.json");
 *   sim::Timeline::instance().exportJson(f);   // open in Perfetto
 *
 * Cost model: recording is gated by Timeline::active(), an inline
 * one-load-one-branch check exactly like Trace::anyActive(), so a
 * disabled timeline costs one predictable branch per instrumented
 * site. When enabled, a record is a bounds check plus a 40-byte
 * append into a preallocated ring-capped vector -- no allocation,
 * no formatting until exportJson().
 *
 * The recorder is process-wide (like the flight-recorder ring):
 * track ids live for the process lifetime, so components may cache
 * them across Simulation instances. Event storage is bounded
 * (setCapacity); overflow drops new events and counts them, and the
 * export notes the drop count rather than lying by omission.
 *
 * Threading / parallel engine (DESIGN.md §9): the bump-append store
 * is process-wide and unsynchronized, so the shard set clamps to
 * one worker while the timeline is enabled (Timeline::active() is
 * one of ShardSet::run's clamp conditions). Recording order -- and
 * therefore the exported document -- stays identical to a
 * --threads=1 run; only parallelism is given up.
 */

#ifndef MCNSIM_SIM_TIMELINE_HH
#define MCNSIM_SIM_TIMELINE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace mcnsim::sim {

namespace detail {
/** Mirror of the timeline's enabled state, inline so the
 *  Timeline::active() gate compiles to one load + branch on the
 *  instrumented hot paths. Maintained by Timeline::enable(). */
// analyze-ok: shard-static (config gate: written by start()/stop()
// outside run windows only; ShardSet::run clamps to one worker while
// the timeline records)
inline bool timelineActive = false;
} // namespace detail

/** Process-wide timeline recorder (see file comment). */
class Timeline
{
  public:
    using TrackId = std::uint32_t;

    /** Phases of the Chrome trace-event format we emit. */
    enum class Phase : std::uint8_t {
        Span,    ///< complete event ("X": ts + dur)
        Counter, ///< counter sample ("C")
        Instant, ///< instant event ("i")
    };

    /** One recorded event. POD, appended on the hot path. */
    struct Record
    {
        Tick start = 0;   ///< event tick (span start)
        Tick end = 0;     ///< span end; == start otherwise
        double value = 0; ///< counter value
        const char *name = nullptr; ///< literal / interned
        TrackId track = 0;
        Phase phase = Phase::Span;
    };

    /** One registered track: a (process, thread) pair. */
    struct Track
    {
        std::string process;
        std::string thread;
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
    };

    /** Default bound on stored events (~80 MB of records). */
    static constexpr std::size_t defaultCapacity = 2u << 20;

    /** The process-wide recorder all components feed. */
    static Timeline &instance();

    explicit Timeline(std::size_t capacity = defaultCapacity);

    /** One-branch gate for instrumented sites (process-wide). */
    static bool active() { return detail::timelineActive; }

    /** Turn recording on or off; off also freezes the buffer so it
     *  can be exported later. Only the process-wide instance()
     *  drives the active() gate. */
    void enable(bool on);
    bool enabled() const { return enabled_; }

    /**
     * Register (or look up) the track for @p process / @p thread.
     * Idempotent; returns a process-lifetime id. Cheap enough for
     * construction time, not meant for per-event calls.
     */
    TrackId track(const std::string &process,
                  const std::string &thread);

    /**
     * Track for a hierarchically named component: the first
     * dot-separated segment is the process (simulated node), the
     * full name is the thread. "host.mcndrv" -> ("host",
     * "host.mcndrv"); a dotless name is its own process.
     */
    TrackId trackFor(const std::string &component);

    // Recording (callers must check active() first; these check
    // enabled_ again so misuse is safe, just slower) --------------

    /** Complete span [start, end] on @p t. Clamps end < start. */
    void span(TrackId t, const char *name, Tick start, Tick end);

    /** Counter sample at @p when. */
    void counter(TrackId t, const char *name, Tick when,
                 double value);

    /** Instant event at @p when. */
    void instant(TrackId t, const char *name, Tick when);

    // Introspection / export --------------------------------------

    std::size_t eventCount() const { return records_.size(); }
    std::size_t trackCount() const { return tracks_.size(); }

    /** Events discarded because the capacity bound was hit. */
    std::uint64_t dropped() const { return dropped_; }

    /** Resize the event bound; keeps already-recorded events that
     *  fit. */
    void setCapacity(std::size_t max_events);
    std::size_t capacity() const { return capacity_; }

    /** Drop recorded events (tracks and ids survive -- components
     *  cache them). */
    void clear();

    /**
     * Write one Chrome trace-event JSON document: metadata rows
     * naming every referenced process/thread, then all events
     * sorted by start tick (ts monotone per thread). @p meta
     * key/value pairs land in "otherData" so the artifact is
     * self-describing. Ticks (ps) are emitted as fractional
     * microseconds, the unit the trace-event format expects.
     * Counters export as "<thread>.<name>" (the format keys a
     * counter by process and name only), so a sampled stat reads as
     * its qualified "group.stat" name.
     */
    void exportJson(std::ostream &os,
                    const std::vector<std::pair<std::string,
                                                std::string>> &meta =
                        {}) const;

    const std::vector<Track> &tracks() const { return tracks_; }
    const std::vector<Record> &records() const { return records_; }

  private:
    bool room();

    bool enabled_ = false;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::vector<Record> records_;
    std::vector<Track> tracks_;
    std::map<std::pair<std::string, std::string>, TrackId> byName_;
    std::map<std::string, std::uint32_t> pidByProcess_;
    std::map<std::uint32_t, std::uint32_t> nextTid_;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_TIMELINE_HH
