/**
 * @file
 * Analyzer fixture: R7 clean counterpart. Every emission sits behind
 * the one-branch anyActive() gate, or carries a justification.
 */

namespace mcnsim::fixture {

struct Trace
{
    static bool anyActive();
    static bool enabled(const char *flag);
    static void emit(unsigned long when, const char *flag,
                     const char *msg);
};

void
gated(unsigned long now)
{
    if (Trace::anyActive() && Trace::enabled("NIC"))
        Trace::emit(now, "NIC", "tx");
}

void
gatedAbove(unsigned long now)
{
    if (!Trace::anyActive())
        return;
    const char *what = now ? "rx" : "idle";
    Trace::emit(now, "NIC", what);
}

void
fatalPath(unsigned long now)
{
    // analyze-ok: trace-gate (fatal path: runs once, never hot)
    Trace::emit(now, "NIC", "fatal");
}

} // namespace mcnsim::fixture
