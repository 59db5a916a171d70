/**
 * @file
 * Analyzer fixture: R7 trace-gate violations. Trace emission without
 * a one-branch gate on the path costs the disabled-tracing hot path
 * a call and a string build on every event.
 */

namespace mcnsim::fixture {

struct Trace
{
    static bool enabled(const char *flag);
    static void emit(unsigned long when, const char *flag,
                     const char *msg);
};

void
ungated(unsigned long now)
{
    Trace::emit(now, "NIC", "tx"); // expect: trace-gate
}

void
gateOutOfReach(unsigned long now, bool on)
{
    if (!on)
        return;
    unsigned long a = now + 1;
    unsigned long b = a + 1;
    unsigned long c = b + 1;
    (void)c;
    Trace::emit(now, "NIC", "rx"); // expect: trace-gate
}

void
unjustified(unsigned long now)
{
    // analyze-ok: trace-gate
    Trace::emit(now, "NIC", "drop"); // expect: trace-gate
}

} // namespace mcnsim::fixture
