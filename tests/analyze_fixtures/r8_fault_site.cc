/**
 * @file
 * Analyzer fixture: R8 fault-site violations. Fault specs address a
 * site by its literal point name, so a computed or irregular name
 * makes the site unreachable from the spec grammar.
 */

namespace mcnsim::fixture {

struct FaultSite
{
};

struct Iface
{
    const char *suffix = "rx";
    FaultSite computed = FAULT_POINT(suffix); // expect: fault-site
    FaultSite camel = FAULT_POINT("rxIrqLost"); // expect: fault-site
    FaultSite snake = FAULT_POINT("rx_drop"); // expect: fault-site
    FaultSite digit = FAULT_POINT("9lives"); // expect: fault-site
    // analyze-ok: fault-site
    FaultSite upper = FAULT_POINT("Crash"); // expect: fault-site
};

} // namespace mcnsim::fixture
