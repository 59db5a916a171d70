/**
 * @file
 * Analyzer fixture: R8 clean counterpart. Literal, lower-case,
 * dash-separated point names, plus one justified computed name.
 */

namespace mcnsim::fixture {

struct FaultSite
{
};

struct Iface
{
    FaultSite rxLost = FAULT_POINT("rx-irq-lost");
    FaultSite crash = FAULT_POINT( "crash" );
    FaultSite stall2 = FAULT_POINT("stall2");
    const char *kName = "hang";
    // analyze-ok: fault-site (kName is a literal one line above)
    FaultSite hang = FAULT_POINT(kName);
};

} // namespace mcnsim::fixture
