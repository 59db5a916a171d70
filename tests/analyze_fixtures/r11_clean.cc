/**
 * @file
 * Analyzer fixture: R11 clean counterpart. The owner reaches
 * SimObject only through os::NetDevice, a base declared in a src/
 * header, so every capture below is pinned by the Simulation. Lines
 * tagged "widened" need that transitive base resolution or the full
 * capture-list match.
 */

#include "os/net_device.hh"

namespace mcnsim::fixture {

class FixtureLoopback : public os::NetDevice
{
  public:
    void
    kick()
    {
        eventQueue().scheduleIn([this] { pump(); }, 1, "fx.kick"); // widened
    }

    void
    kickWith(int dev)
    {
        eventQueue().scheduleIn([this, dev] { pump(); }, 1, "fx.kick"); // widened
    }

    void pump();
};

} // namespace mcnsim::fixture
