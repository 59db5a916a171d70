/**
 * @file
 * Analyzer fixture: R11 clean counterpart. The owner reaches
 * SimObject only through os::NetDevice, a base declared in a src/
 * header, so every capture below is pinned by the Simulation. Lines
 * tagged "widened" need that transitive base resolution, the full
 * capture-list match or the scheduleOrdered entry point.
 */

#include <cstdint>

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

    void
    kickOrdered(std::uint64_t when, std::uint64_t order)
    {
        eventQueue().scheduleOrdered([this] { pump(); }, when, order); // widened
    }

    void pump();
};

} // namespace mcnsim::fixture
