/**
 * @file
 * Analyzer fixture: R11 this-capture violations. A queue callback
 * that captures this on an object the Simulation does not own can
 * fire after the object is gone. Lines tagged "widened" need the
 * full capture-list match.
 */

#include <cstdint>

namespace mcnsim::fixture {

struct EventQueue
{
    template <typename F> void *schedule(F fn, std::uint64_t when);
    template <typename F> void *scheduleIn(F fn, std::uint64_t delta);
};

class FixtureTimer
{
  public:
    void
    arm()
    {
        queue_.schedule([this] { fire(); }, 10); // expect: this-capture
    }

    void
    armWith(int pkt)
    {
        queue_.scheduleIn([this, pkt] { fire(); }, 10); // expect: this-capture (widened)
    }

    void
    armUnjustified()
    {
        // analyze-ok: this-capture
        queue_.schedule([this] { fire(); }, 20); // expect: this-capture
    }

    void
    armCancelled()
    {
        // analyze-ok: this-capture (the destructor deschedules ev_)
        ev_ = queue_.schedule([this] { fire(); }, 30);
    }

    void
    armCopy()
    {
        // Capturing a copy of the object is safe.
        queue_.schedule([*this] { (void)0; }, 40);
    }

    void fire();

    EventQueue queue_;
    void *ev_ = nullptr;
};

// A base chain that never reaches SimObject.
class FixturePeriodic : public FixtureTimer
{
  public:
    void
    rearm()
    {
        queue_.scheduleIn([this] { fire(); }, 50); // expect: this-capture
    }
};

} // namespace mcnsim::fixture
