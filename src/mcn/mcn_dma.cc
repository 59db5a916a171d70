/**
 * @file
 * McnDmaEngine implementation.
 */

#include "mcn/mcn_dma.hh"

#include "sim/simulation.hh"

namespace mcnsim::mcn {

McnDmaEngine::McnDmaEngine(sim::Simulation &s, std::string name,
                           os::Kernel &kernel,
                           mem::BandwidthArbiter &arbiter,
                           double rate_bps)
    : sim::SimObject(s, std::move(name)), kernel_(kernel),
      arbiter_(arbiter), rateBps_(rate_bps)
{
    regStat(&statTransfers_);
    regStat(&statBytes_);
    regStat(&statStalls_);
}

void
McnDmaEngine::transfer(std::uint64_t bytes,
                       sim::Callback<void(sim::Tick)> done)
{
    statTransfers_ += 1;
    statBytes_ += static_cast<double>(bytes);
    trace("MCNDma", "transfer ", bytes, "B at ", rateBps_ / 1e9,
          " GB/s");

    // The driver writes the descriptor (node number + size) into
    // the engine's configuration space, then the engine streams.
    Job *j = jobs_.acquire();
    j->bytes = bytes;
    j->t0 = curTick();
    j->done = std::move(done);
    kernel_.cpus().leastLoaded().execute(
        kernel_.costs().dmaSetup, [this, j](sim::Tick) {
            // Injected stall: the engine sits on the descriptor
            // (bus contention, stuck arbitration) before streaming.
            if (faultStall_.fires()) {
                statStalls_ += 1;
                const sim::Tick delay = faultStall_.param()
                                            ? faultStall_.param()
                                            : 50 * sim::oneUs;
                eventQueue().scheduleIn([this, j] { stream(j); },
                                        delay, "fault.dmaStall");
                return;
            }
            stream(j);
        });
}

void
McnDmaEngine::stream(Job *j)
{
    // Injected partial transfer: the engine aborts mid-stream and
    // the descriptor is replayed -- modelled as streaming half the
    // bytes first, then the full transfer.
    if (faultPartial_.fires()) {
        statStalls_ += 1;
        arbiter_.startTransfer(
            j->bytes / 2 + 1, [this, j](sim::Tick) { stream(j); },
            rateBps_);
        return;
    }
    arbiter_.startTransfer(
        j->bytes,
        [this, j](sim::Tick) {
            // Completion interrupt, then the callback.
            kernel_.cpus().execute(
                kernel_.costs().interruptEntry,
                [this, j](sim::Tick at) { finish(j, at); },
                /*irq=*/true);
        },
        rateBps_);
}

void
McnDmaEngine::finish(Job *j, sim::Tick at)
{
    tlSpan("dmaTransfer", j->t0, at);
    // Back to the pool before done runs: it may program another
    // transfer.
    sim::Callback<void(sim::Tick)> done = std::move(j->done);
    jobs_.release(j);
    if (done)
        done(at);
}

} // namespace mcnsim::mcn
