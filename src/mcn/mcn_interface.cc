/**
 * @file
 * McnInterface implementation.
 */

#include "mcn/mcn_interface.hh"

#include "sim/simulation.hh"

namespace mcnsim::mcn {

McnInterface::McnInterface(sim::Simulation &s, std::string name,
                           std::size_t sram_bytes,
                           McnInterfaceParams params)
    : sim::SimObject(s, std::move(name)), sram_(sram_bytes),
      params_(params)
{
    sramPort_ = std::make_unique<mem::BandwidthArbiter>(
        s, this->name() + ".sramPort", params_.sramPortBps, 0.95);
    regStat(&statRxIrqs_);
    regStat(&statAlerts_);
    regStat(&statHostAccesses_);
    regStat(&statLost_);
    regStat(&statSpurious_);
    regStat(&statTxRingQ_);
    regStat(&statRxRingQ_);
}

void
McnInterface::startup()
{
    if (!sim::FaultPlan::active())
        return;
    // Scheduled spurious doorbells: ring the handler with nothing
    // deposited. The drivers must tolerate the empty-ring drain.
    auto &plan = sim::FaultPlan::instance();
    for (const auto &hit :
         plan.scheduledFor(name() + ".spurious-rx-irq")) {
        eventQueue().schedule(
            [this] {
                sim::reportScheduledFault(*this, "spurious-rx-irq");
                statSpurious_ += 1;
                if (rxIrq_)
                    rxIrq_();
            },
            hit.at, "fault.spuriousRxIrq");
    }
    for (const auto &hit :
         plan.scheduledFor(name() + ".spurious-alert")) {
        eventQueue().schedule(
            [this] {
                sim::reportScheduledFault(*this, "spurious-alert");
                statSpurious_ += 1;
                if (alert_)
                    alert_();
            },
            hit.at, "fault.spuriousAlert");
    }
}

void
McnInterface::mapHostWindow(mem::MemController &host_mc,
                            mem::Addr base)
{
    mem::MmioRegion r;
    r.base = base;
    r.size = sram_.totalBytes();
    r.readLatency = params_.sramReadLatency;
    r.writeLatency = params_.sramWriteLatency;
    r.onAccess = [this](const mem::MemRequest &, sim::Tick) {
        statHostAccesses_ += 1;
    };
    host_mc.addMmioRegion(r);
}

void
McnInterface::hostDepositedRx()
{
    sram_.setRxPoll();
    statRxIrqs_ += 1;
    tlInstant("rxIrq");
    recordRingLevels();
    // Lost doorbell: rx-poll is set but the IRQ edge is swallowed.
    // The MCN driver's watchdog re-detects the non-empty ring.
    if (faultRxIrqLost_.fires()) {
        statLost_ += 1;
        return;
    }
    if (rxIrq_)
        rxIrq_();
}

void
McnInterface::mcnDepositedTx()
{
    sram_.setTxPoll();
    recordRingLevels();
    if (alert_) {
        // Lost ALERT_N pulse: tx-poll stays set, so the host
        // watchdog (or the next successful pulse) recovers.
        if (faultAlertLost_.fires()) {
            statLost_ += 1;
            return;
        }
        statAlerts_ += 1;
        tlInstant("txAlert");
        alert_();
    }
}

} // namespace mcnsim::mcn
