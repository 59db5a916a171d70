/**
 * @file
 * MCN-side driver implementation.
 */

#include "mcn/mcn_driver.hh"

#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::mcn {

McnDriver::McnDriver(sim::Simulation &s, std::string name,
                     net::MacAddr mac, os::Kernel &kernel,
                     McnInterface &iface, core::McnConfig config)
    : os::NetDevice(s, std::move(name), mac, config.mtu),
      kernel_(kernel), iface_(iface), config_(config)
{
    features().tso = config.tso;
    // The memory channel is ECC/CRC protected (paper Sec. IV-A):
    // this is the trusted hop that makes mcn2's checksum bypass
    // sound under the per-hop trust rule.
    features().trusted = true;
    if (config.dma)
        // The MCN-side engine moves bytes between the DIMM's own
        // DRAM and the SRAM over the on-chip bus: full port rate,
        // unlike the host-side engine that crosses the channel.
        dma_ = std::make_unique<McnDmaEngine>(
            s, this->name() + ".dma", kernel_, iface_.sramPort(),
            12.8e9);

    regStat(&statTxMsgs_);
    regStat(&statRxMsgs_);
    regStat(&statTxFull_);
    regStat(&statCrcDrops_);
    regStat(&statResyncs_);
}

void
McnDriver::startup()
{
    // The doorbell-recovery watchdog only exists under an armed
    // fault plan: silent runs stay event-identical to the seed
    // baselines, and an armed run is deterministic either way.
    if (sim::FaultPlan::active())
        eventQueue().scheduleIn([this] { watchdogTick(); },
                                config_.watchdogEpoch,
                                "mcn.rxWatchdog");
}

void
McnDriver::setAlive(bool alive)
{
    alive_ = alive;
    if (alive) {
        // Revive: resynchronise with whatever the host deposited
        // while we were down (the rx-poll flag survives in SRAM).
        if (iface_.sram().rxPoll() || !iface_.sram().rx().empty())
            rxIrq();
    }
}

void
McnDriver::watchdogTick()
{
    // Lost-doorbell recovery: rx-poll set (or messages pending)
    // with no drain running means the IRQ edge was swallowed.
    if (alive_ && !draining_ &&
        (iface_.sram().rxPoll() || !iface_.sram().rx().empty())) {
        statResyncs_ += 1;
        trace("MCNDriver", "watchdog: RX ring stuck, resyncing");
        rxIrq();
    }
    eventQueue().scheduleIn([this] { watchdogTick(); },
                            config_.watchdogEpoch,
                            "mcn.rxWatchdog");
}

os::TxResult
McnDriver::xmit(net::PacketPtr pkt)
{
    if (!alive_)
        return os::TxResult::Busy; // crashed processor
    auto &ring = iface_.sram().tx();
    // T1/T2: check space against the cached ring pointers,
    // accounting for copies already in flight.
    std::size_t need = MessageRing::footprint(pkt->size());
    if (need + txReserved_ > ring.freeBytes()) {
        statTxFull_ += 1;
        statTxBusy_ += 1;
        trace("MCNDriver", "xmit: TX ring full (", need,
              "B needed)");
        return os::TxResult::Busy; // NETDEV_TX_BUSY
    }
    txReserved_ += need;
    trace("MCNDriver", "xmit ", pkt->size(), "B into TX ring");
    statTxMsgs_ += 1;
    countTx(*pkt);

    std::uint64_t bytes = pkt->size();
    const auto &costs = kernel_.costs();

    // The message becomes visible in the ring only when the
    // modelled copy completes (T3: update tx-end, fence, tx-poll).
    const sim::Tick t0 = curTick();
    auto finish = [this, pkt, need, t0](sim::Tick now) {
        tlSpan("mcnTxCopy", t0, now);
        pkt->stamp(net::Stage::DriverTx, name().c_str(), now);
        bool ok = iface_.sram().tx().enqueue(*pkt);
        MCNSIM_ASSERT(ok, "TX ring enqueue failed after reserve");
        if (faultTxCorrupt_.fires())
            iface_.sram().tx().corruptNewest();
        txReserved_ -= need;
        iface_.mcnDepositedTx();
    };

    // Copybreak: programming the DMA engine costs more than a CPU
    // copy for small packets, so those stay on the CPU path (the
    // standard trick in production NIC drivers).
    if (dma_ && bytes > dmaCopybreak) {
        dma_->transfer(bytes, std::move(finish));
    } else {
        // CPU memcpy into the SRAM through the on-chip port.
        kernel_.cpus().leastLoaded().execute(
            costs.mcnDriverTx + costs.copy(bytes),
            [this, bytes, finish = std::move(finish)](sim::Tick) mutable {
                iface_.sramPort().startTransfer(bytes,
                                                std::move(finish));
            });
    }
    return os::TxResult::Ok;
}

void
McnDriver::rxIrq()
{
    if (draining_ || !alive_)
        return;
    draining_ = true;
    // The interrupt cost was charged by the IRQ path in the
    // interface wiring; start the drain loop.
    drainRx();
}

void
McnDriver::drainRx()
{
    auto &ring = iface_.sram().rx();
    if (ring.empty()) {
        iface_.sram().clearRxPoll();
        draining_ = false;
        // Packets may have landed between the check and the flag
        // clear; the interface re-raises its IRQ on the next
        // deposit, so nothing is lost.
        return;
    }

    auto msg = ring.dequeuePacket();
    MCNSIM_ASSERT(msg, "non-empty ring without front message");
    iface_.recordRingLevels();
    if (!msg->crcOk) {
        // In-SRAM corruption caught by the ring-entry CRC: the
        // message never reaches the stack; TCP retransmits.
        statCrcDrops_ += 1;
        trace("MCNDriver", "RX ring CRC mismatch, dropping");
        drainRx();
        return;
    }
    statRxMsgs_ += 1;
    net::PacketPtr pkt = std::move(msg->pkt);
    std::uint64_t bytes = pkt->size();
    trace("MCNDriver", "drain RX ring: ", bytes, "B");

    const auto &costs = kernel_.costs();
    const sim::Tick t0 = curTick();
    auto deliver = [this, pkt, t0](sim::Tick now) {
        tlSpan("mcnRxCopy", t0, now);
        pkt->stamp(net::Stage::DriverRx, name().c_str(), now);
        deliverUp(pkt);
        drainRx();
    };

    if (dma_ && bytes > dmaCopybreak) {
        dma_->transfer(bytes, std::move(deliver));
    } else {
        kernel_.cpus().leastLoaded().execute(
            costs.mcnDriverRx + costs.copy(bytes),
            [this, bytes, deliver = std::move(deliver)](sim::Tick) mutable {
                iface_.sramPort().startTransfer(bytes,
                                                std::move(deliver));
            });
    }
}

} // namespace mcnsim::mcn
