/**
 * @file
 * Host-side MCN driver implementation.
 */

#include "mcn/host_driver.hh"

#include "net/net_stack.hh"
#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::mcn {

namespace {
/** Channel-local base of the first SRAM window (1 GB in). */
constexpr mem::Addr windowRegionBase = 1ull << 30;
} // namespace

// ---------------------------------------------------------------------
// McnHostInterface
// ---------------------------------------------------------------------

McnHostInterface::McnHostInterface(sim::Simulation &s,
                                   std::string name,
                                   net::MacAddr mac,
                                   std::uint32_t mtu,
                                   McnHostDriver &driver,
                                   std::size_t dimm_index)
    : os::NetDevice(s, std::move(name), mac, mtu), driver_(driver),
      dimmIndex_(dimm_index)
{
    features().tso = driver.config().tso;
    // The hop behind this virtual device is the ECC/CRC-protected
    // memory channel: trusted under the per-hop checksum rule, so
    // mcn2's bypass stays sound host-side too.
    features().trusted = true;
}

os::TxResult
McnHostInterface::xmit(net::PacketPtr pkt)
{
    auto res = driver_.xmitToDimm(dimmIndex_, pkt);
    if (res == os::TxResult::Ok)
        countTx(*pkt);
    else
        statTxBusy_ += 1;
    return res;
}

// ---------------------------------------------------------------------
// McnHostDriver
// ---------------------------------------------------------------------

McnHostDriver::McnHostDriver(sim::Simulation &s, std::string name,
                             os::Kernel &host_kernel,
                             core::McnConfig config)
    : sim::SimObject(s, std::move(name)), kernel_(host_kernel),
      config_(config)
{
    regStat(&statF1_);
    regStat(&statF2_);
    regStat(&statF3_);
    regStat(&statF4_);
    regStat(&statFDrop_);
    regStat(&statPollScans_);
    regStat(&statPollHits_);
    regStat(&statRxRingFull_);
    regStat(&statDegraded_);
    regStat(&statRecoveries_);
    regStat(&statDegradedDrops_);
    regStat(&statRingCrcDrops_);
}

McnHostInterface &
McnHostDriver::addDimm(McnDimm &dimm, std::uint32_t channel)
{
    MCNSIM_ASSERT(channel < kernel_.mem().channelCount(),
                  "channel out of range");
    auto b = std::make_unique<Binding>();
    b->dimm = &dimm;
    b->channel = channel;
    b->slot = slotsPerChannel_[channel]++;
    b->windowBase =
        windowRegionBase + b->slot * dimm.config().sramBytes;

    std::size_t idx = dimms_.size();
    b->iface = std::make_unique<McnHostInterface>(
        simulation(), name() + ".veth" + std::to_string(idx),
        net::MacAddr::fromId(0x200000u +
                             static_cast<std::uint32_t>(idx)),
        config_.mtu, *this, idx);

    auto &mc = kernel_.mem().controller(channel);
    dimm.iface().mapHostWindow(mc, b->windowBase);
    b->copy = std::make_unique<mem::CopyEngine>(
        simulation(), name() + ".copy" + std::to_string(idx), mc);
    if (config_.dma)
        b->dma = std::make_unique<McnDmaEngine>(
            simulation(), name() + ".dma" + std::to_string(idx),
            kernel_, mc.bulk());

    // Inventory for the memory mapping unit.
    mem::DimmInfo info;
    info.name = dimm.name();
    info.kind = mem::DimmKind::Mcn;
    info.sramWindowBase = b->windowBase;
    info.sramWindowSize = dimm.config().sramBytes;
    kernel_.mem().addDimm(channel, info);

    if (config_.alertInterrupt) {
        auto &alert = alerts_[channel];
        if (!alert) {
            alert = std::make_unique<AlertSignal>(
                simulation(),
                name() + ".alert" + std::to_string(channel));
            alert->setHandler([this, channel](std::uint32_t slot) {
                // Interrupt relayed to a core; then poll exactly
                // the asserting DIMM.
                for (std::size_t i = 0; i < dimms_.size(); ++i) {
                    if (dimms_[i]->channel == channel &&
                        dimms_[i]->slot == slot) {
                        kernel_.cpus().execute(
                            kernel_.costs().interruptEntry,
                            [this, i](sim::Tick) { drainDimm(i); },
                            /*irq=*/true);
                        return;
                    }
                }
            });
        }
        AlertSignal *sig = alert.get();
        std::uint32_t slot = b->slot;
        dimm.iface().setAlertHandler(
            [sig, slot] { sig->assertFrom(slot); });
    }

    dimms_.push_back(std::move(b));
    return *dimms_.back()->iface;
}

void
McnHostDriver::startup()
{
    if (!config_.alertInterrupt && !dimms_.empty()) {
        pollTimer_ = std::make_unique<os::HrTimer>(
            simulation(), name() + ".pollTimer", kernel_.cpus());
        pollTimer_->startPeriodic(config_.pollPeriod, [this] {
            // The HR-timer body must be tiny: schedule the tasklet.
            kernel_.softirq().schedule([this] { pollTasklet(); });
        });
    }
    // The per-DIMM health watchdog exists only under an armed fault
    // plan: silent runs stay event-identical to the seed baselines,
    // and an armed run is deterministic either way.
    if (sim::FaultPlan::active() && !dimms_.empty())
        eventQueue().scheduleIn([this] { watchdogTick(); },
                                config_.watchdogEpoch,
                                "mcn.hostWatchdog");
}

// ---------------------------------------------------------------------
// Per-DIMM health watchdog (armed fault plans only)
// ---------------------------------------------------------------------

void
McnHostDriver::watchdogTick()
{
    for (std::size_t i = 0; i < dimms_.size(); ++i)
        checkDimmHealth(i);
    eventQueue().scheduleIn([this] { watchdogTick(); },
                            config_.watchdogEpoch,
                            "mcn.hostWatchdog");
}

void
McnHostDriver::checkDimmHealth(std::size_t idx)
{
    Binding &b = *dimms_[idx];
    auto &sram = b.dimm->iface().sram();

    // Progress marker: the MCN side consuming its RX ring. A node
    // whose processor died stops dequeuing while the ring (which
    // lives in the still-powered buffer device) holds data.
    const std::uint64_t deq = sram.rx().messagesDequeued();
    const bool pending = !sram.rx().empty();
    const bool progressed = deq != b.lastDequeued;
    b.lastDequeued = deq;

    if (progressed || !pending) {
        if (b.health == Health::Degraded && progressed) {
            statRecoveries_ += 1;
            trace("MCNDriver", "dimm ", idx,
                  " responding again, readmitted");
            tlInstant("dimmReadmitted");
        }
        if (progressed || b.health != Health::Degraded) {
            b.health = Health::Healthy;
            b.stuckEpochs = 0;
        }
    } else if (b.health != Health::Degraded) {
        b.stuckEpochs += 1;
        if (b.stuckEpochs >= config_.watchdogEpochs) {
            b.health = Health::Degraded;
            statDegraded_ += 1;
            trace("MCNDriver", "dimm ", idx, " unresponsive for ",
                  b.stuckEpochs, " epochs, marking degraded");
            tlInstant("dimmDegraded");
        } else {
            b.health = Health::Suspect;
        }
    }

    // Degraded nodes get one probe frame per epoch: a revived node
    // drains it, the dequeue counter moves, and the next sweep
    // readmits the DIMM.
    if (b.health == Health::Degraded)
        b.probeCredit = true;

    // Lost-ALERT recovery on the host side: data pending in the
    // DIMM's TX ring with no drain running means the doorbell edge
    // was swallowed; re-trigger the drain.
    if (sram.txPoll() && !b.draining && !sram.tx().empty())
        drainDimm(idx);
}

void
McnHostDriver::notifyUnreachable(const net::Packet &pkt,
                                 std::size_t dead_idx)
{
    if (!unreachableNotifier_)
        return;
    constexpr std::size_t ethSize = net::EthernetHeader::size;
    if (pkt.size() < ethSize + net::Ipv4Header::size)
        return;
    const std::uint8_t *ip =
        pkt.cprefix(ethSize + net::Ipv4Header::size) + ethSize;
    const net::Ipv4Addr src{(std::uint32_t(ip[12]) << 24) |
                            (std::uint32_t(ip[13]) << 16) |
                            (std::uint32_t(ip[14]) << 8) | ip[15]};
    unreachableNotifier_(src, dimms_[dead_idx]->dimm->addr());
}

// ---------------------------------------------------------------------
// C3: polling agent
// ---------------------------------------------------------------------

void
McnHostDriver::pollTasklet()
{
    if (pollInFlight_)
        return;
    pollInFlight_ = true;
    pollStart_ = curTick();
    scanNext(0);
}

void
McnHostDriver::scanNext(std::size_t idx)
{
    if (idx >= dimms_.size()) {
        tlSpan("pollScan", pollStart_, curTick());
        pollInFlight_ = false;
        return;
    }
    Binding &b = *dimms_[idx];
    statPollScans_ += 1;

    // Read the tx-poll field: one uncached access over the memory
    // channel plus the driver's check cost.
    fieldAccess(b, mem::MemRequest::Kind::Read,
                [this, idx](sim::Tick) {
                    kernel_.cpus().execute(
                        kernel_.costs().mcnPollPerDimm,
                        [this, idx](sim::Tick) {
                            Binding &bb = *dimms_[idx];
                            if (bb.dimm->iface().sram().txPoll()) {
                                statPollHits_ += 1;
                                drainDimm(idx);
                            }
                            scanNext(idx + 1);
                        });
                });
}

void
McnHostDriver::fieldAccess(Binding &b, mem::MemRequest::Kind kind,
                           sim::Callback<void(sim::Tick)> done)
{
    mem::MemRequest r;
    r.kind = kind;
    r.addr = b.windowBase; // the control block lives at the base
    r.size = 8;
    r.onComplete = std::move(done);
    kernel_.mem().controller(b.channel).access(std::move(r));
}

// ---------------------------------------------------------------------
// R1-R5: draining a DIMM's TX ring
// ---------------------------------------------------------------------

void
McnHostDriver::drainDimm(std::size_t idx)
{
    Binding &b = *dimms_[idx];
    if (b.draining)
        return;
    b.draining = true;
    if (channelDraining_[b.channel]) {
        drainQueue_[b.channel].push_back(idx);
        return;
    }
    startDrain(idx);
}

void
McnHostDriver::startDrain(std::size_t idx)
{
    Binding &b = *dimms_[idx];
    channelDraining_[b.channel] = true;
    b.drainStart = curTick();
    // R1: read tx-start and tx-end.
    fieldAccess(b, mem::MemRequest::Kind::Read,
                [this, idx](sim::Tick) { drainLoop(idx); });
}

void
McnHostDriver::drainFinished(std::size_t idx)
{
    Binding &b = *dimms_[idx];
    tlSpan("txDrain", b.drainStart, curTick());
    b.draining = false;
    channelDraining_[b.channel] = false;
    auto &q = drainQueue_[b.channel];
    if (!q.empty()) {
        std::size_t next = q.front();
        q.pop_front();
        startDrain(next);
    }
    // Anything deposited while we cleared the flag re-raises the
    // poll/alert on the MCN side, so nothing is lost.
    if (b.dimm->iface().sram().txPoll())
        drainDimm(idx);
}

void
McnHostDriver::drainLoop(std::size_t idx)
{
    Binding &b = *dimms_[idx];
    auto &ring = b.dimm->iface().sram().tx();

    if (ring.empty()) {
        // R5 done: reset tx-poll (one uncached write), then exit.
        b.dimm->iface().sram().clearTxPoll();
        fieldAccess(b, mem::MemRequest::Kind::Write,
                    [this, idx](sim::Tick) {
                        drainFinished(idx);
                    });
        return;
    }

    // R2/R3: the first cache line gives length + dst-mac; then the
    // message body is copied out of the SRAM window.
    auto msg = ring.dequeuePacket();
    MCNSIM_ASSERT(msg, "non-empty TX ring without front message");
    b.dimm->iface().recordRingLevels();
    if (!msg->crcOk) {
        // In-SRAM corruption caught by the ring-entry CRC: the
        // message never reaches the forwarding engine; the sender's
        // TCP retransmits.
        statRingCrcDrops_ += 1;
        trace("MCNDriver", "drain dimm ", idx,
              ": ring CRC mismatch, dropping");
        drainLoop(idx);
        return;
    }
    net::PacketPtr pkt = std::move(msg->pkt);
    std::uint64_t bytes = pkt->size();
    trace("MCNDriver", "drain dimm ", idx, ": ", bytes, "B from TX ring");

    const auto &costs = kernel_.costs();
    const sim::Tick t0 = curTick();
    auto after_copy = [this, idx, pkt, t0](sim::Tick now) {
        tlSpan("hostRxCopy", t0, now);
        pkt->stamp(net::Stage::DriverRx, name().c_str(), now);
        forward(idx, pkt);
        drainLoop(idx);
    };

    if (b.dma && bytes > dmaCopybreak) {
        b.dma->transfer(bytes, std::move(after_copy));
    } else {
        // memcpy_from_mcn: cacheable reads + explicit invalidate;
        // CPU issues the loads, the channel moves the lines.
        kernel_.cpus().execute(
            costs.mcnDriverRx + costs.copy(bytes),
            [&b, bytes,
             after_copy = std::move(after_copy)](sim::Tick) mutable {
                b.copy->copy(bytes, mem::CopyMode::CacheableRead,
                             std::move(after_copy));
            });
    }
}

// ---------------------------------------------------------------------
// T1-T3: host -> DIMM
// ---------------------------------------------------------------------

os::TxResult
McnHostDriver::xmitToDimm(std::size_t idx, net::PacketPtr pkt)
{
    Binding &b = *dimms_[idx];
    if (b.health == Health::Degraded) {
        if (!b.probeCredit) {
            // Swallow, don't Busy: a Busy return would park the
            // qdisc behind a dead node forever. Dropping lets TCP
            // see loss, back off and abort with a per-socket error,
            // while the unreachable notifier fails fast senders.
            statDegradedDrops_ += 1;
            notifyUnreachable(*pkt, idx);
            return os::TxResult::Ok;
        }
        b.probeCredit = false; // one probe frame per epoch
    }
    auto &ring = b.dimm->iface().sram().rx();
    std::size_t need = MessageRing::footprint(pkt->size());
    if (need + b.rxReserved > ring.freeBytes()) {
        statRxRingFull_ += 1;
        trace("MCNDriver", "xmit to dimm ", idx, ": RX ring full (",
              need, "B needed)");
        return os::TxResult::Busy; // NETDEV_TX_BUSY
    }
    b.rxReserved += need;
    trace("MCNDriver", "xmit to dimm ", idx, ": ", pkt->size(), "B");

    std::uint64_t bytes = pkt->size();
    const auto &costs = kernel_.costs();

    // The message lands in the ring when the modelled copy is done
    // (T3: update rx-end, fence, set rx-poll -> MCN IRQ).
    TxCopy *c = txCopies_.acquire();
    c->idx = idx;
    c->pkt = std::move(pkt);
    c->need = need;
    c->t0 = curTick();

    if (b.dma && bytes > dmaCopybreak) {
        b.dma->transfer(bytes,
                        [this, c](sim::Tick now) { txCopyLanded(c, now); });
    } else {
        // memcpy_to_mcn: write-combined stores, interleave-aware
        // strides keep every line on this DIMM's channel.
        kernel_.cpus().execute(
            costs.mcnDriverTx + costs.copy(bytes),
            [this, &b, bytes, c](sim::Tick) {
                b.copy->copy(bytes, mem::CopyMode::WriteCombined,
                             [this, c](sim::Tick now) {
                                 txCopyLanded(c, now);
                             });
            });
    }
    return os::TxResult::Ok;
}

void
McnHostDriver::txCopyLanded(TxCopy *c, sim::Tick now)
{
    const net::PacketPtr pkt = std::move(c->pkt);
    const std::size_t idx = c->idx;
    const std::size_t need = c->need;
    tlSpan("hostTxCopy", c->t0, now);
    txCopies_.release(c);
    pkt->stamp(net::Stage::DriverTx, name().c_str(), now);
    Binding &bb = *dimms_[idx];
    bool ok = bb.dimm->iface().sram().rx().enqueue(*pkt);
    MCNSIM_ASSERT(ok, "RX ring enqueue failed after reserve");
    if (faultTxCorrupt_.fires())
        bb.dimm->iface().sram().rx().corruptNewest();
    bb.rxReserved -= need;
    bb.dimm->iface().hostDepositedRx();
}

/** Lossless relay: retry a busy destination ring periodically
 *  (qdisc semantics; the source ring backpressures upstream). A
 *  ring that stays full past the retry budget means the consumer
 *  died -- give up and report the node unreachable rather than
 *  retrying forever. */
void
McnHostDriver::relayToDimm(std::size_t idx, net::PacketPtr pkt,
                           unsigned attempts)
{
    // 2000 x 5us = 10ms: far beyond any transient ring-full spell.
    constexpr unsigned maxRelayAttempts = 2000;
    if (xmitToDimm(idx, pkt) == os::TxResult::Busy) {
        if (attempts >= maxRelayAttempts) {
            statFDrop_ += 1;
            trace("MCNDriver", "relay to dimm ", idx,
                  ": ring stuck full, dropping");
            notifyUnreachable(*pkt, idx);
            return;
        }
        eventQueue().scheduleIn(
            [this, idx, pkt, attempts] {
                relayToDimm(idx, pkt, attempts + 1);
            },
            5 * sim::oneUs, "mcn.f3retry");
    }
}

// ---------------------------------------------------------------------
// C1: packet forwarding engine (F1-F4)
// ---------------------------------------------------------------------

void
McnHostDriver::forward(std::size_t from_idx, net::PacketPtr pkt)
{
    auto eth = net::EthernetHeader::peek(*pkt);

    // F2: broadcast -- deliver up AND replicate to every other MCN
    // node (and the uplink).
    if (eth.dst.isBroadcast()) {
        statF2_ += 1;
        statF1_ += 1;
        dimms_[from_idx]->iface->deliverUp(pkt->clone());
        for (std::size_t j = 0; j < dimms_.size(); ++j) {
            if (j == from_idx ||
                dimms_[j]->health == Health::Degraded)
                continue;
            xmitToDimm(j, pkt->clone());
        }
        if (uplink_)
            uplink_->xmit(pkt->clone());
        return;
    }

    // F1: destined to a host-side interface.
    for (auto &bp : dimms_) {
        if (eth.dst == bp->iface->mac()) {
            statF1_ += 1;
            dimms_[from_idx]->iface->deliverUp(std::move(pkt));
            return;
        }
    }

    // F3: destined to another MCN node's interface.
    for (std::size_t j = 0; j < dimms_.size(); ++j) {
        if (eth.dst == dimms_[j]->dimm->mac()) {
            if (dimms_[j]->health == Health::Degraded) {
                // Dead next hop: drop and tell the sender instead
                // of queuing behind a node that will never drain.
                statDegradedDrops_ += 1;
                notifyUnreachable(*pkt, j);
                return;
            }
            statF3_ += 1;
            kernel_.cpus().execute(
                kernel_.costs().ipForwardPerPacket,
                [this, j, pkt](sim::Tick) {
                    relayToDimm(j, pkt);
                });
            return;
        }
    }

    // F4: neither the host nor an MCN node -- uplink NIC.
    if (uplink_) {
        statF4_ += 1;
        trace("MCNDriver", "F4: forward ", pkt->size(),
              "B to uplink NIC");
        kernel_.cpus().execute(
            kernel_.costs().ipForwardPerPacket,
            [this, pkt](sim::Tick) { uplink_->xmit(pkt); });
        return;
    }
    statFDrop_ += 1;
}

} // namespace mcnsim::mcn
