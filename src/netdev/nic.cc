/**
 * @file
 * NIC implementation.
 */

#include "netdev/nic.hh"

#include <algorithm>
#include <cstring>

#include "net/checksum.hh"
#include "net/tcp.hh"
#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::netdev {

Nic::Nic(sim::Simulation &s, std::string name, net::MacAddr mac,
         os::Kernel &kernel, NicParams params)
    : os::NetDevice(s, std::move(name), mac, 1500),
      kernel_(kernel), params_(params),
      irqLine_(kernel.irq().allocateLine()),
      dmaTxHop_(this->name() + ".dmaTx"),
      dmaRxHop_(this->name() + ".dmaRx")
{
    regStat(&statRxDrops_);
    regStat(&statTsoSegs_);
    regStat(&statIrqs_);
    regStat(&statNapiPolls_);
    regStat(&statTxRingQ_);
    regStat(&statRxRingQ_);

    kernel_.irq().request(irqLine_, [this] { napiSchedule(); });
}

void
Nic::attachLink(EthernetLink &link)
{
    link_ = &link;
    link.attachB(this);
}

// ---------------------------------------------------------------------
// Transmit
// ---------------------------------------------------------------------

os::TxResult
Nic::xmit(net::PacketPtr pkt)
{
    if (txInFlight_ >= params_.txRingEntries) {
        statTxBusy_ += 1;
        trace("NIC", "xmit: TX ring full (", txInFlight_,
              " in flight)");
        return os::TxResult::Busy;
    }
    txInFlight_++;
    if (sim::FlowTelemetry::active()) [[unlikely]]
        statTxRingQ_.update(curTick(), txInFlight_);
    trace("NIC", "xmit ", pkt->size(), "B, ring doorbell");

    // Driver: write the descriptor, ring the doorbell.
    const auto &costs = kernel_.costs();
    kernel_.cpus().leastLoaded().execute(
        costs.nicDriverTx, [this, pkt](sim::Tick now) {
            pkt->stamp(net::Stage::DriverTx, name().c_str(), now);
            dmaTxStart(pkt);
        });
    return os::TxResult::Ok;
}

void
Nic::dmaTxStart(net::PacketPtr pkt)
{
    // The NIC fetches the frame from host DRAM over PCIe; the DMA
    // read consumes real memory-channel bandwidth (interleaved).
    std::uint64_t bytes = pkt->size();
    kernel_.mem().bulkInterleaved(
        bytes,
        [this, pkt](sim::Tick) {
            eventQueue().scheduleIn(
                [this, pkt] {
                    pkt->stamp(net::Stage::DmaTx, dmaTxHop_.c_str(),
                               curTick());
                    toWire(pkt);
                },
                params_.pcieLatency, "nic.pcie");
        },
        params_.dmaBps);
}

void
Nic::toWire(net::PacketPtr pkt)
{
    txInFlight_--;
    if (sim::FlowTelemetry::active()) [[unlikely]]
        statTxRingQ_.update(curTick(), txInFlight_);
    // Doorbell -> wire, straight off the packet's path stamps.
    if (sim::Timeline::active()) [[unlikely]] {
        sim::Tick t0 = pkt->lastStamp(net::Stage::DriverTx);
        if (t0 != net::PathTrace::unreached)
            tlSpan("nicTx", t0, curTick());
    }
    countTx(*pkt);
    if (!link_)
        return;

    if (pkt->tsoMss > 0) {
        // O1-O4: hardware segmentation.
        auto segs = segmentTso(pkt);
        statTsoSegs_ += static_cast<double>(segs.size());
        for (auto &s : segs)
            link_->sendFrom(this, std::move(s));
    } else {
        link_->sendFrom(this, std::move(pkt));
    }
}

std::vector<net::PacketPtr>
Nic::segmentTso(const net::PacketPtr &pkt)
{
    using namespace net;

    std::vector<PacketPtr> out;
    std::uint32_t mss = pkt->tsoMss;
    if (mss == 0) {
        out.push_back(pkt);
        return out;
    }

    // Parse the super-frame. Work on a clone so the original
    // remains intact for the caller.
    auto big = pkt->clone();
    EthernetHeader eth = EthernetHeader::pull(*big);
    auto ip = Ipv4Header::pull(*big, /*verify=*/false);
    MCNSIM_ASSERT(ip, "TSO frame without IP header");
    // The TCP checksum may be absent (bypass mode); never verify.
    auto tcp = TcpHeader::pull(*big, ip->src, ip->dst,
                               /*verify=*/false);
    MCNSIM_ASSERT(tcp, "TSO frame without TCP header");
    bool had_checksum = tcp->checksum != 0;

    std::size_t total = big->size();

    std::size_t off = 0;
    std::uint16_t ip_id = ip->id;
    while (off < total) {
        std::size_t chunk = std::min<std::size_t>(mss, total - off);
        // A lazy payload extent stays lazy in each segment.
        auto seg = Packet::makeDeferred(chunk, [&](std::uint8_t *p) {
            return big->copyOutDeferred(off, chunk, p);
        });
        if (pkt->path) [[unlikely]]
            seg->path = std::make_unique<net::PathTrace>(*pkt->path);
        seg->srcNode = pkt->srcNode;
        seg->dstNode = pkt->dstNode;

        TcpHeader th = *tcp;
        th.seq = tcp->seq + static_cast<std::uint32_t>(off);
        bool last = off + chunk >= total;
        if (!last)
            th.flags = static_cast<std::uint8_t>(th.flags &
                                                 ~tcpPsh);
        th.push(*seg, ip->src, ip->dst, had_checksum);

        Ipv4Header ih = *ip;
        ih.id = ip_id++;
        ih.totalLength = static_cast<std::uint16_t>(
            seg->size() + Ipv4Header::size);
        ih.push(*seg, had_checksum);

        eth.push(*seg);
        out.push_back(std::move(seg));
        off += chunk;
    }
    return out;
}

// ---------------------------------------------------------------------
// Receive
// ---------------------------------------------------------------------

void
Nic::receiveFrame(net::PacketPtr pkt)
{
    if (rxRingUsed_ >= params_.rxRingEntries) {
        statRxDrops_ += 1;
        trace("NIC", "rx drop: ring full (", pkt->size(), "B)");
        return;
    }
    rxRingUsed_++;
    tlCounter("rxRingUsed", static_cast<double>(rxRingUsed_));
    if (sim::FlowTelemetry::active()) [[unlikely]]
        statRxRingQ_.update(curTick(), rxRingUsed_);
    trace("NIC", "rx frame ", pkt->size(), "B -> DMA to host");

    // DMA the frame into the next RX ring buffer in host DRAM.
    std::uint64_t bytes = pkt->size();
    kernel_.mem().bulkInterleaved(
        bytes,
        [this, pkt](sim::Tick) {
            eventQueue().scheduleIn(
                [this, pkt] {
                    pkt->stamp(net::Stage::DmaRx, dmaRxHop_.c_str(),
                               curTick());
                    rxCompleted_.push_back(pkt);
                    if (!napiActive_) {
                        napiActive_ = true;
                        statIrqs_ += 1;
                        tlInstant("rxIrq");
                        kernel_.irq().raise(irqLine_);
                    }
                },
                params_.pcieLatency, "nic.pcieRx");
        },
        params_.dmaBps);
}

void
Nic::napiSchedule()
{
    kernel_.softirq().schedule([this] { napiPoll(); });
}

void
Nic::napiPoll()
{
    statNapiPolls_ += 1;
    std::size_t n = std::min<std::size_t>(
        rxCompleted_.size(),
        static_cast<std::size_t>(params_.napiBudget));
    if (n == 0) {
        napiActive_ = false; // re-enable interrupts
        return;
    }

    MCNSIM_ASSERT(napiBatch_.empty(), "overlapping NAPI polls");
    for (std::size_t i = 0; i < n; ++i) {
        napiBatch_.push_back(std::move(rxCompleted_.front()));
        rxCompleted_.pop_front();
    }

    const auto &costs = kernel_.costs();
    sim::Cycles cycles =
        static_cast<sim::Cycles>(n) * costs.nicDriverRxPerPacket;
    kernel_.cpus().leastLoaded().execute(
        cycles, [this](sim::Tick now) {
            for (const auto &p : napiBatch_) {
                // Host-DRAM landing -> stack delivery, per packet.
                if (sim::Timeline::active()) [[unlikely]] {
                    sim::Tick t0 = p->lastStamp(net::Stage::DmaRx);
                    if (t0 != net::PathTrace::unreached)
                        tlSpan("nicRx", t0, now);
                }
                p->stamp(net::Stage::DriverRx, name().c_str(), now);
                rxRingUsed_--;
                deliverUp(p);
            }
            napiBatch_.clear();
            tlCounter("rxRingUsed",
                      static_cast<double>(rxRingUsed_));
            if (sim::FlowTelemetry::active()) [[unlikely]]
                statRxRingQ_.update(curTick(), rxRingUsed_);
            if (!rxCompleted_.empty()) {
                napiSchedule(); // keep polling
            } else {
                napiActive_ = false;
            }
        });
}

} // namespace mcnsim::netdev
