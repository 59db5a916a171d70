/**
 * @file
 * EthernetSwitch implementation.
 */

#include "netdev/ethernet_switch.hh"

#include <algorithm>

#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::netdev {

namespace {

std::uint64_t
macKey(const net::MacAddr &m)
{
    std::uint64_t k = 0;
    for (auto byte : m.b)
        k = (k << 8) | byte;
    return k;
}

// IPv4 field offsets inside a frame (14 B Ethernet header + a
// 20-byte IPv4 header; the simulator always emits IHL=5).
constexpr std::size_t kOffProto = 23;
constexpr std::size_t kOffSrcIp = 26;
constexpr std::size_t kOffDstIp = 30;
constexpr std::size_t kOffPorts = 34; ///< TCP/UDP src+dst port

std::uint32_t
ipAt(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 24) |
           (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | p[3];
}

} // namespace

EthernetSwitch::EthernetSwitch(sim::Simulation &s, std::string name,
                               std::uint32_t ports,
                               sim::Tick forwarding_latency,
                               std::uint64_t egress_queue_bytes)
    : sim::SimObject(s, std::move(name)),
      // Sized so eviction never fires for sane topologies (16 MACs
      // per port of slack); the committed benches stay bit-identical
      // to the unbounded-map table.
      fib_(std::size_t{ports} * 16),
      fwdLatency_(forwarding_latency), egressCap_(egress_queue_bytes)
{
    for (std::uint32_t i = 0; i < ports; ++i)
        ports_.push_back(std::make_unique<Port>(*this, i));
    regStat(&statForwarded_);
    regStat(&statFlooded_);
    regStat(&statDrops_);
    regStat(&statFaultDrops_);
    for (std::uint32_t i = 0; i < ports; ++i) {
        portBacklogQ_.push_back(std::make_unique<sim::QueueStat>(
            "port" + std::to_string(i) + ".egressBacklog",
            "egress queue bytes on port " + std::to_string(i) +
                " (flow telemetry)"));
        regStat(portBacklogQ_.back().get());
    }
}

EthernetSwitch::~EthernetSwitch() = default;

void
EthernetSwitch::attachLink(std::uint32_t port, EthernetLink &link,
                           bool b_side)
{
    MCNSIM_ASSERT(port < ports_.size(), "bad switch port");
    ports_[port]->link = &link;
    if (b_side)
        link.attachB(ports_[port].get());
    else
        link.attachA(ports_[port].get());
}

void
EthernetSwitch::frameIn(std::uint32_t port, net::PacketPtr pkt)
{
    if (faultDrop_.fires()) {
        // Fabric-level loss (bad cable seating, CRC error at the
        // ingress MAC): the frame vanishes before MAC learning.
        statFaultDrops_ += 1;
        return;
    }
    if (fabric_) {
        fabricFrameIn(port, std::move(pkt));
        return;
    }
    auto eth = net::EthernetHeader::peek(*pkt);
    fib_.learn(macKey(eth.src), port);

    std::uint32_t out = eth.dst.isBroadcast()
                            ? MacFib::noPort
                            : fib_.lookup(macKey(eth.dst));
    if (out == MacFib::noPort) {
        // Flood to every other port.
        statFlooded_ += 1;
        trace("Switch", "flood ", pkt->size(), "B from port ",
              port);
        for (std::uint32_t p = 0; p < ports_.size(); ++p) {
            if (p == port || !ports_[p]->link)
                continue;
            egress(p, pkt->clone());
        }
        return;
    }
    if (out == port)
        return; // destination is behind the source port; drop
    egress(out, std::move(pkt));
}

void
EthernetSwitch::egress(std::uint32_t port, net::PacketPtr pkt)
{
    EthernetLink *link = ports_[port]->link;
    if (!link)
        return;
    std::uint64_t backlog = link->backlogBytes(ports_[port].get());
    if (backlog + pkt->size() > egressCap_) {
        statDrops_ += 1;
        trace("Switch", "drop ", pkt->size(),
              "B: egress queue full on port ", port);
        return;
    }
    statForwarded_ += 1;
    if (sim::FlowTelemetry::active()) [[unlikely]]
        portBacklogQ_[port]->update(curTick(),
                                    backlog + pkt->size());
    pkt->stamp(net::Stage::Switch, name().c_str(), curTick());
    // The forwarding pipeline occupies [now, now + fwdLatency_].
    tlSpan("fwd", curTick(), curTick() + fwdLatency_);
    Port *p = ports_[port].get();
    eventQueue().scheduleIn(
        [link, p, pkt] { link->sendFrom(p, pkt); }, fwdLatency_,
        "switch.fwd");
}

// ---------------------------------------------------------------------
// Fabric control plane (DESIGN.md §12)
// ---------------------------------------------------------------------

EthernetSwitch::SwitchPort::SwitchPort(sim::Simulation &s,
                                       EthernetSwitch &sw,
                                       std::uint32_t index)
    : sim::SimObject(s, sw.name() + ".port" + std::to_string(index)),
      sw_(sw), index_(index)
{}

void
EthernetSwitch::SwitchPort::startup()
{
    if (!sim::FaultPlan::active())
        return;
    auto &plan = sim::FaultPlan::instance();
    for (const auto &hit : plan.scheduledFor(name() + ".down")) {
        const sim::Tick dur =
            hit.param ? hit.param : 500 * sim::oneUs;
        eventQueue().schedule(
            [this, dur] {
                sim::reportScheduledFault(*this, "down");
                sw_.portDownNow(index_, dur);
            },
            hit.at, "fault.port-down");
    }
}

void
EthernetSwitch::enableFabric(const FabricParams &params)
{
    MCNSIM_ASSERT(!fabric_, "fabric mode enabled twice");
    fabric_ = std::make_unique<Fabric>();
    fabric_->params = params;
    fabric_->state.resize(ports_.size());
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(ports_.size()); ++i)
        fabric_->portObjs.push_back(std::make_unique<SwitchPort>(
            simulation(), *this, i));
    regStat(&statHelloTx_);
    regStat(&statPortDown_);
    regStat(&statPortUp_);
    regStat(&statUnroutable_);
}

void
EthernetSwitch::markTrunk(std::uint32_t port)
{
    MCNSIM_ASSERT(fabric_ && port < fabric_->state.size(),
                  "markTrunk needs fabric mode and a valid port");
    fabric_->state[port].trunk = true;
}

void
EthernetSwitch::addFabricRoute(const net::MacAddr &dst,
                               std::vector<std::uint32_t> ports)
{
    MCNSIM_ASSERT(fabric_, "addFabricRoute needs fabric mode");
    fabric_->routes[macKey(dst)] = std::move(ports);
}

void
EthernetSwitch::setUnreachableNotifier(UnreachableNotifier fn)
{
    MCNSIM_ASSERT(fabric_, "notifier needs fabric mode");
    fabric_->notifier = std::move(fn);
}

bool
EthernetSwitch::portLiveAt(std::uint32_t port, sim::Tick now) const
{
    const PortState &ps = fabric_->state[port];
    if (now < ps.adminDownUntil)
        return false;
    if (!ps.trunk)
        return true;
    return now <= ps.lastHelloRx + fabric_->params.deadInterval;
}

bool
EthernetSwitch::portLive(std::uint32_t port) const
{
    MCNSIM_ASSERT(fabric_ && port < fabric_->state.size(),
                  "portLive needs fabric mode and a valid port");
    return portLiveAt(port, curTick());
}

std::vector<std::uint32_t>
EthernetSwitch::liveEcmpPorts(const net::MacAddr &dst) const
{
    std::vector<std::uint32_t> live;
    if (!fabric_)
        return live;
    auto it = fabric_->routes.find(macKey(dst));
    if (it == fabric_->routes.end())
        return live;
    const sim::Tick now = curTick();
    for (std::uint32_t p : it->second)
        if (portLiveAt(p, now))
            live.push_back(p);
    return live;
}

std::uint32_t
EthernetSwitch::flowHash(const net::Packet &pkt)
{
    const std::size_t n = pkt.size();
    if (n < kOffDstIp + 4)
        return 0;
    const std::uint8_t *p =
        pkt.cprefix(std::min<std::size_t>(n, kOffPorts + 4));
    auto eth = net::EthernetHeader::peek(pkt);
    if (eth.type != net::ethTypeIpv4)
        return 0;
    std::uint32_t h = 2166136261u;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 16777619u;
    };
    const std::uint8_t proto = p[kOffProto];
    mix(proto);
    for (std::size_t i = kOffSrcIp; i < kOffSrcIp + 8; ++i)
        mix(p[i]); // src + dst address, contiguous
    if ((proto == net::protoTcp || proto == net::protoUdp) &&
        n >= kOffPorts + 4)
        for (std::size_t i = kOffPorts; i < kOffPorts + 4; ++i)
            mix(p[i]);
    return h;
}

void
EthernetSwitch::fabricFrameIn(std::uint32_t port, net::PacketPtr pkt)
{
    // Collect same-tick arrivals and route them in one end-of-tick
    // pass sorted by ingress port. The classic and sharded engines
    // interleave same-tick deliveries from *different* neighbours
    // differently (global insertion order vs mailbox merge order),
    // so acting on frames in raw delivery order would make the
    // ECMP-visible forwarding order an engine artifact.
    Fabric &f = *fabric_;
    f.inbox.push_back(Fabric::Arrival{
        port, static_cast<std::uint32_t>(f.inbox.size()),
        std::move(pkt)});
    if (!f.passScheduled) {
        f.passScheduled = true;
        eventQueue().schedule([this] { fabricIngressPass(); },
                              curTick(), "switch.ingress",
                              sim::EventPriority::Softirq);
    }
}

void
EthernetSwitch::fabricIngressPass()
{
    Fabric &f = *fabric_;
    f.passScheduled = false;
    f.batch.swap(f.inbox);
    // Frames from the same port (one link's FIFO) keep their
    // relative order in every engine: (port, seq) is unique, so an
    // in-place sort gives the stable order without a buffer.
    std::sort(f.batch.begin(), f.batch.end(),
              [](const Fabric::Arrival &a, const Fabric::Arrival &b) {
                  return a.port != b.port ? a.port < b.port
                                          : a.seq < b.seq;
              });
    for (auto &a : f.batch)
        fabricRoute(a.port, std::move(a.pkt));
    f.batch.clear();
}

void
EthernetSwitch::fabricRoute(std::uint32_t port, net::PacketPtr pkt)
{
    Fabric &f = *fabric_;
    const sim::Tick now = curTick();
    if (now < f.downUntil)
        return; // crashed/hung: the whole switch is dark
    if (now < f.state[port].adminDownUntil)
        return; // ingress port is down; hellos die here too
    auto eth = net::EthernetHeader::peek(*pkt);
    if (eth.type == net::ethTypeFabricHello) {
        f.state[port].lastHelloRx = now;
        return;
    }
    auto it = f.routes.find(macKey(eth.dst));
    if (it == f.routes.end()) {
        statUnroutable_ += 1;
        trace("Switch", "no route for ", eth.dst.str());
        return;
    }
    // Live-filter the group in fixed member order, then pick the
    // hash-th live member: flows spread over the healthy group and
    // rehash deterministically the instant a member dies or comes
    // back (bounded by the dead-interval detection window).
    std::array<std::uint32_t, 16> live; // ECMP groups are small
    std::size_t n_live = 0;
    for (std::uint32_t member : it->second)
        if (portLiveAt(member, now) && n_live < live.size())
            live[n_live++] = member;
    if (n_live == 0) {
        // True partition: no live next hop at all. Tell the source
        // so its sockets fail fast instead of spinning through the
        // full retransmission backoff.
        statUnroutable_ += 1;
        notifyUnreachable(*pkt);
        return;
    }
    // Hash before the move: argument initialisation is
    // indeterminately sequenced, so flowHash(*pkt) in the same call
    // could see an already-moved-from pointer.
    const std::uint32_t h = flowHash(*pkt);
    egress(live[h % n_live], std::move(pkt));
}

void
EthernetSwitch::notifyUnreachable(const net::Packet &pkt)
{
    Fabric &f = *fabric_;
    if (!f.notifier || pkt.size() < kOffDstIp + 4)
        return;
    auto eth = net::EthernetHeader::peek(pkt);
    if (eth.type != net::ethTypeIpv4)
        return;
    const std::uint8_t *p = pkt.cprefix(kOffDstIp + 4);
    const std::uint32_t src = ipAt(p + kOffSrcIp);
    const std::uint32_t dst = ipAt(p + kOffDstIp);
    const sim::Tick now = curTick();
    auto [it, fresh] =
        f.lastNotify.try_emplace(std::make_pair(src, dst), now);
    if (!fresh) {
        if (now < it->second + f.params.deadInterval)
            return; // throttled
        it->second = now;
    }
    trace("Switch", "dst ", net::Ipv4Addr(dst).str(),
          " unreachable; notifying ", net::Ipv4Addr(src).str());
    f.notifier(net::Ipv4Addr(src), net::Ipv4Addr(dst));
}

void
EthernetSwitch::sendHello(std::uint32_t port)
{
    EthernetLink *link = ports_[port]->link;
    if (!link)
        return;
    auto pkt = net::Packet::makeFilled(4, [port](std::uint8_t *p) {
        p[0] = static_cast<std::uint8_t>(port);
        p[1] = p[2] = p[3] = 0;
    });
    net::EthernetHeader h;
    h.dst = net::MacAddr::broadcast();
    h.src = net::MacAddr{};
    h.type = net::ethTypeFabricHello;
    h.push(*pkt);
    statHelloTx_ += 1;
    link->sendControl(ports_[port].get(), std::move(pkt));
}

void
EthernetSwitch::helloTick()
{
    Fabric &f = *fabric_;
    const sim::Tick now = curTick();
    if (now >= f.downUntil) {
        for (std::uint32_t p = 0;
             p < static_cast<std::uint32_t>(f.state.size()); ++p) {
            PortState &ps = f.state[p];
            if (!ps.trunk)
                continue;
            // Rolling-flap site: inline p=/n= triggers on
            // "<switch>.port<N>.down" take the port down for the
            // spec's param (default 500 us) starting now.
            if (sim::FaultPlan::active() &&
                f.portObjs[p]->faultDown_.fires()) [[unlikely]] {
                const std::uint64_t prm =
                    f.portObjs[p]->faultDown_.param();
                portDownNow(p, prm ? prm : 500 * sim::oneUs);
            }
            // Probe every trunk that is not itself down -- dead
            // ones included, which is what readmits a recovered
            // neighbor within one interval.
            if (now >= ps.adminDownUntil)
                sendHello(p);
        }
        // Liveness sweep: edge-detect per trunk port. The lag is
        // measured from the latest tick the failure can have been
        // unobservable (the previous sweep, or the end of our own
        // crash window), so a healthy pump keeps it bounded by one
        // helloInterval -- the reconvergence SLO.
        const sim::Tick visible_since =
            std::max(f.prevSweepAt, f.downUntil);
        for (std::uint32_t p = 0;
             p < static_cast<std::uint32_t>(f.state.size()); ++p) {
            PortState &ps = f.state[p];
            if (!ps.trunk)
                continue;
            const bool live = portLiveAt(p, now);
            if (ps.knownLive && !live) {
                statPortDown_ += 1;
                worstDetectLag_ = std::max(
                    worstDetectLag_,
                    now - std::min(now, visible_since));
                trace("Switch", "port ", p, " dead");
                tlInstant("port-down");
            } else if (!ps.knownLive && live) {
                statPortUp_ += 1;
                trace("Switch", "port ", p, " back");
                tlInstant("port-up");
            }
            ps.knownLive = live;
        }
        f.prevSweepAt = now;
    }
    eventQueue().scheduleIn([this] { helloTick(); },
                            f.params.helloInterval, "fabric.hello");
}

void
EthernetSwitch::crashNow(sim::Tick duration)
{
    Fabric &f = *fabric_;
    f.downUntil = std::max(f.downUntil, curTick() + duration);
    // A crash loses all control-plane state: neighbors must be
    // re-learned from fresh hellos after the reboot.
    for (PortState &ps : f.state)
        ps.lastHelloRx = 0;
    trace("Switch", "crashed for ", duration, " ticks");
    tlInstant("crash");
}

void
EthernetSwitch::hangNow(sim::Tick duration)
{
    // A hang keeps state but processes nothing until it passes.
    fabric_->downUntil =
        std::max(fabric_->downUntil, curTick() + duration);
    trace("Switch", "hung for ", duration, " ticks");
    tlInstant("hang");
}

void
EthernetSwitch::portDownNow(std::uint32_t port, sim::Tick duration)
{
    PortState &ps = fabric_->state[port];
    ps.adminDownUntil =
        std::max(ps.adminDownUntil, curTick() + duration);
    trace("Switch", "port ", port, " forced down for ", duration,
          " ticks");
}

void
EthernetSwitch::startup()
{
    if (!fabric_)
        return;
    eventQueue().scheduleIn([this] { helloTick(); },
                            fabric_->params.helloInterval,
                            "fabric.hello");
    if (!sim::FaultPlan::active())
        return;
    auto &plan = sim::FaultPlan::instance();
    for (const auto &hit : plan.scheduledFor(name() + ".crash")) {
        const sim::Tick dur = hit.param ? hit.param : 1 * sim::oneMs;
        eventQueue().schedule(
            [this, dur] {
                sim::reportScheduledFault(*this, "crash");
                crashNow(dur);
            },
            hit.at, "fault.crash");
    }
    for (const auto &hit : plan.scheduledFor(name() + ".hang")) {
        const sim::Tick dur = hit.param ? hit.param : 1 * sim::oneMs;
        eventQueue().schedule(
            [this, dur] {
                sim::reportScheduledFault(*this, "hang");
                hangNow(dur);
            },
            hit.at, "fault.hang");
    }
}

} // namespace mcnsim::netdev
