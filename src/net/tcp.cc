/**
 * @file
 * TCP implementation: wire format, demux layer, and the socket
 * state machine with Reno congestion control.
 */

#include "net/tcp.hh"

#include <algorithm>
#include <cstring>

#include "net/checksum.hh"
#include "net/net_stack.hh"
#include "sim/flow_stats.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::net {

namespace {

/** Flow-telemetry 5-tuple for this connection: outbound records
 *  local -> remote, inbound (what the peer sent us) the reverse. */
sim::FlowTelemetry::FlowKey
flowKey(const TcpTuple &t, bool outbound)
{
    sim::FlowTelemetry::FlowKey k;
    if (outbound) {
        k.srcIp = t.localIp.v;
        k.dstIp = t.remoteIp.v;
        k.srcPort = t.localPort;
        k.dstPort = t.remotePort;
    } else {
        k.srcIp = t.remoteIp.v;
        k.dstIp = t.localIp.v;
        k.srcPort = t.remotePort;
        k.dstPort = t.localPort;
    }
    k.proto = protoTcp;
    return k;
}

// Wrapping sequence-number comparisons (RFC 793).
bool
seqLt(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) < 0;
}

bool
seqLe(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) <= 0;
}

void
put16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v & 0xff);
}

void
put32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v & 0xff);
}

std::uint16_t
get16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | p[3];
}

constexpr sim::Tick minRto = 200 * sim::oneUs;
constexpr sim::Tick initialRto = 5 * sim::oneMs;
constexpr sim::Tick delAckDelay = 50 * sim::oneUs;
constexpr sim::Tick timeWaitDelay = 2 * sim::oneMs;
constexpr sim::Tick persistMin = 5 * sim::oneMs;
constexpr sim::Tick persistMax = 2 * sim::oneSec;
constexpr std::uint32_t initialCwndSegments = 10;

} // namespace

const char *
to_string(TcpState s)
{
    switch (s) {
      case TcpState::Closed:
        return "Closed";
      case TcpState::Listen:
        return "Listen";
      case TcpState::SynSent:
        return "SynSent";
      case TcpState::SynRcvd:
        return "SynRcvd";
      case TcpState::Established:
        return "Established";
      case TcpState::FinWait1:
        return "FinWait1";
      case TcpState::FinWait2:
        return "FinWait2";
      case TcpState::CloseWait:
        return "CloseWait";
      case TcpState::LastAck:
        return "LastAck";
      case TcpState::TimeWait:
        return "TimeWait";
    }
    return "?";
}

const char *
to_string(TcpError e)
{
    switch (e) {
      case TcpError::None:
        return "None";
      case TcpError::Reset:
        return "Reset";
      case TcpError::TimedOut:
        return "TimedOut";
      case TcpError::Unreachable:
        return "Unreachable";
    }
    return "?";
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

void
TcpHeader::push(Packet &pkt, Ipv4Addr src, Ipv4Addr dst,
                bool compute_checksum) const
{
    std::size_t l4_len = pkt.size() + size;
    std::uint8_t *p = pkt.push(size);
    put16(p, srcPort);
    put16(p + 2, dstPort);
    put32(p + 4, seq);
    put32(p + 8, ack);
    p[12] = 5 << 4; // data offset: 5 words
    p[13] = flags;
    put16(p + 14, window);
    put16(p + 16, 0); // checksum placeholder
    put16(p + 18, 0); // urgent pointer
    if (compute_checksum) {
        std::uint32_t sum = pseudoHeaderSum(
            src.v, dst.v, protoTcp,
            static_cast<std::uint16_t>(l4_len));
        sum = checksumPartial(pkt, 0, l4_len, sum);
        put16(p + 16, checksumFold(sum));
    }
}

std::optional<TcpHeader>
TcpHeader::pull(Packet &pkt, Ipv4Addr src, Ipv4Addr dst,
                bool verify_checksum)
{
    if (pkt.size() < size)
        return std::nullopt;
    const std::uint8_t *p = pkt.cprefix(size);
    std::uint16_t stored = get16(p + 16);
    // A zero checksum marks "not computed" (device offload toward a
    // lossless medium, loopback, or mcn2 bypass) -- the simulator's
    // CHECKSUM_UNNECESSARY. Only verify real checksums.
    if (verify_checksum && stored != 0) {
        std::uint32_t sum = pseudoHeaderSum(
            src.v, dst.v, protoTcp,
            static_cast<std::uint16_t>(pkt.size()));
        sum = checksumPartial(pkt, 0, pkt.size(), sum);
        if (checksumFold(sum) != 0)
            return std::nullopt;
    }
    TcpHeader h;
    h.srcPort = get16(p);
    h.dstPort = get16(p + 2);
    h.seq = get32(p + 4);
    h.ack = get32(p + 8);
    h.flags = p[13];
    h.window = get16(p + 14);
    h.checksum = get16(p + 16);
    pkt.pull(size);
    return h;
}

bool
TcpHeader::checksumOk(const Packet &pkt, Ipv4Addr src,
                      Ipv4Addr dst)
{
    if (pkt.size() < size)
        return true; // let pull() report the malformed segment
    if (get16(pkt.cprefix(size) + 16) == 0)
        return true; // CHECKSUM_UNNECESSARY
    std::uint32_t sum = pseudoHeaderSum(
        src.v, dst.v, protoTcp,
        static_cast<std::uint16_t>(pkt.size()));
    sum = checksumPartial(pkt, 0, pkt.size(), sum);
    return checksumFold(sum) == 0;
}

// ---------------------------------------------------------------------
// TcpLayer
// ---------------------------------------------------------------------

TcpLayer::TcpLayer(sim::Simulation &s, std::string name,
                   NetStack &stack)
    : sim::SimObject(s, std::move(name)), stack_(stack),
      timers_(eventQueue(), "tcp.timer")
{
    regStat(&statRx_);
    regStat(&statTx_);
    regStat(&statPureAcks_);
    regStat(&statDrops_);
    regStat(&statCsumDrops_);
}

TcpSocketPtr
TcpLayer::createSocket()
{
    // Per-layer id: a process-global counter would be a data race
    // between shards and would make names depend on cross-shard
    // execution order.
    return std::make_shared<TcpSocket>(*this, nextSockId_++);
}

std::uint16_t
TcpLayer::allocEphemeralPort()
{
    return nextPort_++;
}

void
TcpLayer::bindListener(std::uint16_t port, TcpSocketPtr sock)
{
    listeners_[port] = std::move(sock);
}

void
TcpLayer::bindConnection(const TcpTuple &t, TcpSocketPtr sock)
{
    connections_[t] = std::move(sock);
}

void
TcpLayer::unbind(const TcpTuple &t, std::uint16_t listen_port)
{
    connections_.erase(t);
    if (listen_port)
        listeners_.erase(listen_port);
}

void
TcpLayer::remoteUnreachable(Ipv4Addr addr)
{
    std::vector<TcpSocketPtr> victims;
    for (auto &[t, sock] : connections_) {
        if (t.remoteIp == addr &&
            sock->state() == TcpState::SynSent)
            victims.push_back(sock);
    }
    abortInTupleOrder(victims);
}

void
TcpLayer::peerPartitioned(Ipv4Addr addr)
{
    std::vector<TcpSocketPtr> victims;
    for (auto &[t, sock] : connections_) {
        if (t.remoteIp == addr &&
            sock->state() != TcpState::Closed &&
            sock->state() != TcpState::Listen)
            victims.push_back(sock);
    }
    statPartitionAborts_ += static_cast<double>(victims.size());
    abortInTupleOrder(victims);
}

void
TcpLayer::abortInTupleOrder(std::vector<TcpSocketPtr> &victims)
{
    // Collected first: abortConnection() unbinds, mutating the map.
    // Each abort schedules its socket's wakeups, so the order is
    // modeled output: ascending tuple, as an ordered map iterates.
    std::sort(victims.begin(), victims.end(),
              [](const TcpSocketPtr &a, const TcpSocketPtr &b) {
                  return a->tuple() < b->tuple();
              });
    for (auto &sock : victims)
        sock->abortConnection(TcpError::Unreachable);
}

void
TcpLayer::countTx(bool pure_ack)
{
    statTx_ += 1;
    if (pure_ack)
        statPureAcks_ += 1;
}

void
TcpLayer::rx(Ipv4Addr src, Ipv4Addr dst, PacketPtr pkt,
             bool verify_checksum)
{
    statRx_ += 1;
    if (verify_checksum && !TcpHeader::checksumOk(*pkt, src, dst)) {
        statCsumDrops_ += 1;
        statDrops_ += 1;
        return;
    }
    auto h = TcpHeader::pull(*pkt, src, dst,
                             /*verify_checksum=*/false);
    if (!h) {
        statDrops_ += 1;
        return;
    }

    TcpTuple t;
    t.localIp = dst;
    t.remoteIp = src;
    t.localPort = h->dstPort;
    t.remotePort = h->srcPort;

    // Hold a local reference: segmentArrived may unbind the socket
    // (RST, final ACK), dropping the map's ownership mid-call.
    auto conn = connections_.find(t);
    if (conn != connections_.end()) {
        TcpSocketPtr sock = conn->second;
        sock->segmentArrived(*h, src, dst, std::move(pkt));
        return;
    }
    auto lst = listeners_.find(h->dstPort);
    if (lst != listeners_.end()) {
        TcpSocketPtr sock = lst->second;
        sock->segmentArrived(*h, src, dst, std::move(pkt));
        return;
    }
    statDrops_ += 1;
}

// ---------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------

TcpSocket::TcpSocket(TcpLayer &layer, std::uint64_t id)
    : layer_(layer), stack_(layer.stack()),
      queue_(layer.eventQueue()), id_(id),
      connectCv_(layer.eventQueue()), acceptCv_(layer.eventQueue()),
      sendCv_(layer.eventQueue()), recvCv_(layer.eventQueue()),
      closeCv_(layer.eventQueue())
{}

TcpSocket::~TcpSocket()
{
    // Timers disarm via their embedded Timer destructors. When a
    // socket held alive by a suspended task frame is reaped after
    // the owning TcpLayer (and its TimerList) are gone, the list has
    // already disarmed them, so those cancels are no-ops.
}

std::uint32_t
TcpSocket::effectiveMss() const
{
    std::uint32_t mtu = stack_.pathMtu(tuple_.remoteIp);
    return static_cast<std::uint32_t>(mtu - Ipv4Header::size -
                                      TcpHeader::size);
}

std::uint32_t
TcpSocket::flightSize() const
{
    return sndNxt_ - sndUna_;
}

std::uint32_t
TcpSocket::availableWindow() const
{
    std::uint32_t wnd = std::min(cwnd_, peerWindow_);
    std::uint32_t flight = flightSize();
    return wnd > flight ? wnd - flight : 0;
}

std::uint16_t
TcpSocket::advertisedWindow() const
{
    std::uint32_t free_bytes =
        rcvBufCap > rcvQueue_.size()
            ? rcvBufCap - static_cast<std::uint32_t>(rcvQueue_.size())
            : 0;
    std::uint32_t scaled = free_bytes / TcpHeader::windowScale;
    return static_cast<std::uint16_t>(std::min<std::uint32_t>(
        scaled, 0xffff));
}

void
TcpSocket::listen(std::uint16_t port)
{
    tuple_.localIp = stack_.primaryAddr();
    tuple_.localPort = port;
    state_ = TcpState::Listen;
    boundAsListener_ = true;
    layer_.bindListener(port, shared_from_this());
}

sim::Task<TcpSocketPtr>
TcpSocket::accept()
{
    while (acceptQueue_.empty())
        co_await acceptCv_.wait();
    TcpSocketPtr child = std::move(acceptQueue_.front());
    acceptQueue_.erase(acceptQueue_.begin());
    co_return child;
}

sim::Task<bool>
TcpSocket::connect(Ipv4Addr dst, std::uint16_t port)
{
    auto self = shared_from_this();
    auto egress = stack_.interfaces().route(dst);
    if (!egress)
        co_return false;
    tuple_.remoteIp = dst;
    tuple_.remotePort = port;
    tuple_.localIp = stack_.sourceAddrFor(dst);
    tuple_.localPort = layer_.allocEphemeralPort();

    iss_ = layer_.nextIssActive();
    sndUna_ = sndNxt_ = iss_;
    state_ = TcpState::SynSent;
    layer_.bindConnection(tuple_, self);

    sendControl(tcpSyn);
    sndNxt_ = iss_ + 1; // SYN occupies one sequence number
    armRto();

    while (state_ == TcpState::SynSent)
        co_await connectCv_.wait();
    co_return state_ == TcpState::Established;
}

void
TcpSocket::becomeEstablished()
{
    state_ = TcpState::Established;
    cwnd_ = initialCwndSegments * effectiveMss();
    backoffCount_ = 0;
    connectCv_.notifyAll();
}

sim::Task<std::size_t>
TcpSocket::send(std::span<const std::uint8_t> data)
{
    auto self = shared_from_this();
    const auto &costs = stack_.kernel().costs();
    std::size_t accepted = 0;
    std::size_t off = 0;

    while (off < data.size()) {
        if (state_ != TcpState::Established &&
            state_ != TcpState::CloseWait)
            break;
        while (sndBuf_.size() >= sndBufCap &&
               (state_ == TcpState::Established ||
                state_ == TcpState::CloseWait))
            co_await sendCv_.wait();
        if (state_ != TcpState::Established &&
            state_ != TcpState::CloseWait)
            break;

        std::size_t room = sndBufCap - sndBuf_.size();
        std::size_t n = std::min(room, data.size() - off);
        // tcp_sendmsg: syscall + user->kernel copy.
        co_await stack_.kernel().cpus().leastLoaded().run(
            costs.syscallEntry + costs.copy(n));
        sndBuf_.append(data.data() + off, n);
        off += n;
        accepted += n;
        trySend();
    }
    co_return accepted;
}

sim::Task<std::size_t>
TcpSocket::sendPattern(std::size_t n)
{
    auto self = shared_from_this();
    const auto &costs = stack_.kernel().costs();
    std::size_t accepted = 0;

    while (accepted < n) {
        if (state_ != TcpState::Established &&
            state_ != TcpState::CloseWait)
            break;
        while (sndBuf_.size() >= sndBufCap &&
               (state_ == TcpState::Established ||
                state_ == TcpState::CloseWait))
            co_await sendCv_.wait();
        if (state_ != TcpState::Established &&
            state_ != TcpState::CloseWait)
            break;

        std::size_t room = sndBufCap - sndBuf_.size();
        std::size_t chunk = std::min(room, n - accepted);
        co_await stack_.kernel().cpus().leastLoaded().run(
            costs.syscallEntry + costs.copy(chunk));
        sndBuf_.appendPattern(accepted, chunk);
        accepted += chunk;
        trySend();
    }
    co_return accepted;
}

sim::Task<std::vector<std::uint8_t>>
TcpSocket::recv(std::size_t max)
{
    std::vector<std::uint8_t> out;
    co_await receive(max, &out);
    co_return out;
}

sim::Task<std::size_t>
TcpSocket::recvDiscard(std::size_t max)
{
    return receive(max, nullptr);
}

sim::Task<std::size_t>
TcpSocket::receive(std::size_t max, std::vector<std::uint8_t> *out)
{
    auto self = shared_from_this();
    const auto &costs = stack_.kernel().costs();
    while (rcvQueue_.empty() && !peerFin_ &&
           state_ != TcpState::Closed)
        co_await recvCv_.wait();

    std::size_t n = std::min(max, rcvQueue_.size());
    bool was_starved =
        advertisedWindow() * TcpHeader::windowScale < effectiveMss();
    if (out) {
        out->resize(n);
        rcvQueue_.take(n, out->data());
    } else {
        rcvQueue_.popFront(n);
    }
    if (n > 0) {
        co_await stack_.kernel().cpus().leastLoaded().run(
            costs.syscallEntry + costs.copy(n));
        bytesReceived_ += n;
        if (was_starved)
            sendAckNow(); // window update
    }
    co_return n;
}

sim::Task<std::size_t>
TcpSocket::recvInto(std::uint8_t *dst, std::size_t n)
{
    auto self = shared_from_this();
    const auto &costs = stack_.kernel().costs();
    std::size_t got = 0;
    while (got < n) {
        while (rcvQueue_.empty() && !peerFin_ &&
               state_ != TcpState::Closed)
            co_await recvCv_.wait();
        if (rcvQueue_.empty())
            break; // EOF
        std::size_t take = std::min(n - got, rcvQueue_.size());
        bool was_starved = advertisedWindow() *
                               TcpHeader::windowScale <
                           effectiveMss();
        if (dst)
            rcvQueue_.take(take, dst + got);
        else
            rcvQueue_.popFront(take);
        co_await stack_.kernel().cpus().leastLoaded().run(
            costs.syscallEntry + costs.copy(take));
        got += take;
        bytesReceived_ += take;
        if (was_starved)
            sendAckNow();
    }
    co_return got;
}

sim::Task<std::size_t>
TcpSocket::recvDrain(std::size_t n)
{
    return recvInto(nullptr, n);
}

sim::Task<void>
TcpSocket::close()
{
    auto self = shared_from_this();
    if (state_ == TcpState::Listen || state_ == TcpState::Closed) {
        state_ = TcpState::Closed;
        layer_.unbind(tuple_, boundAsListener_ ? tuple_.localPort : 0);
        co_return;
    }
    if (state_ == TcpState::Established)
        state_ = TcpState::FinWait1;
    else if (state_ == TcpState::CloseWait)
        state_ = TcpState::LastAck;
    finQueued_ = true;
    trySend();
    while (state_ != TcpState::Closed &&
           state_ != TcpState::TimeWait &&
           state_ != TcpState::FinWait2)
        co_await closeCv_.wait();
}

// ---------------------------------------------------------------------
// Protocol engine -- transmit side
// ---------------------------------------------------------------------

void
TcpSocket::trySend()
{
    if (state_ != TcpState::Established &&
        state_ != TcpState::CloseWait &&
        state_ != TcpState::FinWait1 && state_ != TcpState::LastAck)
        return;

    std::uint32_t mss = effectiveMss();
    bool tso = stack_.tsoTowards(tuple_.remoteIp);
    std::uint32_t max_seg = tso ? tsoMaxChunk : mss;

    while (true) {
        std::uint32_t sent_off = sndNxt_ - sndUna_;
        std::uint32_t avail =
            static_cast<std::uint32_t>(sndBuf_.size()) > sent_off
                ? static_cast<std::uint32_t>(sndBuf_.size()) -
                      sent_off
                : 0;
        std::uint32_t wnd = availableWindow();
        std::uint32_t len = std::min({avail, wnd, max_seg});
        if (len == 0)
            break;
        emitSegment(sndNxt_, len, tcpAck | tcpPsh,
                    tso ? mss : 0);
        sndNxt_ += len;
        armRto();
    }

    // FIN rides after all queued data.
    if (finQueued_ && !finSent_ &&
        sndNxt_ == sndUna_ + sndBuf_.size()) {
        emitSegment(sndNxt_, 0, tcpFin | tcpAck, 0);
        finSent_ = true;
        sndNxt_ += 1;
        armRto();
    }

    // Zero-window persist: data is queued, nothing is in flight,
    // and the peer advertises no space. Without probing, a lost
    // window update would deadlock the connection forever.
    if (peerWindow_ == 0 && flightSize() == 0 &&
        sndBuf_.size() > 0 && !persistTimer_.armed())
        armPersist();
}

void
TcpSocket::armPersist()
{
    persistTimeout_ = persistTimeout_ == 0
                          ? std::max(persistMin, rto_ ? rto_ : 0)
                          : std::min(persistTimeout_ * 2,
                                     persistMax);
    auto self = shared_from_this();
    layer_.timers().arm(persistTimer_,
                        layer_.curTick() + persistTimeout_,
                        [self] { self->persistFired(); });
}

void
TcpSocket::persistFired()
{
    if (state_ != TcpState::Established &&
        state_ != TcpState::CloseWait &&
        state_ != TcpState::FinWait1 && state_ != TcpState::LastAck)
        return;
    if (peerWindow_ > 0 || sndBuf_.size() == 0) {
        trySend();
        return;
    }
    // Window probe: one byte of new data past the advertised edge.
    // The forced ACK carries the peer's current window; its loss is
    // covered by the next (backed-off) probe.
    std::uint32_t sent_off = sndNxt_ - sndUna_;
    persistProbes_++;
    if (sndBuf_.size() > sent_off) {
        trace("zero-window probe at seq ", sndNxt_);
        emitSegment(sndNxt_, 1, tcpAck, 0);
        sndNxt_ += 1;
    } else {
        sendControl(tcpAck);
    }
    armPersist();
}

void
TcpSocket::abortConnection(TcpError why)
{
    if (state_ == TcpState::Closed)
        return;
    trace("aborting connection (", to_string(why), ") in state ",
          to_string(state_));
    error_ = why;
    state_ = TcpState::Closed;
    rtoTimer_.cancel();
    delAckTimer_.cancel();
    persistTimer_.cancel();
    connectCv_.notifyAll();
    recvCv_.notifyAll();
    sendCv_.notifyAll();
    closeCv_.notifyAll();
    layer_.unbind(tuple_, 0);
}

void
TcpSocket::emitSegment(std::uint32_t seq, std::uint32_t len,
                       std::uint8_t flags, std::uint32_t tso_mss)
{
    const auto &costs = stack_.kernel().costs();

    // Copy the payload's literal bytes straight from the send queue
    // into the packet's pooled block; its largest pattern run stays
    // a lazy extent, unwritten unless something reads it.
    auto pkt = Packet::makeDeferred(len, [&](std::uint8_t *p) {
        return sndBuf_.copyOutDeferred(seq - sndUna_, len, p);
    });
    pkt->tsoMss = tso_mss;

    TcpHeader h;
    h.srcPort = tuple_.localPort;
    h.dstPort = tuple_.remotePort;
    h.seq = seq;
    h.ack = rcvNxt_;
    h.flags = flags;
    h.window = advertisedWindow();

    // mcn2 bypass only holds when the egress is the trusted memory
    // channel; an untrusted (NIC) hop always gets a checksum.
    bool sw_checksum = !(stack_.checksumBypass() &&
                         stack_.trustedTowards(tuple_.remoteIp)) &&
                       !stack_.checksumOffloadTowards(
                           tuple_.remoteIp);
    h.push(*pkt, tuple_.localIp, tuple_.remoteIp, sw_checksum);

    // RTT sampling: one un-retransmitted data segment at a time.
    if (len > 0 && rttSampleSentAt_ == 0) {
        rttSampleSentAt_ = layer_.curTick();
        rttSampleSeq_ = seq + len;
    }

    bool pure_ack = len == 0 && !(flags & (tcpSyn | tcpFin));
    layer_.countTx(pure_ack);
    if (len > 0) {
        bytesSent_ += len;
        unackedSegs_ = 0; // data segment carries our latest ack
    }
    if (sim::FlowTelemetry::active()) [[unlikely]]
        sim::FlowTelemetry::instance().recordTx(
            layer_.shardId(), flowKey(tuple_, true), pkt->size(),
            layer_.curTick());

    // Charge protocol processing then hand to IP.
    sim::Cycles cycles = costs.tcpTxPerPacket + costs.skbAlloc;
    if (sw_checksum && len > 0)
        cycles += costs.checksum(len);
    auto self = shared_from_this();
    stack_.kernel().cpus().leastLoaded().execute(
        cycles, [self, pkt](sim::Tick) {
            self->stack_.sendIp(self->tuple_.localIp,
                                self->tuple_.remoteIp, protoTcp,
                                pkt);
        });
}

void
TcpSocket::sendControl(std::uint8_t flags)
{
    emitSegment(sndNxt_, 0, flags, 0);
}

void
TcpSocket::sendAckNow()
{
    delAckTimer_.cancel();
    unackedSegs_ = 0;
    sendControl(tcpAck);
}

void
TcpSocket::scheduleDelayedAck()
{
    if (delAckTimer_.armed())
        return;
    auto self = shared_from_this();
    layer_.timers().arm(delAckTimer_,
                        layer_.curTick() + delAckDelay, [self] {
                            if (self->unackedSegs_ > 0)
                                self->sendAckNow();
                        });
}

// ---------------------------------------------------------------------
// Protocol engine -- receive side
// ---------------------------------------------------------------------

void
TcpSocket::segmentArrived(const TcpHeader &h, Ipv4Addr src,
                          Ipv4Addr dst, PacketPtr pkt)
{
    peerWindow_ =
        static_cast<std::uint32_t>(h.window) * TcpHeader::windowScale;

    // A window update ends zero-window persist mode.
    if (persistTimer_.armed() && peerWindow_ > 0) {
        persistTimer_.cancel();
        persistTimeout_ = 0;
        trySend();
    }

    if (h.flags & tcpRst) {
        abortConnection(TcpError::Reset);
        return;
    }

    switch (state_) {
      case TcpState::Listen: {
        if (!(h.flags & tcpSyn))
            return;
        // Passive open: spawn a child connection.
        auto child = layer_.createSocket();
        child->tuple_.localIp = dst;
        child->tuple_.remoteIp = src;
        child->tuple_.localPort = h.dstPort;
        child->tuple_.remotePort = h.srcPort;
        child->state_ = TcpState::SynRcvd;
        child->rcvNxt_ = h.seq + 1;
        child->iss_ = layer_.nextIssPassive();
        child->sndUna_ = child->sndNxt_ = child->iss_;
        child->parent_ = shared_from_this();
        layer_.bindConnection(child->tuple_, child);
        child->sendControl(tcpSyn | tcpAck);
        child->sndNxt_ = child->iss_ + 1;
        child->armRto();
        return;
      }

      case TcpState::SynSent: {
        if ((h.flags & (tcpSyn | tcpAck)) == (tcpSyn | tcpAck) &&
            h.ack == sndNxt_) {
            rcvNxt_ = h.seq + 1;
            sndUna_ = h.ack;
            rtoTimer_.cancel();
            becomeEstablished();
            sendAckNow();
        }
        return;
      }

      case TcpState::SynRcvd: {
        if ((h.flags & tcpAck) && h.ack == sndNxt_) {
            sndUna_ = h.ack;
            rtoTimer_.cancel();
            becomeEstablished();
            if (auto p = parent_.lock()) {
                p->acceptQueue_.push_back(shared_from_this());
                p->acceptCv_.notifyAll();
            }
            // Fall through to process any piggybacked data.
            if (pkt->size() > 0)
                deliverData(h, std::move(pkt));
        }
        return;
      }

      case TcpState::Closed:
        return;

      default:
        break;
    }

    // Established and closing states.
    if (h.flags & tcpAck)
        processAck(h);

    std::uint32_t payload_len =
        static_cast<std::uint32_t>(pkt->size());
    if (payload_len > 0)
        deliverData(h, pkt);

    if (h.flags & tcpFin) {
        // Accept the FIN only once all data up to it has arrived.
        std::uint32_t fin_seq = h.seq + payload_len;
        if (!peerFin_ && rcvNxt_ == fin_seq) {
            peerFin_ = true;
            rcvNxt_ += 1;
            sendAckNow();
            if (state_ == TcpState::Established)
                state_ = TcpState::CloseWait;
            else if (state_ == TcpState::FinWait1)
                state_ = TcpState::TimeWait, enterTimeWait();
            else if (state_ == TcpState::FinWait2)
                enterTimeWait();
            recvCv_.notifyAll();
            closeCv_.notifyAll();
        }
    }
}

void
TcpSocket::processAck(const TcpHeader &h)
{
    std::uint32_t mss = effectiveMss();

    if (seqLt(sndUna_, h.ack) && seqLe(h.ack, sndNxt_)) {
        std::uint32_t acked = h.ack - sndUna_;
        // Data bytes leave the retransmission buffer (SYN/FIN
        // occupy sequence space but not buffer bytes).
        std::size_t drop =
            std::min<std::size_t>(acked, sndBuf_.size());
        sndBuf_.popFront(drop);
        sndUna_ = h.ack;
        dupAcks_ = 0;
        backoffCount_ = 0; // forward progress: sender is alive

        // RTT sample.
        if (rttSampleSentAt_ && seqLe(rttSampleSeq_, h.ack)) {
            sim::Tick sample = layer_.curTick() - rttSampleSentAt_;
            updateRtt(sample);
            if (sim::FlowTelemetry::active()) [[unlikely]]
                sim::FlowTelemetry::instance().recordRtt(
                    layer_.shardId(), flowKey(tuple_, true),
                    sample);
            rttSampleSentAt_ = 0;
        }

        if (inRecovery_ && seqLe(recover_, h.ack)) {
            inRecovery_ = false;
            cwnd_ = ssthresh_;
        }

        // Reno growth.
        if (!inRecovery_) {
            if (cwnd_ < ssthresh_)
                cwnd_ += std::min(acked, mss);
            else
                cwnd_ += std::max<std::uint32_t>(
                    1, mss * mss / std::max<std::uint32_t>(cwnd_, 1));
        }

        armRto();
        sendCv_.notifyAll();
        trySend();

        // FIN fully acked?
        if (finSent_ && h.ack == sndNxt_) {
            if (state_ == TcpState::FinWait1) {
                state_ = peerFin_ ? TcpState::TimeWait
                                  : TcpState::FinWait2;
                if (state_ == TcpState::TimeWait)
                    enterTimeWait();
            } else if (state_ == TcpState::LastAck) {
                state_ = TcpState::Closed;
                layer_.unbind(tuple_, 0);
            }
            closeCv_.notifyAll();
        }
    } else if (h.ack == sndUna_ && flightSize() > 0) {
        dupAcks_++;
        if (dupAcks_ == 3 && !inRecovery_) {
            // Fast retransmit + fast recovery.
            ssthresh_ = std::max(flightSize() / 2, 2 * mss);
            retransmits_++;
            fastRetransmits_++;
            if (sim::FlowTelemetry::active()) [[unlikely]]
                sim::FlowTelemetry::instance().recordRetransmit(
                    layer_.shardId(), flowKey(tuple_, true));
            trace("fast retransmit at seq ", sndUna_, ", ssthresh=",
                  ssthresh_);
            std::uint32_t len = std::min<std::uint32_t>(
                mss,
                static_cast<std::uint32_t>(sndBuf_.size()));
            if (len > 0)
                emitSegment(sndUna_, len, tcpAck, 0);
            cwnd_ = ssthresh_ + 3 * mss;
            inRecovery_ = true;
            recover_ = sndNxt_;
        } else if (inRecovery_ && dupAcks_ > 3) {
            cwnd_ += mss;
            trySend();
        }
    }
}

void
TcpSocket::deliverData(const TcpHeader &h, PacketPtr pkt)
{
    std::uint32_t seq = h.seq;
    std::size_t len = pkt->size();

    // Discard segments ending beyond the receive window: a corrupt
    // or hostile sequence number must not grow rcvQueue_/ooo_
    // without bound. Re-ack so a confused-but-honest sender resyncs.
    if (seqLt(rcvNxt_ + rcvBufCap,
              seq + static_cast<std::uint32_t>(len))) {
        layer_.countOutOfWindow();
        sendAckNow();
        return;
    }

    // Trim any part we already have.
    std::uint32_t overlap = 0;
    if (seqLt(seq, rcvNxt_)) {
        overlap = rcvNxt_ - seq;
        if (overlap >= len) {
            sendAckNow(); // pure duplicate: re-ack
            return;
        }
        len -= overlap;
        seq = rcvNxt_;
    }

    if (seq == rcvNxt_) {
        // Queue a view of the segment's bytes; no payload copy.
        PacketPtr slice = pkt->view();
        slice->pull(overlap);
        rcvQueue_.append(std::move(slice));
        rcvNxt_ += static_cast<std::uint32_t>(len);

        // Merge any now-contiguous out-of-order segments.
        auto it = ooo_.begin();
        while (it != ooo_.end()) {
            if (seqLt(rcvNxt_, it->first))
                break;
            PacketPtr &seg = it->second;
            std::uint32_t skip = rcvNxt_ - it->first;
            if (skip < seg->size()) {
                seg->pull(skip);
                rcvNxt_ += static_cast<std::uint32_t>(seg->size());
                rcvQueue_.append(std::move(seg));
            }
            it = ooo_.erase(it);
        }

        recvCv_.notifyAll();
        unackedSegs_++;
        if (unackedSegs_ >= 2)
            sendAckNow();
        else
            scheduleDelayedAck();
    } else {
        // Out of order: buffer (within budget) and dup-ack
        // immediately. Over budget the segment is dropped -- the
        // sender's retransmission recovers it later.
        if (ooo_.size() < oooMaxSegs)
            ooo_.try_emplace(seq, pkt->view());
        else
            layer_.countOutOfWindow();
        sendAckNow();
    }

    if (sim::FlowTelemetry::active()) [[unlikely]]
        recordDelivery(*pkt, layer_.shardId(), flowKey(tuple_, false),
                       layer_.name().c_str(), layer_.curTick());
    if (layer_.deliveryHook())
        layer_.deliveryHook()(*pkt);
}

// ---------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------

void
TcpSocket::updateRtt(sim::Tick sample)
{
    if (srtt_ == 0) {
        srtt_ = sample;
        rttvar_ = sample / 2;
    } else {
        sim::Tick diff =
            srtt_ > sample ? srtt_ - sample : sample - srtt_;
        rttvar_ = (3 * rttvar_ + diff) / 4;
        srtt_ = (7 * srtt_ + sample) / 8;
    }
    rto_ = std::max(minRto, srtt_ + 4 * rttvar_);
}

void
TcpSocket::armRto()
{
    bool outstanding = flightSize() > 0 ||
                       state_ == TcpState::SynSent ||
                       state_ == TcpState::SynRcvd;
    if (!outstanding) {
        rtoTimer_.cancel();
        return;
    }
    sim::Tick timeout = rto_ ? rto_ : initialRto;
    auto self = shared_from_this();
    layer_.timers().arm(rtoTimer_, layer_.curTick() + timeout,
                        [self] { self->rtoFired(); });
}

void
TcpSocket::rtoFired()
{
    if (flightSize() == 0 && state_ != TcpState::SynSent &&
        state_ != TcpState::SynRcvd)
        return;

    if (++backoffCount_ > maxRetransmits) {
        // The peer is gone (crashed node, partitioned link):
        // surface a hard error instead of retrying forever.
        abortConnection(TcpError::TimedOut);
        return;
    }

    retransmits_++;
    if (sim::FlowTelemetry::active()) [[unlikely]]
        sim::FlowTelemetry::instance().recordRetransmit(
            layer_.shardId(), flowKey(tuple_, true));
    std::uint32_t mss = effectiveMss();
    trace("RTO fired, state=", static_cast<int>(state_), ", flight=",
          flightSize());

    if (state_ == TcpState::SynSent) {
        sendControl(tcpSyn); // re-SYN (seq already consumed)
    } else if (state_ == TcpState::SynRcvd) {
        sendControl(tcpSyn | tcpAck);
    } else {
        ssthresh_ = std::max(flightSize() / 2, 2 * mss);
        cwnd_ = mss;
        inRecovery_ = false;
        dupAcks_ = 0;
        std::uint32_t len = std::min<std::uint32_t>(
            mss, static_cast<std::uint32_t>(sndBuf_.size()));
        if (len > 0) {
            emitSegment(sndUna_, len, tcpAck, 0);
        } else if (finSent_) {
            emitSegment(sndNxt_ - 1, 0, tcpFin | tcpAck, 0);
        }
    }
    rttSampleSentAt_ = 0; // Karn's rule
    rto_ = std::min<sim::Tick>((rto_ ? rto_ : initialRto) * 2,
                               2 * sim::oneSec);
    armRto();
}

void
TcpSocket::enterTimeWait()
{
    state_ = TcpState::TimeWait;
    closeCv_.notifyAll();
    auto self = shared_from_this();
    layer_.eventQueue().scheduleIn(
        [self] {
            self->state_ = TcpState::Closed;
            self->layer_.unbind(self->tuple_, 0);
        },
        timeWaitDelay, "tcp.timewait");
}

} // namespace mcnsim::net
