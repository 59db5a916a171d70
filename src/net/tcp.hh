/**
 * @file
 * TCP: header, connection state machine, Reno congestion control,
 * retransmission, delayed ACKs, TSO handoff, and a coroutine socket
 * API (tcp_sendmsg / tcp_recvmsg equivalents).
 *
 * The implementation keeps real sequence-number state and real
 * bytes so in-order delivery under loss and reordering is testable;
 * CPU costs are charged per segment through the owning kernel's
 * cores, which is what makes protocol processing a first-class
 * bottleneck exactly as in the paper's evaluation.
 */

#ifndef MCNSIM_NET_TCP_HH
#define MCNSIM_NET_TCP_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/byte_ring.hh"
#include "net/ipv4.hh"
#include "net/packet.hh"
#include "net/recv_queue.hh"
#include "sim/sim_object.hh"
#include "sim/task.hh"
#include "sim/timer.hh"

namespace mcnsim::net {

class NetStack;

/** TCP flag bits. */
enum : std::uint8_t {
    tcpFin = 0x01,
    tcpSyn = 0x02,
    tcpRst = 0x04,
    tcpPsh = 0x08,
    tcpAck = 0x10,
};

/** The 20-byte TCP header (no options on the wire format). */
struct TcpHeader
{
    static constexpr std::size_t size = 20;

    std::uint16_t srcPort = 0;
    std::uint16_t dstPort = 0;
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    std::uint8_t flags = 0;
    std::uint16_t window = 0; ///< in units of windowScale bytes
    std::uint16_t checksum = 0;

    /** Fixed window scale applied to the 16-bit field. */
    static constexpr std::uint32_t windowScale = 64;

    void push(Packet &pkt, Ipv4Addr src, Ipv4Addr dst,
              bool compute_checksum) const;
    static std::optional<TcpHeader> pull(Packet &pkt, Ipv4Addr src,
                                         Ipv4Addr dst,
                                         bool verify_checksum);
    /** Verify without pulling. True for a zero (not computed)
     *  checksum -- the simulator's CHECKSUM_UNNECESSARY. */
    static bool checksumOk(const Packet &pkt, Ipv4Addr src,
                           Ipv4Addr dst);
};

/** Connection 4-tuple. */
struct TcpTuple
{
    Ipv4Addr localIp, remoteIp;
    std::uint16_t localPort = 0, remotePort = 0;

    bool
    operator==(const TcpTuple &o) const
    {
        return localIp == o.localIp && remoteIp == o.remoteIp &&
               localPort == o.localPort && remotePort == o.remotePort;
    }

    bool
    operator<(const TcpTuple &o) const
    {
        if (localIp != o.localIp)
            return localIp < o.localIp;
        if (remoteIp != o.remoteIp)
            return remoteIp < o.remoteIp;
        if (localPort != o.localPort)
            return localPort < o.localPort;
        return remotePort < o.remotePort;
    }
};

/** Hash of a 4-tuple: both addresses and ports folded into 64 bits
 *  and mixed with the splitmix64 finalizer. */
struct TcpTupleHash
{
    std::size_t
    operator()(const TcpTuple &t) const
    {
        std::uint64_t k =
            (std::uint64_t{t.remoteIp.v} << 32 | t.localIp.v) ^
            (std::uint64_t{t.remotePort} << 16 | t.localPort) *
                0x9e3779b97f4a7c15ull;
        k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
        k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(k ^ (k >> 31));
    }
};

class TcpSocket;
using TcpSocketPtr = std::shared_ptr<TcpSocket>;

/** Per-node TCP layer: demux + port allocation. */
class TcpLayer : public sim::SimObject
{
  public:
    TcpLayer(sim::Simulation &s, std::string name, NetStack &stack);

    /** Create an unbound socket on this node. */
    TcpSocketPtr createSocket();

    /** Demux an inbound segment (called by NetStack). @p
     *  verify_checksum reflects the per-hop trust decision:
     *  segments from untrusted devices are verified even under
     *  mcn2 bypass. */
    void rx(Ipv4Addr src, Ipv4Addr dst, PacketPtr pkt,
            bool verify_checksum = true);

    std::uint64_t rxCsumDrops() const
    {
        return static_cast<std::uint64_t>(statCsumDrops_.value());
    }
    std::uint64_t outOfWindowDrops() const
    {
        return static_cast<std::uint64_t>(statOowDrops_.value());
    }

    /**
     * React to an ICMP destination-unreachable about @p addr:
     * connections still in handshake toward it fail immediately
     * with TcpError::Unreachable instead of burning through the
     * full retransmission backoff.
     */
    void remoteUnreachable(Ipv4Addr addr);

    /**
     * React to a fabric partition notice about @p addr: EVERY
     * connection with that peer -- not just handshakes -- aborts
     * with TcpError::Unreachable. Stronger than
     * remoteUnreachable() because the fabric asserts there is no
     * path at all, so established connections cannot make progress
     * either (DESIGN.md §12).
     */
    void peerPartitioned(Ipv4Addr addr);

    std::uint64_t partitionAborts() const
    {
        return static_cast<std::uint64_t>(
            statPartitionAborts_.value());
    }

    /** Called by sockets when they discard an out-of-window or
     *  over-budget out-of-order segment. */
    void countOutOfWindow() { statOowDrops_ += 1; }

    NetStack &stack() { return stack_; }

    /** Every socket's armed RTO, delayed-ACK and zero-window
     *  persist timers, each one "tcp.timer" event. */
    sim::TimerList &timers() { return timers_; }

    std::uint16_t allocEphemeralPort();

    // Registration (used by TcpSocket).
    void bindListener(std::uint16_t port, TcpSocketPtr sock);
    void bindConnection(const TcpTuple &t, TcpSocketPtr sock);
    void unbind(const TcpTuple &t, std::uint16_t listen_port);

    std::uint64_t segmentsOut() const
    {
        return static_cast<std::uint64_t>(statTx_.value());
    }
    /** Called by sockets when they emit a segment. */
    void countTx(bool pure_ack);

    /**
     * Debug/measurement hook: invoked with every data segment as
     * it is delivered in-order to a socket (used by the Table III
     * latency-breakdown bench to read packet traces).
     */
    void
    setDeliveryHook(std::function<void(const Packet &)> h)
    {
        deliveryHook_ = std::move(h);
    }

    const std::function<void(const Packet &)> &
    deliveryHook() const
    {
        return deliveryHook_;
    }
    std::uint64_t pureAcksOut() const
    {
        return static_cast<std::uint64_t>(statPureAcks_.value());
    }

    /** Next initial sequence number for an active open. Per-layer
     *  (not process-global) so concurrent shards never contend and
     *  the stream a connection sees is a pure function of this
     *  node's own history. */
    std::uint32_t nextIssActive() { return issActive_ += 64007; }
    /** Same, for passive opens (listener-spawned children). */
    std::uint32_t nextIssPassive() { return issPassive_ += 98561; }

  private:
    friend class TcpSocket;

    /** Abort @p victims (sorting them) in ascending tuple order. */
    void abortInTupleOrder(std::vector<TcpSocketPtr> &victims);

    NetStack &stack_;
    sim::TimerList timers_;
    /// Hashed: rx() looks every segment up here. Nothing iterates
    /// it in an order that reaches output; the abort paths sort
    /// their victims by tuple first.
    std::unordered_map<TcpTuple, TcpSocketPtr, TcpTupleHash>
        connections_;
    std::map<std::uint16_t, TcpSocketPtr> listeners_;
    std::uint16_t nextPort_ = 32768;
    std::uint64_t nextSockId_ = 0;
    std::uint32_t issActive_ = 0x1000;
    std::uint32_t issPassive_ = 0x8000;
    std::function<void(const Packet &)> deliveryHook_;

    sim::Scalar statRx_{"segmentsIn", "TCP segments received"};
    sim::Scalar statTx_{"segmentsOut", "TCP segments sent"};
    sim::Scalar statPureAcks_{"pureAcksOut", "pure ACKs sent"};
    sim::Scalar statDrops_{"drops", "segments with no socket"};
    sim::Scalar statCsumDrops_{"rxCsumDrops",
                               "segments dropped on checksum"};
    sim::Scalar statOowDrops_{"outOfWindowDrops",
                              "segments beyond the receive window"};
    sim::Scalar statPartitionAborts_{
        "partitionAborts",
        "connections aborted on fabric partition notices"};
};

/** TCP connection states (simplified RFC 793 set). */
enum class TcpState {
    Closed,
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    TimeWait,
};

const char *to_string(TcpState s);

/** Why a connection died, when it did not close in an orderly way. */
enum class TcpError {
    None,        ///< no error (open, or orderly close)
    Reset,       ///< peer sent RST
    TimedOut,    ///< consecutive retransmission limit exceeded
    Unreachable, ///< ICMP destination-unreachable during handshake
};

const char *to_string(TcpError e);

/**
 * A TCP socket. All blocking operations are coroutines resumed
 * through the simulation event queue.
 */
class TcpSocket : public std::enable_shared_from_this<TcpSocket>
{
  public:
    /** @p id is unique within @p layer and names the socket in
     *  traces. */
    TcpSocket(TcpLayer &layer, std::uint64_t id);
    ~TcpSocket();

    // --- Client/server setup ---------------------------------------
    /** Start listening on @p port. */
    void listen(std::uint16_t port);

    /** Accept one pending/future connection. */
    sim::Task<TcpSocketPtr> accept();

    /** Active open to @p dst:@p port; resumes when established. */
    sim::Task<bool> connect(Ipv4Addr dst, std::uint16_t port);

    // --- Data transfer ----------------------------------------------
    /**
     * tcp_sendmsg: copy @p data into the send buffer (blocking on
     * buffer space) and let the protocol engine stream it out.
     * Returns bytes accepted (== data.size() unless closed). The
     * bytes must stay alive until the task completes, as they do
     * in `co_await sock->send(buf)`.
     */
    sim::Task<std::size_t> send(std::span<const std::uint8_t> data);

    /** Send @p n patterned bytes (iperf-style bulk source). */
    sim::Task<std::size_t> sendPattern(std::size_t n);

    /**
     * tcp_recvmsg: receive up to @p max in-order bytes (at least
     * one, unless the peer closed -- then returns empty).
     */
    sim::Task<std::vector<std::uint8_t>> recv(std::size_t max);

    /**
     * recv() with MSG_TRUNC semantics: consume up to @p max
     * in-order bytes and discard them. Same wait, window update and
     * syscall + copy charge as recv(); returns the byte count (0
     * once the peer closed).
     */
    sim::Task<std::size_t> recvDiscard(std::size_t max);

    /**
     * Read exactly @p n bytes into @p dst, or drop them unread when
     * @p dst is null. Each pass charges what one recv() of the bytes
     * then queued would. Returns the bytes read (< n iff the peer
     * closed).
     */
    sim::Task<std::size_t> recvInto(std::uint8_t *dst, std::size_t n);

    /**
     * Drain exactly @p n bytes, discarding the data (bulk sink):
     * recvInto(nullptr, n). Returns bytes actually drained (< n iff
     * the peer closed).
     */
    sim::Task<std::size_t> recvDrain(std::size_t n);

    /** Orderly close (FIN); resumes once our FIN is acked. */
    sim::Task<void> close();

    // --- Introspection ----------------------------------------------
    TcpState state() const { return state_; }
    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t bytesReceived() const { return bytesReceived_; }
    std::uint32_t cwnd() const { return cwnd_; }
    std::uint64_t retransmits() const { return retransmits_; }
    /** Retransmissions triggered by triple duplicate ACKs (a
     *  subset of retransmits()); RTO-driven ones are the rest. */
    std::uint64_t fastRetransmits() const { return fastRetransmits_; }
    /** Zero-window probe segments sent while in persist mode. */
    std::uint64_t persistProbes() const { return persistProbes_; }
    /** Next expected receive sequence number (window left edge);
     *  tests use it to craft out-of-window segments. */
    std::uint32_t rcvNxt() const { return rcvNxt_; }
    /** Non-orderly termination reason (None while healthy). */
    TcpError error() const { return error_; }
    sim::Tick srtt() const { return srtt_; }
    const TcpTuple &tuple() const { return tuple_; }

    /** Receive buffer capacity (advertised window ceiling). */
    static constexpr std::uint32_t rcvBufCap = 1u << 20;
    /** Send buffer capacity. */
    static constexpr std::uint32_t sndBufCap = 1u << 20;
    /**
     * Largest TSO chunk handed to a capable device. Sized so a
     * whole chunk always fits in an MCN SRAM ring (Sec. IV-A: the
     * drivers ensure buffer space for the largest chunk).
     */
    static constexpr std::uint32_t tsoMaxChunk = 40 * 1024;
    /**
     * Consecutive RTO backoffs before the connection is aborted
     * with TcpError::TimedOut (tcp_retries2 equivalent). Reset on
     * any forward ACK progress.
     */
    static constexpr unsigned maxRetransmits = 8;
    /** Out-of-order reassembly budget, in segments. */
    static constexpr std::size_t oooMaxSegs = 256;

    // Internal: layer demux entry.
    void segmentArrived(const TcpHeader &h, Ipv4Addr src,
                        Ipv4Addr dst, PacketPtr pkt);

  private:
    friend class TcpLayer;

    /** recv() / recvDiscard()'s body: moves the consumed bytes into
     *  @p out, or drops them when it is null. */
    sim::Task<std::size_t> receive(std::size_t max,
                                   std::vector<std::uint8_t> *out);

    /** Trace line prefixed with this socket's name; the name is
     *  formatted only when the TCP flag is on. */
    template <typename... Args>
    void
    trace(const Args &...args) const
    {
        sim::dprintf(queue_.curTick(), "TCP", layer_.name(), ".sock",
                     id_, ": ", args...);
    }

    // Protocol engine.
    void trySend();
    void emitSegment(std::uint32_t seq, std::uint32_t len,
                     std::uint8_t flags, std::uint32_t tso_mss);
    void sendControl(std::uint8_t flags);
    void sendAckNow();
    void scheduleDelayedAck();
    void processAck(const TcpHeader &h);
    void deliverData(const TcpHeader &h, PacketPtr pkt);
    void armRto();
    void rtoFired();
    void armPersist();
    void persistFired();
    void abortConnection(TcpError why);
    void updateRtt(sim::Tick sample);
    void enterTimeWait();
    void becomeEstablished();
    std::uint32_t effectiveMss() const;
    std::uint32_t flightSize() const;
    std::uint32_t availableWindow() const;
    std::uint16_t advertisedWindow() const;

    TcpLayer &layer_;
    NetStack &stack_;
    /// Stored directly: the queue provably outlives every SimObject
    /// (it is Simulation's first member), while layer_ may already be
    /// dead when a leaked socket is reaped with suspended coroutine
    /// frames at ~EventQueue time.
    sim::EventQueue &queue_;
    std::uint64_t id_;
    TcpTuple tuple_;
    TcpState state_ = TcpState::Closed;
    bool boundAsListener_ = false;
    std::weak_ptr<TcpSocket> parent_; ///< listener that spawned us

    // Send side.
    SendQueue sndBuf_; ///< front == sndUna_
    std::uint32_t iss_ = 0;
    std::uint32_t sndUna_ = 0;
    std::uint32_t sndNxt_ = 0;
    bool finQueued_ = false;
    bool finSent_ = false;

    // Receive side.
    RecvQueue rcvQueue_; ///< in-order, undelivered
    std::uint32_t rcvNxt_ = 0;
    /// Out-of-order segments by first sequence number, as slices.
    std::map<std::uint32_t, PacketPtr> ooo_;
    bool peerFin_ = false;
    std::uint32_t peerFinSeq_ = 0;

    // Congestion control (Reno).
    std::uint32_t cwnd_ = 0;
    std::uint32_t ssthresh_ = 256 * 1024;
    std::uint32_t dupAcks_ = 0;
    std::uint32_t peerWindow_ = 65535 * TcpHeader::windowScale;
    bool inRecovery_ = false;
    std::uint32_t recover_ = 0;

    // RTT / RTO.
    sim::Tick srtt_ = 0;
    sim::Tick rttvar_ = 0;
    sim::Tick rto_ = 0;
    sim::Tick rttSampleSentAt_ = 0;
    std::uint32_t rttSampleSeq_ = 0;
    /// Timers arm on the owning layer's list and disarm themselves
    /// on destruction; the armed callback's shared_ptr capture keeps
    /// this socket alive until the timer fires or is canceled.
    sim::Timer rtoTimer_;
    sim::Timer delAckTimer_;
    std::uint32_t unackedSegs_ = 0; ///< segments since last ACK sent

    // Resilience: abort-on-timeout and zero-window persist.
    unsigned backoffCount_ = 0; ///< consecutive RTOs without progress
    sim::Timer persistTimer_;
    sim::Tick persistTimeout_ = 0;
    TcpError error_ = TcpError::None;

    // Wakeups.
    sim::Condition connectCv_;
    sim::Condition acceptCv_;
    sim::Condition sendCv_;
    sim::Condition recvCv_;
    sim::Condition closeCv_;
    std::vector<TcpSocketPtr> acceptQueue_;

    // Stats.
    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t fastRetransmits_ = 0;
    std::uint64_t persistProbes_ = 0;
};

} // namespace mcnsim::net

#endif // MCNSIM_NET_TCP_HH
