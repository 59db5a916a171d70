/**
 * @file
 * ICMP echo (ping): the measurement tool behind the paper's
 * Fig. 8(b)/(c) round-trip latency curves.
 */

#ifndef MCNSIM_NET_ICMP_HH
#define MCNSIM_NET_ICMP_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.hh"
#include "net/packet.hh"
#include "sim/sim_object.hh"
#include "sim/task.hh"

namespace mcnsim::net {

class NetStack;

/** ICMP message types used here. */
enum : std::uint8_t {
    icmpEchoReply = 0,
    icmpDestUnreachable = 3,
    icmpEchoRequest = 8,
};

/** The 8-byte ICMP echo header. */
struct IcmpHeader
{
    static constexpr std::size_t size = 8;

    std::uint8_t type = icmpEchoRequest;
    std::uint8_t code = 0;
    std::uint16_t id = 0;
    std::uint16_t seqNo = 0;

    void push(Packet &pkt, bool compute_checksum) const;
    static std::optional<IcmpHeader> pull(Packet &pkt,
                                          bool verify_checksum);
};

/** Per-node ICMP layer: answers echo requests, matches replies. */
class IcmpLayer : public sim::SimObject
{
  public:
    IcmpLayer(sim::Simulation &s, std::string name, NetStack &stack);

    void rx(Ipv4Addr src, Ipv4Addr dst, PacketPtr pkt,
            bool verify_checksum = true);

    /**
     * Send one echo request with @p payload_bytes of data and
     * resume with the round-trip time, or sim::maxTick on timeout.
     * Each of the @p retries re-sends waits @p timeout again; a
     * destination-unreachable reply fails fast without retrying.
     */
    sim::Task<sim::Tick> ping(Ipv4Addr dst,
                              std::size_t payload_bytes,
                              sim::Tick timeout = 100 * sim::oneMs,
                              unsigned retries = 0);

    /**
     * Emit a destination-unreachable toward @p to, reporting that
     * @p about cannot be reached (a router/forwarding engine
     * noticing a dead next hop). The receiving node fails pending
     * pings and SYN-sent TCP connections toward @p about.
     */
    void sendUnreachable(Ipv4Addr to, Ipv4Addr about);

    /**
     * Locally-delivered unreachable notice (no wire round trip): a
     * fabric switch on this node's path found every next hop toward
     * @p about dead (a partition). Fails pending pings toward
     * @p about and aborts established TCP connections with it
     * (TcpLayer::peerPartitioned) so applications fail fast instead
     * of waiting out retransmission timeouts.
     */
    void notifyUnreachable(Ipv4Addr about);

    std::uint64_t partitionNotices() const
    {
        return static_cast<std::uint64_t>(
            statUnreachLocal_.value());
    }

  private:
    struct PendingPing
    {
        std::uint16_t id = 0;
        sim::Tick sentAt = 0;
        sim::Tick rtt = 0;
        Ipv4Addr dst;
        bool done = false;
        bool unreachable = false;
    };

    /** The outstanding ping with echo id @p id, or null. */
    PendingPing *findPending(std::uint16_t id);

    /** Fail pending pings toward @p about (shared by the wire and
     *  local unreachable paths). */
    void failPingsToward(Ipv4Addr about);

    NetStack &stack_;
    std::uint16_t nextId_ = 1;
    /// Outstanding pings, searched by id: a node has a handful at
    /// most, and the vector keeps its capacity between pings.
    std::vector<PendingPing> pending_;
    sim::Condition replyCv_;

    sim::Scalar statEchoReq_{"echoRequests", "echo requests seen"};
    sim::Scalar statEchoRep_{"echoReplies", "echo replies seen"};
    sim::Scalar statUnreachRx_{"unreachablesIn",
                               "destination-unreachables received"};
    sim::Scalar statUnreachTx_{"unreachablesOut",
                               "destination-unreachables sent"};
    sim::Scalar statUnreachLocal_{
        "unreachablesLocal",
        "local partition notices from fabric switches"};
};

} // namespace mcnsim::net

#endif // MCNSIM_NET_ICMP_HH
