/**
 * @file
 * The MCN interface's SRAM communication buffer (paper Fig. 4).
 *
 * The 96 KB SRAM is split into a control block and two circular
 * rings of MCN messages (a 4-byte length followed by the frame
 * bytes):
 *
 *  - the TX ring carries MCN-node -> host messages; the MCN driver
 *    produces at tx-end, the host's polling agent consumes at
 *    tx-start, and tx-poll signals pending data;
 *  - the RX ring carries host -> MCN-node messages with rx-start /
 *    rx-end / rx-poll playing the mirrored roles.
 *
 * A ring enforces the real ring invariants -- each message's
 * footprint and the start/end/used pointers -- but holds each
 * frame as a copy-on-write view of the producer's pooled packet
 * block, not as a copy of its bytes: no model decision reads the
 * bytes in SRAM, and the drivers charge the modelled copies
 * (memory-channel transactions, memcpy or DMA time) around these
 * functional operations. A crossing therefore makes no host-side
 * byte copy (DESIGN.md "Hot paths & buffer ownership").
 */

#ifndef MCNSIM_MCN_SRAM_BUFFER_HH
#define MCNSIM_MCN_SRAM_BUFFER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hh"
#include "sim/ring_deque.hh"

namespace mcnsim::mcn {

/** A dequeued MCN frame: a fresh packet over the block the producer
 *  enqueued, with default metadata and the producer's timing record
 *  (null unless flow telemetry or the timeline was active). */
struct McnFrame
{
    net::PacketPtr pkt;
    /** Ring-entry CRC verdict: false when the payload read back
     *  does not match the checksum computed at enqueue (in-SRAM
     *  corruption). The drivers drop such messages and count them
     *  as ringCrcDrops. */
    bool crcOk = true;
};

/** A dequeued message as bytes (the byte adapter dequeue()). */
struct McnMessage
{
    std::vector<std::uint8_t> bytes;
    std::unique_ptr<net::PathTrace> path;
    bool crcOk = true;
};

/** One circular message ring inside the SRAM. */
class MessageRing
{
  public:
    explicit MessageRing(std::size_t capacity_bytes);

    /** Bytes a message of @p payload bytes occupies in the ring. */
    static std::size_t
    footprint(std::size_t payload)
    {
        return payload + lengthFieldBytes;
    }

    /**
     * Enqueue @p pkt's bytes; returns false when they do not fit
     * (the driver then returns NETDEV_TX_BUSY) or are empty. The
     * ring keeps a view of the packet's block (no byte copy) and
     * takes its timing record, so path stamps survive the crossing.
     */
    bool enqueue(net::Packet &pkt);

    /** Dequeue the oldest frame, if any. */
    std::optional<McnFrame> dequeuePacket();

    /** Byte adapters over enqueue(Packet &) / dequeuePacket(): copy
     *  the message in, and out into a vector. */
    bool enqueue(const std::uint8_t *data, std::size_t len,
                 std::unique_ptr<net::PathTrace> path = nullptr);
    std::optional<McnMessage> dequeue();

    /** Peek the oldest message's length without consuming. */
    std::optional<std::size_t> frontLength() const;

    bool empty() const { return used_ == 0; }
    std::size_t usedBytes() const { return used_; }
    std::size_t freeBytes() const { return capacity_ - used_; }
    std::size_t capacityBytes() const { return capacity_; }

    std::uint64_t messagesEnqueued() const { return enqueued_; }
    std::uint64_t messagesDequeued() const { return dequeued_; }

    /**
     * Fault-injection hook: flip one byte of the newest message's
     * payload, leaving the CRC recorded at enqueue time untouched
     * -- models a bit error inside the SRAM (or a racy producer).
     * The flip goes through copy-on-write, so the producer's packet
     * keeps its bytes. Dequeuing that message reports crcOk ==
     * false. Returns false when the ring is empty.
     */
    bool corruptNewest();

#ifdef MCNSIM_CHECKED
    /** Checked build, tests only: deliberately desynchronise the
     *  ring pointers so the invariant audit on the next operation
     *  panics -- proves the detector actually fires. */
    void corruptForTest();
#endif

  private:
    static constexpr std::size_t lengthFieldBytes = 4;

#ifdef MCNSIM_CHECKED
    /** Checked build: audit start/end/used consistency, pointer
     *  bounds and frame-queue sync; runs on every ring operation. */
    void auditInvariants() const;
#endif

    /** One message in flight. */
    struct Entry
    {
        net::PacketPtr frame;
        /** Payload CRC record: bit 32 = computed, low 32 = FNV-1a;
         *  0 = skipped because no fault plan was armed at enqueue,
         *  so disarmed runs pay no per-byte hash. */
        std::uint64_t crc;
    };

    std::size_t capacity_;
    sim::RingDeque<Entry> frames_;
    std::size_t start_ = 0; ///< first byte of the oldest message
    std::size_t end_ = 0;   ///< one past the newest message
    std::size_t used_ = 0;
    std::uint64_t enqueued_ = 0;
    std::uint64_t dequeued_ = 0;
};

/** The whole SRAM buffer: control fields + TX and RX rings. */
class SramBuffer
{
  public:
    /** Control block size reserved ahead of the rings. */
    static constexpr std::size_t controlBytes = 64;

    /**
     * @param total_bytes  full SRAM size (96 KB in the paper)
     * @param tx_fraction  share of ring space given to the TX ring
     */
    explicit SramBuffer(std::size_t total_bytes = 96 * 1024,
                        double tx_fraction = 0.5);

    MessageRing &tx() { return tx_; }
    MessageRing &rx() { return rx_; }
    const MessageRing &tx() const { return tx_; }
    const MessageRing &rx() const { return rx_; }

    // Control fields (Fig. 4): handshaking flags.
    bool txPoll() const { return txPoll_; }
    void setTxPoll() { txPoll_ = true; }
    void clearTxPoll() { txPoll_ = false; }

    bool rxPoll() const { return rxPoll_; }
    void setRxPoll() { rxPoll_ = true; }
    void clearRxPoll() { rxPoll_ = false; }

    std::size_t totalBytes() const { return total_; }

  private:
    std::size_t total_;
    MessageRing tx_;
    MessageRing rx_;
    bool txPoll_ = false;
    bool rxPoll_ = false;
};

} // namespace mcnsim::mcn

#endif // MCNSIM_MCN_SRAM_BUFFER_HH
