/**
 * @file
 * Packet: the simulator's sk_buff. A packet owns real bytes --
 * headers are pushed/pulled at the front exactly as the Linux stack
 * does -- plus simulation metadata: a per-hop timing record used for
 * the paper's Table III breakdown and flow telemetry, and
 * bookkeeping for TSO.
 *
 * Buffer ownership (see DESIGN.md "Hot paths & buffer ownership"
 * and §10): the byte buffer is a pooled, intrusively refcounted
 * block (net/buffer_pool.hh) with copy-on-write semantics. clone()
 * shares the block and is O(1); so are pull() and trim(), which
 * only move the [head, tail) view. The first mutation of a shared
 * packet -- push(), put(), prefix() or the non-const data() --
 * copies the live bytes into a private block (detach()). Metadata
 * (node ids, TSO state, and the timing record when one is kept) is
 * always per-clone.
 *
 * Lazy payload: a block may hold one pattern extent that is never
 * written until something needs it in memory (makeDeferred()). The
 * accessors that hand out the whole view -- cdata(), data(),
 * bytes() -- write it first (materialise()), once per block; the
 * hot readers use prefix()/cprefix() for headers, copyOut() and
 * scan() for payload, and the packet-aware checksumPartial()
 * (net/checksum.hh), none of which write it.
 */

#ifndef MCNSIM_NET_PACKET_HH
#define MCNSIM_NET_PACKET_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/buffer_pool.hh"
#include "net/pattern.hh"
#include "sim/checked.hh"
#include "sim/flow_stats.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"

namespace mcnsim::net {

using sim::Tick;

/** Table III stages a path hop can mark. */
enum class Stage : std::uint8_t {
    StackTx,  ///< handed to the netdev by the network stack
    DriverTx, ///< driver done (descriptor ready / SRAM written)
    DmaTx,    ///< device fetched the bytes (NIC DMA done)
    Phy,      ///< left the physical medium (link)
    Switch,   ///< forwarded by a switch
    DmaRx,    ///< bytes landed in receiver memory
    DriverRx, ///< receiver driver handed to the stack
};

/**
 * The per-packet timing record: an ordered list of (stage, hop-name,
 * tick) stamps taken as the packet crosses components (stack, NIC,
 * link, switch, MCN ring crossings). It serves three readers with
 * the same stamps:
 *
 *  - flow telemetry folds consecutive-entry deltas into per-hop
 *    latency histograms at delivery (sim/flow_stats.hh);
 *  - timeline spans and Table III ask "when did the packet last
 *    reach stage S" through last(), where the latest stamp of a
 *    stage wins (a forwarded packet crosses several stacks);
 *  - end-to-end latency runs from the last StackTx stamp to the
 *    delivery tick, which is passed to the fold, not stamped.
 *
 * Hop names are borrowed `const char *`s that must outlive the run
 * (SimObject::name().c_str() qualifies: objects are pinned until
 * teardown and folding happens at stats-dump time). A stage never
 * stamped reads as `unreached` (sim::maxTick), so a stamp at tick 0
 * -- perfectly legal, simulations start there -- still counts.
 */
class PathTrace
{
  public:
    static constexpr std::size_t kMaxHops = 16;
    static constexpr Tick unreached = sim::maxTick;

    struct Hop
    {
        const char *name;
        Tick t;
        Stage stage;
    };

    void
    record(Stage stage, const char *name, Tick t)
    {
        if (n_ < kMaxHops)
            hops_[n_++] = Hop{name, t, stage};
        else
            truncated_ = true;
    }

    std::size_t size() const { return n_; }
    bool truncated() const { return truncated_; }

    const Hop &
    at(std::size_t i) const
    {
        return hops_[i];
    }

    /** Tick of the last hop marking @p stage, or `unreached`. */
    Tick
    last(Stage stage) const
    {
        for (std::size_t i = n_; i-- > 0;)
            if (hops_[i].stage == stage)
                return hops_[i].t;
        return unreached;
    }

  private:
    std::array<Hop, kMaxHops> hops_;
    std::uint8_t n_ = 0;
    bool truncated_ = false;
};

class Packet;
using PacketPtr = std::shared_ptr<Packet>;

/**
 * A network packet with real bytes and reserved headroom for
 * headers, mirroring sk_buff's push/pull discipline.
 */
class Packet
{
    /** Construction token: keeps the ctor effectively private while
     *  letting std::allocate_shared place the object. */
    struct Priv
    {};

  public:
    static constexpr std::size_t defaultHeadroom = 128;

    /** Create a packet whose payload is @p payload. */
    static PacketPtr make(std::vector<std::uint8_t> payload,
                          std::size_t headroom = defaultHeadroom);

    /** Create a packet with an n-byte patterned payload, held as a
     *  lazy extent (see makeDeferred()). */
    static PacketPtr makePattern(std::size_t n, std::uint8_t seed = 0,
                                 std::size_t headroom =
                                     defaultHeadroom);

    /**
     * Create a packet with an @p n-byte payload written in place by
     * @p fill(ptr), which must write all of [ptr, ptr + n). The
     * pool skips zeroing those bytes, so each payload byte is
     * written once, straight into the pooled block; the headroom
     * still reads zero.
     */
    template <typename Fill>
    static PacketPtr
    makeFilled(std::size_t n, Fill &&fill,
               std::size_t headroom = defaultHeadroom)
    {
        BufRef buf{BufferPool::acquire(headroom + n, headroom, n)};
        fill(buf->bytes() + headroom);
        return wrap(std::move(buf), headroom, headroom + n);
    }

    /**
     * Like makeFilled(), except that @p fill(ptr) returns a
     * PatternExtent (offset relative to ptr) it left unwritten:
     * those bytes become the block's lazy extent, written only if
     * something reads them through a materialising accessor. A TCP
     * segment's payload is built this way
     * (SendQueue::copyOutDeferred()).
     */
    template <typename Fill>
    static PacketPtr
    makeDeferred(std::size_t n, Fill &&fill,
                 std::size_t headroom = defaultHeadroom)
    {
        BufRef buf{BufferPool::acquire(headroom + n, headroom, n)};
        const PatternExtent lazy = fill(buf->bytes() + headroom);
        PacketPtr pkt = wrap(std::move(buf), headroom, headroom + n);
        if (lazy.len)
            pkt->defer(headroom + lazy.off, lazy.len, lazy.base);
        return pkt;
    }

    Packet(Priv, BufRef buf, std::size_t head, std::size_t tail)
        : buf_(std::move(buf)), head_(head), tail_(tail)
    {}

    /** Current bytes (headers pushed so far + payload). Writes a
     *  lazy extent first. */
    const std::uint8_t *
    data() const
    {
        return cdata();
    }

    /**
     * Mutable view. Triggers copy-on-write when the buffer is shared
     * with a clone; use cdata() for read-only access on a non-const
     * packet. Writes a lazy extent first.
     */
    std::uint8_t *
    data()
    {
        MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                          auditSeal(); sealed_ = false;)
        if (buf_.shared())
            detach(std::min(head_, defaultHeadroom), 0);
        materialise();
        return buf_->bytes() + head_;
    }

    /** Read-only view that never triggers a copy. Writes a lazy
     *  extent first; header parsers use cprefix(), payload readers
     *  copyOut(). */
    const std::uint8_t *
    cdata() const
    {
        MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                          auditSeal();)
        materialise();
        return buf_->bytes() + head_;
    }

    /**
     * Read-only view of the first @p n bytes (n <= size()), for
     * header parsing: writes a lazy extent only when it starts
     * inside them. The caller must not read past @p n.
     */
    const std::uint8_t *
    cprefix(std::size_t n) const
    {
        MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                          auditSeal();)
        MCNSIM_ASSERT(n <= size(), "prefix past end of packet");
        if (overlapsLazy(head_, head_ + n)) [[unlikely]]
            materialiseSlow();
        return buf_->bytes() + head_;
    }

    /** Mutable cprefix(): copy-on-write like data(), but a lazy
     *  extent past the first @p n bytes stays unwritten (a relay
     *  filling in a checksum field). */
    std::uint8_t *
    prefix(std::size_t n)
    {
        MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                          auditSeal(); sealed_ = false;)
        if (buf_.shared())
            detach(std::min(head_, defaultHeadroom), 0);
        return const_cast<std::uint8_t *>(cprefix(n));
    }

    /**
     * Hand bytes [off, off + n) of the view to @p literal(ptr, len)
     * and @p pattern(base, len), in order, without writing a lazy
     * extent: the part it covers goes to pattern() as the test
     * pattern based at base, everything else to literal(). At most
     * three calls.
     */
    template <typename Literal, typename Pattern>
    void
    scan(std::size_t off, std::size_t n, Literal &&literal,
         Pattern &&pattern) const
    {
        MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                          auditSeal();)
        scanBytes(off, n, literal, pattern);
    }

    /** Copy bytes [off, off + n) of the view to @p dst, except
     *  those of a lazy extent, which are left unwritten and returned
     *  (offset relative to @p dst; len 0 when there are none). */
    PatternExtent
    copyOutDeferred(std::size_t off, std::size_t n,
                    std::uint8_t *dst) const
    {
        PatternExtent lazy;
        std::size_t at = 0;
        scan(
            off, n,
            [&](const std::uint8_t *p, std::size_t m) {
                std::memcpy(dst + at, p, m);
                at += m;
            },
            [&](std::uint8_t base, std::size_t m) {
                lazy = PatternExtent{at, m, base};
                at += m;
            });
        return lazy;
    }

    /** Copy bytes [off, off + n) of the view to @p dst; pattern
     *  bytes of a lazy extent are generated, not read. */
    void
    copyOut(std::size_t off, std::size_t n, std::uint8_t *dst) const
    {
        const PatternExtent lazy = copyOutDeferred(off, n, dst);
        fillPattern(dst + lazy.off, lazy.base, lazy.len);
    }

    /** Lazy bytes written by materialise() so far, process-wide
     *  (tests and diagnostics: the hot paths should write none). */
    static std::uint64_t materialisedBytes();

    std::size_t size() const { return tail_ - head_; }

    /** Prepend @p n bytes (returns pointer to write the header). */
    std::uint8_t *push(std::size_t n);

    /** Drop @p n bytes from the front (header consumed). O(1). */
    void pull(std::size_t n);

    /** Append @p n bytes at the tail (returns write pointer). */
    std::uint8_t *put(std::size_t n);

    /** Trim the packet to @p n bytes total. O(1). */
    void trim(std::size_t n);

    /**
     * Copy for broadcast fan-out / retransmission. O(1): the byte
     * block is shared until either side writes; metadata is copied
     * by value.
     */
    PacketPtr clone() const;

    /**
     * A fresh packet over this packet's live bytes: O(1) and
     * copy-on-write like clone(), but with default metadata (no
     * timing record, node ids or TSO state) -- what make(bytes())
     * would return, without the copy. An MCN ring crossing hands
     * the consumer such a view of the producer's frame.
     */
    PacketPtr view() const;

    /** True when this packet and @p o alias one byte block (tests,
     *  diagnostics). */
    bool
    sharesBufferWith(const Packet &o) const
    {
        return buf_ == o.buf_;
    }

    /** Usable capacity of the underlying block (tests: detach()
     *  must copy the live view, not the original capacity). */
    std::size_t bufferCapacity() const { return buf_->cap; }

    /** Initialised extent of the underlying block -- what the
     *  pre-pool vector's size() was (tests). */
    std::size_t bufferLen() const { return buf_->len; }

    /** Bytes put() can append in place: the block's capacity past
     *  the view, or 0 when the block is shared (put() would copy). */
    std::size_t
    tailroom() const
    {
        return buf_.shared() ? 0 : buf_->cap - tail_;
    }

    /**
     * Timing record; null unless flow telemetry or the timeline is
     * active, so default runs carry no timing metadata. Deep-copied
     * by clone()/TSO segmentation when present.
     */
    std::unique_ptr<PathTrace> path;

    /** Stamp that the packet reached @p stage at component @p hop
     *  at tick @p t, allocating the record on first use. Records
     *  only while flow telemetry or the timeline is active. */
    void
    stamp(Stage stage, const char *hop, Tick t)
    {
        if (sim::FlowTelemetry::active() || sim::Timeline::active())
            [[unlikely]] {
            if (!path)
                path = std::make_unique<PathTrace>();
            path->record(stage, hop, t);
        }
    }

    /** PathTrace::last() of this packet's record (`unreached` when
     *  it carries none). */
    Tick
    lastStamp(Stage stage) const
    {
        return path ? path->last(stage) : PathTrace::unreached;
    }

    /** Source node id (diagnostics) and flow hint for stats. */
    int srcNode = -1;
    int dstNode = -1;

    /**
     * TSO bookkeeping: when a device segments this packet in
     * hardware, this is the MSS to use; 0 = not a TSO packet.
     */
    std::uint32_t tsoMss = 0;

    /** Bytes currently in the packet, as a vector copy (tests). */
    std::vector<std::uint8_t> bytes() const;

#ifdef MCNSIM_CHECKED
    /** Test hook: recycle the underlying block while this view is
     *  still alive, so use-after-recycle poisoning can be exercised
     *  deterministically. The packet must not be accessed (other
     *  than destroyed) after a subsequent accessor panics. */
    void
    forceRecycleForTest()
    {
        BufferPool::forceRecycleForTest(buf_.get());
    }
#endif

  private:
    /** Place a Packet (plus its control block) in a pooled block. */
    static PacketPtr wrap(BufRef buf, std::size_t head,
                          std::size_t tail);

    /** Mark block bytes [off, off + len) of the still-private block
     *  as the lazy pattern extent based at @p base. */
    void defer(std::size_t off, std::size_t len, std::uint8_t base);

    /** True when the block's lazy extent is still unwritten. */
    bool
    lazyPending() const
    {
        return lazyLen_ != 0 &&
               buf_->lazyState.load(std::memory_order_acquire) !=
                   PktBuf::lazyNone;
    }

    /** True when a pending lazy extent overlaps block bytes
     *  [from, to). */
    bool
    overlapsLazy(std::size_t from, std::size_t to) const
    {
        return lazyOff_ < to && lazyOff_ + lazyLen_ > from &&
               lazyPending();
    }

    /** Write a pending lazy extent into the block (no-op when there
     *  is none). Every materialising accessor calls it. */
    void
    materialise() const
    {
        if (lazyPending()) [[unlikely]]
            materialiseSlow();
    }

    /** materialise() past its fast check: the first caller writes
     *  the extent, a concurrent one waits until it is written. */
    void materialiseSlow() const;

    /** Copy the live bytes into a private block with the given
     *  head/tail slack, detaching from any clones. */
    void detach(std::size_t headroom, std::size_t tailroom);

    /** Unique-owner tail growth past the block: move to a larger
     *  block preserving the whole initialised prefix (vector-resize
     *  semantics; layout and len are unchanged). */
    void growTo(std::size_t newLen);

    /** scan() without the checked build's audit: the seal hash
     *  reads the view through it. */
    template <typename Literal, typename Pattern>
    void
    scanBytes(std::size_t off, std::size_t n, Literal &literal,
              Pattern &pattern) const
    {
        MCNSIM_ASSERT(off + n <= size(), "scan past end of packet");
        const std::uint8_t *bytes = buf_->bytes();
        std::size_t from = head_ + off;
        const std::size_t to = from + n;
        if (overlapsLazy(from, to)) [[unlikely]] {
            const std::size_t lo = std::max<std::size_t>(from, lazyOff_);
            const std::size_t hi =
                std::min<std::size_t>(to, lazyOff_ + lazyLen_);
            if (lo > from)
                literal(bytes + from, lo - from);
            pattern(static_cast<std::uint8_t>(lazyBase_ + (lo - lazyOff_)),
                    hi - lo);
            from = hi;
        }
        if (to > from)
            literal(bytes + from, to - from);
    }

#ifdef MCNSIM_CHECKED
    /** Checked build: hash the live bytes and mark the view sealed.
     *  clone() seals both sides; every subsequent access re-verifies
     *  the hash, so a write that bypassed copy-on-write (a cached
     *  data() pointer from before clone(), a const_cast) panics at
     *  the next audit instead of silently corrupting a clone. */
    void sealNow() const;

    /** Checked build: the seal hash of the view's logical bytes. A
     *  lazy extent is hashed from the pattern table, not written. */
    std::uint64_t viewHash() const;

    /** Verify the seal (panic on mismatch); no-op when unsealed. */
    void auditSeal() const;

    mutable std::uint64_t sealHash_ = 0;
    mutable bool sealed_ = false;
#endif

    BufRef buf_;
    std::size_t head_; ///< offset of the first live byte
    std::size_t tail_; ///< offset one past the last live byte
    /** The block's lazy extent, as block offsets (lazyLen_ == 0:
     *  none). Every view of a block carries the same one; the block
     *  says whether it is still unwritten (PktBuf::lazyState). */
    std::uint32_t lazyOff_ = 0;
    std::uint32_t lazyLen_ = 0;
    std::uint8_t lazyBase_ = 0;
};

/**
 * Fold a delivered packet's PathTrace into the per-hop latency
 * histograms (sim/flow_stats.hh): the delta between consecutive hop
 * stamps is attributed to the later hop, and the tail from the last
 * recorded hop to @p delivered is attributed to @p final_hop (the
 * delivering stack/layer). No-op when the packet carries no trace.
 * Callers gate on FlowTelemetry::active() and pass their owning
 * SimObject's shardId().
 */
void foldPathLatency(const Packet &pkt, std::size_t shard,
                     const char *final_hop, Tick delivered);

/**
 * Record a packet delivered at @p delivered by @p final_hop into
 * flow telemetry: the flow's rx bytes and end-to-end latency (last
 * StackTx stamp to delivery, or sim::maxTick when the packet carries
 * none), then foldPathLatency(). The TCP and ICMP delivery
 * sites share it; callers gate on FlowTelemetry::active().
 */
void recordDelivery(const Packet &pkt, std::size_t shard,
                    const sim::FlowTelemetry::FlowKey &key,
                    const char *final_hop, Tick delivered);

} // namespace mcnsim::net

#endif // MCNSIM_NET_PACKET_HH
