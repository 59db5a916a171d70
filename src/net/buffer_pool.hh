/**
 * @file
 * BufferPool: size-classed slab recycling for packet byte blocks.
 *
 * Every packet used to carry its bytes in a `shared_ptr<vector>`:
 * two heap allocations (control block + vector storage) and two
 * frees per packet, which at 64-node scale is millions of
 * malloc/free round trips that dominate the host-side profile. The
 * pool replaces that with intrusively refcounted blocks drawn from
 * per-thread free lists, one list per size class, so the steady
 * state allocates nothing: a block freed by one packet is handed to
 * the next of the same class.
 *
 *  - Size classes cover the simulator's real traffic: control/ACK
 *    frames, MTU-1500 data, jumbo-9000 frames, and TSO super
 *    segments. Oversized requests fall back to an exact heap block
 *    (class `heapClass`) with the same refcount discipline.
 *  - Free lists are thread_local, so the classic engine pays no
 *    locks and PDES workers never contend. A block may be released
 *    on a different thread than acquired it (cross-shard clone
 *    fan-out); it simply joins the releasing thread's list. Lists
 *    are capped per class (cacheCap); overflow returns blocks to the
 *    heap.
 *  - Refcounts are atomic: a switch flood can clone one buffer into
 *    packets owned by several shards, and the last release can race
 *    across worker threads.
 *  - The pool manages *host* memory only; nothing here can affect
 *    modeled metrics. The modeled gate (tools/check_perf.py) pins
 *    that against the committed BENCH_*.json.
 *
 * Checked build: recycled blocks are poisoned (0xA5 fill + a magic
 * flip), and every packet access re-verifies the magic, so a
 * use-after-recycle panics at the touch instead of reading another
 * packet's bytes. See DESIGN.md §10.
 */

#ifndef MCNSIM_NET_BUFFER_POOL_HH
#define MCNSIM_NET_BUFFER_POOL_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "sim/checked.hh"

namespace mcnsim::net {

/**
 * Header of a pooled byte block; the usable bytes follow the header
 * in the same allocation. Intrusive refcount: BufRef (packet.hh)
 * drives addRef/release, so cloning a packet never touches a
 * shared_ptr control block.
 */
struct alignas(std::max_align_t) PktBuf
{
    std::atomic<std::uint32_t> refs; ///< live references
    std::uint32_t cap;               ///< usable bytes after header
    /**
     * Initialised extent: bytes [0, len) read as written-or-zero,
     * exactly mirroring the old vector's size(). put() beyond len
     * zero-fills the gap, preserving value-init semantics for
     * callers that do not overwrite every byte they reserve.
     */
    std::uint32_t len;
    std::uint8_t cls;                ///< size-class index / heapClass
    /**
     * Whether the block holds an unwritten lazy pattern extent
     * (Packet::makeDeferred(); every packet viewing the block
     * carries the extent's position). The first reader that needs
     * the bytes in memory writes them (Packet::materialise()); this
     * is the once-flag that keeps two shards from doing it together.
     */
    enum : std::uint8_t { lazyNone, lazyPending, lazyFilling };
    std::atomic<std::uint8_t> lazyState;
    MCNSIM_IF_CHECKED(std::uint32_t magic;) ///< live / poison marker

    std::uint8_t *
    bytes()
    {
        return reinterpret_cast<std::uint8_t *>(this + 1);
    }

    const std::uint8_t *
    bytes() const
    {
        return reinterpret_cast<const std::uint8_t *>(this + 1);
    }
};

/** Size-classed, thread-cached allocator for PktBuf blocks. */
class BufferPool
{
  public:
    /** Usable-byte capacity of each class; requests above the last
     *  class take an exact heap block. */
    static constexpr std::array<std::size_t, 5> classBytes = {
        256,    // ACK / control frames, small app messages
        2048,   // MTU 1500 + headroom + header slack
        4096,   // detach copies of 1500-class packets with extra room
        10240,  // jumbo 9000 + headroom
        65536,  // TSO super segments
    };
    static constexpr std::uint8_t heapClass = 0xff;

    /**
     * Per-thread free-list length cap of each class, in blocks;
     * overflow frees to the heap. A thread that releases more blocks
     * of a class than it acquires (the consumer of a cross-shard
     * flow) fills its list to the cap, so each cap holds the largest
     * warm working set a benchmark workload needs and little more:
     * rack_iperf keeps 12 101 class-0 and 260 class-4 blocks live at
     * its peak, and fabric_iperf_2w's consumer thread holds 4 096
     * class-1 blocks at 8 MiB.
     */
    static constexpr std::array<std::size_t, classBytes.size()>
        cacheCap = {16384, 4096, 4096, 4096, 512};

    /**
     * Acquire a block with capacity >= @p n, refs == 1 and len ==
     * n. Bytes [0, n) are zeroed, matching the value-initialised
     * vector the pool replaced -- except [@p skip, @p skip + @p
     * skipLen), which is left as it lies: the caller must write
     * every byte of it before anything reads the block. Packets
     * skip the payload they are about to fill and keep the
     * headroom zeroed.
     */
    static PktBuf *acquire(std::size_t n, std::size_t skip = 0,
                           std::size_t skipLen = 0);

    static void
    addRef(PktBuf *b)
    {
        b->refs.fetch_add(1, std::memory_order_relaxed);
    }

    /** Drop one reference; the last release recycles the block. */
    static void
    release(PktBuf *b)
    {
        if (b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            recycle(b);
    }

    /** Pool introspection (tests, diagnostics). */
    struct ClassStats
    {
        std::size_t blockBytes = 0; ///< usable bytes per block
        std::uint64_t acquires = 0; ///< total acquire() calls
        std::uint64_t carves = 0;   ///< cache misses (heap carve)
        std::uint64_t recycles = 0; ///< blocks returned to a list
        std::size_t cached = 0;     ///< blocks sitting in free lists
    };

    /** Per-class totals summed over all thread caches (live and
     *  retired). The heap fallback reports as the final entry with
     *  blockBytes == 0. Not synchronised with other threads' hot
     *  paths: call when workers are quiescent (tests, end-of-run
     *  reporting). */
    static std::array<ClassStats, classBytes.size() + 1> stats();

#ifdef MCNSIM_CHECKED
    static constexpr std::uint32_t liveMagic = 0x1b0ffe75u;
    static constexpr std::uint32_t poisonMagic = 0xdeadbeefu;
    static constexpr std::uint8_t poisonByte = 0xa5;

    /** Checked build: panic unless @p b is a live (un-recycled)
     *  block. Called from every packet byte accessor. */
    static void
    auditLive(const PktBuf *b)
    {
        if (b->magic != liveMagic)
            sim::panic("checked: packet buffer use-after-recycle "
                       "(magic=", b->magic, " cap=", b->cap,
                       "): the block was returned to the buffer "
                       "pool while a view still referenced it");
    }

    /** Test hook: force-recycle regardless of refcount, leaving the
     *  caller's reference dangling so poison detection can be
     *  exercised deterministically. The extra ref absorbs the
     *  dangling holder's eventual release (acquire() resets the
     *  refcount, so the parked value is harmless). */
    static void
    forceRecycleForTest(PktBuf *b)
    {
        addRef(b);
        recycle(b);
    }
#endif

  private:
    static void recycle(PktBuf *b);
};

/**
 * Intrusive smart reference to a pooled block. Copying bumps the
 * block refcount; the last reference to die recycles the block.
 */
class BufRef
{
  public:
    BufRef() = default;

    /** Adopt a block whose refcount already accounts for us. */
    explicit BufRef(PktBuf *adopt) : b_(adopt) {}

    BufRef(const BufRef &o) : b_(o.b_)
    {
        if (b_)
            BufferPool::addRef(b_);
    }

    BufRef(BufRef &&o) noexcept : b_(o.b_) { o.b_ = nullptr; }

    BufRef &
    operator=(BufRef o) noexcept
    {
        std::swap(b_, o.b_);
        return *this;
    }

    ~BufRef()
    {
        if (b_)
            BufferPool::release(b_);
    }

    PktBuf *operator->() const { return b_; }
    PktBuf *get() const { return b_; }

    /** True when this is the only live reference (CoW gate). A
     *  relaxed load suffices: if we observe 1, no other thread can
     *  hold a reference it could clone from. */
    bool
    shared() const
    {
        return b_->refs.load(std::memory_order_relaxed) > 1;
    }

    bool operator==(const BufRef &o) const { return b_ == o.b_; }

  private:
    PktBuf *b_ = nullptr;
};

namespace detail {

/**
 * Minimal allocator over the pool, so std::allocate_shared can
 * place a Packet and its shared_ptr control block in one recycled
 * class-0 block instead of a fresh heap allocation per packet.
 */
template <typename T>
struct PoolAlloc
{
    using value_type = T;

    PoolAlloc() = default;

    template <typename U>
    PoolAlloc(const PoolAlloc<U> &) // NOLINT(google-explicit-*)
    {}

    T *
    allocate(std::size_t n)
    {
        static_assert(alignof(T) <= alignof(std::max_align_t));
        PktBuf *b = BufferPool::acquire(n * sizeof(T));
        return reinterpret_cast<T *>(b->bytes());
    }

    void
    deallocate(T *p, std::size_t)
    {
        BufferPool::release(reinterpret_cast<PktBuf *>(p) - 1);
    }

    friend bool
    operator==(const PoolAlloc &, const PoolAlloc &)
    {
        return true;
    }
};

} // namespace detail

} // namespace mcnsim::net

#endif // MCNSIM_NET_BUFFER_POOL_HH
