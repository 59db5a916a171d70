/**
 * @file
 * BufferPool implementation: thread-local free lists with a global
 * stats registry.
 */

#include "net/buffer_pool.hh"

#include <cstring>
#include <mutex>
#include <new>
#include <vector>

namespace mcnsim::net {

namespace {

constexpr std::size_t kClasses = BufferPool::classBytes.size();

/** Class index serving @p n bytes, or heapClass. */
std::uint8_t
classFor(std::size_t n)
{
    for (std::size_t c = 0; c < kClasses; ++c)
        if (n <= BufferPool::classBytes[c])
            return static_cast<std::uint8_t>(c);
    return BufferPool::heapClass;
}

struct Counters
{
    std::uint64_t acquires[kClasses + 1] = {};
    std::uint64_t carves[kClasses + 1] = {};
    std::uint64_t recycles[kClasses + 1] = {};

    void
    fold(const Counters &o)
    {
        for (std::size_t c = 0; c <= kClasses; ++c) {
            acquires[c] += o.acquires[c];
            carves[c] += o.carves[c];
            recycles[c] += o.recycles[c];
        }
    }
};

struct Registry;
Registry &registry();

/** One thread's free lists plus its slice of the stats. */
struct Cache
{
    std::vector<PktBuf *> free[kClasses];
    Counters counters;

    Cache();
    ~Cache();
};

/** Tracks live caches and retains counters of exited threads so
 *  stats() reflects process totals. */
struct Registry
{
    std::mutex mu;
    std::vector<Cache *> caches;
    Counters retired;
};

Registry &
registry()
{
    // analyze-ok: shard-static (mutex-guarded cache registry;
    // stats-only aggregation, never read by modeled decisions)
    static Registry r;
    return r;
}

Cache::Cache()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.caches.push_back(this);
}

Cache::~Cache()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.retired.fold(counters);
    for (auto &list : free)
        for (PktBuf *b : list)
            ::operator delete(b);
    for (std::size_t i = 0; i < r.caches.size(); ++i) {
        if (r.caches[i] == this) {
            r.caches.erase(r.caches.begin() +
                           static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
}

Cache &
cache()
{
    // analyze-ok: shard-static (thread_local slab cache: each worker
    // allocates from its own freelists; which buffer a packet lands in
    // never feeds a modeled decision (contents and sizes are identical
    // either way))
    static thread_local Cache c;
    return c;
}

PktBuf *
carve(std::uint8_t cls, std::size_t n)
{
    std::size_t usable =
        cls == BufferPool::heapClass ? n : BufferPool::classBytes[cls];
    void *raw = ::operator new(sizeof(PktBuf) + usable);
    auto *b = static_cast<PktBuf *>(raw);
    b->refs.store(1, std::memory_order_relaxed);
    b->cap = static_cast<std::uint32_t>(usable);
    b->cls = cls;
    // Checked build: a fresh block starts poisoned like a recycled
    // one, so bytes an acquire() caller skipped but never wrote read
    // as 0xA5 whichever way the block arrived.
    MCNSIM_IF_CHECKED(std::memset(b->bytes(), BufferPool::poisonByte,
                                  usable);)
    return b;
}

} // namespace

PktBuf *
BufferPool::acquire(std::size_t n, std::size_t skip,
                    std::size_t skipLen)
{
    std::uint8_t cls = classFor(n);
    Cache &c = cache();
    std::size_t statIdx = cls == heapClass ? kClasses : cls;
    c.counters.acquires[statIdx]++;

    PktBuf *b = nullptr;
    if (cls != heapClass && !c.free[cls].empty()) {
        b = c.free[cls].back();
        c.free[cls].pop_back();
        b->refs.store(1, std::memory_order_relaxed);
    } else {
        c.counters.carves[statIdx]++;
        b = carve(cls, n);
    }
    b->len = static_cast<std::uint32_t>(n);
    b->lazyState.store(PktBuf::lazyNone, std::memory_order_relaxed);
    MCNSIM_IF_CHECKED(b->magic = liveMagic;)
    std::size_t skipEnd = skip + skipLen;
    MCNSIM_ASSERT(skipEnd <= n, "acquire skip range past the block");
    std::memset(b->bytes(), 0, skip);
    std::memset(b->bytes() + skipEnd, 0, n - skipEnd);
    return b;
}

void
BufferPool::recycle(PktBuf *b)
{
#ifdef MCNSIM_CHECKED
    b->magic = poisonMagic;
    std::memset(b->bytes(), poisonByte, b->cap);
#endif
    if (b->cls == heapClass) {
        ::operator delete(b);
        return;
    }
    Cache &c = cache();
    if (c.free[b->cls].size() >= cacheCap[b->cls]) {
        ::operator delete(b);
        return;
    }
    c.counters.recycles[b->cls]++;
    c.free[b->cls].push_back(b);
}

std::array<BufferPool::ClassStats, kClasses + 1>
BufferPool::stats()
{
    std::array<ClassStats, kClasses + 1> out{};
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    Counters sum = r.retired;
    std::size_t cached[kClasses + 1] = {};
    for (const Cache *c : r.caches) {
        sum.fold(c->counters);
        for (std::size_t i = 0; i < kClasses; ++i)
            cached[i] += c->free[i].size();
    }
    for (std::size_t i = 0; i <= kClasses; ++i) {
        out[i].blockBytes = i < kClasses ? classBytes[i] : 0;
        out[i].acquires = sum.acquires[i];
        out[i].carves = sum.carves[i];
        out[i].recycles = sum.recycles[i];
        out[i].cached = cached[i];
    }
    return out;
}

} // namespace mcnsim::net
