/**
 * @file
 * Packet implementation.
 */

#include "net/packet.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "sim/flow_stats.hh"
#include "sim/logging.hh"

namespace mcnsim::net {

namespace {
// analyze-ok: shard-static (host-side diagnostic counter, a relaxed
// atomic that no modeled decision reads)
std::atomic<std::uint64_t> materialised{0};
} // namespace

PacketPtr
Packet::wrap(BufRef buf, std::size_t head, std::size_t tail)
{
    return std::allocate_shared<Packet>(detail::PoolAlloc<Packet>{},
                                        Priv{}, std::move(buf), head,
                                        tail);
}

PacketPtr
Packet::make(std::vector<std::uint8_t> payload, std::size_t headroom)
{
    return makeFilled(
        payload.size(),
        [&](std::uint8_t *p) {
            if (!payload.empty())
                std::memcpy(p, payload.data(), payload.size());
        },
        headroom);
}

PacketPtr
Packet::makePattern(std::size_t n, std::uint8_t seed,
                    std::size_t headroom)
{
    // The whole payload is the lazy extent: nothing is written
    // unless something reads it in memory.
    return makeDeferred(
        n, [&](std::uint8_t *) { return PatternExtent{0, n, seed}; },
        headroom);
}

void
Packet::defer(std::size_t off, std::size_t len, std::uint8_t base)
{
    lazyOff_ = static_cast<std::uint32_t>(off);
    lazyLen_ = static_cast<std::uint32_t>(len);
    lazyBase_ = base;
    buf_->lazyState.store(PktBuf::lazyPending,
                          std::memory_order_relaxed);
}

void
Packet::materialiseSlow() const
{
    PktBuf &b = *buf_.get();
    std::uint8_t expect = PktBuf::lazyPending;
    if (b.lazyState.compare_exchange_strong(expect,
                                            PktBuf::lazyFilling,
                                            std::memory_order_acquire)) {
        fillPattern(b.bytes() + lazyOff_, lazyBase_, lazyLen_);
        materialised.fetch_add(lazyLen_, std::memory_order_relaxed);
        b.lazyState.store(PktBuf::lazyNone, std::memory_order_release);
        return;
    }
    // Another shard holding a view of the block is writing it.
    while (b.lazyState.load(std::memory_order_acquire) !=
           PktBuf::lazyNone)
        std::this_thread::yield();
}

std::uint64_t
Packet::materialisedBytes()
{
    return materialised.load(std::memory_order_relaxed);
}

void
Packet::detach(std::size_t headroom, std::size_t tailroom)
{
    // The live bytes move to a private block; a lazy extent among
    // them moves as an extent, still unwritten.
    std::size_t n = size();
    BufRef fresh{
        BufferPool::acquire(headroom + n + tailroom, headroom, n)};
    const PatternExtent lazy =
        copyOutDeferred(0, n, fresh->bytes() + headroom);
    buf_ = std::move(fresh);
    head_ = headroom;
    tail_ = headroom + n;
    lazyLen_ = 0;
    if (lazy.len)
        defer(headroom + lazy.off, lazy.len, lazy.base);
}

void
Packet::growTo(std::size_t newLen)
{
    if (newLen <= buf_->cap) {
        // Room in the block: just extend the initialised prefix
        // (zero-filled, exactly as vector::resize did).
        std::memset(buf_->bytes() + buf_->len, 0,
                    newLen - buf_->len);
        buf_->len = static_cast<std::uint32_t>(newLen);
        return;
    }
    materialise(); // the copy below reads the whole prefix
    lazyLen_ = 0;
    BufRef fresh{BufferPool::acquire(newLen, 0, buf_->len)};
    if (buf_->len)
        std::memcpy(fresh->bytes(), buf_->bytes(), buf_->len);
    buf_ = std::move(fresh);
}

#ifdef MCNSIM_CHECKED
std::uint64_t
Packet::viewHash() const
{
    std::uint64_t h = sim::checked::hashSeed;
    auto literal = [&h](const std::uint8_t *p, std::size_t n) {
        h = sim::checked::hashBytes(p, n, h);
    };
    auto pattern = [&h](std::uint8_t base, std::size_t n) {
        const std::uint8_t *table = patternTable();
        for (std::size_t off = 0; off < n; off += patternChunk)
            h = sim::checked::hashBytes(table + ((base + off) & 0xff),
                                        std::min(patternChunk, n - off),
                                        h);
    };
    scanBytes(0, size(), literal, pattern);
    return h;
}

void
Packet::sealNow() const
{
    sealHash_ = viewHash();
    sealed_ = true;
}

void
Packet::auditSeal() const
{
    if (!sealed_)
        return;
    const std::uint64_t now = viewHash();
    if (now != sealHash_)
        sim::panic("checked: CoW packet aliasing: the bytes of a "
                   "sealed packet view changed without copy-on-write "
                   "(write through a stale data() pointer or "
                   "const_cast; src=", srcNode, " dst=", dstNode,
                   " size=", size(), ")");
}
#endif

std::uint8_t *
Packet::push(std::size_t n)
{
    MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                      auditSeal(); sealed_ = false;)
    if (head_ < n) {
        // Grow headroom; rare if defaultHeadroom is sized right.
        // (Also covers the shared case: the copy detaches.)
        detach(n + defaultHeadroom, 0);
    } else if (buf_.shared()) {
        // Copy-on-write. Copy only the live view, with enough slack
        // for this push plus typical follow-on headers -- not the
        // original headroom, which after deep pulls can approach
        // the whole original capacity.
        detach(std::min(head_, std::max(n, defaultHeadroom)), 0);
    }
    head_ -= n;
    if (overlapsLazy(head_, head_ + n)) [[unlikely]]
        materialiseSlow(); // pushed back over pulled lazy bytes
    return buf_->bytes() + head_;
}

void
Packet::pull(std::size_t n)
{
    MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                      auditSeal();)
    MCNSIM_ASSERT(n <= size(), "pulling past end of packet");
    head_ += n;
    // The view changed; re-seal over the narrowed range so the
    // protection follows the packet through header processing.
    MCNSIM_IF_CHECKED(if (sealed_) sealNow();)
}

std::uint8_t *
Packet::put(std::size_t n)
{
    MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                      auditSeal(); sealed_ = false;)
    if (buf_.shared()) {
        // Copy-on-write with room for the tail; live view only.
        detach(std::min(head_, defaultHeadroom), n);
    } else if (tail_ + n > buf_->len) {
        growTo(tail_ + n);
    }
    if (overlapsLazy(tail_, tail_ + n)) [[unlikely]]
        materialiseSlow(); // put back over trimmed lazy bytes
    std::uint8_t *p = buf_->bytes() + tail_;
    tail_ += n;
    return p;
}

void
Packet::trim(std::size_t n)
{
    MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                      auditSeal();)
    MCNSIM_ASSERT(n <= size(), "trim growing packet");
    tail_ = head_ + n;
    MCNSIM_IF_CHECKED(if (sealed_) sealNow();)
}

PacketPtr
Packet::view() const
{
    MCNSIM_IF_CHECKED(BufferPool::auditLive(buf_.get());
                      auditSeal();)
    PacketPtr v = wrap(buf_, head_, tail_);
    v->lazyOff_ = lazyOff_;
    v->lazyLen_ = lazyLen_;
    v->lazyBase_ = lazyBase_;
    // The block is shared from here on: seal both views so any write
    // that bypasses copy-on-write is caught at the next audit.
    MCNSIM_IF_CHECKED(sealNow(); v->sealHash_ = sealHash_;
                      v->sealed_ = true;)
    return v;
}

PacketPtr
Packet::clone() const
{
    PacketPtr copy = view();
    if (path) [[unlikely]]
        copy->path = std::make_unique<PathTrace>(*path);
    copy->srcNode = srcNode;
    copy->dstNode = dstNode;
    copy->tsoMss = tsoMss;
    return copy;
}

std::vector<std::uint8_t>
Packet::bytes() const
{
    return {cdata(), cdata() + size()};
}

void
foldPathLatency(const Packet &pkt, std::size_t shard,
                const char *final_hop, Tick delivered)
{
    if (!pkt.path)
        return;
    const PathTrace &p = *pkt.path;
    auto &tel = sim::FlowTelemetry::instance();
    for (std::size_t i = 1; i < p.size(); ++i) {
        const PathTrace::Hop &prev = p.at(i - 1);
        const PathTrace::Hop &cur = p.at(i);
        tel.recordHop(shard, cur.name,
                      cur.t >= prev.t ? cur.t - prev.t : 0);
    }
    if (p.size() > 0 && final_hop) {
        Tick last = p.at(p.size() - 1).t;
        tel.recordHop(shard, final_hop,
                      delivered >= last ? delivered - last : 0);
    }
    tel.recordPathLen(shard, p.size());
}

void
recordDelivery(const Packet &pkt, std::size_t shard,
               const sim::FlowTelemetry::FlowKey &key,
               const char *final_hop, Tick delivered)
{
    const Tick sent = pkt.lastStamp(Stage::StackTx);
    const Tick e2e = sent == PathTrace::unreached ? sim::maxTick
                     : delivered >= sent          ? delivered - sent
                                                  : 0;
    sim::FlowTelemetry::instance().recordRx(shard, key, pkt.size(),
                                            delivered, e2e);
    foldPathLatency(pkt, shard, final_hop, delivered);
}

} // namespace mcnsim::net
