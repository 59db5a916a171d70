/**
 * @file
 * RecvQueue: the TCP receive queue. It holds the in-order payload
 * the application has not read yet as copy-on-write Packet::view()
 * slices of the arriving segments, so a segment's bytes are not
 * copied on arrival; recv() copies out only the bytes it returns,
 * and a reader that drops what it reads (recvDrain(),
 * recvDiscard()) never touches them.
 *
 * Host-memory bound: a slice pins its segment's pooled block plus
 * the class-0 block its Packet lives in. A small segment would pin
 * both many times over its payload (a flood of 1-byte segments, one
 * 256 B block and one Packet per byte), so, in the spirit of Linux
 * tcp_collapse, a segment whose two blocks together exceed
 * collapseRatio times its payload is copied into the tail slice's
 * block when that block is private and has room, and into a fresh
 * compact block when not. A segment kept as its own slice then pins
 * at most collapseRatio times its payload, and copied segments fill
 * a block before the next one is taken. The advertised window counts
 * payload bytes (size()), exactly as the byte ring it replaced did.
 *
 * The slice FIFO is a vector with a head index: it allocates only
 * when first used, and a steady append/drain cycle reuses its
 * capacity.
 */

#ifndef MCNSIM_NET_RECV_QUEUE_HH
#define MCNSIM_NET_RECV_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/buffer_pool.hh"
#include "net/packet.hh"
#include "sim/logging.hh"

namespace mcnsim::net {

class RecvQueue
{
  public:
    /** A segment whose data block and Packet block together are
     *  more than this many times its payload is coalesced instead of
     *  queued as its own slice. */
    static constexpr std::size_t collapseRatio = 4;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Append the bytes of @p slice, a view the queue may keep
     *  (callers pass a fresh Packet::view(), trimmed to the new
     *  bytes). */
    void
    append(PacketPtr slice)
    {
        const std::size_t n = slice->size();
        if (n == 0)
            return;
        size_ += n;
        if (collapseRatio * n <
            slice->bufferCapacity() + BufferPool::classBytes[0]) {
            if (head_ == slices_.size() ||
                slices_.back()->tailroom() < n)
                push(Packet::makeFilled(
                    n,
                    [&](std::uint8_t *p) { slice->copyOut(0, n, p); },
                    /*headroom=*/0));
            else
                slice->copyOut(0, n, slices_.back()->put(n));
            return;
        }
        push(std::move(slice));
    }

    /** Copy the first @p n bytes to @p dst and consume them. */
    void
    take(std::size_t n, std::uint8_t *dst)
    {
        consume(n, [&](const Packet &s, std::size_t m) {
            s.copyOut(0, m, dst);
            dst += m;
        });
    }

    /** Consume the first @p n bytes without reading them. */
    void
    popFront(std::size_t n)
    {
        consume(n, [](const Packet &, std::size_t) {});
    }

    /** Slices currently queued (tests). */
    std::size_t sliceCount() const { return slices_.size() - head_; }

  private:
    void
    push(PacketPtr slice)
    {
        // Reclaim consumed slots before the vector would grow.
        if (head_ > 0 && slices_.size() == slices_.capacity()) {
            slices_.erase(slices_.begin(),
                          slices_.begin() +
                              static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        slices_.push_back(std::move(slice));
    }

    /** Hand the first @p n bytes to @p read(slice, len) slice by
     *  slice, then drop them. */
    template <typename Read>
    void
    consume(std::size_t n, Read &&read)
    {
        MCNSIM_ASSERT(n <= size_, "RecvQueue read past end");
        size_ -= n;
        while (n > 0) {
            PacketPtr &s = slices_[head_];
            const std::size_t m = std::min(n, s->size());
            read(*s, m);
            n -= m;
            if (m < s->size()) {
                s->pull(m);
            } else {
                s.reset();
                ++head_;
            }
        }
        if (head_ == slices_.size()) {
            slices_.clear(); // keeps the capacity
            head_ = 0;
        }
    }

    std::vector<PacketPtr> slices_; ///< [head_, end) are live
    std::size_t head_ = 0;
    std::size_t size_ = 0; ///< queued payload bytes
};

} // namespace mcnsim::net

#endif // MCNSIM_NET_RECV_QUEUE_HH
