/**
 * @file
 * ByteRing: a growable circular byte buffer (the literal bytes of
 * the send queue); SendQueue: the TCP send queue, which keeps
 * pattern payload as descriptors. The receive queue holds packet
 * slices instead (net/recv_queue.hh).
 *
 * The queues used to be std::deque<uint8_t>: every appended byte
 * paid a deque emplace, and at iperf rates the per-byte bookkeeping
 * dominated the whole simulation's host profile (the TX path showed
 * up as ~60% deque operations). A ring keeps the bytes contiguous
 * modulo one wrap seam, so every operation is one or two memcpys:
 *
 *  - append()/appendPattern(): bulk fill at the tail
 *  - copyOut(): random-access read (segment payload extraction)
 *  - popFront(): O(1) consume (ACKed bytes)
 *
 * Capacity grows by doubling up to the caller's cap (the TCP buffer
 * caps are 1 MiB; eager allocation would cost ~4 MiB per connection
 * pair, so the ring starts small). Byte values and sizes are
 * exactly what the deque held -- host-side container choice only,
 * so modeled metrics are untouched (tools/check_perf.py holds them
 * to the committed BENCH_*.json).
 *
 * The send side writes no pattern byte until something reads it
 * (DESIGN.md "Hot paths & buffer ownership"): SendQueue records
 * sendPattern() bulk data as {base, len} runs, and a segment copied
 * out of it keeps its largest pattern run as the packet's lazy
 * extent instead of writing it.
 */

#ifndef MCNSIM_NET_BYTE_RING_HH
#define MCNSIM_NET_BYTE_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "net/pattern.hh"
#include "sim/logging.hh"

namespace mcnsim::net {

/** Growable circular byte FIFO with random-access reads. */
class ByteRing
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Append @p n bytes from @p p. */
    void
    append(const std::uint8_t *p, std::size_t n)
    {
        reserve(size_ + n);
        std::size_t w = wrap(head_ + size_);
        std::size_t first = std::min(n, cap_ - w);
        std::memcpy(&buf_[w], p, first);
        if (n > first)
            std::memcpy(&buf_[0], p + first, n - first);
        size_ += n;
    }

    /** Append the n-byte test pattern ((base + i) & 0xff). */
    void
    appendPattern(std::size_t base, std::size_t n)
    {
        reserve(size_ + n);
        std::size_t w = wrap(head_ + size_);
        std::size_t first = std::min(n, cap_ - w);
        fillPattern(&buf_[w], base, first);
        if (n > first)
            fillPattern(&buf_[0], base + first, n - first);
        size_ += n;
    }

    /** Copy bytes [off, off+n) into @p dst. */
    void
    copyOut(std::size_t off, std::size_t n, std::uint8_t *dst) const
    {
        MCNSIM_ASSERT(off + n <= size_, "ByteRing read past end");
        std::size_t r = wrap(head_ + off);
        std::size_t first = std::min(n, cap_ - r);
        std::memcpy(dst, &buf_[r], first);
        if (n > first)
            std::memcpy(dst + first, &buf_[0], n - first);
    }

    /** Drop the first @p n bytes. O(1). */
    void
    popFront(std::size_t n)
    {
        MCNSIM_ASSERT(n <= size_, "ByteRing pop past end");
        head_ = wrap(head_ + n);
        size_ -= n;
        if (size_ == 0)
            head_ = 0;
    }

    /** Copy the first @p n bytes out and consume them. */
    std::vector<std::uint8_t>
    take(std::size_t n)
    {
        std::vector<std::uint8_t> out(n);
        if (n) {
            copyOut(0, n, out.data());
            popFront(n);
        }
        return out;
    }

  private:
    std::size_t wrap(std::size_t i) const { return i & (cap_ - 1); }

    /** Grow to a power-of-two capacity >= @p need, linearising the
     *  live bytes into the new allocation. */
    void
    reserve(std::size_t need)
    {
        if (need <= cap_)
            return;
        std::size_t cap = cap_ ? cap_ : 1024;
        while (cap < need)
            cap *= 2;
        // Default-initialised: the live bytes are copied in below and
        // the rest is written before it is read.
        // analyze-ok: packet-alloc (send-queue literal bytes, not packets)
        auto fresh = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
        if (size_)
            copyOut(0, size_, fresh.get());
        buf_ = std::move(fresh);
        cap_ = cap;
        head_ = 0;
    }

    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t cap_ = 0;  ///< power of two (or 0 before first use)
    std::size_t head_ = 0; ///< index of the first live byte
    std::size_t size_ = 0; ///< live byte count
};

/**
 * The TCP send queue: a byte FIFO whose pattern data stays a
 * descriptor until read. It holds a deque of runs, each either
 * pattern bytes ((base + i) & 0xff) or literal bytes parked in a
 * ByteRing (the MPI header, any send() data). copyOutDeferred()
 * copies literal runs from the ring and leaves a segment's largest
 * pattern run to its packet as a lazy extent; copyOut() fills every
 * pattern run with fillPattern().
 *
 * copyOutDeferred() resumes from a cursor left at the previous
 * read, so reading a window segment by segment visits each run a
 * bounded number of times instead of rescanning from the front (an
 * MPI window holds tens of thousands of header + payload runs).
 */
class SendQueue
{
  public:
    std::size_t size() const { return size_; }

    /** Append @p n literal bytes from @p p. */
    void
    append(const std::uint8_t *p, std::size_t n)
    {
        if (n == 0)
            return;
        if (!runs_.empty() && !runs_.back().pattern)
            runs_.back().len += n;
        else
            runs_.push_back(Run{n, litPopped_ + lit_.size(), false});
        lit_.append(p, n);
        size_ += n;
    }

    /** Append the n-byte test pattern ((base + i) & 0xff). Merges
     *  with a preceding pattern run that it continues. */
    void
    appendPattern(std::size_t base, std::size_t n)
    {
        if (n == 0)
            return;
        if (!runs_.empty() && runs_.back().pattern &&
            ((runs_.back().base + runs_.back().len) & 0xff) ==
                (base & 0xff))
            runs_.back().len += n;
        else
            runs_.push_back(Run{n, base, true});
        size_ += n;
    }

    /**
     * Copy bytes [off, off+n) into @p dst, except the largest
     * pattern run among them, which is left unwritten and returned
     * (its offset relative to @p dst; len 0 when the range holds no
     * pattern). A segment keeps that run as its packet's lazy extent
     * (Packet::makeDeferred()).
     */
    PatternExtent
    copyOutDeferred(std::size_t off, std::size_t n, std::uint8_t *dst)
    {
        PatternExtent lazy;
        if (n == 0)
            return lazy;
        MCNSIM_ASSERT(off + n <= size_, "SendQueue read past end");
        if (off < curStart_) {
            curIdx_ = 0;
            curStart_ = 0;
        }
        while (curStart_ + runs_[curIdx_].len <= off) {
            curStart_ += runs_[curIdx_].len;
            ++curIdx_;
            ++runVisits_;
        }
        std::uint8_t *const start = dst;
        std::size_t in = off - curStart_; // offset within the run
        for (;;) {
            ++runVisits_;
            const Run &r = runs_[curIdx_];
            std::size_t m = std::min(n, r.len - in);
            if (!r.pattern) {
                lit_.copyOut(r.base - litPopped_ + in, m, dst);
            } else if (m > lazy.len) {
                // A larger run takes over the deferral; write the
                // one it displaces.
                fillPattern(start + lazy.off, lazy.base, lazy.len);
                lazy = PatternExtent{
                    static_cast<std::size_t>(dst - start), m,
                    static_cast<std::uint8_t>(r.base + in)};
            } else {
                fillPattern(dst, r.base + in, m);
            }
            dst += m;
            n -= m;
            if (n == 0)
                return lazy; // cursor stays on the run holding the end
            curStart_ += r.len;
            ++curIdx_;
            in = 0;
        }
    }

    /** Copy bytes [off, off+n) into @p dst. */
    void
    copyOut(std::size_t off, std::size_t n, std::uint8_t *dst)
    {
        const PatternExtent lazy = copyOutDeferred(off, n, dst);
        fillPattern(dst + lazy.off, lazy.base, lazy.len);
    }

    /** Drop the first @p n bytes. */
    void
    popFront(std::size_t n)
    {
        MCNSIM_ASSERT(n <= size_, "SendQueue pop past end");
        size_ -= n;
        while (n > 0) {
            Run &r = runs_.front();
            std::size_t m = std::min(n, r.len);
            if (!r.pattern) {
                lit_.popFront(m);
                litPopped_ += m;
            }
            n -= m;
            if (m < r.len) {
                r.base += m;
                r.len -= m;
            } else {
                runs_.pop_front();
                if (curIdx_ > 0)
                    --curIdx_;
            }
            // The cursor's run start moves with the front, except
            // at the front run itself, which always starts at 0.
            curStart_ = curIdx_ > 0 ? curStart_ - m : 0;
        }
    }

    /** Runs stepped over or read by copyOut() so far (tests bound
     *  the read cost with it). */
    std::uint64_t runVisits() const { return runVisits_; }

  private:
    struct Run
    {
        std::size_t len;
        /** Pattern: the first byte is (base & 0xff). Literal: the
         *  first byte's position in the stream of all literal bytes
         *  ever appended (ring offset = base - litPopped_). */
        std::size_t base;
        bool pattern;
    };

    std::deque<Run> runs_;
    ByteRing lit_;               ///< literal bytes, in run order
    std::size_t litPopped_ = 0;  ///< literal bytes ever popped
    std::size_t size_ = 0;       ///< live byte count
    std::size_t curIdx_ = 0;     ///< run index of the read cursor
    std::size_t curStart_ = 0;   ///< queue offset where it starts
    std::uint64_t runVisits_ = 0;
};

} // namespace mcnsim::net

#endif // MCNSIM_NET_BYTE_RING_HH
