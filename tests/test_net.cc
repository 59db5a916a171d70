/**
 * @file
 * Unit tests for the TCP send and receive queues, packet buffers,
 * checksums, Ethernet/IPv4/ICMP wire formats, and
 * interface-table routing semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "net/byte_ring.hh"
#include "net/checksum.hh"
#include "net/ethernet.hh"
#include "net/icmp.hh"
#include "net/ipv4.hh"
#include "net/packet.hh"
#include "net/recv_queue.hh"
#include "net/tcp.hh"
#include "sim/random.hh"

using namespace mcnsim::net;
using mcnsim::sim::Rng;

TEST(ByteRingTest, PatternBytesAcrossChunksAndWrapSeam)
{
    // Consume part of the ring first so later appends wrap, and use
    // lengths that straddle the fill's internal copy chunks.
    ByteRing ring;
    ring.appendPattern(7, 1000);
    ring.popFront(900);
    std::size_t base = 1007;
    for (std::size_t n : {1u, 255u, 4097u, 9000u}) {
        ring.appendPattern(base, n);
        base += n;
    }
    auto got = ring.take(ring.size());
    ASSERT_EQ(got.size(), base - 907);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], static_cast<std::uint8_t>((907 + i) & 0xff))
            << i;
}

TEST(SendQueueTest, MatchesByteRingReferenceUnderRandomOps)
{
    // Drive the lazy send queue and a fully materialised ByteRing
    // with the same random mix of literal runs, pattern runs that do
    // and do not merge, pops and reads; every read must agree. Reads
    // start and end mid-run and span several runs; some walk forward
    // from the last read's end (the cursor path), some jump back to
    // the front (retransmits), some land anywhere.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        SendQueue q;
        ByteRing ref;
        std::size_t nextBase = 0; // continuing this base merges
        std::size_t lastEnd = 0;
        std::vector<std::uint8_t> a, b;
        for (int step = 0; step < 3000; ++step) {
            switch (rng.uniformInt(0, 5)) {
            case 0: {
                std::vector<std::uint8_t> lit(rng.uniformInt(1, 40));
                for (auto &byte : lit)
                    byte = static_cast<std::uint8_t>(
                        rng.uniformInt(0, 255));
                q.append(lit.data(), lit.size());
                ref.append(lit.data(), lit.size());
                break;
            }
            case 1: {
                std::size_t n = rng.uniformInt(1, 3000);
                std::size_t base;
                switch (rng.uniformInt(0, 2)) {
                case 0: base = nextBase; break;
                case 1: base = nextBase + 256 * 3; break;
                default: base = rng.uniformInt(0, 1 << 20); break;
                }
                q.appendPattern(base, n);
                ref.appendPattern(base, n);
                nextBase = base + n;
                break;
            }
            case 2: {
                std::size_t n = rng.uniformInt(0, ref.size() / 3);
                q.popFront(n);
                ref.popFront(n);
                lastEnd = lastEnd > n ? lastEnd - n : 0;
                break;
            }
            default: {
                if (ref.empty())
                    break;
                std::size_t off;
                switch (rng.uniformInt(0, 2)) {
                case 0: off = std::min(lastEnd, ref.size() - 1); break;
                case 1: off = 0; break;
                default: off = rng.uniformInt(0, ref.size() - 1); break;
                }
                std::size_t n = rng.uniformInt(
                    1, std::min<std::size_t>(ref.size() - off, 5000));
                a.assign(n, 0);
                b.assign(n, 1);
                q.copyOut(off, n, a.data());
                ref.copyOut(off, n, b.data());
                ASSERT_EQ(a, b) << "seed " << seed << " step " << step
                                << " off " << off << " n " << n;
                lastEnd = off + n;
                break;
            }
            }
            ASSERT_EQ(q.size(), ref.size());
        }
        std::vector<std::uint8_t> rest(ref.size());
        q.copyOut(0, rest.size(), rest.data());
        EXPECT_EQ(rest, ref.take(ref.size())) << "seed " << seed;
    }
}

TEST(SendQueueTest, SegmentReadsOfManyTinyMessagesStayLinear)
{
    // An MPI window: 50 000 messages of a 12-byte header plus a
    // short pattern payload, 100 000 runs that never merge. Reading
    // it back one MSS segment at a time, with ACK-style pops behind
    // the reads, must visit each run a bounded number of times; a
    // rescan from the front per segment would be quadratic.
    constexpr std::size_t msgs = 50'000;
    constexpr std::size_t mss = 1448;
    SendQueue q;
    ByteRing ref;
    for (std::size_t k = 0; k < msgs; ++k) {
        std::array<std::uint8_t, 12> hdr{};
        for (std::size_t j = 0; j < hdr.size(); ++j)
            hdr[j] = static_cast<std::uint8_t>(k * 31 + j);
        std::size_t n = 1 + (k * 37) % 300;
        q.append(hdr.data(), hdr.size());
        q.appendPattern(0, n);
        ref.append(hdr.data(), hdr.size());
        ref.appendPattern(0, n);
    }
    const std::uint64_t runs = 2 * msgs;
    std::size_t segments = 0;
    std::size_t una = 0; // bytes popped so far
    std::vector<std::uint8_t> a(mss), b(mss);
    for (std::size_t off = 0; off < ref.size() + una;) {
        std::size_t rel = off - una;
        std::size_t n = std::min(mss, q.size() - rel);
        q.copyOut(rel, n, a.data());
        ref.copyOut(rel, n, b.data());
        ASSERT_TRUE(std::equal(a.begin(), a.begin() + n, b.begin()))
            << "segment at " << off;
        off += n;
        if (++segments % 4 == 0) { // ACK all but the last segment
            std::size_t acked = off - una - n;
            q.popFront(acked);
            ref.popFront(acked);
            una += acked;
        }
    }
    EXPECT_GT(segments, 1000u);
    EXPECT_LE(q.runVisits(), 2 * runs + 2 * segments);
}

TEST(RecvQueueTest, MatchesByteRingReferenceUnderRandomOps)
{
    // Drive the slice queue and a ByteRing with the same random mix
    // of segments and reads. Segments come in every size class, some
    // with a leading overlap trimmed off (pull), some whose arriving
    // packet stays alive (a shared block the queue must not write
    // into), some that are small enough to coalesce. Reads copy out
    // spans that cross slices, or drop bytes unread.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        RecvQueue q;
        ByteRing ref;
        std::vector<PacketPtr> held; // arriving packets kept alive
        std::uint8_t next = 0;
        std::vector<std::uint8_t> a, b;
        for (int step = 0; step < 4000; ++step) {
            switch (rng.uniformInt(0, 4)) {
            case 0:
            case 1: {
                std::size_t n;
                switch (rng.uniformInt(0, 3)) {
                case 0: n = rng.uniformInt(1, 16); break;
                case 1: n = rng.uniformInt(17, 600); break;
                case 2: n = rng.uniformInt(601, 9000); break;
                default: n = rng.uniformInt(9001, 40000); break;
                }
                auto pkt = Packet::makeFilled(n, [&](std::uint8_t *p) {
                    for (std::size_t i = 0; i < n; ++i)
                        p[i] = static_cast<std::uint8_t>(
                            rng.uniformInt(0, 255));
                });
                std::size_t skip =
                    rng.uniformInt(0, 3) == 0 ? rng.uniformInt(0, n - 1)
                                              : 0;
                ref.append(pkt->cdata() + skip, n - skip);
                PacketPtr slice = pkt->view();
                slice->pull(skip);
                q.append(std::move(slice));
                if (rng.uniformInt(0, 3) == 0)
                    held.push_back(pkt);
                if (held.size() > 8)
                    held.erase(held.begin());
                break;
            }
            case 2: {
                std::size_t n = rng.uniformInt(0, ref.size() / 2);
                q.popFront(n);
                ref.popFront(n);
                break;
            }
            default: {
                std::size_t n = rng.uniformInt(
                    0, std::min<std::size_t>(ref.size(), 20000));
                a.assign(n, next);
                b.assign(n, static_cast<std::uint8_t>(next + 1));
                ++next;
                q.take(n, a.data());
                if (n > 0) // an empty ring has no storage to read
                    ref.copyOut(0, n, b.data());
                ref.popFront(n);
                ASSERT_EQ(a, b) << "seed " << seed << " step " << step
                                << " n " << n;
                break;
            }
            }
            ASSERT_EQ(q.size(), ref.size());
        }
        std::vector<std::uint8_t> rest(ref.size());
        q.take(rest.size(), rest.data());
        EXPECT_EQ(rest, ref.take(ref.size())) << "seed " << seed;
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.sliceCount(), 0u);
    }
}

TEST(RecvQueueTest, SmallSegmentFloodPinsBoundedPoolMemory)
{
    // A peer filling the whole receive window with small segments:
    // queued as slices, each 1-byte segment would pin a 256 B block
    // plus a pooled Packet. Coalescing keeps the pool bytes the
    // queue pins within a fixed multiple of the queued payload. The
    // sizes include both sides of the rule's threshold for the
    // 256 B and 2048 B classes (128 and 576 B with the default
    // headroom), where a kept slice pins the most per byte.
    auto live = [] {
        std::uint64_t bytes = 0;
        for (const auto &c : BufferPool::stats())
            bytes += (c.acquires - c.recycles) * c.blockBytes;
        return bytes;
    };
    for (std::size_t seg_len :
         {1, 64, 127, 128, 129, 512, 575, 576, 1448}) {
        const std::uint64_t before = live();
        RecvQueue q;
        std::size_t i = 0;
        while (q.size() + seg_len <= TcpSocket::rcvBufCap) {
            auto seg = Packet::makeFilled(seg_len, [&](std::uint8_t *p) {
                for (std::size_t k = 0; k < seg_len; ++k, ++i)
                    p[k] = static_cast<std::uint8_t>(i * 7);
            });
            q.append(seg->view());
        }
        const std::uint64_t pinned = live() - before;
        EXPECT_LE(pinned, RecvQueue::collapseRatio * q.size() + 65536)
            << "pinned " << pinned << " B for " << q.size() << " B of "
            << seg_len << " B segments";

        // The bytes still come out in order.
        std::vector<std::uint8_t> out(q.size());
        q.take(out.size(), out.data());
        for (std::size_t k = 0; k < out.size(); ++k)
            ASSERT_EQ(out[k], static_cast<std::uint8_t>(k * 7))
                << seg_len << " B segments, byte " << k;
    }
}

TEST(RecvQueueTest, MtuSlicesAreQueuedWithoutCopy)
{
    // A full-size segment is kept as a view of its own block.
    RecvQueue q;
    auto seg = Packet::makePattern(1448, 3);
    q.append(seg->view());
    auto seg2 = Packet::makePattern(1448, 5);
    q.append(seg2->view());
    EXPECT_EQ(q.sliceCount(), 2u);
    std::vector<std::uint8_t> out(2 * 1448);
    q.take(out.size(), out.data());
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 1448,
                           seg->cdata()));
    EXPECT_TRUE(std::equal(out.begin() + 1448, out.end(),
                           seg2->cdata()));
}

TEST(PacketBuf, PushPullRoundTrip)
{
    auto pkt = Packet::makePattern(100, 7);
    EXPECT_EQ(pkt->size(), 100u);
    std::uint8_t *h = pkt->push(14);
    std::memset(h, 0xab, 14);
    EXPECT_EQ(pkt->size(), 114u);
    pkt->pull(14);
    EXPECT_EQ(pkt->size(), 100u);
    EXPECT_EQ(pkt->data()[0], 7);
}

TEST(PacketBuf, PushBeyondHeadroomGrows)
{
    auto pkt = Packet::makePattern(10, 0, /*headroom=*/4);
    pkt->push(100); // more than the 4-byte headroom
    EXPECT_EQ(pkt->size(), 110u);
}

TEST(PacketBuf, CloneIsDeep)
{
    auto pkt = Packet::makePattern(50, 1);
    auto copy = pkt->clone();
    copy->data()[0] = 0xff;
    EXPECT_NE(pkt->data()[0], copy->data()[0]);
    EXPECT_EQ(pkt->size(), copy->size());
}

TEST(PacketBuf, TrimShortens)
{
    auto pkt = Packet::makePattern(100);
    pkt->trim(40);
    EXPECT_EQ(pkt->size(), 40u);
}

TEST(PacketBuf, CloneIsCopyOnWrite)
{
    auto pkt = Packet::makePattern(1500, 3);
    auto c = pkt->clone();
    EXPECT_TRUE(pkt->sharesBufferWith(*c));
    // Read-only access keeps the buffer shared ...
    EXPECT_EQ(c->cdata()[0], 3);
    EXPECT_TRUE(pkt->sharesBufferWith(*c));
    // ... and the first write detaches the writer only.
    c->data()[0] = 0xee;
    EXPECT_FALSE(pkt->sharesBufferWith(*c));
    EXPECT_EQ(pkt->cdata()[0], 3);
    EXPECT_EQ(c->cdata()[0], 0xee);
}

TEST(PacketBuf, PullAndTrimKeepSharing)
{
    // View adjustments are not writes: a cloned packet can shed
    // headers (pull) or padding (trim) without copying bytes.
    auto pkt = Packet::makePattern(200, 9);
    auto c = pkt->clone();
    c->pull(14);
    c->trim(100);
    EXPECT_TRUE(pkt->sharesBufferWith(*c));
    EXPECT_EQ(c->size(), 100u);
    EXPECT_EQ(pkt->size(), 200u);
}

TEST(PacketBuf, PushOnSharedCloneLeavesSiblingIntact)
{
    auto pkt = Packet::makePattern(64, 5);
    auto c = pkt->clone();
    std::uint8_t *h = c->push(14);
    std::memset(h, 0xab, 14);
    EXPECT_FALSE(pkt->sharesBufferWith(*c));
    EXPECT_EQ(pkt->size(), 64u);
    EXPECT_EQ(pkt->cdata()[0], 5);
    EXPECT_EQ(c->size(), 78u);
    EXPECT_EQ(c->cdata()[14], 5);
}

TEST(PacketBuf, DetachCopiesLiveViewNotOriginalCapacity)
{
    // Regression: detach() used to size the private copy from the
    // *original* buffer, so a cloned jumbo frame that had pulled its
    // headers still paid a jumbo-sized copy on first write. The copy
    // must cover only [head, tail) plus standard slack.
    auto pkt = Packet::makePattern(8192, 3);
    auto c = pkt->clone();
    c->pull(8000); // live view is the 192-byte tail
    ASSERT_TRUE(pkt->sharesBufferWith(*c));
    c->data()[0] = 0xee; // CoW detach
    EXPECT_FALSE(pkt->sharesBufferWith(*c));
    // Initialised extent = headroom + live bytes, nowhere near the
    // 8 KB original (the class capacity may round up; len may not).
    EXPECT_LE(c->bufferLen(),
              Packet::defaultHeadroom + 192 + 64);
    EXPECT_GE(pkt->bufferLen(), 8192u);
    // Bytes survived the copy; the sibling is untouched.
    EXPECT_EQ(c->cdata()[0], 0xee);
    EXPECT_EQ(c->cdata()[1],
              static_cast<std::uint8_t>((8001 + 3) & 0xff));
    EXPECT_EQ(pkt->cdata()[8000],
              static_cast<std::uint8_t>((8000 + 3) & 0xff));
}

TEST(PacketBuf, PoolRecyclesBlocksAcrossPackets)
{
    auto classTotals = [] {
        std::uint64_t acquires = 0, carves = 0, recycles = 0;
        for (const auto &c : BufferPool::stats()) {
            acquires += c.acquires;
            carves += c.carves;
            recycles += c.recycles;
        }
        return std::array<std::uint64_t, 3>{acquires, carves,
                                            recycles};
    };

    auto before = classTotals();
    { auto p = Packet::makePattern(1500); }
    auto mid = classTotals();
    // The packet took at least one block (payload; the Packet object
    // itself rides in a class-0 block) and returned every one.
    EXPECT_GT(mid[0], before[0]);
    EXPECT_EQ(mid[2] - before[2], mid[0] - before[0]);

    // An identical allocation right after runs entirely from the
    // free lists: same classes were just recycled, so zero carves.
    { auto p = Packet::makePattern(1500); }
    auto fin = classTotals();
    EXPECT_GT(fin[0], mid[0]);
    EXPECT_EQ(fin[1], mid[1]) << "warm-cache alloc carved a block";
}

namespace {

/** Leave blocks holding non-zero bytes at the top of every size
 *  class's free list, so the next acquire() of any class recycles
 *  a dirty block. */
void
dirtyPoolBlocks()
{
    std::vector<PacketPtr> hold;
    for (std::size_t bytes : BufferPool::classBytes)
        for (int i = 0; i < 4; ++i)
            hold.push_back(Packet::makeFilled(
                bytes,
                [bytes](std::uint8_t *p) {
                    std::memset(p, 0xff, bytes);
                },
                0));
}

/** True when @p n bytes at @p p all read zero. */
bool
allZero(const std::uint8_t *p, std::size_t n)
{
    return std::all_of(p, p + n, [](std::uint8_t b) { return b == 0; });
}

} // namespace

TEST(PacketBuf, RecycledBlockReadsWrittenPayloadAndZeroHeadroom)
{
    // acquire() skips zeroing only the payload the caller fills, so
    // on a recycled block the payload reads exactly what was written
    // and the headroom still reads zero.
    std::vector<std::uint8_t> payload(1000);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
    auto expectPacket = [](PacketPtr pkt,
                           const std::vector<std::uint8_t> &want) {
        EXPECT_EQ(pkt->bytes(), want);
        std::uint8_t *head = pkt->push(Packet::defaultHeadroom);
        EXPECT_TRUE(allZero(head, Packet::defaultHeadroom));
    };

    dirtyPoolBlocks();
    expectPacket(Packet::makeFilled(payload.size(),
                                    [&](std::uint8_t *p) {
                                        std::memcpy(p, payload.data(),
                                                    payload.size());
                                    }),
                 payload);
    dirtyPoolBlocks();
    expectPacket(Packet::make(payload), payload);
    dirtyPoolBlocks();
    std::vector<std::uint8_t> pattern(3000);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i + 200);
    expectPacket(Packet::makePattern(pattern.size(), 200), pattern);
}

TEST(PacketBuf, DetachTailroomReadsZeroOnRecycledBlock)
{
    // A put() on a shared packet detaches into a fresh block with
    // tailroom: the live view is copied over, the new tail reads
    // zero, exactly as the value-initialised vector did.
    auto pkt = Packet::makePattern(100, 5);
    auto c = pkt->clone();
    dirtyPoolBlocks();
    std::uint8_t *tail = c->put(64);
    EXPECT_FALSE(c->sharesBufferWith(*pkt));
    EXPECT_TRUE(allZero(tail, 64));
    auto got = c->bytes();
    ASSERT_EQ(got.size(), 164u);
    for (std::size_t i = 0; i < 100; ++i)
        ASSERT_EQ(got[i], static_cast<std::uint8_t>(i + 5)) << i;
}

TEST(PacketBuf, PoolClassSelection)
{
    // Each traffic class lands in the intended size class: the
    // chosen capacity is the smallest class >= headroom + payload.
    auto cap = [](std::size_t payload) {
        return Packet::makePattern(payload)->bufferCapacity();
    };
    EXPECT_EQ(cap(64), 256u);
    EXPECT_EQ(cap(1500), 2048u);
    EXPECT_EQ(cap(9000), 10240u);
    // Beyond the largest class: exact heap block.
    EXPECT_EQ(cap(100000), 100000u + Packet::defaultHeadroom);
}

namespace {

/** End-to-end latency recordDelivery() books for @p pkt delivered at
 *  @p delivered: total latency ticks and sample count of its flow. */
std::pair<std::uint64_t, std::uint64_t>
deliveredLatency(const Packet &pkt, Tick delivered)
{
    auto &tel = mcnsim::sim::FlowTelemetry::instance();
    tel.enable();
    mcnsim::sim::FlowTelemetry::FlowKey key;
    recordDelivery(pkt, 0, key, "sink", delivered);
    const auto flows = tel.foldFlows();
    const auto &lat = flows.at(key).latency;
    std::pair<std::uint64_t, std::uint64_t> out{lat.sum(),
                                                lat.count()};
    tel.disable();
    return out;
}

} // namespace

TEST(PathTraceTest, SpansComputed)
{
    PathTrace t;
    t.record(Stage::StackTx, "stack", 100);
    t.record(Stage::DriverTx, "drv", 250);
    t.record(Stage::Phy, "link0", 400);
    t.record(Stage::Phy, "link1", 600);
    EXPECT_EQ(t.last(Stage::DriverTx) - t.last(Stage::StackTx), 150u);
    // The last stamp of a stage wins (a frame crosses two links).
    EXPECT_EQ(t.last(Stage::Phy), 600u);
    EXPECT_EQ(t.last(Stage::DmaRx), PathTrace::unreached);

    // End to end: last StackTx stamp -> delivery tick.
    auto pkt = Packet::makePattern(64);
    pkt->path = std::make_unique<PathTrace>(t);
    EXPECT_EQ(deliveredLatency(*pkt, 900),
              std::make_pair(std::uint64_t{800}, std::uint64_t{1}));
    // No StackTx stamp: the delivery is counted, no latency sample.
    pkt->path.reset();
    EXPECT_EQ(deliveredLatency(*pkt, 900).second, 0u);
}

TEST(PathTraceTest, TickZeroStampIsReached)
{
    // Tick 0 is a legal simulation time, not the "never reached"
    // sentinel (that is maxTick).
    PathTrace t;
    EXPECT_EQ(t.last(Stage::StackTx), PathTrace::unreached);
    t.record(Stage::StackTx, "stack", 0);
    EXPECT_EQ(t.last(Stage::StackTx), 0u);

    auto pkt = Packet::makePattern(64);
    pkt->path = std::make_unique<PathTrace>(t);
    EXPECT_EQ(deliveredLatency(*pkt, 50),
              std::make_pair(std::uint64_t{50}, std::uint64_t{1}));
}

TEST(Checksum, KnownVector)
{
    // RFC 1071 example-style check: verifying a checksummed buffer
    // yields zero.
    std::vector<std::uint8_t> data = {0x45, 0x00, 0x00, 0x73,
                                      0x00, 0x00, 0x40, 0x00,
                                      0x40, 0x11, 0x00, 0x00,
                                      0xc0, 0xa8, 0x00, 0x01,
                                      0xc0, 0xa8, 0x00, 0xc7};
    std::uint16_t c = checksum(data.data(), data.size());
    data[10] = static_cast<std::uint8_t>(c >> 8);
    data[11] = static_cast<std::uint8_t>(c & 0xff);
    EXPECT_EQ(checksum(data.data(), data.size()), 0);
}

TEST(Checksum, DetectsCorruption)
{
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> data(64);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        data[62] = data[63] = 0; // checksum field zeroed first
        std::uint16_t c = checksum(data.data(), data.size());
        data[62] = static_cast<std::uint8_t>(c >> 8);
        data[63] = static_cast<std::uint8_t>(c & 0xff);
        EXPECT_EQ(checksum(data.data(), data.size()), 0);
        // Flip one bit: checksum must not verify.
        std::size_t i = rng.uniformInt(0, 61);
        data[i] = static_cast<std::uint8_t>(
            data[i] ^ (1u << rng.uniformInt(0, 7)));
        EXPECT_NE(checksum(data.data(), data.size()), 0);
    }
}

TEST(Checksum, OddLengthHandled)
{
    std::vector<std::uint8_t> data = {1, 2, 3};
    EXPECT_NE(checksum(data.data(), data.size()), 0);
}

namespace {

/** Byte-pair RFC 1071 reference the optimized path must match. */
std::uint16_t
naiveChecksum(const std::uint8_t *p, std::size_t n,
              std::uint32_t seed)
{
    std::uint64_t sum = seed;
    for (std::size_t i = 0; i + 1 < n; i += 2)
        sum += (static_cast<std::uint32_t>(p[i]) << 8) | p[i + 1];
    if (n & 1)
        sum += static_cast<std::uint32_t>(p[n - 1]) << 8;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum & 0xffff);
}

} // namespace

TEST(Checksum, MatchesNaiveReferenceAcrossLengthsAndOffsets)
{
    // The wide (64-bit, unrolled) checksum must agree with the naive
    // reference for every length class the unroll produces (0, odd
    // tails, each remainder bucket, jumbo) at aligned and unaligned
    // starting offsets, with and without a pseudo-header seed.
    Rng rng(2026);
    std::vector<std::uint8_t> buf(65536 + 8);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

    std::vector<std::size_t> lens = {0,  1,  2,  3,  4,    7,
                                     8,  9,  15, 16, 31,   32,
                                     33, 63, 64, 65, 1499, 1500,
                                     9000, 65536};
    for (int i = 0; i < 48; ++i)
        lens.push_back(rng.uniformInt(0, 65536));

    for (std::size_t len : lens) {
        std::size_t off = rng.uniformInt(0, 7);
        auto seed =
            static_cast<std::uint32_t>(rng.uniformInt(0, 0x1ffff));
        const std::uint8_t *p = buf.data() + off;
        EXPECT_EQ(checksumFold(checksumPartial(p, len, seed)),
                  naiveChecksum(p, len, seed))
            << "len=" << len << " off=" << off << " seed=" << seed;
    }
}

namespace {

/** A packet whose payload is @p prefix's bytes, then @p patternLen
 *  bytes of the pattern based at @p base kept as a lazy extent, then
 *  @p suffix's bytes; @p eager receives the same bytes written out. */
PacketPtr
makeLazy(const std::vector<std::uint8_t> &prefix, std::uint8_t base,
         std::size_t patternLen, const std::vector<std::uint8_t> &suffix,
         std::vector<std::uint8_t> &eager)
{
    eager = prefix;
    for (std::size_t i = 0; i < patternLen; ++i)
        eager.push_back(static_cast<std::uint8_t>(base + i));
    eager.insert(eager.end(), suffix.begin(), suffix.end());
    return Packet::makeDeferred(eager.size(), [&](std::uint8_t *p) {
        std::copy(prefix.begin(), prefix.end(), p);
        std::copy(suffix.begin(), suffix.end(),
                  p + prefix.size() + patternLen);
        return PatternExtent{prefix.size(), patternLen, base};
    });
}

/** The checked build's seal writes a block's lazy extent as soon as
 *  a view or clone shares it, so counts of written lazy bytes after
 *  sharing hold only without it. */
#ifdef MCNSIM_CHECKED
constexpr bool sharingMaterialises = true;
#else
constexpr bool sharingMaterialises = false;
#endif

std::vector<std::uint8_t>
literalBytes(std::size_t n, std::uint8_t salt)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(i * 89 + salt);
    return v;
}

} // namespace

TEST(LazyPayload, ClosedFormChecksumMatchesByteLoop)
{
    // Every pattern base, extents behind 0/1/12/13-byte literal
    // prefixes (so they start at both word parities), ranges that
    // start at either parity and end anywhere in the extent or past
    // it in a literal tail: the packet checksum equals the byte
    // loop over the eager bytes bit for bit, and writes nothing.
    const std::uint64_t before = Packet::materialisedBytes();
    const auto tail = literalBytes(7, 3);
    std::vector<std::uint8_t> eager;
    for (std::size_t pre : {0, 1, 12, 13}) {
        const auto prefix = literalBytes(pre, 41);
        for (int base = 0; base < 256; ++base) {
            auto pkt = makeLazy(prefix, static_cast<std::uint8_t>(base),
                                600, tail, eager);
            for (std::size_t off = 0; off < std::min<std::size_t>(pre, 2);
                 ++off) {
                for (std::size_t end = pre; end <= eager.size(); ++end) {
                    const std::uint32_t got =
                        checksumPartial(*pkt, off, end - off, 0x1234);
                    const std::uint32_t want = checksumPartial(
                        eager.data() + off, end - off, 0x1234);
                    ASSERT_EQ(got, want)
                        << "pre=" << pre << " base=" << base
                        << " off=" << off << " end=" << end;
                    ASSERT_EQ(checksumFold(got), checksumFold(want));
                }
            }
        }
    }
    // Many whole periods, behind an even and an odd prefix.
    for (std::size_t pre : {12, 13}) {
        for (int base : {0, 1, 200, 255}) {
            auto pkt = makeLazy(literalBytes(pre, 5),
                                static_cast<std::uint8_t>(base), 65536,
                                tail, eager);
            EXPECT_EQ(checksumPartial(*pkt, 0, eager.size()),
                      checksumPartial(eager.data(), eager.size()))
                << "pre=" << pre << " base=" << base;
        }
    }
    EXPECT_EQ(Packet::materialisedBytes(), before);
}

TEST(LazyPayload, ReadbackMatchesEagerPacket)
{
    // A segment-shaped packet: a 12-byte literal header, then a lazy
    // extent. Every reader returns exactly the eager bytes.
    std::vector<std::uint8_t> eager;
    const auto hdr = literalBytes(12, 7);
    auto pkt = makeLazy(hdr, 250, 3000, {}, eager);
    const std::uint64_t before = Packet::materialisedBytes();

    // Header parsing and copyOut() across the boundary write
    // nothing.
    EXPECT_TRUE(std::equal(hdr.begin(), hdr.end(), pkt->cprefix(12)));
    for (auto [off, n] : {std::pair<std::size_t, std::size_t>{0, 3012},
                          {5, 20}, {11, 2}, {12, 1}, {700, 2312},
                          {3011, 1}}) {
        std::vector<std::uint8_t> out(n);
        pkt->copyOut(off, n, out.data());
        EXPECT_TRUE(std::equal(out.begin(), out.end(),
                               eager.begin() +
                                   static_cast<std::ptrdiff_t>(off)))
            << "off=" << off << " n=" << n;
    }

    // recvInto()'s path: a read spanning the header and the
    // pattern, out of a queued slice and out of a collapsed one.
    RecvQueue q;
    q.append(pkt->view());
    auto small = makeLazy(hdr, 9, 40, {}, eager);
    std::vector<std::uint8_t> smallEager = eager;
    q.append(small->view()); // collapsed: copied into a fresh block
    EXPECT_EQ(q.sliceCount(), 2u);
    std::vector<std::uint8_t> got(3012 + 52);
    q.take(got.size(), got.data());
    makeLazy(hdr, 250, 3000, {}, eager);
    eager.insert(eager.end(), smallEager.begin(), smallEager.end());
    EXPECT_EQ(got, eager);
    if (!sharingMaterialises) {
        EXPECT_EQ(Packet::materialisedBytes(), before);
    }

    // A view shares the extent; materialising through it writes the
    // shared block once, and both read the eager bytes.
    makeLazy(hdr, 250, 3000, {}, eager);
    auto v = pkt->view();
    EXPECT_EQ(v->bytes(), eager);
    EXPECT_EQ(pkt->bytes(), eager);
    EXPECT_TRUE(std::equal(eager.begin(), eager.end(), pkt->cdata()));
    if (!sharingMaterialises) {
        EXPECT_EQ(Packet::materialisedBytes() - before, 3000u);
    }

    // A push on a shared clone detaches without writing the extent;
    // the detached copy and the original still read the same bytes.
    auto fresh = makeLazy(hdr, 17, 2000, {}, eager);
    const std::uint64_t mid = Packet::materialisedBytes();
    auto c = fresh->clone();
    std::uint8_t *front = c->push(4);
    std::fill(front, front + 4, 0xee);
    EXPECT_FALSE(c->sharesBufferWith(*fresh));
    std::vector<std::uint8_t> pushed(4, 0xee);
    pushed.insert(pushed.end(), eager.begin(), eager.end());
    std::vector<std::uint8_t> out(pushed.size());
    c->copyOut(0, out.size(), out.data());
    EXPECT_EQ(out, pushed);
    EXPECT_EQ(checksumPartial(*c, 0, c->size()),
              checksumPartial(pushed.data(), pushed.size()));
    if (!sharingMaterialises) {
        EXPECT_EQ(Packet::materialisedBytes(), mid);
    }
    EXPECT_EQ(c->bytes(), pushed);
    EXPECT_EQ(fresh->bytes(), eager);

    // The link's tx-corrupt fault flips one payload byte through
    // data() on a shared frame: the flipped copy reads the eager
    // bytes with that one change, the sibling is untouched.
    auto frame = makeLazy(hdr, 99, 1500, {}, eager);
    auto sibling = frame->clone();
    frame->data()[700] ^= 0x40;
    std::vector<std::uint8_t> flipped = eager;
    flipped[700] ^= 0x40;
    EXPECT_EQ(frame->bytes(), flipped);
    EXPECT_EQ(sibling->bytes(), eager);
}

TEST(Mac, FormatAndBroadcast)
{
    auto m = MacAddr::fromId(0x123456);
    EXPECT_EQ(m.str(), "02:4d:43:12:34:56");
    EXPECT_FALSE(m.isBroadcast());
    EXPECT_TRUE(MacAddr::broadcast().isBroadcast());
    EXPECT_EQ(MacAddr::fromId(7), MacAddr::fromId(7));
}

TEST(Ethernet, HeaderRoundTrip)
{
    auto pkt = Packet::makePattern(60);
    EthernetHeader h;
    h.dst = MacAddr::fromId(1);
    h.src = MacAddr::fromId(2);
    h.type = ethTypeIpv4;
    h.push(*pkt);
    EXPECT_EQ(pkt->size(), 74u);

    auto parsed = EthernetHeader::pull(*pkt);
    EXPECT_EQ(parsed.dst, h.dst);
    EXPECT_EQ(parsed.src, h.src);
    EXPECT_EQ(parsed.type, ethTypeIpv4);
    EXPECT_EQ(pkt->size(), 60u);
}

TEST(Ipv4, AddrFormatting)
{
    Ipv4Addr a(10, 0, 0, 2);
    EXPECT_EQ(a.str(), "10.0.0.2");
    EXPECT_TRUE(Ipv4Addr(127, 0, 0, 1).isLoopback());
    EXPECT_TRUE(Ipv4Addr(127, 255, 1, 2).isLoopback());
    EXPECT_FALSE(a.isLoopback());
}

TEST(Ipv4, HeaderRoundTripWithChecksum)
{
    auto pkt = Packet::makePattern(100);
    Ipv4Header h;
    h.src = Ipv4Addr(10, 0, 0, 1);
    h.dst = Ipv4Addr(10, 0, 0, 2);
    h.protocol = protoTcp;
    h.totalLength = 120;
    h.id = 42;
    h.push(*pkt, true);

    auto parsed = Ipv4Header::pull(*pkt, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->src, h.src);
    EXPECT_EQ(parsed->dst, h.dst);
    EXPECT_EQ(parsed->protocol, protoTcp);
    EXPECT_EQ(parsed->totalLength, 120);
    EXPECT_EQ(parsed->id, 42);
}

TEST(Ipv4, CorruptHeaderRejectedUnlessBypassed)
{
    auto pkt = Packet::makePattern(10);
    Ipv4Header h;
    h.src = Ipv4Addr(1, 2, 3, 4);
    h.dst = Ipv4Addr(5, 6, 7, 8);
    h.totalLength = 30;
    h.push(*pkt, true);
    pkt->data()[12] ^= 0xff; // corrupt src address

    auto strict = Packet::make(pkt->bytes());
    EXPECT_FALSE(Ipv4Header::pull(*strict, true));

    // mcn2 semantics: bypassing the check accepts the header.
    auto bypass = Packet::make(pkt->bytes());
    EXPECT_TRUE(Ipv4Header::pull(*bypass, false));
}

TEST(Ipv4, ZeroChecksumHeaderAcceptedOnlyWhenBypassed)
{
    // mcn2 senders do not fill the checksum; a bypassing receiver
    // must accept, a strict one must reject.
    auto pkt = Packet::makePattern(10);
    Ipv4Header h;
    h.src = Ipv4Addr(1, 1, 1, 1);
    h.dst = Ipv4Addr(2, 2, 2, 2);
    h.totalLength = 30;
    h.push(*pkt, false);

    auto strict = Packet::make(pkt->bytes());
    EXPECT_FALSE(Ipv4Header::pull(*strict, true));
    auto bypass = Packet::make(pkt->bytes());
    EXPECT_TRUE(Ipv4Header::pull(*bypass, false));
}

TEST(InterfaceTableTest, PaperRoutingSemantics)
{
    // Host: own address + /32 point-to-point peer routes.
    InterfaceTable host;
    Ipv4Addr host_ip(10, 0, 0, 1);
    Ipv4Addr mcn0(10, 0, 0, 2), mcn1(10, 0, 0, 3);
    host.addOwn(host_ip);
    host.add(0, mcn0, SubnetMask::exact());
    host.add(1, mcn1, SubnetMask::exact());

    EXPECT_EQ(host.route(mcn0), 0);
    EXPECT_EQ(host.route(mcn1), 1);
    // Own address and loopback stay local.
    EXPECT_EQ(host.route(host_ip), InterfaceTable::loopbackIfindex);
    EXPECT_EQ(host.route(Ipv4Addr(127, 0, 0, 1)),
              InterfaceTable::loopbackIfindex);
    // Unknown destination: unroutable on the host.
    EXPECT_FALSE(host.route(Ipv4Addr(8, 8, 8, 8)));

    // MCN node: mask 0.0.0.0 forwards everything to the host...
    InterfaceTable mcn;
    mcn.addOwn(mcn0);
    mcn.add(0, mcn0, SubnetMask::any());
    EXPECT_EQ(mcn.route(host_ip), 0);
    EXPECT_EQ(mcn.route(mcn1), 0);
    EXPECT_EQ(mcn.route(Ipv4Addr(8, 8, 8, 8)), 0);
    // ...except loopback and its own address (Sec. III-B).
    EXPECT_EQ(mcn.route(Ipv4Addr(127, 0, 0, 1)),
              InterfaceTable::loopbackIfindex);
    EXPECT_EQ(mcn.route(mcn0), InterfaceTable::loopbackIfindex);
}

TEST(TcpWire, HeaderRoundTrip)
{
    Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
    auto pkt = Packet::makePattern(64);
    TcpHeader h;
    h.srcPort = 1234;
    h.dstPort = 5001;
    h.seq = 0xdeadbeef;
    h.ack = 0x12345678;
    h.flags = tcpAck | tcpPsh;
    h.window = 1000;
    h.push(*pkt, src, dst, true);

    auto parsed = TcpHeader::pull(*pkt, src, dst, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->srcPort, 1234);
    EXPECT_EQ(parsed->dstPort, 5001);
    EXPECT_EQ(parsed->seq, 0xdeadbeefu);
    EXPECT_EQ(parsed->ack, 0x12345678u);
    EXPECT_EQ(parsed->flags, tcpAck | tcpPsh);
    EXPECT_EQ(parsed->window, 1000);
    EXPECT_EQ(pkt->size(), 64u);
}

TEST(TcpWire, PayloadCorruptionCaughtByChecksum)
{
    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    auto pkt = Packet::makePattern(32);
    TcpHeader h;
    h.srcPort = 1;
    h.dstPort = 2;
    h.push(*pkt, src, dst, true);
    pkt->data()[25] ^= 0x10; // corrupt payload

    EXPECT_FALSE(TcpHeader::pull(*pkt, src, dst, true));
}

TEST(TcpWire, WrongPseudoHeaderCaught)
{
    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    auto pkt = Packet::makePattern(32);
    TcpHeader h;
    h.push(*pkt, src, dst, true);
    // Same bytes, different claimed addresses: must fail.
    EXPECT_FALSE(
        TcpHeader::pull(*pkt, Ipv4Addr(9, 9, 9, 9), dst, true));
}

TEST(TcpWire, ZeroChecksumMeansOffloadedAndIsAccepted)
{
    // A zero TCP checksum is the simulator's CHECKSUM_UNNECESSARY:
    // the sending device claimed a trusted medium (memory channel,
    // loopback) and skipped the fill. The receiver must accept it
    // even when asked to verify -- only *wrong* checksums drop.
    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    auto pkt = Packet::makePattern(48);
    TcpHeader h;
    h.srcPort = 7;
    h.dstPort = 9;
    h.seq = 1234;
    h.flags = tcpAck;
    h.push(*pkt, src, dst, /*compute_checksum=*/false);

    auto parsed = TcpHeader::pull(*pkt, src, dst, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->checksum, 0);
    EXPECT_EQ(parsed->srcPort, 7);
    EXPECT_EQ(parsed->dstPort, 9);
    EXPECT_EQ(parsed->seq, 1234u);
    EXPECT_EQ(parsed->flags, tcpAck);
}

TEST(TcpWire, WindowFieldScalesAndSaturates)
{
    // The 16-bit window field carries units of windowScale bytes.
    // Both edges must survive the wire: a zero window (flow-control
    // stall, rescued by persist probes) and the saturated maximum,
    // which has to cover the socket's whole receive buffer or the
    // advertised window could never open fully.
    static_assert(std::uint64_t{0xffff} * TcpHeader::windowScale >=
                      TcpSocket::rcvBufCap,
                  "max advertisable window smaller than rcv buffer");

    Ipv4Addr src(1, 1, 1, 1), dst(2, 2, 2, 2);
    for (std::uint16_t w : {std::uint16_t{0}, std::uint16_t{0xffff}}) {
        auto pkt = Packet::makePattern(16);
        TcpHeader h;
        h.srcPort = 5;
        h.dstPort = 6;
        h.window = w;
        h.push(*pkt, src, dst, true);
        auto parsed = TcpHeader::pull(*pkt, src, dst, true);
        ASSERT_TRUE(parsed);
        EXPECT_EQ(parsed->window, w);
    }
}

TEST(IcmpWire, PatternPayloadIsChecksummedUnwritten)
{
    // A makePattern() payload is a lazy extent: the echo header's
    // checksum sums it in closed form, writing nothing, and the
    // result verifies over the eager bytes.
    const std::uint64_t before = Packet::materialisedBytes();
    auto pkt = Packet::makePattern(301, 9);
    IcmpHeader h;
    h.id = 5;
    h.push(*pkt, true);
    EXPECT_EQ(Packet::materialisedBytes(), before);
    const auto eager = pkt->bytes(); // writes the extent
    EXPECT_EQ(Packet::materialisedBytes() - before, 301u);
    std::vector<std::uint8_t> payload(301);
    fillPattern(payload.data(), 9, payload.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           eager.begin() + IcmpHeader::size));
    EXPECT_EQ(checksum(eager.data(), eager.size()), 0);
    EXPECT_TRUE(IcmpHeader::pull(*pkt, true));
}

TEST(IcmpWire, EchoRoundTrip)
{
    auto pkt = Packet::makePattern(56);
    IcmpHeader h;
    h.type = icmpEchoRequest;
    h.id = 99;
    h.seqNo = 3;
    h.push(*pkt, true);

    auto parsed = IcmpHeader::pull(*pkt, true);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->type, icmpEchoRequest);
    EXPECT_EQ(parsed->id, 99);
    EXPECT_EQ(parsed->seqNo, 3);
}
