/**
 * @file
 * SRAM message ring implementation.
 */

#include "mcn/sram_buffer.hh"

#include <cstring>

#include "sim/checked.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace mcnsim::mcn {

namespace {

/** FNV-1a over a message payload: the ring-entry CRC. Plenty for
 *  catching injected single-byte flips. */
std::uint32_t
payloadCrc(const std::uint8_t *data, std::size_t n)
{
    std::uint32_t h = 2166136261u;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 16777619u;
    }
    return h;
}

/** Entry::crc bit 32 set = a CRC was computed at enqueue (fault
 *  plan armed). A record without it is never checked, so a plan
 *  armed between enqueue and dequeue cannot false-positive. */
constexpr std::uint64_t crcValidBit = 1ull << 32;

} // namespace

MessageRing::MessageRing(std::size_t capacity_bytes)
    : capacity_(capacity_bytes)
{
    MCNSIM_ASSERT(capacity_bytes >= 4096, "ring too small");
}

#ifdef MCNSIM_CHECKED
void
MessageRing::auditInvariants() const
{
    MCNSIM_CHECK(start_ < capacity_ && end_ < capacity_,
                 "MCN ring pointer out of bounds (start=", start_,
                 " end=", end_, " capacity=", capacity_, ")");
    MCNSIM_CHECK(used_ <= capacity_, "MCN ring overfull (used=", used_,
                 " capacity=", capacity_, ")");
    MCNSIM_CHECK((start_ + used_) % capacity_ == end_,
                 "MCN ring start/end/used inconsistent (start=",
                 start_, " end=", end_, " used=", used_,
                 " capacity=", capacity_, ")");
    MCNSIM_CHECK(frames_.size() == enqueued_ - dequeued_,
                 "MCN ring frame queue out of sync (", frames_.size(),
                 " frames vs ", enqueued_ - dequeued_,
                 " messages in flight)");
}

void
MessageRing::corruptForTest()
{
    end_ = (end_ + 1) % capacity_;
}
#endif

bool
MessageRing::enqueue(net::Packet &pkt)
{
    MCNSIM_IF_CHECKED(auditInvariants();)
    const std::size_t len = pkt.size();
    if (len == 0 || footprint(len) > freeBytes())
        return false;
    const std::uint64_t crc =
        sim::FaultPlan::active()
            ? (crcValidBit | payloadCrc(pkt.cdata(), len))
            : 0;
    frames_.push_back(Entry{pkt.view(), crc});
    frames_.back().frame->path = std::move(pkt.path);
    end_ = (end_ + footprint(len)) % capacity_;
    used_ += footprint(len);
    enqueued_++;
    MCNSIM_IF_CHECKED(auditInvariants();)
    return true;
}

bool
MessageRing::enqueue(const std::uint8_t *data, std::size_t len,
                     std::unique_ptr<net::PathTrace> path)
{
    auto pkt = net::Packet::makeFilled(
        len, [&](std::uint8_t *p) { std::memcpy(p, data, len); });
    pkt->path = std::move(path);
    return enqueue(*pkt);
}

std::optional<std::size_t>
MessageRing::frontLength() const
{
    MCNSIM_IF_CHECKED(auditInvariants();)
    if (empty())
        return std::nullopt;
    return frames_.front().frame->size();
}

std::optional<McnFrame>
MessageRing::dequeuePacket()
{
    auto len = frontLength();
    if (!len)
        return std::nullopt;
    MCNSIM_ASSERT(footprint(*len) <= used_, "corrupt ring state");

    Entry &e = frames_.front();
    McnFrame out{std::move(e.frame)};
    if (e.crc & crcValidBit) [[unlikely]]
        out.crcOk = payloadCrc(out.pkt->cdata(), *len) ==
                    (e.crc & 0xffffffffu);
    frames_.pop_front();
    start_ = (start_ + footprint(*len)) % capacity_;
    used_ -= footprint(*len);
    dequeued_++;
    MCNSIM_IF_CHECKED(auditInvariants();)
    return out;
}

std::optional<McnMessage>
MessageRing::dequeue()
{
    auto f = dequeuePacket();
    if (!f)
        return std::nullopt;
    return McnMessage{f->pkt->bytes(), std::move(f->pkt->path),
                      f->crcOk};
}

bool
MessageRing::corruptNewest()
{
    if (empty())
        return false;
    net::Packet &frame = *frames_.back().frame;
    frame.data()[frame.size() - 1] ^= 0x20;
    return true;
}

SramBuffer::SramBuffer(std::size_t total_bytes, double tx_fraction)
    : total_(total_bytes),
      tx_(static_cast<std::size_t>(
          static_cast<double>(total_bytes - controlBytes) *
          tx_fraction)),
      rx_(total_bytes - controlBytes -
          static_cast<std::size_t>(
              static_cast<double>(total_bytes - controlBytes) *
              tx_fraction))
{}

} // namespace mcnsim::mcn
