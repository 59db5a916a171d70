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

/** Meta::crc bit 32 set = a CRC was computed at enqueue (fault plan
 *  armed). A record without it is never checked, so a plan armed
 *  between enqueue and dequeue cannot false-positive. */
constexpr std::uint64_t crcValidBit = 1ull << 32;

} // namespace

MessageRing::MessageRing(std::size_t capacity_bytes)
    : buf_(capacity_bytes)
{
    MCNSIM_ASSERT(capacity_bytes >= 4096, "ring too small");
}

void
MessageRing::writeBytes(std::size_t pos, const std::uint8_t *src,
                        std::size_t n)
{
    std::size_t first = std::min(n, buf_.size() - pos);
    std::memcpy(buf_.data() + pos, src, first);
    if (first < n)
        std::memcpy(buf_.data(), src + first, n - first);
}

void
MessageRing::readBytes(std::size_t pos, std::uint8_t *dst,
                       std::size_t n) const
{
    std::size_t first = std::min(n, buf_.size() - pos);
    std::memcpy(dst, buf_.data() + pos, first);
    if (first < n)
        std::memcpy(dst + n - (n - first), buf_.data(), n - first);
}

#ifdef MCNSIM_CHECKED
void
MessageRing::auditInvariants() const
{
    MCNSIM_CHECK(start_ < buf_.size() && end_ < buf_.size(),
                 "MCN ring pointer out of bounds (start=", start_,
                 " end=", end_, " capacity=", buf_.size(), ")");
    MCNSIM_CHECK(used_ <= buf_.size(),
                 "MCN ring overfull (used=", used_,
                 " capacity=", buf_.size(), ")");
    MCNSIM_CHECK((start_ + used_) % buf_.size() == end_,
                 "MCN ring start/end/used inconsistent (start=",
                 start_, " end=", end_, " used=", used_,
                 " capacity=", buf_.size(), ")");
    MCNSIM_CHECK(meta_.size() == enqueued_ - dequeued_,
                 "MCN ring side channel out of sync (", meta_.size(),
                 " records vs ", enqueued_ - dequeued_,
                 " messages in flight)");
}

void
MessageRing::corruptForTest()
{
    end_ = (end_ + 1) % buf_.size();
}
#endif

bool
MessageRing::enqueue(const std::uint8_t *data, std::size_t len,
                     std::unique_ptr<net::PathTrace> path)
{
    MCNSIM_IF_CHECKED(auditInvariants();)
    std::size_t need = footprint(len);
    if (need > freeBytes() || len == 0)
        return false;
    meta_.push_back(Meta{sim::FaultPlan::active()
                             ? (crcValidBit | payloadCrc(data, len))
                             : 0,
                         std::move(path)});

    std::uint8_t hdr[lengthFieldBytes];
    hdr[0] = static_cast<std::uint8_t>(len >> 24);
    hdr[1] = static_cast<std::uint8_t>(len >> 16);
    hdr[2] = static_cast<std::uint8_t>(len >> 8);
    hdr[3] = static_cast<std::uint8_t>(len & 0xff);

    writeBytes(end_, hdr, lengthFieldBytes);
    writeBytes((end_ + lengthFieldBytes) % buf_.size(), data, len);
    end_ = (end_ + need) % buf_.size();
    used_ += need;
    enqueued_++;
    MCNSIM_IF_CHECKED(auditInvariants();)
    return true;
}

std::optional<std::size_t>
MessageRing::frontLength() const
{
    MCNSIM_IF_CHECKED(auditInvariants();)
    if (empty())
        return std::nullopt;
    std::uint8_t hdr[lengthFieldBytes];
    readBytes(start_, hdr, lengthFieldBytes);
    std::size_t len = (std::size_t(hdr[0]) << 24) |
                      (std::size_t(hdr[1]) << 16) |
                      (std::size_t(hdr[2]) << 8) | hdr[3];
    return len;
}

std::optional<McnMessage>
MessageRing::dequeue()
{
    auto len = frontLength();
    if (!len)
        return std::nullopt;
    MCNSIM_ASSERT(footprint(*len) <= used_, "corrupt ring state");

    McnMessage out;
    out.bytes.resize(*len);
    readBytes((start_ + lengthFieldBytes) % buf_.size(),
              out.bytes.data(), *len);
    Meta &meta = meta_.front();
    out.path = std::move(meta.path);
    if (meta.crc & crcValidBit) [[unlikely]]
        out.crcOk = payloadCrc(out.bytes.data(), out.bytes.size()) ==
                    (meta.crc & 0xffffffffu);
    meta_.pop_front();
    std::size_t need = footprint(*len);
    start_ = (start_ + need) % buf_.size();
    used_ -= need;
    dequeued_++;
    MCNSIM_IF_CHECKED(auditInvariants();)
    return out;
}

bool
MessageRing::corruptNewest()
{
    if (empty())
        return false;
    // The newest message's payload ends one byte before end_.
    std::size_t pos = (end_ + buf_.size() - 1) % buf_.size();
    buf_[pos] ^= 0x20;
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
