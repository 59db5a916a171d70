/**
 * @file
 * MemController implementation: FR-FCFS over the bank model.
 */

#include "mem/mem_controller.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace mcnsim::mem {

namespace {
/** Sliding window length for the fine/bulk coupling estimate. */
constexpr Tick couplingWindow = 10 * sim::oneUs;
} // namespace

MemController::MemController(sim::Simulation &s, std::string name,
                             DramTiming timing)
    : sim::SimObject(s, std::move(name)), timing_(std::move(timing))
{
    for (std::uint32_t r = 0; r < timing_.ranks; ++r)
        ranks_.emplace_back(timing_.banksPerRank, timing_);
    bulk_ = std::make_unique<BandwidthArbiter>(
        s, this->name() + ".bulk", timing_.peakBandwidthBps());

    regStat(&statReadBytes_);
    regStat(&statWriteBytes_);
    regStat(&statRowHits_);
    regStat(&statRowMisses_);
    regStat(&statRowClosed_);
    regStat(&statMmio_);
    regStat(&statReadLat_);
    regStat(&statReadQueue_);
}

void
MemController::startup()
{
    // Refresh is armed on demand (see access()): a free-running
    // periodic event would keep the event queue non-empty forever
    // and turn every bounded test into an infinite loop.
}

std::size_t
MemController::addMmioRegion(MmioRegion region)
{
    // serviceMmio() keeps the index in 16 bits.
    MCNSIM_ASSERT(mmio_.size() < 0xffff, "too many MMIO regions");
    mmio_.push_back(std::move(region));
    return mmio_.size() - 1;
}

double
MemController::rowHitRate() const
{
    double total = statRowHits_.value() + statRowMisses_.value() +
                   statRowClosed_.value();
    return total > 0 ? statRowHits_.value() / total : 0.0;
}

void
MemController::access(MemRequest req)
{
    req.enqueued = curTick();
    trace("DRAM",
          req.kind == MemRequest::Kind::Write ? "write " : "read ",
          req.size, "B @ 0x", std::hex, req.addr, std::dec);
    if (!refreshEvent_.scheduled())
        eventQueue().schedule(&refreshEvent_,
                              curTick() + timing_.tREFI);

    // Device windows bypass DRAM entirely.
    for (std::size_t i = 0; i < mmio_.size(); ++i) {
        if (mmio_[i].contains(req.addr)) {
            serviceMmio(req, i);
            return;
        }
    }

    Pending p;
    p.coord = localMap_.decode(req.addr, timing_);
    p.req = std::move(req);

    if (p.req.kind == MemRequest::Kind::Write) {
        statWriteBytes_ += p.req.size;
        // Write combining: merge with a pending write to the same
        // line; posted completion either way.
        Addr line = lineAlign(p.req.addr);
        auto match = std::find_if(
            writeQ_.begin(), writeQ_.end(), [line](const Pending &w) {
                return lineAlign(w.req.addr) == line;
            });
        auto cb = std::move(p.req.onComplete);
        if (match == writeQ_.end())
            writeQ_.push_back(std::move(p));
        if (cb)
            cb(curTick());
    } else {
        statReadBytes_ += p.req.size;
        statReadQueue_.sample(static_cast<double>(readQ_.size()));
        readQ_.push_back(std::move(p));
    }
    schedule();
}

void
MemController::serviceMmio(MemRequest &req, std::size_t region)
{
    statMmio_ += 1;
    // The access still crosses the channel: occupy the bus for one
    // burst and add the device latency.
    Tick start = std::max(curTick(), busFreeAt_);
    busFreeAt_ = start + timing_.tBURST;
    updateCoupling(start, busFreeAt_);
    tlSpan("mmio", start, busFreeAt_);
    const MmioRegion &r = mmio_[region];
    Tick lat = req.kind == MemRequest::Kind::Read ? r.readLatency
                                                  : r.writeLatency;
    // The capture keeps what the observer sees, not the request
    // (nor the region's observer), and the parked completion: it
    // fits an event slot inline.
    auto fire = [this, cb = park(std::move(req.onComplete)),
                 addr = req.addr, size = req.size,
                 idx = static_cast<std::uint16_t>(region),
                 kind = req.kind] {
        const Tick now = curTick();
        if (const auto &obs = mmio_[idx].onAccess) {
            MemRequest seen;
            seen.kind = kind;
            seen.addr = addr;
            seen.size = size;
            obs(seen, now);
        }
        complete(cb, now);
    };
    static_assert(sizeof(fire) <= sim::Callback<void()>::inlineBytes,
                  "the MMIO completion capture must fit an event slot");
    eventQueue().schedule(std::move(fire), busFreeAt_ + lat,
                          "mem.mmio");
}

sim::Callback<void(Tick)> *
MemController::park(sim::Callback<void(Tick)> cb)
{
    if (!cb)
        return nullptr;
    sim::Callback<void(Tick)> *slot = completions_.acquire();
    *slot = std::move(cb);
    return slot;
}

void
MemController::complete(sim::Callback<void(Tick)> *cb, Tick at)
{
    if (!cb)
        return;
    // Back to the pool before it runs: it may issue another access.
    sim::Callback<void(Tick)> done = std::move(*cb);
    completions_.release(cb);
    done(at);
}

void
MemController::schedule()
{
    if (schedEvent_) {
        // A newly arrived request may be issuable before the parked
        // wakeup (e.g. the scheduler is waiting on a blocked bank);
        // pull the wakeup forward.
        if (schedEvent_->when() <= curTick() + timing_.tCK)
            return;
        eventQueue().deschedule(schedEvent_);
        schedEvent_ = nullptr;
    }
    schedEvent_ = eventQueue().scheduleIn(
        [this] {
            schedEvent_ = nullptr;
            runScheduler();
        },
        0, "mem.sched", sim::EventPriority::ClockTick);
}

void
MemController::runScheduler()
{
    Tick next = tryIssue();
    if (next == 0)
        return; // idle; a future access() re-arms
    MCNSIM_ASSERT(next > curTick(), "scheduler not progressing");
    schedEvent_ = eventQueue().schedule(
        [this] {
            schedEvent_ = nullptr;
            runScheduler();
        },
        next, "mem.sched", sim::EventPriority::ClockTick);
}

Tick
MemController::tryIssue()
{
    if (readQ_.empty() && writeQ_.empty())
        return 0;

    // Write drain hysteresis.
    if (writeQ_.size() >= writeHigh_)
        drainingWrites_ = true;
    if (writeQ_.empty() || writeQ_.size() <= writeLow_)
        drainingWrites_ = false;

    bool service_writes = drainingWrites_ || readQ_.empty();
    auto &queue = service_writes ? writeQ_ : readQ_;

    // FR-FCFS: oldest row hit wins, else the oldest request.
    Tick now = curTick();
    std::size_t pick = queue.size();
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const auto &c = queue[i].coord;
        const Bank &b = ranks_[c.rank].bank(c.bank);
        if (b.rowOpen() && b.openRow() == c.row) {
            pick = i;
            break;
        }
    }
    if (pick == queue.size())
        pick = 0;

    Pending &p = queue[pick];
    Tick issued = issueTo(p, service_writes);
    if (issued == 0) {
        // Not issuable yet; try again when the initiating command
        // (activate, or column for a row hit) becomes legal.
        const auto &c = p.coord;
        Rank &rank = ranks_[c.rank];
        Bank::AccessPlan plan =
            rank.bank(c.bank).plan(now, c.row, timing_);
        Tick attempt;
        if (plan.rowHit)
            attempt = std::max(plan.startAt, busFreeAt_);
        else
            attempt = std::max(plan.actAt,
                               rank.nextActivateAllowed(now));
        return std::max(attempt, now + 1);
    }

    queue.erase(queue.begin() +
                static_cast<std::ptrdiff_t>(pick));
    // More work? Come back when the bus frees.
    if (!readQ_.empty() || !writeQ_.empty())
        return std::max(busFreeAt_, now + 1);
    return 0;
}

Tick
MemController::issueTo(Pending &p, bool is_write)
{
    Tick now = curTick();
    const auto &c = p.coord;
    Rank &rank = ranks_[c.rank];
    Bank &bank = rank.bank(c.bank);

    Bank::AccessPlan plan = bank.plan(now, c.row, timing_);

    // Issue-now policy: the *initiating* command (the column for a
    // row hit, the activate otherwise) must be legal within one
    // clock of now; the column command of a non-hit then follows
    // tRCD later while the scheduler moves on.
    Tick col_at;
    Tick act_at = 0;
    if (plan.rowHit) {
        col_at = std::max(plan.startAt, std::max(now, busFreeAt_));
        if (col_at > now + timing_.tCK)
            return 0;
    } else {
        act_at = std::max(plan.actAt, rank.nextActivateAllowed(now));
        if (act_at > now + timing_.tCK)
            return 0;
        col_at = std::max({act_at + timing_.tRCD, plan.startAt,
                           busFreeAt_});
    }

    if (plan.rowHit)
        statRowHits_ += 1;
    else if (plan.rowMiss)
        statRowMisses_ += 1;
    else
        statRowClosed_ += 1;

    if (!plan.rowHit)
        rank.recordActivate(act_at);
    bank.commit(col_at, act_at, c.row, is_write, timing_);
    busFreeAt_ = col_at + timing_.tBURST;
    updateCoupling(col_at, busFreeAt_);
    tlSpan("busBurst", col_at, busFreeAt_);

    if (!is_write) {
        Tick done_at = col_at + timing_.tCL + timing_.tBURST;
        statReadLat_.sample(
            static_cast<double>(done_at - p.req.enqueued));
        if (p.req.onComplete)
            eventQueue().schedule(
                [this, cb = park(std::move(p.req.onComplete))] {
                    complete(cb, curTick());
                },
                done_at, "mem.readDone");
    }
    return col_at;
}

void
MemController::updateCoupling(Tick busy_from, Tick busy_until)
{
    // Exponential-ish sliding window of fine-grained bus occupancy.
    Tick now = curTick();
    if (now - windowStart_ > couplingWindow) {
        fineLoad_ =
            static_cast<double>(windowBusy_) /
            static_cast<double>(std::max<Tick>(1, now - windowStart_));
        windowStart_ = now;
        windowBusy_ = 0;
        bulk_->setBackgroundLoad(std::min(0.9, fineLoad_));
    }
    windowBusy_ += busy_until - busy_from;
}

void
MemController::refreshTick()
{
    for (auto &r : ranks_)
        r.refresh(curTick());
    // Keep refreshing only while the controller has work; an idle
    // controller re-arms on the next access() instead (banks are
    // conservatively blocked either way when work resumes).
    if (!readQ_.empty() || !writeQ_.empty() ||
        busFreeAt_ > curTick())
        eventQueue().schedule(&refreshEvent_,
                              curTick() + timing_.tREFI);
}

} // namespace mcnsim::mem
