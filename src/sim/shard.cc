#include "sim/shard.hh"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/timeline.hh"

namespace mcnsim::sim {

ShardSet::~ShardSet()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        shutdown_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ShardSet::addQueue(EventQueue *q)
{
    MCNSIM_ASSERT(!running_, "addQueue during run");
    q->setShardIndex(queues_.size());
    queues_.push_back(q);
}

void
ShardSet::addEdge(std::size_t a, std::size_t b, Tick latency)
{
    MCNSIM_ASSERT(a < queues_.size() && b < queues_.size(),
                  "addEdge shard index out of range");
    // A zero-latency edge would leave no room for any window to
    // make progress; clamp to one tick (the finest wire we model
    // is still orders of magnitude above a tick).
    if (latency < 1)
        latency = 1;
    lookahead_ = std::min(lookahead_, latency);
}

void
ShardSet::post(std::size_t src, std::size_t dst, Tick when,
               EventPriority prio, const char *name,
               Callback<void()> fn)
{
    MCNSIM_ASSERT(src < queues_.size() && dst < queues_.size(),
                  "post shard index out of range");
    if (!running_) {
        // Single-threaded setup path (system wiring, between
        // run-slices): a plain schedule is already deterministic.
        queues_[dst]->schedule(std::move(fn), when, name, prio);
        return;
    }
    // Only src's owner runs src, so its state is this thread's.
    const std::size_t writer = src % assignWorkers_;
    Worker &me = workers_[writer];
    // The lookahead contract is load-bearing in every build: the
    // destination shard may already be executing past `when` on
    // another thread, so a below-horizon post cannot be honored.
    if (when < me.windowEnd) {
        panic("cross-shard post below the lookahead horizon: event '",
              name, "' from shard ", src, " to shard ", dst,
              " lands at tick ", when, " but the current window ends "
              "at tick ", me.windowEnd, " (lookahead ", lookahead_,
              "); cross-shard events must travel over a registered "
              "edge whose latency >= the lookahead (see DESIGN.md "
              "§9)");
    }
    me.postMin = std::min(me.postMin, when);
    auto &box = inbox_[dst * assignWorkers_ + writer].msgs[me.parity];
    box.push_back(Msg{when, prio, static_cast<std::uint32_t>(src),
                      box.size(), name, std::move(fn)});
}

std::vector<ShardSet::WorkerTime>
ShardSet::workerTimes() const
{
    std::vector<WorkerTime> out;
    out.reserve(workers_.size());
    for (const auto &w : workers_)
        out.push_back(w.time);
    return out;
}

void
ShardSet::startThreads(unsigned workers)
{
    barrier_ = std::make_unique<SpinBarrier>(workers);
    startedWorkers_ = workers;
    threads_.reserve(workers - 1);
    for (unsigned i = 1; i < workers; ++i)
        threads_.emplace_back([this, i] { workerMain(i); });
}

void
ShardSet::workerMain(unsigned idx)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] { return shutdown_ || runGen_ != seen; });
            if (shutdown_)
                return;
            seen = runGen_;
        }
        windowLoop(idx);
    }
}

Tick
ShardSet::windowEndFor(Tick h) const
{
    // Exclusive end: min(h + lookahead, until + 1), saturating.
    Tick end;
    if (lookahead_ == maxTick || h > maxTick - lookahead_)
        end = maxTick;
    else
        end = h + lookahead_;
    if (until_ != maxTick && end > until_)
        end = until_ + 1;
    return end;
}

void
ShardSet::drainInbox(std::size_t dst, unsigned parity,
                     std::vector<Msg> &scratch)
{
    // Most windows bring a shard no mail, and most that do bring it
    // from one writer: sort that inbox in place. Only mail from
    // several writers is gathered into the scratch buffer.
    std::vector<Msg> *mail = nullptr;
    for (unsigned w = 0; w < assignWorkers_; ++w) {
        auto &box = inbox_[dst * assignWorkers_ + w].msgs[parity];
        if (box.empty())
            continue;
        if (!mail) {
            mail = &box;
            continue;
        }
        if (mail != &scratch) {
            scratch.assign(std::make_move_iterator(mail->begin()),
                           std::make_move_iterator(mail->end()));
            mail->clear();
            mail = &scratch;
        }
        scratch.insert(scratch.end(),
                       std::make_move_iterator(box.begin()),
                       std::make_move_iterator(box.end()));
        box.clear();
    }
    if (!mail)
        return;
    // The merge key. Everything in it is simulation state -- tick,
    // priority, topology index, position among the source's posts --
    // so the resulting schedule() order (and hence the destination
    // queue's sequence numbers) is identical for every thread count.
    std::sort(mail->begin(), mail->end(),
              [](const Msg &a, const Msg &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.prio != b.prio)
                      return static_cast<int>(a.prio) <
                             static_cast<int>(b.prio);
                  if (a.srcShard != b.srcShard)
                      return a.srcShard < b.srcShard;
                  return a.seq < b.seq;
              });
    EventQueue &q = *queues_[dst];
    for (auto &m : *mail)
        q.schedule(std::move(m.fn), m.when, m.name, m.prio);
    mail->clear();
}

namespace {

std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
ShardSet::windowLoop(unsigned w)
{
    SpinBarrier &bar = *barrier_;
    const unsigned parties = bar.count();
    const std::size_t stride = assignWorkers_;
    const std::size_t first = w < assignWorkers_ ? w : queues_.size();
    Worker &me = workers_[w];

    // Cross the barrier; when profiling, the time since the last
    // crossing counts as busy and the time inside it as wait.
    std::uint64_t mark = profiling_ ? hostNs() : 0;
    auto cross = [&] {
        if (!profiling_) {
            bar.arriveAndWait();
            return;
        }
        const std::uint64_t arrive = hostNs();
        me.time.busyNs += arrive - mark;
        bar.arriveAndWait();
        mark = hostNs();
        me.time.waitNs += mark - arrive;
    };

    unsigned k = 0; // parity of the window being decided
    for (;; k ^= 1) {
        // Publish this worker's horizon contribution: its shards'
        // earliest events, and the earliest mail it posted in the
        // window just run (not yet merged into any queue).
        Tick next = me.postMin;
        for (std::size_t s = first; s < queues_.size(); s += stride)
            next = std::min(next, queues_[s]->nextEventTick());
        slots_[k * parties + w] = Slot{next, me.failed};
        me.postMin = maxTick;

        cross();

        // Every worker reduces the same slots, so all agree on the
        // window end -- or on stopping -- without a second barrier.
        Tick h = maxTick;
        bool failed = false;
        for (unsigned i = 0; i < parties; ++i) {
            const Slot &o = slots_[k * parties + i];
            h = std::min(h, o.next);
            failed = failed || o.failed;
        }
        if (failed || h == maxTick || h > until_)
            break;
        me.windowEnd = windowEndFor(h);
        me.parity = k;
        if (w == 0)
            ++windows_;

        // Merge the previous window's mail, then run the window.
        try {
            for (std::size_t s = first; s < queues_.size();
                 s += stride) {
                drainInbox(s, k ^ 1, me.scratch);
                queues_[s]->runWindow(me.windowEnd);
            }
        } catch (...) {
            me.error = std::current_exception();
            me.failed = true;
        }
    }

    // The horizon passed `until`, so the last window's mail lands
    // after it: merge it now, leaving every inbox empty for the next
    // run() slice. (Parity k is empty too unless a failure cut the
    // last window's merge short.) The exit latch keeps the caller
    // from returning -- and a next run() from rewriting the slots --
    // until every worker is done with them.
    try {
        for (std::size_t s = first; s < queues_.size(); s += stride) {
            drainInbox(s, k, me.scratch);
            drainInbox(s, k ^ 1, me.scratch);
        }
    } catch (...) {
        if (!me.error)
            me.error = std::current_exception();
    }
    // The exit latch. The caller may read workerTimes() as soon as
    // it is released, so the time spent in it is not recorded.
    if (profiling_)
        me.time.busyNs += hostNs() - mark;
    bar.arriveAndWait();
}

Tick
ShardSet::run(Tick until, unsigned workers)
{
    MCNSIM_ASSERT(!queues_.empty(), "run on an empty ShardSet");
    if (queues_.size() == 1)
        return queues_[0]->run(until);

    if (workers == 0)
        workers = 1;
    workers = std::min<unsigned>(
        workers, static_cast<unsigned>(queues_.size()));
    // Single-threaded machinery clamps execution to one worker: the
    // trace ring and timeline record global order, and an armed
    // fault plan draws from shared per-site RNG streams whose draw
    // order must not depend on thread scheduling. The logical
    // schedule is worker-count-invariant, so results do not change.
    if (Trace::anyActive() || Timeline::active() ||
        FaultPlan::active())
        workers = 1;

    if (workers > 1 && startedWorkers_ == 0)
        startThreads(workers);
    if (!barrier_)
        barrier_ = std::make_unique<SpinBarrier>(1);
    assignWorkers_ =
        startedWorkers_ ? std::min(workers, startedWorkers_) : 1;

    // Size the per-run tables. Inboxes are empty between runs, so a
    // changed worker count may re-lay them out freely.
    const unsigned parties = barrier_->count();
    inbox_.resize(queues_.size() * assignWorkers_);
    slots_.resize(2 * std::size_t{parties});
    workers_.resize(parties);
    for (auto &wk : workers_) {
        wk.parity = 0;
        wk.windowEnd = 0;
        wk.postMin = maxTick;
        wk.failed = false;
        wk.error = nullptr;
    }
    until_ = until;
    running_ = true;

    if (startedWorkers_ > 1) {
        {
            std::lock_guard<std::mutex> lk(m_);
            ++runGen_;
        }
        cv_.notify_all();
    }
    windowLoop(0); // the caller is worker 0
    running_ = false;

    for (const auto &wk : workers_)
        if (wk.error)
            std::rethrow_exception(wk.error);

    // Mirror EventQueue::run: fast-forward every shard's clock to
    // the requested bound so curTick() agrees across shards between
    // run slices.
    if (until != maxTick) {
        for (auto *q : queues_) {
            if (q->curTick() < until)
                q->setCurTick(until);
        }
    }
    return queues_[0]->curTick();
}

} // namespace mcnsim::sim
