/**
 * @file
 * EventQueue implementation: a radix heap on the tick (a small
 * `now` min-heap plus chunked buckets) behind a front slot for the
 * earliest entry, lazy deletion + threshold compaction, and a slab
 * pool for managed callback events.
 */

#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "sim/logging.hh"

namespace mcnsim::sim {

// analyze-ok: shard-static (thread_local dispatch context; see the
// matching annotation on the declaration in event_queue.hh)
thread_local EventQueue *EventQueue::currentQueue_ = nullptr;

const char *
internEventName(const std::string &name)
{
    // Process-lifetime intern pool: node-based, so c_str() pointers
    // stay stable across rehashes. Interning can happen from any
    // shard worker (a dynamic event name in a window), so the pool
    // is mutex-guarded; the fast path (string-literal names) never
    // comes here.
    // analyze-ok: shard-static (mutex-guarded intern pool: insertion
    // order varies across runs/threads but only the interned bytes are
    // ever read back, and equal strings intern to equal bytes)
    static std::mutex mtx;
    static std::unordered_set<std::string> pool;
    std::lock_guard<std::mutex> lk(mtx);
    return pool.insert(name).first->c_str();
}

Event::~Event()
{
    // A caller-owned event may die while the queue still holds
    // pending entries for it -- scheduled (a periodic device event whose
    // owner is torn down before the Simulation) or lazily
    // descheduled. Scrub those entries so the queue never
    // dereferences a destroyed event; this makes destruction an
    // implicit deschedule. Found by ASan/UBSan: the old code left
    // dangling Event*s for ~EventQueue to read.
    if (queue_ && (scheduled_ || staleRefs_ > 0))
        queue_->forgetDead(this);
}

EventQueue::EventQueue(std::string name) : name_(std::move(name))
{
    now_.reserve(nowReserve);
}

EventQueue::~EventQueue()
{
    // Reap suspended detached coroutine frames first: their locals'
    // destructors may deschedule events, which needs the pending set
    // still intact.
    destroyDetachedFrames();

    // Drain without executing: recycle managed events, detach the
    // rest. Every non-null entry points at a live event (~Event
    // scrubs entries for destroyed ones). The slabs (and every
    // pooled event) are freed when the members are destroyed
    // afterwards. Recycling destroys callback captures, which can
    // re-enter deschedule() (a lambda dropping the last shared_ptr
    // to a socket whose destructor cancels its timers); draining_
    // makes those re-entrant calls mark-only.
    draining_ = true;
    const auto drain = [this](const Entry e) {
        Event *ev = e.ev;
        if (!ev)
            return;
        if (ev->scheduled_ && ev->seq_ == e.seq())
            ev->scheduled_ = false;
        else
            ev->staleRefs_--;
        if (ev->managed_) {
            if (ev->seq_ == e.seq())
                recycle(static_cast<CallbackEvent *>(ev));
        } else if (ev->staleRefs_ == 0) {
            // The event outlives the queue; make sure its destructor
            // will not call back into us.
            ev->queue_ = nullptr;
        }
    };
    if (hasFront_) {
        hasFront_ = false;
        drain(front_);
    }
    // In place: a drain re-entering forgetDead() only nulls entries.
    forEachPending(drain);
}

void
EventQueue::forgetDead(Event *ev)
{
    // Scrub in place, the front slot included: an Event destructor
    // must not allocate. popAndRun() and compact() skip the nulled
    // entries.
    const auto scrub = [this, ev](Entry &e) {
        if (e.ev != ev)
            return;
        // The (single) live entry turns stale by being nulled; stale
        // entries were already counted.
        if (ev->scheduled_ && e.seq() == ev->seq_)
            staleEntries_++;
        e.ev = nullptr;
    };
    if (hasFront_)
        scrub(front_);
    forEachPending(scrub);
    ev->scheduled_ = false;
    ev->staleRefs_ = 0;
    ev->queue_ = nullptr;
}

void
EventQueue::registerDetachedFrame(std::coroutine_handle<> h,
                                  std::size_t &slot)
{
    slot = detachedFrames_.size();
    detachedFrames_.push_back(DetachedFrame{h, &slot});
}

void
EventQueue::forgetDetachedFrame(std::size_t slot)
{
    MCNSIM_ASSERT(slot < detachedFrames_.size(),
                  "forgetting an unregistered detached frame");
    detachedFrames_[slot] = detachedFrames_.back();
    *detachedFrames_[slot].slot = slot;
    detachedFrames_.pop_back();
}

void
EventQueue::destroyDetachedFrames()
{
    // Destroying a root frame runs its locals' destructors, which
    // may deschedule events or release sockets but never resumes or
    // spawns coroutines, so a plain sweep over a moved-out copy is
    // safe (roots never own other roots).
    std::vector<DetachedFrame> frames;
    frames.swap(detachedFrames_);
    for (const DetachedFrame &f : frames)
        f.h.destroy();
}

CallbackEvent *
EventQueue::acquireSlot()
{
    if (freeList_.empty()) {
        // Carve a fresh slab. new[] keeps existing events in place,
        // so live Event* handles never move.
        slabs_.emplace_back(new CallbackEvent[slabEvents]);
        CallbackEvent *slab = slabs_.back().get();
        freeList_.reserve(freeList_.size() + slabEvents);
        for (std::size_t i = 0; i < slabEvents; ++i)
            freeList_.push_back(&slab[i]);
        poolCarved_ += slabEvents;
    }
    CallbackEvent *ev = freeList_.back();
    freeList_.pop_back();
    MCNSIM_IF_CHECKED(ev->poisoned_ = false;)
    return ev;
}

void
EventQueue::recycle(CallbackEvent *ev)
{
    assert(ev->managed_ && "recycling a non-pooled event");
    assert(!ev->scheduled_ && "recycling a scheduled event");
    // Drop the callback now: captures (PacketPtrs, shared sockets,
    // coroutine handles) must not live until the slot is reused.
    ev->fn_.reset();
#ifdef MCNSIM_CHECKED
    // Poison the slot: remember the name it died under, bump the
    // generation, and plant a callback that panics if anything ever
    // dispatches this slot while it sits on the free list. Any
    // schedule()/deschedule()/reschedule() of the dead pointer
    // panics too (see the poisoned_ checks in those functions).
    ev->lastName_ = ev->name_;
    ev->gen_++;
    ev->poisoned_ = true;
    const char *dead = ev->lastName_;
    ev->fn_.emplace([dead] {
        panic("use-after-fire: dispatched a recycled pooled event "
              "(last live name '", dead, "')");
    });
#endif
    ev->name_ = "pool-free";
    ev->managed_ = false;
    freeList_.push_back(ev);
}

inline void
EventQueue::push(const Entry &e)
{
    if (e.when <= last_) {
        now_.push_back(e);
        std::push_heap(now_.begin(), now_.end(), EntryAfter{});
        return;
    }
    const auto b =
        static_cast<std::size_t>(std::bit_width(e.when ^ last_)) - 1;
    Bucket &bk = buckets_[b];
    Chunk *c = bk.head;
    if (!c || c->n == Chunk::capacity) [[unlikely]] {
        c = takeChunk();
        c->next = bk.head;
        bk.head = c;
        occupied_ |= std::uint64_t{1} << b;
    }
    c->e[c->n++] = e;
    if (e.when < bk.min)
        bk.min = e.when;
    bucketed_++;
}

EventQueue::Chunk *
EventQueue::takeChunk()
{
    if (!freeChunks_) {
        // Carve a slab; chunks return to the free list, never to the
        // heap, so a warm queue allocates nothing here.
        chunkSlabs_.emplace_back(new Chunk[slabChunks]);
        Chunk *slab = chunkSlabs_.back().get();
        for (std::size_t i = 0; i < slabChunks; ++i) {
            slab[i].next = freeChunks_;
            freeChunks_ = &slab[i];
        }
    }
    Chunk *c = freeChunks_;
    freeChunks_ = c->next;
    c->n = 0;
    return c;
}

void
EventQueue::refill()
{
    // Every entry of the lowest non-empty bucket b shares last_'s
    // bits above b and has bit b set, so around the bucket's minimum
    // tick each one differs at a lower bit (or not at all: `now`),
    // and no higher bucket's entries move. A chunk is read in full
    // before it is handed back for the redistribution to reuse.
    assert(now_.empty() && occupied_);
    const auto b = static_cast<std::size_t>(std::countr_zero(occupied_));
    Bucket &bk = buckets_[b];
    Chunk *c = bk.head;
    last_ = bk.min;
    bk.head = nullptr;
    bk.min = maxTick;
    occupied_ &= ~(std::uint64_t{1} << b);
    while (c) {
        bucketed_ -= c->n;
        for (std::uint32_t i = 0; i < c->n; ++i)
            push(c->e[i]);
        Chunk *next = c->next;
        c->next = freeChunks_;
        freeChunks_ = c;
        c = next;
    }
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    MCNSIM_CHECK(!MCNSIM_IF_CHECKED(ev->poisoned_),
                 "schedule() of a dead pooled Event* (last live "
                 "name '", ev->lastLiveName(), "', generation ",
                 ev->generation(), "): managed events die at "
                 "fire/deschedule");
    assert(!draining_ && "schedule() during ~EventQueue");
    if (when < curTick_) [[unlikely]]
        throw std::logic_error("scheduling event '" +
                               std::string(ev->name()) +
                               "' in the past");
    if (ev->scheduled_) [[unlikely]]
        throw std::logic_error("event '" + std::string(ev->name()) +
                               "' already scheduled");
    // Cross-shard lifetime rule (DESIGN.md §9): while some queue is
    // dispatching on this thread, scheduling onto a different queue
    // races with whatever thread owns that queue's shard. Legitimate
    // cross-shard traffic goes through the ShardSet mailbox
    // (Simulation::postCrossShard), which lands here only between
    // windows, when current() is null.
    MCNSIM_CHECK(currentQueue_ == nullptr || currentQueue_ == this,
                 "cross-shard schedule: event '", ev->name(),
                 "' scheduled on queue '", name_, "' while queue '",
                 currentQueue_ ? currentQueue_->name_ : "?",
                 "' is dispatching; route it through "
                 "Simulation::postCrossShard (the mailbox API)");
    if (ev->queue_ != this && ev->queue_ && ev->staleRefs_ > 0)
        [[unlikely]] {
        // Moving to a new queue with stale entries left on the old
        // one: scrub them so the old queue never touches us again.
        ev->queue_->forgetDead(ev);
    }
    ev->queue_ = this;
    ev->when_ = when;
    assert(nextSeq_ <= seqMask && "sequence numbers exhausted");
    ev->seq_ = nextSeq_++;
    ev->scheduled_ = true;
    const Entry n{when, entryKey(ev), ev};
    // The new entry takes the front slot when it pops before every
    // pending entry; a displaced slot entry goes into the radix heap.
    // With the slot and `now` empty the buckets are not refilled for
    // this test: their lowest one's minimum tick bounds them, and an
    // entry on that tick simply goes into the buckets.
    if (hasFront_) {
        if (EntryAfter{}(n, front_)) {
            push(n);
            return;
        }
        push(front_);
    } else if (!now_.empty()) {
        if (EntryAfter{}(n, now_.front())) {
            push(n);
            return;
        }
    } else if (occupied_ &&
               n.when >= buckets_[std::countr_zero(occupied_)].min) {
        push(n);
        return;
    }
    // Field by field: copying a stack-built Entry in stalls the
    // next pop's loads on store forwarding.
    front_.when = n.when;
    front_.key = n.key;
    front_.ev = n.ev;
    hasFront_ = true;
}

void
EventQueue::deschedule(Event *ev)
{
    MCNSIM_CHECK(draining_ || !MCNSIM_IF_CHECKED(ev->poisoned_),
                 "deschedule() of a dead pooled Event* (last live "
                 "name '", ev->lastLiveName(), "', generation ",
                 ev->generation(), "): managed events die at "
                 "fire/deschedule");
    MCNSIM_CHECK(draining_ || !(ev->managed_ && !ev->scheduled_),
                 "deschedule() of a managed Event* ('", ev->name(),
                 "') that already fired or was descheduled: the "
                 "pointer died at that moment");
    // Lazy removal: mark unscheduled; the stale entry is
    // skipped (and a managed event recycled) when popped, or
    // reclaimed wholesale by compact() once stale entries dominate.
    if (!ev->scheduled_)
        return;
    ev->scheduled_ = false;
    ev->staleRefs_++;
    staleEntries_++;
    // No compaction while ~EventQueue walks the set (re-entrant
    // call from a capture's destructor): the walk settles accounts.
    if (!draining_ && staleEntries_ > staleCompactMin &&
        staleEntries_ * 2 > internalEntries())
        compact();
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    // deschedule() clears scheduled_, turning the live entry
    // stale; schedule() then hands out a fresh (monotonic) sequence
    // number, which is what lets the stale entry be recognized on
    // pop or compaction. Sequence monotonicity is the invariant the
    // whole lazy-deletion scheme rests on.
    deschedule(ev);
    assert(!ev->scheduled_ && "deschedule left event scheduled");
    schedule(ev, when);
    assert(ev->seq_ + 1 == nextSeq_ &&
           "reschedule did not assign the newest sequence number");
}

void
EventQueue::compact()
{
    // Drop every stale entry in one pass. An entry is live iff its
    // event is scheduled and the sequence numbers agree; a
    // seq-mismatched entry is a leftover from reschedule() (a newer
    // live entry exists elsewhere in the set). A seq-matched entry
    // for a descheduled managed event is that event's only remaining
    // reference -- recycle it here, exactly as popAndRun() would.
    // Everything is settled in place, so compaction (which a
    // destructor's deschedule() can trigger) never allocates: a live
    // slot entry stays, as it still comes before every other entry,
    // `now` is re-heapified, and each bucket is packed into the head
    // of its own chunk list (the minimum recomputed, emptied chunks
    // freed). Entries never change bucket, as last_ stays.
    const auto live = [this](const Entry e) {
        if (!e.ev)
            return false; // scrubbed by ~Event
        if (e.ev->scheduled_ && e.ev->seq_ == e.seq())
            return true;
        e.ev->staleRefs_--;
        if (!e.ev->scheduled_ && e.ev->managed_ &&
            e.ev->seq_ == e.seq()) {
            recycle(static_cast<CallbackEvent *>(e.ev));
        }
        return false;
    };
    if (hasFront_ && !live(front_))
        hasFront_ = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < now_.size(); ++i) {
        if (live(now_[i]))
            now_[kept++] = now_[i];
    }
    now_.resize(kept);
    std::make_heap(now_.begin(), now_.end(), EntryAfter{});
    bucketed_ = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        Bucket &bk = buckets_[b];
        if (!bk.head)
            continue;
        bk.min = maxTick;
        Chunk *w = bk.head;
        std::uint32_t wn = 0;
        for (Chunk *r = bk.head; r; r = r->next) {
            for (std::uint32_t i = 0; i < r->n; ++i) {
                if (!live(r->e[i]))
                    continue;
                if (wn == Chunk::capacity) {
                    w->n = wn;
                    w = w->next;
                    wn = 0;
                }
                w->e[wn++] = r->e[i];
                bk.min = std::min(bk.min, r->e[i].when);
                bucketed_++;
            }
        }
        // Free the chunks past the write position; the whole list when
        // nothing stayed (w is then still the head).
        Chunk *spare;
        if (wn == 0) {
            spare = bk.head;
            bk.head = nullptr;
            occupied_ &= ~(std::uint64_t{1} << b);
        } else {
            w->n = wn;
            spare = w->next;
            w->next = nullptr;
        }
        while (spare) {
            Chunk *next = spare->next;
            spare->next = freeChunks_;
            freeChunks_ = spare;
            spare = next;
        }
    }
    staleEntries_ = 0;
}

void
EventQueue::popAndRun()
{
    // Callers reach here through earliest(), which left the next
    // entry in the slot or on top of `now`.
    Entry e;
    if (hasFront_) {
        e = front_;
        hasFront_ = false;
    } else {
        e = now_.front();
        std::pop_heap(now_.begin(), now_.end(), EntryAfter{});
        now_.pop_back();
    }

    Event *ev = e.ev;
    // Entry scrubbed by ~Event: the event is gone; only the count
    // needs fixing.
    if (!ev) [[unlikely]] {
        staleEntries_--;
        return;
    }
    // Stale entry: the event was descheduled or rescheduled since
    // this entry was created.
    if (!ev->scheduled_ || ev->seq_ != e.seq()) {
        staleEntries_--;
        ev->staleRefs_--;
        // A descheduled managed event with no live entry must be
        // recycled here, exactly once: when its latest (seq-matching)
        // stale entry surfaces.
        if (!ev->scheduled_ && ev->managed_ && ev->seq_ == e.seq())
            recycle(static_cast<CallbackEvent *>(ev));
        return;
    }

    assert(e.when >= curTick_);
    curTick_ = e.when;
    ev->scheduled_ = false;
    processed_++;
    // Flight-recorder hook: under the "Event" debug flag every
    // processed event lands in the trace ring, so a panic() dump
    // shows exactly what the simulator was doing. anyActive() keeps
    // the disabled-case cost to one branch on this hot path.
    if (Trace::anyActive() && Trace::enabled("Event")) [[unlikely]]
        Trace::emit(curTick_, "Event",
                    strcat(name_, ": run '", ev->name(), "' prio=",
                           static_cast<int>(ev->priority())));
    if (profiling_) [[unlikely]] {
        dispatchProfiled(ev);
        return;
    }
    if (ev->managed_) {
        // Devirtualized dispatch: a managed event is always a pooled
        // CallbackEvent, so skip the vtable hop.
        auto *cb = static_cast<CallbackEvent *>(ev);
        cb->fn_();
        if (!cb->scheduled_)
            recycle(cb);
    } else {
        ev->process();
    }
}

void
EventQueue::dispatchProfiled(Event *ev)
{
    // Capture the name pointer before dispatch: a managed event's
    // slot is recycled (and its name reset) the moment it completes.
    // Literal and interned names are process-lifetime, so the saved
    // pointer keys the aggregation map safely afterwards.
    const char *name = ev->name_;
    const auto t0 = std::chrono::steady_clock::now();
    if (ev->managed_) {
        auto *cb = static_cast<CallbackEvent *>(ev);
        cb->fn_();
        if (!cb->scheduled_)
            recycle(cb);
    } else {
        ev->process();
    }
    const auto dt = std::chrono::steady_clock::now() - t0;
    auto &row = profile_[name];
    row.first++;
    row.second += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
            .count());
}

std::vector<EventQueue::ProfileEntry>
EventQueue::profileEntries() const
{
    std::vector<ProfileEntry> out;
    out.reserve(profile_.size());
    // analyze-ok: ptr-unordered-iter (sorted by (hostNs, name)
    // below before anything is emitted; host-time observability
    // only, never feeds modeled state)
    for (const auto &[name, row] : profile_)
        out.push_back(ProfileEntry{name, row.first, row.second});
    std::sort(out.begin(), out.end(),
              [](const ProfileEntry &a, const ProfileEntry &b) {
                  if (a.hostNs != b.hostNs)
                      return a.hostNs > b.hostNs;
                  return std::string_view(a.name) <
                         std::string_view(b.name);
              });
    return out;
}

Tick
EventQueue::run(Tick until)
{
    CurrentScope scope(this);
    for (const Entry *e; (e = earliest()) && e->when <= until;)
        popAndRun();
    if (curTick_ < until && until != maxTick)
        curTick_ = until;
    return curTick_;
}

std::uint64_t
EventQueue::runEvents(std::uint64_t n)
{
    CurrentScope scope(this);
    std::uint64_t before = processed_;
    while (earliest() && processed_ - before < n)
        popAndRun();
    return processed_ - before;
}

Tick
EventQueue::nextEventTick()
{
    // Drop stale heads (descheduled/rescheduled leftovers) so the
    // reported tick belongs to a live event. popAndRun() on a stale
    // head does exactly the bookkeeping run() would do, so this
    // pruning never perturbs the schedule.
    while (const Entry *e = earliest()) {
        if (e->ev && e->ev->scheduled_ && e->ev->seq_ == e->seq())
            return e->when;
        popAndRun();
    }
    return maxTick;
}

void
EventQueue::runWindow(Tick endExclusive)
{
    CurrentScope scope(this);
    for (const Entry *e; (e = earliest()) && e->when < endExclusive;)
        popAndRun();
}

void
EventQueue::setCurTick(Tick t)
{
    MCNSIM_ASSERT(t >= curTick_,
                  "setCurTick would move time backwards");
    assert((!earliest() || nextEventTick() >= t) &&
           "setCurTick would jump over a pending event");
    curTick_ = t;
}

} // namespace mcnsim::sim
