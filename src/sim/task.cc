/**
 * @file
 * Task machinery implementation: the frame pool, detached launch,
 * condition wakeups and task groups.
 */

#include "sim/task.hh"

#include <new>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#define MCNSIM_FRAME_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define MCNSIM_FRAME_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define MCNSIM_FRAME_POISON(p, n) ((void)(p), (void)(n))
#define MCNSIM_FRAME_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace mcnsim::sim {

namespace {

/** A parked frame: its first bytes link it into its class's list. */
struct FreeFrame
{
    FreeFrame *next;
};

/** One thread's free lists. */
struct FrameCache
{
    FreeFrame *head[FramePool::classes] = {};
    std::size_t count[FramePool::classes] = {};
    /// Set once the thread's cache is torn down: frames freed after
    /// that (a queue reaped during static destruction) go to the heap.
    bool dead = false;

    ~FrameCache()
    {
        for (std::size_t c = 0; c < FramePool::classes; ++c) {
            while (FreeFrame *f = head[c]) {
                MCNSIM_FRAME_UNPOISON(f, (c + 1) * FramePool::classBytes);
                head[c] = f->next;
                ::operator delete(f);
            }
        }
        dead = true;
    }
};

// analyze-ok: shard-static (thread_local frame cache: each worker
// recycles frames through its own lists, and which block a frame
// gets never feeds a modeled decision)
thread_local FrameCache frameCache;

} // namespace

void *
FramePool::allocate(std::size_t n)
{
    const std::size_t c = (n - 1) / classBytes;
    FrameCache &fc = frameCache;
    if (c >= classes || fc.dead)
        return ::operator new(n);
    if (FreeFrame *f = fc.head[c]) {
        MCNSIM_FRAME_UNPOISON(f, (c + 1) * classBytes);
        fc.head[c] = f->next;
        --fc.count[c];
        return f;
    }
    return ::operator new((c + 1) * classBytes);
}

void
FramePool::release(void *p, std::size_t n) noexcept
{
    const std::size_t c = (n - 1) / classBytes;
    FrameCache &fc = frameCache;
    if (c >= classes || fc.dead || fc.count[c] >= cacheCap) {
        ::operator delete(p);
        return;
    }
    auto *f = static_cast<FreeFrame *>(p);
    f->next = fc.head[c];
    fc.head[c] = f;
    ++fc.count[c];
    MCNSIM_FRAME_POISON(f, (c + 1) * classBytes);
}

void
spawnDetached(EventQueue &q, Task<void> task)
{
    auto h = task.release();
    if (!h)
        return;
    h.promise().detached = true;
    h.promise().reaper = &q;
    q.registerDetachedFrame(h, h.promise().reaperSlot);
    q.scheduleIn([h] { h.resume(); }, 0, "task-spawn",
                 EventPriority::Process);
}

void
Condition::wake(std::coroutine_handle<> h)
{
    q_.scheduleIn([h] { h.resume(); }, 0, "cv-notify",
                  EventPriority::Process);
}

void
Condition::notifyAll()
{
    // Waiters resume from the queue, never inline, so none can
    // wait() again before the list is cleared: a re-wait lands in
    // the next round.
    if (!first_)
        return;
    wake(std::exchange(first_, nullptr));
    for (auto h : spill_)
        wake(h);
    spill_.clear(); // keeps the capacity
}

void
Condition::notifyOne()
{
    if (!first_)
        return;
    wake(std::exchange(first_, nullptr));
    if (!spill_.empty()) {
        first_ = spill_.front();
        spill_.erase(spill_.begin());
    }
}

void
TaskGroup::spawn(Task<void> t)
{
    live_++;
    spawned_++;
    spawnDetached(q_, wrap(std::move(t)));
}

Task<void>
TaskGroup::wrap(Task<void> t)
{
    co_await std::move(t);
    if (--live_ == 0)
        done_.notifyAll();
}

} // namespace mcnsim::sim
