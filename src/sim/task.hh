/**
 * @file
 * Coroutine-based simulated software tasks.
 *
 * Kernel-level machinery in mcnsim (drivers, IRQs, TCP processing) is
 * event/callback driven, but user-level software -- iperf clients,
 * ping, MPI ranks, workload phases -- reads far more naturally as
 * straight-line code. Task<T> is a lazily-started coroutine resumed
 * from the event queue:
 *
 *   sim::Task<> client(Env &env) {
 *       co_await env.delay(10 * sim::oneUs);
 *       co_await sock->connect(server);
 *       while (...) co_await sock->send(chunk);
 *   }
 *
 * Tasks compose by co_await-ing sub-tasks; top-level tasks are
 * launched with spawnDetached() or via a TaskGroup that tracks
 * completion. Condition and Mailbox provide blocking
 * primitives whose wakeups are funnelled through the event queue so
 * notify never recursively re-enters the notifier.
 *
 * Coroutine frames come from FramePool, so a warm coroutine call
 * allocates nothing.
 */

#ifndef MCNSIM_SIM_TASK_HH
#define MCNSIM_SIM_TASK_HH

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/ring_deque.hh"
#include "sim/types.hh"

namespace mcnsim::sim {

template <typename T = void>
class Task;

/**
 * Recycles coroutine frames: per-thread free lists, one per 64 B
 * size class up to 1 KiB; a larger frame is a plain heap block.
 * Frames freed on a thread join that thread's lists (a sharded
 * worker can end a frame another began), and each list is capped,
 * so a thread that frees more than it allocates cannot hoard
 * memory: past the cap a frame goes back to the heap. Like
 * BufferPool, the pool manages host memory only; which block a
 * frame lands in never reaches modeled output.
 *
 * Under AddressSanitizer a parked frame is poisoned, so resuming or
 * destroying a dead coroutine still faults.
 */
class FramePool
{
  public:
    /** Size-class granularity and the number of classes. */
    static constexpr std::size_t classBytes = 64;
    static constexpr std::size_t classes = 16;
    /**
     * Per-thread free-list length cap of each class, in frames;
     * overflow frees to the heap. The largest warm working set a
     * benchmark workload needs is npb_bandwidth's 1 182 live 192 B
     * frames, so a warm repetition carves none.
     */
    static constexpr std::size_t cacheCap = 4096;

    static void *allocate(std::size_t n);
    static void release(void *p, std::size_t n) noexcept;
};

namespace detail {

/** Promise parts shared between Task<T> and Task<void>. */
struct PromiseBase
{
    static void *
    operator new(std::size_t n)
    {
        return FramePool::allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        FramePool::release(p, n);
    }

    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    bool detached = false;
    /** Set by spawnDetached: the queue tracking this root frame so
     *  a frame still suspended at teardown can be reaped instead of
     *  leaked. */
    EventQueue *reaper = nullptr;
    /** This frame's slot in the reaper's registry (kept current by
     *  the queue), so completion leaves it in O(1). */
    std::size_t reaperSlot = 0;

    std::suspend_always initial_suspend() noexcept { return {}; }

    void unhandled_exception() { exception = std::current_exception(); }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            auto &p = h.promise();
            std::coroutine_handle<> next =
                p.continuation ? p.continuation
                               : std::coroutine_handle<>(
                                     std::noop_coroutine());
            if (p.detached) {
                // Nobody owns the frame; free it now. Detached tasks
                // must not throw -- surface bugs loudly instead of
                // losing them.
                if (p.exception) {
                    try {
                        std::rethrow_exception(p.exception);
                    } catch (const std::exception &e) {
                        std::fprintf(stderr,
                                     "detached task threw: %s\n",
                                     e.what());
                        std::abort();
                    }
                }
                if (p.reaper)
                    p.reaper->forgetDetachedFrame(p.reaperSlot);
                h.destroy();
            }
            return next;
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }
};

} // namespace detail

/**
 * A lazily started coroutine yielding a value of type T. The Task
 * object owns the coroutine frame unless detached via
 * spawnDetached().
 */
template <typename T>
class Task
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        Task
        get_return_object()
        {
            return Task(std::coroutine_handle<promise_type>::
                            from_promise(*this));
        }

        void return_value(T v) { value.emplace(std::move(v)); }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

    Task(Task &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            h_ = std::exchange(o.h_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return h_ != nullptr; }
    bool done() const { return !h_ || h_.done(); }

    /** Awaiter: start the child, resume parent when it finishes. */
    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> h;

            bool await_ready() const { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent)
            {
                h.promise().continuation = parent;
                return h;
            }

            T
            await_resume()
            {
                auto &p = h.promise();
                if (p.exception)
                    std::rethrow_exception(p.exception);
                return std::move(*p.value);
            }
        };
        return Awaiter{h_};
    }

    /** Release ownership (used by spawnDetached). */
    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(h_, nullptr);
    }

  private:
    void
    destroy()
    {
        if (h_)
            h_.destroy();
        h_ = nullptr;
    }

    std::coroutine_handle<promise_type> h_ = nullptr;
};

/** Task<void> specialisation. */
template <>
class Task<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        Task
        get_return_object()
        {
            return Task(std::coroutine_handle<promise_type>::
                            from_promise(*this));
        }

        void return_void() {}
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

    Task(Task &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    Task &
    operator=(Task &&o) noexcept
    {
        if (this != &o) {
            destroy();
            h_ = std::exchange(o.h_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return h_ != nullptr; }
    bool done() const { return !h_ || h_.done(); }

    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> h;

            bool await_ready() const { return !h || h.done(); }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent)
            {
                h.promise().continuation = parent;
                return h;
            }

            void
            await_resume()
            {
                if (h.promise().exception)
                    std::rethrow_exception(h.promise().exception);
            }
        };
        return Awaiter{h_};
    }

    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(h_, nullptr);
    }

  private:
    void
    destroy()
    {
        if (h_)
            h_.destroy();
        h_ = nullptr;
    }

    std::coroutine_handle<promise_type> h_ = nullptr;
};

/**
 * Launch a task with no owner; the frame frees itself on completion.
 * The task starts running at the current tick via the event queue
 * (never inline), so spawning from inside an event handler is safe.
 */
void spawnDetached(EventQueue &q, Task<void> task);

/** Awaitable pause: resume after @p delta ticks. */
struct Delay
{
    EventQueue &q;
    Tick delta;

    bool await_ready() const { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        q.scheduleIn([h] { h.resume(); }, delta, "task-delay",
                     EventPriority::Process);
    }

    void await_resume() {}
};

/** Convenience factory. */
inline Delay
delayFor(EventQueue &q, Tick delta)
{
    return Delay{q, delta};
}

/**
 * A broadcast condition variable for coroutines. Waiters suspend;
 * notifyAll() schedules every waiter for resumption at the current
 * tick. Predicate re-checking is the caller's job, as with any CV.
 *
 * The first waiter is kept inline and later ones spill to a vector
 * that keeps its capacity, so constructing a Condition, notifying
 * one with no waiters, and a round with a single waiter allocate
 * nothing (every socket owns five, and each delivered segment and
 * ACK notifies some).
 */
class Condition
{
  public:
    explicit Condition(EventQueue &q) : q_(q) {}

    /** Awaitable that suspends until the next notifyAll(). */
    auto
    wait()
    {
        struct Awaiter
        {
            Condition &cv;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                if (cv.first_)
                    cv.spill_.push_back(h);
                else
                    cv.first_ = h;
            }

            void await_resume() {}
        };
        return Awaiter{*this};
    }

    /** Wake all current waiters (via the event queue, not inline). */
    void notifyAll();

    /** Wake one waiter in FIFO order. */
    void notifyOne();

    std::size_t
    waiterCount() const
    {
        return (first_ ? 1 : 0) + spill_.size();
    }

  private:
    void wake(std::coroutine_handle<> h);

    EventQueue &q_;
    /// Waiters in FIFO order: first_, then spill_. first_ is null
    /// only when there are none.
    std::coroutine_handle<> first_;
    std::vector<std::coroutine_handle<>> spill_;
};

/**
 * A typed blocking queue: the standard way simulated processes hand
 * messages to each other (used by mini-MPI matching).
 */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(EventQueue &q) : cv_(q) {}

    void
    push(T v)
    {
        items_.push_back(std::move(v));
        cv_.notifyAll();
    }

    /** Pop the front item, suspending while empty. */
    Task<T>
    pop()
    {
        while (items_.empty())
            co_await cv_.wait();
        T v = std::move(items_.front());
        items_.pop_front();
        co_return v;
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

  private:
    Condition cv_;
    RingDeque<T> items_;
};

/**
 * Tracks a set of spawned tasks so a harness can wait for (or poll)
 * collective completion.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(EventQueue &q) : q_(q), done_(q) {}

    /** Launch @p t as part of the group. */
    void spawn(Task<void> t);

    /** Number of tasks still running. */
    int liveCount() const { return live_; }

    /** True once every spawned task finished. */
    bool allDone() const { return live_ == 0 && spawned_ > 0; }

    /** Awaitable completion of the whole group. */
    Task<void>
    wait()
    {
        while (live_ > 0)
            co_await done_.wait();
    }

  private:
    Task<void> wrap(Task<void> t);

    EventQueue &q_;
    Condition done_;
    int live_ = 0;
    int spawned_ = 0;
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_TASK_HH
