/**
 * @file
 * Callback: the one move-only callable behind every one-shot
 * continuation -- a pooled event's body, a core slot's completion, a
 * tasklet, a timer, a memory or DMA completion.
 *
 * A capture of up to inlineBytes lives inside the Callback itself;
 * a larger (or over-aligned) one goes to the heap. Unlike
 * std::function (whose libstdc++ small buffer holds only trivially
 * copyable captures of up to 16 B), a capture holding a shared_ptr
 * or a coroutine handle stays inline, so a completion that captures
 * `[this, pkt]` never allocates.
 *
 * The rule that keeps completions inline: a callee never captures
 * its caller's continuation in a lambda. A Callback is 64 B, so one
 * captured inside another never fits; the callee parks the
 * continuation where it already keeps state (a member on a
 * single-flight path, a pooled record on a concurrent one) and
 * passes `[this, slot]` down.
 */

#ifndef MCNSIM_SIM_CALLBACK_HH
#define MCNSIM_SIM_CALLBACK_HH

#include <cassert>
#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace mcnsim::sim {

template <typename Signature>
class Callback;

namespace detail {

/** Callables that may be null: an empty one makes an empty
 *  Callback, as it would an empty std::function. */
template <typename F>
struct IsNullable
    : std::bool_constant<std::is_pointer_v<F> ||
                         std::is_member_pointer_v<F>>
{};

template <typename Sig>
struct IsNullable<std::function<Sig>> : std::true_type
{};

} // namespace detail

/** A move-only R(Args...) with inline storage for small captures. */
template <typename R, typename... Args>
class Callback<R(Args...)>
{
  public:
    /** Inline capacity. The largest hot-path captures fit:
     *  EthernetLink::sendFrom's (48 B), McnHostDriver::drainLoop's
     *  CPU-copy continuation (56 B). */
    static constexpr std::size_t inlineBytes = 56;

    Callback() noexcept = default;
    Callback(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &,
                                        Args...>>>
    Callback(F &&fn)
    {
        construct(std::forward<F>(fn));
    }

    Callback(Callback &&o) noexcept { takeFrom(o); }

    Callback &
    operator=(Callback &&o) noexcept
    {
        if (this != &o) {
            reset();
            takeFrom(o);
        }
        return *this;
    }

    Callback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    /** Replace the callable with @p fn, constructed in place. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        reset();
        construct(std::forward<F>(fn));
    }

    /** Destroy the callable (its captures die now). */
    void
    reset() noexcept
    {
        // Cleared first: a capture's destructor may re-enter its
        // owner, and must find this callback empty.
        if (const Ops *ops = std::exchange(ops_, nullptr))
            if (ops->destroy)
                ops->destroy(buf_);
    }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        assert(ops_ && "invoking an empty Callback");
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move the callable from the second buffer into the first
         *  and end the source's; null: a byte copy does it. */
        void (*relocate)(void *, void *);
        void (*destroy)(void *); ///< null: trivially destructible
    };

    template <typename Fn>
    static constexpr bool fitsInline =
        sizeof(Fn) <= inlineBytes && alignof(Fn) <= alignof(void *);

    template <typename Fn>
    static Fn &
    target(void *buf)
    {
        if constexpr (fitsInline<Fn>)
            return *std::launder(static_cast<Fn *>(buf));
        else
            return **std::launder(static_cast<Fn **>(buf));
    }

    template <typename Fn>
    static constexpr void (*relocateFor())(void *, void *)
    {
        // A heap-held callable relocates as its pointer.
        if constexpr (!fitsInline<Fn> ||
                      std::is_trivially_copyable_v<Fn>)
            return nullptr;
        else
            return [](void *dst, void *src) {
                Fn &from = target<Fn>(src);
                ::new (dst) Fn(std::move(from));
                from.~Fn();
            };
    }

    template <typename Fn>
    static constexpr void (*destroyFor())(void *)
    {
        if constexpr (!fitsInline<Fn>)
            return [](void *buf) { delete &target<Fn>(buf); };
        else if constexpr (!std::is_trivially_destructible_v<Fn>)
            return [](void *buf) { target<Fn>(buf).~Fn(); };
        else
            return nullptr;
    }

    template <typename Fn>
    static constexpr Ops opsFor{
        [](void *buf, Args &&...args) -> R {
            return std::invoke(target<Fn>(buf),
                               std::forward<Args>(args)...);
        },
        relocateFor<Fn>(), destroyFor<Fn>()};

    template <typename F>
    void
    construct(F &&fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, Callback>) {
            // A Callback is 64 B, so wrapping one in another would
            // always allocate: take its callable over instead.
            static_assert(!std::is_lvalue_reference_v<F>,
                          "a Callback is moved, never copied");
            takeFrom(fn);
        } else {
            if constexpr (detail::IsNullable<Fn>::value)
                if (!fn)
                    return;
            if constexpr (fitsInline<Fn>)
                ::new (static_cast<void *>(buf_))
                    Fn(std::forward<F>(fn));
            else
                ::new (static_cast<void *>(buf_))
                    Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &opsFor<Fn>;
        }
    }

    void
    takeFrom(Callback &o) noexcept
    {
        if (!o.ops_)
            return;
        if (o.ops_->relocate)
            o.ops_->relocate(buf_, o.buf_);
        else
            std::memcpy(buf_, o.buf_, inlineBytes);
        ops_ = std::exchange(o.ops_, nullptr);
    }

    const Ops *ops_ = nullptr;
    alignas(void *) unsigned char buf_[inlineBytes];
};

} // namespace mcnsim::sim

#endif // MCNSIM_SIM_CALLBACK_HH
