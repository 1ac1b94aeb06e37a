/**
 * @file
 * Fixed-capacity, non-allocating callable (the continuation type used
 * on the simulator's hot paths).
 *
 * std::function heap-allocates whenever a capture outgrows its small
 * buffer (16 bytes on common stdlibs), which put one malloc/free pair
 * on every mesh delivery and every cache-miss continuation.
 * InplaceFunction stores the callable inline in a buffer of N bytes and
 * *statically rejects* anything larger, so a path built from these
 * types provably performs no continuation allocations. It is move-only
 * (captures routinely hold other move-only continuations).
 *
 * Each subsystem declares an alias sized for its largest capture
 * (e.g. MshrTable::Continuation, EventQueue::Callback, MeshCallback);
 * growing a capture past the alias capacity is a compile error, which
 * keeps the no-allocation property honest as the code evolves.
 */

#ifndef ATOMSIM_SIM_CALLBACK_HH
#define ATOMSIM_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace atomsim
{

template <typename Sig, std::size_t N> class InplaceFunction;

template <typename R, typename... Args, std::size_t N>
class InplaceFunction<R(Args...), N>
{
  public:
    /** Inline storage capacity, in bytes. */
    static constexpr std::size_t kCapacity = N;

    InplaceFunction() = default;
    InplaceFunction(std::nullptr_t) {}

    /** Store any callable of size <= N (compile error otherwise). */
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InplaceFunction>>>
    InplaceFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InplaceFunction(InplaceFunction &&other) noexcept { moveFrom(other); }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    /**
     * Replace the held callable by @p f, constructed straight in the
     * inline buffer, so a pooled holder (EventQueue's FuncEvent) takes
     * a caller's lambda with one move rather than through a temporary
     * InplaceFunction.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
    }

    InplaceFunction(const InplaceFunction &) = delete;
    InplaceFunction &operator=(const InplaceFunction &) = delete;

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return _ops != nullptr; }

    R
    operator()(Args... args)
    {
        return _ops->invoke(_buf, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src);  //!< move + destroy src
        void (*destroy)(void *);
    };

    template <typename Fn>
    static const Ops *
    opsFor()
    {
        static const Ops ops = {
            [](void *p, Args &&...args) -> R {
                return (*static_cast<Fn *>(p))(
                    std::forward<Args>(args)...);
            },
            [](void *dst, void *src) {
                new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            },
            [](void *p) { static_cast<Fn *>(p)->~Fn(); },
        };
        return &ops;
    }

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= N,
                      "capture too large for this InplaceFunction: "
                      "shrink the capture or grow the alias capacity");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned capture");
        new (_buf) Fn(std::forward<F>(f));
        _ops = opsFor<Fn>();
    }

    void
    reset()
    {
        if (_ops) {
            _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    void
    moveFrom(InplaceFunction &other)
    {
        _ops = other._ops;
        if (_ops) {
            _ops->relocate(_buf, other._buf);
            other._ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[N];
    const Ops *_ops = nullptr;
};

/** Shorthand for the common nullary continuation. */
template <std::size_t N>
using InplaceCallback = InplaceFunction<void(), N>;

} // namespace atomsim

#endif // ATOMSIM_SIM_CALLBACK_HH
