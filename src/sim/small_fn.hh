/**
 * @file
 * SmallFn: a move-only, small-buffer-optimized `void()` callable.
 *
 * The discrete-event engine schedules millions of callbacks per run;
 * with `std::function` every capture larger than two pointers costs a
 * heap allocation on the hot path. SmallFn stores captures up to
 * InlineCapacity bytes inline in the event slot and only falls back to
 * the heap beyond that. The budget is sized for the engine's biggest
 * frequent customers — the DTU send/reply closures in `src/dtu/dtu.cc`
 * (MessageHeader + payload vector + target pointers) and the external
 * config closures (two `std::function`s plus pointers) — with the NoC
 * delivery lambdas and the fiber wakeup (Fiber::Wake) far below it. A
 * dedicated test asserts the fallback counter stays at 0 for the core
 * DTU/NoC paths.
 *
 * Unlike `std::function`, SmallFn is move-only and therefore also
 * accepts non-copyable captures (e.g. a moved-in `std::unique_ptr`).
 */

#ifndef M3_SIM_SMALL_FN_HH
#define M3_SIM_SMALL_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace m3
{

class SmallFn
{
  public:
    /**
     * Inline storage budget. 96 bytes covers the largest hot-path
     * capture set (Dtu::sendExt: this + target + node + two
     * std::functions = 88 bytes) with headroom for padding differences
     * across ABIs.
     */
    static constexpr size_t InlineCapacity = 96;
    static constexpr size_t InlineAlign = alignof(std::max_align_t);

    SmallFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn>>>
    SmallFn(F &&f)  // NOLINT: implicit, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "SmallFn requires a void() callable");
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(storage) =
                new Fn(std::forward<F>(f));
            ops = &heapOps<Fn>;
        }
    }

    SmallFn(SmallFn &&o) noexcept : ops(o.ops)
    {
        if (ops) {
            ops->relocate(o.storage, storage);
            o.ops = nullptr;
        }
    }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops = o.ops;
            if (ops) {
                ops->relocate(o.storage, storage);
                o.ops = nullptr;
            }
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    /** Destroy the held callable (if any) and become empty. */
    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(storage);
            ops = nullptr;
        }
    }

    explicit operator bool() const noexcept { return ops != nullptr; }

    void
    operator()()
    {
        ops->invoke(storage);
    }

    /**
     * The held callable if it is an inline @p Fn, else nullptr; mirrors
     * `std::function::target`.
     */
    template <typename Fn>
    Fn *
    target() noexcept
    {
        return ops == &inlineOps<Fn>
                   ? std::launder(reinterpret_cast<Fn *>(storage))
                   : nullptr;
    }

    /** True if the held callable lives on the heap (capture too big). */
    bool onHeap() const noexcept { return ops && ops->heap; }

    /** Compile-time: would a callable of type F be stored inline? */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= InlineCapacity &&
               alignof(Fn) <= InlineAlign &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
        bool heap;
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *s) { (*static_cast<Fn *>(s))(); },
        [](void *src, void *dst) noexcept {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *s) noexcept { static_cast<Fn *>(s)->~Fn(); },
        false,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *s) { (**static_cast<Fn **>(s))(); },
        [](void *src, void *dst) noexcept {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *s) noexcept { delete *static_cast<Fn **>(s); },
        true,
    };

    const Ops *ops = nullptr;
    alignas(InlineAlign) unsigned char storage[InlineCapacity];
};

} // namespace m3

#endif // M3_SIM_SMALL_FN_HH
