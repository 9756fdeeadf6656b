/**
 * @file
 * ExecContext: the minimal stack-switching primitive under Fiber.
 *
 * glibc's swapcontext() saves and restores the signal mask with a
 * sigprocmask system call on every switch — several hundred nanoseconds
 * on the simulator's hot path, where every fiber wakeup is one switch
 * (fiber to fiber) or two (through the main loop). The fast path here is
 * a hand-rolled System-V x86-64 switch (callee-saved registers + stack
 * pointer, ~20 instructions, no syscall), the same technique as
 * boost.context's fcontext.
 *
 * The ucontext path remains as the portable fallback and is selected
 * automatically when a sanitizer is active: ASan/TSan understand
 * swapcontext() out of the box, while a raw assembly switch would need
 * explicit fiber annotations. Simulated behaviour is identical either
 * way — this choice affects host speed only.
 */

#ifndef M3_SIM_CONTEXT_HH
#define M3_SIM_CONTEXT_HH

#include <cstddef>

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define M3_SANITIZER_ACTIVE 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define M3_SANITIZER_ACTIVE 1
#endif

#if defined(__x86_64__) && !defined(M3_SANITIZER_ACTIVE) && \
    !defined(M3_FORCE_UCONTEXT)
#define M3_FAST_CONTEXT 1
#else
#define M3_FAST_CONTEXT 0
#include <ucontext.h>
#endif

namespace m3
{

/**
 * One execution context (a stack pointer into a suspended stack, or the
 * saved state of the main context while a fiber runs).
 */
class ExecContext
{
  public:
    /** Entry point of a fresh context; receives no arguments (the fiber
     *  layer hands the Fiber* over in a thread-local, as makecontext
     *  imposes the same restriction on the portable path). */
    using Entry = void (*)();

    /**
     * Prepare this context to run @p entry on the given stack when first
     * switched to. @p entry must never return: it switches away for good.
     */
    void init(void *stackBase, size_t stackSize, Entry entry);

    /** Save the current context into *this and resume @p to. */
    void switchTo(ExecContext &to);

  private:
#if M3_FAST_CONTEXT
    void *sp = nullptr;
#else
    ucontext_t ctx{};
#endif
};

} // namespace m3

#endif // M3_SIM_CONTEXT_HH
