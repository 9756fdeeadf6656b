#include "sim/context.hh"

#include <cstdint>

namespace m3
{

#if M3_FAST_CONTEXT

extern "C" void m3CtxSwap(void **saveSp, void *restoreSp);

// System-V x86-64: rbx, rbp, r12-r15 are callee-saved; everything else
// is dead across the call by the ABI. The switch is a plain function
// call from the caller's perspective, so saving these six registers
// plus the stack pointer captures the full context. No signal-mask
// syscall — that is the entire point (see context.hh).
asm(R"(
    .text
    .align 16
    .globl m3CtxSwap
    .type m3CtxSwap, @function
m3CtxSwap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size m3CtxSwap, .-m3CtxSwap
)");

void
ExecContext::init(void *stackBase, size_t stackSize, Entry entry)
{
    // Lay the stack out as if m3CtxSwap had suspended a context that is
    // about to enter entry(): six zeroed callee-saved registers, the
    // entry address for m3CtxSwap's ret, and a null fake return address
    // so entry() starts with the ABI-required rsp % 16 == 8 and a
    // terminated backtrace (rbp is popped as zero).
    uintptr_t top =
        (reinterpret_cast<uintptr_t>(stackBase) + stackSize) &
        ~uintptr_t(15);
    auto *p = reinterpret_cast<uint64_t *>(top);
    *--p = 0;                                    // fake return address
    *--p = reinterpret_cast<uint64_t>(entry);    // popped by ret
    for (int i = 0; i < 6; ++i)
        *--p = 0;                                // r15,r14,r13,r12,rbx,rbp
    sp = p;
}

void
ExecContext::switchTo(ExecContext &to)
{
    m3CtxSwap(&sp, to.sp);
}

#else // portable ucontext fallback

void
ExecContext::init(void *stackBase, size_t stackSize, Entry entry)
{
    getcontext(&ctx);
    ctx.uc_stack.ss_sp = stackBase;
    ctx.uc_stack.ss_size = stackSize;
    ctx.uc_link = nullptr;
    makecontext(&ctx, entry, 0);
}

void
ExecContext::switchTo(ExecContext &to)
{
    swapcontext(&ctx, &to.ctx);
}

#endif

} // namespace m3
