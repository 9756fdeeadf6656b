#include "sim/fiber.hh"

#include <cstring>

#include "base/logging.hh"

namespace m3
{

namespace
{

/** The fiber currently executing, or nullptr while in the main context. */
thread_local Fiber *currentFiber = nullptr;

/** Handoff slot for the trampoline (makecontext takes no pointers). */
thread_local Fiber *startingFiber = nullptr;

/**
 * The main context of the innermost dispatch() in progress: where a
 * fiber that cannot hand the core to another fiber switches to. Each
 * dispatch() saves and restores it, so a nested EventQueue::run() hands
 * the core back to its own caller.
 */
thread_local ExecContext *mainCtx = nullptr;

} // anonymous namespace

Fiber::Fiber(EventQueue &eq, std::string name, Func fn)
    : eq(eq), name(std::move(name)), fn(std::move(fn)),
      stack(new char[stackSize])
{
}

Fiber::~Fiber()
{
    if (state == State::Running)
        panic("fiber '%s' destroyed while running", name.c_str());
}

Fiber *
Fiber::current()
{
    return currentFiber;
}

void
Fiber::Wake::operator()() const
{
    fiber->dispatch();
}

void
Fiber::start()
{
    if (state != State::Created)
        panic("fiber '%s' started twice", name.c_str());
    state = State::Ready;
    eq.schedule(0, Wake{this});
}

void
Fiber::trampoline()
{
    Fiber *self = startingFiber;
    startingFiber = nullptr;
    self->fn();
    self->state = State::Finished;
    for (Fiber *j : self->joiners)
        j->unblock();
    self->joiners.clear();
    self->yieldToMain();
    panic("finished fiber '%s' resumed", self->name.c_str());
}

bool
Fiber::enter()
{
    if (killed)
        return false;
    if (parked) {
        // The VPE is descheduled: the core does not execute. Remember
        // the dispatch so unpark() can deliver it.
        dispatchPending = true;
        return false;
    }
    if (state == State::Finished)
        panic("dispatch of finished fiber '%s'", name.c_str());
    if (!contextInitialized) {
        fiberCtx.init(stack.get(), stackSize, &Fiber::trampoline);
        startingFiber = this;
        contextInitialized = true;
    }
    currentFiber = this;
    state = State::Running;
    return true;
}

void
Fiber::dispatch()
{
    Fiber *prev = currentFiber;
    if (!enter())
        return;
    ExecContext main;
    ExecContext *outer = mainCtx;
    mainCtx = &main;
    main.switchTo(fiberCtx);
    mainCtx = outer;
    currentFiber = prev;
}

void
Fiber::yieldToMain()
{
    // Run the next event here if it is a wakeup: what the main loop
    // would do next, minus the two switches through it.
    Wake w;
    while (eq.takeNext(w)) {
        Fiber *next = w.fiber;
        if (!next->enter())
            continue;
        if (next != this)
            fiberCtx.switchTo(next->fiberCtx);
        return;
    }
    fiberCtx.switchTo(*mainCtx);
}

void
Fiber::sleep(Cycles cycles)
{
    if (currentFiber != this)
        panic("sleep called from outside fiber '%s'", name.c_str());
    state = State::Ready;
    eq.schedule(cycles, Wake{this});
    yieldToMain();
}

void
Fiber::block()
{
    if (currentFiber != this)
        panic("block called from outside fiber '%s'", name.c_str());
    if (wakeupPending) {
        wakeupPending = false;
        return;
    }
    state = State::Blocked;
    yieldToMain();
}

void
Fiber::kill()
{
    if (state == State::Running)
        panic("fiber '%s' cannot kill itself", name.c_str());
    if (state == State::Finished)
        return;
    killed = true;
    // Joiners would wait forever on a killed fiber; release them. The
    // kernel-level cleanup (PE reclaim) is the watchdog's job.
    for (Fiber *j : joiners)
        j->unblock();
    joiners.clear();
}

void
Fiber::unblock()
{
    if (killed)
        return;
    if (state == State::Blocked) {
        state = State::Ready;
        eq.schedule(0, Wake{this});
    } else if (state != State::Finished) {
        // The fiber has not blocked yet; remember the wakeup.
        wakeupPending = true;
    }
}

void
Fiber::park()
{
    if (state == State::Running)
        panic("fiber '%s' cannot park itself", name.c_str());
    parked = true;
}

void
Fiber::unpark()
{
    parked = false;
    if (killed || state == State::Finished)
        return;
    if (dispatchPending) {
        dispatchPending = false;
        state = State::Ready;
        eq.schedule(0, Wake{this});
    } else if (state == State::Blocked) {
        // Spurious wakeup: whatever it was waiting on may have been torn
        // down during the switch (DTU waiter lists are cleared). All wait
        // loops re-check their condition and re-register.
        state = State::Ready;
        eq.schedule(0, Wake{this});
    } else {
        wakeupPending = true;
    }
}

void
Fiber::join()
{
    Fiber *self = current();
    if (!self)
        panic("join on '%s' called from the main context", name.c_str());
    while (state != State::Finished && !killed) {
        joiners.push_back(self);
        self->block();
    }
}

} // namespace m3
