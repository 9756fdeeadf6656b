/**
 * @file
 * Cooperative fibers: the execution vehicle for simulated PE software.
 *
 * Every PE program (the kernel, an application, an OS service) runs on one
 * Fiber. Fibers interleave under the control of the EventQueue: a fiber
 * only runs when its wakeup event (Fiber::Wake) executes, and it gives up
 * control by sleeping for simulated cycles or by blocking on a condition.
 * Charging simulated time is therefore explicit: compute(n) both accounts
 * n cycles and lets the rest of the platform make progress during them.
 *
 * A fiber that gives up control executes the queue's next event itself
 * if that event is a wakeup (EventQueue::takeNext): its own wakeup just
 * returns, another fiber's switches straight into that fiber. Any other
 * event sends it back to the main context, so every other callback runs
 * on the main stack, in exactly the order run() would give it.
 */

#ifndef M3_SIM_FIBER_HH
#define M3_SIM_FIBER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/accounting.hh"
#include "base/types.hh"
#include "sim/context.hh"
#include "sim/event_queue.hh"

namespace m3
{

/**
 * A cooperatively scheduled execution context tied to an EventQueue.
 *
 * Lifecycle: constructed -> start() schedules the first wakeup ->
 * the body runs, interleaved with sleeps/blocks -> body returns ->
 * Finished (joiners are woken).
 */
class Fiber
{
  public:
    using Func = std::function<void()>;

    enum class State
    {
        Created,   //!< not yet started
        Ready,     //!< a wakeup event is scheduled
        Running,   //!< currently executing on the fiber stack
        Blocked,   //!< waiting for unblock()
        Finished,  //!< body returned
    };

    /**
     * @param eq the event queue driving this fiber
     * @param name diagnostic name (shows up in traces and deadlock dumps)
     * @param fn the body to execute
     */
    Fiber(EventQueue &eq, std::string name, Func fn);
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Schedule the first wakeup at the current cycle. */
    void start();

    /** @return the fiber currently executing, or nullptr in main context. */
    static Fiber *current();

    /** Sleep for @p cycles simulated cycles (callable from inside only). */
    void sleep(Cycles cycles);

    /**
     * Charge @p cycles of simulated software time to the current
     * accounting category and let simulated time pass.
     */
    void
    compute(Cycles cycles)
    {
        acct.charge(cycles);
        sleep(cycles);
    }

    /** Like compute(), but attributed to an explicit category. */
    void
    computeAs(Category c, Cycles cycles)
    {
        acct.chargeTo(c, cycles);
        sleep(cycles);
    }

    /**
     * Block until another party calls unblock(). A wakeup that raced ahead
     * (unblock() before block()) is not lost: block() then returns
     * immediately and consumes the pending wakeup.
     */
    void block();

    /** Wake a blocked fiber (or pre-arm the next block()). */
    void unblock();

    /**
     * Park the fiber: its VPE has been descheduled, so the core no longer
     * fetches its instructions. Dispatches that arrive while parked are
     * deferred, not lost — unpark() re-delivers them. Must not be called
     * on the currently running fiber.
     */
    void park();

    /**
     * Unpark the fiber: its VPE is resident again. Re-schedules any
     * dispatch deferred while parked and additionally delivers a spurious
     * wakeup so condition loops re-check state that may have changed
     * (e.g. DTU waiter registrations cleared during the switch).
     */
    void unpark();

    bool isParked() const { return parked; }

    /** Block the calling fiber until this fiber's body has returned. */
    void join();

    /**
     * Kill the fiber (fault injection: the core dies mid-run). The
     * fiber never runs again: pending dispatches and future unblocks
     * become no-ops. Its stack is not unwound — like a real core that
     * simply stops fetching instructions. Must not be called on the
     * currently running fiber.
     */
    void kill();

    bool isKilled() const { return killed; }

    /**
     * Record that the software running on this fiber was moved to a
     * different PE (VPE migration). Blocking waits that captured state
     * of the old PE's DTU compare epochs after every wakeup and bail
     * out with Error::VpeMoved so the caller can re-issue the wait
     * against the new home.
     */
    void noteMoved() { movedEpoch++; }

    /** Monotonic count of migrations this fiber went through. */
    uint32_t moveEpoch() const { return movedEpoch; }

    bool finished() const { return state == State::Finished; }
    State currentState() const { return state; }
    const std::string &fiberName() const { return name; }

    /** Cycle accounting for this fiber's breakdowns. */
    Accounting &accounting() { return acct; }

    /** The event queue this fiber runs on. */
    EventQueue &queue() { return eq; }

    /**
     * Opaque per-fiber slot for the environment object bound to this
     * fiber (libm3's Env). Lives here instead of in a global map so the
     * lookup is a pointer read and the binding dies with the fiber;
     * sim/ stays below libm3, hence the type erasure.
     */
    void setUserEnv(void *env) { userEnv = env; }
    void *getUserEnv() const { return userEnv; }

    /**
     * Request-tracing context (trace::ReqCtx) currently carried by the
     * software on this fiber: adopted from every message it fetches,
     * stamped onto every message it sends. Pure host-side shadow state —
     * sim/ never reads it; the DTU and the request-tracing sink do.
     */
    void setReqCtx(uint64_t ctx) { reqCtxVal = ctx; }
    uint64_t reqCtx() const { return reqCtxVal; }

  private:
    /** The wakeup event: dispatches `fiber` when it executes. */
    struct Wake
    {
        Fiber *fiber = nullptr;
        void operator()() const;
    };

    static void trampoline();

    /**
     * Make this fiber the running one, unless it is killed (the wakeup
     * is dropped) or parked (it is deferred until unpark()).
     * @return true if the caller should now switch into the fiber.
     */
    bool enter();

    /** Main-context side: switch into the fiber. */
    void dispatch();

    /**
     * Fiber side: give up the core to the next wakeup's fiber, or to the
     * main context if the next event is not a wakeup. Returns once this
     * fiber is woken again.
     */
    void yieldToMain();

    static constexpr size_t stackSize = 512 * KiB;

    EventQueue &eq;
    std::string name;
    Func fn;
    State state = State::Created;
    bool killed = false;
    bool wakeupPending = false;
    bool parked = false;
    bool dispatchPending = false;
    uint32_t movedEpoch = 0;
    std::vector<Fiber *> joiners;
    Accounting acct;
    void *userEnv = nullptr;
    uint64_t reqCtxVal = 0;

    std::unique_ptr<char[]> stack;
    bool contextInitialized = false;
    ExecContext fiberCtx;
};

} // namespace m3

#endif // M3_SIM_FIBER_HH
