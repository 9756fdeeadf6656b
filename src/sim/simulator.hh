/**
 * @file
 * Top-level simulation driver: owns the event queue, tracks fibers for
 * diagnostics, and detects the end of the simulation (or a deadlock).
 */

#ifndef M3_SIM_SIMULATOR_HH
#define M3_SIM_SIMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/fiber.hh"

namespace m3
{

/**
 * Bundles the event queue with fiber bookkeeping. Components hold a
 * reference to the Simulator and schedule through queue().
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    EventQueue &queue() { return eq; }
    const EventQueue &queue() const { return eq; }

    /** The current simulated cycle. */
    Cycles curCycle() const { return eq.curCycle(); }

    /** Create (but do not start) a fiber owned by this simulator. */
    Fiber &
    spawn(std::string name, Fiber::Func fn)
    {
        fibers.push_back(
            std::make_unique<Fiber>(eq, std::move(name), std::move(fn)));
        return *fibers.back();
    }

    /** Create and immediately start a fiber. */
    Fiber &
    run(std::string name, Fiber::Func fn)
    {
        Fiber &f = spawn(std::move(name), std::move(fn));
        f.start();
        return f;
    }

    /**
     * Drive the event queue until it drains or @p limit is passed.
     * @return number of events executed.
     */
    uint64_t simulate(Cycles limit = ~Cycles(0)) { return eq.run(limit); }

    /**
     * Diagnostic: names of fibers that are blocked right now. A non-empty
     * result after simulate() returned with an empty queue is a deadlock.
     */
    std::vector<std::string>
    blockedFibers() const
    {
        std::vector<std::string> out;
        for (const auto &f : fibers)
            if (f->currentState() == Fiber::State::Blocked)
                out.push_back(f->fiberName());
        return out;
    }

    /** True if every spawned fiber has finished. */
    bool
    allFinished() const
    {
        for (const auto &f : fibers)
            if (!f->finished())
                return false;
        return true;
    }

    /** Visit every fiber (accounting aggregation, diagnostics). */
    template <typename F>
    void
    forEachFiber(F &&fn) const
    {
        for (const auto &f : fibers)
            fn(*f);
    }

  private:
    EventQueue eq;
    std::vector<std::unique_ptr<Fiber>> fibers;
};

} // namespace m3

#endif // M3_SIM_SIMULATOR_HH
