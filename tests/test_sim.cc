/**
 * @file
 * Unit tests for the discrete-event core: event ordering, the clock,
 * fibers (sleep, block/unblock, join) and deadlock detection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "sim/simulator.hh"

namespace m3
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curCycle(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.schedule(1, [&] { fired = 1; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.curCycle(), 2u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { fired++; });
    eq.schedule(100, [&] { fired++; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
}

TEST(Fiber, SleepAdvancesTime)
{
    Simulator sim;
    Cycles seen = 0;
    sim.run("t", [&] {
        Fiber::current()->sleep(100);
        seen = sim.curCycle();
        Fiber::current()->sleep(50);
    });
    sim.simulate();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(sim.curCycle(), 150u);
    EXPECT_TRUE(sim.allFinished());
}

TEST(Fiber, ComputeChargesAccounting)
{
    Simulator sim;
    Fiber &f = sim.run("t", [] {
        Fiber *self = Fiber::current();
        self->compute(10);
        self->accounting().push(Category::Os);
        self->compute(20);
        self->accounting().pop();
    });
    sim.simulate();
    EXPECT_EQ(f.accounting().total(Category::App), 10u);
    EXPECT_EQ(f.accounting().total(Category::Os), 20u);
}

TEST(Fiber, BlockUnblock)
{
    Simulator sim;
    Fiber *blocked = nullptr;
    Cycles wokeAt = 0;
    Fiber &f = sim.run("sleeper", [&] {
        blocked = Fiber::current();
        Fiber::current()->block();
        wokeAt = sim.curCycle();
    });
    sim.run("waker", [&] {
        Fiber::current()->sleep(500);
        blocked->unblock();
    });
    sim.simulate();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(wokeAt, 500u);
}

TEST(Fiber, UnblockBeforeBlockIsNotLost)
{
    Simulator sim;
    bool done = false;
    Fiber &f = sim.spawn("t", [&] {
        // The wakeup raced ahead; block() must return immediately.
        Fiber::current()->block();
        done = true;
    });
    f.unblock();  // pre-arm before the fiber ever runs
    f.start();
    sim.simulate();
    EXPECT_TRUE(done);
}

TEST(Fiber, JoinWaitsForCompletion)
{
    Simulator sim;
    Cycles joinedAt = 0;
    Fiber &worker = sim.run("worker", [] {
        Fiber::current()->sleep(1000);
    });
    sim.run("joiner", [&] {
        worker.join();
        joinedAt = sim.curCycle();
    });
    sim.simulate();
    EXPECT_EQ(joinedAt, 1000u);
}

TEST(Fiber, ManyFibersInterleaveDeterministically)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        sim.run(std::string("f").append(std::to_string(i)), [&, i] {
            Fiber::current()->sleep(10 * (5 - i));
            order.push_back(i);
        });
    }
    sim.simulate();
    EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(Simulator, DetectsBlockedFibers)
{
    Simulator sim;
    sim.run("stuck", [] { Fiber::current()->block(); });
    sim.simulate();
    auto blocked = sim.blockedFibers();
    ASSERT_EQ(blocked.size(), 1u);
    EXPECT_EQ(blocked[0], "stuck");
    EXPECT_FALSE(sim.allFinished());
}

TEST(Fiber, DeepStackWorks)
{
    Simulator sim;
    // Recursion exercising a good chunk of the fiber stack.
    std::function<int(int)> rec = [&rec](int n) -> int {
        char pad[1024];
        pad[0] = static_cast<char>(n);
        if (n == 0)
            return pad[0];
        return rec(n - 1) + 1;
    };
    int result = -1;
    sim.run("deep", [&] { result = rec(200); });
    sim.simulate();
    EXPECT_EQ(result, 200);
}

/**
 * A seeded mix of fibers and plain callbacks on one Simulator. Fibers
 * sleep (across and around the event wheel's window), block, unblock
 * peers, schedule callbacks, finish and are joined; callbacks park,
 * unpark and kill random fibers, and a few call a nested run(). Every
 * step is logged with its cycle, so two drivers of the same seed can be
 * compared event for event. All randomness flows from one generator in
 * execution order, so any difference in order also changes what runs.
 */
class HandoffStress
{
  public:
    static constexpr Cycles W = EventQueue::WINDOW;
    static constexpr int FIBERS = 32;
    static constexpr int SHORT = 8;  //!< fibers 0..SHORT-1 finish early

    /** (cycle, fiber or -1 for a callback, step or callback id, what) */
    using Entry = std::tuple<Cycles, int, int, int>;

    explicit HandoffStress(uint64_t seed) : rng(seed)
    {
        for (int i = 0; i < FIBERS; ++i) {
            fibers.push_back(&sim.spawn(
                std::string("f").append(std::to_string(i)),
                [this, i] { body(i); }));
        }
        for (Fiber *f : fibers)
            f->start();
    }

    Simulator sim;
    EventQueue &eq = sim.queue();
    std::mt19937_64 rng;
    std::vector<Fiber *> fibers;
    std::vector<Entry> log;
    uint64_t runSum = 0;         //!< sum of nested run() return values
    uint64_t nestedRuns = 0;
    Cycles nestedLimitMax = 0;   //!< largest nested run() limit so far

  private:
    Cycles
    sleepCycles()
    {
        switch (rng() % 6) {
          case 0:
            return 0;
          case 1:
          case 2:
            return 1 + rng() % 8;
          case 3:
            return W - 1 + rng() % 3;  // W - 1, W, W + 1
          case 4:
            return 3 * W;
          default:
            return rng() % (2 * W);
        }
    }

    void
    body(int self)
    {
        Fiber *me = Fiber::current();
        const int steps = self < SHORT ? 4 + static_cast<int>(rng() % 8)
                                       : 40 + static_cast<int>(rng() % 40);
        for (int step = 0; step < steps; ++step) {
            const int what = static_cast<int>(rng() % 10);
            log.emplace_back(eq.curCycle(), self, step, what);
            switch (what) {
              case 0:
              case 1:
              case 2:
                me->computeAs(static_cast<Category>(rng() % 3),
                              sleepCycles());
                break;
              case 3:
                me->block();
                break;
              case 4:
              case 5:
                fibers[rng() % FIBERS]->unblock();
                break;
              case 6:
                if (self >= SHORT)
                    fibers[rng() % SHORT]->join();
                break;
              case 7:
              case 8:
                scheduleCallback();
                break;
              default:
                me->sleep(0);
                break;
            }
        }
        log.emplace_back(eq.curCycle(), self, steps, -1);
    }

    void
    scheduleCallback()
    {
        const int id = callbacks++;
        eq.schedule(rng() % (2 * W), [this, id] { callback(id); });
    }

    void
    callback(int id)
    {
        const int what = static_cast<int>(rng() % 16);
        log.emplace_back(eq.curCycle(), -1, id, what);
        Fiber *f = fibers[rng() % FIBERS];
        if (what < 5) {
            f->park();
            eq.schedule(rng() % (2 * W), [f] { f->unpark(); });
        } else if (what < 10) {
            f->unpark();
        } else if (what < 14) {
            f->unblock();
        } else if (what == 14 && kills < 3) {
            ++kills;
            f->kill();
        } else if (what == 15 && !nesting && nestedRuns < 4) {
            nesting = true;
            ++nestedRuns;
            const Cycles limit = eq.curCycle() + rng() % (2 * W);
            nestedLimitMax = std::max(nestedLimitMax, limit);
            runSum += eq.run(limit);
            nesting = false;
        }
    }

    int callbacks = 0;
    int kills = 0;
    bool nesting = false;
};

/** Everything the two drivers of one seed must agree on. */
struct HandoffOutcome
{
    std::vector<HandoffStress::Entry> log;
    SimStats stats;
    std::vector<std::vector<Cycles>> accounting;
    std::vector<std::tuple<bool, bool, bool>> finishedKilledParked;
    std::vector<std::string> blocked;
    uint64_t nestedRuns = 0;
};

HandoffOutcome
outcomeOf(const HandoffStress &d)
{
    HandoffOutcome o;
    o.log = d.log;
    o.stats = d.eq.stats();
    for (Fiber *f : d.fibers) {
        std::vector<Cycles> acct;
        for (size_t c = 0; c < static_cast<size_t>(Category::NUM); ++c)
            acct.push_back(f->accounting().total(static_cast<Category>(c)));
        o.accounting.push_back(acct);
        o.finishedKilledParked.emplace_back(f->finished(), f->isKilled(),
                                            f->isParked());
    }
    o.blocked = d.sim.blockedFibers();
    o.nestedRuns = d.nestedRuns;
    return o;
}

/**
 * Fibers hand the core straight to the next woken fiber inside run();
 * runOne() never does. Driving the same seeded mix by run(limit) slices
 * and by a runOne() loop must therefore give the same execution, event
 * for event, and run() must still stop at its limit.
 */
TEST(Fiber, HandoffMatchesRunOneReference)
{
    uint64_t nestedTotal = 0;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        HandoffStress bySlices(seed);
        std::mt19937_64 sliceRng(seed * 7919);
        Cycles limit = 0;
        uint64_t ranBySlices = 0;
        uint64_t pastLimit = 0;
        while (!bySlices.eq.empty()) {
            limit = std::max(limit, bySlices.eq.curCycle()) +
                    sliceRng() % (2 * HandoffStress::W);
            const size_t mark = bySlices.log.size();
            ranBySlices += bySlices.eq.run(limit);
            const Cycles bound = std::max(limit, bySlices.nestedLimitMax);
            for (size_t i = mark; i < bySlices.log.size(); ++i)
                pastLimit += std::get<0>(bySlices.log[i]) > bound ? 1 : 0;
        }
        EXPECT_EQ(pastLimit, 0u) << "seed " << seed;
        EXPECT_EQ(ranBySlices + bySlices.runSum,
                  bySlices.eq.stats().eventsExecuted)
            << "seed " << seed;

        HandoffStress byRunOne(seed);
        uint64_t ranByRunOne = 0;
        while (byRunOne.eq.runOne())
            ++ranByRunOne;
        EXPECT_EQ(ranByRunOne + byRunOne.runSum,
                  byRunOne.eq.stats().eventsExecuted)
            << "seed " << seed;

        const HandoffOutcome a = outcomeOf(bySlices);
        const HandoffOutcome b = outcomeOf(byRunOne);
        EXPECT_EQ(a.log, b.log) << "seed " << seed;
        EXPECT_EQ(a.stats.eventsScheduled, b.stats.eventsScheduled);
        EXPECT_EQ(a.stats.eventsExecuted, b.stats.eventsExecuted);
        EXPECT_EQ(a.stats.peakPending, b.stats.peakPending);
        EXPECT_EQ(a.stats.callbackHeapFallbacks,
                  b.stats.callbackHeapFallbacks);
        EXPECT_EQ(a.accounting, b.accounting) << "seed " << seed;
        EXPECT_EQ(a.finishedKilledParked, b.finishedKilledParked)
            << "seed " << seed;
        EXPECT_EQ(a.blocked, b.blocked) << "seed " << seed;
        EXPECT_EQ(a.nestedRuns, b.nestedRuns) << "seed " << seed;
        EXPECT_GT(a.log.size(), 1000u) << "seed " << seed;
        nestedTotal += a.nestedRuns;
    }
    EXPECT_GT(nestedTotal, 0u);
}

} // anonymous namespace
} // namespace m3
