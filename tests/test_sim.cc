/**
 * @file
 * Unit tests for the discrete-event core: event ordering, the clock,
 * fibers (sleep, block/unblock, join) and deadlock detection.
 */

#include <gtest/gtest.h>

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

} // anonymous namespace
} // namespace m3
