/**
 * @file
 * Unit tests for the event queue and the SmallFn callback type.
 *
 * The queue replaced a `std::priority_queue` whose `top()` had to be
 * `const_cast` to move the callback out, and later its binary heap with
 * cycle buckets in front of a heap of far events; several tests here pin
 * down the behaviours those rewrites must preserve (ordering, tie-breaks,
 * schedule-from-callback, events crossing from the far heap into the
 * buckets) and the ones they add (move-only callbacks, engine counters,
 * heap-fallback accounting).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/small_fn.hh"

namespace m3
{
namespace
{

TEST(EventHeap, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<Cycles> order;
    for (Cycles c : {30u, 10u, 20u, 5u, 25u})
        eq.scheduleAbs(c, [&order, &eq] { order.push_back(eq.curCycle()); });
    eq.run();
    EXPECT_EQ(order, (std::vector<Cycles>{5, 10, 20, 25, 30}));
}

TEST(EventHeap, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.scheduleAbs(42, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

/**
 * Stress the sift-up/sift-down paths against a reference ordering: many
 * events with clustered cycles (lots of ties) must drain in exactly
 * (when, insertion seq) order.
 */
TEST(EventHeap, StressMatchesReferenceOrdering)
{
    EventQueue eq;
    std::mt19937 rng(12345);
    std::uniform_int_distribution<Cycles> when(0, 50);

    constexpr int N = 5000;
    std::vector<std::pair<Cycles, int>> ref;
    std::vector<int> order;
    for (int i = 0; i < N; ++i) {
        Cycles w = when(rng);
        ref.emplace_back(w, i);
        eq.scheduleAbs(w, [&order, i] { order.push_back(i); });
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    eq.run();
    ASSERT_EQ(order.size(), ref.size());
    for (int i = 0; i < N; ++i)
        EXPECT_EQ(order[i], ref[i].second) << "at position " << i;
}

/**
 * A far event (scheduled WINDOW or more cycles ahead) and events that
 * later go straight into the bucket of the same cycle still run in
 * insertion order.
 */
TEST(EventHeap, FarEventsRunBeforeLaterTiesAtTheirCycle)
{
    constexpr Cycles W = EventQueue::WINDOW;
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAbs(W + 5, [&] { order.push_back(0); });
    eq.scheduleAbs(2 * W, [&] { order.push_back(1); });
    eq.scheduleAbs(10, [&] {
        eq.scheduleAbs(W + 5, [&] { order.push_back(2); });
        eq.scheduleAbs(W + 5, [&] { order.push_back(3); });
    });
    eq.scheduleAbs(W + 5, [&] {
        order.push_back(4);
        eq.schedule(0, [&] { order.push_back(5); });
        eq.schedule(W - 5, [&] { order.push_back(6); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 4, 2, 3, 5, 1, 6}));
    EXPECT_EQ(eq.curCycle(), 2 * W);
}

/**
 * Drives the queue with events whose callbacks schedule more events at
 * delays from 0 to three windows, exactly around the window's edge, and
 * on a coarse grid of shared cycles (many ties between far and near
 * inserts), and that sometimes run further events from inside
 * themselves. Each event checks that it is the first (when, seq) of a
 * reference set.
 */
class WheelStress
{
  public:
    static constexpr Cycles W = EventQueue::WINDOW;

    WheelStress(uint64_t seed, uint64_t budget) : rng(seed), budget(budget)
    {
    }

    /** Schedule a fresh batch of events from now. */
    void
    seedBatch()
    {
        for (int i = 0; i < 256 && ids < budget; ++i)
            add(eq.curCycle() + delay());
    }

    EventQueue eq;
    std::mt19937_64 rng;
    std::set<std::pair<Cycles, uint64_t>> ref;
    const uint64_t budget;
    uint64_t ids = 0;       //!< events scheduled, = each one's seq
    uint64_t executed = 0;  //!< events run
    uint64_t nested = 0;    //!< of those, run by a nested runOne()
    uint64_t fallbacks = 0;
    uint64_t peak = 0;
    std::string failure;

  private:
    struct Pad
    {
        char bytes[SmallFn::InlineCapacity];
    };

    void
    add(Cycles when)
    {
        const uint64_t id = ids++;
        ref.emplace(when, id);
        peak = std::max<uint64_t>(peak, ref.size());
        if (rng() % 64 == 0) {
            ++fallbacks;
            eq.scheduleAbs(when, [this, id, pad = Pad{}] {
                (void)pad;
                fire(id);
            });
        } else {
            eq.scheduleAbs(when, [this, id] { fire(id); });
        }
    }

    Cycles
    delay()
    {
        const Cycles now = eq.curCycle();
        switch (rng() % 8) {
          case 0:
            return 0;
          case 1:
          case 2:
            return rng() % (3 * W + 1);
          case 3:
            return W - 1 + rng() % 3;
          case 4:
          case 5:
            return 1 + rng() % 8;
          case 6:
            return (now / 256 + 1) * 256 + (rng() % 2) * W - now;
          default:
            return rng() % W;
        }
    }

    void
    fire(uint64_t id)
    {
        ++executed;
        const auto first = ref.begin();
        if (first == ref.end() || first->second != id ||
            first->first != eq.curCycle()) {
            if (failure.empty()) {
                failure = std::string("event ")
                              .append(std::to_string(id))
                              .append(" ran at cycle ")
                              .append(std::to_string(eq.curCycle()));
            }
            ref.erase({eq.curCycle(), id});
        } else {
            ref.erase(first);
        }
        if (eq.pending() != ref.size() && failure.empty())
            failure = "pending() differs from the reference";
        const uint64_t children = ids < budget ? rng() % 3 : 0;
        for (uint64_t i = 0; i < children && ids < budget; ++i)
            add(eq.curCycle() + delay());
        if (depth < 3 && rng() % 32 == 0) {
            ++depth;
            for (uint64_t n = 1 + rng() % 3; n > 0; --n)
                nested += eq.runOne() ? 1 : 0;
            --depth;
        }
    }

    int depth = 0;
};

TEST(EventHeap, WheelMatchesReferenceOrdering)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        WheelStress d(seed, 60000);
        d.seedBatch();
        Cycles limit = 0;
        while (!d.eq.empty()) {
            limit = std::max(limit, d.eq.curCycle()) + d.rng() % (2 * d.W);
            const uint64_t executed = d.executed, nested = d.nested;
            const uint64_t ran = d.eq.run(limit);
            EXPECT_EQ(ran, (d.executed - executed) - (d.nested - nested));
            if (d.nested == nested) {
                EXPECT_LE(d.eq.curCycle(), limit);
            }
            if (!d.eq.empty()) {
                EXPECT_GT(d.ref.begin()->first, limit);
            } else if (d.ids < d.budget) {
                d.seedBatch();
            }
        }
        EXPECT_EQ(d.failure, "") << "seed " << seed;
        EXPECT_TRUE(d.ref.empty());
        EXPECT_EQ(d.ids, d.budget);
        const SimStats &st = d.eq.stats();
        EXPECT_EQ(st.eventsScheduled, d.ids);
        EXPECT_EQ(st.eventsExecuted, d.executed);
        EXPECT_EQ(st.eventsExecuted, d.ids);
        EXPECT_EQ(st.peakPending, d.peak);
        EXPECT_EQ(st.callbackHeapFallbacks, d.fallbacks);
        EXPECT_GT(d.nested, 0u);
    }
}

/**
 * Regression for the old `const_cast`-on-`top()` move hack: a callback
 * that schedules new events while it executes must not corrupt the heap
 * or the slot pool (the slot is recycled before invocation, so the new
 * events may reuse or grow it mid-callback).
 */
TEST(EventHeap, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    // Each event schedules two children until depth 0: 2^6 - 1 events.
    struct Spawner
    {
        static void
        go(EventQueue &eq, int depth, int &fired)
        {
            fired++;
            if (depth == 0)
                return;
            for (int i = 0; i < 2; ++i)
                eq.schedule(1 + i, [&eq, depth, &fired] {
                    go(eq, depth - 1, fired);
                });
        }
    };
    eq.schedule(0, [&] { Spawner::go(eq, 5, fired); });
    uint64_t executed = eq.run();
    EXPECT_EQ(fired, 63);
    EXPECT_EQ(executed, 63u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventHeap, CallbackMayRecurseIntoRunOne)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAbs(5, [&] { order.push_back(1); });
    eq.scheduleAbs(0, [&] {
        order.push_back(0);
        // Drain the rest from inside a callback.
        while (eq.runOne()) {
        }
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventHeap, MoveOnlyCallbacksAreAccepted)
{
    EventQueue eq;
    auto payload = std::make_unique<int>(7);
    int seen = 0;
    // std::function would reject this capture (not copyable).
    eq.schedule(3, [p = std::move(payload), &seen] { seen = *p; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

TEST(EventHeap, StatsCountersTrackSchedulingAndExecution)
{
    EventQueue eq;
    for (int i = 0; i < 4; ++i)
        eq.scheduleAbs(10 + i, [] {});
    EXPECT_EQ(eq.stats().eventsScheduled, 4u);
    EXPECT_EQ(eq.stats().eventsExecuted, 0u);
    EXPECT_EQ(eq.stats().peakPending, 4u);
    eq.run();
    EXPECT_EQ(eq.stats().eventsExecuted, 4u);
    // Draining does not lower the high-water mark.
    EXPECT_EQ(eq.stats().peakPending, 4u);
    EXPECT_EQ(eq.stats().callbackHeapFallbacks, 0u);
}

TEST(EventHeap, PeakPendingIsHighWaterMark)
{
    EventQueue eq;
    eq.scheduleAbs(1, [] {});
    eq.scheduleAbs(2, [] {});
    eq.runOne();
    eq.runOne();
    eq.scheduleAbs(3, [] {});
    eq.run();
    EXPECT_EQ(eq.stats().peakPending, 2u);
}

TEST(EventHeap, OversizedCapturesFallBackToHeapAndStillRun)
{
    EventQueue eq;
    struct Big
    {
        char pad[SmallFn::InlineCapacity + 32];
    };
    Big big{};
    big.pad[0] = 42;
    char seen = 0;
    eq.schedule(1, [big, &seen] { seen = big.pad[0]; });
    eq.run();
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(eq.stats().callbackHeapFallbacks, 1u);
}

TEST(EventHeap, SlotPoolIsRecycled)
{
    EventQueue eq;
    // Alternate schedule/run many times: the pool must stay at size 1
    // (observable indirectly: peakPending never exceeds 1).
    int fired = 0;
    for (int i = 0; i < 100; ++i) {
        eq.schedule(1, [&] { fired++; });
        eq.run();
    }
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.stats().peakPending, 1u);
}

TEST(SmallFnTest, InlineFitPredicate)
{
    int a = 0;
    auto small = [&a] { a++; };
    EXPECT_TRUE(SmallFn::fitsInline<decltype(small)>());

    SmallFn f(small);
    EXPECT_FALSE(f.onHeap());

    struct Big
    {
        char pad[SmallFn::InlineCapacity + 1];
    };
    Big big{};
    auto large = [big] { (void)big; };
    EXPECT_FALSE(SmallFn::fitsInline<decltype(large)>());

    SmallFn g(large);
    EXPECT_TRUE(g.onHeap());
}

TEST(SmallFnTest, MoveTransfersOwnership)
{
    int calls = 0;
    SmallFn a([&calls] { calls++; });
    SmallFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);

    SmallFn c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(calls, 2);
}

TEST(SmallFnTest, DestructorRunsCaptures)
{
    auto counter = std::make_shared<int>(0);
    std::weak_ptr<int> watch = counter;
    {
        SmallFn f([counter] { (void)counter; });
        counter.reset();
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

TEST(SmallFnTest, HeapCallableDestroyedExactlyOnce)
{
    struct Big
    {
        std::shared_ptr<int> token;
        char pad[SmallFn::InlineCapacity];
    };
    auto counter = std::make_shared<int>(0);
    std::weak_ptr<int> watch = counter;
    {
        Big big{counter, {}};
        counter.reset();
        SmallFn f([big] { (void)big; });
        EXPECT_TRUE(f.onHeap());
        SmallFn g(std::move(f));
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

} // anonymous namespace
} // namespace m3
