/**
 * @file
 * The discrete-event core: a global clock and a min-heap of events.
 *
 * Everything in the platform (NoC packet delivery, DTU command completion,
 * fiber wakeups) is an event. Ties at the same cycle are broken by
 * insertion order, which keeps the simulation fully deterministic.
 *
 * The engine is the hot path of every benchmark, so it is built for
 * near-zero allocation in steady state: callbacks are small-buffer
 * optimized (SmallFn), they live in pooled slots recycled through a free
 * list, and the heap itself orders 24-byte keys (cycle, sequence, slot)
 * instead of whole events. Sifting moves PODs, the callback bytes never
 * move while queued, and popping moves the callback out exactly once —
 * no `const_cast`-on-`top()` tricks like the old `std::priority_queue`
 * needed.
 */

#ifndef M3_SIM_EVENT_QUEUE_HH
#define M3_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/small_fn.hh"
#include "trace/metrics.hh"

namespace m3
{

/** Engine counters, exposed for tests and the simperf harness. */
struct SimStats
{
    uint64_t eventsScheduled = 0;
    uint64_t eventsExecuted = 0;
    uint64_t peakPending = 0;  //!< high-water mark of the event heap
    /** Callbacks whose captures exceeded SmallFn::InlineCapacity. The
     *  core DTU/NoC/fiber paths must never contribute here (asserted
     *  in tests); occasional cold-path fallbacks are acceptable. */
    uint64_t callbackHeapFallbacks = 0;
};

/**
 * A time-ordered queue of callbacks. The queue owns the simulated clock:
 * curCycle() advances exactly when an event at a later cycle is executed.
 */
class EventQueue
{
  public:
    using Callback = SmallFn;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** The current simulated cycle. */
    Cycles curCycle() const { return now; }

    /** Schedule @p cb to run @p delay cycles from now. */
    void
    schedule(Cycles delay, Callback cb)
    {
        scheduleAbs(now + delay, std::move(cb));
    }

    /** Schedule @p cb at absolute cycle @p when (must not be in the past). */
    void
    scheduleAbs(Cycles when, Callback cb)
    {
        if (when < now)
            panic("event scheduled in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(now));
        simStats.eventsScheduled++;
        if (cb.onHeap())
            simStats.callbackHeapFallbacks++;
        if (M3_METRICS_ON) {
            static trace::Histogram &depth =
                trace::Metrics::histogram("sim.queue_depth");
            depth.observe(heap.size() + 1);
        }
        const uint32_t slot = acquireSlot();
        slots[slot].cb = std::move(cb);
        heapPush(HeapEntry{when, nextSeq++, slot});
    }

    /** True if no events are pending. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    size_t pending() const { return heap.size(); }

    /**
     * Execute the earliest pending event, advancing the clock to its cycle.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (heap.empty())
            return false;
        execTop();
        return true;
    }

    /**
     * Run events until the queue drains or the clock passes @p limit.
     * @return the number of events executed.
     */
    uint64_t
    run(Cycles limit = ~Cycles(0))
    {
        uint64_t executed = 0;
        while (!heap.empty() && heap.front().when <= limit) {
            execTop();
            ++executed;
        }
        return executed;
    }

    /** Engine counters (monotonic; never reset by the queue itself). */
    const SimStats &stats() const { return simStats; }

  private:
    /** Heap key: the callback bytes stay put in their pooled slot. */
    struct HeapEntry
    {
        Cycles when;
        uint64_t seq;
        uint32_t slot;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** A pooled event slot; free slots are chained through nextFree. */
    struct Slot
    {
        Callback cb;
        uint32_t nextFree = NO_SLOT;
    };

    static constexpr uint32_t NO_SLOT = ~uint32_t(0);

    uint32_t
    acquireSlot()
    {
        if (freeHead != NO_SLOT) {
            uint32_t s = freeHead;
            freeHead = slots[s].nextFree;
            return s;
        }
        slots.emplace_back();
        return static_cast<uint32_t>(slots.size() - 1);
    }

    void
    releaseSlot(uint32_t s)
    {
        slots[s].nextFree = freeHead;
        freeHead = s;
    }

    void
    heapPush(HeapEntry e)
    {
        heap.push_back(e);
        size_t i = heap.size() - 1;
        while (i > 0) {
            size_t parent = (i - 1) / 2;
            if (!heap[i].before(heap[parent]))
                break;
            std::swap(heap[i], heap[parent]);
            i = parent;
        }
        if (heap.size() > simStats.peakPending)
            simStats.peakPending = heap.size();
    }

    /** Remove the root: move the last entry up and sift it down. */
    void
    heapPopRoot()
    {
        HeapEntry last = heap.back();
        heap.pop_back();
        const size_t n = heap.size();
        if (n == 0)
            return;
        size_t i = 0;
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap[child + 1].before(heap[child]))
                ++child;
            if (!heap[child].before(last))
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = last;
    }

    /**
     * Execute the root event. The callback is moved out of its slot and
     * the slot is recycled *before* invocation, because the callback may
     * schedule new events (growing the slot pool) or recurse into run().
     */
    void
    execTop()
    {
        const HeapEntry e = heap.front();
        heapPopRoot();
        Callback cb = std::move(slots[e.slot].cb);
        releaseSlot(e.slot);
        now = e.when;
        simStats.eventsExecuted++;
        cb();
    }

    Cycles now = 0;
    uint64_t nextSeq = 0;
    std::vector<HeapEntry> heap;
    std::vector<Slot> slots;
    uint32_t freeHead = NO_SLOT;
    SimStats simStats;
};

} // namespace m3

#endif // M3_SIM_EVENT_QUEUE_HH
