/**
 * @file
 * The discrete-event core: a global clock and a time-ordered queue of
 * events.
 *
 * Everything in the platform (NoC packet delivery, DTU command completion,
 * fiber wakeups) is an event. Ties at the same cycle are broken by
 * insertion order, which keeps the simulation fully deterministic.
 *
 * The engine is the hot path of every benchmark, so it is built for
 * near-zero allocation and constant-time work per event: callbacks are
 * small-buffer optimized (SmallFn) and live in pooled slots recycled
 * through a free list. An event due within WINDOW cycles of now goes
 * into the FIFO bucket of its cycle, found again through an occupancy
 * bitmap; a later one waits in a binary heap of 24-byte keys (cycle,
 * sequence, slot) and moves into its bucket once the clock comes within
 * WINDOW of it. Callback bytes never move while queued, and running an
 * event moves its callback out exactly once. A fiber giving up the core
 * takes the next event itself if it is a fiber wakeup (takeNext(), see
 * sim/fiber.hh); run() counts such events as its own.
 */

#ifndef M3_SIM_EVENT_QUEUE_HH
#define M3_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
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
    uint64_t peakPending = 0;  //!< high-water mark of pending events
    /** Callbacks whose captures exceeded SmallFn::InlineCapacity. The
     *  core DTU/NoC/fiber paths must never contribute here (asserted
     *  in tests); occasional cold-path fallbacks are acceptable. */
    uint64_t callbackHeapFallbacks = 0;

    /** The metrics schema (trace::StatField): every member once. */
    static constexpr trace::StatField<SimStats> FIELDS[] = {
        {"events_scheduled", &SimStats::eventsScheduled},
        {"events_executed", &SimStats::eventsExecuted},
        {"peak_pending", &SimStats::peakPending, trace::STAT_MAX_GAUGE},
        {"callback_heap_fallbacks", &SimStats::callbackHeapFallbacks},
    };
};
static_assert(trace::statsTableCoversAll<SimStats>());

/**
 * A time-ordered queue of callbacks. The queue owns the simulated clock:
 * curCycle() advances exactly when an event at a later cycle is executed.
 */
class EventQueue
{
  public:
    using Callback = SmallFn;

    /** Cycles ahead of now that the buckets cover; a power of two. */
    static constexpr Cycles WINDOW = 1024;

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
            depth.observe(pending() + 1);
        }
        const uint32_t slot = acquireSlot();
        slots[slot].cb = std::move(cb);
        if (when - now < WINDOW)
            append(when, slot);
        else
            heapPush(HeapEntry{when, nextSeq++, slot});
        if (pending() > simStats.peakPending)
            simStats.peakPending = pending();
    }

    /** True if no events are pending. */
    bool empty() const { return pending() == 0; }

    /** Number of pending events. */
    size_t pending() const { return near + heap.size(); }

    /**
     * Execute the earliest pending event, advancing the clock to its cycle.
     * This is the one-event reference: while it runs, takeNext() hands
     * nothing out, so exactly one event executes (plus whatever that
     * event runs itself through a nested run()).
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (empty())
            return false;
        RunFrame *outer = active;
        active = nullptr;
        execAt(nextCycle());
        active = outer;
        return true;
    }

    /**
     * Run events until the queue drains or the clock passes @p limit.
     * Events that takeNext() hands out while this runs count as its own.
     * @return the number of events executed.
     */
    uint64_t
    run(Cycles limit = ~Cycles(0))
    {
        RunFrame frame{limit, 0};
        RunFrame *outer = active;
        active = &frame;
        uint64_t executed = 0;
        while (!empty()) {
            const Cycles when = nextCycle();
            if (when > limit)
                break;
            execAt(when);
            ++executed;
        }
        active = outer;
        return executed + frame.taken;
    }

    /**
     * Take the event that run() would execute next, if it holds an
     * @p Fn, so the caller can execute it in place: the same check
     * against run()'s limit, the same clock advance, and the event is
     * counted as run() would count it. Returns false, and takes
     * nothing, outside run(), past its limit, or when that event holds
     * another callable; the clock may then already stand at the
     * event's cycle, as run() would set it before executing it.
     */
    template <typename Fn>
    bool
    takeNext(Fn &out)
    {
        if (!active || empty())
            return false;
        const Cycles when = nextCycle();
        if (when > active->limit)
            return false;
        advanceTo(when);
        const size_t b = when & MASK;
        Fn *fn = slots[buckets[b].head].cb.template target<Fn>();
        if (!fn)
            return false;
        out = std::move(*fn);
        const uint32_t slot = popHead(b);
        slots[slot].cb.reset();
        releaseSlot(slot);
        simStats.eventsExecuted++;
        ++active->taken;
        return true;
    }

    /** Engine counters (monotonic; never reset by the queue itself). */
    const SimStats &stats() const { return simStats; }

  private:
    /** The innermost run(): its limit and the events takeNext() took
     *  for it. */
    struct RunFrame
    {
        Cycles limit;
        uint64_t taken;
    };

    /** Far-heap key: the callback bytes stay put in their pooled slot. */
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

    /** A pooled event slot, chained through next into its bucket's FIFO
     *  while queued and into the free list while free. */
    struct Slot
    {
        Callback cb;
        uint32_t next = NO_SLOT;
    };

    /** The events of one cycle in the window, in insertion order. */
    struct Bucket
    {
        uint32_t head = NO_SLOT;
        uint32_t tail = NO_SLOT;
    };

    static constexpr uint32_t NO_SLOT = ~uint32_t(0);
    static constexpr Cycles MASK = WINDOW - 1;
    static constexpr size_t WORDS = WINDOW / 64;
    static_assert((WINDOW & MASK) == 0 && WINDOW % 64 == 0);

    uint32_t
    acquireSlot()
    {
        if (freeHead != NO_SLOT) {
            uint32_t s = freeHead;
            freeHead = slots[s].next;
            return s;
        }
        slots.emplace_back();
        return static_cast<uint32_t>(slots.size() - 1);
    }

    void
    releaseSlot(uint32_t s)
    {
        slots[s].next = freeHead;
        freeHead = s;
    }

    /** Queue @p slot last in the bucket of @p when, which is in the
     *  window [now, now + WINDOW). */
    void
    append(Cycles when, uint32_t slot)
    {
        const size_t b = when & MASK;
        Bucket &bk = buckets[b];
        slots[slot].next = NO_SLOT;
        if (bk.tail == NO_SLOT) {
            bk.head = slot;
            occupied[b / 64] |= uint64_t(1) << (b % 64);
        } else {
            slots[bk.tail].next = slot;
        }
        bk.tail = slot;
        ++near;
    }

    /** Cycle of the earliest pending event; the queue is not empty. */
    Cycles
    nextCycle() const
    {
        if (near == 0)
            return heap.front().when;
        // The first occupied bucket at or after now's, wrapping around.
        const size_t from = now & MASK;
        const size_t w = from / 64;
        uint64_t bits = occupied[w] & (~uint64_t(0) << (from % 64));
        size_t i = 0;
        while (bits == 0) {
            ++i;
            bits = occupied[(w + i) % WORDS];
        }
        const size_t b = ((w + i) % WORDS) * 64 +
                         static_cast<size_t>(std::countr_zero(bits));
        return now + ((b - from) & MASK);
    }

    /**
     * Move the clock to @p when, the cycle of the earliest pending
     * event. Moving the clock pulls the heap events that enter the
     * window into their buckets first, in heap order: a far event for a
     * cycle was scheduled before any event that went straight into its
     * bucket, so each bucket stays in insertion order.
     */
    void
    advanceTo(Cycles when)
    {
        if (when == now)
            return;
        now = when;
        while (!heap.empty() && heap.front().when - now < WINDOW) {
            const HeapEntry e = heap.front();
            heapPopRoot();
            append(e.when, e.slot);
        }
    }

    /** Unlink and return the first slot of the non-empty bucket @p b. */
    uint32_t
    popHead(size_t b)
    {
        Bucket &bk = buckets[b];
        const uint32_t slot = bk.head;
        bk.head = slots[slot].next;
        if (bk.head == NO_SLOT) {
            bk.tail = NO_SLOT;
            occupied[b / 64] &= ~(uint64_t(1) << (b % 64));
        }
        --near;
        return slot;
    }

    /**
     * Execute the first event of cycle @p when, the earliest pending
     * one. The callback is moved out of its slot and the slot is
     * recycled *before* invocation, because the callback may schedule
     * new events (growing the slot pool) or recurse into run().
     */
    void
    execAt(Cycles when)
    {
        advanceTo(when);
        const uint32_t slot = popHead(when & MASK);
        Callback cb = std::move(slots[slot].cb);
        releaseSlot(slot);
        simStats.eventsExecuted++;
        cb();
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

    Cycles now = 0;
    uint64_t nextSeq = 0;
    /** Buckets of the cycles [now, now + WINDOW), by cycle % WINDOW. */
    std::array<Bucket, WINDOW> buckets;
    /** One bit per non-empty bucket. */
    std::array<uint64_t, WORDS> occupied{};
    /** Events in the buckets. */
    size_t near = 0;
    /** Events due at now + WINDOW or later, by (when, seq). */
    std::vector<HeapEntry> heap;
    std::vector<Slot> slots;
    uint32_t freeHead = NO_SLOT;
    /** The innermost run() in progress, or nullptr (also in runOne()). */
    RunFrame *active = nullptr;
    SimStats simStats;
};

} // namespace m3

#endif // M3_SIM_EVENT_QUEUE_HH
