/**
 * @file
 * Cycle-accurate event tracing with Chrome trace-event JSON export.
 *
 * The tracer appends typed events (span begin/end, complete slices,
 * instants, counters, flow arrows), each stamped with its simulated
 * cycle and track, to one log of fixed-size records, and loses none of
 * them. Export derives the Chrome trace-event document that
 * chrome://tracing and Perfetto load directly: the log sorted by track,
 * then cycle, then recording order. Tracks follow a fixed id
 * convention: software on PE n traces on track n, the DTU of node n on
 * dtuTrack(n), and the NoC attachment point of node n on nocTrack(n), so
 * spans from different layers of the same PE never have to nest across
 * layers.
 *
 * The subsystem is always compiled and zero-cost when off: every
 * instrumentation site is guarded by the M3_TRACE_ON macro, which is a
 * single predicted-untaken branch on one global flag. Tracing is purely
 * observational — it never schedules events or advances the clock — so
 * enabling it cannot move a single simulated cycle.
 *
 * This library sits below base/ (accounting hooks into it), so it must
 * not depend on any other m3 library: plain C++ standard library only.
 */

#ifndef M3_TRACE_TRACE_HH
#define M3_TRACE_TRACE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace m3
{
namespace trace
{

/** Identifier of one export track (a "thread" in the Chrome format). */
using TrackId = uint32_t;

/** Marker for "this object is not bound to any track". */
constexpr TrackId NO_TRACK = ~TrackId(0);

/** Track id of the DTU attached to NoC node @p node. */
constexpr TrackId
dtuTrack(uint32_t node)
{
    return 0x1000 + node;
}

/** Track id of the NoC attachment point of node @p node. */
constexpr TrackId
nocTrack(uint32_t node)
{
    return 0x2000 + node;
}

/** Track id of request-level spans/flows touching node @p node. */
constexpr TrackId
reqTrack(uint32_t node)
{
    return 0x3000 + node;
}

/** Takes the next chunk of an export. @return false to stop it. */
using ChunkSink = std::function<bool(std::string_view)>;

/**
 * The global trace sink. All members are static: the simulator is
 * single-threaded and harnesses trace at most one machine at a time, so
 * a process-wide sink keeps the hot-path guard down to one load+branch.
 */
class Tracer
{
  public:
    /** The one flag every instrumentation site branches on. */
    static bool on;

    /** Reads the simulated cycle of the machine being traced. */
    using ClockFn = uint64_t (*)(const void *ctx);

    static void enable() { on = true; }
    static void disable() { on = false; }

    /** Drop all recorded events and track names; keep the enable state. */
    static void reset();

    /**
     * Wire the simulated clock. Every machine (M3System) registers its
     * event queue here on construction; events recorded without a clock
     * carry cycle 0.
     */
    static void setClock(ClockFn fn, const void *ctx);
    /** Unregister the clock, but only if @p ctx is still the owner. */
    static void clearClock(const void *ctx);

    /** Current simulated cycle as seen by the tracer (0 if no clock). */
    static uint64_t nowCycle();

    /** Name a track (exported as the Chrome thread name; last wins). */
    static void trackName(TrackId t, const std::string &name);

    // --- event recording (call only when `on`; names must be string
    // --- literals or otherwise outlive the sink) ----------------------

    /** Open a span on @p t at the current cycle (phase B). */
    static void
    spanBegin(TrackId t, const char *name)
    {
        record(t, 'B', nowCycle(), 0, name);
    }
    /** Close the innermost span on @p t (phase E). */
    static void spanEnd(TrackId t) { record(t, 'E', nowCycle(), 0, ""); }
    /** A complete slice [ts, ts+dur] on @p t (phase X). */
    static void
    complete(TrackId t, uint64_t ts, uint64_t dur, const char *name)
    {
        record(t, 'X', ts, dur, name);
    }
    /** An instantaneous event at the current cycle (phase i). */
    static void
    instant(TrackId t, const char *name)
    {
        record(t, 'i', nowCycle(), 0, name);
    }
    /** A counter sample at the current cycle (phase C). */
    static void
    counter(TrackId t, const char *name, uint64_t value)
    {
        record(t, 'C', nowCycle(), value, name);
    }
    /** Flow arrow start at @p ts (phase s); @p id pairs it with the end. */
    static void
    flowBegin(TrackId t, uint64_t ts, uint64_t id, const char *name)
    {
        record(t, 's', ts, id, name);
    }
    /** Flow arrow end at @p ts (phase f, binding point "enclosing"). */
    static void
    flowEnd(TrackId t, uint64_t ts, uint64_t id, const char *name)
    {
        record(t, 'f', ts, id, name);
    }

    /** A fresh flow id (reset() restarts the sequence: determinism). */
    static uint64_t nextFlowId();

    // --- introspection / export ---------------------------------------

    /** Events recorded since the last reset(), over all tracks. */
    static uint64_t eventCount();

    /**
     * Export everything as one Chrome trace-event JSON document, handed
     * to @p deliver in chunks of about 1 MiB, so the whole document never
     * sits in memory. The output is a pure function of the recorded
     * events: two identical seeded runs produce byte-identical JSON.
     * @return false if @p deliver refused a chunk.
     */
    static bool writeJson(const ChunkSink &deliver);

    /** The writeJson() document as one string. */
    static std::string toJson();

  private:
    /**
     * Append one event to the log: Chrome phase @p phase at cycle @p ts
     * on track @p t. @p arg is the phase's payload: the duration of an
     * 'X', the value of a 'C', the flow id of an 's' or 'f'.
     */
    static void record(TrackId t, char phase, uint64_t ts, uint64_t arg,
                       const char *name);
};

/**
 * RAII span for functions with multiple exits. Latches the enable flag
 * at construction so a toggle mid-span cannot unbalance B/E events.
 */
class ScopedSpan
{
  public:
    ScopedSpan(TrackId track, const char *name)
        : track(track), active(__builtin_expect(Tracer::on, 0))
    {
        if (active)
            Tracer::spanBegin(track, name);
    }
    ~ScopedSpan()
    {
        if (active)
            Tracer::spanEnd(track);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    TrackId track;
    bool active;
};

} // namespace trace
} // namespace m3

/**
 * The hot-path guard: expands to a single predicted-untaken branch. Use
 * as `if (M3_TRACE_ON) Tracer::spanBegin(...)`.
 */
#define M3_TRACE_ON (__builtin_expect(::m3::trace::Tracer::on, 0))

#endif // M3_TRACE_TRACE_HH
