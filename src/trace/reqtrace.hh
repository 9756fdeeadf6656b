/**
 * @file
 * Causal request tracing: a ReqCtx (request id + span id + class) that
 * rides along DTU messages as *host-side shadow state* — zero simulated
 * cycles, zero bytes of simulated payload — and is propagated
 * automatically through libm3 gate sends/replies, kernel syscall
 * handling, the inter-kernel protocol and service (m3fs) ops.
 *
 * The propagation rules (DESIGN.md §13):
 *   - a fiber adopts the context of every message it fetches (fetchMsg),
 *     and keeps it until the next fetch;
 *   - every DTU send issued while a fiber carries a context opens a new
 *     span of that request (one span per request/reply round trip);
 *   - a DTU reply closes the span stored in the ring slot's shadow, so
 *     deferred replies (the kernel's continuation-style syscalls) close
 *     the right span no matter which context the replier runs under.
 *
 * Each span records five causally ordered timestamps (send, arrive,
 * fetch, reply-send, reply-arrive) from which the per-request latency
 * decomposition is folded:
 *   queue        client-side queueing (arrival to first send attempt)
 *   credit_stall cycles spent waiting for send credits
 *   noc          wire time, both directions, over all spans
 *   server_queue message sat in the server ring before being fetched
 *   service      fetch to reply-send at the server, over all spans
 *   total        request generation to client-side completion
 *
 * Exports: Chrome-trace slices + flow arrows on per-node request tracks
 * (reqTrack(n), emitted through the Tracer so they merge into the same
 * JSON document), per-class log2 histograms into the metric registry
 * (req.<class>.*), and an exact per-class SLO summary (p50/p99/p999)
 * from retained per-request totals (sloJson()).
 *
 * Like the other two sinks in this library the subsystem is always
 * compiled, gated by one predicted-untaken branch (M3_REQTRACE_ON), and
 * purely observational: enabling it cannot move a simulated cycle.
 * Standard C++ only — this library sits below everything else.
 */

#ifndef M3_TRACE_REQTRACE_HH
#define M3_TRACE_REQTRACE_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"

namespace m3
{
namespace trace
{

/**
 * The request context carried on messages: one packed word so it rides
 * in existing closure captures without pushing them out of SmallFn's
 * inline storage. 0 means "no context".
 *
 * Layout: [63..56] class id, [55..16] request id, [15..0] span id.
 * Request ids are caller-assigned and must be non-zero and unique for
 * the run (the open-loop driver uses client*2^20 + seq + 1), so context
 * words are a pure function of the workload — no global allocation
 * order is involved.
 */
using ReqCtx = uint64_t;

constexpr ReqCtx
reqCtxMake(uint32_t cls, uint64_t reqId, uint32_t spanId)
{
    return (static_cast<uint64_t>(cls & 0xff) << 56) |
           ((reqId & 0xffffffffffull) << 16) | (spanId & 0xffff);
}

constexpr uint32_t reqCtxClass(ReqCtx c) { return c >> 56; }
constexpr uint64_t reqCtxId(ReqCtx c) { return (c >> 16) & 0xffffffffffull; }
constexpr uint32_t reqCtxSpan(ReqCtx c) { return c & 0xffff; }

/**
 * The request-tracing sink. Static members like Tracer/Metrics: at most
 * one machine traces requests at a time and the hot-path guard must be
 * one load+branch.
 */
class ReqTrace
{
  public:
    /** The one flag every carry/record site branches on. */
    static bool on;

    static void enable() { on = true; }
    static void disable() { on = false; }

    /** Drop all requests, spans and class aggregates (classes stay
     *  registered: their names are interned for the process lifetime). */
    static void reset();

    /**
     * Intern a request class (e.g. "echo", "kv") and return its id.
     * Register classes before traffic starts, in a deterministic order;
     * the returned id is the registration index. Re-registering a name
     * returns the existing id.
     */
    static uint32_t registerClass(const std::string &name);

    // --- request lifecycle (driver-side; call only when `on`) ----------

    /**
     * Begin request @p reqId of class @p cls, generated (arrival time of
     * the open-loop source, not first send) at @p genCycle. Returns the
     * root context to install on the issuing fiber.
     */
    static ReqCtx begin(uint32_t cls, uint64_t reqId, uint64_t genCycle);

    /** Client-side queueing delay (generation to first send attempt). */
    static void noteQueued(ReqCtx ctx, uint64_t cycles);

    /** Cycles the client stalled waiting for send credits. */
    static void noteCreditStall(ReqCtx ctx, uint64_t cycles);

    /**
     * The request completed at @p cycle (client consumed the reply).
     * Folds the latency decomposition into the class aggregate (and the
     * req.<class>.* metric histograms when metrics are on) and emits
     * the client-side request slice onto the request track.
     */
    static void end(ReqCtx ctx, uint64_t cycle);

    // --- DTU carry hooks (called from the message path) ----------------

    /**
     * A message was sent at @p cycle from node @p srcNode while the
     * sender carried @p parent: opens a new span of the request and
     * returns the context to ship with the message.
     */
    static ReqCtx msgSent(ReqCtx parent, uint64_t cycle, uint32_t srcNode);

    /** The message (or its reply, @p reply) arrived at @p dstNode. */
    static void msgArrived(ReqCtx ctx, uint64_t cycle, uint32_t dstNode,
                           bool reply);

    /** The receiver fetched the message out of its ring. */
    static void msgFetched(ReqCtx ctx, uint64_t cycle);

    /** The receiver replied at @p cycle from node @p node: closes the
     *  span's service interval and emits the server slice. */
    static void replySent(ReqCtx ctx, uint64_t cycle, uint32_t node);

    // --- introspection / export ---------------------------------------

    /** Requests begun since enable()/reset(). */
    static uint64_t requestCount();
    /** Requests completed (end() called). */
    static uint64_t completedCount();
    /** Spans opened across all requests. */
    static uint64_t spanCount();
    /** Total credit-stall cycles folded so far (tests). */
    static uint64_t creditStallCycles();

    /** Earliest generation cycle over all requests (0 if none). */
    static uint64_t firstGenCycle();
    /** Latest generation cycle over all requests. */
    static uint64_t lastGenCycle();
    /** Latest completion cycle over all requests. */
    static uint64_t lastEndCycle();

    /**
     * Per-class SLO summary as one JSON object keyed by class name:
     * exact count, p50/p99/p999/max/mean total latency (nearest-rank
     * over retained per-request totals) and the mean latency
     * decomposition. Deterministic: pure integers, classes in
     * registration order.
     */
    static std::string sloJson();
};

} // namespace trace
} // namespace m3

/** The hot-path guard for request-tracing carry/record sites. */
#define M3_REQTRACE_ON (__builtin_expect(::m3::trace::ReqTrace::on, 0))

#endif // M3_TRACE_REQTRACE_HH
