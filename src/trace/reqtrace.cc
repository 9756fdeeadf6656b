#include "trace/reqtrace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <vector>

#include "trace/metrics.hh"

namespace m3
{
namespace trace
{

bool ReqTrace::on = false;

namespace
{

/** One request/reply round trip. All timestamps 0 until observed. */
struct Span
{
    uint64_t send = 0;
    uint64_t arrive = 0;
    uint64_t fetch = 0;
    uint64_t replySend = 0;
    uint64_t replyArrive = 0;
    uint32_t srcNode = 0;
    uint32_t dstNode = 0;
};

/** One in-flight request: decomposition accumulators + its spans. */
struct Req
{
    uint32_t cls = 0;
    uint64_t gen = 0;
    uint64_t queued = 0;
    uint64_t creditStall = 0;
    uint64_t noc = 0;
    uint64_t serverQueue = 0;
    uint64_t service = 0;
    std::vector<Span> spans;
};

/**
 * Per-class fold of completed requests. Totals are retained per request
 * so the SLO report can compute *exact* nearest-rank quantiles (the
 * metric histograms only keep log2 buckets); the vector is sorted at
 * export time.
 */
struct ClassAgg
{
    std::string name;
    uint64_t count = 0;
    uint64_t sumTotal = 0;
    uint64_t sumQueued = 0;
    uint64_t sumCreditStall = 0;
    uint64_t sumNoc = 0;
    uint64_t sumServerQueue = 0;
    uint64_t sumService = 0;
    uint64_t maxTotal = 0;
    std::vector<uint64_t> totals;
    /** req.<name>.* histograms, resolved on the class's first end():
     *  total, queue, credit_stall, noc, server_queue, service. */
    Histogram *hists[6] = {};
};

struct Sink
{
    // Class names live in a deque: element addresses are stable, so the
    // Tracer may borrow c_str() pointers for event names.
    std::deque<ClassAgg> classes;

    std::map<uint64_t, Req> reqs;  // keyed by caller-assigned request id

    uint64_t begun = 0;
    uint64_t completed = 0;
    uint64_t spansOpened = 0;
    uint64_t stallCycles = 0;
    uint64_t firstGen = 0;
    uint64_t lastGen = 0;
    uint64_t lastEnd = 0;
};

Sink &
sink()
{
    static Sink s;
    return s;
}

/**
 * Flow-arrow ids for request legs. Bit 63 namespaces them away from the
 * NoC packet flows, whose small serial ids leave it clear. leg 0 =
 * request message, leg 1 = its reply.
 */
constexpr uint64_t
flowId(uint64_t reqId, uint32_t spanId, uint32_t leg)
{
    return (1ull << 63) | (reqId << 17) | (static_cast<uint64_t>(spanId) << 1) |
           leg;
}

Req *
findReq(Sink &s, ReqCtx ctx)
{
    auto it = s.reqs.find(reqCtxId(ctx));
    return it == s.reqs.end() ? nullptr : &it->second;
}

Span *
findSpan(Sink &s, ReqCtx ctx)
{
    Req *r = findReq(s, ctx);
    if (!r)
        return nullptr;
    uint32_t sp = reqCtxSpan(ctx);
    return sp < r->spans.size() ? &r->spans[sp] : nullptr;
}

const char *
className(Sink &s, uint32_t cls)
{
    return cls < s.classes.size() ? s.classes[cls].name.c_str() : "req";
}

void
appendDecimal(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

/** Nearest-rank quantile (q in permille) over a sorted sample vector. */
uint64_t
quantile(const std::vector<uint64_t> &sorted, uint32_t permille)
{
    if (sorted.empty())
        return 0;
    size_t idx = (sorted.size() - 1) * permille / 1000;
    return sorted[idx];
}

} // anonymous namespace

void
ReqTrace::reset()
{
    Sink &s = sink();
    s.reqs.clear();
    for (ClassAgg &c : s.classes) {
        std::string name = c.name;
        c = ClassAgg{};
        c.name = std::move(name);
    }
    s.begun = s.completed = s.spansOpened = s.stallCycles = 0;
    s.firstGen = s.lastGen = s.lastEnd = 0;
}

uint32_t
ReqTrace::registerClass(const std::string &name)
{
    Sink &s = sink();
    for (uint32_t i = 0; i < s.classes.size(); ++i)
        if (s.classes[i].name == name)
            return i;
    s.classes.emplace_back();
    s.classes.back().name = name;
    return static_cast<uint32_t>(s.classes.size() - 1);
}

ReqCtx
ReqTrace::begin(uint32_t cls, uint64_t reqId, uint64_t genCycle)
{
    Sink &s = sink();
    Req &r = s.reqs[reqId];
    r.cls = cls;
    r.gen = genCycle;
    s.begun++;
    if (s.firstGen == 0 || genCycle < s.firstGen)
        s.firstGen = genCycle;
    if (genCycle > s.lastGen)
        s.lastGen = genCycle;
    return reqCtxMake(cls, reqId, 0xffff);  // root: no span yet
}

void
ReqTrace::noteQueued(ReqCtx ctx, uint64_t cycles)
{
    Sink &s = sink();
    if (Req *r = findReq(s, ctx))
        r->queued += cycles;
}

void
ReqTrace::noteCreditStall(ReqCtx ctx, uint64_t cycles)
{
    Sink &s = sink();
    if (Req *r = findReq(s, ctx)) {
        r->creditStall += cycles;
        s.stallCycles += cycles;
    }
}

void
ReqTrace::end(ReqCtx ctx, uint64_t cycle)
{
    Sink &s = sink();
    auto it = s.reqs.find(reqCtxId(ctx));
    if (it == s.reqs.end())
        return;
    Req &r = it->second;

    uint64_t total = cycle >= r.gen ? cycle - r.gen : 0;
    if (r.cls < s.classes.size()) {
        ClassAgg &c = s.classes[r.cls];
        c.count++;
        c.sumTotal += total;
        c.sumQueued += r.queued;
        c.sumCreditStall += r.creditStall;
        c.sumNoc += r.noc;
        c.sumServerQueue += r.serverQueue;
        c.sumService += r.service;
        c.maxTotal = std::max(c.maxTotal, total);
        c.totals.push_back(total);

        if (M3_METRICS_ON) {
            static constexpr const char *parts[] = {
                "total", "queue", "credit_stall", "noc", "server_queue",
                "service"};
            if (!c.hists[0])
                for (size_t i = 0; i < std::size(c.hists); ++i)
                    c.hists[i] = &Metrics::histogram("req." + c.name + "." +
                                                     parts[i]);
            const uint64_t values[] = {total, r.queued, r.creditStall,
                                       r.noc, r.serverQueue, r.service};
            for (size_t i = 0; i < std::size(c.hists); ++i)
                c.hists[i]->observe(values[i]);
        }
    }
    // The client-side request slice: first send to completion, on the
    // request track of the issuing node.
    if (M3_TRACE_ON && !r.spans.empty() && cycle >= r.spans[0].send)
        Tracer::complete(reqTrack(r.spans[0].srcNode), r.spans[0].send,
                         cycle - r.spans[0].send, className(s, r.cls));
    s.completed++;
    if (cycle > s.lastEnd)
        s.lastEnd = cycle;
    s.reqs.erase(it);
}

ReqCtx
ReqTrace::msgSent(ReqCtx parent, uint64_t cycle, uint32_t srcNode)
{
    Sink &s = sink();
    Req *r = findReq(s, parent);
    if (!r || r->spans.size() >= 0x7fff)
        return 0;
    uint32_t spanId = static_cast<uint32_t>(r->spans.size());
    Span sp;
    sp.send = cycle;
    sp.srcNode = srcNode;
    r->spans.push_back(sp);
    s.spansOpened++;
    uint64_t reqId = reqCtxId(parent);
    if (M3_TRACE_ON)
        Tracer::flowBegin(reqTrack(srcNode), cycle, flowId(reqId, spanId, 0),
                          className(s, r->cls));
    return reqCtxMake(r->cls, reqId, spanId);
}

void
ReqTrace::msgArrived(ReqCtx ctx, uint64_t cycle, uint32_t dstNode, bool reply)
{
    Sink &s = sink();
    Req *r = findReq(s, ctx);
    Span *sp = findSpan(s, ctx);
    if (!r || !sp)
        return;
    if (reply) {
        sp->replyArrive = cycle;
        if (cycle >= sp->replySend && sp->replySend)
            r->noc += cycle - sp->replySend;
        if (M3_TRACE_ON)
            Tracer::flowEnd(reqTrack(dstNode), cycle,
                            flowId(reqCtxId(ctx), reqCtxSpan(ctx), 1),
                            className(s, r->cls));
    } else {
        sp->arrive = cycle;
        sp->dstNode = dstNode;
        if (cycle >= sp->send)
            r->noc += cycle - sp->send;
        if (M3_TRACE_ON)
            Tracer::flowEnd(reqTrack(dstNode), cycle,
                            flowId(reqCtxId(ctx), reqCtxSpan(ctx), 0),
                            className(s, r->cls));
    }
}

void
ReqTrace::msgFetched(ReqCtx ctx, uint64_t cycle)
{
    Sink &s = sink();
    Req *r = findReq(s, ctx);
    Span *sp = findSpan(s, ctx);
    if (!r || !sp)
        return;
    // A fetch after the reply already arrived is the *client* picking the
    // reply out of its ring — the span is over; total latency covers it.
    if (sp->replyArrive)
        return;
    if (!sp->fetch) {
        sp->fetch = cycle;
        if (cycle >= sp->arrive && sp->arrive)
            r->serverQueue += cycle - sp->arrive;
    }
}

void
ReqTrace::replySent(ReqCtx ctx, uint64_t cycle, uint32_t node)
{
    Sink &s = sink();
    Req *r = findReq(s, ctx);
    Span *sp = findSpan(s, ctx);
    if (!r || !sp || sp->replySend)
        return;
    sp->replySend = cycle;
    if (cycle >= sp->fetch && sp->fetch)
        r->service += cycle - sp->fetch;
    if (M3_TRACE_ON) {
        if (sp->fetch && cycle >= sp->fetch)
            Tracer::complete(reqTrack(node), sp->fetch, cycle - sp->fetch,
                             className(s, r->cls));
        Tracer::flowBegin(reqTrack(node), cycle,
                          flowId(reqCtxId(ctx), reqCtxSpan(ctx), 1),
                          className(s, r->cls));
    }
}

uint64_t
ReqTrace::requestCount()
{
    return sink().begun;
}

uint64_t
ReqTrace::completedCount()
{
    return sink().completed;
}

uint64_t
ReqTrace::spanCount()
{
    return sink().spansOpened;
}

uint64_t
ReqTrace::creditStallCycles()
{
    return sink().stallCycles;
}

uint64_t
ReqTrace::firstGenCycle()
{
    return sink().firstGen;
}

uint64_t
ReqTrace::lastGenCycle()
{
    return sink().lastGen;
}

uint64_t
ReqTrace::lastEndCycle()
{
    return sink().lastEnd;
}

std::string
ReqTrace::sloJson()
{
    Sink &s = sink();
    std::string out = "{";
    bool first = true;
    for (ClassAgg &c : s.classes) {
        if (c.count == 0)
            continue;
        std::sort(c.totals.begin(), c.totals.end());
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + c.name + "\": {";
        out += "\"count\": ";
        appendDecimal(out, c.count);
        out += ", \"p50\": ";
        appendDecimal(out, quantile(c.totals, 500));
        out += ", \"p99\": ";
        appendDecimal(out, quantile(c.totals, 990));
        out += ", \"p999\": ";
        appendDecimal(out, quantile(c.totals, 999));
        out += ", \"max\": ";
        appendDecimal(out, c.maxTotal);
        out += ", \"mean\": ";
        appendDecimal(out, c.sumTotal / c.count);
        // Mean per-request decomposition: comparable to the mean total
        // above, so readers see at a glance where a request's cycles go.
        out += ", \"decomposition\": {";
        out += "\"queue\": ";
        appendDecimal(out, c.sumQueued / c.count);
        out += ", \"credit_stall\": ";
        appendDecimal(out, c.sumCreditStall / c.count);
        out += ", \"noc\": ";
        appendDecimal(out, c.sumNoc / c.count);
        out += ", \"server_queue\": ";
        appendDecimal(out, c.sumServerQueue / c.count);
        out += ", \"service\": ";
        appendDecimal(out, c.sumService / c.count);
        out += "}}";
    }
    out += "}";
    return out;
}

} // namespace trace
} // namespace m3
