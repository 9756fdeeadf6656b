/**
 * @file
 * The request-tracing layer's own contract (DESIGN.md §13): tracing a
 * request may never move a simulated cycle, must record nothing when
 * off, and must export byte-identical artifacts across repeated runs —
 * the SLO report is a function of the workload, not of the host.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"
#include "workloads/openloop.hh"

namespace m3
{
namespace workloads
{
namespace
{

/** Every test starts and ends with all three sinks off and empty. */
class ReqTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::Tracer::disable();
        trace::Tracer::reset();
        trace::Metrics::disable();
        trace::Metrics::reset();
        trace::ReqTrace::disable();
        trace::ReqTrace::reset();
    }
    void TearDown() override { SetUp(); }
};

/** A small but non-trivial serving run: 4 clients, both classes. */
OpenLoopOpts
smallRun()
{
    OpenLoopOpts o;
    o.clients = 4;
    o.requestsPerClient = 25;
    o.meanGapCycles = 15000;
    o.seed = 3;
    return o;
}

/** Pull the first `"key": N` after @p from; asserts the key exists. */
uint64_t
jsonU64(const std::string &doc, const std::string &key, size_t from = 0)
{
    std::string needle = "\"" + key + "\": ";
    size_t pos = doc.find(needle, from);
    EXPECT_NE(pos, std::string::npos) << "missing key " << key;
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(doc.c_str() + pos + needle.size(), nullptr, 10);
}

size_t
countSub(const std::string &doc, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = doc.find(needle); pos != std::string::npos;
         pos = doc.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST_F(ReqTraceTest, TracingDoesNotMoveASingleCycle)
{
    OpenLoopResult off = runOpenLoop(smallRun());
    ASSERT_EQ(off.rc, 0);
    EXPECT_EQ(trace::ReqTrace::requestCount(), 0u);
    EXPECT_EQ(trace::ReqTrace::spanCount(), 0u);

    trace::ReqTrace::enable();
    OpenLoopResult on = runOpenLoop(smallRun());
    ASSERT_EQ(on.rc, 0);
    EXPECT_GT(trace::ReqTrace::requestCount(), 0u);

    // Zero drift in either direction: the traced run replays the exact
    // same simulated machine, cycle for cycle and event for event.
    EXPECT_EQ(off.wallCycles, on.wallCycles);
    EXPECT_EQ(off.events, on.events);
    EXPECT_EQ(off.completed, on.completed);
}

TEST_F(ReqTraceTest, DisabledSinkStaysEmptyAndEmitsNoSlo)
{
    OpenLoopResult r = runOpenLoop(smallRun());
    ASSERT_EQ(r.rc, 0);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(trace::ReqTrace::requestCount(), 0u);
    EXPECT_EQ(trace::ReqTrace::completedCount(), 0u);
    EXPECT_EQ(trace::ReqTrace::spanCount(), 0u);
    EXPECT_EQ(trace::ReqTrace::creditStallCycles(), 0u);
    EXPECT_TRUE(r.sloJson.empty());
}

TEST_F(ReqTraceTest, SloReportIsByteIdenticalAcrossRepeats)
{
    trace::ReqTrace::enable();
    OpenLoopResult a = runOpenLoop(smallRun());
    ASSERT_EQ(a.rc, 0);
    OpenLoopResult b = runOpenLoop(smallRun());
    ASSERT_EQ(b.rc, 0);
    ASSERT_FALSE(a.sloJson.empty());
    EXPECT_EQ(a.sloJson, b.sloJson);
}

TEST_F(ReqTraceTest, MultiKernelArtifactsAreByteIdenticalAcrossRepeats)
{
    // Two kernel domains: requests cross the inter-kernel boundary, and
    // both the SLO report and the Chrome trace must replay byte for byte.
    std::string slo[2], traceJson[2];
    for (int i = 0; i < 2; ++i) {
        trace::Tracer::reset();
        trace::Tracer::enable();
        trace::ReqTrace::enable();
        OpenLoopOpts o = smallRun();
        o.numKernels = 2;
        OpenLoopResult r = runOpenLoop(o);
        ASSERT_EQ(r.rc, 0) << "run " << i;
        slo[i] = r.sloJson;
        traceJson[i] = trace::Tracer::toJson();
    }
    ASSERT_FALSE(slo[0].empty());
    EXPECT_EQ(slo[0], slo[1]);
    EXPECT_EQ(traceJson[0], traceJson[1]);

    // Every request leg's flow arrow pairs up: one 's' per 'f'.
    EXPECT_GT(countSub(traceJson[0], "\"ph\":\"s\""), 0u);
    EXPECT_EQ(countSub(traceJson[0], "\"ph\":\"s\""),
              countSub(traceJson[0], "\"ph\":\"f\""));
}

TEST_F(ReqTraceTest, DecompositionComponentsFitInsideTheTotal)
{
    trace::ReqTrace::enable();
    OpenLoopResult r = runOpenLoop(smallRun());
    ASSERT_EQ(r.rc, 0);
    std::string slo = trace::ReqTrace::sloJson();
    for (const char *cls : {"\"echo\"", "\"kv\""}) {
        size_t at = slo.find(cls);
        ASSERT_NE(at, std::string::npos) << cls;
        uint64_t mean = jsonU64(slo, "mean", at);
        uint64_t parts = jsonU64(slo, "queue", at) +
                         jsonU64(slo, "credit_stall", at) +
                         jsonU64(slo, "noc", at) +
                         jsonU64(slo, "server_queue", at) +
                         jsonU64(slo, "service", at);
        EXPECT_GT(mean, 0u) << cls;
        // Mean component folds are floor()ed independently, so allow
        // the rounding slack (5 components, < 1 cycle each).
        EXPECT_LE(parts, mean + 5) << cls;
        uint64_t p50 = jsonU64(slo, "p50", at);
        uint64_t p99 = jsonU64(slo, "p99", at);
        uint64_t p999 = jsonU64(slo, "p999", at);
        uint64_t max = jsonU64(slo, "max", at);
        EXPECT_LE(p50, p99) << cls;
        EXPECT_LE(p99, p999) << cls;
        EXPECT_LE(p999, max) << cls;
    }
}

TEST_F(ReqTraceTest, BurstyArrivalsRecordCreditStalls)
{
    trace::ReqTrace::enable();
    OpenLoopOpts o = smallRun();
    // Arrivals far faster than the service rate: the 1-credit channel
    // must make clients genuinely wait for credits.
    o.meanGapCycles = 500;
    o.serviceCycles = 4000;
    OpenLoopResult r = runOpenLoop(o);
    ASSERT_EQ(r.rc, 0);
    EXPECT_GT(trace::ReqTrace::creditStallCycles(), 0u);
}

TEST_F(ReqTraceTest, MetricsCarryQuantilesNextToBuckets)
{
    trace::ReqTrace::enable();
    trace::Metrics::enable();
    OpenLoopResult r = runOpenLoop(smallRun());
    ASSERT_EQ(r.rc, 0);
    std::string m = trace::Metrics::toJson();
    EXPECT_NE(m.find("\"schema\": 2"), std::string::npos);
    EXPECT_NE(m.find("req.echo.total"), std::string::npos);
    EXPECT_NE(m.find("req.kv.service"), std::string::npos);
    // Every histogram carries the estimator block.
    EXPECT_EQ(countSub(m, "\"quantiles\""), countSub(m, "\"buckets\""));
    size_t at = m.find("req.echo.total");
    ASSERT_NE(at, std::string::npos);
    // The log2-bucket estimate brackets the exact nearest-rank value
    // from the SLO report within one power of two.
    uint64_t est = jsonU64(m, "p50", at);
    std::string slo = trace::ReqTrace::sloJson();
    size_t cat = slo.find("\"echo\"");
    ASSERT_NE(cat, std::string::npos);
    uint64_t exact = jsonU64(slo, "p50", cat);
    EXPECT_GE(est, exact);
    EXPECT_LE(est, exact * 2 + 1);
}

} // anonymous namespace
} // namespace workloads
} // namespace m3
