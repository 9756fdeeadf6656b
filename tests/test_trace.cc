/**
 * @file
 * The observability layer's own contract: tracing must be deterministic
 * (byte-identical JSON across identical seeded runs), free when off
 * (zero events recorded, zero simulated-cycle drift when on), and the
 * metrics dump must keep its schema so CI can parse it blindly.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "libm3/m3system.hh"
#include "m3fs/client.hh"
#include "m3fs/distfs.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "workloads/micro.hh"
#include "workloads/runners.hh"

namespace m3
{
namespace workloads
{
namespace
{

/** Every test starts and ends with both subsystems off and empty. */
class Trace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::Tracer::disable();
        trace::Tracer::reset();
        trace::Metrics::disable();
        trace::Metrics::reset();
    }
    void TearDown() override { SetUp(); }
};

/**
 * A small full-stack workload with m3fs traffic and fault knobs; copies
 * the machine's fault counts to @p faultStats when given.
 */
std::tuple<Cycles, int>
statRun(double dropRate, FaultStats *faultStats = nullptr)
{
    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.fsSpec.dirs = {"/d"};
    if (dropRate > 0) {
        cfg.faults.seed = 7;
        cfg.faults.dropRate = dropRate;
        cfg.faults.dropPairs = {{2, 1}};
    }
    M3System sys(cfg);
    sys.runRoot("t", [] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto fs = m3fs::M3fsSession::create(env, e);
        if (e != Error::None)
            return 1;
        fs->callTimeout = 20000;
        fs->callRetries = 8;
        for (int i = 0; i < 10; ++i) {
            FileInfo info;
            if (fs->stat("/d", info) != Error::None)
                return 2;
        }
        return 0;
    });
    sys.simulate();
    if (faultStats && sys.faultPlan())
        *faultStats = sys.faultPlan()->stats();
    return {sys.now(), sys.rootExitCode()};
}

TEST_F(Trace, DisabledTracerRecordsNothing)
{
    auto [wall, rc] = statRun(0);
    ASSERT_EQ(rc, 0);
    EXPECT_GT(wall, 0u);
    EXPECT_EQ(trace::Tracer::eventCount(), 0u);
    EXPECT_EQ(trace::Metrics::toJson().find("dtu."), std::string::npos);
}

TEST_F(Trace, TracingDoesNotMoveASingleCycle)
{
    auto [plainWall, rc0] = statRun(0);
    ASSERT_EQ(rc0, 0);

    trace::Tracer::enable();
    trace::Metrics::enable();
    auto [tracedWall, rc1] = statRun(0);
    ASSERT_EQ(rc1, 0);

    EXPECT_EQ(plainWall, tracedWall);
    EXPECT_GT(trace::Tracer::eventCount(), 0u);
}

TEST_F(Trace, TraceJsonIsByteIdenticalAcrossRuns)
{
    trace::Tracer::enable();
    auto [w0, rc0] = statRun(0);
    ASSERT_EQ(rc0, 0);
    const std::string a = trace::Tracer::toJson();

    trace::Tracer::reset();
    auto [w1, rc1] = statRun(0);
    ASSERT_EQ(rc1, 0);
    const std::string b = trace::Tracer::toJson();

    EXPECT_EQ(w0, w1);
    EXPECT_EQ(a, b);
}

TEST_F(Trace, TraceJsonHasEveryPhaseAndNamedTracks)
{
    trace::Tracer::enable();
    trace::Metrics::enable();
    MicroOpts micro;
    micro.fileBytes = 64 * KiB;
    RunResult r = m3FileRead(micro);
    ASSERT_EQ(r.rc, 0);

    const std::string doc = trace::Tracer::toJson();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    // span begin/end (syscalls, gate ops, DTU commands), complete slices
    // (NoC packets), instants, counter samples (accounting categories)
    // and both flow endpoints must all be present.
    for (const char *needle :
         {"\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"X\"", "\"ph\":\"C\"",
          "\"ph\":\"s\"", "\"ph\":\"f\"", "\"ph\":\"M\"", "noc:pkt",
          "dtu:read", "\"dram\""})
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
}

/** The cycle a fake clock reads: tracer tests without a machine. */
uint64_t fakeNow = 0;

uint64_t
fakeClock(const void *)
{
    return fakeNow;
}

TEST_F(Trace, ExportOrderIsPinnedExactly)
{
    fakeNow = 10;
    trace::Tracer::setClock(fakeClock, &fakeNow);
    trace::Tracer::enable();
    trace::Tracer::trackName(2, "old");
    trace::Tracer::trackName(2, "pe2");   // last name wins
    trace::Tracer::trackName(9, "idle");  // named, never gets an event
    trace::Tracer::trackName(5, "");      // an empty name exports none
    // Tracks interleave in recording order; the export groups them by id.
    trace::Tracer::spanBegin(2, "outer");
    trace::Tracer::instant(1, "unnamed");
    trace::Tracer::flowEnd(5, 40, 7, "pkt");  // stamped with a future cycle
    trace::Tracer::flowBegin(2, 10, 7, "pkt");
    fakeNow = 20;
    trace::Tracer::counter(2, "app", 3);
    trace::Tracer::complete(5, 15, 5, "slice");
    trace::Tracer::instant(1, "second");
    fakeNow = 30;
    trace::Tracer::spanEnd(2);
    trace::Tracer::instant(5, "mid");
    trace::Tracer::clearClock(&fakeNow);

    EXPECT_EQ(trace::Tracer::eventCount(), 9u);
    EXPECT_EQ(
        trace::Tracer::toJson(),
        "{\"traceEvents\":[\n"
        "{\"ph\":\"i\",\"name\":\"unnamed\",\"s\":\"t\",\"ts\":10,"
        "\"pid\":0,\"tid\":1},\n"
        "{\"ph\":\"i\",\"name\":\"second\",\"s\":\"t\",\"ts\":20,"
        "\"pid\":0,\"tid\":1},\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":2,"
        "\"args\":{\"name\":\"pe2\"}},\n"
        "{\"ph\":\"B\",\"name\":\"outer\",\"cat\":\"sim\",\"ts\":10,"
        "\"pid\":0,\"tid\":2},\n"
        "{\"ph\":\"s\",\"name\":\"pkt\",\"cat\":\"noc\",\"id\":\"0x7\","
        "\"ts\":10,\"pid\":0,\"tid\":2},\n"
        "{\"ph\":\"C\",\"name\":\"app\",\"ts\":20,\"pid\":0,\"tid\":2,"
        "\"args\":{\"value\":3}},\n"
        "{\"ph\":\"E\",\"ts\":30,\"pid\":0,\"tid\":2},\n"
        "{\"ph\":\"X\",\"name\":\"slice\",\"cat\":\"sim\",\"ts\":15,"
        "\"dur\":5,\"pid\":0,\"tid\":5},\n"
        "{\"ph\":\"i\",\"name\":\"mid\",\"s\":\"t\",\"ts\":30,\"pid\":0,"
        "\"tid\":5},\n"
        "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"pkt\",\"cat\":\"noc\","
        "\"id\":\"0x7\",\"ts\":40,\"pid\":0,\"tid\":5},\n"
        "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":9,"
        "\"args\":{\"name\":\"idle\"}}\n"
        "],\"displayTimeUnit\":\"ns\"}\n");
}

TEST_F(Trace, NoEventIsLost)
{
    constexpr uint64_t N = 70000;
    trace::Tracer::enable();
    for (uint64_t i = 0; i < N; ++i)
        trace::Tracer::instant(3, "tick");
    EXPECT_EQ(trace::Tracer::eventCount(), N);
    const std::string doc = trace::Tracer::toJson();
    uint64_t exported = 0;
    for (size_t at = doc.find("\"tick\""); at != std::string::npos;
         at = doc.find("\"tick\"", at + 1))
        ++exported;
    EXPECT_EQ(exported, N);
}

TEST_F(Trace, ExportStreamsInBoundedChunks)
{
    // 70,000 instants render to about 5 MB of JSON: several chunks.
    trace::Tracer::enable();
    for (uint64_t i = 0; i < 70000; ++i)
        trace::Tracer::instant(3, "tick");
    std::vector<size_t> sizes;
    std::string joined;
    ASSERT_TRUE(trace::Tracer::writeJson([&](std::string_view chunk) {
        sizes.push_back(chunk.size());
        joined += chunk;
        return true;
    }));
    EXPECT_GT(sizes.size(), 3u);
    for (size_t n : sizes)
        EXPECT_LE(n, (size_t(1) << 20) + 256);
    EXPECT_EQ(joined, trace::Tracer::toJson());

    // A refused chunk stops the export: nothing more is handed out.
    int calls = 0;
    EXPECT_FALSE(trace::Tracer::writeJson([&](std::string_view) {
        ++calls;
        return false;
    }));
    EXPECT_EQ(calls, 1);
}

TEST_F(Trace, MetricsJsonKeepsItsSchema)
{
    trace::Metrics::enable();
    auto [wall, rc] = statRun(0);
    ASSERT_EQ(rc, 0);

    const std::string doc = trace::Metrics::toJson();
    for (const char *needle :
         {"\"schema\"", "\"counters\"", "\"gauges\"", "\"histograms\"",
          "\"dtu.msgs_sent\"", "\"kernel.syscalls\"", "\"noc.packets\"",
          "\"sim.queue_depth\"", "\"sim.peak_pending\"",
          "\"m3fs.op.stat\"", "\"m3fs.op_cycles\"",
          "\"kernel.syscall.OpenSess.count\""})
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
    // A single-instance machine must not sprout per-instance prefixes.
    EXPECT_EQ(doc.find("\"m3fs.m3fs1."), std::string::npos);
}

TEST_F(Trace, StripedMachineEmitsPerInstanceFsMetrics)
{
    trace::Metrics::enable();
    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.distfsStripes = 2;
    cfg.fsSpec.dirs = {"/d"};
    M3System sys(cfg);
    sys.runRoot("t", [] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto dfs = m3fs::DistfsSession::create(env, e);
        if (!dfs)
            return 1;
        auto f = dfs->open("/d/f", FILE_W | FILE_CREATE, e);
        if (!f)
            return 2;
        auto data = m3fs::FsImage::patternData(20000, 9);
        if (f->write(data.data(), data.size()) !=
            static_cast<ssize_t>(data.size()))
            return 3;
        FileInfo info;
        if (dfs->stat("/d/f", info) != Error::None)
            return 4;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    ASSERT_EQ(sys.rootExitCode(), 0);

    const std::string doc = trace::Metrics::toJson();
    // Stripe 0 keeps the historical bare "m3fs." prefix; every extra
    // stripe reports under its own instance name so per-stripe load
    // stays visible in the dump.
    for (const char *needle :
         {"\"m3fs.op.", "\"m3fs.op_cycles\"", "\"m3fs.m3fs1.op.",
          "\"m3fs.m3fs1.op_cycles\""})
        EXPECT_NE(doc.find(needle), std::string::npos) << needle;
}

TEST_F(Trace, FaultsShowUpAsInstantsAndACounter)
{
    trace::Tracer::enable();
    trace::Metrics::enable();
    FaultStats fs;
    auto [wall, rc] = statRun(0.2, &fs);
    ASSERT_EQ(rc, 0);

    // The counter is the machine's fault events, summed at teardown.
    const uint64_t events = fs.packetsDropped + fs.packetsDelayed +
                            fs.payloadsCorrupted + fs.extAcksRefused +
                            fs.peKills;
    EXPECT_GT(events, 0u);
    EXPECT_EQ(trace::Metrics::counter("faults_injected").value, events);
    const std::string doc = trace::Tracer::toJson();
    EXPECT_NE(doc.find("fault:drop"), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
}

TEST_F(Trace, ResetZeroesMetricsButKeepsHandlesValid)
{
    trace::Metrics::enable();
    trace::Counter &c = trace::Metrics::counter("test.counter");
    c.add(5);
    EXPECT_EQ(trace::Metrics::counter("test.counter").value, 5u);
    trace::Metrics::reset();
    // The reference survives reset (hot paths cache them as statics).
    EXPECT_EQ(c.value, 0u);
    c.inc();
    EXPECT_EQ(trace::Metrics::counter("test.counter").value, 1u);
}

TEST_F(Trace, MetricsJsonKeepsLongEntriesWhole)
{
    // Instance and request-class names make metric keys of any length;
    // the dump must carry every name and number whole.
    const std::string name(64, 'x');
    const uint64_t big = ~uint64_t(0);
    trace::Metrics::counter(name).add(big);
    trace::Metrics::histogram(name).observe(big);
    const std::string doc = trace::Metrics::toJson();
    const std::string n = std::to_string(big);
    EXPECT_NE(doc.find("\"" + name + "\": " + n + "\n"), std::string::npos);
    EXPECT_NE(doc.find("\"" + name + "\": {\"count\": 1, \"sum\": " + n +
                       ", \"min\": " + n + ", \"max\": " + n +
                       ", \"buckets\": [[64, 1]]"),
              std::string::npos);
}

TEST_F(Trace, HistogramUsesLog2Buckets)
{
    trace::Histogram h;
    for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull})
        h.observe(v);
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, 1030u);
    EXPECT_EQ(h.minVal, 0u);
    EXPECT_EQ(h.maxVal, 1024u);
    EXPECT_EQ(h.buckets[0], 1u);   // the zero
    EXPECT_EQ(h.buckets[1], 1u);   // 1
    EXPECT_EQ(h.buckets[2], 2u);   // 2, 3
    EXPECT_EQ(h.buckets[11], 1u);  // 1024 = 2^10
}

} // anonymous namespace
} // namespace workloads
} // namespace m3
