/**
 * @file
 * Determinism: the simulator promises bit-identical behaviour across
 * runs — the property that makes cycle comparisons and the calibrated
 * figures meaningful. Full-stack workloads must reproduce their wall
 * time, their accounting and their filesystem image exactly.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "base/random.hh"
#include "libm3/gates.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"
#include "trace/trace.hh"
#include "workloads/micro.hh"
#include "workloads/runners.hh"

namespace m3
{
namespace workloads
{
namespace
{

TEST(Determinism, CatTrIsCycleReproducible)
{
    CatTrParams p;
    RunResult a = runM3CatTr(p);
    RunResult b = runM3CatTr(p);
    ASSERT_EQ(a.rc, 0);
    ASSERT_EQ(b.rc, 0);
    EXPECT_EQ(a.wall, b.wall);
    for (Category c : {Category::App, Category::Os, Category::Xfer})
        EXPECT_EQ(a.acct.total(c), b.acct.total(c));
}

TEST(Determinism, FileReadIsCycleReproducible)
{
    MicroOpts opts;
    opts.fileBytes = 256 * KiB;
    RunResult a = m3FileRead(opts);
    RunResult b = m3FileRead(opts);
    ASSERT_EQ(a.rc, 0);
    EXPECT_EQ(a.wall, b.wall);
    EXPECT_EQ(a.xfer(), b.xfer());
}

TEST(Determinism, LinuxBaselineIsCycleReproducible)
{
    CatTrParams p;
    RunResult a = runLxCatTr(p);
    RunResult b = runLxCatTr(p);
    ASSERT_EQ(a.rc, 0);
    EXPECT_EQ(a.wall, b.wall);
}

TEST(Determinism, FaultedRunReproducesExactly)
{
    // A run that loses packets, times out, retries and is watched by
    // the kernel watchdog must still replay bit-identically: same wall
    // time, same injected-fault trace, same outcome.
    auto run = [](uint64_t seed) {
        M3SystemCfg cfg;
        cfg.appPes = 2;
        cfg.fsSpec.dirs = {"/d"};
        cfg.faults.seed = seed;
        cfg.faults.dropRate = 1.0;
        cfg.faults.maxDrops = 2;
        cfg.faults.dropPairs = {{2, 1}};
        cfg.watchdogDeadline = 200000;
        cfg.watchdogPeriod = 50000;
        M3System sys(cfg);
        sys.runRoot("t", [&] {
            Env &env = Env::cur();
            Error e = Error::None;
            auto fs = m3fs::M3fsSession::create(env, e);
            if (e != Error::None)
                return 1;
            fs->callTimeout = 20000;
            fs->callRetries = 3;
            FileInfo info;
            return fs->stat("/d", info) == Error::None ? 0 : 2;
        });
        sys.simulate();
        return std::make_tuple(sys.now(), sys.faultPlan()->traceDigest(),
                               sys.rootExitCode());
    };
    auto a = run(17);
    auto b = run(17);
    EXPECT_EQ(a, b);
    EXPECT_EQ(std::get<2>(a), 0);
}

TEST(Determinism, ScalabilityInstancesReproduce)
{
    ScalabilityResult a = runM3Scalability("tar", 4);
    ScalabilityResult b = runM3Scalability("tar", 4);
    ASSERT_EQ(a.rc, 0);
    ASSERT_EQ(b.rc, 0);
    EXPECT_EQ(a.instances, b.instances);
}

TEST(Determinism, MultiplexedRunReproducesExactly)
{
    // Time multiplexing adds kernel scheduling, context save/restore
    // DTU traffic and message parking to a run — all of which must be
    // as deterministic as the rest of the machine: same wall time, same
    // per-instance cycles, same number of context switches.
    auto run = [] {
        M3RunOpts opts;
        // tar needs 1 + 4 instances = 5 app PEs; capping at 3 runs the
        // four instances 2x oversubscribed on two PEs.
        opts.maxAppPes = 3;
        opts.multiplexSlice = 50000;
        return runM3Scalability("tar", 4, opts);
    };
    ScalabilityResult a = run();
    ScalabilityResult b = run();
    ASSERT_EQ(a.rc, 0);
    ASSERT_EQ(b.rc, 0);
    EXPECT_EQ(a.instances, b.instances);
    EXPECT_EQ(a.events, b.events);
}

TEST(Determinism, MultiplexedTraceIsByteIdentical)
{
    // The cycle-accurate trace of a multiplexed run — including the
    // context-switch spans and park/unpark instants — must serialize to
    // byte-identical JSON across two runs of the same configuration.
    auto traced = [] {
        trace::Tracer::enable();
        trace::Tracer::reset();
        M3SystemCfg cfg;
        cfg.appPes = 2;
        cfg.withFs = false;
        cfg.multiplexSlice = 20000;
        std::string json;
        {
            M3System sys(cfg);
            sys.runRoot("root", [&] {
                Env &env = Env::cur();
                VPE a(env, "a"), b(env, "b");
                if (a.err() != Error::None || b.err() != Error::None)
                    return 1;
                a.run([] { Env::cur().compute(120000); return 0; });
                b.run([] { Env::cur().compute(120000); return 0; });
                return a.wait() + b.wait();
            });
            if (!sys.simulate() || sys.rootExitCode() != 0)
                return std::string();
            json = trace::Tracer::toJson();
        }
        trace::Tracer::disable();
        return json;
    };
    std::string a = traced();
    std::string b = traced();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Determinism, SingleKernelMatchesSeedPins)
{
    // Multi-kernel support is strictly opt-in: the default machine must
    // take exactly the classic code paths. These pins were captured by
    // running this workload on the pre-multi-kernel tree — wall cycles
    // and the serialized trace (size + djb2 hash) matched bit for bit.
    trace::Tracer::enable();
    trace::Tracer::reset();
    Cycles wall = 0;
    std::string json;
    {
        M3SystemCfg cfg;
        cfg.appPes = 3;
        cfg.withFs = false;
        M3System sys(std::move(cfg));
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            VPE a(env, "a"), b(env, "b");
            if (a.err() != Error::None || b.err() != Error::None)
                return 1;
            a.run([] { Env::cur().compute(120000); return 0; });
            b.run([] { Env::cur().compute(90000); return 0; });
            return a.wait() + b.wait();
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);
        wall = sys.now();
        json = trace::Tracer::toJson();
    }
    trace::Tracer::disable();
    uint64_t h = 5381;
    for (char c : json)
        h = h * 33 + static_cast<uint8_t>(c);
    EXPECT_EQ(wall, 125528u);
    EXPECT_EQ(json.size(), 22039u);
    EXPECT_EQ(h, 0x644597d5ae523cf2ull);
}

TEST(Determinism, MigrationOffMatchesSeedPins)
{
    // Live migration / drain / failover are strictly opt-in: with the
    // flags at their defaults the machine must take exactly the classic
    // code paths and replay the SingleKernelMatchesSeedPins pins bit
    // for bit — same wall cycles, same serialized trace.
    trace::Tracer::enable();
    trace::Tracer::reset();
    Cycles wall = 0;
    std::string json;
    {
        M3SystemCfg cfg;
        cfg.appPes = 3;
        cfg.withFs = false;
        cfg.migration = false;
        cfg.failover = false;
        M3System sys(std::move(cfg));
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            VPE a(env, "a"), b(env, "b");
            if (a.err() != Error::None || b.err() != Error::None)
                return 1;
            a.run([] { Env::cur().compute(120000); return 0; });
            b.run([] { Env::cur().compute(90000); return 0; });
            return a.wait() + b.wait();
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);
        wall = sys.now();
        json = trace::Tracer::toJson();
    }
    trace::Tracer::disable();
    uint64_t h = 5381;
    for (char c : json)
        h = h * 33 + static_cast<uint8_t>(c);
    EXPECT_EQ(wall, 125528u);
    EXPECT_EQ(json.size(), 22039u);
    EXPECT_EQ(h, 0x644597d5ae523cf2ull);
}

// Runs a multi-kernel tar machine twice and expects per-instance cycles,
// event counts and trace bytes to replay bit-identically.
void
expectScalabilityRepeats(const M3RunOpts &opts, uint32_t instances)
{
    auto run = [&] {
        trace::Tracer::enable();
        trace::Tracer::reset();
        ScalabilityResult r = runM3Scalability("tar", instances, opts);
        std::string json = trace::Tracer::toJson();
        trace::Tracer::disable();
        return std::make_tuple(r.rc, r.instances, r.events, json);
    };
    auto a = run();
    ASSERT_EQ(std::get<0>(a), 0);
    ASSERT_GT(std::get<3>(a).size(), 0u);
    EXPECT_EQ(run(), a);
}

TEST(Determinism, MultiKernelScalabilityReproduces)
{
    // Sharded control plane: remote placement, cross-domain session
    // opens and the inter-kernel rings must replay bit-identically.
    M3RunOpts opts;
    opts.numKernels = 2;
    opts.fsInstances = 2;
    expectScalabilityRepeats(opts, 4);
}

TEST(Determinism, MultiKernelRandomWorkloadPins)
{
    // Seeded random workloads on a two-kernel machine: cycle count and
    // the serialized trace must be byte-identical across runs. The
    // children's compute amounts and message mix come from the seed;
    // one child is always placed in the peer kernel's domain.
    auto traced = [](uint64_t seed) {
        trace::Tracer::enable();
        trace::Tracer::reset();
        M3SystemCfg cfg;
        cfg.numKernels = 2;
        cfg.appPes = 3;
        cfg.withFs = false;
        Cycles wall = 0;
        std::string json;
        {
            M3System sys(cfg);
            sys.runRoot("root", [&, seed] {
                Env &env = Env::cur();
                Random rng(seed * 131 + 7);
                RecvGate rg(env, 8, 128);
                VPE a(env, "a"), b(env, "b");
                if (a.err() != Error::None || b.err() != Error::None)
                    return 1;
                for (VPE *v : {&a, &b}) {
                    SendGate sg = SendGate::create(env, rg, 1, 2);
                    if (v->delegate(sg.capSel(), 1, 40) != Error::None)
                        return 2;
                    Cycles amount = rng.nextRange(20000, 120000);
                    v->run([amount] {
                        Env &cenv = Env::cur();
                        cenv.compute(amount);
                        SendGate csg(cenv, 40, 128, true);
                        Marshaller m = csg.ostream();
                        m << uint64_t{amount};
                        return csg.send(m) == Error::None ? 0 : 1;
                    });
                }
                for (int i = 0; i < 2; ++i)
                    rg.receive().ack();
                return a.wait() + b.wait();
            });
            if (!sys.simulate() || sys.rootExitCode() != 0)
                return std::make_pair(Cycles{0}, std::string());
            wall = sys.now();
            json = trace::Tracer::toJson();
        }
        trace::Tracer::disable();
        return std::make_pair(wall, json);
    };
    for (uint64_t seed : {3u, 9u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto a = traced(seed);
        auto b = traced(seed);
        ASSERT_NE(a.first, 0u);
        EXPECT_EQ(a.first, b.first);
        EXPECT_EQ(a.second, b.second);
    }
}

TEST(Determinism, DistfsOffMatchesSeedPins)
{
    // The striped data plane is strictly opt-in: with distfsStripes at
    // its default of 1 the machine must take exactly the classic code
    // paths — default endpoint provisioning, single DRAM module, plain
    // m3fs — and replay the SingleKernelMatchesSeedPins pins bit for
    // bit: same wall cycles, same serialized trace.
    trace::Tracer::enable();
    trace::Tracer::reset();
    Cycles wall = 0;
    std::string json;
    {
        M3SystemCfg cfg;
        cfg.appPes = 3;
        cfg.withFs = false;
        cfg.distfsStripes = 1;
        M3System sys(std::move(cfg));
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            VPE a(env, "a"), b(env, "b");
            if (a.err() != Error::None || b.err() != Error::None)
                return 1;
            a.run([] { Env::cur().compute(120000); return 0; });
            b.run([] { Env::cur().compute(90000); return 0; });
            return a.wait() + b.wait();
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);
        wall = sys.now();
        json = trace::Tracer::toJson();
    }
    trace::Tracer::disable();
    uint64_t h = 5381;
    for (char c : json)
        h = h * 33 + static_cast<uint8_t>(c);
    EXPECT_EQ(wall, 125528u);
    EXPECT_EQ(json.size(), 22039u);
    EXPECT_EQ(h, 0x644597d5ae523cf2ull);
}

// The two tests below keep the names they had when the engine could be
// driven by several host threads. With one serial queue, "invariant"
// means the machine is a pure function of its configuration: a repeat
// reproduces every cycle, event and trace byte.

TEST(Determinism, DistfsThreadCountInvariant)
{
    // A striped machine across two kernel domains, one stripe server in
    // each: clients fan metadata out across the domain boundary and move
    // data on parallel transfer slots.
    M3RunOpts opts;
    opts.distfsStripes = 2;
    opts.numKernels = 2;
    expectScalabilityRepeats(opts, 2);
}

TEST(Determinism, ThreadCountInvariant)
{
    // A fig6-class machine: four kernel domains, four m3fs, tar x8.
    M3RunOpts opts;
    opts.numKernels = 4;
    opts.fsInstances = 4;
    expectScalabilityRepeats(opts, 8);
}

} // anonymous namespace
} // namespace workloads
} // namespace m3
