/**
 * @file
 * distfs: the striped m3fs data plane. Placement must be a pure
 * function of (path, unit); data must round-trip through the stripe
 * set; a multi-unit read must overlap its per-stripe transfers (the
 * exact-cycle overlap pin); and on a multi-kernel machine the stripe
 * sessions in other domains must open via the cross-domain service
 * path.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "base/random.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "m3fs/distfs.hh"
#include "trace/trace.hh"

namespace m3
{
namespace
{

M3SystemCfg
stripedCfg(uint32_t stripes)
{
    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.distfsStripes = stripes;
    cfg.fsSpec.dirs = {"/data"};
    cfg.fsSpec.totalBlocks = 16384;
    return cfg;
}

/** The client's placement hash, replicated as the test oracle. */
uint64_t
djb2(const std::string &s)
{
    uint64_t h = 5381;
    for (char c : s)
        h = h * 33 + static_cast<uint8_t>(c);
    return h;
}

/** Expected subfile size on every stripe for a file of @p size bytes. */
std::vector<uint64_t>
expectedSubSizes(const std::string &path, uint64_t size, uint32_t stripes,
                 uint64_t unitBytes)
{
    std::vector<uint64_t> sub(stripes, 0);
    uint64_t rot = djb2(path) % stripes;
    for (uint64_t u = 0; u * unitBytes < size; ++u) {
        uint64_t len = std::min(unitBytes, size - u * unitBytes);
        sub[(rot + u) % stripes] = (u / stripes) * unitBytes + len;
    }
    return sub;
}

} // anonymous namespace

TEST(Distfs, PlacementIsPureFunctionOfPathAndUnit)
{
    // Two independent machines must place the same files identically,
    // and both must match the analytic layout.
    const uint64_t unitBytes = 8 * 1024;
    const std::vector<std::pair<std::string, uint64_t>> files = {
        {"/data/a", 3000},           // less than one unit
        {"/data/b", 20000},          // three units, partial tail
        {"/data/longer-name", 70000} // spills across both stripes twice
    };
    std::vector<std::vector<uint64_t>> runs;
    for (int run = 0; run < 2; ++run) {
        M3System sys(stripedCfg(2));
        std::vector<uint64_t> observed;
        sys.runRoot("t", [&] {
            Env &env = Env::cur();
            Error e = Error::None;
            auto dfs = m3fs::DistfsSession::create(env, e);
            if (!dfs)
                return 1;
            for (auto &[path, size] : files) {
                auto f = dfs->open(path, FILE_W | FILE_CREATE, e);
                if (!f)
                    return 2;
                auto data = m3fs::FsImage::patternData(size, 42);
                if (f->write(data.data(), data.size()) !=
                    static_cast<ssize_t>(size))
                    return 3;
            }
            // Per-stripe ground truth: stat the subfiles through plain
            // sessions with each stripe server.
            for (uint32_t k = 0; k < 2; ++k) {
                auto plain = m3fs::M3fsSession::create(
                    env, e, M3SystemCfg::fsName(k));
                if (!plain)
                    return 4;
                for (auto &[path, size] : files) {
                    FileInfo info;
                    if (plain->stat(path, info) != Error::None)
                        return 5;
                    observed.push_back(info.size);
                }
            }
            return 0;
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);
        runs.push_back(observed);
    }
    EXPECT_EQ(runs[0], runs[1]);
    // Compare against the analytic layout: observed is ordered stripe-
    // major (stripe 0: all files, then stripe 1).
    size_t idx = 0;
    for (uint32_t k = 0; k < 2; ++k) {
        for (auto &[path, size] : files) {
            auto expect = expectedSubSizes(path, size, 2, unitBytes);
            EXPECT_EQ(runs[0][idx], expect[k])
                << path << " on stripe " << k;
            ++idx;
        }
    }
}

TEST(Distfs, DataRoundTripsAcrossStripes)
{
    M3System sys(stripedCfg(4));
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto dfs = m3fs::DistfsSession::create(env, e);
        if (!dfs)
            return 1;
        auto data = m3fs::FsImage::patternData(100000, 7);
        {
            auto f = dfs->open("/data/rt", FILE_W | FILE_CREATE, e);
            if (!f || f->write(data.data(), data.size()) !=
                          static_cast<ssize_t>(data.size()))
                return 2;
        }
        // Re-open: the logical size must reassemble from the subfiles.
        auto f = dfs->open("/data/rt", FILE_R, e);
        if (!f)
            return 3;
        FileInfo info;
        if (dfs->stat("/data/rt", info) != Error::None ||
            info.size != data.size())
            return 4;
        std::vector<uint8_t> back(data.size());
        if (f->read(back.data(), back.size()) !=
            static_cast<ssize_t>(back.size()))
            return 5;
        if (back != data)
            return 6;
        // Unaligned re-read crossing several unit boundaries.
        if (f->seek(5000, SeekMode::Set) != 5000)
            return 7;
        std::vector<uint8_t> mid(30000);
        if (f->read(mid.data(), mid.size()) !=
            static_cast<ssize_t>(mid.size()))
            return 8;
        if (!std::equal(mid.begin(), mid.end(), data.begin() + 5000))
            return 9;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Distfs, FourStripeReadOverlapsTransfers)
{
    // The exact-cycle overlap pin (Sec. 5.7 methodology): with DRAM
    // transfers modelled as equal-time spins, a warm read of four
    // units striped over four servers must cost less than two
    // single-unit reads — serial stripes would cost four.
    M3SystemCfg cfg = stripedCfg(4);
    cfg.costs.spinDataTransfers = true;
    M3System sys(cfg);
    Cycles oneUnit = 0, fourUnits = 0;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto dfs = m3fs::DistfsSession::create(env, e);
        if (!dfs)
            return 1;
        const uint64_t unitBytes = 8 * 1024;
        auto data = m3fs::FsImage::patternData(4 * unitBytes, 9);
        {
            auto f = dfs->open("/data/par", FILE_W | FILE_CREATE, e);
            if (!f || f->write(data.data(), data.size()) !=
                          static_cast<ssize_t>(data.size()))
                return 2;
        }
        auto f = dfs->open("/data/par", FILE_R, e);
        if (!f)
            return 3;
        std::vector<uint8_t> buf(data.size());
        // Warm pass: fetch every extent location once, so the timed
        // reads below measure pure data movement + client arithmetic.
        if (f->read(buf.data(), buf.size()) !=
            static_cast<ssize_t>(buf.size()))
            return 4;
        auto timedRead = [&](size_t len) -> Cycles {
            f->seek(0, SeekMode::Set);
            Cycles t0 = env.platform.simulator().curCycle();
            if (f->read(buf.data(), len) != static_cast<ssize_t>(len))
                return 0;
            return env.platform.simulator().curCycle() - t0;
        };
        oneUnit = timedRead(unitBytes);
        fourUnits = timedRead(4 * unitBytes);
        return (oneUnit && fourUnits) ? 0 : 5;
    });
    ASSERT_TRUE(sys.simulate());
    ASSERT_EQ(sys.rootExitCode(), 0);
    EXPECT_LT(fourUnits, 2 * oneUnit)
        << "four-unit read " << fourUnits << " vs one-unit " << oneUnit;
}

TEST(Distfs, CrossDomainStripeOpenUsesInterKernelPath)
{
    // Two kernels: stripe 0 (PE 2) lives in domain 0, stripe 1 (PE 3)
    // in domain 1. The root (PE 4, domain 0) must reach stripe 1 via
    // the cross-domain service announcement — the inter-kernel request
    // counters prove the session took that path.
    M3SystemCfg cfg = stripedCfg(2);
    cfg.numKernels = 2;
    M3System sys(cfg);
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto dfs = m3fs::DistfsSession::create(env, e);
        if (!dfs)
            return 1;
        auto data = m3fs::FsImage::patternData(40000, 11);
        {
            auto f = dfs->open("/data/xd", FILE_W | FILE_CREATE, e);
            if (!f || f->write(data.data(), data.size()) !=
                          static_cast<ssize_t>(data.size()))
                return 2;
        }
        auto f = dfs->open("/data/xd", FILE_R, e);
        std::vector<uint8_t> back(data.size());
        if (!f || f->read(back.data(), back.size()) !=
                      static_cast<ssize_t>(back.size()))
            return 3;
        return back == data ? 0 : 4;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    uint64_t ikSent = 0;
    for (uint32_t k = 0; k < 2; ++k)
        ikSent += sys.kernelInstance(k).stats().ikRequestsSent;
    EXPECT_GT(ikSent, 0u);
}

TEST(Distfs, ReplicaConsistencySurvivesStripeKill)
{
    // The replication invariant (R = 2): kill any single stripe's
    // server PE mid-workload and every read — through a handle opened
    // before the kill and through fresh opens after it — returns bytes
    // identical to what was written, with zero PeerGone surfaced to the
    // application. Post-kill writes land on the surviving copies and
    // read back intact too. 16 seeds vary the stripe count, the victim
    // and the file sizes.
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed ^ 0x5eedu);
        const uint32_t stripes = rng.nextBounded(2) ? 3 : 2;
        const uint32_t victim = rng.nextBounded(stripes);
        const Cycles killAt = 3000000;

        M3SystemCfg cfg = stripedCfg(stripes);
        cfg.distfsReplicas = 2;
        cfg.watchdogDeadline = 50000;
        cfg.watchdogPeriod = 10000;
        cfg.faults.seed = seed * 67 + 5;
        // fs instance k serves stripe k from PE numKernels + k.
        cfg.faults.killPes = {
            {static_cast<uint32_t>(1 + victim), killAt}};
        M3System sys(cfg);
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            Random wrng(seed * 131 + 7);
            Error err = Error::None;
            auto dfs = m3fs::DistfsSession::create(env, err);
            if (!dfs)
                return 10;
            const size_t sz0 =
                static_cast<size_t>(wrng.nextRange(20000, 60000));
            const size_t sz1 =
                static_cast<size_t>(wrng.nextRange(20000, 60000));
            auto data0 = m3fs::FsImage::patternData(
                sz0, static_cast<uint8_t>(seed));
            auto data1 = m3fs::FsImage::patternData(
                sz1, static_cast<uint8_t>(seed + 100));
            {
                auto f = dfs->open("/data/r0", FILE_W | FILE_CREATE, err);
                if (!f || f->write(data0.data(), sz0) !=
                              static_cast<ssize_t>(sz0))
                    return 11;
            }
            {
                auto f = dfs->open("/data/r1", FILE_W | FILE_CREATE, err);
                if (!f || f->write(data1.data(), sz1) !=
                              static_cast<ssize_t>(sz1))
                    return 12;
            }
            // Hold an open read handle across the kill (no extent
            // locations cached yet), then wait out the kill and the
            // watchdog reclaim of the server, heartbeating so the idle
            // client is not reclaimed too.
            auto f0 = dfs->open("/data/r0", FILE_R, err);
            if (!f0)
                return 13;
            if (env.platform.simulator().curCycle() >= killAt)
                return 14;  // setup overran the kill; rearrange timing
            while (env.platform.simulator().curCycle() <
                   killAt + 500000) {
                Fiber::current()->sleep(20000);
                if (env.heartbeat() != Error::None)
                    return 15;
            }

            // The held handle: extent fetches on the dead stripe answer
            // PeerGone from the kernel; the read must degrade to the
            // replicas and still deliver every byte.
            std::vector<uint8_t> back0(sz0);
            if (f0->read(back0.data(), sz0) !=
                    static_cast<ssize_t>(sz0) ||
                back0 != data0)
                return 16;
            f0.reset();

            // A fresh open after the kill: the fan-out skips the dead
            // stripe and serves the file from the surviving copies.
            auto f1 = dfs->open("/data/r1", FILE_R, err);
            std::vector<uint8_t> back1(sz1);
            if (!f1 ||
                f1->read(back1.data(), sz1) !=
                    static_cast<ssize_t>(sz1) ||
                back1 != data1)
                return 17;
            f1.reset();

            // Degraded write: a file created after the kill stores the
            // dead stripe's units on their replica hosts only.
            const size_t sz2 =
                static_cast<size_t>(wrng.nextRange(20000, 60000));
            auto data2 = m3fs::FsImage::patternData(
                sz2, static_cast<uint8_t>(seed + 200));
            {
                auto f = dfs->open("/data/r2", FILE_W | FILE_CREATE, err);
                if (!f || f->write(data2.data(), sz2) !=
                              static_cast<ssize_t>(sz2))
                    return 18;
            }
            auto f2 = dfs->open("/data/r2", FILE_R, err);
            std::vector<uint8_t> back2(sz2);
            if (!f2 ||
                f2->read(back2.data(), sz2) !=
                    static_cast<ssize_t>(sz2) ||
                back2 != data2)
                return 19;
            if (!dfs->stripeDead(victim))
                return 20;
            return 0;
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);
    }
}

TEST(Distfs, StatOfKilledStripeCountsItsReplica)
{
    // R = 2 over 3 stripes: stripe 1's server PE dies after the file is
    // written. The next stat's fan-out finds the stripe silent (its core
    // is dead and never answers) or, once the watchdog reclaimed the
    // server, unable to take the request at all. Either way the fan-out
    // marks the stripe dead, and the stat reads the stripe's share from
    // its replica file: the file's full size.
    for (bool reclaim : {false, true}) {
        SCOPED_TRACE(reclaim ? "server reclaimed" : "server silent");
        const uint32_t victim = 1;
        const Cycles killAt = 3000000;
        M3SystemCfg cfg = stripedCfg(3);
        cfg.distfsReplicas = 2;
        if (reclaim) {
            cfg.watchdogDeadline = 50000;
            cfg.watchdogPeriod = 10000;
        }
        // fs instance k serves stripe k from PE numKernels + k.
        cfg.faults.killPes = {{1 + victim, killAt}};
        M3System sys(cfg);
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            Error err = Error::None;
            auto dfs = m3fs::DistfsSession::create(env, err);
            if (!dfs)
                return 1;
            auto data = m3fs::FsImage::patternData(50000, 31);
            {
                auto f = dfs->open("/data/s", FILE_W | FILE_CREATE, err);
                if (!f || f->write(data.data(), data.size()) !=
                              static_cast<ssize_t>(data.size()))
                    return 2;
            }
            if (env.platform.simulator().curCycle() >= killAt)
                return 3;  // setup overran the kill; rearrange timing
            while (env.platform.simulator().curCycle() < killAt + 500000) {
                Fiber::current()->sleep(20000);
                if (env.heartbeat() != Error::None)
                    return 4;
            }
            if (dfs->stripeDead(victim))
                return 5;
            FileInfo info;
            if (dfs->stat("/data/s", info) != Error::None)
                return 6;
            if (!dfs->stripeDead(victim))
                return 7;
            return info.size == data.size() ? 0 : 8;
        });
        ASSERT_TRUE(sys.simulate());
        EXPECT_EQ(sys.rootExitCode(), 0);
        EXPECT_EQ(sys.kernelInstance().stats().watchdogReclaims,
                  reclaim ? 1u : 0u);
    }
}

TEST(Distfs, RebuildRestoresStripeContents)
{
    // Degrade-then-rebuild, fault-free and deterministic: mark a stripe
    // dead through the public test hook, serve reads degraded, re-mirror
    // the stripe onto a spare m3fs instance and verify that every file
    // reads back byte-identical with the full stripe set live again.
    M3SystemCfg cfg = stripedCfg(3);
    cfg.distfsReplicas = 2;
    cfg.distfsSpares = 1;
    M3System sys(cfg);
    sys.runRoot("root", [&] {
        Env &env = Env::cur();
        Error err = Error::None;
        auto dfs = m3fs::DistfsSession::create(env, err);
        if (!dfs)
            return 1;
        const std::vector<std::pair<std::string, size_t>> files = {
            {"/data/a", 3000}, {"/data/b", 47000}, {"/data/c", 90000}};
        std::vector<std::vector<uint8_t>> datas;
        for (size_t i = 0; i < files.size(); ++i) {
            datas.push_back(m3fs::FsImage::patternData(
                files[i].second, static_cast<uint8_t>(17 + i)));
            auto f = dfs->open(files[i].first, FILE_W | FILE_CREATE, err);
            if (!f || f->write(datas[i].data(), datas[i].size()) !=
                          static_cast<ssize_t>(datas[i].size()))
                return 2;
        }
        auto verify = [&] {
            for (size_t i = 0; i < files.size(); ++i) {
                auto f = dfs->open(files[i].first, FILE_R, err);
                std::vector<uint8_t> back(files[i].second);
                if (!f ||
                    f->read(back.data(), back.size()) !=
                        static_cast<ssize_t>(back.size()) ||
                    back != datas[i])
                    return false;
            }
            return true;
        };
        dfs->markDead(1);
        if (!verify())
            return 3;  // degraded reads must already be byte-identical
        if (dfs->rebuild(1, M3SystemCfg::fsName(3)) != Error::None)
            return 4;
        if (dfs->stripeDead(1))
            return 5;
        if (!verify())
            return 6;  // post-rebuild reads use the rebuilt stripe
        // The rebuilt instance also accepts new files.
        auto data = m3fs::FsImage::patternData(30000, 99);
        {
            auto f = dfs->open("/data/post", FILE_W | FILE_CREATE, err);
            if (!f || f->write(data.data(), data.size()) !=
                          static_cast<ssize_t>(data.size()))
                return 7;
        }
        auto f = dfs->open("/data/post", FILE_R, err);
        std::vector<uint8_t> back(data.size());
        if (!f ||
            f->read(back.data(), back.size()) !=
                static_cast<ssize_t>(back.size()) ||
            back != data)
            return 8;
        f.reset();
        // A second stripe failure after the rebuild: units whose
        // primary is stripe 0 must now serve from the replica files the
        // rebuild re-derived onto the replacement instance.
        dfs->markDead(0);
        if (!verify())
            return 9;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Distfs, DegradedModeDeterministicAcrossRepeats)
{
    // Degraded-mode determinism: a replicated striped machine across two
    // kernel domains, with a stripe forced dead mid-workload (the
    // fault-free hook), must produce the same wall clock and
    // byte-identical trace JSON across repeats.
    auto run = [] {
        trace::Tracer::enable();
        trace::Tracer::reset();
        M3SystemCfg cfg;
        cfg.appPes = 2;
        cfg.distfsStripes = 2;
        cfg.distfsReplicas = 2;
        cfg.numKernels = 2;
        cfg.fsSpec.dirs = {"/data"};
        cfg.fsSpec.totalBlocks = 16384;
        Cycles wall = 0;
        int rc = -1;
        std::string json;
        {
            M3System sys(cfg);
            sys.runRoot("root", [&] {
                Env &env = Env::cur();
                Error err = Error::None;
                auto dfs = m3fs::DistfsSession::create(env, err);
                if (!dfs)
                    return 1;
                auto data = m3fs::FsImage::patternData(40000, 23);
                {
                    auto f =
                        dfs->open("/data/d", FILE_W | FILE_CREATE, err);
                    if (!f || f->write(data.data(), data.size()) !=
                                  static_cast<ssize_t>(data.size()))
                        return 2;
                }
                dfs->markDead(1);
                auto f = dfs->open("/data/d", FILE_R, err);
                std::vector<uint8_t> back(data.size());
                if (!f ||
                    f->read(back.data(), back.size()) !=
                        static_cast<ssize_t>(back.size()) ||
                    back != data)
                    return 3;
                f.reset();
                auto data2 = m3fs::FsImage::patternData(25000, 57);
                {
                    auto g =
                        dfs->open("/data/e", FILE_W | FILE_CREATE, err);
                    if (!g || g->write(data2.data(), data2.size()) !=
                                  static_cast<ssize_t>(data2.size()))
                        return 4;
                }
                auto g = dfs->open("/data/e", FILE_R, err);
                std::vector<uint8_t> back2(data2.size());
                if (!g ||
                    g->read(back2.data(), back2.size()) !=
                        static_cast<ssize_t>(back2.size()) ||
                    back2 != data2)
                    return 5;
                return 0;
            });
            if (!sys.simulate())
                return std::make_tuple(-2, Cycles(0), std::string());
            rc = sys.rootExitCode();
            wall = sys.now();
            json = trace::Tracer::toJson();
        }
        trace::Tracer::disable();
        return std::make_tuple(rc, wall, json);
    };
    auto base = run();
    ASSERT_EQ(std::get<0>(base), 0);
    ASSERT_GT(std::get<2>(base).size(), 0u);
    EXPECT_EQ(run(), base);
}

TEST(Distfs, NamespaceOpsMirrorOnEveryStripe)
{
    // Every namespace operation must leave the per-stripe namespaces
    // mirrors of each other, on plain (R = 1) and replicated (R = 2)
    // mounts, whether or not the stripe sessions bound their
    // synchronous calls with a timeout. Ground truth comes from one
    // plain session per stripe server.
    const uint32_t stripes = 3;
    const size_t size = 40000;  // five units: every stripe holds data
    for (uint32_t replicas : {1u, 2u}) {
        for (Cycles timeout : {Cycles(0), Cycles(20000)}) {
            SCOPED_TRACE("R=" + std::to_string(replicas) + " timeout=" +
                         std::to_string(timeout));
            M3SystemCfg cfg = stripedCfg(stripes);
            cfg.distfsReplicas = replicas;
            M3System sys(cfg);
            sys.runRoot("root", [&] {
                Env &env = Env::cur();
                Error err = Error::None;
                auto dfs = m3fs::DistfsSession::create(env, err);
                if (!dfs)
                    return 1;
                for (uint32_t k = 0; k < stripes; ++k)
                    dfs->stripe(k).callTimeout = timeout;
                if (dfs->mkdir("/data/d") != Error::None)
                    return 2;
                auto data = m3fs::FsImage::patternData(size, 5);
                {
                    auto f = dfs->open("/data/d/f", FILE_W | FILE_CREATE,
                                       err);
                    if (!f || f->write(data.data(), size) !=
                                  static_cast<ssize_t>(size))
                        return 3;
                }
                if (dfs->link("/data/d/f", "/data/d/g") != Error::None)
                    return 4;
                if (dfs->rename("/data/d/g", "/data/d/h") != Error::None)
                    return 5;
                if (dfs->unlink("/data/d/f") != Error::None)
                    return 6;
                FileInfo info;
                if (dfs->stat("/data/d/h", info) != Error::None ||
                    info.isDir() || info.size != size)
                    return 7;
                if (dfs->stat("/data/d/f", info) != Error::NoSuchFile)
                    return 8;

                // Stripe k holds the primary subfile "h" and, when
                // replicated, the replica of stripe k-1's units.
                for (uint32_t k = 0; k < stripes; ++k) {
                    auto plain = m3fs::M3fsSession::create(
                        env, err, M3SystemCfg::fsName(k));
                    if (!plain)
                        return 9;
                    if (plain->stat("/data/d", info) != Error::None ||
                        !info.isDir())
                        return 10;
                    std::vector<std::string> want = {"h"};
                    if (replicas > 1) {
                        const uint32_t s = (k + stripes - 1) % stripes;
                        want.push_back(
                            m3fs::DistfsSession::replicaPath("h", s));
                        if (plain->stat(m3fs::DistfsSession::replicaPath(
                                            "/data/d/h", s),
                                        info) != Error::None)
                            return 11;
                    }
                    std::vector<DirEntry> ents;
                    if (plain->readdir("/data/d", ents) != Error::None)
                        return 12;
                    std::vector<std::string> names;
                    for (const DirEntry &de : ents)
                        if (de.name != "." && de.name != "..")
                            names.push_back(de.name);
                    std::sort(names.begin(), names.end());
                    std::sort(want.begin(), want.end());
                    if (names != want)
                        return 13;
                }

                // The mount's own listing hides the replica names.
                std::vector<DirEntry> ents;
                if (dfs->readdir("/data/d", ents) != Error::None)
                    return 14;
                std::vector<std::string> names;
                for (const DirEntry &de : ents)
                    if (de.name != "." && de.name != "..")
                        names.push_back(de.name);
                if (names != std::vector<std::string>{"h"})
                    return 15;
                return 0;
            });
            ASSERT_TRUE(sys.simulate());
            EXPECT_EQ(sys.rootExitCode(), 0);
        }
    }
}

TEST(Distfs, ReplicasDefaultMatchesStripedPins)
{
    // Replication is strictly opt-in: with distfsReplicas at its
    // default of 1, a striped machine must take exactly the classic
    // code paths — untimed fan-out waits, no replica opens, no replica
    // namespace waves. These pins (wall cycles, trace size + djb2 hash)
    // were captured when replication landed; any drift means the
    // unreplicated path changed.
    trace::Tracer::enable();
    trace::Tracer::reset();
    Cycles wall = 0;
    std::string json;
    {
        M3System sys(stripedCfg(2));
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            Error err = Error::None;
            auto dfs = m3fs::DistfsSession::create(env, err);
            if (!dfs)
                return 1;
            if (dfs->replicaFactor() != 1)
                return 2;
            auto data = m3fs::FsImage::patternData(50000, 3);
            {
                auto f = dfs->open("/data/pin", FILE_W | FILE_CREATE,
                                   err);
                if (!f || f->write(data.data(), data.size()) !=
                              static_cast<ssize_t>(data.size()))
                    return 3;
            }
            FileInfo info;
            if (dfs->stat("/data/pin", info) != Error::None ||
                info.size != data.size())
                return 4;
            auto f = dfs->open("/data/pin", FILE_R, err);
            std::vector<uint8_t> back(data.size());
            if (!f ||
                f->read(back.data(), back.size()) !=
                    static_cast<ssize_t>(back.size()) ||
                back != data)
                return 5;
            f.reset();
            if (dfs->mkdir("/data/sub") != Error::None)
                return 6;
            if (dfs->rename("/data/pin", "/data/sub/pin") != Error::None)
                return 7;
            std::vector<DirEntry> ents;
            if (dfs->readdir("/data/sub", ents) != Error::None ||
                ents.size() != 1)
                return 8;
            if (dfs->unlink("/data/sub/pin") != Error::None)
                return 9;
            return 0;
        });
        EXPECT_TRUE(sys.simulate());
        EXPECT_EQ(sys.rootExitCode(), 0);
        wall = sys.now();
        json = trace::Tracer::toJson();
    }
    trace::Tracer::disable();
    uint64_t h = 5381;
    for (char c : json)
        h = h * 33 + static_cast<uint8_t>(c);
    // Pin values recorded from the run that introduced replication
    // (see DESIGN.md Sec. 14).
    EXPECT_EQ(wall, 28675u);
    EXPECT_EQ(json.size(), 153112u);
    EXPECT_EQ(h, 0xa12e3af473248687ull);
}

} // namespace m3
