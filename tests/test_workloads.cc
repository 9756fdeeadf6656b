/**
 * @file
 * Integration tests for the benchmark workloads: every trace replays
 * successfully on both systems, the natively implemented applications
 * produce identical output on M3 and Linux, the FFT is numerically
 * correct, and the accelerator/scalability machinery behaves sanely.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "accel/fft.hh"
#include "libm3/m3system.hh"
#include "m3fs/client.hh"
#include "m3fs/fs_image.hh"
#include "trace/metrics.hh"
#include "workloads/generators.hh"
#include "workloads/m3_replay.hh"
#include "workloads/micro.hh"
#include "workloads/runners.hh"

namespace m3
{
namespace workloads
{
namespace
{

class TraceWorkloads : public ::testing::TestWithParam<std::string>
{
  protected:
    Workload
    workload()
    {
        ComputeCosts compute;
        for (Workload &w : makeAllTraceWorkloads(compute))
            if (w.name == GetParam())
                return w;
        ADD_FAILURE() << "unknown workload " << GetParam();
        return {};
    }
};

TEST_P(TraceWorkloads, ReplaysOnM3)
{
    RunResult r = runM3Trace(workload());
    EXPECT_EQ(r.rc, 0);
    EXPECT_GT(r.wall, 0u);
    EXPECT_GT(r.acct.totalBusy(), 0u);
}

TEST_P(TraceWorkloads, ReplaysOnLinux)
{
    RunResult r = runLxTrace(workload());
    EXPECT_EQ(r.rc, 0);
    EXPECT_GT(r.wall, 0u);
}

TEST_P(TraceWorkloads, LxCacheModeIsFaster)
{
    LxRunOpts hit;
    hit.cacheAlwaysHit = true;
    RunResult rHit = runLxTrace(workload(), hit);
    RunResult rMiss = runLxTrace(workload());
    EXPECT_EQ(rHit.rc, 0);
    EXPECT_LE(rHit.wall, rMiss.wall);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TraceWorkloads,
                         ::testing::Values("tar", "untar", "find",
                                           "sqlite"));

TEST(CatTr, RunsOnBothSystemsAndM3Wins)
{
    CatTrParams p;
    RunResult m3r = runM3CatTr(p);
    RunResult lxr = runLxCatTr(p);
    ASSERT_EQ(m3r.rc, 0);
    ASSERT_EQ(lxr.rc, 0);
    // Sec. 5.6: M3 is about twice as fast on cat+tr.
    EXPECT_LT(m3r.wall, lxr.wall);
}

TEST(CatTr, TarUntarShapesHold)
{
    // Sec. 5.6: tar and untar on M3 take roughly 20% / 16% of Linux.
    ComputeCosts compute;
    for (const char *name : {"tar", "untar"}) {
        Workload w;
        for (Workload &cand : makeAllTraceWorkloads(compute))
            if (cand.name == name)
                w = cand;
        RunResult m3r = runM3Trace(w);
        RunResult lxr = runLxTrace(w);
        ASSERT_EQ(m3r.rc, 0) << name;
        ASSERT_EQ(lxr.rc, 0) << name;
        double ratio = static_cast<double>(m3r.wall) /
                       static_cast<double>(lxr.wall);
        EXPECT_LT(ratio, 0.5) << name << ": M3 should win clearly";
    }
}

TEST(Find, LinuxSlightlyFaster)
{
    // Sec. 5.6: find is the benchmark where Linux is slightly ahead.
    ComputeCosts compute;
    Workload w = makeFind(compute);
    RunResult m3r = runM3Trace(w);
    RunResult lxr = runLxTrace(w);
    ASSERT_EQ(m3r.rc, 0);
    ASSERT_EQ(lxr.rc, 0);
    EXPECT_GT(m3r.wall, lxr.wall);
    // ... but not by much (within 2x).
    EXPECT_LT(m3r.wall, 2 * lxr.wall);
}

TEST(Sqlite, ComputeDominates)
{
    ComputeCosts compute;
    Workload w = makeSqlite(compute);
    RunResult m3r = runM3Trace(w);
    ASSERT_EQ(m3r.rc, 0);
    // The App segment is the majority of the time (Sec. 5.6).
    EXPECT_GT(m3r.app(), m3r.os() + m3r.xfer());
}

TEST(Fft, NumericallyCorrect)
{
    // Round trip: FFT followed by inverse FFT restores the input.
    std::vector<std::complex<float>> data(256);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = {std::sin(0.1f * i), std::cos(0.3f * i)};
    auto orig = data;
    accel::fft(data.data(), data.size(), false);
    accel::fft(data.data(), data.size(), true);
    for (size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-3);
        EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-3);
    }
}

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    std::vector<std::complex<float>> data(64, {0, 0});
    data[0] = {1, 0};
    accel::fft(data.data(), data.size());
    for (auto &c : data)
        EXPECT_NEAR(std::abs(c), 1.0f, 1e-4);
}

TEST(Fft, ButterflyCountAndCost)
{
    EXPECT_EQ(accel::fftButterflies(8), 12u);      // 4 * 3 stages
    EXPECT_EQ(accel::fftButterflies(1024), 5120u); // 512 * 10
    ComputeCosts costs;
    EXPECT_EQ(accel::fftCost(1024, costs, true),
              accel::fftCost(1024, costs, false) / costs.fftAccelFactor);
}

TEST(FftChain, AcceleratorBeatsSoftware)
{
    FftParams sw;
    sw.binary = "/bin/fft-sw";
    FftParams acc;
    acc.useAccel = true;
    acc.binary = "/bin/fft-accel";

    RunResult rSw = runM3Fft(sw);
    RunResult rAcc = runM3Fft(acc);
    ASSERT_EQ(rSw.rc, 0);
    ASSERT_EQ(rAcc.rc, 0);
    // Fig. 7: the accelerator version is far faster end to end.
    EXPECT_LT(rAcc.wall, rSw.wall / 2);
    // The pure FFT time shrinks by about the accelerator factor.
    EXPECT_LT(rAcc.app() * 10, rSw.app());
}

TEST(FftChain, LinuxChainSlowerThanM3)
{
    FftParams p;
    p.binary = "/bin/fft-cmp";
    RunResult m3r = runM3Fft(p);
    RunResult lxr = runLxFft(p);
    ASSERT_EQ(m3r.rc, 0);
    ASSERT_EQ(lxr.rc, 0);
    EXPECT_LT(m3r.wall, lxr.wall);
}

TEST(Scalability, FewInstancesScaleWell)
{
    ScalabilityResult one = runM3Scalability("tar", 1);
    ScalabilityResult four = runM3Scalability("tar", 4);
    ASSERT_EQ(one.rc, 0);
    ASSERT_EQ(four.rc, 0);
    // Sec. 5.7: up to 4 instances scale very well (allow 35% slack).
    EXPECT_LT(four.avgInstance,
              one.avgInstance + one.avgInstance * 35 / 100);
}

TEST(Scalability, CatTrScalesAlmostPerfectly)
{
    ScalabilityResult two = runM3Scalability("cat+tr", 2);
    ScalabilityResult eight = runM3Scalability("cat+tr", 8);
    ASSERT_EQ(two.rc, 0);
    ASSERT_EQ(eight.rc, 0);
    // After setup, only reader and writer communicate (Sec. 5.7).
    EXPECT_LT(eight.avgInstance,
              two.avgInstance + two.avgInstance / 2);
}

TEST(Scalability, ChunksLargerThan64KiBReplay)
{
    // Sendfile chunks of any size (m3bench --io-chunk) fit the replay
    // buffer, which is sized to the trace's largest chunk.
    M3RunOpts opts;
    opts.ioChunk = 128 * KiB;
    ScalabilityResult r = runM3Scalability("tar", 2, opts);
    EXPECT_EQ(r.rc, 0);
}

TEST(Scalability, TarHostFootprintIsPinned)
{
    // The DRAM pages the host writes for the 16-instance tar machine.
    // The member files are copied by reference (Bytes through
    // MemTarget::write), so this counts tar headers and m3fs metadata,
    // not file contents: a change that makes the copies materialise
    // again moves it.
    ScalabilityResult r = runM3Scalability("tar", 16);
    ASSERT_EQ(r.rc, 0);
    EXPECT_EQ(r.dramWrittenPages, 49u);
}

TEST(Scalability, MultiImageHostFootprintIsPinned)
{
    // The same, on machines with 4 m3fs images: boot builds the first
    // and copies it for the others (MemTarget::copy), which pages in
    // only what the first wrote. A copy that pages in more moves these.
    M3RunOpts opts;
    opts.fsInstances = 4;
    opts.numKernels = 4;
    ScalabilityResult r = runM3Scalability("tar", 16, opts);
    ASSERT_EQ(r.rc, 0);
    EXPECT_EQ(r.dramWrittenPages, 133u);
    // The fs_scale machine: 240 instances' files in each image.
    ScalabilityResult big = runM3Scalability("tar", 240, opts);
    ASSERT_EQ(big.rc, 0);
    EXPECT_EQ(big.dramWrittenPages, 1978u);
}

TEST(Scalability, TarArchiveHoldsItsMembers)
{
    // The tar trace on a small spin-path machine (Sec. 5.7), whose
    // member bytes move by reference, read back through a host buffer.
    // The archive must hold what tar wrote: each 512-byte header is the
    // front of the replay buffer, the previous member's last chunk
    // (zeros before the first member), and then the member itself.
    Workload tar;
    for (Workload &w : makeAllTraceWorkloads(ComputeCosts{}))
        if (w.name == "tar")
            tar = w;
    ASSERT_FALSE(tar.trace.empty());

    std::vector<uint8_t> expect, buf(largestChunk(tar.trace));
    std::map<uint32_t, const SetupFile *> open;
    for (const TraceOp &op : tar.trace) {
        if (op.kind == TraceOp::Kind::Open) {
            open[op.fdSlot] = nullptr;
            for (const SetupFile &f : tar.setup.files)
                if (f.path == op.path)
                    open[op.fdSlot] = &f;
        } else if (op.kind == TraceOp::Kind::Write) {
            for (uint64_t done = 0; done < op.len; done += op.chunkSize) {
                const size_t n = std::min<uint64_t>(op.chunkSize,
                                                    op.len - done);
                expect.insert(expect.end(), buf.begin(), buf.begin() + n);
            }
        } else if (op.kind == TraceOp::Kind::Sendfile) {
            const SetupFile *f = open.at(op.fdSlot2);
            ASSERT_NE(f, nullptr);
            const std::vector<uint8_t> data =
                m3fs::FsImage::patternData(f->size, f->seed);
            for (size_t done = 0; done < data.size(); done += op.chunkSize) {
                const size_t n = std::min<size_t>(op.chunkSize,
                                                  data.size() - done);
                std::copy_n(data.begin() + done, n, buf.begin());
                expect.insert(expect.end(), data.begin() + done,
                              data.begin() + done + n);
            }
        }
    }

    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.costs.spinDataTransfers = true;
    applySetupToImage(tar.setup, cfg.fsSpec);
    cfg.fsSpec.totalBlocks = 32768;
    M3System sys(std::move(cfg));
    std::vector<uint8_t> archive;
    sys.runRoot("tar", [&] {
        Env &env = Env::cur();
        if (m3fs::M3fsSession::mount(env, "/") != Error::None)
            return 100;
        if (int rc = replayTraceM3(env, tar.trace))
            return rc;
        Error e = Error::None;
        auto f = env.vfs().open("/out/archive.tar", FILE_R, e);
        if (!f)
            return 101;
        std::vector<uint8_t> chunk(8 * KiB);
        for (ssize_t n; (n = f->read(chunk.data(), chunk.size())) > 0;)
            archive.insert(archive.end(), chunk.begin(), chunk.begin() + n);
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    ASSERT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(archive.size(), expect.size());
    EXPECT_TRUE(archive == expect);
}

/** The named trace workload. */
Workload
traceWorkload(const std::string &name)
{
    for (Workload &w : makeAllTraceWorkloads(ComputeCosts{}))
        if (w.name == name)
            return w;
    ADD_FAILURE() << "unknown workload " << name;
    return {};
}

/**
 * Run @p run with metrics on and report whether it succeeded on a
 * machine whose second kernel exported its stats: each runner must
 * build the machine its M3RunOpts describe.
 */
template <typename Run>
bool
ranOnTwoKernels(Run run)
{
    trace::Metrics::reset();
    trace::Metrics::enable();
    const int rc = run().rc;
    const bool k1 = trace::Metrics::toJson().find(
                        "\"kernel.k1.syscalls\"") != std::string::npos;
    trace::Metrics::disable();
    trace::Metrics::reset();
    return rc == 0 && k1;
}

TEST(Runners, EveryRunnerBootsTheKernelsItIsGiven)
{
    MicroOpts micro;
    micro.fileBytes = 64 * KiB;
    micro.m3.numKernels = 2;
    const M3RunOpts &opts = micro.m3;
    EXPECT_TRUE(ranOnTwoKernels([&] { return m3NullSyscall(4, opts); }));
    EXPECT_TRUE(ranOnTwoKernels([&] { return m3FileRead(micro); }));
    EXPECT_TRUE(ranOnTwoKernels([&] { return m3FileWrite(micro); }));
    EXPECT_TRUE(ranOnTwoKernels([&] { return m3PipeXfer(micro); }));
    const Workload tar = traceWorkload("tar");
    EXPECT_TRUE(ranOnTwoKernels([&] { return runM3Trace(tar, opts); }));
    EXPECT_TRUE(ranOnTwoKernels([&] {
        return runM3CatTr(CatTrParams{}, opts);
    }));
    FftParams fft;
    fft.binary = "/bin/fft-k2";
    EXPECT_TRUE(ranOnTwoKernels([&] { return runM3Fft(fft, opts); }));
}

TEST(Runners, ScalabilityHonoursImageFragmentation)
{
    M3RunOpts frag;
    frag.fsBlocksPerExtent = 4;
    ScalabilityResult plain = runM3Scalability("tar", 2);
    ScalabilityResult fragmented = runM3Scalability("tar", 2, frag);
    ASSERT_EQ(plain.rc, 0);
    ASSERT_EQ(fragmented.rc, 0);
    EXPECT_NE(fragmented.avgInstance, plain.avgInstance);
}

TEST(Runners, TraceRunHonoursTheIoChunk)
{
    const Workload tar = traceWorkload("tar");
    M3RunOpts chunked;
    chunked.ioChunk = 16 * KiB;
    RunResult plain = runM3Trace(tar);
    RunResult big = runM3Trace(tar, chunked);
    ASSERT_EQ(plain.rc, 0);
    ASSERT_EQ(big.rc, 0);
    EXPECT_NE(big.wall, plain.wall);
}

TEST(FsImage, SharedPatternContentIsByteIdentical)
{
    FsSetup tar;
    for (Workload &w : makeAllTraceWorkloads(ComputeCosts{}))
        if (w.name == "tar")
            tar = w.setup;
    ASSERT_FALSE(tar.files.empty());

    // Two instance-private copies of the tar setup in one image.
    m3fs::FsImageSpec spec;
    for (const std::string prefix : {"/i0", "/i1"}) {
        FsSetup copy;
        copy.dirs.push_back(prefix);
        for (const std::string &d : tar.dirs)
            copy.dirs.push_back(prefix + d);
        for (SetupFile f : tar.files) {
            f.path = prefix + f.path;
            copy.files.push_back(f);
        }
        applySetupToImage(copy, spec);
    }
    const size_t n = tar.files.size();
    ASSERT_EQ(spec.files.size(), 2 * n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(spec.files[i].data, spec.files[n + i].data)
            << spec.files[i].path << " has a second buffer";
        EXPECT_EQ(spec.files[i].data,
                  spec.pattern(tar.files[i].size, tar.files[i].seed));
    }

    Dram dram(32 * MiB, 20);
    m3fs::FsImage image(dram, 0, spec);
    for (size_t i = 0; i < spec.files.size(); ++i) {
        const SetupFile &f = tar.files[i % n];
        std::vector<uint8_t> back;
        ASSERT_EQ(image.core().readFile(spec.files[i].path, back),
                  Error::None);
        EXPECT_EQ(back, m3fs::FsImage::patternData(f.size, f.seed))
            << spec.files[i].path;
    }
}

TEST(FsImage, ImagesSharingContentStayIsolated)
{
    m3fs::FsImageSpec spec;
    spec.totalBlocks = 1024;
    spec.totalInodes = 32;
    spec.dirs = {"/d"};
    spec.files.emplace_back("/d/f", spec.pattern(10000, 7));
    spec.files.emplace_back("/d/g", spec.pattern(10000, 7), 4);

    Dram dram(4 * MiB, 20);
    m3fs::FsImage a(dram, 0, spec);
    m3fs::FsImage b(dram, a.sizeBytes(), spec);

    // Overwrite the middle of image A's /d/f behind the image's back.
    m3fs::FsCore &core = a.core();
    m3fs::Extent ext = core.getExtent(
        core.getInode(core.resolve("/d/f").ino), 0);
    const std::vector<uint8_t> junk(50, 0xee);
    core.access().write(core.blockOff(ext.start) + 100, junk.data(),
                        junk.size());

    const std::vector<uint8_t> pattern = m3fs::FsImage::patternData(10000, 7);
    std::vector<uint8_t> expectA = pattern;
    std::copy(junk.begin(), junk.end(), expectA.begin() + 100);
    std::vector<uint8_t> back;
    ASSERT_EQ(a.core().readFile("/d/f", back), Error::None);
    EXPECT_EQ(back, expectA);
    for (const char *path : {"/d/f", "/d/g"}) {
        ASSERT_EQ(b.core().readFile(path, back), Error::None);
        EXPECT_EQ(back, pattern) << path;
    }
    ASSERT_EQ(a.core().readFile("/d/g", back), Error::None);
    EXPECT_EQ(back, pattern);
    EXPECT_EQ(*spec.pattern(10000, 7), pattern);
    std::string report;
    EXPECT_TRUE(a.core().check(report)) << report;
    EXPECT_TRUE(b.core().check(report)) << report;
}

TEST(TraceReplay, EveryOpKindReplaysOnBothSystems)
{
    // A synthetic trace touching every TraceOp kind once.
    Workload w;
    w.name = "allops";
    w.setup.dirs = {"/d"};
    w.setup.files.push_back({"/d/in", 10000, 42});
    Trace &t = w.trace;
    t.push_back({TraceOp::Kind::Mkdir, "/d/sub", "", 0, 0});
    t.push_back({TraceOp::Kind::Open, "/d/in", "", 1, 0});
    TraceOp rd{TraceOp::Kind::Read};
    rd.fdSlot = 0;
    rd.len = 10000;
    t.push_back(rd);
    TraceOp seek{TraceOp::Kind::Seek};
    seek.fdSlot = 0;
    seek.len = 100;
    t.push_back(seek);
    t.push_back({TraceOp::Kind::Open, "/d/out", "", 2 | 4, 1});
    TraceOp wr{TraceOp::Kind::Write};
    wr.fdSlot = 1;
    wr.len = 5000;
    t.push_back(wr);
    TraceOp sf{TraceOp::Kind::Sendfile};
    sf.fdSlot = 1;
    sf.fdSlot2 = 0;
    sf.len = 2000;
    t.push_back(sf);
    t.push_back({TraceOp::Kind::Fsync, "", "", 0, 1});
    t.push_back({TraceOp::Kind::Close, "", "", 0, 1});
    t.push_back({TraceOp::Kind::Close, "", "", 0, 0});
    t.push_back({TraceOp::Kind::Stat, "/d/out", "", 0, 0});
    t.push_back({TraceOp::Kind::Link, "/d/out", "/d/hard", 0, 0});
    t.push_back({TraceOp::Kind::Rename, "/d/out", "/d/sub/moved", 0, 0});
    t.push_back({TraceOp::Kind::Readdir, "/d", "", 0, 0});
    t.push_back({TraceOp::Kind::Unlink, "/d/hard", "", 0, 0});
    TraceOp comp{TraceOp::Kind::Compute};
    comp.len = 1000;
    t.push_back(comp);

    RunResult m3r = runM3Trace(w);
    EXPECT_EQ(m3r.rc, 0);
    RunResult lxr = runLxTrace(w);
    EXPECT_EQ(lxr.rc, 0);
}
} // anonymous namespace
} // namespace workloads
} // namespace m3
