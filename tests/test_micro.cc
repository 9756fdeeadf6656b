/**
 * @file
 * The paper's numeric anchors as fast regression tests: the Sec. 5.3
 * syscall costs, the Sec. 5.4 per-block file costs and bandwidth gap,
 * and the Fig. 4 fragmentation trend — so a calibration change that
 * breaks a headline result fails the test suite, not just the benches.
 */

#include <gtest/gtest.h>

#include "workloads/micro.hh"

namespace m3
{
namespace workloads
{
namespace
{

TEST(MicroAnchors, M3SyscallNear200Cycles)
{
    RunResult r = m3NullSyscall(32);
    ASSERT_EQ(r.rc, 0);
    EXPECT_GE(r.wall, 150u);
    EXPECT_LE(r.wall, 260u);
}

TEST(MicroAnchors, LinuxSyscall410Cycles)
{
    RunResult r = lxNullSyscall(32);
    ASSERT_EQ(r.rc, 0);
    EXPECT_EQ(r.wall, 410u);
}

TEST(MicroAnchors, LinuxPipeTransferIsPinned)
{
    // 2 MiB through the 64 KiB pipe: copy costs, blocking points and
    // wake-ups all show in these cycles.
    RunResult r = lxPipeXfer(MicroOpts{});
    ASSERT_EQ(r.rc, 0);
    EXPECT_EQ(r.wall, 6612060u);
    EXPECT_EQ(r.app(), 0u);
    EXPECT_EQ(r.xfer(), 5242880u);
    EXPECT_EQ(r.os(), 1369180u);
}

TEST(MicroAnchors, M3ReadBeatsLinuxByLargeFactor)
{
    MicroOpts opts;
    opts.fileBytes = 512 * KiB;  // keep the test fast
    RunResult m3r = m3FileRead(opts);
    RunResult lxr = lxFileRead(opts);
    ASSERT_EQ(m3r.rc, 0);
    ASSERT_EQ(lxr.rc, 0);
    EXPECT_GT(lxr.wall, 4 * m3r.wall);
    // Data transfers carry most of the difference (Sec. 5.4).
    EXPECT_GT(lxr.xfer(), 4 * m3r.xfer());
}

TEST(MicroAnchors, M3PerBlockSoftwareCostNear160Cycles)
{
    // Sec. 5.4: ~70 + ~90 cycles per 4 KiB block on M3.
    MicroOpts opts;
    opts.fileBytes = 512 * KiB;
    RunResult r = m3FileRead(opts);
    ASSERT_EQ(r.rc, 0);
    Cycles swPerBlock =
        (r.acct.totalBusy() - r.xfer()) / (opts.fileBytes / 4096);
    EXPECT_GE(swPerBlock, 120u);
    EXPECT_LE(swPerBlock, 260u);
}

TEST(MicroAnchors, LinuxPerBlockOsCostNear1330Cycles)
{
    // Sec. 5.4: ~380 + ~400 + ~550 cycles per 4 KiB block on Linux.
    MicroOpts opts;
    opts.fileBytes = 512 * KiB;
    RunResult r = lxFileRead(opts);
    ASSERT_EQ(r.rc, 0);
    Cycles osPerBlock = r.os() / (opts.fileBytes / 4096);
    EXPECT_GE(osPerBlock, 1200u);
    EXPECT_LE(osPerBlock, 1500u);
}

TEST(MicroAnchors, DtuStreamsEightBytesPerCycle)
{
    // The 2 MiB read's transfer share approximates size / 8 B/cycle.
    MicroOpts opts;
    RunResult r = m3FileRead(opts);
    ASSERT_EQ(r.rc, 0);
    Cycles ideal = opts.fileBytes / 8;
    EXPECT_GE(r.xfer(), ideal);
    EXPECT_LE(r.xfer(), ideal * 12 / 10);
}

TEST(MicroAnchors, FragmentationTrendMonotone)
{
    // Fig. 4: fewer blocks per extent means more service round trips.
    Cycles prev = 0;
    for (uint32_t bpe : {256u, 64u, 16u}) {
        MicroOpts opts;
        opts.fileBytes = 512 * KiB;
        opts.m3.fsBlocksPerExtent = bpe;
        RunResult r = m3FileRead(opts);
        ASSERT_EQ(r.rc, 0);
        if (prev) {
            EXPECT_GT(r.wall, prev) << "bpe=" << bpe;
        }
        prev = r.wall;
    }
}

TEST(MicroAnchors, M3LikesLargeBuffersLinuxPeaksAt4K)
{
    // Sec. 5.4: "4 KiB is the sweet spot on Linux (M3 benefits from
    // larger buffer sizes until all available SPM is used)".
    MicroOpts small, large;
    small.fileBytes = large.fileBytes = 512 * KiB;
    small.bufSize = 4096;
    large.bufSize = 16384;
    RunResult m3Small = m3FileRead(small);
    RunResult m3Large = m3FileRead(large);
    ASSERT_EQ(m3Small.rc, 0);
    ASSERT_EQ(m3Large.rc, 0);
    EXPECT_LT(m3Large.wall, m3Small.wall);
}

} // anonymous namespace
} // namespace workloads
} // namespace m3
