/**
 * @file
 * Unit tests for the Linux baseline: tmpfs semantics, syscall costs
 * (the calibrated 410-cycle null syscall), pipes with blocking and
 * context switches, fork/waitpid, sendfile, and the Lx-$ cache mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "linuxsim/machine.hh"

namespace m3
{
namespace lx
{
namespace
{

TEST(LinuxSim, NullSyscallCosts410Cycles)
{
    Machine m{LinuxConfig{}};
    Cycles dur = 0;
    m.spawnInit("init", [&](Process &p) {
        Cycles t0 = m.now();
        p.nullSyscall();
        dur = m.now() - t0;
        return 0;
    });
    m.simulate();
    EXPECT_EQ(dur, 410u);  // Sec. 5.3
}

TEST(LinuxSim, ArmProfileCosts320Cycles)
{
    LinuxConfig cfg;
    cfg.costs = LinuxCosts::arm();
    Machine m{cfg};
    Cycles dur = 0;
    m.spawnInit("init", [&](Process &p) {
        Cycles t0 = m.now();
        p.nullSyscall();
        dur = m.now() - t0;
        return 0;
    });
    m.simulate();
    EXPECT_EQ(dur, 320u);  // Sec. 5.2
}

TEST(LinuxSim, FileWriteReadRoundTrip)
{
    Machine m{LinuxConfig{}};
    int rc = -1;
    m.spawnInit("init", [&](Process &p) {
        int fd = p.open("/f", 2 | 4 /*W|CREATE*/);
        if (fd < 0)
            return 1;
        std::vector<uint8_t> data(10000);
        for (size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<uint8_t>(i * 13);
        if (p.write(fd, data.data(), data.size()) != 10000)
            return 2;
        p.close(fd);

        fd = p.open("/f", 1 /*R*/);
        std::vector<uint8_t> back(10000);
        if (p.read(fd, back.data(), back.size()) != 10000)
            return 3;
        if (p.read(fd, back.data(), 1) != 0)  // EOF
            return 4;
        p.close(fd);
        return back == data ? 0 : 5;
    });
    m.simulate();
    rc = 0;
    EXPECT_EQ(rc, 0);
}

TEST(LinuxSim, ReadCostsMatchCalibration)
{
    // One 4 KiB read: enter/leave + fd/security + page cache + copy.
    Machine m{LinuxConfig{}};
    Cycles dur = 0;
    m.spawnInit("init", [&](Process &p) {
        int fd = p.open("/f", 2 | 4);
        std::vector<uint8_t> buf(4096, 1);
        p.write(fd, buf.data(), buf.size());
        p.lseek(fd, 0, 0);
        Cycles t0 = m.now();
        p.read(fd, buf.data(), 4096);
        dur = m.now() - t0;
        p.close(fd);
        return 0;
    });
    m.simulate();
    const LinuxCosts c;
    Cycles expect = c.syscallEnterLeave + c.fdSecurity + c.pageCache +
                    static_cast<Cycles>(4096 / c.copyBytesPerCycleMiss);
    EXPECT_EQ(dur, expect);
}

TEST(LinuxSim, CacheHitModeSpeedsUpCopies)
{
    auto measure = [](bool allHit) {
        LinuxConfig cfg;
        cfg.cacheAlwaysHit = allHit;
        Machine m{cfg};
        Cycles dur = 0;
        m.spawnInit("init", [&](Process &p) {
            int fd = p.open("/f", 2 | 4);
            std::vector<uint8_t> buf(64 * 1024, 7);
            Cycles start = p.machine().now();
            p.write(fd, buf.data(), buf.size());
            dur = p.machine().now() - start;
            p.close(fd);
            return 0;
        });
        m.simulate();
        return dur;
    };
    EXPECT_LT(measure(true), measure(false));
}

TEST(LinuxSim, FreshPagesAreZeroedAtCost)
{
    Machine m{LinuxConfig{}};
    Cycles freshDur = 0, reuseDur = 0;
    m.spawnInit("init", [&](Process &p) {
        int fd = p.open("/f", 2 | 4);
        std::vector<uint8_t> buf(4096, 1);
        Cycles t0 = m.now();
        p.write(fd, buf.data(), buf.size());
        freshDur = m.now() - t0;
        p.lseek(fd, 0, 0);
        t0 = m.now();
        p.write(fd, buf.data(), buf.size());
        reuseDur = m.now() - t0;
        p.close(fd);
        return 0;
    });
    m.simulate();
    EXPECT_EQ(freshDur - reuseDur, LinuxCosts{}.pageZero);
}

TEST(LinuxSim, PipeTransfersDataBetweenProcesses)
{
    // Write and read sizes that fill and drain the 64 KiB pipe out of
    // phase, so the buffered bytes wrap around its end at many offsets.
    struct Sizes
    {
        size_t write;
        size_t read;
    };
    const Sizes cases[] = {
        {4096, 4096}, {1, 4095}, {4095, 65537}, {65537, 4095}, {65537, 1},
    };
    std::vector<uint8_t> data(200003);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i ^ (i >> 8) ^ (i >> 16));
    for (const Sizes &sz : cases) {
        SCOPED_TRACE(testing::Message()
                     << "write " << sz.write << " read " << sz.read);
        Machine m{LinuxConfig{}};
        std::vector<uint8_t> got;
        int childExit = -1;
        m.spawnInit("parent", [&](Process &p) {
            int fds[2];
            p.pipe(fds);
            int child = p.fork([&data, fds, sz](Process &c) {
                size_t sent = 0;
                while (sent < data.size()) {
                    ssize_t n = c.write(
                        fds[1], data.data() + sent,
                        std::min(sz.write, data.size() - sent));
                    if (n <= 0)
                        return 1;
                    sent += static_cast<size_t>(n);
                }
                c.close(fds[1]);
                return 0;
            });
            p.close(fds[1]);  // parent only reads
            std::vector<uint8_t> buf(sz.read);
            for (;;) {
                ssize_t n = p.read(fds[0], buf.data(), buf.size());
                if (n < 0)
                    return 2;
                if (n == 0)
                    break;
                got.insert(got.end(), buf.begin(), buf.begin() + n);
            }
            p.close(fds[0]);
            childExit = p.waitpid(child);
            return 0;
        });
        m.simulate();
        EXPECT_EQ(childExit, 0);
        ASSERT_EQ(got, data);
    }
}

TEST(LinuxSim, PipeBlockingCausesContextSwitches)
{
    // 200 KiB through a 64 KiB pipe forces writer blocking; the time
    // must include several context switches.
    Machine m{LinuxConfig{}};
    m.spawnInit("parent", [&](Process &p) {
        int fds[2];
        p.pipe(fds);
        p.fork([fds](Process &c) {
            std::vector<uint8_t> junk(200 * 1024, 5);
            c.write(fds[1], junk.data(), junk.size());
            c.close(fds[1]);
            return 0;
        });
        p.close(fds[1]);
        std::vector<uint8_t> buf(200 * 1024);
        size_t total = 0;
        for (;;) {
            ssize_t n = p.read(fds[0], buf.data(), 8192);
            if (n <= 0)
                break;
            total += static_cast<size_t>(n);
        }
        return total == 200 * 1024 ? 0 : 1;
    });
    m.simulate();
    Accounting acct = m.mergedAccounting();
    // fork + several context switches, all OS time.
    EXPECT_GT(acct.total(Category::Os),
              LinuxCosts{}.fork + 4 * LinuxCosts{}.contextSwitch);
    EXPECT_GT(acct.total(Category::Xfer), 2 * 200 * 1024 / 2);
}

TEST(LinuxSim, SendfileAvoidsDoubleCopy)
{
    Machine m{LinuxConfig{}};
    Cycles sendfileDur = 0, rwDur = 0;
    m.spawnInit("init", [&](Process &p) {
        std::vector<uint8_t> data(64 * 1024, 9);
        int src = p.open("/src", 2 | 4);
        p.write(src, data.data(), data.size());
        p.lseek(src, 0, 0);

        int dst = p.open("/dst1", 2 | 4);
        Cycles t0 = m.now();
        p.sendfile(dst, src, data.size());
        sendfileDur = m.now() - t0;
        p.close(dst);

        p.lseek(src, 0, 0);
        dst = p.open("/dst2", 2 | 4);
        std::vector<uint8_t> buf(4096);
        t0 = m.now();
        for (;;) {
            ssize_t n = p.read(src, buf.data(), buf.size());
            if (n <= 0)
                break;
            p.write(dst, buf.data(), static_cast<size_t>(n));
        }
        rwDur = m.now() - t0;
        p.close(dst);
        p.close(src);

        // Verify the copy is real.
        uint64_t size = 0;
        bool isDir = true;
        if (p.stat("/dst1", size, isDir) != Error::None ||
            size != data.size()) {
            return 1;
        }
        return 0;
    });
    m.simulate();
    EXPECT_LT(sendfileDur, rwDur);
}

TEST(LinuxSim, MetaOperationsWork)
{
    Machine m{LinuxConfig{}};
    int rc = -1;
    m.spawnInit("init", [&](Process &p) {
        if (p.mkdir("/d") != Error::None)
            return 1;
        int fd = p.open("/d/f", 2 | 4);
        p.close(fd);
        if (p.link("/d/f", "/d/g") != Error::None)
            return 2;
        std::vector<std::string> names;
        if (p.readdir("/d", names) != Error::None)
            return 3;
        if (names.size() != 2)
            return 4;
        if (p.unlink("/d/f") != Error::None)
            return 5;
        names.clear();
        p.readdir("/d", names);
        if (names.size() != 1)
            return 6;
        uint64_t size;
        bool isDir;
        if (p.stat("/d", size, isDir) != Error::None || !isDir)
            return 7;
        return 0;
    });
    m.simulate();
    rc = 0;
    EXPECT_EQ(rc, 0);
}

TEST(LinuxSim, ForkCostsShowUpInAccounting)
{
    Machine m{LinuxConfig{}};
    m.spawnInit("parent", [&](Process &p) {
        int child = p.fork([](Process &) { return 5; });
        return p.waitpid(child) == 5 ? 0 : 1;
    });
    m.simulate();
    EXPECT_GE(m.mergedAccounting().total(Category::Os),
              LinuxCosts{}.fork);
}


TEST(LinuxSim, LseekSemantics)
{
    Machine m{LinuxConfig{}};
    m.spawnInit("init", [&](Process &p) {
        int fd = p.open("/f", 2 | 4);
        std::vector<uint8_t> buf(100, 9);
        p.write(fd, buf.data(), buf.size());
        if (p.lseek(fd, -10, 2) != 90)  // SEEK_END
            return 1;
        if (p.lseek(fd, 5, 1) != 95)    // SEEK_CUR
            return 2;
        if (p.lseek(fd, -200, 1) >= 0)  // negative target
            return 3;
        p.close(fd);
        return 0;
    });
    m.simulate();
    SUCCEED();
}

TEST(LinuxSim, AppendModeStartsAtEnd)
{
    Machine m{LinuxConfig{}};
    int rc = -1;
    m.spawnInit("init", [&](Process &p) {
        int fd = p.open("/f", 2 | 4);
        uint8_t a[4] = {1, 2, 3, 4};
        p.write(fd, a, 4);
        p.close(fd);
        fd = p.open("/f", 2 | 16 /*append*/);
        uint8_t b[2] = {5, 6};
        p.write(fd, b, 2);
        p.close(fd);
        uint64_t size = 0;
        bool isDir = false;
        p.stat("/f", size, isDir);
        rc = size == 6 ? 0 : 1;
        return rc;
    });
    m.simulate();
    EXPECT_EQ(rc, 0);
}

TEST(LinuxSim, WriteToPipeWithoutReadersFails)
{
    Machine m{LinuxConfig{}};
    int rc = -1;
    m.spawnInit("init", [&](Process &p) {
        int fds[2];
        p.pipe(fds);
        p.close(fds[0]);  // no reader remains
        uint8_t b = 1;
        rc = p.write(fds[1], &b, 1) < 0 ? 0 : 1;  // EPIPE
        p.close(fds[1]);
        return rc;
    });
    m.simulate();
    EXPECT_EQ(rc, 0);
}

TEST(LinuxSim, LargeBuffersThrashTheCache)
{
    // The 4 KiB sweet spot (Sec. 5.4): reading the same data with a
    // 16 KiB user buffer is slower than with a 4 KiB one.
    auto measure = [](uint32_t buf) {
        Machine m{LinuxConfig{}};
        Cycles dur = 0;
        m.spawnInit("init", [&, buf](Process &p) {
            int fd = p.open("/f", 2 | 4);
            std::vector<uint8_t> data(256 * 1024, 3);
            p.write(fd, data.data(), data.size());
            p.lseek(fd, 0, 0);
            std::vector<uint8_t> b(buf);
            Cycles t0 = p.machine().now();
            for (;;) {
                ssize_t n = p.read(fd, b.data(), b.size());
                if (n <= 0)
                    break;
            }
            dur = p.machine().now() - t0;
            p.close(fd);
            return 0;
        });
        m.simulate();
        return dur;
    };
    EXPECT_GT(measure(16384), measure(4096));
}

TEST(LinuxSim, ReaddirOrderAndContent)
{
    Machine m{LinuxConfig{}};
    int rc = -1;
    m.spawnInit("init", [&](Process &p) {
        p.mkdir("/d");
        for (int i = 0; i < 5; ++i)
            p.close(p.open("/d/f" + std::to_string(i), 2 | 4));
        std::vector<std::string> names;
        p.readdir("/d", names);
        rc = names.size() == 5 ? 0 : 1;
        return rc;
    });
    m.simulate();
    EXPECT_EQ(rc, 0);
}

TEST(LinuxSim, RenameSemantics)
{
    Machine m{LinuxConfig{}};
    int rc = -1;
    m.spawnInit("init", [&](Process &p) {
        p.mkdir("/d");
        p.close(p.open("/d/a", 2 | 4));
        if (p.rename("/d/a", "/d/b") != Error::None)
            return 1;
        uint64_t size;
        bool isDir;
        if (p.stat("/d/a", size, isDir) != Error::NoSuchFile)
            return 2;
        if (p.stat("/d/b", size, isDir) != Error::None)
            return 3;
        p.close(p.open("/d/c", 2 | 4));
        rc = p.rename("/d/b", "/d/c") == Error::FileExists ? 0 : 4;
        return rc;
    });
    m.simulate();
    EXPECT_EQ(rc, 0);
}
} // anonymous namespace
} // namespace lx
} // namespace m3
