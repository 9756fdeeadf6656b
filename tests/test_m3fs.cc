/**
 * @file
 * m3fs end-to-end edge cases through the server: concurrent sessions,
 * append-after-reopen, in-place overwrite, files spilling into the
 * double-indirect extent table, space reclamation, directory chunking
 * and the error paths — with a host-side fsck after every scenario.
 */

#include <gtest/gtest.h>

#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"

namespace m3
{
namespace
{

M3SystemCfg
fsCfg()
{
    M3SystemCfg cfg;
    cfg.appPes = 4;
    cfg.fsSpec.dirs = {"/data"};
    cfg.fsSpec.totalBlocks = 16384;
    return cfg;
}

void
expectClean(M3System &sys)
{
    std::string report;
    EXPECT_TRUE(sys.fsImage()->core().check(report)) << report;
}

TEST(M3fs, AppendAfterReopen)
{
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Error e = Error::None;
        auto part1 = m3fs::FsImage::patternData(5000, 1);
        auto part2 = m3fs::FsImage::patternData(7000, 2);
        {
            auto f = env.vfs().open("/data/f", FILE_W | FILE_CREATE, e);
            if (f->write(part1.data(), part1.size()) !=
                static_cast<ssize_t>(part1.size()))
                return 1;
        }
        {
            auto f = env.vfs().open("/data/f", FILE_W | FILE_APPEND, e);
            if (!f)
                return 2;
            if (f->write(part2.data(), part2.size()) !=
                static_cast<ssize_t>(part2.size()))
                return 3;
        }
        auto f = env.vfs().open("/data/f", FILE_R, e);
        std::vector<uint8_t> all(12000);
        if (f->read(all.data(), all.size()) != 12000)
            return 4;
        if (!std::equal(part1.begin(), part1.end(), all.begin()))
            return 5;
        if (!std::equal(part2.begin(), part2.end(), all.begin() + 5000))
            return 6;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, OverwriteInTheMiddle)
{
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Error e = Error::None;
        auto data = m3fs::FsImage::patternData(50000, 3);
        {
            auto f = env.vfs().open("/data/f", FILE_RW | FILE_CREATE, e);
            f->write(data.data(), data.size());
            // Overwrite 1 KiB in the middle through the same handle.
            f->seek(20000, SeekMode::Set);
            std::vector<uint8_t> patch(1024, 0xEE);
            if (f->write(patch.data(), patch.size()) != 1024)
                return 1;
            // Read back across the patch boundary.
            f->seek(19000, SeekMode::Set);
            std::vector<uint8_t> back(3000);
            if (f->read(back.data(), back.size()) != 3000)
                return 2;
            for (int i = 0; i < 1000; ++i)
                if (back[i] != data[19000 + i])
                    return 3;
            for (int i = 1000; i < 2024; ++i)
                if (back[i] != 0xEE)
                    return 4;
            for (int i = 2024; i < 3000; ++i)
                if (back[i] != data[19000 + i])
                    return 5;
        }
        FileInfo info;
        env.vfs().stat("/data/f", info);
        return info.size == 50000 ? 0 : 6;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, ManyExtentsSpillIntoDoubleIndirect)
{
    M3SystemCfg cfg = fsCfg();
    cfg.fsCfg.appendBlocks = 8;  // force many extents
    M3System sys(std::move(cfg));
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        std::string rest;
        auto *sess = dynamic_cast<m3fs::M3fsSession *>(
            env.vfs().resolve("/x", rest));
        sess->appendBlocks = 8;
        Error e = Error::None;
        auto data = m3fs::FsImage::patternData(2 * MiB, 4);
        auto other = m3fs::FsImage::patternData(2 * MiB, 5);
        {
            // Interleave two files so sequential allocations cannot be
            // merged: each gets ~256 real extents, beyond the direct +
            // single-indirect capacity (6 + 128).
            auto f = env.vfs().open("/data/big", FILE_W | FILE_CREATE, e);
            auto g = env.vfs().open("/data/other",
                                    FILE_W | FILE_CREATE, e);
            const size_t chunk = 8 * 1024;
            for (size_t off = 0; off < 2 * MiB; off += chunk) {
                if (f->write(data.data() + off, chunk) !=
                    static_cast<ssize_t>(chunk))
                    return 1;
                if (g->write(other.data() + off, chunk) !=
                    static_cast<ssize_t>(chunk))
                    return 1;
            }
        }
        FileInfo info;
        env.vfs().stat("/data/big", info);
        if (info.extents <= 134)
            return 2;
        for (auto [path, ref] :
             {std::pair<const char *, std::vector<uint8_t> *>{
                  "/data/big", &data},
              {"/data/other", &other}}) {
            auto f = env.vfs().open(path, FILE_R, e);
            std::vector<uint8_t> back(ref->size());
            if (f->read(back.data(), back.size()) !=
                static_cast<ssize_t>(back.size()))
                return 3;
            if (back != *ref)
                return 4;
        }
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, UnlinkReclaimsSpace)
{
    M3SystemCfg cfg = fsCfg();
    cfg.fsSpec.totalBlocks = 4096;  // ~4 MiB minus metadata
    M3System sys(std::move(cfg));
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Error e = Error::None;
        auto blob = m3fs::FsImage::patternData(3 * MiB, 5);
        for (int round = 0; round < 3; ++round) {
            std::string path = "/data/blob" + std::to_string(round);
            {
                auto f = env.vfs().open(path, FILE_W | FILE_CREATE, e);
                if (!f)
                    return 1 + round * 10;
                if (f->write(blob.data(), blob.size()) !=
                    static_cast<ssize_t>(blob.size()))
                    return 2 + round * 10;
            }
            // Without the unlink, round 2 would hit NoSpace.
            if (env.vfs().unlink(path) != Error::None)
                return 3 + round * 10;
        }
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, ConcurrentSessionsFromTwoVpes)
{
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        VPE child(env, "peer");
        if (child.err() != Error::None)
            return 1;
        // The child opens its own session and writes its own file while
        // the parent writes another.
        child.run([] {
            Env &cenv = Env::cur();
            if (m3fs::M3fsSession::mount(cenv, "/") != Error::None)
                return 1;
            Error e = Error::None;
            auto f = cenv.vfs().open("/data/child",
                                     FILE_W | FILE_CREATE, e);
            auto data = m3fs::FsImage::patternData(100000, 6);
            if (f->write(data.data(), data.size()) !=
                static_cast<ssize_t>(data.size()))
                return 2;
            return 0;
        });
        Error e = Error::None;
        auto f = env.vfs().open("/data/parent", FILE_W | FILE_CREATE, e);
        auto data = m3fs::FsImage::patternData(100000, 7);
        if (f->write(data.data(), data.size()) !=
            static_cast<ssize_t>(data.size()))
            return 2;
        f.reset();
        if (child.wait() != 0)
            return 3;
        // Verify both files.
        for (auto [path, seed] :
             {std::pair<const char *, uint64_t>{"/data/child", 6},
              {"/data/parent", 7}}) {
            auto expect = m3fs::FsImage::patternData(100000, seed);
            auto rf = env.vfs().open(path, FILE_R, e);
            std::vector<uint8_t> back(expect.size());
            if (rf->read(back.data(), back.size()) !=
                static_cast<ssize_t>(back.size()))
                return 4;
            if (back != expect)
                return 5;
        }
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, ErrorPaths)
{
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Vfs &vfs = env.vfs();
        Error e = Error::None;
        int fail = 0;

        fail += vfs.open("/data/missing", FILE_R, e) != nullptr;
        fail += e != Error::NoSuchFile;
        fail += vfs.open("/data", FILE_R, e) != nullptr;  // a directory
        fail += e != Error::IsDirectory;
        fail += vfs.mkdir("/data") != Error::FileExists;
        fail += vfs.mkdir("/nosuch/dir") != Error::NoSuchFile;
        fail += vfs.unlink("/data/missing") != Error::NoSuchFile;

        // Non-empty directory cannot be unlinked.
        { vfs.open("/data/file", FILE_W | FILE_CREATE, e); }
        fail += vfs.unlink("/data") != Error::DirNotEmpty;

        // Over-long name component.
        std::string longName(40, 'x');
        fail += vfs.mkdir("/data/" + longName) != Error::InvalidArgs;

        // Reading a write-only handle.
        auto wf = vfs.open("/data/file", FILE_W, e);
        uint8_t b;
        fail += wf->read(&b, 1) >= 0;
        return fail;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, ShortRequestIsRejected)
{
    // A session message too short to hold an opcode, or naming none,
    // comes from a client's bytes: the server answers it and keeps
    // serving the session.
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        // Mounting waits until the service has registered.
        if (m3fs::M3fsSession::mount(env, "/") != Error::None)
            return -1;
        capsel_t sess = env.allocSels();
        capsel_t chan = env.allocSels();
        if (env.openSess(sess, "m3fs", 0) != Error::None ||
            env.exchangeSess(sess, kif::ExchangeOp::Obtain, chan, 1,
                             {uint64_t(m3fs::FsXchg::GetChannel)}) !=
                Error::None)
            return -2;
        SendGate sg(env, chan, m3fs::FS_MSG_SIZE, true);
        RecvGate reply(env, 4, m3fs::FS_MSG_SIZE);
        auto call = [&](auto... words) {
            Marshaller m = sg.ostream();
            (void)(m << ... << words);
            return sg.call(m, reply).pullError();
        };
        int fail = 0;
        fail += call() != Error::InvalidArgs;
        fail += call(m3fs::FsOp::COUNT) != Error::InvalidArgs;
        fail += call(m3fs::FsOp::Mkdir, std::string("/data/new")) !=
                Error::None;
        return fail;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, ReaddirChunksLargeDirectories)
{
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Error e = Error::None;
        // More entries than one Readdir reply carries.
        for (int i = 0; i < 30; ++i) {
            auto f = env.vfs().open("/data/e" + std::to_string(i),
                                    FILE_W | FILE_CREATE, e);
            if (!f)
                return 1;
        }
        std::vector<DirEntry> entries;
        if (env.vfs().readdir("/data", entries) != Error::None)
            return 2;
        if (entries.size() != 30)
            return 3;
        // All names unique.
        std::set<std::string> names;
        for (auto &de : entries)
            names.insert(de.name);
        return names.size() == 30 ? 0 : 4;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}

TEST(M3fs, SeekBackwardReusesFetchedExtents)
{
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Error e = Error::None;
        auto data = m3fs::FsImage::patternData(40000, 8);
        {
            auto f = env.vfs().open("/data/s", FILE_W | FILE_CREATE, e);
            f->write(data.data(), data.size());
        }
        auto f = env.vfs().open("/data/s", FILE_R, e);
        // Read forward fully, then hop around; most seeks stay within
        // the already obtained extents (Sec. 4.5.8).
        std::vector<uint8_t> buf(40000);
        f->read(buf.data(), buf.size());
        for (size_t pos : {100u, 39000u, 0u, 20000u}) {
            f->seek(static_cast<ssize_t>(pos), SeekMode::Set);
            uint8_t b = 0;
            if (f->read(&b, 1) != 1)
                return 1;
            if (b != data[pos])
                return 2;
        }
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}


TEST(M3fs, RenameMovesFilesAcrossDirectories)
{
    M3System sys(fsCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Vfs &vfs = env.vfs();
        Error e = Error::None;
        auto data = m3fs::FsImage::patternData(5000, 9);
        {
            auto f = vfs.open("/data/orig", FILE_W | FILE_CREATE, e);
            f->write(data.data(), data.size());
        }
        vfs.mkdir("/data/sub");
        if (vfs.rename("/data/orig", "/data/sub/moved") != Error::None)
            return 1;
        FileInfo info;
        if (vfs.stat("/data/orig", info) != Error::NoSuchFile)
            return 2;
        auto f = vfs.open("/data/sub/moved", FILE_R, e);
        if (!f)
            return 3;
        std::vector<uint8_t> back(data.size());
        if (f->read(back.data(), back.size()) !=
            static_cast<ssize_t>(back.size()))
            return 4;
        if (back != data)
            return 5;
        // Renaming over an existing file is refused.
        { vfs.open("/data/other", FILE_W | FILE_CREATE, e); }
        if (vfs.rename("/data/sub/moved", "/data/other") !=
            Error::FileExists)
            return 6;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    expectClean(sys);
}
} // anonymous namespace
} // namespace m3
