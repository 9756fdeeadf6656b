/**
 * @file
 * Unit tests for the m3fs core engine and the image builder: format,
 * inode/extent/bitmap management, directories, truncation, controlled
 * fragmentation and the consistency checker.
 */

#include <gtest/gtest.h>

#include "m3fs/fs_image.hh"

namespace m3
{
namespace
{

using namespace m3fs;

/** File contents in the form FsCore::createFile takes them. */
SharedBytes
shared(std::vector<uint8_t> bytes)
{
    return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
}

struct FsFixture : public ::testing::Test
{
    FsFixture() : dram(32 * MiB, 20), access(dram, 0), core(access)
    {
        FsCore::format(access, 8192, 128);
        EXPECT_TRUE(core.load());
    }

    Dram dram;
    DramAccess access;
    FsCore core;
};

TEST_F(FsFixture, FormatProducesValidEmptyFs)
{
    const SuperBlock &sb = core.superBlock();
    EXPECT_EQ(sb.blockSize, DEFAULT_BLOCK_SIZE);
    EXPECT_EQ(sb.totalBlocks, 8192u);
    EXPECT_LT(sb.dataStart, 200u);
    std::string report;
    EXPECT_TRUE(core.check(report)) << report;
}

TEST_F(FsFixture, CreateAndReadBackFile)
{
    auto data = FsImage::patternData(10000, 42);
    ASSERT_EQ(core.createFile("/a.bin", shared(data), 0xffffffff),
              Error::None);
    std::vector<uint8_t> out;
    ASSERT_EQ(core.readFile("/a.bin", out), Error::None);
    EXPECT_EQ(out, data);

    std::string report;
    EXPECT_TRUE(core.check(report)) << report;
}

TEST_F(FsFixture, UnfragmentedFileHasOneExtent)
{
    auto data = FsImage::patternData(100 * 1024, 1);
    core.createFile("/big", shared(data), 0xffffffff);
    ResolveResult r = core.resolve("/big");
    Inode inode = core.getInode(r.ino);
    EXPECT_EQ(inode.extents, 1u);
    EXPECT_EQ(inode.size, data.size());
}

TEST_F(FsFixture, ControlledFragmentation)
{
    // 64 KiB at 16 blocks per extent: 64 blocks -> 4 extents.
    auto data = FsImage::patternData(64 * 1024, 2);
    core.createFile("/frag", shared(data), 16);
    ResolveResult r = core.resolve("/frag");
    Inode inode = core.getInode(r.ino);
    EXPECT_EQ(inode.extents, 4u);

    std::vector<uint8_t> out;
    core.readFile("/frag", out);
    EXPECT_EQ(out, data);
}

TEST_F(FsFixture, IndirectExtentsWork)
{
    // More extents than the 6 direct slots.
    auto data = FsImage::patternData(16 * 1024, 3);
    core.createFile("/many", shared(data), 1);
    ResolveResult r = core.resolve("/many");
    Inode inode = core.getInode(r.ino);
    EXPECT_EQ(inode.extents, 16u);
    EXPECT_NE(inode.indirect, 0u);

    std::vector<uint8_t> out;
    core.readFile("/many", out);
    EXPECT_EQ(out, data);
    std::string report;
    EXPECT_TRUE(core.check(report)) << report;
}

TEST_F(FsFixture, DirectoriesNestAndResolve)
{
    ASSERT_EQ(core.createDir("/sub"), Error::None);
    ASSERT_EQ(core.createDir("/sub/inner"), Error::None);
    uint8_t byte = 0x5a;
    ASSERT_EQ(core.createFile("/sub/inner/leaf", shared({byte}), 1),
              Error::None);

    ResolveResult r = core.resolve("/sub/inner/leaf");
    EXPECT_NE(r.ino, INVALID_INO);
    EXPECT_EQ(r.components, 3u);

    r = core.resolve("/sub/missing/leaf");
    EXPECT_EQ(r.ino, INVALID_INO);
    EXPECT_EQ(r.parent, INVALID_INO);

    // Missing leaf with existing parent: creation point.
    r = core.resolve("/sub/newfile");
    EXPECT_EQ(r.ino, INVALID_INO);
    EXPECT_NE(r.parent, INVALID_INO);
    EXPECT_EQ(r.leafName, "newfile");
}

TEST_F(FsFixture, DirInsertLookupRemove)
{
    core.createDir("/d");
    ResolveResult r = core.resolve("/d");
    for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(core.dirInsert(r.ino,
                                 std::string("f").append(std::to_string(i)),
                                 100 + i),
                  Error::None);
    }
    inodeno_t out;
    ASSERT_EQ(core.dirLookup(r.ino, "f17", out), Error::None);
    EXPECT_EQ(out, 117u);

    ASSERT_EQ(core.dirRemove(r.ino, "f17"), Error::None);
    EXPECT_EQ(core.dirLookup(r.ino, "f17", out), Error::NoSuchFile);

    std::vector<std::pair<inodeno_t, std::string>> list;
    core.dirList(r.ino, list);
    EXPECT_EQ(list.size(), 49u);

    // The freed slot is reused.
    ASSERT_EQ(core.dirInsert(r.ino, "reuse", 999), Error::None);
    list.clear();
    core.dirList(r.ino, list);
    EXPECT_EQ(list.size(), 50u);
}

TEST_F(FsFixture, TruncateShrinksAndFreesBlocks)
{
    auto data = FsImage::patternData(32 * 1024, 4);
    core.createFile("/t", shared(data), 8);
    ResolveResult r = core.resolve("/t");
    Inode inode = core.getInode(r.ino);
    uint32_t extentsBefore = inode.extents;
    ASSERT_GT(extentsBefore, 1u);

    core.truncate(inode, 9 * 1024);  // 9 blocks

    inode = core.getInode(r.ino);
    EXPECT_EQ(inode.size, 9u * 1024);
    EXPECT_LT(inode.extents, extentsBefore);

    std::vector<uint8_t> out;
    core.readFile("/t", out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));

    std::string report;
    EXPECT_TRUE(core.check(report)) << report;
}

TEST_F(FsFixture, TruncateToZeroFreesEverything)
{
    auto data = FsImage::patternData(8 * 1024, 5);
    core.createFile("/z", shared(data), 0xffffffff);
    ResolveResult r = core.resolve("/z");
    Inode inode = core.getInode(r.ino);
    core.truncate(inode, 0);
    inode = core.getInode(r.ino);
    EXPECT_EQ(inode.extents, 0u);
    EXPECT_EQ(inode.size, 0u);
    std::string report;
    EXPECT_TRUE(core.check(report)) << report;
}

TEST_F(FsFixture, AppendMergesAdjacentExtents)
{
    Inode f{};
    ASSERT_EQ(core.allocInode(0x8000, f), Error::None);
    core.dirInsert(0, "merge", f.ino);
    Extent a = core.appendBlocks(f, 4, 256);
    Extent b = core.appendBlocks(f, 4, 256);
    ASSERT_EQ(a.len, 4u);
    ASSERT_EQ(b.len, 4u);
    // Sequential allocations are adjacent and merge into one extent.
    EXPECT_EQ(b.start, a.start + a.len);
    EXPECT_EQ(f.extents, 1u);
}

TEST_F(FsFixture, AllocatorExhaustionIsGraceful)
{
    // Request more blocks than the filesystem has.
    Inode f{};
    core.allocInode(0x8000, f);
    core.dirInsert(0, "huge", f.ino);
    uint64_t total = 0;
    for (;;) {
        Extent e = core.appendBlocks(f, 1024, 1024);
        if (e.len == 0)
            break;
        total += e.len;
    }
    EXPECT_GT(total, 7000u);  // most of the 8192 blocks
    EXPECT_LE(total, 8192u);
}

TEST_F(FsFixture, CheckDetectsCorruption)
{
    auto data = FsImage::patternData(4096, 6);
    core.createFile("/c", shared(data), 0xffffffff);
    ResolveResult r = core.resolve("/c");
    // Corrupt: mark one of the file's blocks free in the bitmap.
    Inode inode = core.getInode(r.ino);
    Extent e = core.getExtent(inode, 0);
    inode.size = (e.len + 5) * core.superBlock().blockSize;  // lie
    core.putInode(inode);

    std::string report;
    EXPECT_FALSE(core.check(report));
    EXPECT_NE(report.find("size exceeds allocation"), std::string::npos);
}

TEST(FsImage, BuildsSpecAndPassesCheck)
{
    Dram dram(32 * MiB, 20);
    FsImageSpec spec;
    spec.dirs = {"/bin", "/data", "/data/sub"};
    spec.files.push_back({"/bin/tool", FsImage::patternData(3000, 1), 0xffffffff});
    spec.files.push_back({"/data/a", FsImage::patternData(70000, 2), 16});
    spec.files.push_back({"/data/sub/b", FsImage::patternData(512, 3), 0xffffffff});

    FsImage image(dram, 0, spec);
    std::string report;
    EXPECT_TRUE(image.core().check(report)) << report;

    std::vector<uint8_t> out;
    ASSERT_EQ(image.core().readFile("/data/a", out), Error::None);
    EXPECT_EQ(out, FsImage::patternData(70000, 2));
}

/** Property sweep: files of many sizes round-trip at any fragmentation. */
class FsRoundTrip
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t>>
{
};

TEST_P(FsRoundTrip, ContentPreserved)
{
    auto [size, bpe] = GetParam();
    Dram dram(64 * MiB, 20);
    DramAccess access(dram, 0);
    FsCore::format(access, 16384, 64);
    FsCore core(access);
    ASSERT_TRUE(core.load());

    auto data = FsImage::patternData(size, size ^ bpe);
    ASSERT_EQ(core.createFile("/f", shared(data), bpe),
              Error::None);
    std::vector<uint8_t> out;
    ASSERT_EQ(core.readFile("/f", out), Error::None);
    EXPECT_EQ(out, data);
    std::string report;
    EXPECT_TRUE(core.check(report)) << report;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndExtents, FsRoundTrip,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{1023},
                                         size_t{1024}, size_t{1025},
                                         size_t{64 * 1024},
                                         size_t{1024 * 1024}),
                       ::testing::Values(1u, 16u, 256u, 0xffffffffu)));

} // anonymous namespace
} // namespace m3
