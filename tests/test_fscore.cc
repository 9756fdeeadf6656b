/**
 * @file
 * Unit tests for the m3fs core engine and the image builder: format,
 * inode/extent/bitmap management, directories, truncation, controlled
 * fragmentation and the consistency checker.
 */

#include <algorithm>
#include <random>

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

TEST(FsImage, CopiesMatchSeparateBuilds)
{
    // Boot builds the first m3fs image from the spec and copies it for
    // the others. Four images built both ways must be byte-identical
    // with the same written pages and shared ranges, and pass the
    // check; so must a copy into another DRAM module.
    FsImageSpec spec;
    spec.totalBlocks = 4096;
    spec.totalInodes = 256;
    spec.dirs = {"/bin", "/data", "/data/sub"};
    for (uint32_t i = 0; i < 40; ++i) {
        spec.files.emplace_back(
            std::string(i % 2 ? "/data/f" : "/data/sub/g")
                .append(std::to_string(i)),
            spec.pattern(100 + 997 * i, i % 3), i % 4 ? 0xffffffff : 2);
    }
    const uint64_t bytes = uint64_t{spec.totalBlocks} * spec.blockSize;
    Dram built(4 * bytes, 20), copied(4 * bytes, 20), other(bytes, 20);
    std::vector<std::unique_ptr<FsImage>> separate, copies;
    for (uint32_t k = 0; k < 4; ++k) {
        separate.push_back(std::make_unique<FsImage>(built, k * bytes, spec));
        copies.push_back(
            k == 0 ? std::make_unique<FsImage>(copied, 0, spec)
                   : std::make_unique<FsImage>(copied, k * bytes, *copies[0]));
    }
    FsImage moved(other, 0, *copies[0]);

    std::vector<uint8_t> want(4 * bytes), got(4 * bytes);
    built.read(0, want.data(), want.size());
    copied.read(0, got.data(), got.size());
    EXPECT_TRUE(want == got);
    got.resize(bytes);
    other.read(0, got.data(), bytes);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
    EXPECT_GT(built.writtenPages(), 0u);
    EXPECT_EQ(copied.writtenPages(), built.writtenPages());
    EXPECT_EQ(copied.sharedRanges(), built.sharedRanges());
    EXPECT_EQ(4 * other.writtenPages(), built.writtenPages());
    EXPECT_EQ(4 * other.sharedRanges(), built.sharedRanges());
    std::string report;
    for (auto &image : copies)
        EXPECT_TRUE(image->core().check(report)) << report;
    EXPECT_TRUE(moved.core().check(report)) << report;
    std::vector<uint8_t> out;
    ASSERT_EQ(moved.core().readFile("/data/f39", out), Error::None);
    EXPECT_TRUE(out == *spec.pattern(100 + 997 * 39, 0));
}

TEST(FsCore, BitmapWalksMatchABitByBitReference)
{
    // bitFind and bitRange against one bit at a time, on the block
    // bitmap's three blocks: ranges that start and end mid-byte and
    // mid-word, cross a bitmap block, and look for either value.
    Dram mem(32 * MiB, 20);
    DramAccess direct(mem, 0);
    const uint32_t bits = 3 * 8192;
    FsCore::format(direct, bits, 64);
    FsCore fs(direct);
    ASSERT_TRUE(fs.load());
    const blockno_t bbm = fs.superBlock().bbmStart;
    auto bitAt = [&](uint32_t i) {
        uint8_t byte = 0;
        direct.read(fs.blockOff(bbm) + i / 8, &byte, 1);
        return ((byte >> (i % 8)) & 1) != 0;
    };
    std::vector<bool> ref(bits);
    for (uint32_t i = 0; i < bits; ++i)
        ref[i] = bitAt(i);
    std::mt19937_64 rng(7);
    auto below = [&](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
    // Near byte, word and block edges, or anywhere.
    auto pick = [&] {
        const uint32_t edges[] = {8, 64, 8192};
        uint32_t at = below(bits);
        if (below(2)) {
            const uint32_t e = edges[below(3)];
            at = std::min(bits - 1, at / e * e + below(3) - std::min(at, 1u));
        }
        return at;
    };
    for (int step = 0; step < 4000; ++step) {
        const uint32_t from = pick();
        const uint32_t to = std::max(from, std::min(bits, pick() + below(2) *
                                                             below(200)));
        const bool value = below(2);
        if (below(3) == 0) {
            fs.bitRange(bbm, from, to - from, value);
            std::fill(ref.begin() + from, ref.begin() + to, value);
        } else {
            uint32_t want = from;
            while (want < to && ref[want] != value)
                ++want;
            ASSERT_EQ(fs.bitFind(bbm, from, to, value), want)
                << "step " << step << ": [" << from << ", " << to << ") for "
                << value;
        }
    }
    for (uint32_t i = 0; i < bits; ++i)
        ASSERT_EQ(bitAt(i), ref[i]) << "bit " << i;
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

/**
 * A model of the m3fs server's BlockCache for FsCore's access pattern:
 * an LRU of @p capacity blocks that forwards every access to @p inner
 * and counts what BlockCache charges cycles for. A miss whose access is
 * a write of the whole block skips the fill (BlockCache's rule); a
 * dirty block costs a write-back when it is evicted or flushed.
 */
class LruModel : public BlockAccess
{
  public:
    LruModel(BlockAccess &inner, uint32_t blockSize, size_t capacity)
        : inner(inner), blockSize(blockSize), capacity(capacity)
    {}

    void
    read(goff_t off, void *dst, size_t len) override
    {
        touchRange(off, len, false);
        inner.read(off, dst, len);
    }

    void
    write(goff_t off, const void *src, size_t len) override
    {
        touchRange(off, len, true);
        inner.write(off, src, len);
    }

    /** Write back every dirty block, as the server does per request. */
    void
    flush()
    {
        for (Entry &e : lru) {
            if (e.dirty)
                writeBacks++;
            e.dirty = false;
        }
    }

    uint64_t misses = 0;
    uint64_t fillsSkipped = 0;
    uint64_t writeBacks = 0;

  private:
    struct Entry
    {
        blockno_t no;
        bool dirty;
    };

    void
    touchRange(goff_t off, size_t len, bool write)
    {
        while (len > 0) {
            size_t boff = off % blockSize;
            size_t chunk = std::min<size_t>(len, blockSize - boff);
            touch(static_cast<blockno_t>(off / blockSize), write,
                  write && boff == 0 && chunk == blockSize);
            off += chunk;
            len -= chunk;
        }
    }

    void
    touch(blockno_t no, bool write, bool whole)
    {
        // lru is ordered most recently used first.
        auto it = std::find_if(lru.begin(), lru.end(),
                               [no](const Entry &e) { return e.no == no; });
        if (it != lru.end()) {
            std::rotate(lru.begin(), it, it + 1);
            lru.front().dirty |= write;
            return;
        }
        misses++;
        if (whole)
            fillsSkipped++;
        if (lru.size() == capacity) {
            if (lru.back().dirty)
                writeBacks++;
            lru.pop_back();
        }
        lru.insert(lru.begin(), Entry{no, write});
    }

    BlockAccess &inner;
    uint32_t blockSize;
    size_t capacity;
    std::vector<Entry> lru;
};

struct PinnedCacheCounts
{
    uint64_t misses;
    uint64_t fillsSkipped;
    uint64_t writeBacks;
};

/**
 * Drive FsCore through an LRU model of @p capacity blocks with a script
 * that crosses both bitmaps' block boundaries, grows a directory into
 * its indirect extents, frees below the allocation hint and fills the
 * disk until both allocators fail. Each call stands for one server
 * request and is followed by a flush. @p imageHash receives the FNV-1a
 * hash of the resulting image.
 */
PinnedCacheCounts
runCacheScript(size_t capacity, uint64_t &imageHash)
{
    constexpr uint32_t totalBlocks = 9216;  // block bitmap: 2 blocks
    constexpr uint32_t totalInodes = 8256;  // inode bitmap: 2 blocks
    Dram dram(16 * MiB, 20);
    DramAccess direct(dram, 0);
    LruModel model(direct, DEFAULT_BLOCK_SIZE, capacity);

    FsCore::format(model, totalBlocks, totalInodes);
    model.flush();
    FsCore core(model);
    EXPECT_TRUE(core.load());
    EXPECT_GE(core.superBlock().ibmBlocks, 2u);
    EXPECT_GE(core.superBlock().bbmBlocks, 2u);

    EXPECT_EQ(core.createDir("/d"), Error::None);
    model.flush();
    EXPECT_EQ(core.createDir("/big"), Error::None);
    model.flush();
    EXPECT_EQ(core.createFile("/d/frag",
                              shared(FsImage::patternData(64 * 1024, 7)), 4),
              Error::None);
    model.flush();

    // Grow /big to 12 blocks; the files' data lands between its blocks,
    // so each directory block is an extent of its own (6 direct, then
    // the indirect block).
    for (int k = 0; k < 12 * 32; ++k) {
        std::string path = std::string("/big/f").append(std::to_string(k));
        auto data = FsImage::patternData(1 + (k * 379) % 3000, k);
        EXPECT_EQ(core.createFile(path, shared(data), 0xffffffff),
                  Error::None);
        model.flush();
    }
    inodeno_t bigIno = core.resolve("/big").ino;
    EXPECT_GT(core.getInode(bigIno).extents, INODE_DIRECT);
    model.flush();

    // Fill the inode table past the inode bitmap's first block.
    Inode orphan{};
    std::vector<inodeno_t> orphans;
    while (core.allocInode(0x8000, orphan) == Error::None) {
        orphans.push_back(orphan.ino);
        model.flush();
    }
    model.flush();
    EXPECT_EQ(core.superBlock().totalInodes - 1, orphans.back());
    // Free orphans on both sides of the boundary and take them again.
    for (inodeno_t ino : {inodeno_t{500}, inodeno_t{8191}, inodeno_t{8192},
                          inodeno_t{8250}}) {
        core.freeInode(ino);
        model.flush();
    }
    for (inodeno_t expect : {inodeno_t{500}, inodeno_t{8191},
                             inodeno_t{8192}}) {
        EXPECT_EQ(core.allocInode(0x8000, orphan), Error::None);
        EXPECT_EQ(orphan.ino, expect);
        model.flush();
    }

    // Free runs below the allocation hint: unlink (as the server does)
    // and truncate.
    for (const char *leaf : {"f10", "f11", "f200"}) {
        ResolveResult r = core.resolve(std::string("/big/").append(leaf));
        Inode inode = core.getInode(r.ino);
        EXPECT_EQ(core.dirRemove(r.parent, r.leafName), Error::None);
        core.freeBlocks(inode);
        core.freeInode(inode.ino);
        model.flush();
    }
    {
        Inode frag = core.getInode(core.resolve("/d/frag").ino);
        core.truncate(frag, 9 * 1024);
        model.flush();
    }
    for (int k = 0; k < 4; ++k) {
        std::string path = std::string("/big/g").append(std::to_string(k));
        EXPECT_EQ(core.createFile(path,
                                  shared(FsImage::patternData(5000, 100 + k)),
                                  2),
                  Error::None);
        model.flush();
    }

    // Fill the disk through the block bitmap's boundary until allocRun
    // wraps around without finding a free block.
    Inode frag = core.getInode(core.resolve("/d/frag").ino);
    model.flush();
    uint64_t filled = 0;
    for (;;) {
        Extent e = core.appendBlocks(frag, 64, 64);
        model.flush();
        if (e.len == 0)
            break;
        filled += e.len;
    }
    EXPECT_GT(filled, 4000u);
    EXPECT_EQ(core.appendBlocks(frag, 1, 1).len, 0u);
    model.flush();
    EXPECT_EQ(core.allocInode(0x8000, orphan), Error::NoSpace);
    model.flush();
    // /big's last block still has free slots; /d's first block fills up
    // and its next block finds no space.
    EXPECT_EQ(core.dirInsert(bigIno, "late", orphans[10]), Error::None);
    model.flush();
    inodeno_t dIno = core.resolve("/d").ino;
    model.flush();
    int inserted = 0;
    for (;;) {
        Error e = core.dirInsert(dIno,
                                 std::string("x").append(
                                     std::to_string(inserted)),
                                 orphans[inserted]);
        model.flush();
        if (e != Error::None) {
            EXPECT_EQ(e, Error::NoSpace);
            break;
        }
        inserted++;
    }
    EXPECT_EQ(inserted, 31);

    inodeno_t found = INVALID_INO;
    EXPECT_EQ(core.dirLookup(bigIno, "f383", found), Error::None);
    model.flush();
    std::vector<std::pair<inodeno_t, std::string>> list;
    EXPECT_EQ(core.dirList(bigIno, list), Error::None);
    EXPECT_EQ(list.size(), 12u * 32 - 3 + 4 + 1);
    model.flush();
    EXPECT_EQ(core.dirRemove(bigIno, "f383"), Error::None);
    model.flush();
    EXPECT_EQ(core.dirRemove(bigIno, "nope"), Error::NoSuchFile);
    model.flush();

    FsCore plain(direct);
    EXPECT_TRUE(plain.load());
    std::string report;
    EXPECT_TRUE(plain.check(report)) << report;

    std::vector<uint8_t> image(static_cast<size_t>(totalBlocks) *
                               DEFAULT_BLOCK_SIZE);
    direct.read(0, image.data(), image.size());
    imageHash = 0xcbf29ce484222325ull;
    for (uint8_t b : image) {
        imageHash ^= b;
        imageHash *= 0x100000001b3ull;
    }
    return {model.misses, model.fillsSkipped, model.writeBacks};
}

TEST(FsCore, BlockCacheBehaviourPinned)
{
    // The server charges cycles for cache misses (minus skipped fills)
    // and write-backs only, so these counts carry every simulated cycle
    // FsCore's metadata walks cost. The pins were recorded with the
    // bit-by-bit and entry-by-entry walks that the block-wise ones
    // replaced (one byte per bitmap bit, one dirEntryOff per directory
    // entry); they must not move. Hits are not pinned: reading a block
    // once instead of once per bit is what the block-wise walks save.
    struct Case
    {
        size_t capacity;
        PinnedCacheCounts pinned;
    };
    const Case cases[] = {
        {8, {10356, 1505, 20801}},
        {128, {2952, 1505, 20543}},  // the server's cacheBlocks
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.capacity);
        uint64_t hash = 0;
        PinnedCacheCounts got = runCacheScript(c.capacity, hash);
        EXPECT_EQ(got.misses, c.pinned.misses);
        EXPECT_EQ(got.fillsSkipped, c.pinned.fillsSkipped);
        EXPECT_EQ(got.writeBacks, c.pinned.writeBacks);
        EXPECT_EQ(hash, 0x976db6a8e30161ecull);
    }
}

TEST(FsImage, PatternDataIsPinned)
{
    // Tests that compare file contents with patternData() cannot catch
    // a changed definition, since both sides would change together.
    auto fnv1a = [](const std::vector<uint8_t> &data) {
        uint64_t h = 0xcbf29ce484222325ull;
        for (uint8_t b : data) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
        return h;
    };
    EXPECT_EQ(fnv1a(FsImage::patternData(2 * MiB, 99)),
              0x01003840f4fd7febull);
    EXPECT_EQ(fnv1a(FsImage::patternData(65537, 4242)),
              0xd732e8744959ed4aull);
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
