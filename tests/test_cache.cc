/**
 * @file
 * Tests for CachedMem, the Sec. 7 future-work cache: correctness against
 * a reference model under random access, write-back/flush semantics,
 * locality behaviour and the isolation property (the cache goes through
 * the DTU, so revocation still bites).
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "libm3/cached_mem.hh"
#include "libm3/m3system.hh"
#include "m3fs/block_cache.hh"
#include "m3fs/fs_image.hh"

namespace m3
{
namespace
{

M3SystemCfg
bareCfg()
{
    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.withFs = false;
    return cfg;
}

TEST(CachedMem, RandomAccessMatchesReferenceModel)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        constexpr size_t REGION = 64 * KiB;
        MemGate gate = MemGate::create(env, REGION, MEM_RW);
        CachedMem cache(gate, 64, 16, 2);

        std::vector<uint8_t> ref(REGION, 0);
        Random rng(2024);
        for (int op = 0; op < 2000; ++op) {
            size_t addr = rng.nextBounded(REGION - 32);
            size_t len = 1 + rng.nextBounded(32);
            if (rng.nextBounded(2)) {
                uint8_t val = static_cast<uint8_t>(rng.next());
                std::vector<uint8_t> buf(len, val);
                if (cache.write(addr, buf.data(), len) != Error::None)
                    return 1;
                std::fill_n(ref.begin() + addr, len, val);
            } else {
                std::vector<uint8_t> buf(len);
                if (cache.read(addr, buf.data(), len) != Error::None)
                    return 2;
                for (size_t i = 0; i < len; ++i)
                    if (buf[i] != ref[addr + i])
                        return 3;
            }
        }
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(CachedMem, FlushMakesWritesVisibleToOtherGates)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        MemGate gate = MemGate::create(env, 64 * KiB, MEM_RW);
        MemGate alias = gate.derive(0, 64 * KiB, MEM_R);
        CachedMem cache(gate);

        uint64_t v = 0xfeedface;
        cache.write(4096, &v, sizeof(v));
        // Before the flush the write may only live in the cache;
        // after it, every path to the memory sees it.
        if (cache.flush() != Error::None)
            return 1;
        uint64_t got = 0;
        alias.read(&got, sizeof(got), 4096);
        return got == 0xfeedface ? 0 : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(CachedMem, SequentialLocalityHitsAfterFirstTouch)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        MemGate gate = MemGate::create(env, 64 * KiB, MEM_RW);
        CachedMem cache(gate, 64, 64, 4);
        // Walk 4 KiB byte by byte: one miss per 64-byte line.
        uint8_t b;
        for (size_t i = 0; i < 4096; ++i)
            cache.read(i, &b, 1);
        const CacheStats &s = cache.stats();
        if (s.misses != 4096 / 64)
            return 1;
        if (s.hits != 4096 - 4096 / 64)
            return 2;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(CachedMem, MissesCostDtuTransfers)
{
    M3System sys(bareCfg());
    Cycles seqDur = 0, randDur = 0;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        MemGate gate = MemGate::create(env, 256 * KiB, MEM_RW);
        // Tiny cache: random access across 256 KiB thrashes it.
        CachedMem cache(gate, 64, 8, 2);
        uint8_t b;
        Cycles t0 = env.platform.simulator().curCycle();
        for (size_t i = 0; i < 2048; ++i)
            cache.read(i, &b, 1);
        seqDur = env.platform.simulator().curCycle() - t0;

        Random rng(7);
        t0 = env.platform.simulator().curCycle();
        for (size_t i = 0; i < 2048; ++i)
            cache.read(rng.nextBounded(256 * KiB), &b, 1);
        randDur = env.platform.simulator().curCycle() - t0;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    // Random access pays a DTU line fill almost every time.
    EXPECT_GT(randDur, 5 * seqDur);
}

TEST(CachedMem, EvictionWritesDirtyLinesBack)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        MemGate gate = MemGate::create(env, 256 * KiB, MEM_RW);
        // Direct-mapped-ish tiny cache to force evictions.
        CachedMem cache(gate, 64, 4, 1);
        // Dirty many distinct lines mapping to the same sets.
        for (goff_t addr = 0; addr < 64 * KiB; addr += 256) {
            uint32_t v = static_cast<uint32_t>(addr);
            if (cache.write(addr, &v, sizeof(v)) != Error::None)
                return 1;
        }
        if (cache.stats().writeBacks == 0)
            return 2;
        cache.flush();
        // Everything must have landed in the memory.
        MemGate alias = gate.derive(0, 256 * KiB, MEM_R);
        for (goff_t addr = 0; addr < 64 * KiB; addr += 256) {
            uint32_t v = 0;
            alias.read(&v, sizeof(v), addr);
            if (v != static_cast<uint32_t>(addr))
                return 3;
        }
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(CachedMem, RevocationStillIsolates)
{
    // Sec. 7: "the DTU remains the only component with access to
    // PE-external resources and it thus suffices to control the DTU."
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        MemGate gate = MemGate::create(env, 64 * KiB, MEM_RW);
        CachedMem cache(gate, 64, 4, 1);
        uint8_t b;
        if (cache.read(0, &b, 1) != Error::None)
            return 1;
        // Revoke the underlying capability: cached lines may linger,
        // but any further fill or write-back fails in hardware.
        env.revoke(gate.capSel(), true);
        Error e = cache.read(128 * 64, &b, 1);  // different line
        return e == Error::InvalidEp ? 0 : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

// ---------------------------------------------------------------------
// The m3fs server's block cache.
// ---------------------------------------------------------------------

TEST(BlockCache, FullBlockOverwriteSkipsTheFill)
{
    M3System sys(bareCfg());
    m3fs::BlockCacheStats stats;
    Cycles fullDur = 0, partialDur = 0;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        constexpr uint32_t BS = 1024;
        MemGate gate = MemGate::create(env, 64 * KiB, MEM_RW);
        m3fs::BlockCache cache(gate, BS, 4);
        std::vector<uint8_t> block(BS, 0xAB);

        // A miss covered entirely by the write: no DMA fetch.
        Cycles t0 = env.platform.simulator().curCycle();
        cache.write(0, block.data(), BS);
        fullDur = env.platform.simulator().curCycle() - t0;

        // A partial write to an uncached block must fetch it first.
        t0 = env.platform.simulator().curCycle();
        cache.write(BS + 16, block.data(), 64);
        partialDur = env.platform.simulator().curCycle() - t0;

        cache.flushAll();
        stats = cache.stats();
        // The skipped fill must not have corrupted the data.
        std::vector<uint8_t> back(BS);
        gate.read(back.data(), BS, 0);
        return back == block ? 0 : 1;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.fillsSkipped, 1u);
    // The cycle pin on the saved transfer: a full-block overwrite miss
    // costs strictly less than a partial-write miss, which pays the
    // DMA fetch of the old content.
    EXPECT_LT(fullDur, partialDur);
}

TEST(BlockCache, PartialWritePreservesSurroundingBytes)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        constexpr uint32_t BS = 1024;
        MemGate gate = MemGate::create(env, 64 * KiB, MEM_RW);
        // Pre-existing content the cache has never seen.
        std::vector<uint8_t> old(BS);
        for (uint32_t i = 0; i < BS; ++i)
            old[i] = static_cast<uint8_t>(i * 7);
        gate.write(old.data(), BS, 3 * BS);

        m3fs::BlockCache cache(gate, BS, 4);
        std::vector<uint8_t> patch(100, 0xEE);
        cache.write(3 * BS + 50, patch.data(), patch.size());
        if (cache.stats().fillsSkipped != 0)
            return 1;
        cache.flushAll();

        std::vector<uint8_t> back(BS);
        gate.read(back.data(), BS, 3 * BS);
        for (uint32_t i = 0; i < BS; ++i) {
            uint8_t want = (i >= 50 && i < 150) ? 0xEE : old[i];
            if (back[i] != want)
                return 2;
        }
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(BlockCache, IndexedLruMatchesReferenceModel)
{
    M3System sys(bareCfg());
    m3fs::BlockCacheStats stats;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        constexpr uint32_t BS = 512;
        constexpr size_t REGION = 32 * KiB;
        MemGate gate = MemGate::create(env, REGION, MEM_RW);
        // Small cache over many blocks: plenty of evictions.
        m3fs::BlockCache cache(gate, BS, 6);
        std::vector<uint8_t> ref(REGION, 0);
        Random rng(99);
        for (int op = 0; op < 1500; ++op) {
            size_t addr = rng.nextBounded(REGION - 64);
            size_t len = 1 + rng.nextBounded(64);
            if (rng.nextBounded(2)) {
                uint8_t val = static_cast<uint8_t>(rng.next());
                std::vector<uint8_t> buf(len, val);
                cache.write(addr, buf.data(), len);
                std::fill_n(ref.begin() + addr, len, val);
            } else {
                std::vector<uint8_t> buf(len);
                cache.read(addr, buf.data(), len);
                for (size_t i = 0; i < len; ++i)
                    if (buf[i] != ref[addr + i])
                        return 1;
            }
        }
        cache.flushAll();
        stats = cache.stats();
        std::vector<uint8_t> all(REGION);
        gate.read(all.data(), REGION, 0);
        return all == ref ? 0 : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.misses, 6u);
    EXPECT_GT(stats.writeBacks, 0u);
}

/**
 * A block cache seen only through read() and write(): FsCore's peek()s
 * fall back to a read() into its scratch buffer, the copy its walks
 * made before they read in place.
 */
class CopyingAccess : public m3fs::BlockAccess
{
  public:
    explicit CopyingAccess(m3fs::BlockCache &cache) : cache(cache) {}

    void
    read(goff_t off, void *dst, size_t len) override
    {
        cache.read(off, dst, len);
    }

    void
    write(goff_t off, const void *src, size_t len) override
    {
        cache.write(off, src, len);
    }

  private:
    m3fs::BlockCache &cache;
};

TEST(BlockCache, InPlaceWalksTouchLikeCopies)
{
    // FsCore's walks on a cache of 4 blocks, with a directory that
    // grows to 7: once reading in place (the cache's peek) and once
    // through copies. Every step must leave both caches with the same
    // hits, misses, skipped fills and write-backs, and the images must
    // end up identical.
    M3System sys(bareCfg());
    std::vector<std::string> diverged;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        constexpr uint32_t BS = 1024, BLOCKS = 2048;
        MemGate gateA = MemGate::create(env, BLOCKS * BS, MEM_RW);
        MemGate gateB = MemGate::create(env, BLOCKS * BS, MEM_RW);
        m3fs::BlockCache inPlace(gateA, BS, 4), copying(gateB, BS, 4);
        CopyingAccess through(copying);
        m3fs::FsCore::format(inPlace, BLOCKS, 256, BS);
        m3fs::FsCore::format(through, BLOCKS, 256, BS);
        m3fs::FsCore a(inPlace), b(through);
        if (!a.load() || !b.load())
            return 1;
        auto same = [&](const char *what) {
            const m3fs::BlockCacheStats &x = inPlace.stats();
            const m3fs::BlockCacheStats &y = copying.stats();
            if (x.hits != y.hits || x.misses != y.misses ||
                x.fillsSkipped != y.fillsSkipped ||
                x.writeBacks != y.writeBacks)
                diverged.push_back(what);
        };
        auto data = std::make_shared<const std::vector<uint8_t>>(
            m3fs::FsImage::patternData(1500, 3));
        for (m3fs::FsCore *fs : {&a, &b})
            fs->createDir("/d");
        same("createDir");
        for (int i = 0; i < 200; ++i) {
            const std::string path =
                std::string("/d/file").append(std::to_string(i));
            for (m3fs::FsCore *fs : {&a, &b})
                fs->createFile(path, data, 0xffffffff);
            same("createFile");
        }
        for (m3fs::FsCore *fs : {&a, &b}) {
            m3fs::inodeno_t d = fs->resolve("/d").ino, found = 0;
            fs->dirLookup(d, "file199", found);
            fs->dirRemove(d, "file7");
            fs->dirInsert(d, "again", found);
            std::vector<std::pair<m3fs::inodeno_t, std::string>> list;
            fs->dirList(d, list);
            m3fs::Inode inode{};
            fs->allocInode(0x8000, inode);
            fs->freeInode(inode.ino);
        }
        same("walks");
        inPlace.flushAll();
        copying.flushAll();
        same("flush");
        if (inPlace.stats().misses < 200 || inPlace.stats().writeBacks == 0)
            return 2;
        std::vector<uint8_t> x(BLOCKS * BS), y(BLOCKS * BS);
        gateA.read(x.data(), x.size(), 0);
        gateB.read(y.data(), y.size(), 0);
        return x == y ? 0 : 3;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_TRUE(diverged.empty()) << diverged.front();
}

TEST(BlockCache, EvictsTheLeastRecentlyUsedBlock)
{
    M3System sys(bareCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        constexpr uint32_t BS = 512;
        MemGate gate = MemGate::create(env, 32 * KiB, MEM_RW);
        m3fs::BlockCache cache(gate, BS, 4);
        uint8_t b = 0;
        // Fill with blocks 0..3, then touch 0 again: 1 is now LRU.
        for (m3fs::blockno_t no = 0; no < 4; ++no)
            cache.read(static_cast<goff_t>(no) * BS, &b, 1);
        cache.read(0, &b, 1);
        uint64_t misses = cache.stats().misses;
        // Block 4 evicts block 1.
        cache.read(goff_t{4} * BS, &b, 1);
        if (cache.stats().misses != misses + 1)
            return 1;
        // 0, 2, 3 and 4 are still resident...
        cache.read(0, &b, 1);
        cache.read(goff_t{2} * BS, &b, 1);
        cache.read(goff_t{3} * BS, &b, 1);
        cache.read(goff_t{4} * BS, &b, 1);
        if (cache.stats().misses != misses + 1)
            return 2;
        // ...and block 1 is not.
        cache.read(goff_t{1} * BS, &b, 1);
        return cache.stats().misses == misses + 2 ? 0 : 3;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

} // anonymous namespace
} // namespace m3
