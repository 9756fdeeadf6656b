/**
 * @file
 * Unit tests for the simulated memories: DRAM and SPM start zeroed, the
 * host pays for DRAM pages only on first touch, shared ranges read as
 * their source bytes and are copied in on first modification, and
 * out-of-bounds accesses panic with the memory's name.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <vector>

#include <unistd.h>

#include "mem/dram.hh"
#include "mem/spm.hh"

namespace m3
{
namespace
{

/** Resident set of this process in bytes, or 0 where unknown. */
size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t total = 0, resident = 0;
    if (!(statm >> total >> resident))
        return 0;
    return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Mem, DramIsLazilyZeroed)
{
    const size_t rss0 = residentBytes();
    Dram dram(1024 * MiB, 20);
    const size_t rss1 = residentBytes();
#ifdef __linux__
    ASSERT_GT(rss0, 0u);
    // An eager memset of the capacity would make all 1 GiB resident.
    EXPECT_LT(rss1 - rss0, 64 * MiB);
#endif

    for (goff_t off : {goff_t{0}, goff_t{512 * MiB}, goff_t{1024 * MiB - 1}})
        EXPECT_EQ(*dram.inspect(off, 1), 0) << "offset " << off;

    const uint8_t bytes[] = {1, 2, 3, 4, 5, 6, 7, 8};
    dram.write(512 * MiB - 4, bytes, sizeof(bytes));
    EXPECT_EQ(*dram.inspect(512 * MiB, 1), 5);
    dram.zero(512 * MiB - 4, sizeof(bytes));
    uint8_t back[sizeof(bytes)] = {0xff};
    dram.read(512 * MiB - 4, back, sizeof(back));
    for (uint8_t b : back)
        EXPECT_EQ(b, 0);
}

/** @p len bytes counting up from @p first, as shared source bytes. */
SharedBytes
ramp(size_t len, uint8_t first)
{
    std::vector<uint8_t> v(len);
    for (size_t i = 0; i < len; ++i)
        v[i] = static_cast<uint8_t>(first + i);
    return std::make_shared<const std::vector<uint8_t>>(std::move(v));
}

/** The whole memory, as read() returns it. */
std::vector<uint8_t>
contents(MemTarget &mem)
{
    std::vector<uint8_t> out(mem.size());
    mem.read(0, out.data(), out.size());
    return out;
}

TEST(Mem, SharedRangeIsCopyOnWrite)
{
    Dram dram(16 * KiB, 20);
    // A non-zero store, so a read of the store under a shared range
    // would show.
    std::vector<uint8_t> model(dram.size(), 0xaa);
    dram.write(0, model.data(), model.size());

    const SharedBytes a = ramp(6000, 0);
    const SharedBytes b = ramp(300, 100);
    const std::vector<uint8_t> aBefore = *a, bBefore = *b;
    auto share = [&](goff_t off, const SharedBytes &src, size_t srcOff,
                     size_t len) {
        dram.share(off, src, srcOff, len);
        std::copy_n(src->begin() + srcOff, len, model.begin() + off);
    };

    // Gap, shared range across a page boundary, gap, shared, gap.
    share(4000, a, 10, 200);
    share(4300, b, 0, 300);
    std::vector<uint8_t> span(1000);
    dram.read(3900, span.data(), span.size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), model.begin() + 3900));
    EXPECT_EQ(contents(dram), model);

    // A partial write keeps the rest of the range's bytes.
    const uint8_t junk[4] = {1, 2, 3, 4};
    dram.write(4100, junk, sizeof(junk));
    std::copy_n(junk, sizeof(junk), model.begin() + 4100);
    EXPECT_EQ(contents(dram), model);

    // zero() and inspect() copy in first, too.
    dram.zero(4350, 10);
    std::fill_n(model.begin() + 4350, 10, 0);
    share(8192, a, 1000, 5000);
    EXPECT_EQ(dram.inspect(9000, 16)[0], model[9000]);
    EXPECT_TRUE(std::equal(model.begin() + 8192, model.begin() + 13192,
                           dram.inspect(8192, 5000)));
    EXPECT_EQ(contents(dram), model);

    // A second share over part of an existing range keeps the rest.
    share(1000, a, 0, 2000);
    share(2500, b, 20, 200);
    share(2600, a, 3000, 200);
    EXPECT_EQ(contents(dram), model);

    EXPECT_EQ(*a, aBefore);
    EXPECT_EQ(*b, bBefore);

    // The scratchpad's raw pointer copies in as well.
    Spm spm(4 * KiB);
    spm.share(100, b, 0, 300);
    EXPECT_EQ(spm.ptr(200, 1)[0], (*b)[100]);
    spm.ptr(200, 1)[0] = 0;
    EXPECT_EQ(*b, bBefore);
    uint8_t back = 0xff;
    spm.read(200, &back, 1);
    EXPECT_EQ(back, 0);

    EXPECT_DEATH(dram.share(16 * KiB - 10, a, 0, 20),
                 "DRAM access out of bounds");
    EXPECT_DEATH(spm.share(0, b, 200, 101), "SPM share source out of bounds");
}

TEST(Mem, SharedRangesStayNonResident)
{
    const SharedBytes src = ramp(MiB, 7);
    std::vector<uint8_t> buf(64 * KiB);
    Dram dram(256 * MiB, 20);
    const size_t rss0 = residentBytes();
    for (goff_t off = 0; off < dram.size(); off += MiB)
        dram.share(off, src, 0, MiB);
    bool same = true;
    for (goff_t off = 0; off < dram.size(); off += buf.size()) {
        dram.read(off, buf.data(), buf.size());
        same = same && std::equal(buf.begin(), buf.end(),
                                  src->begin() + off % MiB);
    }
    EXPECT_TRUE(same);
    const size_t rss1 = residentBytes();
#ifdef __linux__
    ASSERT_GT(rss0, 0u);
    // Copying the ranges in, or reading the store under them, would make
    // all 256 MiB resident.
    EXPECT_LT(rss1 - rss0, 16 * MiB);
#endif
}

TEST(Mem, SpmStartsZeroedAndRoundTrips)
{
    Spm spm(64 * KiB);
    EXPECT_EQ(*spm.ptr(0, 1), 0);
    EXPECT_EQ(*spm.ptr(64 * KiB - 1, 1), 0);
    const uint32_t word = 0xdeadbeef;
    spm.write(100, &word, sizeof(word));
    uint32_t back = 0;
    spm.read(100, &back, sizeof(back));
    EXPECT_EQ(back, word);
    EXPECT_EQ(spm.accessLatency(), 1u);
}

TEST(MemDeathTest, OutOfBoundsAccessNamesTheMemory)
{
    Dram dram(4 * KiB, 20);
    Spm spm(4 * KiB);
    uint8_t buf[2] = {};
    EXPECT_DEATH(dram.read(4 * KiB, buf, 1), "DRAM access out of bounds");
    EXPECT_DEATH(spm.write(4 * KiB - 1, buf, 2), "SPM access out of bounds");
}

} // anonymous namespace
} // namespace m3
