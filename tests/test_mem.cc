/**
 * @file
 * Unit tests for the simulated memories: DRAM and SPM start zeroed, the
 * host pays for DRAM pages only on first touch, and out-of-bounds
 * accesses panic with the memory's name.
 */

#include <gtest/gtest.h>

#include <fstream>

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
