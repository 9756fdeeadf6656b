/**
 * @file
 * Figure 4 / Sec. 5.5: the impact of file fragmentation. Reading a 2 MiB
 * file prepared with 16..2048 blocks per extent, and writing while
 * allocating that many blocks at once. More extents mean more m3fs
 * round trips per file; the paper picks 256 blocks as the sweet spot.
 */

#include <vector>

#include "bench/common.hh"
#include "workloads/micro.hh"

using namespace m3;
using namespace m3::workloads;

int
main()
{
    std::printf("Figure 4: read/write time vs. blocks per extent "
                "(2 MiB file)\n");

    const std::vector<uint32_t> sweep = {16, 32, 64, 128, 256, 512,
                                         1024, 2048};

    std::vector<std::string> cols = {"op"};
    for (uint32_t bpe : sweep)
        cols.push_back(std::to_string(bpe));
    bench::header("cycles per 2 MiB", cols, 10);

    std::vector<Cycles> reads, writes;
    bench::cell("read", 10);
    for (uint32_t bpe : sweep) {
        MicroOpts opts;
        opts.m3.fsBlocksPerExtent = bpe;
        RunResult r = m3FileRead(opts);
        if (r.rc != 0)
            return 1;
        reads.push_back(r.wall);
        bench::cellCycles(r.wall, 10);
    }
    bench::endRow();

    bench::cell("write", 10);
    for (uint32_t bpe : sweep) {
        MicroOpts opts;
        opts.m3.fsAppendBlocks = bpe;
        RunResult r = m3FileWrite(opts);
        if (r.rc != 0)
            return 1;
        writes.push_back(r.wall);
        bench::cellCycles(r.wall, 10);
    }
    bench::endRow();

    std::printf("\nShape checks (Sec. 5.5):\n");
    bool ok = true;
    ok &= bench::verdict("few blocks per extent are clearly slower "
                         "(16 vs 256: >15%)",
                         reads.front() > reads[4] * 115 / 100 &&
                             writes.front() > writes[4] * 115 / 100);
    ok &= bench::verdict(
        "the curve flattens beyond 256 blocks per extent "
        "(256 vs 2048 within 3%)",
        reads[4] < reads.back() * 103 / 100 &&
            writes[4] < writes.back() * 103 / 100);
    // The paper chooses 256: nearly all of the benefit, bounded
    // over-allocation (Sec. 5.5).
    double benefit256 =
        static_cast<double>(writes.front() - writes[4]) /
        static_cast<double>(writes.front() - writes.back());
    ok &= bench::verdict("256 blocks captures most of the write benefit",
                         benefit256 > 0.9);
    return ok ? 0 : 1;
}
