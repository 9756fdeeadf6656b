/**
 * @file
 * The micro-benchmarks of Sec. 5.3-5.5: null system calls, file
 * read/write through m3fs vs tmpfs, pipe transfers, and the file
 * fragmentation sweep — each for M3 and for the Linux baseline.
 */

#ifndef M3_WORKLOADS_MICRO_HH
#define M3_WORKLOADS_MICRO_HH

#include "workloads/runners.hh"

namespace m3
{
namespace workloads
{

/**
 * Parameters of the file/pipe micro-benchmarks (paper defaults). The
 * Fig. 4 sweeps set m3.fsBlocksPerExtent (read: extent length of the
 * prepared file) and m3.fsAppendBlocks (write: blocks allocated at once).
 */
struct MicroOpts
{
    size_t fileBytes = 2 * MiB;   //!< Sec. 5.4: 2 MiB transfers
    uint32_t bufSize = 4096;      //!< Sec. 5.4: 4 KiB buffers
    M3RunOpts m3;
    LxRunOpts lx;
};

/** Average cycles of a null system call on M3 (Sec. 5.3). */
RunResult m3NullSyscall(uint32_t iterations = 16,
                        const M3RunOpts &opts = {});

/** Average cycles of a null system call on the baseline. */
RunResult lxNullSyscall(uint32_t iterations = 16,
                        const LxRunOpts &opts = {});

/** Read a prepared file, discarding the data (Sec. 5.4 "Read"). */
RunResult m3FileRead(const MicroOpts &opts = {});
RunResult lxFileRead(const MicroOpts &opts = {});

/** Write precomputed data into a new file (Sec. 5.4 "Write"). */
RunResult m3FileWrite(const MicroOpts &opts = {});
RunResult lxFileWrite(const MicroOpts &opts = {});

/** Transfer data between two VPEs/processes (Sec. 5.4 "Pipe"). */
RunResult m3PipeXfer(const MicroOpts &opts = {});
RunResult lxPipeXfer(const MicroOpts &opts = {});

} // namespace workloads
} // namespace m3

#endif // M3_WORKLOADS_MICRO_HH
