/**
 * @file
 * The system-call trace format used by the application-level benchmarks
 * (Sec. 5.6): a recorded sequence of OS operations plus compute waits,
 * replayed against either the M3 file API or the Linux baseline. This
 * mirrors the paper's methodology of replaying strace recordings with
 * the corresponding API on each system.
 */

#ifndef M3_WORKLOADS_TRACE_HH
#define M3_WORKLOADS_TRACE_HH

#include <algorithm>
#include <string>
#include <vector>

#include "base/types.hh"

namespace m3
{
namespace workloads
{

/** One recorded operation. */
struct TraceOp
{
    enum class Kind
    {
        Open,     //!< open fdSlot = open(path, flags)
        Close,    //!< close(fdSlot)
        Read,     //!< read len bytes in chunkSize pieces from fdSlot
        Write,    //!< write len bytes in chunkSize pieces to fdSlot
        Seek,     //!< seek fdSlot to absolute offset len
        Sendfile, //!< copy len bytes fdSlot2 -> fdSlot (paper: tar/untar)
        Stat,     //!< stat(path)
        Mkdir,    //!< mkdir(path)
        Unlink,   //!< unlink(path)
        Link,     //!< link(path, path2)
        Rename,   //!< rename(path, path2)
        Readdir,  //!< list path
        Fsync,    //!< fsync(fdSlot)
        Compute,  //!< application computation of len cycles
    };

    TraceOp() = default;

    explicit TraceOp(Kind kind) : kind(kind) {}

    TraceOp(Kind kind, std::string path, std::string path2,
            uint32_t flags, int fdSlot)
        : kind(kind), path(std::move(path)), path2(std::move(path2)),
          flags(flags), fdSlot(fdSlot)
    {
    }

    Kind kind = Kind::Compute;
    std::string path;
    std::string path2;
    uint32_t flags = 0;
    int fdSlot = 0;   //!< index into the replayer's descriptor table
    int fdSlot2 = 0;
    uint64_t len = 0;
    uint32_t chunkSize = 4096;  //!< the paper's 4 KiB buffers (Sec. 5.4)
};

using Trace = std::vector<TraceOp>;

/** The largest chunkSize in @p trace: the buffer its replay needs. */
inline size_t
largestChunk(const Trace &trace)
{
    size_t n = 0;
    for (const TraceOp &op : trace)
        n = std::max<size_t>(n, op.chunkSize);
    return n;
}

/** A file that must exist before the trace runs. */
struct SetupFile
{
    std::string path;
    size_t size;
    uint64_t seed;  //!< deterministic content
};

/** The initial filesystem state a workload expects. */
struct FsSetup
{
    std::vector<std::string> dirs;
    std::vector<SetupFile> files;
};

/** A complete benchmark workload. */
struct Workload
{
    std::string name;
    FsSetup setup;
    Trace trace;
};

} // namespace workloads
} // namespace m3

#endif // M3_WORKLOADS_TRACE_HH
