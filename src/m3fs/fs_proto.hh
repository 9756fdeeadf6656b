/**
 * @file
 * The session protocol between m3fs clients (libm3's file API) and the
 * m3fs server. Meta-data operations are direct messages on the session
 * channel; data locations are exchanged as memory capabilities through
 * the kernel (Sec. 4.5.8).
 */

#ifndef M3_M3FS_FS_PROTO_HH
#define M3_M3FS_FS_PROTO_HH

#include <cstdint>

namespace m3
{
namespace m3fs
{

/** Meta-data operations sent directly to the service. */
enum class FsOp : uint64_t
{
    Open,     //!< { Open, flags, path } -> { Error, fid, size, extents }
    Close,    //!< { Close, fid, finalSize } -> { Error }
    Stat,     //!< { Stat, path } -> { Error, ino, mode, links, ext, size }
    Mkdir,    //!< { Mkdir, path } -> { Error }
    Unlink,   //!< { Unlink, path } -> { Error }
    Link,     //!< { Link, oldPath, newPath } -> { Error }
    Readdir,  //!< { Readdir, off, path }
              //!< -> { Error, count, {ino, name}..., more }
    Rename,   //!< { Rename, oldPath, newPath } -> { Error }
    COUNT,
};

/**
 * Capability exchanges over the session (kernel-mediated). args[0] is
 * one of these opcodes.
 */
enum class FsXchg : uint64_t
{
    GetChannel, //!< obtain the session's send gate: args { GetChannel }
    FetchLoc,   //!< obtain the mem cap of one extent:
                //!< args { FetchLoc, fid, extIdx } -> ret { lenBytes }
    Append,     //!< allocate + obtain a new extent:
                //!< args { Append, fid, blocks }
                //!< -> ret { lenBytes, extIdx }
};

/** Slot size of the m3fs request ring (max request size). */
static constexpr uint32_t FS_MSG_SIZE = 512;

/** Directory entries per Readdir reply chunk. */
static constexpr uint32_t READDIR_CHUNK = 8;

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_FS_PROTO_HH
