#include "workloads/m3_replay.hh"

#include <array>
#include <memory>

#include "libm3/vfs.hh"

namespace m3
{
namespace workloads
{

void
applySetupToImage(const FsSetup &setup, m3fs::FsImageSpec &spec)
{
    for (const std::string &d : setup.dirs)
        spec.dirs.push_back(d);
    for (const SetupFile &f : setup.files)
        spec.files.push_back({f.path, spec.pattern(f.size, f.seed)});
}

int
applySetupToVfs(Env &env, const FsSetup &setup)
{
    Vfs &vfs = env.vfs();
    for (const std::string &d : setup.dirs) {
        Error e = vfs.mkdir(d);
        if (e != Error::None && e != Error::FileExists)
            return 1;
    }
    std::vector<uint8_t> data;
    for (const SetupFile &f : setup.files) {
        Error e = Error::None;
        auto file = vfs.open(f.path, FILE_W | FILE_CREATE | FILE_TRUNC, e);
        if (!file)
            return 2;
        data = m3fs::FsImage::patternData(f.size, f.seed);
        size_t done = 0;
        while (done < data.size()) {
            size_t chunk = std::min<size_t>(64 * KiB, data.size() - done);
            ssize_t n = file->write(data.data() + done, chunk);
            if (n <= 0)
                return 3;
            done += static_cast<size_t>(n);
        }
    }
    return 0;
}

namespace
{

/** Read up to @p len bytes of @p f over the front of @p buf, as a read
 *  into a host buffer overwrites its first bytes. */
ssize_t
readFront(File &f, Bytes &buf, size_t len)
{
    Bytes got;
    ssize_t n = f.read(got, len);
    if (n > 0)
        buf = std::move(got) + buf.suffix(static_cast<size_t>(n));
    return n;
}

} // anonymous namespace

int
replayTraceM3(Env &env, const Trace &trace)
{
    Vfs &vfs = env.vfs();
    std::array<std::unique_ptr<File>, 8> slots;
    // The replay never looks at the bytes it moves, so its buffer is a
    // Bytes value: file data stays a reference to the file's bytes. It
    // starts as zeros the replay made itself (a copied slice), which a
    // write stores like bytes from a host buffer.
    const std::vector<uint8_t> zeros(largestChunk(trace));
    Bytes buf = Bytes::copyOf(zeros.data(), zeros.size());

    for (size_t step = 0; step < trace.size(); ++step) {
        const TraceOp &op = trace[step];
        Error e = Error::None;
        switch (op.kind) {
          case TraceOp::Kind::Open:
            slots[op.fdSlot] = vfs.open(op.path, op.flags, e);
            if (!slots[op.fdSlot])
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Close:
            slots[op.fdSlot].reset();
            break;
          case TraceOp::Kind::Read: {
            uint64_t done = 0;
            while (done < op.len) {
                size_t chunk = std::min<uint64_t>(op.chunkSize,
                                                  op.len - done);
                ssize_t n = readFront(*slots[op.fdSlot], buf, chunk);
                if (n < 0)
                    return static_cast<int>(step) + 1;
                if (n == 0)
                    break;
                done += static_cast<uint64_t>(n);
            }
            break;
          }
          case TraceOp::Kind::Write: {
            uint64_t done = 0;
            while (done < op.len) {
                size_t chunk = std::min<uint64_t>(op.chunkSize,
                                                  op.len - done);
                ssize_t n = slots[op.fdSlot]->write(buf.prefix(chunk));
                if (n <= 0)
                    return static_cast<int>(step) + 1;
                done += static_cast<uint64_t>(n);
            }
            break;
          }
          case TraceOp::Kind::Seek:
            slots[op.fdSlot]->seek(static_cast<ssize_t>(op.len),
                                   SeekMode::Set);
            break;
          case TraceOp::Kind::Sendfile: {
            // No sendfile on M3: stream through a user buffer with the
            // paper's 4 KiB chunks (Sec. 5.6).
            uint64_t done = 0;
            while (done < op.len) {
                size_t chunk = std::min<uint64_t>(op.chunkSize,
                                                  op.len - done);
                ssize_t n = readFront(*slots[op.fdSlot2], buf, chunk);
                if (n < 0)
                    return static_cast<int>(step) + 1;
                if (n == 0)
                    break;
                if (slots[op.fdSlot]->write(
                        buf.prefix(static_cast<size_t>(n))) != n)
                    return static_cast<int>(step) + 1;
                done += static_cast<uint64_t>(n);
            }
            break;
          }
          case TraceOp::Kind::Stat: {
            FileInfo info;
            if (vfs.stat(op.path, info) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          }
          case TraceOp::Kind::Mkdir:
            if (vfs.mkdir(op.path) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Unlink:
            if (vfs.unlink(op.path) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Link:
            if (vfs.link(op.path, op.path2) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Rename:
            if (vfs.rename(op.path, op.path2) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Readdir: {
            std::vector<DirEntry> entries;
            if (vfs.readdir(op.path, entries) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          }
          case TraceOp::Kind::Fsync:
            // m3fs is in-memory; there is nothing to sync (Sec. 4.5.8).
            break;
          case TraceOp::Kind::Compute:
            env.fiber.computeAs(Category::App, op.len);
            break;
        }
    }
    return 0;
}

} // namespace workloads
} // namespace m3
