#include "workloads/lx_replay.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "base/random.hh"

namespace m3
{
namespace workloads
{

void
applySetupToTmpfs(const FsSetup &setup, lx::Tmpfs &fs)
{
    Error e = Error::None;
    for (const std::string &d : setup.dirs)
        fs.create(d, true, e);
    for (const SetupFile &f : setup.files) {
        auto node = fs.create(f.path, false, e);
        if (!node)
            continue;
        // Deterministic content identical to the m3fs image, generated
        // straight into each page.
        Random rng(f.seed);
        node->size = f.size;
        for (size_t off = 0; off < f.size; off += lx::PAGE_SIZE) {
            rng.fillLowBytes(node->page(off / lx::PAGE_SIZE).first,
                             std::min<size_t>(lx::PAGE_SIZE, f.size - off));
        }
    }
}

int
replayTraceLx(lx::Process &proc, const Trace &trace)
{
    std::array<int, 8> slots;
    slots.fill(-1);
    std::vector<uint8_t> buf(largestChunk(trace));

    for (size_t step = 0; step < trace.size(); ++step) {
        const TraceOp &op = trace[step];
        switch (op.kind) {
          case TraceOp::Kind::Open:
            slots[op.fdSlot] = proc.open(op.path, op.flags);
            if (slots[op.fdSlot] < 0)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Close:
            proc.close(slots[op.fdSlot]);
            slots[op.fdSlot] = -1;
            break;
          case TraceOp::Kind::Read: {
            uint64_t done = 0;
            while (done < op.len) {
                size_t chunk = std::min<uint64_t>(op.chunkSize,
                                                  op.len - done);
                ssize_t n = proc.read(slots[op.fdSlot], buf.data(),
                                      chunk);
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
                ssize_t n = proc.write(slots[op.fdSlot], buf.data(),
                                       chunk);
                if (n <= 0)
                    return static_cast<int>(step) + 1;
                done += static_cast<uint64_t>(n);
            }
            break;
          }
          case TraceOp::Kind::Seek:
            proc.lseek(slots[op.fdSlot], static_cast<ssize_t>(op.len),
                       0);
            break;
          case TraceOp::Kind::Sendfile: {
            // BusyBox tar/untar use sendfile on Linux (Sec. 5.6).
            ssize_t n = proc.sendfile(slots[op.fdSlot],
                                      slots[op.fdSlot2], op.len);
            if (n < 0)
                return static_cast<int>(step) + 1;
            break;
          }
          case TraceOp::Kind::Stat: {
            uint64_t size;
            bool isDir;
            if (proc.stat(op.path, size, isDir) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          }
          case TraceOp::Kind::Mkdir:
            if (proc.mkdir(op.path) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Unlink:
            if (proc.unlink(op.path) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Link:
            if (proc.link(op.path, op.path2) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Rename:
            if (proc.rename(op.path, op.path2) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          case TraceOp::Kind::Readdir: {
            std::vector<std::string> names;
            if (proc.readdir(op.path, names) != Error::None)
                return static_cast<int>(step) + 1;
            break;
          }
          case TraceOp::Kind::Fsync:
            proc.fsync(slots[op.fdSlot]);
            break;
          case TraceOp::Kind::Compute:
            proc.compute(op.len);
            break;
        }
    }
    return 0;
}

} // namespace workloads
} // namespace m3
