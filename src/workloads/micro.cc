#include "workloads/micro.hh"

#include "base/random.hh"
#include "libm3/pipe.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"

namespace m3
{
namespace workloads
{

RunResult
m3NullSyscall(uint32_t iterations, const M3RunOpts &opts)
{
    RunResult r = runOnM3(m3MachineCfg(opts, 2, {}), [&](Env &env) {
        for (uint32_t i = 0; i < iterations; ++i)
            if (env.noop() != Error::None)
                return 1;
        return 0;
    });
    r.wall /= iterations;
    return r;
}

RunResult
lxNullSyscall(uint32_t iterations, const LxRunOpts &opts)
{
    RunResult r = runOnLx(opts, {}, [&](lx::Process &p) {
        for (uint32_t i = 0; i < iterations; ++i)
            p.nullSyscall();
        return 0;
    });
    r.wall /= iterations;
    return r;
}

RunResult
m3FileRead(const MicroOpts &opts)
{
    m3fs::FsImageSpec spec;
    spec.totalBlocks = 32768;
    spec.dirs = {"/data"};
    spec.files.push_back(
        {"/data/file", m3fs::FsImage::patternData(opts.fileBytes, 99)});
    M3SystemCfg cfg = m3MachineCfg(opts.m3, 2, std::move(spec));
    return runOnM3(std::move(cfg), [&](Env &env) {
        Error e = Error::None;
        auto file = env.vfs().open("/data/file", FILE_R, e);
        if (!file)
            return 1;
        std::vector<uint8_t> buf(opts.bufSize);
        for (;;) {
            ssize_t n = file->read(buf.data(), buf.size());
            if (n < 0)
                return 2;
            if (n == 0)
                return 0;
        }
    });
}

RunResult
lxFileRead(const MicroOpts &opts)
{
    size_t bytes = opts.fileBytes;
    uint32_t buf = opts.bufSize;
    return runOnLx(opts.lx, {}, [bytes, buf](lx::Process &p) {
        // Prepare the file outside the measurement.
        {
            Error e = Error::None;
            auto node = p.machine().fs().create("/file", false, e);
            if (!node)
                return 1;
            node->size = bytes;
            for (size_t pg = 0; pg * lx::PAGE_SIZE < bytes; ++pg)
                node->page(pg);
        }
        int fd = p.open("/file", 1);
        if (fd < 0)
            return 2;
        std::vector<uint8_t> b(buf);
        for (;;) {
            ssize_t n = p.read(fd, b.data(), b.size());
            if (n < 0)
                return 3;
            if (n == 0)
                break;
        }
        p.close(fd);
        return 0;
    });
}

RunResult
m3FileWrite(const MicroOpts &opts)
{
    m3fs::FsImageSpec spec;
    spec.totalBlocks = 32768;
    spec.dirs = {"/data"};
    M3SystemCfg cfg = m3MachineCfg(opts.m3, 2, std::move(spec));
    return runOnM3(std::move(cfg), [&](Env &env) {
        // Reach the mounted session to set the allocation granularity.
        std::string rest;
        auto *sess = dynamic_cast<m3fs::M3fsSession *>(
            env.vfs().resolve("/x", rest));
        if (!sess)
            return 1;
        sess->appendBlocks = opts.m3.fsAppendBlocks;
        Error e = Error::None;
        auto file = env.vfs().open("/data/out", FILE_W | FILE_CREATE, e);
        if (!file)
            return 2;
        std::vector<uint8_t> buf(opts.bufSize, 0x5a);
        size_t done = 0;
        while (done < opts.fileBytes) {
            size_t chunk = std::min<size_t>(buf.size(),
                                            opts.fileBytes - done);
            if (file->write(buf.data(), chunk) !=
                static_cast<ssize_t>(chunk))
                return 3;
            done += chunk;
        }
        return 0;
    });
}

RunResult
lxFileWrite(const MicroOpts &opts)
{
    size_t bytes = opts.fileBytes;
    uint32_t buf = opts.bufSize;
    return runOnLx(opts.lx, {}, [bytes, buf](lx::Process &p) {
        int fd = p.open("/out", 2 | 4 | 8);
        if (fd < 0)
            return 1;
        std::vector<uint8_t> b(buf, 0x5a);
        size_t done = 0;
        while (done < bytes) {
            size_t chunk = std::min<size_t>(b.size(), bytes - done);
            if (p.write(fd, b.data(), chunk) !=
                static_cast<ssize_t>(chunk))
                return 2;
            done += chunk;
        }
        p.close(fd);
        return 0;
    });
}

RunResult
m3PipeXfer(const MicroOpts &opts)
{
    size_t bytes = opts.fileBytes;
    uint32_t buf = opts.bufSize;
    return runOnM3(m3MachineCfg(opts.m3, 3, {}), [&](Env &env) {
        Pipe pipe(env, /*creatorWrites=*/false);
        VPE child(env, "writer");
        if (child.err() != Error::None)
            return 1;
        if (pipe.delegateTo(child) != Error::None)
            return 2;
        child.run([bytes, buf] {
            Env &cenv = Env::cur();
            auto out = pipePeer(cenv, /*peerWrites=*/true);
            std::vector<uint8_t> b(buf, 0x77);
            size_t done = 0;
            while (done < bytes) {
                size_t chunk = std::min<size_t>(b.size(), bytes - done);
                if (out->write(b.data(), chunk) !=
                    static_cast<ssize_t>(chunk))
                    return 1;
                done += chunk;
            }
            return 0;
        });
        auto in = pipe.host();
        std::vector<uint8_t> b(buf);
        size_t got = 0;
        for (;;) {
            ssize_t n = in->read(b.data(), b.size());
            if (n < 0)
                return 3;
            if (n == 0)
                break;
            got += static_cast<size_t>(n);
        }
        if (child.wait() != 0)
            return 4;
        return got == bytes ? 0 : 5;
    });
}

RunResult
lxPipeXfer(const MicroOpts &opts)
{
    size_t bytes = opts.fileBytes;
    uint32_t buf = opts.bufSize;
    return runOnLx(opts.lx, {}, [bytes, buf](lx::Process &p) {
        int fds[2];
        if (p.pipe(fds) != Error::None)
            return 1;
        int child = p.fork([fds, bytes, buf](lx::Process &c) {
            c.close(fds[0]);
            std::vector<uint8_t> b(buf, 0x77);
            size_t done = 0;
            while (done < bytes) {
                size_t chunk = std::min<size_t>(b.size(), bytes - done);
                if (c.write(fds[1], b.data(), chunk) !=
                    static_cast<ssize_t>(chunk))
                    return 1;
                done += chunk;
            }
            c.close(fds[1]);
            return 0;
        });
        p.close(fds[1]);
        std::vector<uint8_t> b(buf);
        size_t got = 0;
        for (;;) {
            ssize_t n = p.read(fds[0], b.data(), b.size());
            if (n < 0)
                return 2;
            if (n == 0)
                break;
            got += static_cast<size_t>(n);
        }
        p.close(fds[0]);
        if (p.waitpid(child) != 0)
            return 3;
        return got == bytes ? 0 : 4;
    });
}

} // namespace workloads
} // namespace m3
