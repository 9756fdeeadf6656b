#include "m3fs/server.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/op_table.hh"
#include "libm3/env.hh"
#include "libm3/gates.hh"
#include "m3fs/block_cache.hh"
#include "m3fs/fs_proto.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"

namespace m3
{
namespace m3fs
{

namespace
{

/** One open file of a session. */
struct OpenFile
{
    inodeno_t ino;
    uint32_t flags;
};

/** One client session. */
struct Session
{
    uint64_t ident;
    std::map<uint32_t, OpenFile> files;
    uint32_t nextFid = 1;
};

/** The running server state. */
class Server
{
  public:
    Server(Env &env, const ServerConfig &cfg)
        : env(env), cfg(cfg), fsMem(env, cfg.fsMemSel, cfg.fsBytes),
          cache(nullptr), rgate(env, MAX_SLOTS, FS_MSG_SIZE),
          // Metric prefix: the default instance keeps the seed's
          // "m3fs." keys; striped/extra instances get "m3fs.<name>.".
          metricPrefix(cfg.name == "m3fs" ? "m3fs."
                                          : "m3fs." + cfg.name + ".")
    {
        // Bootstrap: learn the block size from the superblock (read
        // directly), then build the cache and the filesystem core on it.
        SuperBlock sb{};
        fsMem.read(&sb, sizeof(sb), 0);
        if (!sb.valid())
            fatal("m3fs: no filesystem found in the provided memory");
        cache = std::make_unique<BlockCache>(fsMem, sb.blockSize,
                                             cfg.cacheBlocks);
        fs = std::make_unique<FsCore>(*cache);
        if (!fs->load())
            fatal("m3fs: superblock vanished");

        capsel_t srvSel = env.allocSels();
        Error e = env.createSrv(srvSel, rgate.capSel(), cfg.name);
        if (e != Error::None)
            fatal("m3fs: registering service failed: %s", errorName(e));
    }

    int
    run()
    {
        for (;;) {
            GateIStream is = rgate.receive();
            env.compute(env.cm.m3.fetchMsg + env.cm.m3.unmarshal);
            bool keepRunning = true;
            if (is.label() == 0)
                keepRunning = handleKernel(is);
            else
                handleClient(is);
            // Meta-data updates of this request reach the image before
            // the next request is served (write-back, batched).
            cache->flushAll();
            // The reply went out inside the handler; the write-back above
            // is housekeeping, so drop the adopted request context before
            // blocking for the next message.
            if (M3_REQTRACE_ON) {
                if (Fiber *f = Fiber::current())
                    f->setReqCtx(0);
            }
            if (!keepRunning)
                return 0;
        }
    }

  private:
    /** @return false when a shutdown was requested. */
    bool
    handleKernel(GateIStream &is)
    {
        auto op = is.pull<kif::ServiceOp>();
        switch (op) {
          case kif::ServiceOp::Open: {
            is.pull<uint64_t>();  // the open argument (unused)
            uint64_t ident = nextIdent++;
            sessions[ident] = Session{ident, {}, 1};
            Marshaller m = is.replyStream();
            m << Error::None << ident;
            is.replyStreamSend(m);
            return true;
          }
          case kif::ServiceOp::Obtain:
            handleObtain(is);
            return true;
          case kif::ServiceOp::Delegate: {
            // m3fs does not accept capabilities from clients.
            Marshaller m = is.replyStream();
            m << Error::InvalidArgs << uint64_t{0};
            is.replyStreamSend(m);
            return true;
          }
          case kif::ServiceOp::Close: {
            auto ident = is.pull<uint64_t>();
            sessions.erase(ident);
            is.replyError(Error::None);
            return true;
          }
          case kif::ServiceOp::Shutdown:
            is.replyError(Error::None);
            return false;
          default:
            is.replyError(Error::InvalidArgs);
            return true;
        }
    }

    void
    handleObtain(GateIStream &is)
    {
        auto ident = is.pull<uint64_t>();
        is.pull<uint64_t>();  // cap budget of the request
        auto argc = is.pull<uint64_t>();
        uint64_t args[kif::MAX_EXCHG_ARGS] = {};
        for (uint64_t i = 0; i < argc && i < kif::MAX_EXCHG_ARGS; ++i)
            args[i] = is.pull<uint64_t>();

        auto sit = sessions.find(ident);
        if (sit == sessions.end() || argc == 0) {
            replyObtainErr(is, Error::NoSuchSession);
            return;
        }
        Session &sess = sit->second;

        switch (static_cast<FsXchg>(args[0])) {
          case FsXchg::GetChannel: {
            // Hand out a send gate for the session's channel; the label
            // identifies the session without further lookups
            // (Sec. 4.4.2). One credit per channel: clients call
            // synchronously, and the sum of handed-out credits must not
            // exceed the ring space (Sec. 4.4.3).
            capsel_t sel = env.allocSels();
            Error e = env.createSgate(sel, rgate.capSel(), ident, 1);
            if (e != Error::None) {
                replyObtainErr(is, e);
                return;
            }
            Marshaller m = is.replyStream();
            m << Error::None << uint64_t{1} << sel << uint64_t{0};
            is.replyStreamSend(m);
            return;
          }
          case FsXchg::FetchLoc: {
            if (argc < 3) {
                replyObtainErr(is, Error::InvalidArgs);
                return;
            }
            auto fit = sess.files.find(static_cast<uint32_t>(args[1]));
            if (fit == sess.files.end()) {
                replyObtainErr(is, Error::InvalidFileHandle);
                return;
            }
            env.compute(env.cm.m3.fsInodeOp + env.cm.m3.fsExtentOp);
            Inode inode = fs->getInode(fit->second.ino);
            uint32_t extIdx = static_cast<uint32_t>(args[2]);
            if (extIdx >= inode.extents) {
                // Past the last extent: no capability, zero length.
                Marshaller m = is.replyStream();
                m << Error::None << uint64_t{0} << uint64_t{1}
                  << uint64_t{0};
                is.replyStreamSend(m);
                return;
            }
            Extent e = fs->getExtent(inode, extIdx);
            capsel_t sel = env.allocSels();
            Error err = env.deriveMem(
                cfg.fsMemSel, sel, fs->blockOff(e.start),
                static_cast<uint64_t>(e.len) *
                    fs->superBlock().blockSize,
                MEM_RW);
            if (err != Error::None) {
                replyObtainErr(is, err);
                return;
            }
            Marshaller m = is.replyStream();
            m << Error::None << uint64_t{1} << sel << uint64_t{1}
              << static_cast<uint64_t>(e.len) *
                     fs->superBlock().blockSize;
            is.replyStreamSend(m);
            return;
          }
          case FsXchg::Append: {
            if (argc < 3) {
                replyObtainErr(is, Error::InvalidArgs);
                return;
            }
            auto fit = sess.files.find(static_cast<uint32_t>(args[1]));
            if (fit == sess.files.end()) {
                replyObtainErr(is, Error::InvalidFileHandle);
                return;
            }
            env.compute(env.cm.m3.fsInodeOp + env.cm.m3.fsAllocRun);
            Inode inode = fs->getInode(fit->second.ino);
            uint32_t blocks = static_cast<uint32_t>(args[2]);
            Extent e = fs->appendBlocks(inode, blocks, cfg.appendBlocks);
            if (e.len == 0) {
                replyObtainErr(is, Error::NoSpace);
                return;
            }
            uint32_t bs = fs->superBlock().blockSize;
            if (cfg.backgroundZero) {
                // Zero blocks are prepared in the background while the
                // service is idle (Sec. 5.4): no cost on this path.
                fsMem.zero(static_cast<size_t>(e.len) * bs,
                           fs->blockOff(e.start));
            } else {
                // Ablation: synchronous zeroing through the DTU.
                std::vector<uint8_t> zero(static_cast<size_t>(e.len) * bs,
                                          0);
                fsMem.write(zero.data(), zero.size(),
                            fs->blockOff(e.start));
            }
            capsel_t sel = env.allocSels();
            Error err = env.deriveMem(cfg.fsMemSel, sel,
                                      fs->blockOff(e.start),
                                      static_cast<uint64_t>(e.len) * bs,
                                      MEM_RW);
            if (err != Error::None) {
                replyObtainErr(is, err);
                return;
            }
            Marshaller m = is.replyStream();
            m << Error::None << uint64_t{1} << sel << uint64_t{2}
              << static_cast<uint64_t>(e.len) * bs
              << static_cast<uint64_t>(inode.extents - 1);
            is.replyStreamSend(m);
            return;
          }
          default:
            replyObtainErr(is, Error::InvalidArgs);
            return;
        }
    }

    void
    replyObtainErr(GateIStream &is, Error e)
    {
        Marshaller m = is.replyStream();
        m << e << uint64_t{0};
        is.replyStreamSend(m);
    }

    void
    handleClient(GateIStream &is)
    {
        static_assert(opTableCoversAll(CLIENT_OPS));
        auto sit = sessions.find(is.label());
        if (sit == sessions.end()) {
            is.replyError(Error::NoSuchSession);
            return;
        }
        // The opcode table's index; a message too short to hold an
        // opcode, or naming none, is answered InvalidArgs.
        uint64_t op = std::size(CLIENT_OPS);
        if (is.header().length >= sizeof(uint64_t))
            op = is.pull<uint64_t>();
        if (op >= std::size(CLIENT_OPS)) {
            is.replyError(Error::InvalidArgs);
            return;
        }
        trace::ScopedSpan span(env.peId, CLIENT_OPS[op].span);
        const Cycles opStart = env.platform.simulator().curCycle();
        std::invoke(CLIENT_OPS[op].fn, this, sit->second, is);
        if (M3_METRICS_ON) {
            // Resolved on an op's first use.
            if (!opCounts[op])
                opCounts[op] = &trace::Metrics::counter(
                    metricPrefix + "op." + CLIENT_OPS[op].metric);
            opCounts[op]->inc();
            if (!opCycles)
                opCycles =
                    &trace::Metrics::histogram(metricPrefix + "op_cycles");
            opCycles->observe(env.platform.simulator().curCycle() -
                              opStart);
        }
    }

    ResolveResult
    resolveCosted(const std::string &path)
    {
        ResolveResult r = fs->resolve(path);
        env.compute(r.components * env.cm.m3.fsPathComponent +
                    env.cm.m3.fsInodeOp);
        return r;
    }

    void
    fsOpen(Session &sess, GateIStream &is)
    {
        auto flags = is.pull<uint64_t>();
        auto path = is.pull<std::string>();

        ResolveResult r = resolveCosted(path);
        inodeno_t ino = r.ino;
        if (ino == INVALID_INO) {
            if (!(flags & 4 /*FILE_CREATE*/) || r.parent == INVALID_INO) {
                is.replyError(Error::NoSuchFile);
                return;
            }
            Inode f{};
            Error e = fs->allocInode(0x8000, f);
            if (e == Error::None)
                e = fs->dirInsert(r.parent, r.leafName, f.ino);
            if (e != Error::None) {
                is.replyError(e);
                return;
            }
            env.compute(env.cm.m3.fsInodeOp);
            ino = f.ino;
        }
        Inode inode = fs->getInode(ino);
        if (inode.mode & 0x4000) {
            is.replyError(Error::IsDirectory);
            return;
        }
        if (flags & 8 /*FILE_TRUNC*/) {
            fs->truncate(inode, 0);
            env.compute(env.cm.m3.fsExtentOp);
        }
        uint32_t fid = sess.nextFid++;
        sess.files[fid] = OpenFile{ino, static_cast<uint32_t>(flags)};

        Marshaller m = is.replyStream();
        m << Error::None << static_cast<uint64_t>(fid) << inode.size
          << static_cast<uint64_t>(inode.extents);
        is.replyStreamSend(m);
    }

    void
    fsClose(Session &sess, GateIStream &is)
    {
        auto fid = is.pull<uint64_t>();
        auto finalSize = is.pull<uint64_t>();
        auto fit = sess.files.find(static_cast<uint32_t>(fid));
        if (fit == sess.files.end()) {
            is.replyError(Error::InvalidFileHandle);
            return;
        }
        // Writes over-allocate generously; close returns the unused tail
        // (Sec. 4.5.8).
        if (fit->second.flags & 2 /*FILE_W*/) {
            Inode inode = fs->getInode(fit->second.ino);
            fs->truncate(inode, finalSize);
            env.compute(env.cm.m3.fsExtentOp + env.cm.m3.fsInodeOp);
        }
        sess.files.erase(fit);
        is.replyError(Error::None);
    }

    void
    fsStat(Session &, GateIStream &is)
    {
        auto path = is.pull<std::string>();
        ResolveResult r = resolveCosted(path);
        if (r.ino == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        Inode inode = fs->getInode(r.ino);
        Marshaller m = is.replyStream();
        m << Error::None << static_cast<uint64_t>(inode.ino)
          << static_cast<uint64_t>(inode.mode)
          << static_cast<uint64_t>(inode.links)
          << static_cast<uint64_t>(inode.extents) << inode.size;
        is.replyStreamSend(m);
    }

    void
    fsMkdir(Session &, GateIStream &is)
    {
        auto path = is.pull<std::string>();
        ResolveResult r = resolveCosted(path);
        if (r.ino != INVALID_INO) {
            is.replyError(Error::FileExists);
            return;
        }
        if (r.parent == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        Inode d{};
        Error e = fs->allocInode(0x4000, d);
        if (e == Error::None)
            e = fs->dirInsert(r.parent, r.leafName, d.ino);
        env.compute(env.cm.m3.fsInodeOp);
        is.replyError(e);
    }

    void
    fsUnlink(Session &, GateIStream &is)
    {
        auto path = is.pull<std::string>();
        ResolveResult r = resolveCosted(path);
        if (r.ino == INVALID_INO || r.parent == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        Inode inode = fs->getInode(r.ino);
        if (inode.mode & 0x4000) {
            if (!fs->dirEmpty(r.ino)) {
                is.replyError(Error::DirNotEmpty);
                return;
            }
        }
        Error e = fs->dirRemove(r.parent, r.leafName);
        if (e == Error::None) {
            if (--inode.links == 0) {
                fs->freeBlocks(inode);
                fs->freeInode(inode.ino);
            } else {
                fs->putInode(inode);
            }
            env.compute(env.cm.m3.fsInodeOp);
        }
        is.replyError(e);
    }

    void
    fsLink(Session &, GateIStream &is)
    {
        auto oldPath = is.pull<std::string>();
        auto newPath = is.pull<std::string>();
        ResolveResult ro = resolveCosted(oldPath);
        if (ro.ino == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        ResolveResult rn = resolveCosted(newPath);
        if (rn.ino != INVALID_INO) {
            is.replyError(Error::FileExists);
            return;
        }
        if (rn.parent == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        Inode inode = fs->getInode(ro.ino);
        Error e = fs->dirInsert(rn.parent, rn.leafName, inode.ino);
        if (e == Error::None) {
            inode.links++;
            fs->putInode(inode);
            env.compute(env.cm.m3.fsInodeOp);
        }
        is.replyError(e);
    }

    void
    fsRename(Session &, GateIStream &is)
    {
        auto oldPath = is.pull<std::string>();
        auto newPath = is.pull<std::string>();
        ResolveResult ro = resolveCosted(oldPath);
        if (ro.ino == INVALID_INO || ro.parent == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        ResolveResult rn = resolveCosted(newPath);
        if (rn.ino != INVALID_INO) {
            is.replyError(Error::FileExists);
            return;
        }
        if (rn.parent == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        // Rename = insert under the new name, drop the old entry; the
        // inode and its extents are untouched.
        Error e = fs->dirInsert(rn.parent, rn.leafName, ro.ino);
        if (e == Error::None)
            e = fs->dirRemove(ro.parent, ro.leafName);
        env.compute(env.cm.m3.fsInodeOp);
        is.replyError(e);
    }

    void
    fsReaddir(Session &, GateIStream &is)
    {
        auto off = is.pull<uint64_t>();
        auto path = is.pull<std::string>();
        ResolveResult r = resolveCosted(path);
        if (r.ino == INVALID_INO) {
            is.replyError(Error::NoSuchFile);
            return;
        }
        std::vector<std::pair<inodeno_t, std::string>> entries;
        Error e = fs->dirList(r.ino, entries);
        if (e != Error::None) {
            is.replyError(e);
            return;
        }
        env.compute(entries.size() * 8);  // per-entry scan cost

        Marshaller m = is.replyStream();
        uint64_t count = 0;
        uint64_t end = std::min<uint64_t>(entries.size(),
                                          off + READDIR_CHUNK);
        if (off < entries.size())
            count = end - off;
        m << Error::None << count;
        for (uint64_t i = off; i < end; ++i)
            m << static_cast<uint64_t>(entries[i].first)
              << entries[i].second;
        m << static_cast<uint64_t>(end < entries.size() ? 1 : 0);
        is.replyStreamSend(m);
    }

    /** A client operation: its opcode, labels and handler. */
    struct ClientOp
    {
        FsOp op;
        const char *metric;  //!< counter "<metricPrefix>op.<metric>"
        const char *span;
        void (Server::*fn)(Session &, GateIStream &);
    };
    static constexpr ClientOp CLIENT_OPS[] = {
        {FsOp::Open, "open", "fs:open", &Server::fsOpen},
        {FsOp::Close, "close", "fs:close", &Server::fsClose},
        {FsOp::Stat, "stat", "fs:stat", &Server::fsStat},
        {FsOp::Mkdir, "mkdir", "fs:mkdir", &Server::fsMkdir},
        {FsOp::Unlink, "unlink", "fs:unlink", &Server::fsUnlink},
        {FsOp::Link, "link", "fs:link", &Server::fsLink},
        {FsOp::Readdir, "readdir", "fs:readdir", &Server::fsReaddir},
        {FsOp::Rename, "rename", "fs:rename", &Server::fsRename},
    };

    Env &env;
    ServerConfig cfg;
    MemGate fsMem;
    std::unique_ptr<BlockCache> cache;
    std::unique_ptr<FsCore> fs;
    RecvGate rgate;
    std::string metricPrefix;
    /** One per client operation, in table order. */
    trace::Counter *opCounts[std::size(CLIENT_OPS)] = {};
    trace::Histogram *opCycles = nullptr;
    std::map<uint64_t, Session> sessions;
    uint64_t nextIdent = 1;
};

} // anonymous namespace

int
serverMain(const ServerConfig &cfg)
{
    Env &env = Env::cur();
    env.acct().push(Category::Os);
    Server server(env, cfg);
    int rc = server.run();
    env.acct().pop();
    return rc;
}

} // namespace m3fs
} // namespace m3
