#include "m3fs/client.hh"

#include "base/logging.hh"
#include "libm3/vpe.hh"
#include "m3fs/fs_defs.hh"

namespace m3
{
namespace m3fs
{

// ---------------------------------------------------------------------
// M3fsSession.
// ---------------------------------------------------------------------

M3fsSession::M3fsSession(Env &env, capsel_t sessSel, std::string srvName)
    : env(env), sessSel(sessSel), srvName(std::move(srvName))
{
}

std::shared_ptr<M3fsSession>
M3fsSession::create(Env &env, Error &err, const std::string &srvName,
                    uint64_t openArg, RecvGate *sharedReply)
{
    capsel_t sessSel = env.allocSels();
    // The service may still be booting (service registration and client
    // start race at boot); retry while the name is unknown.
    for (int attempt = 0;; ++attempt) {
        err = env.openSess(sessSel, srvName, openArg);
        if (err != Error::NoSuchService || attempt >= 1000)
            break;
        Fiber::current()->sleep(500);
    }
    if (err != Error::None)
        return nullptr;

    auto sess = std::shared_ptr<M3fsSession>(
        new M3fsSession(env, sessSel, srvName));
    sess->openArg = openArg;
    if (sharedReply)
        sess->extReply = sharedReply;
    else
        sess->replyGate = std::make_unique<RecvGate>(env, 4, FS_MSG_SIZE);

    // Obtain the session's send gate from the service (Sec. 4.5.3).
    capsel_t sgateSel = env.allocSels();
    std::vector<uint64_t> ret;
    err = env.exchangeSess(
        sessSel, kif::ExchangeOp::Obtain, sgateSel, 1,
        {static_cast<uint64_t>(FsXchg::GetChannel)}, &ret);
    if (err != Error::None)
        return nullptr;
    sess->channel = std::make_unique<SendGate>(env, sgateSel, FS_MSG_SIZE,
                                               true);
    return sess;
}

Error
M3fsSession::mount(Env &env, const std::string &prefix,
                   const std::string &srvName)
{
    Error err = Error::None;
    auto sess = create(env, err, srvName);
    if (err != Error::None)
        return err;
    return env.vfs().mount(prefix, sess);
}

M3fsSession::~M3fsSession() = default;

Error
M3fsSession::delegateTo(VPE &vpe, capsel_t dstStart)
{
    Error e = vpe.delegate(sessSel, 1, dstStart);
    if (e != Error::None)
        return e;
    return vpe.delegate(channel->capSel(), 1, dstStart + 1);
}

Error
M3fsSession::bindMount(Env &env, const std::string &prefix,
                       capsel_t selStart)
{
    // Bound sessions cannot re-open: the service name stayed with the
    // parent, and re-opening would bypass the delegation.
    auto sess = std::shared_ptr<M3fsSession>(
        new M3fsSession(env, selStart, ""));
    sess->replyGate = std::make_unique<RecvGate>(env, 4, FS_MSG_SIZE);
    sess->channel = std::make_unique<SendGate>(env, selStart + 1,
                                               FS_MSG_SIZE, true);
    return env.vfs().mount(prefix, sess);
}

GateIStream
M3fsSession::call(Marshaller &m)
{
    ScopedCategory os(env.acct(), Category::Os);
    env.compute(env.cm.m3.fsClientCall);
    lastCallError = Error::None;
    const uint32_t attempts = callTimeout ? callRetries + 1 : 1;
    Error err = Error::None;
    {
        GateIStream is = channel->call(m, reply(), attempts, callTimeout,
                                       &err);
        if (err == Error::None)
            return is;
    }
    auto fail = [this](Error e, const char *what) {
        if (!softFail)
            panic("m3fs: %s: %s", what, errorName(e));
        lastCallError = e;
        return GateIStream(reply(), -1);
    };

    // The channel is dead (requests or replies keep getting lost, or the
    // server's view of the session is gone): open a fresh session and
    // replay the request once. Save it host-side first: the re-open
    // replaces the channel and thereby the staging buffer it lives in.
    if (srvName.empty())
        return fail(err, "channel dead on a bound session (cannot re-open)");
    const uint32_t size = static_cast<uint32_t>(m.size());
    std::vector<uint8_t> saved(channel->stagePtr(),
                               channel->stagePtr() + size);
    Error re = reopen();
    if (re != Error::None)
        return fail(re, "session re-open failed");
    std::memcpy(channel->stagePtr(), saved.data(), size);
    Marshaller replay(channel->stagePtr(), channel->maxMsg());
    replay.setSize(size);
    GateIStream is = channel->call(replay, reply(), attempts, callTimeout,
                                   &err);
    if (err != Error::None)
        return fail(err, "request replay after re-open failed");
    return is;
}

Error
M3fsSession::reopen()
{
    capsel_t newSess = env.allocSels();
    Error err = env.openSess(newSess, srvName, openArg);
    if (err != Error::None)
        return err;
    sessSel = newSess;
    capsel_t sgateSel = env.allocSels();
    std::vector<uint64_t> ret;
    err = env.exchangeSess(sessSel, kif::ExchangeOp::Obtain, sgateSel, 1,
                           {static_cast<uint64_t>(FsXchg::GetChannel)},
                           &ret);
    if (err != Error::None)
        return err;
    channel = std::make_unique<SendGate>(env, sgateSel, FS_MSG_SIZE, true);
    return Error::None;
}

Marshaller
M3fsSession::opStream()
{
    return channel->ostream();
}

Error
M3fsSession::sendOp(Marshaller &m, label_t label)
{
    // No fsClientCall charge here: a fan-out broadcasts one request, so
    // the caller pays the client-side call work once; each stripe's copy
    // costs only the marshalling and the DTU command (inside send()).
    ScopedCategory os(env.acct(), Category::Os);
    lastCallError = Error::None;
    return channel->send(m, &reply(), label);
}

Error
M3fsSession::obtain(const std::vector<uint64_t> &args, capsel_t &capOut,
                    std::vector<uint64_t> &ret)
{
    env.compute(env.cm.m3.fsClientCall);
    capOut = env.allocSels();
    return env.exchangeSess(sessSel, kif::ExchangeOp::Obtain, capOut, 1,
                            args, &ret);
}

std::unique_ptr<File>
M3fsSession::open(const std::string &path, uint32_t flags, Error &err)
{
    Marshaller m = channel->ostream();
    m << FsOp::Open << static_cast<uint64_t>(flags) << path;
    GateIStream is = call(m);
    auto file = decodeOpen(is, flags, err);
    if (file && (flags & FILE_APPEND))
        file->seek(0, SeekMode::End);
    return file;
}

std::unique_ptr<M3fsFile>
M3fsSession::decodeOpen(GateIStream &is, uint32_t flags, Error &err)
{
    err = streamError(is);
    if (err != Error::None)
        return nullptr;
    auto fid = is.pull<uint64_t>();
    auto size = is.pull<uint64_t>();
    auto extents = is.pull<uint64_t>();
    return std::make_unique<M3fsFile>(
        shared_from_this(), static_cast<uint32_t>(fid), flags, size,
        static_cast<uint32_t>(extents));
}

Error
M3fsSession::stat(const std::string &path, FileInfo &info)
{
    Marshaller m = channel->ostream();
    m << FsOp::Stat << path;
    GateIStream is = call(m);
    return decodeStat(is, info);
}

Error
M3fsSession::decodeStat(GateIStream &is, FileInfo &info)
{
    Error err = streamError(is);
    if (err != Error::None)
        return err;
    info.ino = static_cast<uint32_t>(is.pull<uint64_t>());
    info.mode = static_cast<uint32_t>(is.pull<uint64_t>());
    info.links = static_cast<uint32_t>(is.pull<uint64_t>());
    info.extents = static_cast<uint32_t>(is.pull<uint64_t>());
    info.size = is.pull<uint64_t>();
    return Error::None;
}

Error
M3fsSession::mkdir(const std::string &path)
{
    Marshaller m = channel->ostream();
    m << FsOp::Mkdir << path;
    GateIStream is = call(m);
    return streamError(is);
}

Error
M3fsSession::unlink(const std::string &path)
{
    Marshaller m = channel->ostream();
    m << FsOp::Unlink << path;
    GateIStream is = call(m);
    return streamError(is);
}

Error
M3fsSession::link(const std::string &oldPath, const std::string &newPath)
{
    Marshaller m = channel->ostream();
    m << FsOp::Link << oldPath << newPath;
    GateIStream is = call(m);
    return streamError(is);
}

Error
M3fsSession::rename(const std::string &oldPath,
                    const std::string &newPath)
{
    Marshaller m = channel->ostream();
    m << FsOp::Rename << oldPath << newPath;
    GateIStream is = call(m);
    return streamError(is);
}

Error
M3fsSession::readdir(const std::string &path,
                     std::vector<m3::DirEntry> &entries)
{
    uint64_t off = 0;
    for (;;) {
        Marshaller m = channel->ostream();
        m << FsOp::Readdir << off << path;
        GateIStream is = call(m);
        Error err = streamError(is);
        if (err != Error::None)
            return err;
        auto count = is.pull<uint64_t>();
        for (uint64_t i = 0; i < count; ++i) {
            m3::DirEntry de;
            de.ino = static_cast<uint32_t>(is.pull<uint64_t>());
            de.name = is.pull<std::string>();
            entries.push_back(std::move(de));
        }
        auto more = is.pull<uint64_t>();
        off += count;
        if (!more)
            return Error::None;
    }
}

// ---------------------------------------------------------------------
// M3fsFile.
// ---------------------------------------------------------------------

M3fsFile::M3fsFile(std::shared_ptr<M3fsSession> fs, uint32_t fid,
                   uint32_t flags, uint64_t size, uint32_t serverExtents)
    : fs(std::move(fs)), fid(fid), flags(flags), size(size),
      serverExtents(serverExtents)
{
}

M3fsFile::~M3fsFile()
{
    if (closed)
        return;
    // Close truncates the generous append allocation to the actually
    // used space (Sec. 4.5.8).
    Marshaller m = fs->channel->ostream();
    buildClose(m);
    fs->call(m);
}

void
M3fsFile::buildClose(Marshaller &m)
{
    m << FsOp::Close << static_cast<uint64_t>(fid) << size;
    closed = true;
}

Error
M3fsFile::fetchNext()
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
    capsel_t cap = INVALID_SEL;
    std::vector<uint64_t> ret;
    Error err = fs->obtain({static_cast<uint64_t>(FsXchg::FetchLoc),
                            fid, nextExtIdx},
                           cap, ret);
    if (err != Error::None)
        return err;
    if (ret.empty() || ret[0] == 0)
        return Error::EndOfFile;
    Loc loc;
    loc.gate = std::make_unique<MemGate>(env, cap, ret[0]);
    loc.fileOff = coveredBytes;
    loc.len = ret[0];
    coveredBytes += ret[0];
    locs.push_back(std::move(loc));
    nextExtIdx++;
    return Error::None;
}

Error
M3fsFile::append()
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
    capsel_t cap = INVALID_SEL;
    std::vector<uint64_t> ret;
    Error err = fs->obtain({static_cast<uint64_t>(FsXchg::Append), fid,
                            fs->appendBlocks},
                           cap, ret);
    if (err != Error::None)
        return err;
    if (ret.size() < 2 || ret[0] == 0)
        return Error::NoSpace;
    Loc loc;
    loc.gate = std::make_unique<MemGate>(env, cap, ret[0]);
    loc.fileOff = coveredBytes;
    loc.len = ret[0];
    coveredBytes += ret[0];
    nextExtIdx = static_cast<uint32_t>(ret[1]) + 1;
    serverExtents = nextExtIdx;
    locs.push_back(std::move(loc));
    return Error::None;
}

M3fsFile::Loc *
M3fsFile::locate(uint64_t at, Error &err)
{
    err = Error::None;
    // Most accesses are sequential; check the last location first.
    if (!locs.empty()) {
        Loc &last = locs.back();
        if (at >= last.fileOff && at < last.fileOff + last.len)
            return &last;
    }
    for (Loc &l : locs)
        if (at >= l.fileOff && at < l.fileOff + l.len)
            return &l;
    // Not covered yet: fetch further extents from the service.
    while (at >= coveredBytes) {
        err = fetchNext();
        if (err != Error::None)
            return nullptr;
    }
    return locate(at, err);
}

template <class Move>
ssize_t
M3fsFile::readLoop(size_t len, Move &&move)
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
    if (!(flags & FILE_R))
        return -static_cast<ssize_t>(Error::NoPerm);
    env.compute(env.cm.m3.fileOpPath);

    size_t total = 0;
    while (total < len && pos < size) {
        env.compute(env.cm.m3.fileLocate);
        Error err = Error::None;
        Loc *loc = locate(pos, err);
        if (!loc)
            return total ? static_cast<ssize_t>(total)
                         : -static_cast<ssize_t>(err);
        uint64_t inLoc = pos - loc->fileOff;
        size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(len - total,
                               std::min(loc->len - inLoc, size - pos)));
        err = move(*loc->gate, inLoc, total, chunk);
        if (err != Error::None)
            return -static_cast<ssize_t>(err);
        pos += chunk;
        total += chunk;
    }
    return static_cast<ssize_t>(total);
}

ssize_t
M3fsFile::read(void *buf, size_t len)
{
    uint8_t *out = static_cast<uint8_t *>(buf);
    return readLoop(len, [out](MemGate &gate, uint64_t inLoc, size_t total,
                               size_t chunk) {
        return gate.read(out + total, chunk, inLoc);
    });
}

ssize_t
M3fsFile::read(Bytes &buf, size_t len)
{
    Bytes got;
    ssize_t n = readLoop(len, [&got](MemGate &gate, uint64_t inLoc, size_t,
                                     size_t chunk) {
        Bytes run;
        Error e = gate.read(run, chunk, inLoc);
        got += std::move(run);
        return e;
    });
    buf = std::move(got);
    return n;
}

template <class Move>
ssize_t
M3fsFile::writeLoop(size_t len, Move &&move)
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
    if (!(flags & FILE_W))
        return -static_cast<ssize_t>(Error::NoPerm);
    env.compute(env.cm.m3.fileOpPath);

    size_t total = 0;
    while (total < len) {
        env.compute(env.cm.m3.fileLocate);
        Loc *loc = nullptr;
        Error err = Error::None;
        if (pos < coveredBytes) {
            loc = locate(pos, err);
        } else if (nextExtIdx < serverExtents) {
            err = fetchNext();
            if (err == Error::None)
                loc = locate(pos, err);
        } else {
            err = append();
            if (err == Error::None)
                loc = locate(pos, err);
        }
        if (!loc)
            return total ? static_cast<ssize_t>(total)
                         : -static_cast<ssize_t>(err);
        uint64_t inLoc = pos - loc->fileOff;
        size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(len - total, loc->len - inLoc));
        err = move(*loc->gate, inLoc, total, chunk);
        if (err != Error::None)
            return -static_cast<ssize_t>(err);
        pos += chunk;
        total += chunk;
        if (pos > size)
            size = pos;
    }
    return static_cast<ssize_t>(total);
}

ssize_t
M3fsFile::write(const void *buf, size_t len)
{
    const uint8_t *in = static_cast<const uint8_t *>(buf);
    return writeLoop(len, [in](MemGate &gate, uint64_t inLoc, size_t total,
                               size_t chunk) {
        return gate.write(in + total, chunk, inLoc);
    });
}

ssize_t
M3fsFile::write(const Bytes &buf)
{
    return writeLoop(buf.size(), [&buf](MemGate &gate, uint64_t inLoc,
                                        size_t total, size_t chunk) {
        return gate.write(buf.sub(total, chunk), inLoc);
    });
}

ssize_t
M3fsFile::seek(ssize_t off, SeekMode whence)
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
    // Most seeks stay within the already obtained extents and are pure
    // client-side arithmetic (Sec. 4.5.8).
    env.compute(env.cm.m3.fileLocate);
    int64_t target = 0;
    switch (whence) {
      case SeekMode::Set:
        target = off;
        break;
      case SeekMode::Cur:
        target = static_cast<int64_t>(pos) + off;
        break;
      case SeekMode::End:
        target = static_cast<int64_t>(size) + off;
        break;
    }
    if (target < 0)
        return -static_cast<ssize_t>(Error::InvalidArgs);
    pos = static_cast<uint64_t>(target);
    return static_cast<ssize_t>(pos);
}

Error
M3fsFile::rawLocate(uint64_t at, size_t len, bool forWrite, MemGate *&gate,
                    uint64_t &gateOff, size_t &chunk)
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
    // No per-call compute charge: the caller (distfs) charges one
    // fileLocate per gather round — the per-segment work is a lookup in
    // the already obtained locations; only metadata fetches below cost.
    Loc *loc = nullptr;
    Error err = Error::None;
    if (!forWrite) {
        if (at >= size)
            return Error::EndOfFile;
        loc = locate(at, err);
    } else {
        if (at < coveredBytes) {
            loc = locate(at, err);
        } else if (nextExtIdx < serverExtents) {
            err = fetchNext();
            if (err == Error::None)
                loc = locate(at, err);
        } else {
            err = append();
            if (err == Error::None)
                loc = locate(at, err);
        }
    }
    if (!loc)
        return err == Error::None ? Error::EndOfFile : err;
    uint64_t inLoc = at - loc->fileOff;
    uint64_t lim = loc->len - inLoc;
    if (!forWrite)
        lim = std::min(lim, size - at);
    gate = loc->gate.get();
    gateOff = inLoc;
    chunk = static_cast<size_t>(std::min<uint64_t>(len, lim));
    return Error::None;
}

Error
M3fsFile::stat(FileInfo &info)
{
    info = FileInfo{};
    info.mode = M_FILE;
    info.size = size;
    info.extents = serverExtents;
    return Error::None;
}

} // namespace m3fs
} // namespace m3
