#include "m3fs/distfs.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "dtu/dtu.hh"
#include "m3fs/fs_defs.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace m3
{
namespace m3fs
{

namespace
{

/**
 * Reply deadline of a fan-out wave on a replicated mount: a stripe that
 * stays silent this long is marked dead. Generous — several hundred
 * server round trips — so the only way to miss it is to never answer.
 * Unreplicated mounts keep the untimed wait (and their exact cycle
 * counts).
 */
constexpr Cycles DEGRADED_WAIT = 150000;

/** djb2: the placement hash. Must stay stable across runs and hosts. */
uint64_t
pathHash(const std::string &s)
{
    uint64_t h = 5381;
    for (char c : s)
        h = h * 33 + static_cast<uint8_t>(c);
    return h;
}

std::string
joinPath(const std::string &dir, const std::string &name)
{
    return dir.back() == '/' ? dir + name : dir + "/" + name;
}

/** Rebuild: stream one subfile from a donor session to the spare. */
Error
copyFile(M3fsSession &src, const std::string &srcPath, M3fsSession &dst,
         const std::string &dstPath)
{
    Error err = Error::None;
    auto in = src.open(srcPath, FILE_R, err);
    if (!in)
        return err;
    auto out = dst.open(dstPath, FILE_W | FILE_CREATE, err);
    if (!out)
        return err;
    std::vector<uint8_t> buf(16384);
    for (;;) {
        ssize_t r = in->read(buf.data(), buf.size());
        if (r < 0)
            return static_cast<Error>(-r);
        if (r == 0)
            return Error::None;
        ssize_t w = out->write(buf.data(), static_cast<size_t>(r));
        if (w != r)
            return w < 0 ? static_cast<Error>(-w) : Error::NoSpace;
    }
}

} // namespace

// ---------------------------------------------------------------------
// DistfsSession.
// ---------------------------------------------------------------------

std::shared_ptr<DistfsSession>
DistfsSession::create(Env &env, Error &err, const std::string &groupName,
                      uint32_t unitBlocks)
{
    // The group is registered once all member services announced
    // themselves; like the plain client, retry while the name is
    // unknown (boot races).
    uint64_t n = 0;
    uint64_t reps = 1;
    for (int attempt = 0;; ++attempt) {
        err = env.querySrv(groupName, n, reps);
        if (err != Error::NoSuchService || attempt >= 1000)
            break;
        Fiber::current()->sleep(500);
    }
    if (err != Error::None)
        return nullptr;
    if (n == 0) {
        err = Error::InvalidArgs;
        return nullptr;
    }

    auto sess = std::shared_ptr<DistfsSession>(new DistfsSession(
        env, static_cast<uint64_t>(unitBlocks) * DEFAULT_BLOCK_SIZE));
    sess->sharedReply = std::make_unique<RecvGate>(env, 4, FS_MSG_SIZE);
    sess->replicas = static_cast<uint32_t>(
        std::min<uint64_t>(std::max<uint64_t>(reps, 1), n));
    sess->deadStripes.assign(static_cast<size_t>(n), false);
    for (uint64_t k = 0; k < n; ++k) {
        // OpenSess arg k makes the kernel route the session to group
        // member k; softFail turns a dead stripe into an error from
        // the operation instead of a client panic.
        auto s = M3fsSession::create(env, err, groupName, k,
                                     sess->sharedReply.get());
        if (!s)
            return nullptr;
        s->softFail = true;
        sess->sessions.push_back(std::move(s));
    }
    return sess;
}

Error
DistfsSession::mount(Env &env, const std::string &prefix,
                     const std::string &groupName, uint32_t unitBlocks)
{
    Error err = Error::None;
    auto sess = create(env, err, groupName, unitBlocks);
    if (err != Error::None)
        return err;
    return env.vfs().mount(prefix, sess);
}

uint32_t
DistfsSession::homeStripe(const std::string &path) const
{
    return static_cast<uint32_t>(pathHash(path) % sessions.size());
}

std::string
DistfsSession::replicaPath(const std::string &path, uint32_t s)
{
    return path + '\x01' + std::to_string(s);
}

void
DistfsSession::markDead(uint32_t k)
{
    if (k >= stripes() || deadStripes[k])
        return;
    deadStripes[k] = true;
    logtrace("distfs: stripe %u marked dead", k);
    if (M3_TRACE_ON)
        trace::Tracer::instant(env.peId, "distfs:stripe_dead");
    if (M3_METRICS_ON) {
        trace::Metrics::counter("distfs.stripe_deaths").inc();
        uint64_t d = 0;
        for (uint32_t i = 0; i < stripes(); ++i)
            d += deadStripes[i] ? 1 : 0;
        trace::Metrics::gauge("distfs.stripes_dead").set(d);
    }
}

Error
DistfsSession::fanout(
    const std::function<void(uint32_t, Marshaller &)> &build,
    const std::function<Error(uint32_t, GateIStream &)> &consume,
    const std::function<bool(uint32_t)> &want)
{
    ScopedCategory os(env.acct(), Category::Os);
    // The client-side call work (path handling, building the request)
    // happens once — the stripes receive copies of the same message.
    env.compute(env.cm.m3.fsClientCall);
    const uint32_t n = stripes();
    // Only live stripes take part. On a replicated mount the reply
    // wait is timed: the only stripe that can stay silent past the
    // (generous) deadline is one whose server will never answer, so a
    // timeout marks the silent stripes dead and lets the caller
    // degrade instead of hanging the client.
    const bool timed = replicas > 1;
    std::vector<uint32_t> targets;
    targets.reserve(n);
    for (uint32_t k = 0; k < n; ++k)
        if (!deadStripes[k] && (!want || want(k)))
            targets.push_back(k);
    Error first = Error::None;
    size_t sent = 0;
    while (sent < targets.size()) {
        // Every outstanding reply needs a free ring slot.
        uint32_t batch =
            std::min<uint32_t>(static_cast<uint32_t>(targets.size() -
                                                     sent),
                               sharedReply->slotCount());
        std::vector<bool> pending(n, false);
        uint32_t outstanding = 0;
        for (uint32_t i = 0; i < batch; ++i) {
            uint32_t k = targets[sent + i];
            Marshaller m = sessions[k]->opStream();
            build(k, m);
            Error se = sessions[k]->sendOp(m, k);
            if (se == Error::None) {
                pending[k] = true;
                ++outstanding;
            } else if (timed && (se == Error::PeerGone ||
                                 se == Error::Timeout ||
                                 se == Error::NoCredits ||
                                 se == Error::RingFull ||
                                 se == Error::InvalidEp)) {
                // A channel that cannot even accept the request is a
                // dead stripe's: its unanswered predecessor never
                // refunded the credit / ring slot. Degrade.
                markDead(k);
            } else if (first == Error::None) {
                first = se;
            }
        }
        // Replies arrive in any order; the label names the stripe.
        while (outstanding) {
            Cycles t0 = env.platform.simulator().curCycle();
            Error we = timed ? env.waitMsg(sharedReply->boundEp(),
                                           DEGRADED_WAIT)
                             : env.waitMsgYielding(sharedReply->boundEp());
            env.acct().charge(env.platform.simulator().curCycle() - t0);
            if (we == Error::Timeout) {
                // Nothing more will arrive: the silent stripes are
                // dead. Mark them; the caller degrades to replicas.
                for (uint32_t k = 0; k < n; ++k)
                    if (pending[k])
                        markDead(k);
                break;
            }
            env.compute(env.cm.m3.fetchMsg + env.cm.m3.unmarshal);
            GateIStream is = sharedReply->tryReceive();
            uint32_t k = static_cast<uint32_t>(is.label());
            if (k >= n || !pending[k])
                continue;  // stale reply of a stripe given up on earlier
            pending[k] = false;
            --outstanding;
            Error ce = consume(k, is);
            if (ce != Error::None && first == Error::None)
                first = ce;
        }
        sent += batch;
    }
    return first;
}

std::unique_ptr<File>
DistfsSession::open(const std::string &path, uint32_t flags, Error &err)
{
    trace::ScopedSpan span(env.peId, "distfs:open");
    // The subfile carries the same path on every stripe; writes and
    // creates touch all of them so the namespaces stay mirrors.
    const uint32_t subFlags = flags & ~FILE_APPEND;
    const uint32_t n = stripes();
    std::vector<std::unique_ptr<M3fsFile>> subs(n);
    std::vector<std::unique_ptr<M3fsFile>> reps(
        static_cast<size_t>(n) * (replicas - 1));
    // A missing replica file is tolerated on plain opens: files
    // written before replication was enabled simply have no second
    // copy (their units stay unprotected).
    const bool optionalReplica = !(subFlags & FILE_CREATE);
    // Wave 0 opens the primary subfile on every stripe. Replica wave r
    // opens, on stripe k, the replica of the units whose primary is
    // stripe (k - r) mod n — one request per stripe per wave keeps a
    // single message in flight per session channel.
    for (uint32_t r = 0; r < replicas; ++r) {
        err = fanout(
            [&](uint32_t k, Marshaller &m) {
                m << FsOp::Open << static_cast<uint64_t>(subFlags)
                  << (r ? replicaPath(path, (k + n - r) % n) : path);
            },
            [&](uint32_t k, GateIStream &is) {
                Error e = Error::None;
                auto f = sessions[k]->decodeOpen(is, subFlags, e);
                if (r == 0)
                    subs[k] = std::move(f);
                else
                    reps[static_cast<size_t>((k + n - r) % n) *
                             (replicas - 1) +
                         (r - 1)] = std::move(f);
                return r && optionalReplica && e == Error::NoSuchFile
                           ? Error::None
                           : e;
            });
        if (err != Error::None)
            return nullptr;
    }
    // Every unit needs at least one live copy, or the data is gone.
    for (uint32_t s = 0; s < n; ++s) {
        bool have = !deadStripes[s] && subs[s];
        for (uint32_t c = 1; !have && c < replicas; ++c)
            have = reps[static_cast<size_t>(s) * (replicas - 1) +
                        (c - 1)] &&
                   !deadStripes[(s + c) % n];
        if (!have) {
            err = Error::PeerGone;
            return nullptr;
        }
    }
    auto file = std::make_unique<DistfsFile>(
        shared_from_this(), path, std::move(subs), std::move(reps),
        homeStripe(path), flags);
    if (flags & FILE_APPEND)
        file->seek(0, SeekMode::End);
    err = Error::None;
    return file;
}

Error
DistfsSession::addDeadCopySizes(const std::string &path, uint64_t &total,
                                uint64_t &extents)
{
    const uint32_t n = stripes();
    for (uint32_t s = 0; s < n; ++s) {
        if (!deadStripes[s])
            continue;
        for (uint32_t c = 1; c < replicas; ++c) {
            uint32_t host = (s + c) % n;
            if (deadStripes[host])
                continue;
            FileInfo sub;
            Error e = sessions[host]->stat(replicaPath(path, s), sub);
            if (e == Error::None) {
                total += sub.size;
                extents += sub.extents;
            } else if (e != Error::NoSuchFile) {
                // No replica file: the subfile predates replication,
                // nothing to add. Anything else is a real error.
                return e;
            }
            break;  // the first live replica host is authoritative
        }
    }
    return Error::None;
}

Error
DistfsSession::stat(const std::string &path, FileInfo &info)
{
    // Identity (inode, mode, links) comes from the home stripe — or,
    // degraded, the nearest live stripe; the logical size is the sum
    // over the stripes' subfiles, with dead stripes' shares read from
    // their replica files.
    const uint32_t n = stripes();
    const uint32_t home = homeStripe(path);
    FileInfo id{};
    uint32_t idK = n;
    uint64_t total = 0;
    uint64_t extents = 0;
    Error err = fanout(
        [&](uint32_t, Marshaller &m) { m << FsOp::Stat << path; },
        [&](uint32_t k, GateIStream &is) {
            FileInfo fi;
            Error e = sessions[k]->decodeStat(is, fi);
            if (e != Error::None)
                return e;
            if (k == home || (idK != home && k < idK)) {
                id = fi;
                idK = k;
            }
            total += fi.size;
            extents += fi.extents;
            return Error::None;
        });
    if (err != Error::None)
        return err;
    if (idK == n)
        return Error::PeerGone;
    info = id;
    if (info.isDir())
        return Error::None;
    err = addDeadCopySizes(path, total, extents);
    if (err != Error::None)
        return err;
    info.size = total;
    info.extents = static_cast<uint32_t>(extents);
    return Error::None;
}

Error
DistfsSession::nsWave(FsOp op, const std::vector<std::string> &paths,
                      bool replicaNames)
{
    const uint32_t n = stripes();
    Error first = Error::None;
    for (uint32_t r = 0; r < (replicaNames ? replicas : 1); ++r) {
        Error e = fanout(
            [&](uint32_t k, Marshaller &m) {
                m << op;
                for (const std::string &p : paths)
                    m << (r ? replicaPath(p, (k + n - r) % n) : p);
            },
            [&](uint32_t, GateIStream &is) {
                // Files that predate replication have no replica names.
                Error e = is.pullError();
                return r && e == Error::NoSuchFile ? Error::None : e;
            });
        if (e != Error::None && first == Error::None)
            first = e;
    }
    return first;
}

Error
DistfsSession::mkdir(const std::string &path)
{
    // Directories mirror on every stripe (replica files live in the
    // same directories), so no replica-name wave is needed.
    return nsWave(FsOp::Mkdir, {path}, false);
}

Error
DistfsSession::unlink(const std::string &path)
{
    return nsWave(FsOp::Unlink, {path}, true);
}

Error
DistfsSession::link(const std::string &oldPath, const std::string &newPath)
{
    return nsWave(FsOp::Link, {oldPath, newPath}, true);
}

Error
DistfsSession::rename(const std::string &oldPath,
                      const std::string &newPath)
{
    return nsWave(FsOp::Rename, {oldPath, newPath}, true);
}

Error
DistfsSession::readdir(const std::string &path,
                       std::vector<m3::DirEntry> &entries)
{
    // The namespaces mirror each other; ask the home stripe — or, on a
    // degraded mount, the nearest live one. Replica-marked entries are
    // distfs-internal and stay hidden from the logical namespace.
    const uint32_t n = stripes();
    const uint32_t home = homeStripe(path);
    Error err = Error::PeerGone;
    for (uint32_t i = 0; i < n; ++i) {
        uint32_t k = (home + i) % n;
        if (deadStripes[k])
            continue;
        err = sessions[k]->readdir(path, entries);
        if (replicas > 1 &&
            (err == Error::PeerGone || err == Error::Timeout)) {
            markDead(k);
            continue;
        }
        break;
    }
    if (err != Error::None)
        return err;
    if (replicas > 1)
        entries.erase(
            std::remove_if(entries.begin(), entries.end(),
                           [](const m3::DirEntry &de) {
                               return de.name.find('\x01') !=
                                      std::string::npos;
                           }),
            entries.end());
    return Error::None;
}

Error
DistfsSession::rebuild(uint32_t stripe, const std::string &srvName)
{
    const uint32_t n = stripes();
    if (stripe >= n || replicas < 2 || !deadStripes[stripe])
        return Error::InvalidArgs;
    trace::ScopedSpan span(env.peId, "distfs:rebuild");
    // A fresh plain session with the replacement server; it joins the
    // shared reply gate so fan-outs can address it once adopted.
    Error err = Error::None;
    auto fresh =
        M3fsSession::create(env, err, srvName, 0, sharedReply.get());
    if (!fresh)
        return err;
    fresh->softFail = true;

    // Walk the namespace of a live donor (the per-stripe namespaces
    // mirror each other): mirror the directories, re-materialize the
    // dead stripe's primary subfiles from their replicas, and the
    // replica files it hosts from the primaries they mirror.
    uint32_t donor = n;
    for (uint32_t i = 1; i < n && donor == n; ++i)
        if (!deadStripes[(stripe + i) % n])
            donor = (stripe + i) % n;
    if (donor == n)
        return Error::PeerGone;

    uint64_t files = 0;
    std::vector<std::string> dirs = {"/"};
    for (size_t di = 0; di < dirs.size(); ++di) {
        std::vector<m3::DirEntry> ents;
        err = sessions[donor]->readdir(dirs[di], ents);
        if (err != Error::None)
            return err;
        for (const m3::DirEntry &de : ents) {
            const std::string full = joinPath(dirs[di], de.name);
            FileInfo fi;
            err = sessions[donor]->stat(full, fi);
            if (err != Error::None)
                return err;
            if (fi.isDir()) {
                Error me = fresh->mkdir(full);
                if (me != Error::None && me != Error::FileExists)
                    return me;
                dirs.push_back(full);
                continue;
            }
            if (de.name.find('\x01') != std::string::npos) {
                // A replica file the donor hosts. Marked names are
                // per-stripe local (each stripe stores only the
                // replicas it hosts), so nothing here belongs on the
                // rebuilt instance; its own hosted replicas are
                // re-derived from the primaries below.
                continue;
            }
            // The rebuilt instance hosts the primary subfile of
            // @p stripe; its bytes live in the replica file on a
            // surviving neighbour. Files that predate replication have
            // no copy to restore from.
            for (uint32_t c = 1; c < replicas; ++c) {
                uint32_t host = (stripe + c) % n;
                if (deadStripes[host])
                    continue;
                Error ce = copyFile(*sessions[host],
                                    replicaPath(full, stripe), *fresh,
                                    full);
                if (ce != Error::None && ce != Error::NoSuchFile)
                    return ce;
                if (ce == Error::None)
                    ++files;
                break;
            }
            // It also hosts replica files: copy c of stripe
            // s = (stripe - c) mod n lands on @p stripe, and its bytes
            // are s's own primary subfile.
            for (uint32_t c = 1; c < replicas; ++c) {
                uint32_t s = (stripe + n - c) % n;
                if (s == stripe || deadStripes[s])
                    continue;
                Error ce = copyFile(*sessions[s], full, *fresh,
                                    replicaPath(full, s));
                if (ce != Error::None && ce != Error::NoSuchFile)
                    return ce;
                if (ce == Error::None)
                    ++files;
            }
        }
    }

    // Adopt: the rebuilt instance becomes stripe @p stripe. Files
    // already open keep their old (dead) handles; files opened from
    // now on use the rebuilt stripe.
    sessions[stripe] = std::move(fresh);
    deadStripes[stripe] = false;
    logtrace("distfs: stripe %u rebuilt onto %s (%llu subfiles)", stripe,
             srvName.c_str(), static_cast<unsigned long long>(files));
    if (M3_TRACE_ON)
        trace::Tracer::instant(env.peId, "distfs:rebuild_done");
    if (M3_METRICS_ON) {
        trace::Metrics::counter("distfs.rebuilds").inc();
        trace::Metrics::counter("distfs.rebuilt_files").add(files);
        uint64_t d = 0;
        for (uint32_t i = 0; i < n; ++i)
            d += deadStripes[i] ? 1 : 0;
        trace::Metrics::gauge("distfs.stripes_dead").set(d);
    }
    return Error::None;
}

// ---------------------------------------------------------------------
// DistfsFile.
// ---------------------------------------------------------------------

DistfsFile::DistfsFile(std::shared_ptr<DistfsSession> fs,
                       std::string path,
                       std::vector<std::unique_ptr<M3fsFile>> subs,
                       std::vector<std::unique_ptr<M3fsFile>> reps,
                       uint32_t rot, uint32_t flags)
    : fs(std::move(fs)), path(std::move(path)), subs(std::move(subs)),
      reps(std::move(reps)), rot(rot), flags(flags), size(0)
{
    // Sequential striping leaves no holes, so the logical size is the
    // sum of the per-stripe subfile sizes — each from its first live
    // copy (primary and replicas mirror byte for byte).
    for (uint32_t s = 0; s < this->subs.size(); ++s)
        if (M3fsFile *f = liveCopy(s))
            size += f->fileSize();
}

M3fsFile *
DistfsFile::copy(uint32_t s, uint32_t c) const
{
    const uint32_t n = static_cast<uint32_t>(subs.size());
    if (fs->deadStripes[(s + c) % n])
        return nullptr;
    if (c == 0)
        return subs[s].get();
    return reps[static_cast<size_t>(s) * (fs->replicas - 1) + (c - 1)]
        .get();
}

M3fsFile *
DistfsFile::liveCopy(uint32_t s) const
{
    for (uint32_t c = 0; c < fs->replicas; ++c)
        if (M3fsFile *f = copy(s, c))
            return f;
    return nullptr;
}

DistfsFile::~DistfsFile()
{
    const uint32_t n = static_cast<uint32_t>(subs.size());
    const uint32_t copies = fs->replicas;
    // Handles whose server died cannot be closed: drop them without
    // the Close round trip (their destructors would wait forever).
    for (uint32_t s = 0; s < n; ++s) {
        if (subs[s] && fs->deadStripes[s])
            subs[s]->abandon();
        for (uint32_t c = 1; c < copies; ++c) {
            auto &rep =
                reps[static_cast<size_t>(s) * (copies - 1) + (c - 1)];
            if (rep && fs->deadStripes[(s + c) % n])
                rep->abandon();
        }
    }
    // Close all subfiles in one fan-out wave per copy (copy r of the
    // units whose primary is stripe (k - r) mod n lives on stripe k); a
    // subfile closed here is skipped by its own destructor.
    trace::ScopedSpan span(fs->env.peId, "distfs:close");
    for (uint32_t r = 0; r < copies; ++r) {
        auto hosted = [&](uint32_t k) -> std::unique_ptr<M3fsFile> & {
            return r == 0 ? subs[k]
                          : reps[static_cast<size_t>((k + n - r) % n) *
                                     (copies - 1) +
                                 (r - 1)];
        };
        fs->fanout(
            [&](uint32_t k, Marshaller &m) { hosted(k)->buildClose(m); },
            [](uint32_t, GateIStream &) { return Error::None; },
            [&](uint32_t k) { return hosted(k) != nullptr; });
    }
}

ssize_t
DistfsFile::io(void *buf, size_t len, bool isWrite)
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
    env.compute(env.cm.m3.fileOpPath);

    const uint64_t unitBytes = fs->unitBytes;
    const uint32_t nStripes = fs->stripes();
    const uint32_t copies = fs->replicas;
    uint8_t *bytes = static_cast<uint8_t *>(buf);
    size_t total = 0;
    while (total < len && (isWrite || pos + total < size)) {
        // Gather a batch: walk the placement map unit by unit and
        // collect one segment per unit run (per live copy when
        // mirroring writes). The parallel engine overlaps segments on
        // distinct stripes and chains segments that hit the same
        // stripe's DRAM module on one transfer slot, so gathering the
        // whole request at once is safe.
        std::vector<XferSeg> segs;
        std::vector<M3fsFile *> segFile;
        std::vector<uint64_t> segEnd;
        env.compute(env.cm.m3.fileLocate);
        uint64_t roundPos = pos + total;
        Error err = Error::None;
        while (pos + len > roundPos && (isWrite || roundPos < size)) {
            uint64_t u = roundPos / unitBytes;
            uint64_t inUnit = roundPos % unitBytes;
            uint32_t s = static_cast<uint32_t>((rot + u) % nStripes);
            uint64_t subOff = (u / nStripes) * unitBytes + inUnit;
            uint64_t want = std::min<uint64_t>(pos + len - roundPos,
                                               unitBytes - inUnit);
            if (!isWrite)
                want = std::min(want, size - roundPos);
            // The first live copy drives the run: its extent layout
            // bounds the chunk. PeerGone (or a timeout) from a copy's
            // metadata fetch means its server died — mark the stripe
            // dead and move to the next copy of the same unit.
            MemGate *gate = nullptr;
            uint64_t gateOff = 0;
            size_t chunk = 0;
            M3fsFile *drv = nullptr;
            uint32_t drvC = 0;
            err = Error::PeerGone;
            for (uint32_t c = 0; c < copies; ++c) {
                M3fsFile *f = copy(s, c);
                if (!f)
                    continue;
                err = f->rawLocate(subOff, static_cast<size_t>(want),
                                   isWrite, gate, gateOff, chunk);
                if (copies > 1 && (err == Error::PeerGone ||
                                   err == Error::Timeout)) {
                    fs->markDead((s + c) % nStripes);
                    continue;
                }
                drv = f;
                drvC = c;
                break;
            }
            if (err != Error::None || chunk == 0 || !drv)
                break;
            if (!isWrite && drvC > 0) {
                // The run is served by a replica: a degraded read.
                if (M3_METRICS_ON)
                    trace::Metrics::counter("distfs.degraded_reads")
                        .inc();
                if (M3_TRACE_ON)
                    trace::Tracer::instant(env.peId,
                                           "distfs:degraded_read");
            }
            const size_t baseSeg = segs.size();
            segs.push_back(XferSeg{gate, bytes + (roundPos - pos), chunk,
                                   gateOff});
            segFile.push_back(drv);
            segEnd.push_back(subOff + chunk);
            if (isWrite && copies > 1) {
                // Mirror the run onto every other live copy; a copy's
                // own extent layout may split it into several segments.
                for (uint32_t c = 0; c < copies && err == Error::None;
                     ++c) {
                    if (c == drvC)
                        continue;
                    M3fsFile *f = copy(s, c);
                    if (!f)
                        continue;
                    uint64_t done = 0;
                    while (done < chunk) {
                        MemGate *g2 = nullptr;
                        uint64_t o2 = 0;
                        size_t c2 = 0;
                        Error me =
                            f->rawLocate(subOff + done, chunk - done,
                                         true, g2, o2, c2);
                        if (me == Error::PeerGone ||
                            me == Error::Timeout) {
                            fs->markDead((s + c) % nStripes);
                            break;
                        }
                        if (me != Error::None || c2 == 0) {
                            err = me != Error::None ? me
                                                    : Error::NoSpace;
                            break;
                        }
                        segs.push_back(XferSeg{
                            g2, bytes + (roundPos - pos) + done, c2,
                            o2});
                        segFile.push_back(f);
                        segEnd.push_back(subOff + done + c2);
                        done += c2;
                    }
                }
                if (err != Error::None) {
                    // Drop this unit's segments so the retry after the
                    // already-gathered transfer hits the same error
                    // with an empty batch and surfaces it.
                    segs.resize(baseSeg);
                    segFile.resize(baseSeg);
                    segEnd.resize(baseSeg);
                    break;
                }
            }
            roundPos += chunk;
        }
        if (segs.empty()) {
            if (err == Error::None || err == Error::EndOfFile)
                break;
            return total ? static_cast<ssize_t>(total)
                         : -static_cast<ssize_t>(err);
        }

        uint32_t nseg = static_cast<uint32_t>(segs.size());
        Error xe = isWrite ? parallelWrite(env, segs.data(), nseg)
                           : parallelRead(env, segs.data(), nseg);
        if (xe != Error::None)
            return total ? static_cast<ssize_t>(total)
                         : -static_cast<ssize_t>(xe);
        if (isWrite) {
            for (uint32_t i = 0; i < nseg; ++i)
                segFile[i]->noteRawWrite(segEnd[i]);
        }
        total = static_cast<size_t>(roundPos - pos);
        if (isWrite && roundPos > size)
            size = roundPos;
    }
    pos += total;
    return static_cast<ssize_t>(total);
}

ssize_t
DistfsFile::read(void *buf, size_t len)
{
    if (!(flags & FILE_R))
        return -static_cast<ssize_t>(Error::NoPerm);
    trace::ScopedSpan span(fs->env.peId, "distfs:read");
    return io(buf, len, false);
}

ssize_t
DistfsFile::write(const void *buf, size_t len)
{
    if (!(flags & FILE_W))
        return -static_cast<ssize_t>(Error::NoPerm);
    trace::ScopedSpan span(fs->env.peId, "distfs:write");
    return io(const_cast<void *>(buf), len, true);
}

ssize_t
DistfsFile::seek(ssize_t off, SeekMode whence)
{
    Env &env = fs->env;
    ScopedCategory os(env.acct(), Category::Os);
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
DistfsFile::stat(FileInfo &info)
{
    // Identity (inode, mode, links) from the namespace, like the
    // session's stat; the logical size from the client-side tracking
    // (the servers' sizes lag until Close truncates the generous
    // append allocations).
    Error err = fs->stat(path, info);
    if (err != Error::None)
        return err;
    if (!info.isDir())
        info.size = size;
    return Error::None;
}

} // namespace m3fs
} // namespace m3
