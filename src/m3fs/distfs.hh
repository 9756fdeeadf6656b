/**
 * @file
 * distfs: a thin striping session layer over N independent m3fs server
 * instances. Each stripe is a plain m3fs server backed by its own DRAM
 * module; distfs places fixed-size units of each file round-robin
 * across the stripe set and issues the data movement for different
 * stripes in parallel (one DTU transfer slot per stripe run).
 *
 * Metadata stays entirely per-stripe: a file at logical path P is
 * backed by a subfile at the same path P on every stripe server, and
 * the placement of unit u is a pure function of (P, u) — no cross-
 * stripe coordination on the hot path. Open, stat, close and the
 * namespace operations (mkdir, unlink, ...) are one label-matched
 * fan-out to all stripes, so the per-stripe namespaces stay mirrors of
 * each other and the stripes' round trips overlap.
 *
 * Replication (opt-in, advertised by the kernel through the service
 * group): with factor R >= 2, the units whose primary lives on stripe
 * s are additionally mirrored onto stripes (s+r) % N for r < R, as a
 * byte-identical copy of stripe s's subfile stored under the replica-
 * marked name replicaPath(P, s) on the neighbour. Writes fan each
 * gathered run out to every live copy on the same parallel transfer
 * slots; reads go primary-first and fall back to the next copy when
 * the primary's server is dead, so a single stripe kill degrades the
 * mount instead of surfacing PeerGone. rebuild() re-mirrors a dead
 * stripe's subfiles onto a replacement server from the surviving
 * copies.
 */

#ifndef M3_M3FS_DISTFS_HH
#define M3_M3FS_DISTFS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "m3fs/client.hh"

namespace m3
{
namespace m3fs
{

/** Default striping unit in blocks (8 KiB with 1 KiB blocks). */
static constexpr uint32_t DEFAULT_UNIT_BLOCKS = 8;

class DistfsFile;

/** A striped mount: one m3fs session per stripe, shared reply gate. */
class DistfsSession : public FileSystem,
                      public std::enable_shared_from_this<DistfsSession>
{
  public:
    /**
     * Resolve the stripe count and replication factor of service group
     * @p groupName via the kernel (QuerySrv) and open one m3fs session
     * per stripe. All stripe sessions share one reply gate to stay
     * within the PE's endpoint budget, leaving the remaining endpoints
     * free for the per-stripe memory gates of in-flight transfers.
     */
    static std::shared_ptr<DistfsSession>
    create(Env &env, Error &err, const std::string &groupName = "distfs",
           uint32_t unitBlocks = DEFAULT_UNIT_BLOCKS);

    /** Convenience: create a striped session and mount it. */
    static Error mount(Env &env, const std::string &prefix,
                       const std::string &groupName = "distfs",
                       uint32_t unitBlocks = DEFAULT_UNIT_BLOCKS);

    uint32_t stripes() const
    {
        return static_cast<uint32_t>(sessions.size());
    }

    /** The mirroring factor R advertised by the kernel (1 = off). */
    uint32_t replicaFactor() const { return replicas; }

    /**
     * The placement rotation of @p path: unit u of the file lives on
     * stripe (homeStripe + u) % stripes() at sub-file offset
     * (u / stripes()) * unitBytes + (offset % unitBytes). A pure
     * function of the path so every client computes the same layout.
     * Copy r of the unit is mirrored onto stripe (homeStripe + u + r)
     * % stripes() at the same sub-file offset, under the replica-
     * marked name of the unit's primary stripe.
     */
    uint32_t homeStripe(const std::string &path) const;

    /**
     * The per-stripe name of the replica of stripe @p s's subfile of
     * @p path: the path with a 0x01 marker byte (never part of a user
     * name) and the primary stripe's index appended to the final
     * component. Lives on stripes (s+r) % N, r = 1..R-1. The suffix
     * rides the component-name budget, so replicated mounts need leaf
     * names a few bytes under MAX_NAME_LEN.
     */
    static std::string replicaPath(const std::string &path, uint32_t s);

    /** Whether stripe @p k has been found dead (degraded mount). */
    bool stripeDead(uint32_t k) const { return deadStripes[k]; }

    /**
     * Record stripe @p k's server as dead: fan-outs skip it and reads
     * of its units degrade to their replicas. Called internally when a
     * kernel-mediated exchange answers PeerGone or a fan-out reply
     * deadline passes; public so fault-free tests can force a degraded
     * mount deterministically.
     */
    void markDead(uint32_t k);

    /**
     * Re-mirror dead stripe @p stripe onto the (empty) replacement
     * m3fs instance @p srvName: walk the namespace from a live donor,
     * mirror the directories, copy the stripe's primary subfiles back
     * from their replicas and the replica files it hosts back from
     * their primaries, then swap the replacement in as stripe
     * @p stripe and clear its dead mark. Requires R >= 2 and no files
     * of this mount open during the rebuild; files opened afterwards
     * use the rebuilt stripe.
     */
    Error rebuild(uint32_t stripe, const std::string &srvName);

    M3fsSession &stripe(uint32_t k) { return *sessions[k]; }

    std::unique_ptr<File> open(const std::string &path, uint32_t flags,
                               Error &err) override;
    Error stat(const std::string &path, FileInfo &info) override;
    Error mkdir(const std::string &path) override;
    Error unlink(const std::string &path) override;
    Error link(const std::string &oldPath,
               const std::string &newPath) override;
    Error rename(const std::string &oldPath,
                 const std::string &newPath) override;
    Error readdir(const std::string &path,
                  std::vector<m3::DirEntry> &entries) override;

  private:
    friend class DistfsFile;

    DistfsSession(Env &env, uint64_t unitBytes)
        : env(env), unitBytes(unitBytes)
    {
    }

    /**
     * The metadata fan-out, the one path of open, stat, close and the
     * namespace operations: send one request per live stripe (built by
     * @p build, reply label = stripe index) and hand each reply to
     * @p consume as it arrives, in waves no larger than the shared
     * reply ring. The stripes' server round trips overlap instead of
     * queueing behind each other. The stripe sessions' callTimeout
     * does not apply. On an unreplicated mount the reply wait is
     * untimed; on a replicated one it is timed (a fixed, generous
     * deadline), and stripes silent past it are marked dead (their
     * replies never invoke @p consume) instead of hanging the client.
     * @p want can exclude stripes from the wave (e.g. no open subfile
     * to close there). Returns the first error from a send or from
     * @p consume; later replies are still drained so no stale message
     * survives into the next operation.
     */
    Error fanout(const std::function<void(uint32_t, Marshaller &)> &build,
                 const std::function<Error(uint32_t, GateIStream &)>
                     &consume,
                 const std::function<bool(uint32_t)> &want = nullptr);

    /**
     * One namespace operation @p op on @p paths, on every live stripe:
     * one fan-out for the names themselves and, with @p replicaNames
     * on a replicated mount, one more per replica copy r, in which
     * stripe k addresses the replica-marked names of stripe
     * (k - r) mod N. A replica wave takes NoSuchFile as success: files
     * that predate replication have no replica names. Returns the
     * first error of any wave.
     */
    Error nsWave(FsOp op, const std::vector<std::string> &paths,
                 bool replicaNames);

    /**
     * Degraded stat support: add the subfile sizes of dead stripes,
     * read from their replica files on the surviving neighbours.
     */
    Error addDeadCopySizes(const std::string &path, uint64_t &total,
                           uint64_t &extents);

    Env &env;
    uint64_t unitBytes;
    uint32_t replicas = 1;
    std::unique_ptr<RecvGate> sharedReply;
    std::vector<std::shared_ptr<M3fsSession>> sessions;
    std::vector<bool> deadStripes;
};

/** An open striped file: one m3fs subfile per stripe and copy. */
class DistfsFile : public File
{
  public:
    DistfsFile(std::shared_ptr<DistfsSession> fs, std::string path,
               std::vector<std::unique_ptr<M3fsFile>> subs,
               std::vector<std::unique_ptr<M3fsFile>> reps, uint32_t rot,
               uint32_t flags);
    ~DistfsFile() override;

    ssize_t read(void *buf, size_t len) override;
    ssize_t write(const void *buf, size_t len) override;
    ssize_t seek(ssize_t off, SeekMode whence) override;
    Error stat(FileInfo &info) override;

  private:
    ssize_t io(void *buf, size_t len, bool isWrite);

    /**
     * Copy @p c of the units whose primary is stripe @p s: c == 0 is
     * the primary subfile on s itself, c >= 1 the replica file hosted
     * on stripe (s+c) % N. nullptr when the hosting stripe is dead or
     * the copy was never opened (no replica file, degraded open).
     */
    M3fsFile *copy(uint32_t s, uint32_t c) const;

    /** The first live copy of stripe @p s's units; nullptr if none. */
    M3fsFile *liveCopy(uint32_t s) const;

    std::shared_ptr<DistfsSession> fs;
    std::string path;
    std::vector<std::unique_ptr<M3fsFile>> subs;  //!< one per stripe
    /** Replica handles: reps[s * (R-1) + (r-1)] mirrors stripe s. */
    std::vector<std::unique_ptr<M3fsFile>> reps;
    uint32_t rot;    //!< homeStripe(path): stripe of unit 0
    uint32_t flags;
    uint64_t size;   //!< logical size: sum of the subfile sizes
    uint64_t pos = 0;
};

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_DISTFS_HH
