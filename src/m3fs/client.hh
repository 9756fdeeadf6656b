/**
 * @file
 * The m3fs client: implements libm3's FileSystem/File interfaces on top
 * of a session with the m3fs server (Sec. 4.5.8). Meta-data operations
 * are messages to the service; data access goes directly to the memory
 * where the file is stored, through memory capabilities obtained
 * per extent.
 */

#ifndef M3_M3FS_CLIENT_HH
#define M3_M3FS_CLIENT_HH

#include <memory>
#include <vector>

#include "libm3/gates.hh"
#include "libm3/vfs.hh"
#include "m3fs/fs_defs.hh"
#include "m3fs/fs_proto.hh"

namespace m3
{

class VPE;

namespace m3fs
{

class M3fsFile;

/** A mounted m3fs instance: one session with the server. */
class M3fsSession : public FileSystem,
                    public std::enable_shared_from_this<M3fsSession>
{
  public:
    /**
     * Open a session with the service @p srvName and obtain the
     * session's communication channel. @p openArg is passed to OpenSess
     * (a striped group name resolves the stripe from it); with
     * @p sharedReply, replies arrive on that caller-owned gate instead
     * of a private one (distfs shares one reply gate across its stripe
     * sessions to stay within the endpoint budget).
     */
    static std::shared_ptr<M3fsSession> create(Env &env, Error &err,
                                               const std::string &srvName
                                               = "m3fs",
                                               uint64_t openArg = 0,
                                               RecvGate *sharedReply
                                               = nullptr);

    /** Convenience: create a session and mount it at @p prefix. */
    static Error mount(Env &env, const std::string &prefix,
                       const std::string &srvName = "m3fs");

    /** Default selectors for delegated mounts (clone/exec, Sec. 4.5.5). */
    static constexpr capsel_t MOUNT_SELS = 24;

    /**
     * Pass this mount to a child VPE: delegates the session capability
     * and the channel send gate to [dstStart, dstStart+2). The libm3 way
     * of making the filesystem available on the child without new
     * service round trips.
     */
    Error delegateTo(m3::VPE &vpe, capsel_t dstStart = MOUNT_SELS);

    /** Child side: bind to a delegated mount and mount it at @p prefix. */
    static Error bindMount(Env &env, const std::string &prefix,
                           capsel_t selStart = MOUNT_SELS);

    ~M3fsSession() override;

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

    /**
     * Blocks a write requests per allocation (Sec. 5.5: the paper's
     * sweet spot of 256 is the default; Fig. 4 sweeps it).
     */
    uint32_t appendBlocks = DEFAULT_APPEND_BLOCKS;

    /**
     * Robustness knobs: with a non-zero callTimeout, each synchronous
     * meta-data call on this session (every one of a plain mount; on a
     * distfs stripe readdir, the degraded stat of replica files, the
     * rebuild's walk and copies) is a timed SendGate::call of
     * callRetries + 1 attempts, each waiting at most callTimeout cycles
     * for the reply; if the channel stays dead, the client opens a
     * fresh session with the server and replays the request once. Zero
     * makes it the untimed call, which blocks forever. distfs's
     * metadata fan-outs (opStream/sendOp) ignore both: they wait for
     * their label-matched replies themselves, untimed on an
     * unreplicated mount and for a fixed deadline on a replicated one.
     */
    Cycles callTimeout = 0;
    uint32_t callRetries = 2;

    /**
     * With softFail set, a dead channel surfaces as an error from the
     * operation (lastCallError carries the cause, typically PeerGone)
     * instead of a panic. distfs uses this so one dead stripe degrades
     * the mount instead of killing the client.
     */
    bool softFail = false;
    Error lastCallError = Error::None;

    /** Open a fresh session + channel after the old one went dead. */
    Error reopen();

    /**
     * distfs fan-out: begin building a request on the session channel.
     * The caller sends it with sendOp() and collects the reply itself
     * from the shared reply gate, matched by @p label — several
     * stripes' round trips overlap instead of queueing behind each
     * other. callTimeout does not apply: no resend, no session replay.
     */
    Marshaller opStream();

    /** Send a request built with opStream(); the reply carries @p label. */
    Error sendOp(Marshaller &m, label_t label);

    /**
     * Decode an Open reply (error, fid, size, extent count) into a file
     * of this session opened with @p flags; nullptr with @p err set
     * when the server refused. Shared by open() and distfs's fan-out.
     */
    std::unique_ptr<M3fsFile> decodeOpen(GateIStream &is, uint32_t flags,
                                         Error &err);

    /**
     * Decode a Stat reply (error, ino, mode, links, extent count, size)
     * into @p info. Shared by stat() and distfs's fan-out.
     */
    Error decodeStat(GateIStream &is, FileInfo &info);

  private:
    friend class M3fsFile;

    M3fsSession(Env &env, capsel_t sessSel, std::string srvName);

    /** Synchronous meta-data call on the session channel. */
    GateIStream call(Marshaller &m);

    /** The reply gate calls use (shared or private). */
    RecvGate &reply() { return extReply ? *extReply : *replyGate; }

    /** Reply-stream error, folding in soft failures. */
    Error
    streamError(GateIStream &is)
    {
        return is.valid() ? is.pullError() : lastCallError;
    }

    /** Obtain one capability + return args over the session. */
    Error obtain(const std::vector<uint64_t> &args, capsel_t &capOut,
                 std::vector<uint64_t> &ret);

    Env &env;
    capsel_t sessSel;
    std::string srvName;  //!< empty for bound (delegated) sessions
    uint64_t openArg = 0;  //!< OpenSess arg (stripe index for groups)
    std::unique_ptr<RecvGate> replyGate;
    RecvGate *extReply = nullptr;  //!< caller-owned shared reply gate
    std::unique_ptr<SendGate> channel;
};

/** An open m3fs file. */
class M3fsFile : public File
{
  public:
    M3fsFile(std::shared_ptr<M3fsSession> fs, uint32_t fid, uint32_t flags,
             uint64_t size, uint32_t serverExtents);
    ~M3fsFile() override;

    ssize_t read(void *buf, size_t len) override;
    ssize_t write(const void *buf, size_t len) override;
    /** By reference: the runs of the file's extents move as
     *  MemGate::read(Bytes &) and MemGate::write(const Bytes &). */
    ssize_t read(Bytes &buf, size_t len) override;
    ssize_t write(const Bytes &buf) override;
    ssize_t seek(ssize_t off, SeekMode whence) override;
    Error stat(FileInfo &info) override;

    /**
     * distfs: resolve one contiguous run at @p at (up to @p len bytes)
     * to its memory gate without performing the transfer. Metadata
     * (extent locations, appends when @p forWrite) is fetched
     * synchronously as needed; the caller issues the data movement
     * itself, possibly in parallel with other stripes' runs.
     */
    Error rawLocate(uint64_t at, size_t len, bool forWrite,
                    MemGate *&gate, uint64_t &gateOff, size_t &chunk);

    /** distfs: grow the logical size after a raw write past the end. */
    void
    noteRawWrite(uint64_t endPos)
    {
        if (endPos > size)
            size = endPos;
    }

    /**
     * Encode this file's Close request, for the destructor's call or
     * distfs's close fan-out (the caller sends it and collects the
     * reply); the destructor will not send a second Close.
     */
    void buildClose(Marshaller &m);

    /**
     * distfs: drop the handle without sending Close — the server is
     * dead and a Close on its channel would wait forever. The generous
     * append allocation stays untruncated; a rebuild re-mirrors the
     * subfile from a replica anyway.
     */
    void abandon() { closed = true; }

    uint64_t fileSize() const { return size; }

  private:
    /** One obtained location: a memory capability over an extent. */
    struct Loc
    {
        std::unique_ptr<MemGate> gate;
        uint64_t fileOff;
        uint64_t len;
    };

    /**
     * The loop of both reads: @p move(gate, gateOff, done, n) moves the
     * @p n bytes at @p gateOff of one extent's gate, the file's bytes
     * from @p done on in this call.
     */
    template <class Move>
    ssize_t readLoop(size_t len, Move &&move);

    /** The loop of both writes, appending as needed; @p move as in
     *  readLoop(). */
    template <class Move>
    ssize_t writeLoop(size_t len, Move &&move);

    /** Find (or fetch) the location covering @p pos; nullptr at end. */
    Loc *locate(uint64_t pos, Error &err);

    /** Fetch the next not-yet-obtained extent location. */
    Error fetchNext();

    /** Allocate fresh blocks at the end of the file. */
    Error append();

    std::shared_ptr<M3fsSession> fs;
    uint32_t fid;
    uint32_t flags;
    uint64_t size;
    uint64_t pos = 0;
    uint32_t serverExtents;   //!< extents known to exist server-side
    bool closed = false;      //!< Close already encoded (or abandoned)
    uint32_t nextExtIdx = 0;  //!< next extent index to fetch
    uint64_t coveredBytes = 0; //!< bytes covered by obtained locations
    std::vector<Loc> locs;
};

} // namespace m3fs
} // namespace m3

#endif // M3_M3FS_CLIENT_HH
