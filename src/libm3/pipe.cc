#include "libm3/pipe.hh"

#include <optional>

#include "base/logging.hh"

namespace m3
{

namespace
{

/** Slot size of pipe control messages. */
constexpr uint32_t PIPE_MSG_SIZE = 128;

/**
 * Base of the four pipe ends. An end moves data in one direction and
 * overrides read() or write(); the other direction is refused with
 * NoPerm, seeking with InvalidArgs, and stat reports an empty FileInfo.
 */
class PipeEnd : public File
{
  public:
    ssize_t
    read(void *, size_t) override
    {
        return -static_cast<ssize_t>(Error::NoPerm);
    }

    ssize_t
    write(const void *, size_t) override
    {
        return -static_cast<ssize_t>(Error::NoPerm);
    }

    ssize_t
    seek(ssize_t, SeekMode) override
    {
        return -static_cast<ssize_t>(Error::InvalidArgs);
    }

    Error
    stat(FileInfo &info) override
    {
        info = FileInfo{};
        return Error::None;
    }
};

// ---------------------------------------------------------------------
// Push mode: the peer writes, the creator reads.
// ---------------------------------------------------------------------

/** The creator's reading end. */
class PipeHostReader : public PipeEnd
{
  public:
    explicit PipeHostReader(Pipe &pipe) : pipe(pipe) {}

    ssize_t
    read(void *buf, size_t len) override
    {
        Env &env = pipe.env;
        ScopedCategory os(env.acct(), Category::Os);
        uint8_t *out = static_cast<uint8_t *>(buf);
        size_t total = 0;
        while (total < len) {
            if (!cur) {
                if (eof)
                    break;
                // Wait for the writer to announce the next chunk.
                GateIStream is = pipe.rgate.receive();
                env.compute(env.cm.m3.pipeChunk);
                auto kind = is.pull<PipeMsg>();
                if (kind == PipeMsg::Eof) {
                    eof = true;
                    is.replyError(Error::None);
                    break;
                }
                cur.emplace(std::move(is));
                curOff = cur->pull<uint64_t>();
                curLen = cur->pull<uint64_t>();
                curPos = 0;
            }
            size_t chunk = std::min<size_t>(len - total, curLen - curPos);
            Error e = pipe.ring.read(out + total, chunk, curOff + curPos);
            if (e != Error::None)
                return -static_cast<ssize_t>(e);
            curPos += chunk;
            total += chunk;
            if (curPos == curLen) {
                // Chunk consumed: acknowledge to return the ring space
                // (and the sender's credit).
                cur->replyError(Error::None);
                cur.reset();
            }
        }
        return static_cast<ssize_t>(total);
    }

  private:
    Pipe &pipe;
    std::optional<GateIStream> cur;
    uint64_t curOff = 0;
    uint64_t curLen = 0;
    uint64_t curPos = 0;
    bool eof = false;
};

/** The peer's writing end. */
class PipePeerWriter : public PipeEnd
{
  public:
    PipePeerWriter(Env &env, capsel_t selStart, size_t ringBytes,
                   uint32_t chunks)
        : env(env), sgate(env, selStart, PIPE_MSG_SIZE, true),
          ring(env, selStart + 1, ringBytes),
          replyGate(env, chunks, PIPE_MSG_SIZE),
          chunkSize(ringBytes / chunks), chunks(chunks)
    {
    }

    ~PipePeerWriter() override { sendEof(); }

    ssize_t
    write(const void *buf, size_t len) override
    {
        ScopedCategory os(env.acct(), Category::Os);
        const uint8_t *in = static_cast<const uint8_t *>(buf);
        size_t total = 0;
        while (total < len) {
            // A credit guarantees a free ring slot (credits == chunks),
            // so it must be held *before* the slot is overwritten.
            waitForCredit();
            size_t chunk = std::min(len - total, chunkSize);
            uint64_t off = (seq % chunks) * chunkSize;
            Error e = ring.write(in + total, chunk, off);
            if (e != Error::None)
                return -static_cast<ssize_t>(e);
            env.compute(env.cm.m3.pipeChunk);
            Marshaller m = sgate.ostream();
            m << PipeMsg::Chunk << off << static_cast<uint64_t>(chunk);
            drainAcks();
            if (sgate.send(m, &replyGate) != Error::None)
                return -static_cast<ssize_t>(Error::PipeClosed);
            ++seq;
            total += chunk;
        }
        return static_cast<ssize_t>(total);
    }

  private:
    /** Block until the send gate holds at least one credit. */
    void
    waitForCredit()
    {
        epid_t e = sgate.acquire();
        while (env.dtu().credits(e) == 0) {
            drainAcks();
            if (env.dtu().credits(e) > 0)
                break;
            waitAck();
            drainAcks();
        }
    }

    /**
     * Wait for the reader's next acknowledgement (which also refunds a
     * credit), at most @p timeout cycles (0 = forever). The wait is
     * plain, not yielding, and idle time: the writer is throttled by
     * the reader.
     */
    void
    waitAck(Cycles timeout = 0)
    {
        Cycles t0 = env.platform.simulator().curCycle();
        env.waitMsg(replyGate.boundEp(), timeout);
        env.acct().chargeTo(Category::Idle,
                            env.platform.simulator().curCycle() - t0);
    }

    void
    drainAcks()
    {
        for (;;) {
            GateIStream is = replyGate.tryReceive();
            if (!is.valid())
                break;
            // Ack content is irrelevant; the slot is freed on destroy.
        }
    }

    /**
     * Announce EOF, best effort. Teardown must not hang on a dead
     * reader: unlike write(), which may block indefinitely for ring
     * space, the destructor bounds every credit wait and gives up
     * after a few attempts — the EOF is then simply dropped (the
     * reader is gone; nobody would see it anyway).
     */
    void
    sendEof()
    {
        ScopedCategory os(env.acct(), Category::Os);
        constexpr int EOF_ATTEMPTS = 4;
        constexpr Cycles EOF_WAIT = 20000;
        for (int attempt = 0; attempt < EOF_ATTEMPTS; ++attempt) {
            drainAcks();
            Marshaller m = sgate.ostream();
            m << PipeMsg::Eof;
            if (sgate.send(m, &replyGate) != Error::NoCredits)
                return;  // sent, or a hard error teardown ignores
            waitAck(EOF_WAIT);
        }
        drainAcks();
    }

    Env &env;
    SendGate sgate;
    MemGate ring;
    RecvGate replyGate;
    size_t chunkSize;
    uint32_t chunks;
    uint64_t seq = 0;
};

// ---------------------------------------------------------------------
// Pull mode: the creator writes, the peer reads.
// ---------------------------------------------------------------------

/** The creator's writing end. */
class PipeHostWriter : public PipeEnd
{
  public:
    explicit PipeHostWriter(Pipe &pipe)
        : pipe(pipe), chunkSize(pipe.chunkSize()), freeChunks(pipe.chunks)
    {
    }

    ~PipeHostWriter() override { finish(); }

    ssize_t
    write(const void *buf, size_t len) override
    {
        Env &env = pipe.env;
        ScopedCategory os(env.acct(), Category::Os);
        const uint8_t *in = static_cast<const uint8_t *>(buf);
        size_t total = 0;
        while (total < len) {
            while (freeChunks == 0)
                handleRequest(true);
            size_t chunk = std::min(len - total, chunkSize);
            uint64_t off = (seq % pipe.chunks) * chunkSize;
            Error e = pipe.ring.write(in + total, chunk, off);
            if (e != Error::None)
                return -static_cast<ssize_t>(e);
            env.compute(env.cm.m3.pipeChunk);
            ready.push_back({off, chunk});
            --freeChunks;
            ++seq;
            total += chunk;
            // Serve a reader that is already waiting.
            handleRequest(false);
        }
        return static_cast<ssize_t>(total);
    }

  private:
    /**
     * Process one reader request: the request frees the previously
     * delivered chunk and is answered with the next ready chunk (or
     * held until one exists).
     * @param blocking wait for a request if none is pending
     */
    void
    handleRequest(bool blocking)
    {
        Env &env = pipe.env;
        if (!pending) {
            GateIStream is = blocking ? pipe.rgate.receive()
                                      : pipe.rgate.tryReceive();
            if (!is.valid())
                return;
            is.pull<PipeMsg>();  // always Req
            if (delivered) {
                ++freeChunks;
                delivered = false;
            }
            pending.emplace(std::move(is));
        }
        if (pending && !ready.empty()) {
            auto [off, len] = ready.front();
            ready.erase(ready.begin());
            env.compute(env.cm.m3.pipeChunk);
            Marshaller m = pending->replyStream();
            m << uint64_t{1} << off << static_cast<uint64_t>(len);
            pending->replyStreamSend(m);
            pending.reset();
            delivered = true;
        }
    }

    /** Drain the ready chunks, then answer the final request with EOF. */
    void
    finish()
    {
        while (!ready.empty())
            handleRequest(true);
        // The reader sends one more request after the last chunk.
        if (!pending) {
            GateIStream is = pipe.rgate.receive();
            is.pull<PipeMsg>();
            pending.emplace(std::move(is));
        }
        Marshaller m = pending->replyStream();
        m << uint64_t{0} << uint64_t{0} << uint64_t{0};
        pending->replyStreamSend(m);
        pending.reset();
    }

    Pipe &pipe;
    size_t chunkSize;
    uint32_t freeChunks;
    uint64_t seq = 0;
    std::vector<std::pair<uint64_t, size_t>> ready;
    std::optional<GateIStream> pending;
    bool delivered = false;
};

/** The peer's reading end. */
class PipePeerReader : public PipeEnd
{
  public:
    PipePeerReader(Env &env, capsel_t selStart, size_t ringBytes)
        : env(env), sgate(env, selStart, PIPE_MSG_SIZE, true),
          ring(env, selStart + 1, ringBytes),
          replyGate(env, 2, PIPE_MSG_SIZE)
    {
    }

    ssize_t
    read(void *buf, size_t len) override
    {
        ScopedCategory os(env.acct(), Category::Os);
        uint8_t *out = static_cast<uint8_t *>(buf);
        size_t total = 0;
        while (total < len) {
            if (curPos == curLen) {
                if (eof)
                    break;
                env.compute(env.cm.m3.pipeChunk);
                Marshaller m = sgate.ostream();
                m << PipeMsg::Req;
                GateIStream is = sgate.call(m, replyGate);
                auto hasData = is.pull<uint64_t>();
                if (!hasData) {
                    eof = true;
                    break;
                }
                curOff = is.pull<uint64_t>();
                curLen = is.pull<uint64_t>();
                curPos = 0;
            }
            size_t chunk = std::min<size_t>(len - total, curLen - curPos);
            Error e = ring.read(out + total, chunk, curOff + curPos);
            if (e != Error::None)
                return -static_cast<ssize_t>(e);
            curPos += chunk;
            total += chunk;
        }
        return static_cast<ssize_t>(total);
    }

  private:
    Env &env;
    SendGate sgate;
    MemGate ring;
    RecvGate replyGate;
    uint64_t curOff = 0;
    uint64_t curLen = 0;
    uint64_t curPos = 0;
    bool eof = false;
};

} // anonymous namespace

// ---------------------------------------------------------------------
// Pipe.
// ---------------------------------------------------------------------

Pipe::Pipe(Env &env, bool creatorWrites, size_t ringBytes, uint32_t chunks)
    : env(env), creatorWrites(creatorWrites), ringBytes(ringBytes),
      chunks(chunks), rgate(env, chunks + 2, PIPE_MSG_SIZE),
      peerSgate(std::make_unique<SendGate>(
          SendGate::create(env, rgate, /*label=*/1, chunks))),
      ring(MemGate::create(env, ringBytes, MEM_RW))
{
    if (chunks == 0 || chunks > MAX_SLOTS - 2)
        fatal("pipe must have between 1 and %u chunks", MAX_SLOTS - 2);
}

Error
Pipe::delegateTo(VPE &vpe, capsel_t dstStart)
{
    Error e = vpe.delegate(peerSgate->capSel(), 1, dstStart);
    if (e != Error::None)
        return e;
    return vpe.delegate(ring.capSel(), 1, dstStart + 1);
}

std::unique_ptr<File>
Pipe::host()
{
    if (creatorWrites)
        return std::make_unique<PipeHostWriter>(*this);
    return std::make_unique<PipeHostReader>(*this);
}

std::unique_ptr<File>
pipePeer(Env &env, bool peerWrites, capsel_t selStart, size_t ringBytes,
         uint32_t chunks)
{
    if (peerWrites)
        return std::make_unique<PipePeerWriter>(env, selStart, ringBytes,
                                                chunks);
    return std::make_unique<PipePeerReader>(env, selStart, ringBytes);
}

} // namespace m3
