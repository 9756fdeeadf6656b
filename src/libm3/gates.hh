/**
 * @file
 * Gates: the software abstraction for communication and memory access
 * over the DTU (Sec. 4.5.4): receive gates, send gates and memory gates,
 * each associated with a capability and lazily bound to an endpoint.
 */

#ifndef M3_LIBM3_GATES_HH
#define M3_LIBM3_GATES_HH

#include <cstring>

#include "base/bytes.hh"
#include "base/errors.hh"
#include "base/marshal.hh"
#include "libm3/env.hh"

namespace m3
{

/** Base of all gates: a capability selector plus the EP binding state. */
class Gate
{
  public:
    Gate(Env &env, capsel_t sel) : env(env), sel(sel) {}
    virtual ~Gate();

    Gate(const Gate &) = delete;
    Gate &operator=(const Gate &) = delete;
    Gate &operator=(Gate &&) = delete;

    /**
     * Gates are movable; a live endpoint binding follows the object.
     * Do not move a RecvGate while received messages are in flight.
     */
    Gate(Gate &&other) noexcept;

    capsel_t capSel() const { return sel; }
    epid_t boundEp() const { return ep; }
    bool isPinned() const { return pinned; }

    /** Revoke the underlying capability (including all grants). */
    Error revoke() { return env.revoke(sel, true); }

    Env &environment() { return env; }

    /** Ensure this gate is bound to an endpoint (Sec. 4.5.4). */
    epid_t acquire() { return env.attach(*this); }

  protected:
    friend class Env;

    /** Buffer address passed to Activate (receive gates only). */
    virtual spmaddr_t activateBuf() const { return 0; }

    Env &env;
    capsel_t sel;
    epid_t ep = INVALID_EP;
    bool pinned = false;
    uint64_t lastUse = 0;
};

class RecvGate;

/**
 * A received message: an unmarshalling view into the ringbuffer slot.
 * Acknowledges (frees) the slot on destruction.
 */
class GateIStream
{
  public:
    GateIStream(RecvGate &rgate, int slot);
    GateIStream(GateIStream &&other) noexcept;
    ~GateIStream();

    GateIStream(const GateIStream &) = delete;
    GateIStream &operator=(const GateIStream &) = delete;

    bool valid() const { return slot >= 0; }
    const MessageHeader &header() const { return hdr; }
    label_t label() const { return hdr.label; }

    template <typename T>
    GateIStream &
    operator>>(T &v)
    {
        um >> v;
        return *this;
    }

    template <typename T>
    T
    pull()
    {
        return um.pull<T>();
    }

    /** The leading error word every reply in our protocols starts with. */
    Error pullError() { return um.pull<Error>(); }

    /** Reply to this message (frees the slot). */
    Error reply(const void *msg, uint32_t size);
    Error replyError(Error e);

    /** Begin building a reply in the receive gate's staging buffer. */
    Marshaller replyStream();
    Error replyStreamSend(Marshaller &m);

    /** Explicitly free the slot without replying. */
    void ack();

  private:
    /** The one reply tail: send the @p size staged bytes, free the slot. */
    Error replyStaged(uint32_t size);

    RecvGate *rg;
    int slot;
    MessageHeader hdr;
    Unmarshaller um;
};

/** A receive gate: a ringbuffer for incoming messages (Sec. 4.5.4). */
class RecvGate : public Gate
{
  public:
    /**
     * Create a receive gate: allocates the ringbuffer in the local SPM,
     * creates the kernel object and activates it on an endpoint.
     * Receive gates stay pinned: they cannot be moved once active.
     */
    RecvGate(Env &env, uint32_t slots, uint32_t slotSize);

    uint32_t slotCount() const { return slots; }
    uint32_t slotSize() const { return slotSz; }
    spmaddr_t bufferAddr() const { return bufAddr; }

    /** True if a message is pending. */
    bool hasMsg();

    /** Block until a message arrives, then fetch it. */
    GateIStream receive();

    /** Fetch without blocking; the result is invalid if none pending. */
    GateIStream tryReceive();

  protected:
    spmaddr_t activateBuf() const override { return bufAddr; }

  private:
    friend class GateIStream;

    uint32_t slots;
    uint32_t slotSz;
    spmaddr_t bufAddr;
    spmaddr_t replyStage;
};

/** A send gate: the right to send messages to a receive gate. */
class SendGate : public Gate
{
  public:
    /**
     * Create a send gate towards @p target with a receiver-chosen
     * @p label and @p credits messages of budget (Sec. 4.4.3).
     */
    static SendGate create(Env &env, RecvGate &target, label_t label,
                           uint32_t credits);

    /**
     * Bind a send gate to a capability obtained from another VPE or a
     * service. @p maxMsgSize is the target ring's slot size (part of the
     * protocol contract with the capability's origin).
     */
    SendGate(Env &env, capsel_t sel, uint32_t maxMsgSize,
             bool finiteCredits);

    /** Begin building a message in the staging buffer. */
    Marshaller ostream();

    /**
     * Send the built message. If @p replyGate is given, the receiver can
     * reply to it. Blocks while the gate is out of credits.
     */
    Error send(Marshaller &m, RecvGate *replyGate = nullptr,
               label_t replyLabel = 0);

    /** Send raw bytes (already in the staging buffer via stagePtr()). */
    Error sendRaw(uint32_t size, RecvGate *replyGate = nullptr,
                  label_t replyLabel = 0);

    /**
     * Synchronous call: send and wait for the reply on @p replyGate
     * (most libm3 abstractions combine both, Sec. 4.5.6).
     *
     * The untimed call (one attempt, no @p timeout) blocks until the
     * reply arrives, yielding a shared PE meanwhile (waitMsgYielding);
     * a refused send panics. It is spanned as "gate:call" and records
     * its wait in dtu.reply_latency.ep<N>.
     *
     * A timed call (more @p attempts, or a @p timeout) bounds each
     * reply wait by @p timeout cycles (0 = forever). On expiry the
     * credit the lost reply carried is restored, stale replies are
     * drained and the request is resent after an exponentially growing
     * pause, counted in gate.retries; a send refused for lack of
     * credits pauses too (dtu.credit_stall_cycles). @p err, if given,
     * receives Error::None on success, Error::Timeout when all attempts
     * expired, or the send error; the stream is invalid unless the call
     * succeeded.
     */
    GateIStream call(Marshaller &m, RecvGate &replyGate,
                     uint32_t attempts = 1, Cycles timeout = 0,
                     Error *err = nullptr);

    uint8_t *stagePtr();
    uint32_t maxMsg() const { return maxMsgSize; }

  private:
    uint32_t maxMsgSize;
    spmaddr_t stage;
};

/** A memory gate: RDMA-style access to a region of remote memory. */
class MemGate : public Gate
{
  public:
    /** Allocate @p size bytes of DRAM from the kernel (Sec. 4.5.4). */
    static MemGate create(Env &env, uint64_t size, uint8_t perms);

    /** Bind to an obtained/derived memory capability. */
    MemGate(Env &env, capsel_t sel, uint64_t size);

    /** Derive a gate for the sub-range [off, off+size). */
    MemGate derive(goff_t off, uint64_t size, uint8_t perms);

    /**
     * Read @p len bytes at offset @p off into @p dst. The data moves
     * through the DTU in XFER_BUF_SIZE chunks; the wait is charged to
     * Category::Xfer.
     */
    Error read(void *dst, size_t len, goff_t off);

    /**
     * Read @p len bytes at offset @p off as @p dst: shared bytes stay
     * slices, on the spin path (Sec. 5.7) and through the DTU's
     * transfer buffer alike, so nothing is copied. On an error, @p dst
     * holds the chunks read before it.
     */
    Error read(Bytes &dst, size_t len, goff_t off);

    /** Write @p len bytes from @p src to offset @p off. */
    Error write(const void *src, size_t len, goff_t off);

    /** Write @p src to offset @p off; shared bytes stay slices. */
    Error write(const Bytes &src, goff_t off);

    /** Ask the memory to zero [off, off+len) in the background. */
    Error zero(size_t len, goff_t off);

    uint64_t size() const { return regionSize; }

  private:
    uint64_t regionSize;
};

/** One segment of a striped parallel transfer (distfs). */
struct XferSeg
{
    MemGate *gate;  //!< target memory gate
    void *buf;      //!< app buffer (destination on read, source on write)
    size_t len;     //!< bytes to move
    goff_t off;     //!< offset within the gate
};

/**
 * Move @p n segments through the DTU's parallel transfer slots, each
 * against its own memory gate (distfs stripes). Segments are assigned
 * to slots by target memory module: transfers to distinct modules
 * overlap, while segments for the same module chain serially on one
 * slot — the module's controller is the serialization point. With more
 * than Dtu::XFER_SLOTS distinct modules the modules round-robin over
 * the slots. The transfer buffer is split into one sub-buffer per
 * slot; chained or oversized segments proceed in rounds. Under
 * spinDataTransfers the charged time is the maximum over slots of the
 * slot's summed uncontended times — overlap across modules, queueing
 * within one.
 */
Error parallelRead(Env &env, XferSeg *segs, uint32_t n);

/** The write-side counterpart of parallelRead(). */
Error parallelWrite(Env &env, XferSeg *segs, uint32_t n);

} // namespace m3

#endif // M3_LIBM3_GATES_HH
