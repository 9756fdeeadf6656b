/**
 * @file
 * The data transfer unit (DTU): the common per-PE hardware component that
 * is the core's only interface to PE-external resources (Sec. 3.1, 4.4).
 *
 * The DTU offers message passing (send/reply into remote ringbuffers) and
 * remote memory access (RDMA-style reads/writes against memory endpoints),
 * plus the privilege machinery for NoC-level isolation: endpoint
 * configuration registers are writable only by privileged DTUs — locally
 * on the kernel PE, or remotely through external configuration packets
 * that only a privileged DTU may emit.
 *
 * Data movement is physical: payload bytes really flow from SPM to SPM or
 * between SPM and DRAM, and the NoC model charges 8 bytes/cycle plus hop
 * latency and link contention.
 */

#ifndef M3_DTU_DTU_HH
#define M3_DTU_DTU_HH

#include <array>
#include <functional>
#include <map>
#include <vector>

#include "base/cost_model.hh"
#include "base/errors.hh"
#include "base/types.hh"
#include "dtu/regs.hh"
#include "mem/mem_target.hh"
#include "mem/spm.hh"
#include "noc/noc.hh"
#include "sim/fiber.hh"

namespace m3
{

class FaultPlan;

/** DTU statistics for tests and ablation benches. */
struct DtuStats
{
    uint64_t msgsSent = 0;
    uint64_t msgsReceived = 0;
    uint64_t msgsDropped = 0;
    uint64_t msgsCorrupted = 0;  //!< dropped due to checksum mismatch
    uint64_t creditDenials = 0;
    uint64_t memReads = 0;
    uint64_t memWrites = 0;
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    uint64_t extConfigs = 0;
    uint64_t msgsParked = 0;    //!< buffered for a descheduled generation
    uint64_t msgsUnparked = 0;  //!< re-injected when that VPE came back

    /** The metrics schema (trace::StatField): every member once. */
    static constexpr trace::StatField<DtuStats> FIELDS[] = {
        {"msgs_sent", &DtuStats::msgsSent},
        {"msgs_received", &DtuStats::msgsReceived},
        {"msgs_dropped", &DtuStats::msgsDropped},
        {"msgs_corrupted", &DtuStats::msgsCorrupted},
        {"credit_denials", &DtuStats::creditDenials},
        {"mem_reads", &DtuStats::memReads},
        {"mem_writes", &DtuStats::memWrites},
        {"bytes_read", &DtuStats::bytesRead},
        {"bytes_written", &DtuStats::bytesWritten},
        {"ext_configs", &DtuStats::extConfigs},
        {"msgs_parked", &DtuStats::msgsParked},
        {"msgs_unparked", &DtuStats::msgsUnparked},
    };
};
static_assert(trace::statsTableCoversAll<DtuStats>());

/**
 * One DTU instance, attached to one PE. The platform wires all DTUs
 * together by providing resolvers from NoC node ids to peer DTUs and
 * memory targets.
 */
class Dtu
{
  public:
    /** Resolves a NoC node id to the DTU attached there (or nullptr). */
    using DtuResolver = std::function<Dtu *(uint32_t)>;
    /** Resolves a NoC node id to a memory target (or nullptr). */
    using MemResolver = std::function<MemTarget *(uint32_t)>;

    struct RecvSlotState
    {
        enum class S : uint8_t { Free, Ready, Fetched };
        S s = S::Free;
    };

    struct RecvState
    {
        std::array<RecvSlotState, MAX_SLOTS> slots;
        uint32_t rdPos = 0;  //!< next slot to fetch
        uint32_t wrPos = 0;  //!< next slot the DTU writes to
        /** Request-tracing context shadowing each ring slot: pure
         *  host-side observability state. It rides neither in the SPM
         *  ring nor in CTX_WIRE_BYTES — the simulated machine never
         *  sees it — but travels with CtxState copies so parked/restored
         *  VPEs keep their request attribution. */
        std::array<uint64_t, MAX_SLOTS> rctx{};
    };

    /**
     * The complete per-VPE DTU context, as fetched/restored by the kernel
     * on a VPE switch: every endpoint register, the ringbuffer cursor
     * state, and the owning generation. The ringbuffer *contents* live in
     * the SPM and travel with the scratchpad spill, not with this struct.
     */
    struct CtxState
    {
        std::array<EpRegs, MAX_EP_COUNT> eps;
        std::array<RecvState, MAX_EP_COUNT> recvState;
        uint32_t generation = 0;
        /** The last-error register: co-residents share the physical one,
         *  so each context carries its own copy across switches. */
        Error lastErr = Error::None;
    };

    /**
     * Architectural size of this DTU's context on the wire (EP register
     * file + ring cursors). Derived from the PE's endpoint count, not
     * sizeof(CtxState): host padding and the MAX_EP_COUNT backing store
     * must not leak into simulated cycles.
     */
    uint32_t
    ctxWireBytes() const
    {
        return static_cast<uint32_t>(epCnt) * 48 + 64;
    }

    Dtu(EventQueue &eq, Noc &noc, Spm &spm, uint32_t nocId,
        const HwCosts &hw, epid_t epCount = EP_COUNT);

    /** Number of endpoints this DTU actually implements. */
    epid_t epCount() const { return epCnt; }

    Dtu(const Dtu &) = delete;
    Dtu &operator=(const Dtu &) = delete;

    /** Platform wiring (must be called before any traffic). */
    void
    connect(DtuResolver dtus, MemResolver mems)
    {
        dtuAt = std::move(dtus);
        memAt = std::move(mems);
    }

    uint32_t nodeId() const { return nocId; }

    // -------------------------------------------------------------------
    // Privilege (Sec. 3: "all DTUs are privileged at boot; the kernel
    // downgrades the application PEs' DTUs").
    // -------------------------------------------------------------------

    bool isPrivileged() const { return privileged; }

    /**
     * Local config access: allowed only while privileged (the kernel PE).
     * Unprivileged software calling these gets Error::NotPrivileged,
     * which is exactly the isolation property of the design.
     */
    Error configSend(epid_t ep, const SendEpCfg &cfg);
    Error configRecv(epid_t ep, const RecvEpCfg &cfg);
    Error configMem(epid_t ep, const MemEpCfg &cfg);

    /**
     * Remote config access: ship an endpoint configuration to the DTU on
     * @p targetNode. Only privileged DTUs may send these packets; the
     * receiving DTU applies them without involving its core.
     * @param onDone invoked (with the result) when the target acked.
     */
    Error extConfigSend(uint32_t targetNode, epid_t ep, const SendEpCfg &cfg,
                        std::function<void(Error)> onDone = nullptr);
    Error extConfigRecv(uint32_t targetNode, epid_t ep, const RecvEpCfg &cfg,
                        std::function<void(Error)> onDone = nullptr);
    Error extConfigMem(uint32_t targetNode, epid_t ep, const MemEpCfg &cfg,
                       std::function<void(Error)> onDone = nullptr);
    Error extInvalidateEp(uint32_t targetNode, epid_t ep,
                          std::function<void(Error)> onDone = nullptr);

    /** Remotely clear the privileged flag (done once at boot per app PE). */
    Error extDowngrade(uint32_t targetNode,
                       std::function<void(Error)> onDone = nullptr);

    /**
     * Remotely reset the DTU: invalidate all endpoints and drop pending
     * messages (used when the kernel revokes/reuses a PE).
     */
    Error extReset(uint32_t targetNode,
                   std::function<void(Error)> onDone = nullptr);

    /**
     * Remotely wake the attached core so it starts executing at its entry
     * point (used by the kernel after loading a program, Sec. 4.5.5).
     */
    Error extStart(uint32_t targetNode,
                   std::function<void(Error)> onDone = nullptr);

    /** Invoked when this DTU receives a start command (wired by the PE). */
    void setStartHook(std::function<void()> hook)
    {
        startHook = std::move(hook);
    }

    /**
     * Remotely wake the attached core to run the program of @p vpeId.
     * Like extStart, but carries the VPE identity so a PE hosting several
     * VPEs starts the right one (kernel-driven multiplexing).
     */
    Error extStartVpe(uint32_t targetNode, uint64_t vpeId,
                      std::function<void(Error)> onDone = nullptr);

    /** Invoked on a VPE-qualified start command (wired by the PE). */
    void setStartVpeHook(std::function<void(uint64_t)> hook)
    {
        startVpeHook = std::move(hook);
    }

    /**
     * Kernel-maintained hint: more than one VPE currently lives on this
     * PE. Software uses it to yield instead of idle-waiting, so a
     * blocked VPE does not burn the rest of its slice holding the core
     * (the multiplexing analogue of MONITOR/MWAIT). Purely advisory —
     * not part of the architectural context.
     */
    void setSharedPe(bool shared) { sharedPeHint = shared; }
    bool sharedPe() const { return sharedPeHint; }

    // -------------------------------------------------------------------
    // VPE context switching (kernel-driven time multiplexing). The kernel
    // suspends the resident VPE by draining the in-flight command,
    // fetching the DTU context, and spilling the SPM; the reverse order
    // restores another VPE.
    // -------------------------------------------------------------------

    /**
     * Wait remotely until the target DTU's in-flight command (if any) has
     * completed: the ack is deferred until the DTU is idle. Issued before
     * a context fetch so no command is lost mid-flight.
     */
    Error extDrain(uint32_t targetNode, std::function<void(Error)> onDone);

    /**
     * Fetch the target DTU's context into @p out (kernel-owned storage;
     * must stay alive until @p onDone fires). The target is left without
     * an owner: all EPs invalid, generation 0, and the fetched generation
     * registered as *parked* — messages addressed to it are buffered at
     * the DTU instead of delivered or dropped, bounded by MAX_SLOTS.
     */
    Error extFetchCtx(uint32_t targetNode, CtxState *out,
                      std::function<void(Error)> onDone);

    /**
     * Restore a previously fetched (or kernel-built) context on the
     * target DTU (@p st must stay alive until @p onDone fires). Messages
     * buffered for the restored generation are re-injected in arrival
     * order, and the target's context-switch epoch is bumped so local
     * software can invalidate cached gate bindings.
     */
    Error extRestoreCtx(uint32_t targetNode, const CtxState *st,
                        std::function<void(Error)> onDone);

    /**
     * Discard the parked state of @p gen on the target DTU (the VPE
     * exited or was reclaimed while descheduled): buffered messages for
     * it are dropped, and future messages carrying it become stale.
     */
    Error extDiscardCtx(uint32_t targetNode, uint32_t gen,
                        std::function<void(Error)> onDone = nullptr);

    /** The DTU's current owning generation (kernel bookkeeping, tests). */
    uint32_t dtuGeneration() const { return generation; }

    /**
     * Bumped on every context restore. Software compares a cached value
     * to detect that a switch happened and its gate bindings may be gone.
     */
    uint32_t ctxEpoch() const { return ctxSwitchEpoch; }

    /**
     * Drop any wait registrations @p f holds on this DTU (the fiber is
     * being parked; a co-resident VPE must not consume its wakeups).
     * unpark() delivers a spurious wakeup, so the waiter re-registers.
     */
    void removeWaiter(Fiber *f);

    /**
     * Rewrite the stored sender node of buffered messages: every occupied
     * slot of receive EP @p ep whose header label equals @p label gets
     * hdr.senderNode = @p newNode. Used by the kernel when a VPE migrates
     * while a request of it still sits (or is being worked on) in the
     * kernel's syscall ring — the deferred reply must travel to the VPE's
     * new home. Privileged-only, local (the kernel patches its own ring).
     */
    Error retargetReplies(epid_t ep, label_t label, uint32_t newNode);

    // -------------------------------------------------------------------
    // Commands, issued by the local core via the command registers.
    // All return immediately with a validation result; completion is
    // signalled through isBusy()/waitUntilIdle().
    //
    // One engine runs every command. The command registers and each
    // parallel transfer slot are channels of one kind ({busy, seq,
    // err}); startRead/startWrite and their X twins run one memory
    // transfer on one of them, startSend and startReply ship a message
    // through one path, and every blocking call below is one wait loop.
    // -------------------------------------------------------------------

    /**
     * Send the @p size bytes at SPM address @p msgAddr to the endpoint's
     * target. @p replyEp (optional) names a local receive EP for the
     * reply; @p replyLabel is the label that reply will carry.
     */
    Error startSend(epid_t ep, spmaddr_t msgAddr, uint32_t size,
                    epid_t replyEp = INVALID_EP, label_t replyLabel = 0);

    /**
     * Reply to the fetched message in @p slot of receive EP @p ep with the
     * @p size bytes at @p msgAddr. Uses the reply info from the message
     * header in the ringbuffer; requires a reply-protected ring.
     */
    Error startReply(epid_t ep, uint32_t slot, spmaddr_t msgAddr,
                     uint32_t size);

    /**
     * Read @p size bytes from offset @p off of memory EP @p ep into the
     * local SPM at @p dstAddr (RDMA read, Sec. 4.4.1).
     */
    Error startRead(epid_t ep, spmaddr_t dstAddr, goff_t off, uint64_t size);

    /** Write local SPM bytes to the endpoint's memory (RDMA write). */
    Error startWrite(epid_t ep, spmaddr_t srcAddr, goff_t off,
                     uint64_t size);

    /**
     * Ask the remote memory to zero a range; fire-and-forget. Used by
     * m3fs to prepare zero blocks in the background (Sec. 5.4).
     */
    Error startZero(epid_t ep, goff_t off, uint64_t size);

    // -------------------------------------------------------------------
    // Parallel transfer slots: XFER_SLOTS more channels beside the
    // command registers, used by distfs to keep RDMA transfers to
    // different stripes in flight at once from one client. A slot runs
    // the same transfer as startRead/startWrite, with the same timing;
    // it is traced as an instant (the slots overlap, so they cannot nest
    // as B/E spans on the DTU track).
    // -------------------------------------------------------------------

    static constexpr uint32_t XFER_SLOTS = 4;

    /** startRead, but on parallel slot @p slot (Error::DtuBusy if the
     *  slot is in flight). */
    Error startReadX(uint32_t slot, epid_t ep, spmaddr_t dstAddr,
                     goff_t off, uint64_t size);

    /** startWrite, but on parallel slot @p slot. */
    Error startWriteX(uint32_t slot, epid_t ep, spmaddr_t srcAddr,
                      goff_t off, uint64_t size);

    /** True while slot @p slot has a transfer in flight. */
    bool xferBusy(uint32_t slot) const;

    /**
     * Block the calling fiber until every parallel slot is idle.
     * @return the first slot error of this batch (slot order), or None.
     */
    Error waitXferAll();

    /** True while a command is in flight. */
    bool isBusy() const { return cmd.busy; }

    /** Result of the last completed command. */
    Error lastError() const { return cmd.err; }

    /**
     * Block the calling fiber until the current command completed.
     * With @p timeout > 0, gives up after that many cycles and returns
     * Error::Timeout (the command stays in flight until aborted).
     * Otherwise returns the command's result.
     */
    Error waitUntilIdle(Cycles timeout = 0);

    /**
     * Abort the in-flight command, if any: the DTU becomes idle with
     * lastError() == Aborted, and a late completion of the aborted
     * command is ignored. Software calls this after a timed-out wait
     * before reusing the DTU. With @p refund, a credit consumed by an
     * aborted send is put back (kernel-driven aborts on a VPE switch;
     * the software retry layer instead calls refundCredit() itself).
     */
    void abortCommand(bool refund = false);

    /**
     * Put one credit back into send EP @p ep. Models the abort-reclaim
     * of a credit whose message is known lost (timed-out request): the
     * retry layer calls this before resending, since the lost message
     * can no longer trigger the regular reply-time refund.
     */
    Error refundCredit(epid_t ep);

    // -------------------------------------------------------------------
    // Receive side.
    // -------------------------------------------------------------------

    /**
     * Fetch the oldest unread message of receive EP @p ep.
     * @return the slot index, or -1 if none is pending.
     */
    int fetchMsg(epid_t ep);

    /** SPM address of the header of the message in @p slot. */
    spmaddr_t msgAddr(epid_t ep, uint32_t slot) const;

    /** Read the header of the message in @p slot (from the SPM). */
    MessageHeader msgHeader(epid_t ep, uint32_t slot) const;

    /** Free the ringbuffer slot of a processed message. */
    Error ackMsg(epid_t ep, uint32_t slot);

    /** True if EP @p ep has an unfetched message. */
    bool hasMsg(epid_t ep) const;

    /**
     * Block the calling fiber until a message is pending on @p ep
     * (models the register polling / future low-power wait, Sec. 4.3).
     * With @p timeout > 0, returns Error::Timeout after that many
     * cycles without a message; Error::None once one is pending.
     */
    Error waitForMsg(epid_t ep, Cycles timeout = 0);

    /** Block until any of the given EPs has a pending message. */
    Error waitForMsgs(const std::vector<epid_t> &eps, Cycles timeout = 0);

    /** Inspect an endpoint's registers (tests, kernel bookkeeping). */
    const EpRegs &ep(epid_t id) const;

    /** Remaining credits of a send EP (register read). */
    uint32_t credits(epid_t ep) const;

    const DtuStats &stats() const { return dtuStats; }
    void resetStats() { dtuStats = DtuStats{}; }

    /** Attach a fault plan (payload corruption, ext-ack refusal). */
    void setFaultPlan(FaultPlan *plan) { faults = plan; }

  private:
    /** A message buffered for a descheduled (parked) generation. */
    struct ParkedMsg
    {
        epid_t ep;
        MessageHeader hdr;
        std::vector<uint8_t> payload;
        uint64_t rctx = 0;  //!< request-tracing shadow (host-side only)
    };

    /**
     * One command channel: the command registers, or one parallel
     * transfer slot. A completion carries the seq its command started
     * with; owns() refuses it once the command was aborted or
     * superseded, so a late NoC round trip cannot touch a newer command
     * (or an SPM the PE's next owner may already use).
     */
    struct Channel
    {
        bool busy = false;
        uint64_t seq = 0;
        Error err = Error::None;  //!< result of the last command

        bool owns(uint64_t s) const { return busy && s == seq; }
    };

    /** Incoming message (runs at packet arrival on the receive side).
     *  @p rctx is the request-tracing context shipped alongside the
     *  message as host-side shadow state (0 = untraced). */
    void handleMsg(epid_t ep, const MessageHeader &hdr,
                   std::vector<uint8_t> payload, uint64_t rctx = 0);

    /** Apply an external configuration (receive side). */
    Error applyExtConfig(epid_t ep, const EpRegs &regs);

    void applyReset();

    /**
     * The prologue and request packet of every ext operation: privilege
     * check, target lookup, the extConfigs count, then @p onArrival(the
     * target DTU) when the request reached it. With @p withCtx the
     * request carries the target's register file (a context restore).
     */
    template <class Fn>
    Error ext(uint32_t targetNode, Fn onArrival, bool withCtx = false);

    /** An ext operation that applies @p apply at the target and acks. */
    Error sendExt(uint32_t targetNode, std::function<Error(Dtu &)> apply,
                  std::function<void(Error)> onDone);

    /** Claim channel @p ch for a new command, traced as @p name.
     *  @return the command's seq. */
    uint64_t begin(Channel &ch, const char *name);

    /** Finish the command on @p ch with result @p e. */
    void finish(Channel &ch, Error e);

    /**
     * The one memory transfer: a read of memory EP @p id into the SPM
     * at @p at, or (@p write) a write from there, on channel @p ch.
     */
    Error transfer(Channel &ch, bool write, epid_t id, spmaddr_t at,
                   goff_t off, uint64_t size);

    /** The memory behind memory EP @p r (panics if there is none). */
    MemTarget *memOf(const EpRegs &r) const;

    /**
     * The one message path of startSend and startReply: read the
     * payload, checksum it, apply a fault, claim the command registers
     * (span @p span) and deliver @p hdr plus payload to EP @p tep of
     * node @p node. The command completes when the tail left the port.
     */
    void ship(MessageHeader hdr, spmaddr_t msgAddr, uint32_t size,
              uint32_t node, epid_t tep, uint64_t rctx, const char *span);

    /**
     * The one blocking loop of the DTU: block the calling fiber until
     * @p ready() holds. @p hold(self, true) registers the fiber as a
     * waiter, hold(self, false) drops what it still holds; a wait holds
     * its registrations only while blocked. With @p timeout > 0 it gives
     * up after that many cycles. @return None, Timeout or VpeMoved.
     */
    template <class Ready, class Hold>
    Error waitFor(Ready ready, Hold hold, Cycles timeout);

    /** Abort every in-flight parallel slot (reset / context fetch). */
    void abortXfers();

    /** True if any parallel transfer slot is in flight. */
    bool
    anyXferBusy() const
    {
        for (const Channel &x : xferSlots)
            if (x.busy)
                return true;
        return false;
    }

    /** Receive-side application of a context fetch/restore. */
    void fetchCtxLocal(CtxState &out);
    void restoreCtxLocal(const CtxState &st);

    EpRegs &epRef(epid_t id);
    void checkEpId(epid_t id) const;

    EventQueue &eq;
    Noc &noc;
    Spm &spm;
    uint32_t nocId;
    HwCosts hw;

    bool privileged = true;
    /** Endpoints implemented by this DTU (<= MAX_EP_COUNT). */
    epid_t epCnt = EP_COUNT;
    /** Bumped on every reset; stale replies are filtered against it. */
    uint32_t generation = 1;
    std::array<EpRegs, MAX_EP_COUNT> eps;
    std::array<RecvState, MAX_EP_COUNT> recvState;

    /** The command registers. */
    Channel cmd;
    /** Send EP of the in-flight command and whether it took a credit
     *  (abort-with-refund needs to know what to give back). */
    epid_t cmdEp = INVALID_EP;
    bool cmdTookCredit = false;
    Fiber *cmdWaiter = nullptr;
    std::array<Channel, XFER_SLOTS> xferSlots;
    Fiber *xferWaiter = nullptr;
    std::array<Fiber *, MAX_EP_COUNT> msgWaiters{};
    /** Deferred drain acks, fired when the current command finishes. */
    std::vector<std::function<void()>> idleWaiters;
    /** Parked generations and the messages buffered for them. */
    std::map<uint32_t, std::vector<ParkedMsg>> parkedMsgs;
    /** Bumped on every context restore (gate-cache invalidation). */
    uint32_t ctxSwitchEpoch = 0;

    DtuResolver dtuAt;
    MemResolver memAt;
    std::function<void()> startHook;
    std::function<void(uint64_t)> startVpeHook;
    bool sharedPeHint = false;
    FaultPlan *faults = nullptr;

    DtuStats dtuStats;
};

} // namespace m3

#endif // M3_DTU_DTU_HH
