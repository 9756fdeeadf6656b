/**
 * @file
 * The per-VPE runtime environment of libm3 (Sec. 4.5.2).
 *
 * Every application program gets an Env: it wraps the PE's SPM and DTU,
 * provides the system-call client (messages to the kernel PE, Sec. 5.3),
 * allocates capability selectors, and multiplexes the limited number of
 * DTU endpoints among the application's gates (Sec. 4.5.4).
 */

#ifndef M3_LIBM3_ENV_HH
#define M3_LIBM3_ENV_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/accounting.hh"
#include "base/cost_model.hh"
#include "base/errors.hh"
#include "base/marshal.hh"
#include "kernel/kif.hh"
#include "pe/platform.hh"

namespace m3
{

class Gate;
class RecvGate;
class Vfs;

/** Size of the scratch SPM buffer used for DTU data transfers. */
static constexpr size_t XFER_BUF_SIZE = 16 * KiB;

/** The libm3 environment of one running VPE. */
class Env
{
  public:
    /**
     * Construct the environment for the program running on @p pe.
     * Registers itself as the current environment of the calling fiber.
     */
    Env(Platform &platform, peid_t pe, vpeid_t vpe);
    ~Env();

    Env(const Env &) = delete;
    Env &operator=(const Env &) = delete;

    /** The environment of the currently executing fiber. */
    static Env &cur();

    /**
     * Migration plumbing: the software on @p f now lives on @p newPe.
     * Re-points the fiber's environment (if it has one) and bumps the
     * fiber's move epoch so blocked DTU waits bail out with VpeMoved.
     * Wired into Pe's moved hook by M3System.
     */
    static void noteMoved(Fiber *f, peid_t newPe);

    /**
     * Failover plumbing: VPE @p vpe will restart on @p newPe. The entry
     * functor captured its original PE by value; it resolves its actual
     * home through homeOf() at (re)start.
     */
    static void setHome(vpeid_t vpe, peid_t newPe);

    /** Consume a pending home override for @p vpe, or @p fallback. */
    static peid_t homeOf(vpeid_t vpe, peid_t fallback);

    /** Clear cross-system static state (called per M3System). */
    static void resetRegistry();

    Platform &platform;
    peid_t peId;
    vpeid_t vpeId;
    const CostModel &cm;
    Fiber &fiber;

    /**
     * The PE this VPE currently runs on. The pointers are cached (these
     * sit on every message fast path); a migration re-points them in
     * noteMoved(), the only place peId ever changes.
     */
    Pe &pe() { return *homePe; }
    Spm &spm() { return *homeSpm; }
    Dtu &dtu() { return *homeDtu; }

    /** Charge @p c cycles of software time to the current category. */
    void compute(Cycles c) { fiber.compute(c); }

    Accounting &acct() { return fiber.accounting(); }

    /** Allocate @p n contiguous capability selectors. */
    capsel_t
    allocSels(uint32_t n = 1)
    {
        capsel_t s = nextSel;
        nextSel += n;
        return s;
    }

    // -------------------------------------------------------------------
    // Endpoint multiplexing (Sec. 4.5.4): before using a gate, libm3
    // checks whether an endpoint is configured for it and performs the
    // Activate system call if not.
    // -------------------------------------------------------------------

    /** Ensure @p gate is bound to an endpoint; returns the endpoint. */
    epid_t attach(Gate &gate);

    /** Drop the binding of @p gate (on gate destruction). */
    void detach(Gate &gate);

    /** Repoint an endpoint slot at a moved gate object. */
    void rebind(Gate &gate, epid_t ep);

    // -------------------------------------------------------------------
    // System calls. Each wrapper marshals the request into the syscall
    // staging buffer, performs the DTU round trip to the kernel and
    // parses the reply.
    // -------------------------------------------------------------------

    /** The Fig. 3 null system call. */
    Error noop();

    /**
     * Watchdog liveness beacon: tells the kernel this VPE is alive
     * without requesting anything (pairs with Kernel::enableWatchdog).
     */
    Error heartbeat();

    /**
     * Cooperative yield: offer the PE back to the kernel. On a
     * time-multiplexed PE the kernel may switch to another VPE right
     * after replying; execution resumes here once this VPE is
     * scheduled again.
     */
    Error yield();

    /**
     * The one message wait of libm3: block until a message is on @p ep,
     * or at most @p timeout cycles (0 = forever). Returns Error::None,
     * or Error::Timeout when the deadline passed first. A wait that
     * bailed out with VpeMoved is re-issued against the new home's DTU:
     * the message (or the deferred reply) is redirected by the kernel,
     * so re-waiting, never re-sending, is the correct recovery. The wait
     * is plain: it holds the PE and charges nothing; each caller charges
     * the cycles it waited (the syscall splits them into Xfer and Os,
     * the pipe writer books them as Idle, a call to its category).
     */
    Error waitMsg(epid_t ep, Cycles timeout = 0);

    /**
     * Wait for a message on @p ep, yielding the PE instead of idling
     * when other VPEs share it: a blocked VPE should not burn the rest
     * of its slice holding the core. Spins for a short grace window
     * first, and falls back to waitMsg() on a dedicated PE
     * (bit-identical to it there) or when the kernel reports nobody
     * else to run. Returns when a message is available.
     */
    Error waitMsgYielding(epid_t ep);

    Error createVpe(capsel_t dstSel, capsel_t mgateSel,
                    const std::string &name, kif::PeTypeReq type,
                    const std::string &attr, vpeid_t &vpeOut,
                    peid_t &peOut);
    Error vpeStart(capsel_t vpeSel);
    Error vpeWait(capsel_t vpeSel, int &exitCode);
    /** Tell the kernel this VPE is done. No reply (Sec. 4.5.5). */
    void vpeExit(int exitCode);
    Error createRgate(capsel_t dstSel, uint32_t slots, uint32_t slotSize);
    Error createSgate(capsel_t dstSel, capsel_t rgateSel, label_t label,
                      uint32_t credits);
    Error reqMem(capsel_t dstSel, uint64_t size, uint8_t perms);
    Error deriveMem(capsel_t srcSel, capsel_t dstSel, goff_t off,
                    uint64_t size, uint8_t perms);
    Error activate(capsel_t capSel, epid_t ep, spmaddr_t bufAddr);
    Error exchange(capsel_t vpeSel, capsel_t srcStart, uint32_t count,
                   capsel_t dstStart, kif::ExchangeOp op);
    Error createSrv(capsel_t dstSel, capsel_t rgateSel,
                    const std::string &name);
    Error openSess(capsel_t dstSel, const std::string &name, uint64_t arg);
    /**
     * Query a service name: @p groupSize returns the stripe count of a
     * striped service group (distfs), 1 for a plain service, and
     * @p replicas the group's advertised replication factor (1 when
     * unreplicated) — every mounting client learns the same mirroring
     * policy from the kernel instead of carrying its own flag.
     */
    Error querySrv(const std::string &name, uint64_t &groupSize,
                   uint64_t &replicas);
    /**
     * Exchange capabilities over a session; the service arbitrates
     * (Sec. 4.5.3). @p args/@p ret carry protocol-specific words.
     */
    Error exchangeSess(capsel_t sessSel, kif::ExchangeOp op,
                       capsel_t dstStart, uint32_t count,
                       const std::vector<uint64_t> &args,
                       std::vector<uint64_t> *ret = nullptr);
    Error revoke(capsel_t capSel, bool own);

    /** SPM scratch buffer for chunked DTU transfers. */
    spmaddr_t xferBuf() const { return xferBufAddr; }

    /** The VPE's mount table (created on first use). */
    Vfs &vfs();

  private:
    friend class Gate;
    friend class SendGate;

    /**
     * The one send of libm3: start sending the @p size bytes at @p msg
     * on @p ep (the reply, if any, goes to @p replyEp with
     * @p replyLabel). While the DTU is still busy with an earlier
     * command, waits for it and retries; otherwise returns the DTU's
     * verdict. Charges nothing: the callers charge the DTU command.
     */
    Error send(epid_t ep, spmaddr_t msg, uint32_t size,
               epid_t replyEp = INVALID_EP, label_t replyLabel = 0);

    /**
     * Generic syscall round trip: send the marshalled request, wait for
     * the kernel's reply, parse the leading error code and hand the rest
     * to @p onReply. Cycle attribution: the message transfers are charged
     * to Category::Xfer, everything else to Category::Os (Sec. 5.3). The
     * wait never yields (see the comment in its body).
     */
    Error sysCall(Marshaller &m,
                  const std::function<void(Unmarshaller &)> &onReply = {});

    /** Begin a syscall message in the staging buffer. */
    Marshaller beginSyscall();

    /** Fast-path caches for pe()/spm()/dtu(); kept in sync with peId by
     *  the constructor and Env::noteMoved(). */
    Pe *homePe = nullptr;
    Spm *homeSpm = nullptr;
    Dtu *homeDtu = nullptr;

    spmaddr_t syscStage = 0;
    spmaddr_t xferBufAddr = 0;
    capsel_t nextSel = 64;

    // Endpoint multiplexer state.
    struct EpSlot
    {
        Gate *gate = nullptr;
        uint64_t lastUse = 0;
    };
    std::array<EpSlot, MAX_EP_COUNT> epSlots;
    uint64_t useCounter = 0;
    /** DTU context epoch this Env last synced its EP cache against. */
    uint32_t seenCtxEpoch = 0;
    /** Set on migration: the next attach() must drop the EP cache even
     *  if the new home's epoch counter happens to match seenCtxEpoch. */
    bool forceEpDrop = false;
    /** True while the Yield syscall itself runs (its reply wait must
     *  block plainly instead of yielding again). */
    bool inYield = false;

    std::unique_ptr<Vfs> vfsPtr;
};

} // namespace m3

#endif // M3_LIBM3_ENV_HH
