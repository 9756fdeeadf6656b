/**
 * @file
 * The M3 kernel: a program on a dedicated kernel PE that exercises the
 * "final decision of whether an operation is allowed" (Sec. 3).
 *
 * The kernel receives system calls as DTU messages, manages VPEs and
 * their capability tables, allocates PEs and DRAM, configures endpoints
 * remotely (NoC-level isolation), registers services and arbitrates
 * capability exchanges with them. No application code ever runs on the
 * kernel PE, and the kernel never runs on application PEs.
 */

#ifndef M3_KERNEL_KERNEL_HH
#define M3_KERNEL_KERNEL_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/cost_model.hh"
#include "base/errors.hh"
#include "base/marshal.hh"
#include "kernel/caps.hh"
#include "kernel/kchannel.hh"
#include "kernel/kif.hh"
#include "pe/platform.hh"
#include "sim/fiber.hh"
#include "trace/trace.hh"

namespace m3
{
namespace kernel
{

/** Kernel-side state of one VPE (Sec. 4.5.5). */
struct Vpe
{
    enum class State
    {
        Boot,     //!< created, not yet started
        Running,  //!< program started
        Exited,   //!< program called exit (or was revoked)
    };

    Vpe(vpeid_t id, std::string name, peid_t pe)
        : id(id), name(std::move(name)), pe(pe), caps(id)
    {
    }

    vpeid_t id;
    std::string name;
    peid_t pe;
    State state = State::Boot;
    int exitCode = 0;
    CapTable caps;

    // --- time multiplexing (kernel-driven context switching) ----------
    /**
     * Non-zero iff the VPE participates in time multiplexing: its stable
     * DTU generation, stamped into every send EP that targets it so
     * messages for a descheduled VPE are buffered rather than delivered
     * to whoever currently owns the PE.
     */
    uint32_t dtuGen = 0;
    /** DRAM context-save area for the SPM contents (0 = none yet). */
    goff_t csa = 0;
    /**
     * Live SPM bytes recorded at the last spill (the bump allocator's
     * high-water mark, 64-byte aligned). The matching fill restores only
     * this prefix: everything software can address comes from the
     * allocator, so the mark bounds the bytes worth moving. 0 = no spill
     * yet (first fill of a loader-written image restores everything).
     */
    uint64_t ctxBytes = 0;
    /** The program has been started (start command sent) at least once. */
    bool started = false;
    /**
     * The DTU context while descheduled. Also holds the kernel-built
     * initial context (syscall EPs + generation) before the first run.
     */
    std::unique_ptr<Dtu::CtxState> ctx;

    /** Cycle of the last syscall/heartbeat (watchdog liveness). */
    Cycles lastActivity = 0;

    /**
     * Number of syscalls whose reply the kernel is deferring for this
     * VPE (VpeWait, queued CreateVpe, deferred Activate, session
     * calls). Such a VPE is blocked *in the kernel* and cannot
     * heartbeat; the watchdog must not count that as unresponsiveness.
     */
    uint32_t pendingReplies = 0;

    /** One deferred VpeWait reply. A peer kernel waiting on behalf of a
     *  remote parent uses ep == KEP_IK and caller == INVALID_VPE. */
    struct Waiter
    {
        epid_t ep;
        uint32_t slot;     //!< kernel ring slot to reply to
        vpeid_t caller;    //!< the waiting VPE
    };
    std::vector<Waiter> waiters;
};

/** Statistics for tests and the scalability analysis. */
struct KernelStats
{
    uint64_t syscalls = 0;
    uint64_t vpesCreated = 0;
    uint64_t capsDelegated = 0;
    uint64_t capsRevoked = 0;
    uint64_t serviceRequests = 0;
    uint64_t heartbeats = 0;
    uint64_t watchdogReclaims = 0;
    uint64_t ctxSwitches = 0;  //!< VPE suspends (time multiplexing)
    uint64_t yields = 0;       //!< cooperative Yield syscalls
    uint64_t ikRequestsSent = 0;     //!< inter-kernel requests issued
    uint64_t ikRequestsHandled = 0;  //!< inter-kernel requests served
    uint64_t remoteVpesPlaced = 0;   //!< VPEs created for peer kernels
    uint64_t migrationsStarted = 0;   //!< live migrations begun
    uint64_t migrationsCompleted = 0; //!< live migrations finished
    uint64_t migrationsAborted = 0;   //!< evacuations with no target PE
    uint64_t failovers = 0;           //!< VPEs restarted after PE death
    uint64_t drains = 0;              //!< PEs drained
    uint64_t pesLeased = 0;           //!< PEs lent to peer kernels

    /** The metrics schema (trace::StatField): every member once. Only
     *  machines with migration or several kernels export those fields. */
    static constexpr trace::StatField<KernelStats> FIELDS[] = {
        {"syscalls", &KernelStats::syscalls, trace::STAT_PER_INSTANCE},
        {"vpes_created", &KernelStats::vpesCreated, trace::STAT_PER_INSTANCE},
        {"caps_delegated", &KernelStats::capsDelegated},
        {"caps_revoked", &KernelStats::capsRevoked},
        {"service_requests", &KernelStats::serviceRequests},
        {"heartbeats", &KernelStats::heartbeats},
        {"watchdog_reclaims", &KernelStats::watchdogReclaims},
        {"ctx_switches", &KernelStats::ctxSwitches},
        {"yields", &KernelStats::yields},
        {"ik_requests_sent", &KernelStats::ikRequestsSent,
         trace::STAT_MULTI_KERNEL | trace::STAT_PER_INSTANCE},
        {"ik_requests_handled", &KernelStats::ikRequestsHandled,
         trace::STAT_MULTI_KERNEL | trace::STAT_PER_INSTANCE},
        {"remote_vpes_placed", &KernelStats::remoteVpesPlaced,
         trace::STAT_MULTI_KERNEL | trace::STAT_PER_INSTANCE},
        {"migrations_started", &KernelStats::migrationsStarted,
         trace::STAT_MIGRATION},
        {"migrations_completed", &KernelStats::migrationsCompleted,
         trace::STAT_MIGRATION},
        {"migrations_aborted", &KernelStats::migrationsAborted,
         trace::STAT_MIGRATION},
        {"failovers", &KernelStats::failovers, trace::STAT_MIGRATION},
        {"drains", &KernelStats::drains, trace::STAT_MIGRATION},
        {"pes_leased", &KernelStats::pesLeased, trace::STAT_MIGRATION},
    };
};
static_assert(trace::statsTableCoversAll<KernelStats>());

/**
 * The kernel. Construct it, queue boot programs, call start(), then run
 * the simulator; everything else happens via syscall messages.
 */
class Kernel
{
  public:
    /** A capability to install in a boot VPE's table before start. */
    struct BootCap
    {
        capsel_t sel;
        uint32_t node;
        goff_t off;
        uint64_t size;
        uint8_t perms;
    };

    /** A program the kernel loads during boot (services, the root app). */
    struct BootProgram
    {
        peid_t pe;
        std::string name;
        std::function<void(vpeid_t)> main;
        std::vector<BootCap> caps;
    };

    /**
     * @param platform the platform; the kernel claims @p kernelPe
     * @param kernelPe PE the kernel itself runs on
     * @param dramAllocStart first DRAM byte the kernel may hand out
     *        (below lies e.g. the filesystem image)
     * @param dramAllocEnd one past the last DRAM byte the kernel may
     *        hand out (0 = the whole DRAM). Multi-kernel machines split
     *        the dynamic region so the instances never collide.
     */
    Kernel(Platform &platform, peid_t kernelPe, goff_t dramAllocStart,
           goff_t dramAllocEnd = 0);

    /** Multi-kernel: the static description of one kernel domain. */
    struct DomainCfg
    {
        uint32_t id = 0;            //!< this kernel's domain
        uint32_t count = 1;         //!< total kernel domains
        /** Kernel PE of every domain (indexed by domain id). */
        std::vector<peid_t> kernelPes;
        /** PEs this kernel owns (administers); others are hands-off. */
        std::vector<bool> ownedPes;
        /** Owned non-kernel PEs per domain (remote-placement estimates). */
        std::vector<uint32_t> ownedCounts;
    };

    /**
     * Turn this instance into one domain of a multi-kernel machine
     * (Sec. 7's "multiple kernel instances"). Call before start(); a
     * never-configured kernel behaves exactly like the single-kernel
     * original.
     */
    void setDomain(DomainCfg cfg);

    /**
     * Opt-in policy (Sec. 3.3's waiting-for-a-reusable-core idea): when
     * no suitable PE is free, defer the CreateVpe reply until one is
     * released instead of failing with NoFreePe.
     */
    void setQueueVpes(bool enable) { queueVpes = enable; }

    /**
     * Enable the watchdog: a Running VPE that issues no syscall or
     * heartbeat for @p deadline cycles is considered dead (its core
     * crashed or its messages are being lost) and its PE is reclaimed:
     * core killed, capabilities revoked, DTU reset, waiters answered
     * with exit code -2. The kernel checks every @p period cycles.
     * Call before start(); disabled by default (zero overhead).
     */
    void
    enableWatchdog(Cycles deadline, Cycles period)
    {
        watchdogDeadline = deadline;
        watchdogPeriod = period;
    }

    /**
     * Enable time multiplexing of VPEs on PEs (more VPEs than PEs): when
     * no suitable PE is free, CreateVpe co-schedules the new VPE onto an
     * already multiplexed PE, and the kernel switches the residents
     * round-robin every @p slice cycles (plus on Yield syscalls). A
     * switch drains the DTU, fetches its context, and spills the SPM to
     * a per-VPE context-save area in DRAM through the kernel's
     * privileged memory EPs. Call before start(); disabled by default
     * (zero behavioural change).
     */
    void enableMultiplexing(Cycles slice) { timeSlice = slice; }

    /** Whether enableMultiplexing() was called. */
    bool multiplexing() const { return timeSlice != 0; }

    /**
     * Enable live migration: VPEs created via CreateVpe get the full
     * context-switch machinery (a DTU generation, a context-save area)
     * even at single occupancy, so the kernel can move a running VPE to
     * another PE at any time: drain + fetch the source DTU, ship the SPM
     * via real DTU transfers, re-home capabilities, restore on the
     * destination. Call before start(); disabled by default (the
     * default configuration stays cycle-identical to a machine without
     * this feature).
     */
    void enableMigration() { migration = true; }

    /** Whether enableMigration() was called. */
    bool migrationEnabled() const { return migration; }

    /**
     * Enable fault-driven failover (requires migration): when the
     * watchdog finds an expired VPE whose *core* is dead (vs. a live
     * core that merely stopped heartbeating), the kernel restarts the
     * VPE from its retained entry program on a replacement PE instead
     * of reclaiming it with kif::EXIT_PE_DEAD.
     */
    void enableFailover() { failover = true; }

    /**
     * Schedule a drain of @p pe at cycle @p at: the kernel evacuates
     * every running VPE off the PE by live migration and refuses new
     * placements on it from the moment the drain starts. The intended
     * use is a rolling restart: drain shortly before a planned (or
     * injected) PE kill so no work is lost. Call before start().
     */
    void
    scheduleDrain(peid_t pe, Cycles at)
    {
        pendingDrains.push_back({pe, at});
    }

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Queue a program to be loaded at boot. Call before start(). */
    void addBootProgram(BootProgram prog);

    /**
     * Register a striped service group: OpenSess on @p name resolves to
     * members[arg % members.size()] (distfs stripe fan-out). Members may
     * live in other domains; PR 5 delegation handles those opens.
     * @p replicas is advertised through QuerySrv so every client mounts
     * the group with the same mirroring factor (distfs replication).
     */
    void
    addServiceGroup(const std::string &name,
                    std::vector<std::string> members,
                    uint32_t replicas = 1)
    {
        serviceGroups[name] = ServiceGroup{std::move(members), replicas};
    }

    /** Install the kernel program on its PE and start it. */
    void start();

    const KernelStats &stats() const { return kstats; }

    /** Introspection for tests: VPE state by id (nullptr if unknown). */
    const Vpe *vpe(vpeid_t id) const;

    /**
     * Introspection for tests: every kernel channel (to each service and
     * each peer kernel) has no request in flight or queued and all of
     * its credits home, and every slot of both reply rings is free.
     */
    bool channelsIdle() const;

    /** Kernel-internal endpoint assignment. */
    static constexpr epid_t KEP_SYSC = 0;  //!< syscall receive ring
    static constexpr epid_t KEP_SRV_REPLY = 1; //!< service replies
    static constexpr epid_t KEP_SRV_SEND = 2;  //!< scratch send EP
    static constexpr epid_t KEP_CTX_SPM = 3;   //!< ctx switch: app SPM
    static constexpr epid_t KEP_CTX_CSA = 4;   //!< ctx switch: DRAM CSA
    static constexpr epid_t KEP_IK = 5;        //!< inter-kernel requests
    static constexpr epid_t KEP_IK_REPLY = 6;  //!< inter-kernel replies
    static constexpr epid_t KEP_IK_SEND = 7;   //!< scratch send EP (IK)

  private:
    /**
     * Block the calling (kernel) fiber until an asynchronous ext operation
     * acks. The kernel performs context switches synchronously: it issues
     * the DTU operation and sleeps until the remote side confirmed it.
     */
    class ExtWaiter
    {
      public:
        std::function<void(Error)>
        cb()
        {
            return [this](Error e) {
                result = e;
                done = true;
                if (waiter)
                    waiter->unblock();
            };
        }

        Error
        wait()
        {
            waiter = Fiber::current();
            while (!done)
                waiter->block();
            return result;
        }

      private:
        Fiber *waiter = nullptr;
        bool done = false;
        Error result = Error::None;
    };

    /** The kernel program's main loop. */
    void run();

    void bootSetup();

    // --- request dispatch ----------------------------------------------
    /** A handler table entry: one per opcode, in opcode order. */
    template <typename Op, typename Fn>
    struct Handler
    {
        Op op;
        Fn fn;
    };
    using SyscallFn = void (Kernel::*)(Vpe &, Unmarshaller &, uint32_t);
    using IkFn = void (Kernel::*)(Unmarshaller &, uint32_t);
    /** The syscall handlers (syscalls.cc). */
    static const Handler<kif::Syscall, SyscallFn> SYSCALLS[];
    /** The inter-kernel request handlers (ik.cc). */
    static const Handler<kif::IkOp, IkFn> IK_OPS[];

    /**
     * The prologue both kernel request rings share: charge fetching,
     * unmarshalling and dispatching the message in @p slot of ring
     * @p ep, pull its opcode, and run @p serve(opcode index, um) inside
     * the span named by @p names. A message too short to hold an opcode,
     * or naming none, is answered InvalidArgs instead.
     */
    template <typename Op, size_t N, typename Serve>
    void
    serveRequest(epid_t ep, uint32_t slot, const MessageHeader &hdr,
                 const OpName<Op> (&names)[N], Serve &&serve)
    {
        const uint8_t *payload = platform.pe(kernelPe).spm().ptr(
            kdtu().msgAddr(ep, slot) + sizeof(MessageHeader), hdr.length);
        Unmarshaller um(payload, hdr.length);
        compute(costs.fetchMsg + costs.unmarshal + costs.syscallDispatch);
        uint64_t op = N;
        if (hdr.length >= sizeof(uint64_t))
            op = um.pull<uint64_t>();
        if (op >= N) {
            replyError(ep, slot, Error::InvalidArgs);
            return;
        }
        trace::ScopedSpan span(kernelPe, names[op].name);
        serve(static_cast<size_t>(op), um);
    }

    void handleSyscall(uint32_t slot);
    void reply(uint32_t slot, const void *msg, uint32_t size);
    void replyError(uint32_t slot, Error e) { replyError(KEP_SYSC, slot, e); }
    /** Answer request @p slot of ring @p ep with just @p e. */
    void replyError(epid_t ep, uint32_t slot, Error e);
    void replyOnEp(epid_t ep, uint32_t slot, const void *msg,
                   uint32_t size);

    void sysNoop(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysCreateVpe(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysVpeStart(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysVpeWait(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysVpeExit(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysCreateRgate(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysCreateSgate(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysReqMem(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysDeriveMem(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysActivate(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysExchange(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysCreateSrv(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysOpenSess(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysExchangeSess(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysRevoke(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysHeartbeat(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysYield(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    void sysQuerySrv(Vpe &vpe, Unmarshaller &um, uint32_t slot);
    /** A service answered a client's Obtain: install the named caps. */
    void obtainReply(Vpe &caller, ServObj &serv, uint32_t slot,
                     capsel_t dstStart, uint64_t count, Error e,
                     Unmarshaller &um);

    // --- kernel channels (to services and peer kernels) ---------------
    /** A reply on ring @p ep arrived: complete its request. */
    void handleReply(KReplyTable &replies, epid_t ep, uint32_t slot);
    /** One channel request: configure @p sep, stage @p msg, send. */
    Error sendRequest(epid_t sep, const SendEpCfg &cfg, spmaddr_t buf,
                      epid_t replyEp, const uint8_t *msg, uint32_t size,
                      uint64_t id);

    // --- inter-kernel protocol (multi-kernel machines only) ----------
    bool multiKernel() const { return domain.count > 1; }
    /** A request whose peer only acknowledges it. */
    void ikNotify(uint32_t peer, const void *msg, size_t size);
    void handleIkRequest(uint32_t slot);
    void ikReply(uint32_t slot, const void *msg, uint32_t size);
    void ikReplyError(uint32_t slot, Error e) { replyError(KEP_IK, slot, e); }

    void ikAnnounceSrv(Unmarshaller &um, uint32_t slot);
    void ikCreateVpe(Unmarshaller &um, uint32_t slot);
    void ikVpeStart(Unmarshaller &um, uint32_t slot);
    void ikVpeWait(Unmarshaller &um, uint32_t slot);
    void ikOpenSess(Unmarshaller &um, uint32_t slot);
    void ikSessExchange(Unmarshaller &um, uint32_t slot);
    void ikDelegateCaps(Unmarshaller &um, uint32_t slot);
    void ikPeLease(Unmarshaller &um, uint32_t slot);
    void ikPeRelease(Unmarshaller &um, uint32_t slot);
    void ikCapsRehome(Unmarshaller &um, uint32_t slot);
    /** A service answered a peer kernel's Obtain: relay its caps. */
    void remoteObtainReply(ServObj &serv, uint32_t slot, uint64_t count,
                           Error e, Unmarshaller &um);

    /** Free owned PEs right now (IK CreateVpe replies report this). */
    uint32_t freeOwnedPes() const;
    /** Serialize one capability for cross-domain transport. */
    Error serializeCap(Marshaller &m, Capability &cap);
    /** Decode one serialized capability into @p obj. */
    Error decodeSerializedCap(Unmarshaller &um, std::shared_ptr<KObject> &obj);
    /**
     * Decode @p count serialized capabilities bound for @p target's
     * selectors from @p dstStart into @p objs, and check that each
     * selector is free. Installs nothing, so a refused list leaves the
     * table as it was; the caller puts them with putDecodedCap().
     */
    Error decodeSerializedCaps(Unmarshaller &um, const Vpe &target,
                               capsel_t dstStart, uint64_t count,
                               std::vector<std::shared_ptr<KObject>> &objs);
    /** Install a decoded capability into @p target at @p sel. */
    void putDecodedCap(Vpe &target, capsel_t sel,
                       std::shared_ptr<KObject> obj);
    /** Announce a newly registered service to all peer kernels. */
    void announceService(const std::string &name);

    // --- helpers -------------------------------------------------------
    Vpe *
    vpeById(vpeid_t id)
    {
        auto it = vpes.find(id);
        return it == vpes.end() ? nullptr : it->second.get();
    }
    Vpe &createVpeObj(const std::string &name, peid_t pe);
    void configureVpeEps(Vpe &vpe);
    Error doActivate(Vpe &vpe, Capability *cap, epid_t ep,
                     spmaddr_t bufAddr);
    void finishVpe(Vpe &vpe, int exitCode);
    /** The service's registration is gone (revoked, or its server
     *  exited): drop its name and fail its pending requests. */
    void retireService(ServObj &serv);
    void revokeRec(Capability *cap);
    void checkWatchdog();
    void reclaimVpe(Vpe &vpe, int exitCode);
    /** Any Running VPE the watchdog would observe (non-service)? */
    bool anyWatchedVpe() const;
    /** Did @p id register a service? Service owners are not watched. */
    bool isServiceOwner(vpeid_t id) const;

    /** Bookkeeping for deferred syscall replies (watchdog liveness). */
    void deferReply(Vpe &caller) { caller.pendingReplies++; }
    /** The deferred reply to @p caller is due; nullptr if it is gone. */
    Vpe *deferredReplySent(vpeid_t caller);
    /** Answer the Activates waiting on @p rgate: activate each send
     *  gate if @p rgate is active now, else (revoked) fail it. */
    void flushPendingActivations(RGateObj &rgate);

    uint32_t nodeOf(const Vpe &v) const { return platform.nocIdOf(v.pe); }
    Dtu &kdtu() { return platform.pe(kernelPe).dtu(); }
    void compute(Cycles c) { Fiber::current()->compute(c); }

    Platform &platform;
    peid_t kernelPe;
    const M3Costs &costs;

    // DRAM management: a bump allocator over the dynamic region.
    goff_t dramNext;
    goff_t dramEnd;

    // VPE and PE management.
    std::map<vpeid_t, std::unique_ptr<Vpe>> vpes;
    vpeid_t nextVpe = 1;
    /** Where a PE is in its life cycle (DESIGN.md, "PE placement"). */
    enum class PeState : uint8_t
    {
        Free,     //!< placeable
        Busy,     //!< holds VPEs, is lent out, or is another kernel's
        Drained,  //!< drained or dead: never placed on again
    };
    /** Written only by claimPe, freePe, retirePe, the constructor,
     *  setDomain and boot. */
    std::vector<PeState> peState;

    // Multi-kernel domain state (count == 1: plain single kernel).
    DomainCfg domain;
    /** Estimated free PEs per peer domain (self-correcting via replies). */
    std::vector<uint32_t> freeEst;
    /** Services registered at peer kernels: name -> owning domain. */
    std::map<std::string, uint32_t> remoteServices;

    /** Requests awaiting their reply, per reply ring. The service reply
     *  ring's 16 slots are shared by every service channel. */
    KReplyTable srvReplies{16};
    KReplyTable ikReplies{kif::IK_SLOTS};
    /** The request channel to each peer kernel (indexed by domain). */
    std::deque<KChannel> ikChannels;

    // Service registry.
    std::map<std::string, std::shared_ptr<ServObj>> services;
    /** Striped service groups (distfs): a virtual name that fans out
     *  OpenSess across its member services, keyed by the session arg,
     *  plus the replication factor advertised to mounting clients. */
    struct ServiceGroup
    {
        std::vector<std::string> members;
        uint32_t replicas = 1;
    };
    std::map<std::string, ServiceGroup> serviceGroups;
    uint64_t nextSessIdent = 1;

    struct PendingVpeReq
    {
        vpeid_t caller;
        uint32_t slot;  //!< syscall ring slot to reply to
        capsel_t dstSel;
        capsel_t mgateSel;
        std::string name;
        kif::PeTypeReq type;
        std::string attr;
    };
    std::vector<PendingVpeReq> pendingVpes;
    bool queueVpes = false;

    // Watchdog configuration (0 = disabled).
    Cycles watchdogDeadline = 0;
    Cycles watchdogPeriod = 0;

    // --- time multiplexing (0 = disabled) ------------------------------
    /** Per-PE schedule; only multiplexed PEs have an entry. */
    struct PeSched
    {
        vpeid_t resident = INVALID_VPE;
        std::vector<vpeid_t> runQueue;  //!< descheduled runnable VPEs
        Cycles residentSince = 0;
        uint32_t assigned = 0;  //!< live VPEs placed on this PE
    };
    std::map<peid_t, PeSched> scheds;
    Cycles timeSlice = 0;
    /**
     * Kernel-assigned VPE generations start high above the hardware
     * reset counter (which starts at 1 and bumps per reset), so a
     * reused PE can never collide with a multiplexed VPE's generation.
     */
    uint32_t nextDtuGen = 1u << 20;
    /** Kernel SPM staging buffer for SPM spill/fill transfers. */
    spmaddr_t ctxStage = 0;
    static constexpr uint32_t CTX_CHUNK = 16 * KiB;

    /** Is the VPE currently the one owning its PE (or not multiplexed)? */
    bool isResident(const Vpe &v) const;
    /** The generation to stamp into sends targeting VPE @p id (0 = any). */
    uint32_t vpeGenOf(vpeid_t id);
    /** Build the initial context: syscall EPs + the VPE's generation. */
    void buildInitialCtx(Vpe &v);
    /** Push @p v's context to its (resident) DTU and wait for the ack. */
    void applyCtx(Vpe &v);
    /** The VPE's DRAM context-save area (allocated on first use). */
    goff_t csaOf(Vpe &v);
    /** Copy the VPE's SPM to its CSA, chunked through the staging buf. */
    void spillSpm(Vpe &v);
    /** The reverse: CSA to SPM (also loads a first-run image). */
    void fillSpm(Vpe &v);
    /** Deschedule the resident VPE @p v (park, drain, fetch, spill). */
    void suspendVpe(Vpe &v);
    /** Make @p v resident (fill, restore, unpark/start). */
    void resumeVpe(Vpe &v);
    /** Preempt expired slices and fill idle multiplexed PEs. */
    void checkSchedule();
    /** Resume the next runnable VPE of @p s, if any. */
    void scheduleNext(peid_t pe, PeSched &s);
    /** Any multiplexed PE with a VPE waiting for its turn? */
    bool schedulePending() const;

    // --- PE placement ---------------------------------------------------
    /**
     * The PE for a VPE of @p type and @p attr: the lowest free PE that
     * matches, else (if @p share and multiplexing) the matching
     * multiplexed PE with the fewest VPEs, lowest id on ties; never a
     * drained one. INVALID_PE if there is none.
     */
    peid_t pickPe(kif::PeTypeReq type, const std::string &attr,
                  bool share) const;
    /** Take a share of @p pe: busy from now on; a @p scheduled share
     *  (a multiplexed or migratable VPE) counts in the PE's schedule. */
    void claimPe(peid_t pe, bool scheduled);
    /**
     * Drop @p v's share of its PE: off the PE's schedule, its parked
     * fiber gone. The last share ends the schedule and, unless the PE
     * is @p dead, resets its DTU and hands it back to its lender or
     * frees it (freePe).
     */
    void releasePe(Vpe &v, bool dead = false);
    /** @p pe is back: free again, unless it was drained meanwhile. */
    void freePe(peid_t pe);
    /** Take @p pe out of placement for good (drained, or its core died). */
    void retirePe(peid_t pe) { peState[pe] = PeState::Drained; }
    bool drained(peid_t p) const { return peState[p] == PeState::Drained; }

    /** Try to satisfy @p req now. @return false if no PE is free. */
    bool tryCreateVpe(Vpe &caller, const PendingVpeReq &req);
    /** Forward a CreateVpe to the first of @p candidates; false = none
     *  left. The reply stays deferred until a peer places the child. */
    bool tryRemoteCreateVpe(PendingVpeReq req,
                            std::vector<uint32_t> candidates);
    void flushPendingVpes();

    // --- live migration, drain and failover ----------------------------
    /**
     * Move the running VPE @p v to PE @p dst: park its software, drain
     * and fetch the source DTU, spill the SPM, re-home its gates and
     * buffered syscall replies, restore everything on @p dst. Messages
     * that raced the move are discarded at the old DTU; senders recover
     * through the generation filter and the gate retry path.
     */
    Error migrateVpe(Vpe &v, peid_t dst);
    /** Ask the first of @p candidates to lend a PE for @p v, evacuated
     *  by the drain of @p drainSrc (false: no candidate left). */
    bool requestPeLease(Vpe &v, peid_t drainSrc,
                        std::vector<uint32_t> candidates);
    /** Hand the PE borrowed from @p lender back. */
    void releaseBorrowedPe(uint32_t lender, peid_t pe);
    /** Evacuate every running VPE off @p pe; refuse new placements. */
    void drainPe(peid_t pe);
    /** Fire due drains (run loop). */
    void checkDrains();
    /** Cycles until the next scheduled drain (0 = none pending). */
    Cycles nextDrainDelay(Cycles now) const;
    /** One evacuation of the drain of @p pe finished (or was aborted). */
    void finishDrainStep(peid_t pe);
    /** Restart @p v from its retained program on a replacement PE. */
    void failoverVpe(Vpe &v);
    /** pickPe for a VPE leaving its (already drained) PE: one like it. */
    peid_t pickMigrationTarget(const Vpe &v) const;
    /** @p v just claimed its PE: resume it there, or queue it behind
     *  the resident VPE. */
    void runOrQueue(Vpe &v);
    /** Point @p v's own activated receive gates at @p newNode. */
    void rehomeVpeGates(Vpe &v, uint32_t newNode);
    /** Tell peer kernels that the gates of generation @p gen moved. */
    void broadcastCapsRehome(uint32_t oldNode, uint32_t gen,
                             uint32_t newNode);

    bool migration = false;
    bool failover = false;
    /** A drain request armed before start(). */
    struct PendingDrain
    {
        peid_t pe;
        Cycles at;
    };
    std::vector<PendingDrain> pendingDrains;
    /** A drain in progress: start cycle + evacuations still in flight. */
    struct DrainRun
    {
        Cycles started = 0;
        uint32_t outstanding = 0;
    };
    std::map<peid_t, DrainRun> activeDrains;
    /** PEs borrowed from peer kernels (pe -> lender domain). */
    std::map<peid_t, uint32_t> borrowedPes;

    // Programs queued for loading at boot.
    std::vector<BootProgram> bootQueue;

    // SPM staging areas (allocated in bootSetup).
    spmaddr_t syscRing = 0;
    spmaddr_t srvRing = 0;
    spmaddr_t stage = 0;
    spmaddr_t srvStage = 0;
    // Inter-kernel rings/staging (multi-kernel machines only).
    spmaddr_t ikRing = 0;
    spmaddr_t ikReplyRing = 0;
    spmaddr_t ikStage = 0;

    KernelStats kstats;
};

} // namespace kernel
} // namespace m3

#endif // M3_KERNEL_KERNEL_HH
