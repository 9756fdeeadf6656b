#include "libm3/env.hh"

#include <unordered_map>

#include "base/logging.hh"
#include "libm3/gates.hh"
#include "libm3/vfs.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace m3
{

namespace
{

/**
 * Pending PE re-homes for VPEs restarting after a failover, written
 * only by the migration/failover hooks. The fiber -> Env mapping itself
 * lives on the Fiber (Fiber::setUserEnv), so it needs no map at all.
 */
std::unordered_map<vpeid_t, peid_t> &
pendingHomes()
{
    static std::unordered_map<vpeid_t, peid_t> homes;
    return homes;
}

} // anonymous namespace

Env::Env(Platform &platform, peid_t peId, vpeid_t vpeId)
    : platform(platform), peId(peId), vpeId(vpeId), cm(platform.costs()),
      fiber(*Fiber::current()), homePe(&platform.pe(peId)),
      homeSpm(&homePe->spm()), homeDtu(&homePe->dtu())
{
    // Claim the SPM: the reserved system area (syscall-reply ring at its
    // fixed address), the syscall staging buffer and the transfer buffer.
    spm().resetAlloc();
    spm().alloc(kif::RESERVED_SPM);
    syscStage = spm().alloc(kif::MAX_SYSC_MSG);
    xferBufAddr = spm().alloc(XFER_BUF_SIZE);
    seenCtxEpoch = dtu().ctxEpoch();

    fiber.setUserEnv(this);
}

void
Env::noteMoved(Fiber *f, peid_t newPe)
{
    if (Env *env = static_cast<Env *>(f->getUserEnv())) {
        env->peId = newPe;
        env->homePe = &env->platform.pe(newPe);
        env->homeSpm = &env->homePe->spm();
        env->homeDtu = &env->homePe->dtu();
        env->forceEpDrop = true;
        if (M3_TRACE_ON)
            env->fiber.accounting().traceTrack = newPe;
    }
    // Bump last: a wait that wakes up re-resolves its DTU via the Env.
    f->noteMoved();
}

void
Env::setHome(vpeid_t vpe, peid_t newPe)
{
    pendingHomes()[vpe] = newPe;
}

peid_t
Env::homeOf(vpeid_t vpe, peid_t fallback)
{
    auto it = pendingHomes().find(vpe);
    if (it == pendingHomes().end())
        return fallback;
    peid_t pe = it->second;
    pendingHomes().erase(it);
    return pe;
}

void
Env::resetRegistry()
{
    pendingHomes().clear();
}

Env::~Env()
{
    fiber.setUserEnv(nullptr);
}

Vfs &
Env::vfs()
{
    if (!vfsPtr)
        vfsPtr = std::make_unique<Vfs>();
    return *vfsPtr;
}

Env &
Env::cur()
{
    Fiber *f = Fiber::current();
    if (!f)
        panic("Env::cur() outside a fiber");
    Env *env = static_cast<Env *>(f->getUserEnv());
    if (!env)
        panic("fiber '%s' has no environment", f->fiberName().c_str());
    return *env;
}

// ---------------------------------------------------------------------
// Endpoint multiplexing.
// ---------------------------------------------------------------------

epid_t
Env::attach(Gate &gate)
{
    // "libm3 checks before the usage of a gate whether the endpoint is
    // appropriately configured" (Sec. 4.5.4).
    compute(cm.m3.epCheck);

    // A context restore rewrote the physical EPs. The restore itself is
    // exact, but a revoke that happened while this VPE was descheduled
    // landed in the saved context — drop the non-pinned cache so such
    // gates lazily re-activate. Pinned gates keep their slot: the kernel
    // never moves them and their restored registers are authoritative.
    // A migration forces the drop: the new home has its own epoch
    // counter, so a plain compare could miss the switch.
    if (forceEpDrop || dtu().ctxEpoch() != seenCtxEpoch) {
        forceEpDrop = false;
        seenCtxEpoch = dtu().ctxEpoch();
        for (epid_t e = kif::FIRST_FREE_EP; e < dtu().epCount(); ++e) {
            Gate *g = epSlots[e].gate;
            if (g && !g->pinned) {
                g->ep = INVALID_EP;
                epSlots[e] = EpSlot{};
            }
        }
    }

    if (gate.ep != INVALID_EP) {
        epSlots[gate.ep].lastUse = ++useCounter;
        return gate.ep;
    }

    // Pick a free endpoint, or evict the least recently used movable one.
    epid_t chosen = INVALID_EP;
    for (epid_t e = kif::FIRST_FREE_EP; e < dtu().epCount(); ++e) {
        if (!epSlots[e].gate) {
            chosen = e;
            break;
        }
    }
    if (chosen == INVALID_EP) {
        uint64_t best = ~uint64_t{0};
        for (epid_t e = kif::FIRST_FREE_EP; e < dtu().epCount(); ++e) {
            Gate *g = epSlots[e].gate;
            if (!g->pinned && epSlots[e].lastUse < best) {
                best = epSlots[e].lastUse;
                chosen = e;
            }
        }
        if (chosen == INVALID_EP)
            panic("VPE%u: out of endpoints (all pinned)", vpeId);
        epSlots[chosen].gate->ep = INVALID_EP;
    }

    Error e = activate(gate.sel, chosen, gate.activateBuf());
    if (e != Error::None)
        panic("VPE%u: activating cap %u on EP %u failed: %s", vpeId,
              gate.sel, chosen, errorName(e));

    gate.ep = chosen;
    epSlots[chosen].gate = &gate;
    epSlots[chosen].lastUse = ++useCounter;
    return chosen;
}

void
Env::rebind(Gate &gate, epid_t ep)
{
    epSlots[ep].gate = &gate;
}

void
Env::detach(Gate &gate)
{
    if (gate.ep != INVALID_EP) {
        epSlots[gate.ep].gate = nullptr;
        gate.ep = INVALID_EP;
    }
}

// ---------------------------------------------------------------------
// Syscall client.
// ---------------------------------------------------------------------

Marshaller
Env::beginSyscall()
{
    return Marshaller(spm().ptr(syscStage, kif::MAX_SYSC_MSG),
                      kif::MAX_SYSC_MSG);
}

Error
Env::send(epid_t ep, spmaddr_t msg, uint32_t size, epid_t replyEp,
          label_t replyLabel)
{
    for (;;) {
        Error e = dtu().startSend(ep, msg, size, replyEp, replyLabel);
        if (e != Error::DtuBusy)
            return e;
        // A VpeMoved bail-out here means the busy command was aborted by
        // the context fetch; just retry the send at the new home (this
        // message was never issued).
        dtu().waitUntilIdle();
    }
}

Error
Env::waitMsg(epid_t ep, Cycles timeout)
{
    for (;;) {
        Error e = dtu().waitForMsg(ep, timeout);
        if (e != Error::VpeMoved)
            return e;
        // Migrated mid-wait: the message follows us (ring contents travel
        // with the SPM; deferred replies are retargeted by the kernel).
    }
}

Error
Env::sysCall(Marshaller &m, const std::function<void(Unmarshaller &)> &onReply)
{
    ScopedCategory os(acct(), Category::Os);

    // The opcode is the first u64 the Marshaller wrote to the staging
    // area, so the client-side span carries the same name as the
    // kernel-side one.
    const bool traced = M3_TRACE_ON;
    if (traced) {
        auto op = *reinterpret_cast<const kif::Syscall *>(
            spm().ptr(syscStage, sizeof(uint64_t)));
        trace::Tracer::spanBegin(peId, kif::SYSCALL_NAMES[size_t(op)].name);
    }

    compute(cm.m3.marshal + cm.m3.dtuCommand);
    Error se = send(kif::SYSC_SEP, syscStage,
                    static_cast<uint32_t>(m.size()), kif::SYSC_REP, 0);
    if (se != Error::None)
        panic("VPE%u: syscall send failed: %s", vpeId, errorName(se));

    // A plain blocking wait, deliberately not waitMsgYielding: yielding
    // is itself a syscall, and the single SYSC_SEP credit is still out
    // until this reply arrives. A shared PE is reclaimed by slice
    // preemption instead while this VPE sits blocked here. The request
    // is out, so a migration mid-wait must re-wait, never re-send: the
    // kernel redirects the (deferred) reply to the new home.
    Cycles t0 = platform.simulator().curCycle();
    waitMsg(kif::SYSC_REP);
    Cycles elapsed = platform.simulator().curCycle() - t0;

    if (M3_METRICS_ON) {
        static trace::Histogram &lat =
            trace::Metrics::histogram("dtu.reply_latency.ep0");
        lat.observe(elapsed);
    }

    // Attribute the round trip: the wire time of request and reply goes
    // to Xfers, the remainder (kernel software, queueing) to OS. This is
    // the 30 / 170 cycle split of Sec. 5.3.
    uint32_t myNode = dtu().nodeId();
    uint32_t kNode = dtu().ep(kif::SYSC_SEP).send.targetNode;
    Cycles xfer = platform.noc().idleLatency(
                      myNode, kNode, static_cast<uint32_t>(m.size())) +
                  platform.noc().idleLatency(kNode, myNode, 16);
    if (xfer > elapsed)
        xfer = elapsed;
    acct().chargeTo(Category::Xfer, xfer);
    acct().chargeTo(Category::Os, elapsed - xfer);

    int slot = dtu().fetchMsg(kif::SYSC_REP);
    if (slot < 0)
        panic("VPE%u: syscall reply ring empty after wakeup", vpeId);
    compute(cm.m3.fetchMsg + cm.m3.unmarshal);

    MessageHeader hdr = dtu().msgHeader(kif::SYSC_REP, slot);
    const uint8_t *payload =
        spm().ptr(dtu().msgAddr(kif::SYSC_REP, slot) +
                      sizeof(MessageHeader),
                  hdr.length);
    Unmarshaller um(payload, hdr.length);
    auto err = um.pull<Error>();
    if (err == Error::None && onReply)
        onReply(um);
    dtu().ackMsg(kif::SYSC_REP, slot);
    if (traced)
        trace::Tracer::spanEnd(peId);
    return err;
}

Error
Env::noop()
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::Noop;
    return sysCall(m);
}

Error
Env::heartbeat()
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::Heartbeat;
    return sysCall(m);
}

Error
Env::yield()
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::Yield;
    inYield = true;
    Error e = sysCall(m);
    inYield = false;
    return e;
}

Error
Env::waitMsgYielding(epid_t ep)
{
    while (!dtu().hasMsg(ep)) {
        if (!dtu().sharedPe() || inYield)
            return waitMsg(ep);
        // Spin-then-yield: a prompt reply beats a context switch, so
        // give it a short grace window before handing the PE over.
        // (A VpeMoved bail-out falls through to the outer re-check.)
        if (dtu().waitForMsg(ep, cm.m3.yieldSpin) == Error::None)
            return Error::None;
        if (yield() != Error::None) {
            // Nobody else to run: parking the fiber is free, and the
            // kernel can still preempt us when that changes.
            return waitMsg(ep);
        }
        // We were descheduled and are resident again; anything that
        // arrived meanwhile was parked and has been re-injected.
    }
    return Error::None;
}

Error
Env::createVpe(capsel_t dstSel, capsel_t mgateSel, const std::string &name,
               kif::PeTypeReq type, const std::string &attr,
               vpeid_t &vpeOut, peid_t &peOut)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::CreateVpe << dstSel << mgateSel << name << type
      << attr;
    return sysCall(m, [&](Unmarshaller &um) {
        vpeOut = static_cast<vpeid_t>(um.pull<uint64_t>());
        peOut = static_cast<peid_t>(um.pull<uint64_t>());
    });
}

Error
Env::vpeStart(capsel_t vpeSel)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::VpeStart << vpeSel;
    return sysCall(m);
}

Error
Env::vpeWait(capsel_t vpeSel, int &exitCode)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::VpeWait << vpeSel;
    return sysCall(m, [&](Unmarshaller &um) {
        exitCode = static_cast<int>(um.pull<int64_t>());
    });
}

void
Env::vpeExit(int exitCode)
{
    ScopedCategory os(acct(), Category::Os);
    Marshaller m = beginSyscall();
    m << kif::Syscall::VpeExit << static_cast<int64_t>(exitCode);
    compute(cm.m3.marshal + cm.m3.dtuCommand);
    send(kif::SYSC_SEP, syscStage, static_cast<uint32_t>(m.size()));
    dtu().waitUntilIdle();
}

Error
Env::createRgate(capsel_t dstSel, uint32_t slots, uint32_t slotSize)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::CreateRgate << dstSel
      << static_cast<uint64_t>(slots) << static_cast<uint64_t>(slotSize);
    return sysCall(m);
}

Error
Env::createSgate(capsel_t dstSel, capsel_t rgateSel, label_t label,
                 uint32_t credits)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::CreateSgate << dstSel << rgateSel << label
      << static_cast<uint64_t>(credits);
    return sysCall(m);
}

Error
Env::reqMem(capsel_t dstSel, uint64_t size, uint8_t perms)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::ReqMem << dstSel << size
      << static_cast<uint64_t>(perms);
    return sysCall(m);
}

Error
Env::deriveMem(capsel_t srcSel, capsel_t dstSel, goff_t off, uint64_t size,
               uint8_t perms)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::DeriveMem << srcSel << dstSel << off << size
      << static_cast<uint64_t>(perms);
    return sysCall(m);
}

Error
Env::activate(capsel_t capSel, epid_t ep, spmaddr_t bufAddr)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::Activate << capSel << static_cast<uint64_t>(ep)
      << static_cast<uint64_t>(bufAddr);
    return sysCall(m);
}

Error
Env::exchange(capsel_t vpeSel, capsel_t srcStart, uint32_t count,
              capsel_t dstStart, kif::ExchangeOp op)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::Exchange << vpeSel << srcStart
      << static_cast<uint64_t>(count) << dstStart << op;
    return sysCall(m);
}

Error
Env::createSrv(capsel_t dstSel, capsel_t rgateSel, const std::string &name)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::CreateSrv << dstSel << rgateSel << name;
    return sysCall(m);
}

Error
Env::openSess(capsel_t dstSel, const std::string &name, uint64_t arg)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::OpenSess << dstSel << name << arg;
    return sysCall(m);
}

Error
Env::querySrv(const std::string &name, uint64_t &groupSize,
              uint64_t &replicas)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::QuerySrv << name;
    return sysCall(m, [&](Unmarshaller &um) {
        groupSize = um.pull<uint64_t>();
        replicas = um.pull<uint64_t>();
    });
}

Error
Env::exchangeSess(capsel_t sessSel, kif::ExchangeOp op, capsel_t dstStart,
                  uint32_t count, const std::vector<uint64_t> &args,
                  std::vector<uint64_t> *ret)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::ExchangeSess << sessSel << op << dstStart
      << static_cast<uint64_t>(count)
      << static_cast<uint64_t>(args.size());
    for (uint64_t a : args)
        m << a;
    return sysCall(m, [&](Unmarshaller &um) {
        if (op == kif::ExchangeOp::Delegate)
            return;  // the kernel answers a delegate with its error alone
        auto numArgs = um.pull<uint64_t>();
        for (uint64_t i = 0; i < numArgs; ++i) {
            uint64_t v = um.pull<uint64_t>();
            if (ret)
                ret->push_back(v);
        }
    });
}

Error
Env::revoke(capsel_t capSel, bool own)
{
    Marshaller m = beginSyscall();
    m << kif::Syscall::Revoke << capSel << static_cast<uint64_t>(own);
    return sysCall(m);
}

} // namespace m3
