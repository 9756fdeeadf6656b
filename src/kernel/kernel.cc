#include "kernel/kernel.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dtu/regs.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"

namespace m3
{
namespace kernel
{

using kif::Syscall;

namespace
{

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

} // anonymous namespace

Kernel::Kernel(Platform &platform, peid_t kernelPe, goff_t dramAllocStart,
               goff_t dramAllocEnd)
    : platform(platform), kernelPe(kernelPe), costs(platform.costs().m3),
      dramNext((dramAllocStart + 63) & ~goff_t{63}),
      dramEnd(dramAllocEnd ? dramAllocEnd : platform.dram().size()),
      peBusy(platform.peCount(), false)
{
    peBusy.at(kernelPe) = true;
}

void
Kernel::setDomain(DomainCfg cfg)
{
    domain = std::move(cfg);
    // Domain-tagged VPE ids: globally unique, and the id names the
    // owning kernel (kif::domainOfVpe).
    nextVpe = domain.id * kif::VPE_DOMAIN_STRIDE + 1;
    // Distinct generation spaces per kernel so multiplexed VPEs of
    // different domains can never collide.
    nextDtuGen = (1u << 20) + domain.id * (1u << 24);
    // PEs of other domains are another kernel's business: treat them as
    // permanently busy so placement never considers them.
    for (peid_t p = 0; p < platform.peCount(); ++p)
        if (p >= domain.ownedPes.size() || !domain.ownedPes[p])
            peBusy[p] = true;
    peBusy.at(kernelPe) = true;
    freeEst = domain.ownedCounts;
    for (uint32_t peer = 0; peer < domain.count; ++peer) {
        ikChannels.emplace_back(
            ikReplies, kif::IK_CREDITS,
            [this, peer](const uint8_t *msg, uint32_t size, uint64_t id) {
                SendEpCfg cfg;
                cfg.targetNode =
                    platform.nocIdOf(domain.kernelPes.at(peer));
                cfg.targetEp = KEP_IK;
                cfg.label = domain.id;
                cfg.credits = CREDITS_UNLIMITED;  // bounded by the channel
                cfg.maxMsgSize = kif::IK_MSG_SIZE;
                Error e = sendRequest(KEP_IK_SEND, cfg, ikStage,
                                      KEP_IK_REPLY, msg, size, id);
                if (e == Error::None)
                    kstats.ikRequestsSent++;
                return e;
            });
    }
}

void
Kernel::addBootProgram(BootProgram prog)
{
    bootQueue.push_back(std::move(prog));
}

void
Kernel::start()
{
    platform.pe(kernelPe).installProgram("kernel", [this] { run(); });
    platform.pe(kernelPe).startProgram();
}

const Vpe *
Kernel::vpe(vpeid_t id) const
{
    auto it = vpes.find(id);
    return it == vpes.end() ? nullptr : it->second.get();
}

bool
Kernel::channelsIdle() const
{
    for (const auto &[name, serv] : services)
        if (!serv->chan.idle())
            return false;
    for (const KChannel &chan : ikChannels)
        if (!chan.idle())
            return false;
    return srvReplies.idle() && ikReplies.idle();
}

Vpe *
Kernel::vpeById(vpeid_t id)
{
    auto it = vpes.find(id);
    return it == vpes.end() ? nullptr : it->second.get();
}

Dtu &
Kernel::kdtu()
{
    return platform.pe(kernelPe).dtu();
}

uint32_t
Kernel::nodeOf(const Vpe &v) const
{
    return platform.nocIdOf(v.pe);
}

void
Kernel::compute(Cycles c)
{
    Fiber::current()->compute(c);
}

// ---------------------------------------------------------------------
// Boot.
// ---------------------------------------------------------------------

void
Kernel::bootSetup()
{
    Spm &spm = platform.pe(kernelPe).spm();
    syscRing = spm.alloc(kif::KSYSC_SLOTS * kif::MAX_SYSC_MSG);
    // One reply slot per in-flight request on any service channel (the
    // reply table holds a request back while no slot is free).
    srvRing = spm.alloc(srvReplies.slots() * 512);
    stage = spm.alloc(kif::MAX_SYSC_MSG);
    srvStage = spm.alloc(kif::MAX_SYSC_MSG);
    // The SPM spill/fill staging buffer exists only when multiplexing
    // (or migration, which reuses the spill machinery) is enabled, so
    // default setups keep their exact SPM layout.
    if (timeSlice || migration)
        ctxStage = spm.alloc(CTX_CHUNK);

    RecvEpCfg sysc;
    sysc.bufAddr = syscRing;
    sysc.slotCount = kif::KSYSC_SLOTS;
    sysc.slotSize = kif::MAX_SYSC_MSG;
    sysc.replyProtected = true;
    kdtu().configRecv(KEP_SYSC, sysc);

    RecvEpCfg srv;
    srv.bufAddr = srvRing;
    srv.slotCount = srvReplies.slots();
    srv.slotSize = 512;
    kdtu().configRecv(KEP_SRV_REPLY, srv);

    // Multi-kernel: the inter-kernel rings must exist before any peer
    // can send (all kernels run bootSetup at simulation start, so the
    // local configuration races nothing).
    if (multiKernel()) {
        ikRing = spm.alloc(kif::IK_SLOTS * kif::IK_MSG_SIZE);
        ikReplyRing = spm.alloc(kif::IK_SLOTS * kif::IK_MSG_SIZE);
        ikStage = spm.alloc(kif::IK_MSG_SIZE);

        RecvEpCfg ik;
        ik.bufAddr = ikRing;
        ik.slotCount = kif::IK_SLOTS;
        ik.slotSize = kif::IK_MSG_SIZE;
        ik.replyProtected = true;
        kdtu().configRecv(KEP_IK, ik);

        RecvEpCfg ikr;
        ikr.bufAddr = ikReplyRing;
        ikr.slotCount = kif::IK_SLOTS;
        ikr.slotSize = kif::IK_MSG_SIZE;
        kdtu().configRecv(KEP_IK_REPLY, ikr);
    }

    // Downgrade all application PEs: after this, only the kernel can
    // configure endpoints anywhere (Sec. 3: NoC-level isolation). In a
    // multi-kernel machine each kernel downgrades exactly the PEs of its
    // own domain; peer kernel PEs keep their privilege.
    for (peid_t p = 0; p < platform.peCount(); ++p) {
        if (p == kernelPe)
            continue;
        if (multiKernel() &&
            (p >= domain.ownedPes.size() || !domain.ownedPes[p]))
            continue;
        kdtu().extDowngrade(platform.nocIdOf(p));
    }

    // Load the boot programs (OS services and the root application).
    for (BootProgram &prog : bootQueue) {
        if (peBusy.at(prog.pe))
            fatal("boot program '%s' wants busy PE%u", prog.name.c_str(),
                  prog.pe);
        Vpe &v = createVpeObj(prog.name, prog.pe);
        peBusy[prog.pe] = true;
        for (const BootCap &bc : prog.caps) {
            v.caps.put(bc.sel, std::make_shared<MemObj>(bc.node, bc.off,
                                                        bc.size, bc.perms));
        }
        configureVpeEps(v);
        auto main = prog.main;
        vpeid_t id = v.id;
        platform.pe(prog.pe).installProgram(prog.name,
                                            [main, id] { main(id); });
        v.state = Vpe::State::Running;
        v.lastActivity = platform.simulator().curCycle();
        kdtu().extStart(nodeOf(v));
        compute(costs.epConfig);
    }
    bootQueue.clear();
}

Vpe &
Kernel::createVpeObj(const std::string &name, peid_t pe)
{
    vpeid_t id = nextVpe++;
    auto v = std::make_unique<Vpe>(id, name, pe);
    Vpe &ref = *v;
    vpes[id] = std::move(v);
    kstats.vpesCreated++;
    return ref;
}

void
Kernel::configureVpeEps(Vpe &v)
{
    uint32_t node = nodeOf(v);

    SendEpCfg sep;
    sep.targetNode = platform.nocIdOf(kernelPe);
    sep.targetEp = KEP_SYSC;
    sep.label = v.id;
    // One credit per VPE: syscalls are synchronous, and the sum of all
    // credits must not exceed the ring space (Sec. 4.4.3).
    sep.credits = 1;
    sep.maxMsgSize = kif::MAX_SYSC_MSG;
    kdtu().extConfigSend(node, kif::SYSC_SEP, sep);

    RecvEpCfg rep;
    rep.bufAddr = kif::SYSC_RBUF_ADDR;
    rep.slotCount = kif::SYSC_RBUF_SLOTS;
    rep.slotSize = kif::SYSC_RBUF_SLOTSIZE;
    kdtu().extConfigRecv(node, kif::SYSC_REP, rep);

    compute(2 * costs.epConfig);
}

// ---------------------------------------------------------------------
// Main loop.
// ---------------------------------------------------------------------

void
Kernel::run()
{
    Fiber::current()->accounting().push(Category::Os);
    bootSetup();
    for (;;) {
        // The watchdog and the time-slice scheduler only need to tick
        // while a VPE could expire / is waiting for its turn; waiting
        // without a timeout otherwise lets the event queue drain once
        // all programs exited (end-of-simulation detection).
        Cycles tmo = 0;
        if (watchdogPeriod && anyWatchedVpe())
            tmo = watchdogPeriod;
        if (timeSlice && schedulePending())
            tmo = tmo ? std::min(tmo, timeSlice) : timeSlice;
        if (!pendingDrains.empty()) {
            Cycles d = nextDrainDelay(platform.simulator().curCycle());
            tmo = tmo ? std::min(tmo, d) : d;
        }
        std::vector<epid_t> waitEps{KEP_SYSC, KEP_SRV_REPLY};
        if (multiKernel()) {
            waitEps.push_back(KEP_IK);
            waitEps.push_back(KEP_IK_REPLY);
        }
        if (tmo)
            kdtu().waitForMsgs(waitEps, tmo);
        else
            kdtu().waitForMsgs(waitEps);
        int slot;
        while ((slot = kdtu().fetchMsg(KEP_SRV_REPLY)) >= 0)
            handleReply(srvReplies, KEP_SRV_REPLY,
                        static_cast<uint32_t>(slot));
        if (multiKernel()) {
            // Replies first: they refund peer credits and may dispatch
            // queued requests; then serve incoming peer requests.
            while ((slot = kdtu().fetchMsg(KEP_IK_REPLY)) >= 0)
                handleReply(ikReplies, KEP_IK_REPLY,
                            static_cast<uint32_t>(slot));
            while ((slot = kdtu().fetchMsg(KEP_IK)) >= 0)
                handleIkRequest(static_cast<uint32_t>(slot));
        }
        while ((slot = kdtu().fetchMsg(KEP_SYSC)) >= 0)
            handleSyscall(static_cast<uint32_t>(slot));
        // Message handling done: drop whatever request context the last
        // fetch left on this fiber, so timer-driven kernel work below is
        // never mis-attributed to an application request.
        if (M3_REQTRACE_ON)
            Fiber::current()->setReqCtx(0);
        if (!pendingDrains.empty())
            checkDrains();
        if (watchdogPeriod)
            checkWatchdog();
        if (timeSlice)
            checkSchedule();
    }
}

bool
Kernel::isServiceOwner(vpeid_t id) const
{
    for (const auto &[name, serv] : services)
        if (serv->owner == id)
            return true;
    return false;
}

bool
Kernel::anyWatchedVpe() const
{
    for (const auto &[id, v] : vpes)
        if (v->state == Vpe::State::Running && !isServiceOwner(id))
            return true;
    return false;
}

Vpe *
Kernel::deferredReplySent(vpeid_t caller)
{
    Vpe *v = vpeById(caller);
    if (!v)
        return nullptr;
    // The reply wakes the VPE; give it a full deadline to show life.
    v->lastActivity = platform.simulator().curCycle();
    if (v->pendingReplies)
        v->pendingReplies--;
    return v;
}

void
Kernel::checkWatchdog()
{
    Cycles now = platform.simulator().curCycle();
    // Snapshot first: reclaiming mutates the VPE map (cap revocation
    // can finish child VPEs, releasing PEs may admit pending creates).
    std::vector<vpeid_t> expired;
    for (const auto &[id, v] : vpes) {
        // Service owners are exempt while their core lives: they
        // legitimately block on their rings between requests; their
        // health shows up as request timeouts at their clients instead.
        // A service owner whose *core died* must still be reclaimed,
        // or its registration wedges every later OpenSess (the kernel
        // would defer against a server that can never answer). VPEs
        // with a deferred kernel reply are blocked *in the kernel* and
        // cannot heartbeat, so they are not counted as unresponsive
        // either.
        if (v->state == Vpe::State::Running && v->pendingReplies == 0 &&
            (!isServiceOwner(id) || platform.pe(v->pe).coreKilled()) &&
            now - v->lastActivity > watchdogDeadline) {
            expired.push_back(id);
        }
    }
    for (vpeid_t id : expired) {
        Vpe *v = vpeById(id);
        if (!v || v->state != Vpe::State::Running)
            continue;
        // The DTU stays reachable even when the core died (Sec. 3), so
        // the kernel can tell "the hardware failed" from "the program
        // misbehaved" and react differently: a dead PE's VPE can be
        // restarted elsewhere, a misbehaving VPE is reclaimed.
        if (platform.pe(v->pe).coreKilled()) {
            if (failover && v->dtuGen != 0 &&
                platform.pe(v->pe).hasRetained(v->id)) {
                failoverVpe(*v);
            } else {
                reclaimVpe(*v, kif::EXIT_PE_DEAD);
            }
        } else {
            reclaimVpe(*v, kif::EXIT_RECLAIMED);
        }
    }
}

void
Kernel::reclaimVpe(Vpe &v, int exitCode)
{
    logtrace("kernel: watchdog: vpe%u (pe%u) unresponsive, reclaiming",
             v.id, v.pe);
    kstats.watchdogReclaims++;

    // Stop the core first: an unresponsive program must not resume
    // after its DTU is reset. On the real platform this is the
    // NoC-level reset; the core model makes it a separate step. (A
    // PE-death reclaim finds the core already dead; killing again is a
    // no-op.)
    platform.pe(v.pe).killCore();

    // Revoke everything the VPE held; children owned by other VPEs die
    // with their parents, exactly like an explicit revoke.
    for (capsel_t sel : v.caps.sels()) {
        Capability *cap = v.caps.get(sel);
        if (cap)
            revokeRec(cap);
    }

    // Reset the DTU, free the PE and answer waiters; the exit code
    // tells VpeWait callers whether the program or the PE failed.
    finishVpe(v, exitCode);
}

void
Kernel::reply(uint32_t slot, const void *msg, uint32_t size)
{
    replyOnEp(KEP_SYSC, slot, msg, size);
}

void
Kernel::replyOnEp(epid_t ep, uint32_t slot, const void *msg, uint32_t size)
{
    Spm &spm = platform.pe(kernelPe).spm();
    spm.write(stage, msg, size);
    compute(costs.marshal + costs.dtuCommand);
    Error e = kdtu().startReply(ep, slot, stage, size);
    if (e != Error::None)
        panic("kernel reply failed: %s", errorName(e));
    kdtu().waitUntilIdle();
}

void
Kernel::replyError(uint32_t slot, Error e)
{
    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    m << e;
    reply(slot, buf, static_cast<uint32_t>(m.size()));
}

void
Kernel::handleSyscall(uint32_t slot)
{
    kstats.syscalls++;
    MessageHeader hdr = kdtu().msgHeader(KEP_SYSC, slot);
    Vpe *caller = vpeById(static_cast<vpeid_t>(hdr.label));
    if (!caller) {
        warn("syscall from unknown VPE %llu",
             static_cast<unsigned long long>(hdr.label));
        replyError(slot, Error::NoSuchVpe);
        return;
    }

    // Any syscall proves the VPE's core is alive (watchdog liveness).
    caller->lastActivity = platform.simulator().curCycle();

    // A request sent just before a migration can arrive *after* the
    // migration patched the ring: its stored sender node is the old
    // home, and a reply would go to a PE the VPE no longer occupies.
    // The kernel is the only replier on this ring, so patching at
    // dispatch closes the race deterministically.
    if (nodeOf(*caller) != hdr.senderNode)
        kdtu().retargetReplies(KEP_SYSC, caller->id, nodeOf(*caller));

    Spm &spm = platform.pe(kernelPe).spm();
    const uint8_t *payload =
        spm.ptr(kdtu().msgAddr(KEP_SYSC, slot) + sizeof(MessageHeader),
                hdr.length);
    Unmarshaller um(payload, hdr.length);
    auto opcode = um.pull<Syscall>();

    compute(costs.fetchMsg + costs.unmarshal + costs.syscallDispatch);

    const bool traced = M3_TRACE_ON;
    if (traced)
        trace::Tracer::spanBegin(kernelPe, kif::syscallName(opcode));
    const Cycles sysStart = platform.simulator().curCycle();

    switch (opcode) {
      case Syscall::Noop:
        sysNoop(*caller, um, slot);
        break;
      case Syscall::CreateVpe:
        sysCreateVpe(*caller, um, slot);
        break;
      case Syscall::VpeStart:
        sysVpeStart(*caller, um, slot);
        break;
      case Syscall::VpeWait:
        sysVpeWait(*caller, um, slot);
        break;
      case Syscall::VpeExit:
        sysVpeExit(*caller, um, slot);
        break;
      case Syscall::CreateRgate:
        sysCreateRgate(*caller, um, slot);
        break;
      case Syscall::CreateSgate:
        sysCreateSgate(*caller, um, slot);
        break;
      case Syscall::ReqMem:
        sysReqMem(*caller, um, slot);
        break;
      case Syscall::DeriveMem:
        sysDeriveMem(*caller, um, slot);
        break;
      case Syscall::Activate:
        sysActivate(*caller, um, slot);
        break;
      case Syscall::Exchange:
        sysExchange(*caller, um, slot);
        break;
      case Syscall::CreateSrv:
        sysCreateSrv(*caller, um, slot);
        break;
      case Syscall::OpenSess:
        sysOpenSess(*caller, um, slot);
        break;
      case Syscall::ExchangeSess:
        sysExchangeSess(*caller, um, slot);
        break;
      case Syscall::Revoke:
        sysRevoke(*caller, um, slot);
        break;
      case Syscall::Heartbeat:
        sysHeartbeat(*caller, um, slot);
        break;
      case Syscall::Yield:
        sysYield(*caller, um, slot);
        break;
      case Syscall::QuerySrv:
        sysQuerySrv(*caller, um, slot);
        break;
      default:
        replyError(slot, Error::InvalidArgs);
        break;
    }

    if (traced)
        trace::Tracer::spanEnd(kernelPe);
    if (M3_METRICS_ON) {
        // Resolved on first use; unknown opcodes share the last entry.
        static std::pair<trace::Counter *, trace::Histogram *>
            handles[size_t(Syscall::COUNT) + 1];
        auto &[count, cycles] =
            handles[std::min(size_t(opcode), size_t(Syscall::COUNT))];
        if (!count) {
            std::string base =
                std::string("kernel.syscall.") + kif::syscallName(opcode);
            count = &trace::Metrics::counter(base + ".count");
            cycles = &trace::Metrics::histogram(base + ".cycles");
        }
        count->inc();
        cycles->observe(platform.simulator().curCycle() - sysStart);
    }
}

// ---------------------------------------------------------------------
// Syscall handlers.
// ---------------------------------------------------------------------

void
Kernel::sysNoop(Vpe &, Unmarshaller &, uint32_t slot)
{
    compute(costs.nullHandler);
    replyError(slot, Error::None);
}

void
Kernel::sysHeartbeat(Vpe &, Unmarshaller &, uint32_t slot)
{
    // lastActivity was already refreshed by the dispatch path; the
    // handler only has to acknowledge.
    kstats.heartbeats++;
    compute(costs.nullHandler);
    replyError(slot, Error::None);
}

void
Kernel::sysCreateVpe(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    PendingVpeReq req;
    req.caller = caller.id;
    req.slot = slot;
    req.dstSel = um.pull<capsel_t>();
    req.mgateSel = um.pull<capsel_t>();
    req.name = um.pull<std::string>();
    req.type = um.pull<kif::PeTypeReq>();
    req.attr = um.pull<std::string>();

    if (caller.caps.get(req.dstSel) || caller.caps.get(req.mgateSel)) {
        replyError(slot, Error::CapExists);
        return;
    }
    if (tryCreateVpe(caller, req))
        return;
    if (multiKernel()) {
        // No free PE in this domain: place the child in the least-loaded
        // peer domain first (by the free-PE estimate, which self-corrects
        // from every reply; domain id breaks ties). The reply stays
        // deferred until the owning kernel answers (or all declined).
        std::vector<uint32_t> cand;
        for (uint32_t d = 0; d < domain.count; ++d)
            if (d != domain.id && freeEst[d] > 0)
                cand.push_back(d);
        std::stable_sort(cand.begin(), cand.end(),
                         [this](uint32_t a, uint32_t b) {
                             return freeEst[a] > freeEst[b];
                         });
        if (!cand.empty()) {
            deferReply(caller);
            tryRemoteCreateVpe(req, std::move(cand));
            return;
        }
    }
    if (queueVpes) {
        // Sec. 3.3: wait for a reusable core instead of failing; the
        // reply (and thereby the caller) blocks until a PE frees up.
        deferReply(caller);
        pendingVpes.push_back(std::move(req));
        return;
    }
    replyError(slot, Error::NoFreePe);
}

bool
Kernel::tryCreateVpe(Vpe &caller, const PendingVpeReq &req)
{
    PeType wanted = req.type == kif::PeTypeReq::Accelerator
                        ? PeType::Accelerator
                        : PeType::General;

    // Select a suitable and unused PE (Sec. 4.5.5). Drained PEs are
    // about to disappear and accept no new tenants.
    peid_t chosen = INVALID_PE;
    for (peid_t p = 0; p < platform.peCount(); ++p) {
        if (!peBusy[p] && !drained(p) &&
            platform.pe(p).desc().matches(wanted, req.attr)) {
            chosen = p;
            break;
        }
    }
    bool coScheduled = false;
    if (chosen == INVALID_PE && timeSlice) {
        // Oversubscription: co-schedule onto the multiplexed PE with the
        // fewest VPEs (lowest PE id breaks ties — deterministic).
        uint32_t best = ~0u;
        for (const auto &[p, s] : scheds) {
            if (!drained(p) &&
                platform.pe(p).desc().matches(wanted, req.attr) &&
                s.assigned < best) {
                best = s.assigned;
                chosen = p;
            }
        }
        coScheduled = chosen != INVALID_PE;
    }
    if (chosen == INVALID_PE)
        return false;

    peBusy[chosen] = true;
    Vpe &child = createVpeObj(req.name, chosen);
    logtrace("kernel: vpe%u '%s' -> pe%u (for vpe%u)%s", child.id,
             req.name.c_str(), chosen, caller.id,
             coScheduled ? " [co-scheduled]" : "");

    caller.caps.put(req.dstSel, std::make_shared<VpeRefObj>(child.id));
    uint64_t spmSize = platform.pe(chosen).desc().spmDataSize;
    if (!coScheduled) {
        // The memory gate for the child's local memory enables
        // application loading (Sec. 4.5.5).
        caller.caps.put(req.mgateSel,
                        std::make_shared<MemObj>(platform.nocIdOf(chosen),
                                                 0, spmSize, MEM_RW));
    } else {
        // The PE's SPM belongs to whoever is resident; the loader writes
        // the image into the child's context-save area instead, and the
        // first resume fills the SPM from there.
        caller.caps.put(req.mgateSel,
                        std::make_shared<MemObj>(platform.dramNode(),
                                                 csaOf(child), spmSize,
                                                 MEM_RW));
    }

    if (!timeSlice && !migration) {
        configureVpeEps(child);
    } else {
        // Multiplexed (or migratable) VPEs get a kernel-assigned
        // generation and their syscall EPs via a context restore, so
        // suspend/resume, migration and the initial setup share one
        // mechanism.
        child.dtuGen = nextDtuGen++;
        buildInitialCtx(child);
        PeSched &s = scheds[chosen];
        s.assigned++;
        platform.pe(chosen).dtu().setSharedPe(s.assigned > 1);
        if (!coScheduled) {
            s.resident = child.id;
            s.residentSince = platform.simulator().curCycle();
            applyCtx(child);
        }
        compute(2 * costs.epConfig);
    }
    compute(2 * costs.capOp);

    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    m << Error::None << static_cast<uint64_t>(child.id)
      << static_cast<uint64_t>(chosen);
    reply(req.slot, buf, static_cast<uint32_t>(m.size()));
    return true;
}

void
Kernel::flushPendingVpes()
{
    for (auto it = pendingVpes.begin(); it != pendingVpes.end();) {
        Vpe *caller = vpeById(it->caller);
        if (!caller) {
            it = pendingVpes.erase(it);
            continue;
        }
        if (tryCreateVpe(*caller, *it)) {
            deferredReplySent(it->caller);
            it = pendingVpes.erase(it);
        } else {
            ++it;
        }
    }
}

void
Kernel::sysVpeStart(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto vpeSel = um.pull<capsel_t>();
    Capability *cap = caller.caps.get(vpeSel, ObjType::Vpe);
    if (!cap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    vpeid_t childId = static_cast<VpeRefObj &>(*cap->obj).vpe;
    if (multiKernel() && kif::domainOfVpe(childId) != domain.id) {
        // The child lives in another domain: its owning kernel starts it.
        uint8_t buf[64];
        Marshaller m(buf, sizeof(buf));
        m << kif::IkOp::VpeStart << static_cast<uint64_t>(childId);
        deferReply(caller);
        ikChannels[kif::domainOfVpe(childId)].send(
            buf, static_cast<uint32_t>(m.size()),
            [this, callerId = caller.id, slot](Error e, Unmarshaller &) {
                if (deferredReplySent(callerId))
                    replyOnEpError(slot, e);
            });
        return;
    }
    Vpe *child = vpeById(childId);
    if (!child || child->state != Vpe::State::Boot) {
        replyError(slot, Error::NoSuchVpe);
        return;
    }
    child->state = Vpe::State::Running;
    child->lastActivity = platform.simulator().curCycle();
    auto sIt = scheds.find(child->pe);
    if (sIt != scheds.end() && sIt->second.resident != child->id) {
        // Co-scheduled on a busy PE: just mark it runnable; the
        // scheduler switches it in and the first resume starts it.
        sIt->second.runQueue.push_back(child->id);
        compute(costs.epConfig);
        replyError(slot, Error::None);
        return;
    }
    child->started = true;
    kdtu().extStartVpe(nodeOf(*child), child->id);
    compute(costs.epConfig);
    replyError(slot, Error::None);
}

void
Kernel::sysVpeWait(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto vpeSel = um.pull<capsel_t>();
    Capability *cap = caller.caps.get(vpeSel, ObjType::Vpe);
    if (!cap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    vpeid_t childId = static_cast<VpeRefObj &>(*cap->obj).vpe;
    if (multiKernel() && kif::domainOfVpe(childId) != domain.id) {
        // Wait at the owning kernel; the local syscall stays deferred
        // until the remote exit comes back over the IK channel.
        uint8_t buf[64];
        Marshaller m(buf, sizeof(buf));
        m << kif::IkOp::VpeWait << static_cast<uint64_t>(childId);
        deferReply(caller);
        ikChannels[kif::domainOfVpe(childId)].send(
            buf, static_cast<uint32_t>(m.size()),
            [this, callerId = caller.id, slot](Error e, Unmarshaller &um) {
                if (!deferredReplySent(callerId))
                    return;
                uint8_t rbuf[64];
                Marshaller rm(rbuf, sizeof(rbuf));
                if (e == Error::None)
                    rm << Error::None << um.pull<int64_t>();
                else
                    rm << e;
                reply(slot, rbuf, static_cast<uint32_t>(rm.size()));
            });
        return;
    }
    Vpe *child = vpeById(childId);
    if (!child) {
        replyError(slot, Error::NoSuchVpe);
        return;
    }
    if (child->state == Vpe::State::Exited) {
        uint8_t buf[64];
        Marshaller m(buf, sizeof(buf));
        m << Error::None << static_cast<int64_t>(child->exitCode);
        reply(slot, buf, static_cast<uint32_t>(m.size()));
        return;
    }
    // Defer the reply until the child exits (Sec. 4.5.4's deferral idea).
    deferReply(caller);
    child->waiters.push_back({KEP_SYSC, slot, caller.id});
}

void
Kernel::sysVpeExit(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto code = um.pull<int64_t>();
    // Exit has no reply; free the ring slot explicitly.
    kdtu().ackMsg(KEP_SYSC, slot);
    finishVpe(caller, static_cast<int>(code));
}

void
Kernel::finishVpe(Vpe &v, int exitCode)
{
    if (v.state == Vpe::State::Exited)
        return;
    v.state = Vpe::State::Exited;
    v.exitCode = exitCode;
    logtrace("kernel: vpe%u exited, freeing pe%u", v.id, v.pe);

    // The VPE is gone for good: its retained failover program with it.
    platform.pe(v.pe).dropRetained(v.id);

    auto sIt = scheds.find(v.pe);
    if (sIt == scheds.end()) {
        // Reclaim the PE: reset its DTU and mark it available again.
        kdtu().extReset(nodeOf(v));
        if (!drained(v.pe)) {
            platform.pe(v.pe).release();
            peBusy[v.pe] = false;
        }
    } else {
        // A multiplexed PE is shared: drop only this VPE's share of it.
        // Messages buffered for its generation are stale now, and future
        // ones become stale once another context is restored.
        PeSched &s = sIt->second;
        if (s.resident == v.id)
            s.resident = INVALID_VPE;
        s.runQueue.erase(
            std::remove(s.runQueue.begin(), s.runQueue.end(), v.id),
            s.runQueue.end());
        platform.pe(v.pe).dropParked(v.id);
        kdtu().extDiscardCtx(nodeOf(v), v.dtuGen);
        if (s.assigned)
            s.assigned--;
        platform.pe(v.pe).dtu().setSharedPe(s.assigned > 1);
        if (s.assigned == 0) {
            // Last VPE gone: now the PE really is free again.
            scheds.erase(sIt);
            kdtu().extReset(nodeOf(v));
            auto bIt = borrowedPes.find(v.pe);
            if (bIt != borrowedPes.end()) {
                // The PE was leased from a peer kernel: hand it back
                // instead of feeding it into the local allocator.
                releaseBorrowedPe(bIt->second, v.pe);
                borrowedPes.erase(bIt);
            } else if (!drained(v.pe)) {
                platform.pe(v.pe).release();
                peBusy[v.pe] = false;
            }
        }
    }

    // Its services die with it.
    std::vector<std::shared_ptr<ServObj>> served;
    for (const auto &[name, serv] : services)
        if (serv->owner == v.id)
            served.push_back(serv);
    for (const auto &serv : served)
        retireService(*serv);

    for (auto [ep, slot, waitingVpe] : v.waiters) {
        deferredReplySent(waitingVpe);
        uint8_t buf[64];
        Marshaller m(buf, sizeof(buf));
        m << Error::None << static_cast<int64_t>(exitCode);
        replyOnEp(ep, slot, buf, static_cast<uint32_t>(m.size()));
    }
    v.waiters.clear();

    // A PE was released: satisfy queued VPE creations (Sec. 3.3).
    if (queueVpes)
        flushPendingVpes();
}

void
Kernel::retireService(ServObj &serv)
{
    if (serv.dead)
        return;
    serv.dead = true;
    services.erase(serv.name);
    // Its server can never answer: fail every request still pending
    // with PeerGone so the callers unblock instead of hanging.
    serv.chan.failAll(Error::PeerGone);
}

void
Kernel::sysCreateRgate(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto dstSel = um.pull<capsel_t>();
    auto slots = um.pull<uint64_t>();
    auto slotSize = um.pull<uint64_t>();
    if (slots == 0 || slots > MAX_SLOTS ||
        slotSize < sizeof(MessageHeader)) {
        replyError(slot, Error::InvalidArgs);
        return;
    }
    if (caller.caps.get(dstSel)) {
        replyError(slot, Error::CapExists);
        return;
    }
    caller.caps.put(dstSel, std::make_shared<RGateObj>(
                                caller.id, static_cast<uint32_t>(slots),
                                static_cast<uint32_t>(slotSize)));
    compute(costs.capOp);
    replyError(slot, Error::None);
}

void
Kernel::sysCreateSgate(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto dstSel = um.pull<capsel_t>();
    auto rgateSel = um.pull<capsel_t>();
    auto label = um.pull<label_t>();
    auto credits = um.pull<uint64_t>();

    Capability *rgCap = caller.caps.get(rgateSel, ObjType::RGate);
    if (!rgCap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    if (caller.caps.get(dstSel)) {
        replyError(slot, Error::CapExists);
        return;
    }
    auto rgate = std::static_pointer_cast<RGateObj>(rgCap->obj);
    caller.caps.put(dstSel,
                    std::make_shared<SGateObj>(
                        rgate, label, static_cast<uint32_t>(credits)),
                    rgCap);
    compute(costs.capOp);
    replyError(slot, Error::None);
}

void
Kernel::sysReqMem(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto dstSel = um.pull<capsel_t>();
    auto size = um.pull<uint64_t>();
    auto perms = um.pull<uint64_t>();

    size = (size + 63) & ~uint64_t{63};
    if (size == 0 || dramNext + size > dramEnd) {
        replyError(slot, Error::NoSpace);
        return;
    }
    if (caller.caps.get(dstSel)) {
        replyError(slot, Error::CapExists);
        return;
    }
    goff_t off = dramNext;
    dramNext += size;
    caller.caps.put(dstSel, std::make_shared<MemObj>(
                                platform.dramNode(), off, size,
                                static_cast<uint8_t>(perms & MEM_RW)));
    compute(costs.capOp);
    replyError(slot, Error::None);
}

void
Kernel::sysDeriveMem(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto srcSel = um.pull<capsel_t>();
    auto dstSel = um.pull<capsel_t>();
    auto off = um.pull<uint64_t>();
    auto size = um.pull<uint64_t>();
    auto perms = um.pull<uint64_t>();

    Capability *src = caller.caps.get(srcSel, ObjType::Mem);
    if (!src) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    auto &mem = static_cast<MemObj &>(*src->obj);
    if (off > mem.size || size > mem.size - off || size == 0) {
        replyError(slot, Error::OutOfBounds);
        return;
    }
    if (caller.caps.get(dstSel)) {
        replyError(slot, Error::CapExists);
        return;
    }
    caller.caps.put(dstSel,
                    std::make_shared<MemObj>(
                        mem.node, mem.off + off, size,
                        static_cast<uint8_t>(perms & mem.perms)),
                    src);
    compute(costs.capOp);
    replyError(slot, Error::None);
}

void
Kernel::sysActivate(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto capSel = um.pull<capsel_t>();
    auto ep = um.pull<uint64_t>();
    auto bufAddr = um.pull<uint64_t>();

    if (ep < kif::FIRST_FREE_EP ||
        ep >= platform.pe(caller.pe).dtu().epCount()) {
        replyError(slot, Error::InvalidArgs);
        return;
    }
    Capability *cap = caller.caps.get(capSel);
    if (!cap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    Error e = doActivate(caller, cap, static_cast<epid_t>(ep),
                         static_cast<spmaddr_t>(bufAddr));
    if (e == Error::None && cap->obj->type == ObjType::SGate) {
        auto &sg = static_cast<SGateObj &>(*cap->obj);
        if (!sg.rgate->activated) {
            // Receiver not ready: defer the reply (Sec. 4.5.4).
            deferReply(caller);
            pendingActs[sg.rgate.get()].push_back(
                PendingAct{caller.id, capSel, static_cast<epid_t>(ep),
                           slot});
            return;
        }
    }
    replyError(slot, e);
}

Error
Kernel::doActivate(Vpe &caller, Capability *cap, epid_t ep,
                   spmaddr_t bufAddr)
{
    uint32_t node = nodeOf(caller);
    compute(costs.epConfig);

    // A multiplexed caller may have been descheduled between sending the
    // syscall and the kernel processing it (or before a deferred
    // activation flushed). Its EP registers then live in its saved
    // context — the PE currently belongs to another VPE, so external
    // configuration packets must not touch it.
    const bool viaCtx = caller.dtuGen != 0 && !isResident(caller);

    switch (cap->obj->type) {
      case ObjType::RGate: {
        auto &rg = static_cast<RGateObj &>(*cap->obj);
        if (rg.owner != caller.id)
            return Error::NoPerm;
        RecvEpCfg cfg;
        cfg.bufAddr = bufAddr;
        cfg.slotCount = rg.slots;
        cfg.slotSize = rg.slotSize;
        // The kernel has verified the ring placement, so replies on the
        // stored header information are safe (Sec. 4.4.4).
        cfg.replyProtected = true;
        if (viaCtx) {
            EpRegs r;
            r.type = EpType::Receive;
            r.recv = cfg;
            caller.ctx->eps[ep] = r;
            caller.ctx->recvState[ep] = Dtu::RecvState{};
        } else {
            kdtu().extConfigRecv(node, ep, cfg);
        }
        rg.activated = true;
        rg.node = node;
        rg.ep = ep;
        cap->activatedEp = ep;
        flushPendingActivations(&rg);
        return Error::None;
      }
      case ObjType::SGate: {
        auto &sg = static_cast<SGateObj &>(*cap->obj);
        if (!sg.rgate->activated)
            return Error::None;  // deferred by the caller
        SendEpCfg cfg;
        cfg.targetNode = sg.rgate->node;
        cfg.targetEp = sg.rgate->ep;
        cfg.label = sg.label;
        cfg.credits = sg.credits;
        cfg.maxMsgSize = sg.rgate->slotSize;
        // Address the receiver's generation: if that VPE is descheduled
        // when a message arrives, the DTU buffers it instead of handing
        // it to whichever VPE owns the ring's EP index by then. For a
        // shadow of a remote domain's gate the owner is unknown here;
        // the serialized generation travels with the gate instead.
        cfg.targetGen = vpeGenOf(sg.rgate->owner);
        if (cfg.targetGen == 0)
            cfg.targetGen = sg.rgate->fixedGen;
        if (viaCtx) {
            EpRegs r;
            r.type = EpType::Send;
            r.send = cfg;
            if (r.send.maxCredits == 0)
                r.send.maxCredits = r.send.credits;
            caller.ctx->eps[ep] = r;
        } else {
            kdtu().extConfigSend(node, ep, cfg);
        }
        cap->activatedEp = ep;
        return Error::None;
      }
      case ObjType::Mem: {
        auto &mem = static_cast<MemObj &>(*cap->obj);
        MemEpCfg cfg;
        cfg.targetNode = mem.node;
        cfg.offset = mem.off;
        cfg.size = mem.size;
        cfg.perms = mem.perms;
        if (viaCtx) {
            EpRegs r;
            r.type = EpType::Memory;
            r.mem = cfg;
            caller.ctx->eps[ep] = r;
        } else {
            kdtu().extConfigMem(node, ep, cfg);
        }
        cap->activatedEp = ep;
        return Error::None;
      }
      default:
        return Error::InvalidArgs;
    }
}

void
Kernel::flushPendingActivations(RGateObj *rgate)
{
    auto it = pendingActs.find(rgate);
    if (it == pendingActs.end())
        return;
    std::vector<PendingAct> pending = std::move(it->second);
    pendingActs.erase(it);
    for (const PendingAct &pa : pending) {
        deferredReplySent(pa.vpe);
        Vpe *v = vpeById(pa.vpe);
        if (!v) {
            continue;
        }
        Capability *cap = v->caps.get(pa.capSel, ObjType::SGate);
        if (!cap) {
            replyOnEpError(pa.slot, Error::NoSuchCap);
            continue;
        }
        Error e = doActivate(*v, cap, pa.ep, 0);
        replyOnEpError(pa.slot, e);
    }
}

void
Kernel::replyOnEpError(uint32_t slot, Error e)
{
    uint8_t buf[16];
    Marshaller m(buf, sizeof(buf));
    m << e;
    replyOnEp(KEP_SYSC, slot, buf, static_cast<uint32_t>(m.size()));
}

void
Kernel::sysExchange(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto vpeSel = um.pull<capsel_t>();
    auto srcStart = um.pull<capsel_t>();
    auto count = um.pull<uint64_t>();
    auto dstStart = um.pull<capsel_t>();
    auto op = um.pull<kif::ExchangeOp>();

    Capability *vcap = caller.caps.get(vpeSel, ObjType::Vpe);
    if (!vcap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    vpeid_t otherId = static_cast<VpeRefObj &>(*vcap->obj).vpe;
    if (multiKernel() && kif::domainOfVpe(otherId) != domain.id) {
        // Cross-domain exchange: only Delegate is supported (the caller
        // pushes serialized copies of its own caps to the owning kernel;
        // Obtain would have to pull from a table this kernel cannot see).
        if (op != kif::ExchangeOp::Obtain &&
            count > 0 && count <= kif::MAX_EXCHG_CAPS) {
            uint8_t buf[kif::MAX_SYSC_MSG];
            Marshaller m(buf, sizeof(buf));
            m << kif::IkOp::DelegateCaps << static_cast<uint64_t>(otherId)
              << dstStart << count;
            for (uint64_t i = 0; i < count; ++i) {
                Capability *src = caller.caps.get(srcStart + i);
                if (!src) {
                    replyError(slot, Error::NoSuchCap);
                    return;
                }
                Error se = serializeCap(m, *src);
                if (se != Error::None) {
                    replyError(slot, se);
                    return;
                }
            }
            deferReply(caller);
            ikChannels[kif::domainOfVpe(otherId)].send(
                buf, static_cast<uint32_t>(m.size()),
                [this, callerId = caller.id, slot](Error e, Unmarshaller &) {
                    if (deferredReplySent(callerId))
                        replyOnEpError(slot, e);
                });
            return;
        }
        replyError(slot, op == kif::ExchangeOp::Obtain ? Error::NoPerm
                                                       : Error::InvalidArgs);
        return;
    }
    Vpe *other = vpeById(otherId);
    if (!other) {
        replyError(slot, Error::NoSuchVpe);
        return;
    }

    Vpe &from = op == kif::ExchangeOp::Delegate ? caller : *other;
    Vpe &to = op == kif::ExchangeOp::Delegate ? *other : caller;

    if (count == 0 || count > kif::MAX_EXCHG_CAPS) {
        replyError(slot, Error::InvalidArgs);
        return;
    }
    // Validate first: all sources present and delegable, no target clash.
    for (uint64_t i = 0; i < count; ++i) {
        Capability *src = from.caps.get(srcStart + i);
        if (!src) {
            replyError(slot, Error::NoSuchCap);
            return;
        }
        if (src->obj->type == ObjType::RGate ||
            src->obj->type == ObjType::Serv) {
            // Receive gates are not movable (Sec. 4.5.4); services stay.
            replyError(slot, Error::NoPerm);
            return;
        }
        if (to.caps.get(dstStart + i)) {
            replyError(slot, Error::CapExists);
            return;
        }
    }
    for (uint64_t i = 0; i < count; ++i) {
        Capability *src = from.caps.get(srcStart + i);
        to.caps.put(dstStart + i, src->obj, src);
        kstats.capsDelegated++;
    }
    compute(count * costs.capOp);
    replyError(slot, Error::None);
}

void
Kernel::sysCreateSrv(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto dstSel = um.pull<capsel_t>();
    auto rgateSel = um.pull<capsel_t>();
    auto name = um.pull<std::string>();

    Capability *rgCap = caller.caps.get(rgateSel, ObjType::RGate);
    if (!rgCap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    auto rgate = std::static_pointer_cast<RGateObj>(rgCap->obj);
    if (!rgate->activated) {
        replyError(slot, Error::InvalidArgs);
        return;
    }
    if (services.count(name)) {
        replyError(slot, Error::CapExists);
        return;
    }
    if (caller.caps.get(dstSel)) {
        replyError(slot, Error::CapExists);
        return;
    }
    auto serv = std::make_shared<ServObj>(
        name, caller.id, rgate, srvReplies,
        [this, rg = rgate.get()](const uint8_t *msg, uint32_t size,
                                 uint64_t id) {
            SendEpCfg cfg;
            cfg.targetNode = rg->node;
            cfg.targetEp = rg->ep;
            cfg.label = 0;
            cfg.credits = CREDITS_UNLIMITED;  // bounded by the channel
            cfg.maxMsgSize = rg->slotSize;
            Error e = sendRequest(KEP_SRV_SEND, cfg, srvStage,
                                  KEP_SRV_REPLY, msg, size, id);
            if (e == Error::None)
                kstats.serviceRequests++;
            return e;
        });
    services[name] = serv;
    caller.caps.put(dstSel, serv, rgCap);
    compute(costs.capOp);
    if (multiKernel())
        announceService(name);
    replyError(slot, Error::None);
}

Error
Kernel::sendRequest(epid_t sep, const SendEpCfg &cfg, spmaddr_t buf,
                    epid_t replyEp, const uint8_t *msg, uint32_t size,
                    uint64_t id)
{
    kdtu().configSend(sep, cfg);
    platform.pe(kernelPe).spm().write(buf, msg, size);
    compute(costs.epConfig + costs.marshal + costs.dtuCommand);
    Error e = kdtu().startSend(sep, buf, size, replyEp, id);
    if (e == Error::None)
        kdtu().waitUntilIdle();
    return e;
}

void
Kernel::handleReply(KReplyTable &replies, epid_t ep, uint32_t slot)
{
    MessageHeader hdr = kdtu().msgHeader(ep, slot);
    // Completing refunds the channel's credit and dispatches a queued
    // request before the continuation runs.
    KCont cont = replies.complete(hdr.label);
    if (!cont) {
        warn("kernel: reply on ep%u for unknown request %llu",
             static_cast<unsigned>(ep),
             static_cast<unsigned long long>(hdr.label));
        kdtu().ackMsg(ep, slot);
        return;
    }
    Spm &spm = platform.pe(kernelPe).spm();
    const uint8_t *payload = spm.ptr(
        kdtu().msgAddr(ep, slot) + sizeof(MessageHeader), hdr.length);
    Unmarshaller um(payload, hdr.length);
    kdtu().ackMsg(ep, slot);
    compute(costs.fetchMsg + costs.unmarshal);

    auto e = um.pull<Error>();
    cont(e, um);
}

void
Kernel::sysOpenSess(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto dstSel = um.pull<capsel_t>();
    auto name = um.pull<std::string>();
    auto arg = um.pull<uint64_t>();

    // A striped group name fans out by the session arg: the client's
    // placement map addresses stripe k as OpenSess(group, k).
    auto git = serviceGroups.find(name);
    if (git != serviceGroups.end() && !git->second.members.empty())
        name = git->second.members[arg % git->second.members.size()];

    auto it = services.find(name);
    if (it == services.end()) {
        if (multiKernel()) {
            auto rit = remoteServices.find(name);
            if (rit != remoteServices.end()) {
                if (caller.caps.get(dstSel)) {
                    replyError(slot, Error::CapExists);
                    return;
                }
                // The service lives in another domain: open the session
                // through its owning kernel (cross-domain mount).
                uint8_t buf[kif::IK_MSG_SIZE];
                Marshaller m(buf, sizeof(buf));
                m << kif::IkOp::OpenSess << name << arg;
                deferReply(caller);
                ikChannels[rit->second].send(
                    buf, static_cast<uint32_t>(m.size()),
                    [this, callerId = caller.id, slot, dstSel, name,
                     dom = rit->second](Error e, Unmarshaller &um) {
                        Vpe *c = deferredReplySent(callerId);
                        if (!c)
                            return;
                        if (e == Error::None) {
                            c->caps.put(dstSel, std::make_shared<SessObj>(
                                                    name, dom,
                                                    um.pull<uint64_t>()));
                            compute(costs.capOp);
                        }
                        replyOnEpError(slot, e);
                    });
                return;
            }
        }
        replyError(slot, Error::NoSuchService);
        return;
    }
    if (caller.caps.get(dstSel)) {
        replyError(slot, Error::CapExists);
        return;
    }

    uint8_t buf[128];
    Marshaller m(buf, sizeof(buf));
    m << kif::ServiceOp::Open << arg;
    deferReply(caller);
    auto serv = it->second;
    serv->chan.send(
        buf, static_cast<uint32_t>(m.size()),
        [this, callerId = caller.id, slot, dstSel,
         serv](Error e, Unmarshaller &um) {
            Vpe *c = deferredReplySent(callerId);
            if (!c)
                return;  // the caller exited meanwhile
            if (e == Error::None) {
                c->caps.put(dstSel, std::make_shared<SessObj>(
                                        serv, um.pull<uint64_t>()));
                compute(costs.capOp);
            }
            replyOnEpError(slot, e);
        });
}

void
Kernel::sysExchangeSess(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto sessSel = um.pull<capsel_t>();
    auto op = um.pull<kif::ExchangeOp>();
    auto dstStart = um.pull<capsel_t>();
    auto count = um.pull<uint64_t>();
    auto argc = um.pull<uint64_t>();

    if (count > kif::MAX_EXCHG_CAPS || argc > kif::MAX_EXCHG_ARGS) {
        replyError(slot, Error::InvalidArgs);
        return;
    }
    uint64_t args[kif::MAX_EXCHG_ARGS];
    for (uint64_t i = 0; i < argc; ++i)
        um >> args[i];

    Capability *sessCap = caller.caps.get(sessSel, ObjType::Sess);
    if (!sessCap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    auto sess = std::static_pointer_cast<SessObj>(sessCap->obj);
    if (sess->serv && sess->serv->dead) {
        // The server behind this session was reclaimed; the session cap
        // survives until revoked, but exchanges can never be answered.
        replyError(slot, Error::PeerGone);
        return;
    }
    if (sess->remote()) {
        if (op != kif::ExchangeOp::Obtain) {
            // Delegating caps into a remote session would require the
            // serving kernel to pull from this client's table; not
            // supported across domains.
            replyError(slot, Error::InvalidArgs);
            return;
        }
        uint8_t rbuf[kif::IK_MSG_SIZE];
        Marshaller rm(rbuf, sizeof(rbuf));
        rm << kif::IkOp::SessExchange << sess->remoteName << sess->ident
           << op << count << argc;
        for (uint64_t i = 0; i < argc; ++i)
            rm << args[i];
        deferReply(caller);
        ikChannels[sess->remoteDomain].send(
            rbuf, static_cast<uint32_t>(rm.size()),
            [this, callerId = caller.id, slot, dstStart,
             count](Error e, Unmarshaller &um) {
                Vpe *c = deferredReplySent(callerId);
                if (!c)
                    return;
                uint8_t buf[kif::MAX_SYSC_MSG];
                Marshaller m(buf, sizeof(buf));
                if (e != Error::None) {
                    m << e << uint64_t{0};
                    reply(slot, buf, static_cast<uint32_t>(m.size()));
                    return;
                }
                auto numCaps = um.pull<uint64_t>();
                Error xe =
                    numCaps > count ? Error::InvalidArgs : Error::None;
                for (uint64_t i = 0; xe == Error::None && i < numCaps; ++i) {
                    xe = installSerializedCap(um, *c, dstStart + i);
                    compute(costs.capOp);
                }
                if (xe == Error::None) {
                    auto numArgs = um.pull<uint64_t>();
                    m << Error::None << numArgs;
                    for (uint64_t i = 0; i < numArgs; ++i)
                        m << um.pull<uint64_t>();
                } else {
                    m << xe << uint64_t{0};
                }
                reply(slot, buf, static_cast<uint32_t>(m.size()));
            });
        return;
    }

    uint8_t buf[kif::MAX_SYSC_MSG];
    Marshaller m(buf, sizeof(buf));
    m << (op == kif::ExchangeOp::Obtain ? kif::ServiceOp::Obtain
                                        : kif::ServiceOp::Delegate)
      << sess->ident << count << argc;
    for (uint64_t i = 0; i < argc; ++i)
        m << args[i];
    deferReply(caller);
    auto serv = sess->serv;
    if (op == kif::ExchangeOp::Obtain) {
        serv->chan.send(buf, static_cast<uint32_t>(m.size()),
                        [this, callerId = caller.id, slot, serv, dstStart,
                         count](Error e, Unmarshaller &um) {
                            if (Vpe *c = deferredReplySent(callerId))
                                obtainReply(*c, *serv, slot, dstStart,
                                            count, e, um);
                        });
        return;
    }
    // Delegate: the caller's caps dstStart.. go to the service, which
    // names the selectors to put them at.
    serv->chan.send(
        buf, static_cast<uint32_t>(m.size()),
        [this, callerId = caller.id, slot, serv, dstStart,
         count](Error e, Unmarshaller &um) {
            Vpe *c = deferredReplySent(callerId);
            if (!c)
                return;
            Error xe = e;
            if (xe == Error::None) {
                auto numCaps = um.pull<uint64_t>();
                Vpe *srvVpe = vpeById(serv->owner);
                if (numCaps > count || !srvVpe)
                    xe = Error::InvalidArgs;
                for (uint64_t i = 0; xe == Error::None && i < numCaps;
                     ++i) {
                    auto srvDstSel = um.pull<capsel_t>();
                    Capability *src = c->caps.get(dstStart + i);
                    if (!src) {
                        xe = Error::NoSuchCap;
                        break;
                    }
                    if (srvVpe->caps.get(srvDstSel)) {
                        xe = Error::CapExists;
                        break;
                    }
                    srvVpe->caps.put(srvDstSel, src->obj, src);
                    kstats.capsDelegated++;
                    compute(costs.capOp);
                }
            }
            replyOnEpError(slot, xe);
        });
}

void
Kernel::obtainReply(Vpe &caller, ServObj &serv, uint32_t slot,
                    capsel_t dstStart, uint64_t count, Error e,
                    Unmarshaller &um)
{
    uint8_t buf[kif::MAX_SYSC_MSG];
    Marshaller m(buf, sizeof(buf));
    // The service names its caps by selector. Check the whole list
    // before installing any, so an error never leaves a partial
    // exchange behind or payload unread in the wrong place.
    std::vector<Capability *> srcs;
    Error xe = e;
    if (xe == Error::None) {
        auto numCaps = um.pull<uint64_t>();
        Vpe *srvVpe = vpeById(serv.owner);
        if (numCaps > count || !srvVpe)
            xe = Error::InvalidArgs;
        for (uint64_t i = 0; xe == Error::None && i < numCaps; ++i) {
            Capability *src = srvVpe->caps.get(um.pull<capsel_t>());
            if (!src)
                xe = Error::NoSuchCap;
            else if (caller.caps.get(dstStart + i))
                xe = Error::CapExists;
            else
                srcs.push_back(src);
        }
    }
    if (xe != Error::None) {
        m << xe << uint64_t{0};
        reply(slot, buf, static_cast<uint32_t>(m.size()));
        return;
    }
    for (size_t i = 0; i < srcs.size(); ++i) {
        caller.caps.put(dstStart + i, srcs[i]->obj, srcs[i]);
        kstats.capsDelegated++;
        compute(costs.capOp);
    }
    auto numArgs = um.pull<uint64_t>();
    m << Error::None << numArgs;
    for (uint64_t i = 0; i < numArgs; ++i)
        m << um.pull<uint64_t>();
    reply(slot, buf, static_cast<uint32_t>(m.size()));
}

// ---------------------------------------------------------------------
// Multi-kernel: the inter-kernel protocol. Each kernel owns a slice of
// the PE grid; requests that concern another domain travel as ordinary
// DTU messages between kernel PEs, mirroring the kernel<->service
// channel (per-peer software credits, deferred replies hold ring
// slots). Kernels never block on each other: every request is answered
// from the main loop in continuation style.
// ---------------------------------------------------------------------

uint32_t
Kernel::freeOwnedPes() const
{
    // Non-owned PEs are pinned busy (setDomain), so this counts exactly
    // the free PEs of this kernel's domain.
    uint32_t n = 0;
    for (peid_t p = 0; p < platform.peCount(); ++p)
        if (!peBusy[p])
            n++;
    return n;
}

void
Kernel::announceService(const std::string &name)
{
    for (uint32_t d = 0; d < domain.count; ++d) {
        if (d == domain.id)
            continue;
        uint8_t buf[kif::IK_MSG_SIZE];
        Marshaller m(buf, sizeof(buf));
        m << kif::IkOp::AnnounceSrv << name
          << static_cast<uint64_t>(domain.id);
        ikNotify(d, buf, m.size());
    }
}

void
Kernel::ikNotify(uint32_t peer, const void *msg, size_t size)
{
    ikChannels[peer].send(msg, static_cast<uint32_t>(size),
                          [](Error, Unmarshaller &) {});
}

bool
Kernel::tryRemoteCreateVpe(PendingVpeReq req,
                           std::vector<uint32_t> candidates)
{
    if (candidates.empty())
        return false;
    uint32_t peer = candidates.front();
    candidates.erase(candidates.begin());

    uint8_t buf[kif::IK_MSG_SIZE];
    Marshaller m(buf, sizeof(buf));
    m << kif::IkOp::CreateVpe << req.name << req.type << req.attr;
    logtrace("kernel%u: remote CreateVpe '%s' -> kernel%u (for vpe%u)",
             domain.id, req.name.c_str(), peer, req.caller);
    ikChannels[peer].send(
        buf, static_cast<uint32_t>(m.size()),
        [this, req = std::move(req), candidates = std::move(candidates),
         peer](Error e, Unmarshaller &um) mutable {
            if (e != Error::None) {
                // The peer declined (it filled up since our estimate);
                // walk the remaining candidates before giving up.
                freeEst.at(peer) = 0;
                if (!vpeById(req.caller))
                    return;  // requester exited; drop
                if (e == Error::NoFreePe &&
                    tryRemoteCreateVpe(std::move(req),
                                       std::move(candidates)))
                    return;  // forwarded onwards, reply still deferred
                deferredReplySent(req.caller);
                replyOnEpError(req.slot, e);
                return;
            }
            auto childId = static_cast<vpeid_t>(um.pull<uint64_t>());
            auto childPe = static_cast<peid_t>(um.pull<uint64_t>());
            freeEst.at(peer) = static_cast<uint32_t>(um.pull<uint64_t>());
            Vpe *caller = vpeById(req.caller);
            if (!caller)
                return;  // requester exited; the remote child is orphaned
            caller->caps.put(req.dstSel,
                             std::make_shared<VpeRefObj>(childId));
            uint64_t spmSize = platform.pe(childPe).desc().spmDataSize;
            caller->caps.put(req.mgateSel,
                             std::make_shared<MemObj>(
                                 platform.nocIdOf(childPe), 0, spmSize,
                                 MEM_RW));
            compute(2 * costs.capOp);
            deferredReplySent(req.caller);
            uint8_t rbuf[64];
            Marshaller rm(rbuf, sizeof(rbuf));
            rm << Error::None << static_cast<uint64_t>(childId)
               << static_cast<uint64_t>(childPe);
            reply(req.slot, rbuf, static_cast<uint32_t>(rm.size()));
        });
    return true;
}

void
Kernel::ikReply(uint32_t slot, const void *msg, uint32_t size)
{
    replyOnEp(KEP_IK, slot, msg, size);
}

void
Kernel::ikReplyError(uint32_t slot, Error e)
{
    uint8_t buf[16];
    Marshaller m(buf, sizeof(buf));
    m << e;
    ikReply(slot, buf, static_cast<uint32_t>(m.size()));
}

void
Kernel::handleIkRequest(uint32_t slot)
{
    kstats.ikRequestsHandled++;
    MessageHeader hdr = kdtu().msgHeader(KEP_IK, slot);
    Spm &spm = platform.pe(kernelPe).spm();
    const uint8_t *payload =
        spm.ptr(kdtu().msgAddr(KEP_IK, slot) + sizeof(MessageHeader),
                hdr.length);
    Unmarshaller um(payload, hdr.length);
    auto op = um.pull<kif::IkOp>();

    compute(costs.fetchMsg + costs.unmarshal + costs.syscallDispatch);

    const bool traced = M3_TRACE_ON;
    if (traced)
        trace::Tracer::spanBegin(kernelPe, kif::ikOpName(op));

    switch (op) {
      case kif::IkOp::AnnounceSrv:
        ikAnnounceSrv(um, slot);
        break;
      case kif::IkOp::CreateVpe:
        ikCreateVpe(um, slot);
        break;
      case kif::IkOp::VpeStart:
        ikVpeStart(um, slot);
        break;
      case kif::IkOp::VpeWait:
        ikVpeWait(um, slot);
        break;
      case kif::IkOp::OpenSess:
        ikOpenSess(um, slot);
        break;
      case kif::IkOp::SessExchange:
        ikSessExchange(um, slot);
        break;
      case kif::IkOp::DelegateCaps:
        ikDelegateCaps(um, slot);
        break;
      case kif::IkOp::PeLease:
        ikPeLease(um, slot);
        break;
      case kif::IkOp::PeRelease:
        ikPeRelease(um, slot);
        break;
      case kif::IkOp::CapsRehome:
        ikCapsRehome(um, slot);
        break;
      default:
        ikReplyError(slot, Error::InvalidArgs);
        break;
    }

    if (traced)
        trace::Tracer::spanEnd(kernelPe);
    if (M3_METRICS_ON) {
        // Resolved once per opcode, like the syscall handles.
        static trace::Counter *counts[size_t(kif::IkOp::COUNT) + 1];
        trace::Counter *&c =
            counts[std::min(size_t(op), size_t(kif::IkOp::COUNT))];
        if (!c)
            c = &trace::Metrics::counter(std::string("kernel.ik.") +
                                         kif::ikOpName(op) + ".count");
        c->inc();
    }
}

void
Kernel::ikAnnounceSrv(Unmarshaller &um, uint32_t slot)
{
    auto name = um.pull<std::string>();
    auto dom = um.pull<uint64_t>();
    remoteServices[name] = static_cast<uint32_t>(dom);
    ikReplyError(slot, Error::None);
}

void
Kernel::ikCreateVpe(Unmarshaller &um, uint32_t slot)
{
    auto name = um.pull<std::string>();
    auto type = um.pull<kif::PeTypeReq>();
    auto attr = um.pull<std::string>();

    PeType wanted = type == kif::PeTypeReq::Accelerator
                        ? PeType::Accelerator
                        : PeType::General;
    peid_t chosen = INVALID_PE;
    for (peid_t p = 0; p < platform.peCount(); ++p) {
        if (!peBusy[p] && !drained(p) &&
            platform.pe(p).desc().matches(wanted, attr)) {
            chosen = p;
            break;
        }
    }
    if (chosen == INVALID_PE) {
        // This domain is full too. Do NOT re-forward: the requesting
        // kernel walks its own candidate list, so a single hop suffices
        // and forwarding loops are impossible.
        ikReplyError(slot, Error::NoFreePe);
        return;
    }

    peBusy[chosen] = true;
    Vpe &child = createVpeObj(name, chosen);
    kstats.remoteVpesPlaced++;
    logtrace("kernel%u: remote vpe%u '%s' -> pe%u", domain.id, child.id,
             name.c_str(), chosen);
    // The child's syscall EPs point at THIS kernel, so its syscalls
    // route to the owning domain; the remote parent loads the image
    // through a Mem capability over the child's SPM (installed by the
    // requesting kernel from this reply).
    configureVpeEps(child);
    compute(2 * costs.capOp);

    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    m << Error::None << static_cast<uint64_t>(child.id)
      << static_cast<uint64_t>(chosen)
      << static_cast<uint64_t>(freeOwnedPes());
    ikReply(slot, buf, static_cast<uint32_t>(m.size()));
}

void
Kernel::ikVpeStart(Unmarshaller &um, uint32_t slot)
{
    auto id = static_cast<vpeid_t>(um.pull<uint64_t>());
    Vpe *child = vpeById(id);
    if (!child || child->state != Vpe::State::Boot) {
        ikReplyError(slot, Error::NoSuchVpe);
        return;
    }
    child->state = Vpe::State::Running;
    child->lastActivity = platform.simulator().curCycle();
    child->started = true;
    kdtu().extStartVpe(nodeOf(*child), child->id);
    compute(costs.epConfig);
    ikReplyError(slot, Error::None);
}

void
Kernel::ikVpeWait(Unmarshaller &um, uint32_t slot)
{
    auto id = static_cast<vpeid_t>(um.pull<uint64_t>());
    Vpe *child = vpeById(id);
    if (!child) {
        ikReplyError(slot, Error::NoSuchVpe);
        return;
    }
    if (child->state == Vpe::State::Exited) {
        uint8_t buf[64];
        Marshaller m(buf, sizeof(buf));
        m << Error::None << static_cast<int64_t>(child->exitCode);
        ikReply(slot, buf, static_cast<uint32_t>(m.size()));
        return;
    }
    // Defer: the ring slot is held until the child exits, exactly like
    // a local VpeWait. finishVpe answers it via the waiter list.
    child->waiters.push_back({KEP_IK, slot, INVALID_VPE});
}

void
Kernel::ikOpenSess(Unmarshaller &um, uint32_t slot)
{
    auto name = um.pull<std::string>();
    auto arg = um.pull<uint64_t>();

    auto it = services.find(name);
    if (it == services.end()) {
        ikReplyError(slot, Error::NoSuchService);
        return;
    }
    // The request came in over the IK channel on behalf of a remote
    // kernel; relay the service's answer back onto that ring slot.
    uint8_t buf[128];
    Marshaller m(buf, sizeof(buf));
    m << kif::ServiceOp::Open << arg;
    it->second->chan.send(buf, static_cast<uint32_t>(m.size()),
                          [this, slot](Error e, Unmarshaller &um) {
                              uint8_t rbuf[kif::IK_MSG_SIZE];
                              Marshaller rm(rbuf, sizeof(rbuf));
                              if (e == Error::None)
                                  rm << Error::None << um.pull<uint64_t>();
                              else
                                  rm << e;
                              ikReply(slot, rbuf,
                                      static_cast<uint32_t>(rm.size()));
                          });
}

void
Kernel::ikSessExchange(Unmarshaller &um, uint32_t slot)
{
    auto name = um.pull<std::string>();
    auto ident = um.pull<uint64_t>();
    auto op = um.pull<kif::ExchangeOp>();
    auto count = um.pull<uint64_t>();
    auto argc = um.pull<uint64_t>();
    if (count > kif::MAX_EXCHG_CAPS || argc > kif::MAX_EXCHG_ARGS) {
        ikReplyError(slot, Error::InvalidArgs);
        return;
    }
    uint64_t args[kif::MAX_EXCHG_ARGS];
    for (uint64_t i = 0; i < argc; ++i)
        um >> args[i];

    auto it = services.find(name);
    if (it == services.end()) {
        ikReplyError(slot, Error::NoSuchService);
        return;
    }
    if (op != kif::ExchangeOp::Obtain) {
        ikReplyError(slot, Error::NoPerm);
        return;
    }
    uint8_t buf[kif::MAX_SYSC_MSG];
    Marshaller m(buf, sizeof(buf));
    m << kif::ServiceOp::Obtain << ident << count << argc;
    for (uint64_t i = 0; i < argc; ++i)
        m << args[i];
    auto serv = it->second;
    serv->chan.send(buf, static_cast<uint32_t>(m.size()),
                    [this, slot, serv, count](Error e, Unmarshaller &um) {
                        remoteObtainReply(*serv, slot, count, e, um);
                    });
}

void
Kernel::remoteObtainReply(ServObj &serv, uint32_t slot, uint64_t count,
                          Error e, Unmarshaller &um)
{
    uint8_t buf[kif::IK_MSG_SIZE];
    Marshaller m(buf, sizeof(buf));
    if (e != Error::None) {
        m << e << uint64_t{0} << uint64_t{0};
        ikReply(slot, buf, static_cast<uint32_t>(m.size()));
        return;
    }
    auto numCaps = um.pull<uint64_t>();
    Vpe *srvVpe = vpeById(serv.owner);
    Error xe =
        (numCaps > count || !srvVpe) ? Error::InvalidArgs : Error::None;
    // The service names its caps by selector; serialize them for the
    // remote kernel to install as shadow caps. Validate first so the
    // reply never carries a partial cap list.
    std::vector<Capability *> srcs;
    for (uint64_t i = 0; xe == Error::None && i < numCaps; ++i) {
        Capability *src = srvVpe->caps.get(um.pull<capsel_t>());
        if (!src)
            xe = Error::NoSuchCap;
        else
            srcs.push_back(src);
    }
    m << xe << static_cast<uint64_t>(xe == Error::None ? numCaps : 0);
    if (xe != Error::None) {
        m << uint64_t{0};
        ikReply(slot, buf, static_cast<uint32_t>(m.size()));
        return;
    }
    for (Capability *src : srcs) {
        Error se = serializeCap(m, *src);
        if (se != Error::None) {
            // Undelegable object (receive gate / service): restart the
            // reply as a clean error.
            Marshaller em(buf, sizeof(buf));
            em << se << uint64_t{0} << uint64_t{0};
            ikReply(slot, buf, static_cast<uint32_t>(em.size()));
            return;
        }
        compute(costs.capOp);
    }
    auto numArgs = um.pull<uint64_t>();
    m << numArgs;
    for (uint64_t i = 0; i < numArgs; ++i)
        m << um.pull<uint64_t>();
    ikReply(slot, buf, static_cast<uint32_t>(m.size()));
}

void
Kernel::ikDelegateCaps(Unmarshaller &um, uint32_t slot)
{
    auto dstVpe = static_cast<vpeid_t>(um.pull<uint64_t>());
    auto dstStart = um.pull<capsel_t>();
    auto count = um.pull<uint64_t>();

    Vpe *to = vpeById(dstVpe);
    if (!to) {
        ikReplyError(slot, Error::NoSuchVpe);
        return;
    }
    Error e = Error::None;
    for (uint64_t i = 0; e == Error::None && i < count; ++i)
        e = installSerializedCap(um, *to, dstStart + i);
    compute(count * costs.capOp);
    ikReplyError(slot, e);
}

void
Kernel::ikPeLease(Unmarshaller &um, uint32_t slot)
{
    auto type = um.pull<kif::PeTypeReq>();
    auto attr = um.pull<std::string>();

    PeType wanted = type == kif::PeTypeReq::Accelerator
                        ? PeType::Accelerator
                        : PeType::General;
    peid_t chosen = INVALID_PE;
    for (peid_t p = 0; p < platform.peCount(); ++p) {
        if (!peBusy[p] && !drained(p) &&
            platform.pe(p).desc().matches(wanted, attr)) {
            chosen = p;
            break;
        }
    }
    if (chosen == INVALID_PE) {
        ikReplyError(slot, Error::NoFreePe);
        return;
    }
    // The borrower keeps VPE ownership and drives the PE's DTU via ext
    // commands (downgraded PEs accept them from any kernel PE); this
    // kernel only takes the PE out of its own allocator until the
    // matching PeRelease hands it back.
    peBusy[chosen] = true;
    kstats.pesLeased++;
    logtrace("kernel%u: leasing pe%u to a peer kernel", domain.id,
             chosen);
    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    m << Error::None << static_cast<uint64_t>(chosen);
    ikReply(slot, buf, static_cast<uint32_t>(m.size()));
}

void
Kernel::ikPeRelease(Unmarshaller &um, uint32_t slot)
{
    auto pe = static_cast<peid_t>(um.pull<uint64_t>());
    if (pe >= platform.peCount() || pe >= domain.ownedPes.size() ||
        !domain.ownedPes[pe]) {
        ikReplyError(slot, Error::InvalidArgs);
        return;
    }
    logtrace("kernel%u: pe%u returned by a peer kernel", domain.id, pe);
    platform.pe(pe).release();
    peBusy[pe] = false;
    ikReplyError(slot, Error::None);
    if (queueVpes)
        flushPendingVpes();
}

void
Kernel::ikCapsRehome(Unmarshaller &um, uint32_t slot)
{
    auto oldNode = static_cast<uint32_t>(um.pull<uint64_t>());
    auto gen = static_cast<uint32_t>(um.pull<uint64_t>());
    auto newNode = static_cast<uint32_t>(um.pull<uint64_t>());
    if (gen == 0) {
        ikReplyError(slot, Error::InvalidArgs);
        return;
    }

    // A VPE of another domain moved. Shadow receive gates of that VPE
    // live inside send-gate caps installed by cross-domain exchanges;
    // they are identified by the serialized generation plus the old
    // home node. Generation filtering keeps racing messages safe:
    // anything already on the wire to the old node is discarded there
    // and the sender retries against the repointed gate.
    uint64_t patched = 0;
    for (auto &[id, v] : vpes) {
        for (capsel_t sel : v->caps.sels()) {
            Capability *cap = v->caps.get(sel);
            if (!cap || cap->obj->type != ObjType::SGate)
                continue;
            auto &sg = static_cast<SGateObj &>(*cap->obj);
            if (sg.rgate->fixedGen == gen && sg.rgate->node == oldNode) {
                sg.rgate->node = newNode;
                patched++;
            }
        }
    }
    compute(patched * costs.capOp);
    ikReplyError(slot, Error::None);
}

Error
Kernel::serializeCap(Marshaller &m, Capability &cap)
{
    switch (cap.obj->type) {
      case ObjType::SGate: {
        auto &sg = static_cast<SGateObj &>(*cap.obj);
        if (!sg.rgate->activated)
            return Error::InvalidArgs;
        uint32_t gen = vpeGenOf(sg.rgate->owner);
        if (gen == 0)
            gen = sg.rgate->fixedGen;
        m << static_cast<uint64_t>(ObjType::SGate)
          << static_cast<uint64_t>(sg.rgate->node)
          << static_cast<uint64_t>(sg.rgate->ep)
          << static_cast<uint64_t>(sg.rgate->slotSize)
          << static_cast<uint64_t>(gen) << sg.label
          << static_cast<uint64_t>(sg.credits);
        return Error::None;
      }
      case ObjType::Mem: {
        auto &mem = static_cast<MemObj &>(*cap.obj);
        m << static_cast<uint64_t>(ObjType::Mem)
          << static_cast<uint64_t>(mem.node) << mem.off << mem.size
          << static_cast<uint64_t>(mem.perms);
        return Error::None;
      }
      case ObjType::Sess: {
        auto &sess = static_cast<SessObj &>(*cap.obj);
        uint32_t dom = sess.remote() ? sess.remoteDomain : domain.id;
        std::string nm = sess.remote() ? sess.remoteName
                                       : sess.serv->name;
        m << static_cast<uint64_t>(ObjType::Sess) << nm
          << static_cast<uint64_t>(dom) << sess.ident;
        return Error::None;
      }
      case ObjType::Vpe: {
        m << static_cast<uint64_t>(ObjType::Vpe)
          << static_cast<uint64_t>(
                 static_cast<VpeRefObj &>(*cap.obj).vpe);
        return Error::None;
      }
      default:
        // Receive gates and services never move across domains.
        return Error::NoPerm;
    }
}

Error
Kernel::installSerializedCap(Unmarshaller &um, Vpe &target, capsel_t sel)
{
    if (target.caps.get(sel))
        return Error::CapExists;
    auto type = static_cast<ObjType>(um.pull<uint64_t>());
    switch (type) {
      case ObjType::SGate: {
        auto node = um.pull<uint64_t>();
        auto ep = um.pull<uint64_t>();
        auto slotSize = um.pull<uint64_t>();
        auto gen = um.pull<uint64_t>();
        auto label = um.pull<label_t>();
        auto credits = um.pull<uint64_t>();
        // A shadow receive gate carrying the remote ring's coordinates.
        // It is parentless here, so local revocation stays domain-local
        // (no cross-domain revoke propagation).
        auto rg = std::make_shared<RGateObj>(
            INVALID_VPE, 1, static_cast<uint32_t>(slotSize));
        rg->activated = true;
        rg->node = static_cast<uint32_t>(node);
        rg->ep = static_cast<epid_t>(ep);
        rg->fixedGen = static_cast<uint32_t>(gen);
        target.caps.put(sel, std::make_shared<SGateObj>(
                                 rg, label,
                                 static_cast<uint32_t>(credits)));
        kstats.capsDelegated++;
        return Error::None;
      }
      case ObjType::Mem: {
        auto node = um.pull<uint64_t>();
        auto off = um.pull<goff_t>();
        auto size = um.pull<uint64_t>();
        auto perms = um.pull<uint64_t>();
        target.caps.put(sel, std::make_shared<MemObj>(
                                 static_cast<uint32_t>(node), off, size,
                                 static_cast<uint8_t>(perms)));
        kstats.capsDelegated++;
        return Error::None;
      }
      case ObjType::Sess: {
        auto nm = um.pull<std::string>();
        auto dom = um.pull<uint64_t>();
        auto ident = um.pull<uint64_t>();
        if (dom == domain.id) {
            // The session's home is this very domain: bind it locally.
            auto it = services.find(nm);
            if (it == services.end())
                return Error::NoSuchService;
            target.caps.put(sel,
                            std::make_shared<SessObj>(it->second, ident));
        } else {
            target.caps.put(sel, std::make_shared<SessObj>(
                                     nm, static_cast<uint32_t>(dom),
                                     ident));
        }
        kstats.capsDelegated++;
        return Error::None;
      }
      case ObjType::Vpe: {
        auto id = um.pull<uint64_t>();
        target.caps.put(sel, std::make_shared<VpeRefObj>(
                                 static_cast<vpeid_t>(id)));
        kstats.capsDelegated++;
        return Error::None;
      }
      default:
        return Error::InvalidArgs;
    }
}

void
Kernel::sysRevoke(Vpe &caller, Unmarshaller &um, uint32_t slot)
{
    auto capSel = um.pull<capsel_t>();
    auto own = um.pull<uint64_t>();

    Capability *cap = caller.caps.get(capSel);
    if (!cap) {
        replyError(slot, Error::NoSuchCap);
        return;
    }
    if (own) {
        revokeRec(cap);
    } else {
        while (!cap->children.empty())
            revokeRec(cap->children.back());
    }
    replyError(slot, Error::None);
}

void
Kernel::revokeRec(Capability *cap)
{
    while (!cap->children.empty())
        revokeRec(cap->children.back());

    kstats.capsRevoked++;
    compute(costs.capOp);

    Vpe *owner = vpeById(cap->owner);

    // Hardware side effects of losing the capability.
    if (owner && cap->activatedEp != INVALID_EP &&
        owner->state != Vpe::State::Exited) {
        if (owner->dtuGen != 0 && !isResident(*owner)) {
            // The owner is descheduled: its EP lives in the saved
            // context, not on the PE.
            owner->ctx->eps[cap->activatedEp].invalidate();
            owner->ctx->recvState[cap->activatedEp] = Dtu::RecvState{};
        } else {
            kdtu().extInvalidateEp(nodeOf(*owner), cap->activatedEp);
        }
    }

    switch (cap->obj->type) {
      case ObjType::Vpe: {
        Vpe *v = vpeById(static_cast<VpeRefObj &>(*cap->obj).vpe);
        if (v && v->state != Vpe::State::Exited)
            finishVpe(*v, -1);
        break;
      }
      case ObjType::Serv:
        retireService(static_cast<ServObj &>(*cap->obj));
        break;
      case ObjType::RGate: {
        auto &rg = static_cast<RGateObj &>(*cap->obj);
        auto it = pendingActs.find(&rg);
        if (it != pendingActs.end()) {
            auto pending = std::move(it->second);
            pendingActs.erase(it);
            for (const PendingAct &pa : pending) {
                deferredReplySent(pa.vpe);
                replyOnEpError(pa.slot, Error::NoSuchCap);
            }
        }
        rg.activated = false;
        break;
      }
      default:
        break;
    }

    if (owner)
        owner->caps.remove(cap->sel);
}

// ---------------------------------------------------------------------
// Time multiplexing: kernel-driven VPE context switching (more VPEs
// than PEs). A suspend parks the core model, drains the DTU, fetches
// its context and spills the SPM to the VPE's context-save area in
// DRAM; a resume mirrors that and then unparks (or first-starts) the
// program. All transfers are real DTU/NoC traffic at DTU bandwidth;
// only the kernel's bookkeeping is charged via ctxswSave/ctxswRestore.
// ---------------------------------------------------------------------

bool
Kernel::isResident(const Vpe &v) const
{
    if (v.dtuGen == 0)
        return true;
    auto it = scheds.find(v.pe);
    return it == scheds.end() || it->second.resident == v.id;
}

uint32_t
Kernel::vpeGenOf(vpeid_t id)
{
    Vpe *v = vpeById(id);
    return v ? v->dtuGen : 0;
}

void
Kernel::buildInitialCtx(Vpe &v)
{
    v.ctx = std::make_unique<Dtu::CtxState>();
    v.ctx->generation = v.dtuGen;

    // The same syscall EPs configureVpeEps() would set up externally.
    EpRegs &sep = v.ctx->eps[kif::SYSC_SEP];
    sep.type = EpType::Send;
    sep.send.targetNode = platform.nocIdOf(kernelPe);
    sep.send.targetEp = KEP_SYSC;
    sep.send.label = v.id;
    sep.send.credits = 1;
    sep.send.maxCredits = 1;
    sep.send.maxMsgSize = kif::MAX_SYSC_MSG;

    EpRegs &rep = v.ctx->eps[kif::SYSC_REP];
    rep.type = EpType::Receive;
    rep.recv.bufAddr = kif::SYSC_RBUF_ADDR;
    rep.recv.slotCount = kif::SYSC_RBUF_SLOTS;
    rep.recv.slotSize = kif::SYSC_RBUF_SLOTSIZE;
}

void
Kernel::applyCtx(Vpe &v)
{
    ExtWaiter w;
    Error e = kdtu().extRestoreCtx(nodeOf(v), v.ctx.get(), w.cb());
    if (e != Error::None)
        panic("kernel: restoring context of vpe%u failed: %s", v.id,
              errorName(e));
    w.wait();
}

goff_t
Kernel::csaOf(Vpe &v)
{
    if (v.csa == 0) {
        uint64_t size = platform.pe(v.pe).desc().spmDataSize;
        size = (size + 63) & ~uint64_t{63};
        if (dramNext + size > dramEnd)
            fatal("out of DRAM for VPE context-save areas");
        v.csa = dramNext;
        dramNext += size;
    }
    return v.csa;
}

void
Kernel::spillSpm(Vpe &v)
{
    uint64_t size = platform.pe(v.pe).desc().spmDataSize;
    MemEpCfg spmEp;
    spmEp.targetNode = nodeOf(v);
    spmEp.offset = 0;
    spmEp.size = size;
    spmEp.perms = MEM_RW;
    MemEpCfg csaEp;
    csaEp.targetNode = platform.dramNode();
    csaEp.offset = csaOf(v);
    csaEp.size = size;
    csaEp.perms = MEM_RW;
    kdtu().configMem(KEP_CTX_SPM, spmEp);
    kdtu().configMem(KEP_CTX_CSA, csaEp);
    compute(2 * costs.epConfig);

    // Only the allocated prefix is live (the bump allocator hands out
    // every addressable buffer); the full SPM at DTU bandwidth costs
    // ~8k cycles per direction, which would dominate every switch.
    uint64_t used = platform.pe(v.pe).spm().allocated();
    used = std::min(size, (used + 63) & ~uint64_t{63});
    v.ctxBytes = used;

    for (uint64_t off = 0; off < used; off += CTX_CHUNK) {
        uint64_t n = std::min<uint64_t>(CTX_CHUNK, used - off);
        if (kdtu().startRead(KEP_CTX_SPM, ctxStage, off, n) != Error::None)
            panic("kernel: ctx spill read failed (vpe%u)", v.id);
        kdtu().waitUntilIdle();
        if (kdtu().startWrite(KEP_CTX_CSA, ctxStage, off, n) != Error::None)
            panic("kernel: ctx spill write failed (vpe%u)", v.id);
        kdtu().waitUntilIdle();
    }
}

void
Kernel::fillSpm(Vpe &v)
{
    uint64_t size = platform.pe(v.pe).desc().spmDataSize;
    MemEpCfg spmEp;
    spmEp.targetNode = nodeOf(v);
    spmEp.offset = 0;
    spmEp.size = size;
    spmEp.perms = MEM_RW;
    MemEpCfg csaEp;
    csaEp.targetNode = platform.dramNode();
    csaEp.offset = csaOf(v);
    csaEp.size = size;
    csaEp.perms = MEM_RW;
    kdtu().configMem(KEP_CTX_SPM, spmEp);
    kdtu().configMem(KEP_CTX_CSA, csaEp);
    compute(2 * costs.epConfig);

    // Restore what the last spill recorded; a first fill of a
    // loader-written image has no record and restores everything.
    uint64_t used = v.ctxBytes ? v.ctxBytes : size;

    for (uint64_t off = 0; off < used; off += CTX_CHUNK) {
        uint64_t n = std::min<uint64_t>(CTX_CHUNK, used - off);
        if (kdtu().startRead(KEP_CTX_CSA, ctxStage, off, n) != Error::None)
            panic("kernel: ctx fill read failed (vpe%u)", v.id);
        kdtu().waitUntilIdle();
        if (kdtu().startWrite(KEP_CTX_SPM, ctxStage, off, n) != Error::None)
            panic("kernel: ctx fill write failed (vpe%u)", v.id);
        kdtu().waitUntilIdle();
    }
}

void
Kernel::suspendVpe(Vpe &v)
{
    PeSched &s = scheds.at(v.pe);
    logtrace("kernel: suspending vpe%u on pe%u", v.id, v.pe);
    kstats.ctxSwitches++;
    compute(costs.ctxswSave);

    Pe &pe = platform.pe(v.pe);
    uint32_t node = nodeOf(v);

    // Stop the core model first: park the fiber and drop its DTU wait
    // registrations — a co-resident VPE must not consume its wakeups.
    // unpark() later delivers a spurious wakeup so it re-registers.
    if (v.started) {
        Fiber *f = pe.programFiber();
        if (f && !f->finished()) {
            pe.dtu().removeWaiter(f);
            pe.parkResident(v.id);
        }
    }

    // Drain: the ack is deferred until any in-flight command completed.
    {
        ExtWaiter w;
        kdtu().extDrain(node, w.cb());
        w.wait();
    }

    // Fetch the DTU context. The fetched generation stays parked at the
    // DTU, so messages for it are buffered until the VPE returns.
    if (!v.ctx)
        v.ctx = std::make_unique<Dtu::CtxState>();
    {
        ExtWaiter w;
        kdtu().extFetchCtx(node, v.ctx.get(), w.cb());
        w.wait();
    }

    // Spill the scratchpad (ringbuffer contents, stacks, heaps).
    spillSpm(v);

    s.resident = INVALID_VPE;
    s.runQueue.push_back(v.id);
}

void
Kernel::resumeVpe(Vpe &v)
{
    PeSched &s = scheds.at(v.pe);
    logtrace("kernel: resuming vpe%u on pe%u", v.id, v.pe);
    compute(costs.ctxswRestore);

    // Fill the scratchpad before restoring the context: re-injected
    // buffered messages write into the ring *after* its bytes are back.
    // For a first start on a shared PE this loads the image the parent
    // wrote into the CSA.
    if (v.csa)
        fillSpm(v);

    applyCtx(v);

    s.resident = v.id;
    s.residentSince = platform.simulator().curCycle();

    if (!v.started) {
        v.started = true;
        kdtu().extStartVpe(nodeOf(v), v.id);
    } else if (platform.pe(v.pe).hasParked(v.id)) {
        platform.pe(v.pe).resumeParked(v.id);
    }
}

void
Kernel::scheduleNext(peid_t pe, PeSched &s)
{
    // A just-exited resident may still be winding down (its fiber is
    // mid-return from the exit syscall); wait for the next tick then.
    Fiber *cur = platform.pe(pe).programFiber();
    if (cur && !cur->finished())
        return;
    while (!s.runQueue.empty()) {
        vpeid_t id = s.runQueue.front();
        s.runQueue.erase(s.runQueue.begin());
        Vpe *next = vpeById(id);
        if (!next || next->state != Vpe::State::Running)
            continue;  // exited or reclaimed while queued
        resumeVpe(*next);
        return;
    }
}

void
Kernel::checkSchedule()
{
    Cycles now = platform.simulator().curCycle();
    for (auto &[pe, s] : scheds) {
        if (s.runQueue.empty())
            continue;
        if (s.resident != INVALID_VPE) {
            Vpe *r = vpeById(s.resident);
            if (r && now - s.residentSince < timeSlice)
                continue;  // slice not yet expired
            if (r)
                suspendVpe(*r);
            else
                s.resident = INVALID_VPE;
        }
        scheduleNext(pe, s);
    }
}

bool
Kernel::schedulePending() const
{
    for (const auto &[pe, s] : scheds)
        if (!s.runQueue.empty())
            return true;
    return false;
}

void
Kernel::sysYield(Vpe &caller, Unmarshaller &, uint32_t slot)
{
    kstats.yields++;
    compute(costs.nullHandler);

    // If another VPE waits for this PE, switch now instead of letting
    // the rest of the slice run out; the caller learns from the reply
    // whether that happened (NoSuchVpe = nobody else to run, so
    // blocking locally is the right move). The reply goes out before
    // the switch: the packet is already on the wire and the NoC keeps
    // per-route FIFO order, so it lands before the context fetch
    // mutates the PE.
    auto it = scheds.find(caller.pe);
    bool canSwitch = it != scheds.end() &&
                     it->second.resident == caller.id &&
                     !it->second.runQueue.empty();
    replyError(slot, canSwitch ? Error::None : Error::NoSuchVpe);
    if (!canSwitch)
        return;
    suspendVpe(caller);
    scheduleNext(caller.pe, it->second);
}

void
Kernel::sysQuerySrv(Vpe &, Unmarshaller &um, uint32_t slot)
{
    auto name = um.pull<std::string>();
    compute(costs.nullHandler);

    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    auto git = serviceGroups.find(name);
    if (git != serviceGroups.end()) {
        m << Error::None
          << static_cast<uint64_t>(git->second.members.size())
          << static_cast<uint64_t>(git->second.replicas);
    } else if (services.count(name) ||
               (multiKernel() && remoteServices.count(name))) {
        m << Error::None << uint64_t{1} << uint64_t{1};
    } else {
        m << Error::NoSuchService;
    }
    reply(slot, buf, static_cast<uint32_t>(m.size()));
}

// ---------------------------------------------------------------------
// Live migration, drain and failover (Sec. 3's "the OS can remotely
// control every PE through the NoC", taken to its conclusion: the
// kernel can also *move* a VPE through the NoC). Migration composes
// the context-switch machinery (drain + fetch + SPM spill) with the
// capability serialization of the multi-kernel protocol; generation
// filtering at the DTUs makes racing messages fail cleanly, and the
// libm3 retry path re-resolves the moved gate and resends.
// ---------------------------------------------------------------------

Error
Kernel::migrateVpe(Vpe &v, peid_t dst)
{
    auto sIt = scheds.find(v.pe);
    if (sIt == scheds.end() || v.dtuGen == 0 ||
        v.state != Vpe::State::Running || dst == v.pe)
        return Error::InvalidArgs;

    const peid_t src = v.pe;
    const uint32_t oldNode = nodeOf(v);
    kstats.migrationsStarted++;
    logtrace("kernel: migrating vpe%u pe%u -> pe%u", v.id, src, dst);
    if (M3_TRACE_ON)
        trace::Tracer::instant(kernelPe, "migration:start");
    compute(costs.ctxswSave);

    PeSched &s = sIt->second;
    if (s.resident == v.id) {
        // Pull the running program off the core and its state out of
        // the DTU, exactly like a multiplexing suspend (minus the
        // runQueue re-insert — the VPE leaves this PE for good).
        Pe &srcPe = platform.pe(src);
        if (v.started) {
            Fiber *f = srcPe.programFiber();
            if (f && !f->finished()) {
                srcPe.dtu().removeWaiter(f);
                srcPe.parkResident(v.id);
            }
        }
        {
            ExtWaiter w;
            kdtu().extDrain(oldNode, w.cb());
            w.wait();
        }
        if (!v.ctx)
            v.ctx = std::make_unique<Dtu::CtxState>();
        {
            ExtWaiter w;
            kdtu().extFetchCtx(oldNode, v.ctx.get(), w.cb());
            w.wait();
        }
        spillSpm(v);
        s.resident = INVALID_VPE;
    } else {
        // Already descheduled: context and SPM image are in the CSA.
        s.runQueue.erase(
            std::remove(s.runQueue.begin(), s.runQueue.end(), v.id),
            s.runQueue.end());
    }

    // Move the software over before touching the source PE's bookkeeping
    // (release() would drop the parked fiber we are about to adopt). The
    // moved hook repoints the program's environment to the new PE.
    Pe &srcPe = platform.pe(src);
    Pe &dstPe = platform.pe(dst);
    if (srcPe.hasParked(v.id))
        dstPe.adoptParkedFrom(srcPe, v.id);
    else
        dstPe.adoptInstalledFrom(srcPe, v.id);

    // Drop the source PE's share.
    if (s.assigned)
        s.assigned--;
    srcPe.dtu().setSharedPe(s.assigned > 1);
    if (s.assigned == 0) {
        scheds.erase(sIt);
        kdtu().extReset(platform.nocIdOf(src));
        auto bIt = borrowedPes.find(src);
        if (bIt != borrowedPes.end()) {
            releaseBorrowedPe(bIt->second, src);
            borrowedPes.erase(bIt);
        } else if (!drained(src)) {
            srcPe.release();
            peBusy[src] = false;
        }
    }

    // Claim the destination.
    v.pe = dst;
    peBusy[dst] = true;
    PeSched &d = scheds[dst];
    d.assigned++;
    dstPe.dtu().setSharedPe(d.assigned > 1);

    // Re-home the VPE's gates: its own receive gates now live at the
    // new node, locally and (via CapsRehome) in every peer domain that
    // holds a shadow of them. Senders that already configured EPs for
    // the old home re-resolve on their retry path.
    const uint32_t newNode = platform.nocIdOf(dst);
    rehomeVpeGates(v, newNode);
    if (multiKernel())
        broadcastCapsRehome(oldNode, v.dtuGen, newNode);

    // Syscalls of the moved VPE still buffered in the kernel ring carry
    // its old home as reply target; repoint their stored headers.
    kdtu().retargetReplies(KEP_SYSC, v.id, newNode);

    v.lastActivity = platform.simulator().curCycle();
    if (d.resident == INVALID_VPE)
        resumeVpe(v);
    else
        d.runQueue.push_back(v.id);

    // Discard last: anything parked for the old incarnation between the
    // context fetch and now was sent to the old home and is stale — the
    // sender times out, re-resolves the gate and resends.
    kdtu().extDiscardCtx(oldNode, v.dtuGen);

    kstats.migrationsCompleted++;
    if (M3_TRACE_ON)
        trace::Tracer::instant(kernelPe, "migration:done");
    return Error::None;
}

peid_t
Kernel::pickMigrationTarget(const Vpe &v) const
{
    const PeDesc &want = platform.pe(v.pe).desc();
    for (peid_t p = 0; p < platform.peCount(); ++p) {
        if (!peBusy[p] && !drained(p) &&
            platform.pe(p).desc().matches(want.type, want.attr))
            return p;
    }
    if (timeSlice) {
        // Fall back to co-scheduling onto the least-loaded multiplexed
        // PE (lowest id breaks ties, deterministically).
        peid_t best = INVALID_PE;
        uint32_t load = ~0u;
        for (const auto &[p, s] : scheds) {
            if (p == v.pe || drained(p))
                continue;
            if (platform.pe(p).desc().matches(want.type, want.attr) &&
                s.assigned < load) {
                load = s.assigned;
                best = p;
            }
        }
        return best;
    }
    return INVALID_PE;
}

void
Kernel::rehomeVpeGates(Vpe &v, uint32_t newNode)
{
    // Every activated receive gate the VPE owns moves with it; the
    // kernel's own records are the single source of truth, so later
    // Activates of send gates towards them configure the new home.
    uint64_t patched = 0;
    for (capsel_t sel : v.caps.sels()) {
        Capability *cap = v.caps.get(sel);
        if (!cap || cap->obj->type != ObjType::RGate)
            continue;
        auto &rg = static_cast<RGateObj &>(*cap->obj);
        if (rg.owner == v.id && rg.activated) {
            rg.node = newNode;
            patched++;
        }
    }
    compute(patched * costs.capOp);
}

void
Kernel::broadcastCapsRehome(uint32_t oldNode, uint32_t gen,
                            uint32_t newNode)
{
    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    m << kif::IkOp::CapsRehome << static_cast<uint64_t>(oldNode)
      << static_cast<uint64_t>(gen) << static_cast<uint64_t>(newNode);
    for (uint32_t d = 0; d < domain.count; ++d)
        if (d != domain.id)
            ikNotify(d, buf, m.size());
}

bool
Kernel::requestPeLease(Vpe &v, peid_t drainSrc,
                       std::vector<uint32_t> candidates)
{
    if (candidates.empty())
        return false;
    uint32_t peer = candidates.front();
    candidates.erase(candidates.begin());
    const PeDesc &want = platform.pe(v.pe).desc();
    kif::PeTypeReq t = want.type == PeType::Accelerator
                           ? kif::PeTypeReq::Accelerator
                           : kif::PeTypeReq::General;
    uint8_t buf[kif::IK_MSG_SIZE];
    Marshaller m(buf, sizeof(buf));
    m << kif::IkOp::PeLease << t << want.attr;
    ikChannels[peer].send(
        buf, static_cast<uint32_t>(m.size()),
        [this, vpeId = v.id, drainSrc, peer,
         candidates = std::move(candidates)](Error e,
                                             Unmarshaller &um) mutable {
            Vpe *v = vpeById(vpeId);
            if (e != Error::None) {
                // This peer had nothing free; walk remaining candidates.
                if (v && v->state == Vpe::State::Running &&
                    requestPeLease(*v, drainSrc, std::move(candidates)))
                    return;
                kstats.migrationsAborted++;
                warn("kernel%u: no peer can host vpe%u, evacuation aborted",
                     domain.id, static_cast<unsigned>(vpeId));
                finishDrainStep(drainSrc);
                return;
            }
            auto pe = static_cast<peid_t>(um.pull<uint64_t>());
            if (!v || v->state != Vpe::State::Running) {
                // The VPE exited while the lease was in flight: hand the
                // PE straight back unused.
                releaseBorrowedPe(peer, pe);
                finishDrainStep(drainSrc);
                return;
            }
            borrowedPes[pe] = peer;
            migrateVpe(*v, pe);
            finishDrainStep(drainSrc);
        });
    return true;
}

void
Kernel::releaseBorrowedPe(uint32_t lender, peid_t pe)
{
    uint8_t buf[64];
    Marshaller m(buf, sizeof(buf));
    m << kif::IkOp::PeRelease << static_cast<uint64_t>(pe);
    ikNotify(lender, buf, m.size());
}

void
Kernel::drainPe(peid_t pe)
{
    if (drained(pe))
        return;
    if (drainedPes.size() < platform.peCount())
        drainedPes.resize(platform.peCount(), false);
    drainedPes[pe] = true;
    kstats.drains++;
    logtrace("kernel: draining pe%u", pe);
    if (M3_TRACE_ON)
        trace::Tracer::instant(kernelPe, "drain:start");

    DrainRun &run = activeDrains[pe];
    run.started = platform.simulator().curCycle();
    run.outstanding = 1;  // the drain itself; dropped at the end

    std::vector<vpeid_t> evacuees;
    for (const auto &[id, vp] : vpes)
        if (vp->pe == pe && vp->state == Vpe::State::Running &&
            vp->dtuGen != 0)
            evacuees.push_back(id);

    for (vpeid_t id : evacuees) {
        Vpe *v = vpeById(id);
        if (!v || v->state != Vpe::State::Running || v->pe != pe)
            continue;  // exited (or already moved) meanwhile
        peid_t dst = pickMigrationTarget(*v);
        if (dst != INVALID_PE) {
            migrateVpe(*v, dst);
            continue;
        }
        if (multiKernel()) {
            // No room in this domain: borrow a free PE from a peer
            // kernel. The evacuation completes when the lease reply
            // arrives; the drain stays open until then.
            std::vector<uint32_t> cand;
            for (uint32_t d = 0; d < domain.count; ++d)
                if (d != domain.id)
                    cand.push_back(d);
            if (requestPeLease(*v, pe, std::move(cand))) {
                run.outstanding++;
                continue;
            }
        }
        kstats.migrationsAborted++;
        warn("kernel: drain of pe%u: no target for vpe%u", pe, v->id);
    }
    finishDrainStep(pe);  // drop the drain's own hold
}

void
Kernel::finishDrainStep(peid_t pe)
{
    auto it = activeDrains.find(pe);
    if (it == activeDrains.end())
        return;
    if (it->second.outstanding)
        it->second.outstanding--;
    if (it->second.outstanding)
        return;
    Cycles dur = platform.simulator().curCycle() - it->second.started;
    activeDrains.erase(it);
    logtrace("kernel: drain of pe%u complete after %llu cycles", pe,
             static_cast<unsigned long long>(dur));
    if (M3_TRACE_ON)
        trace::Tracer::instant(kernelPe, "drain:done");
    if (M3_METRICS_ON)
        trace::Metrics::histogram("kernel.drain.cycles").observe(dur);
}

Cycles
Kernel::nextDrainDelay(Cycles now) const
{
    Cycles best = 0;
    for (const PendingDrain &d : pendingDrains) {
        Cycles delay = d.at > now ? d.at - now : 1;
        if (!best || delay < best)
            best = delay;
    }
    return best;
}

void
Kernel::checkDrains()
{
    Cycles now = platform.simulator().curCycle();
    for (auto it = pendingDrains.begin(); it != pendingDrains.end();) {
        if (it->at <= now) {
            peid_t pe = it->pe;
            it = pendingDrains.erase(it);
            drainPe(pe);
        } else {
            ++it;
        }
    }
}

void
Kernel::failoverVpe(Vpe &v)
{
    const peid_t deadPe = v.pe;
    const uint32_t oldNode = nodeOf(v);
    const uint32_t oldGen = v.dtuGen;

    // The PE is dead hardware: quarantine it for the rest of the run
    // (it stays busy and never re-enters the allocator).
    if (drainedPes.size() < platform.peCount())
        drainedPes.resize(platform.peCount(), false);
    drainedPes[deadPe] = true;

    peid_t dst = pickMigrationTarget(v);
    if (dst == INVALID_PE) {
        // Nowhere to restart: reclaim with the PE-death exit code.
        reclaimVpe(v, kif::EXIT_PE_DEAD);
        return;
    }

    kstats.failovers++;
    logtrace("kernel: failover: restarting vpe%u (pe%u died) on pe%u",
             v.id, deadPe, dst);
    if (M3_TRACE_ON)
        trace::Tracer::instant(kernelPe, "migration:failover");

    // Everything the VPE created itself refers to state that died with
    // the core (rings mid-protocol, sessions half-open); revoke it so
    // the restarted program rebuilds from scratch. Caps delegated BY
    // others survive: the parent's setup is the contract the program
    // restarts against — only their endpoint activations died.
    for (capsel_t sel : v.caps.sels()) {
        Capability *cap = v.caps.get(sel);
        if (!cap)
            continue;
        if (!cap->parent)
            revokeRec(cap);
        else
            cap->activatedEp = INVALID_EP;
    }

    // Detach from the dead PE without releasing it, and drop whatever
    // the old incarnation had parked at its DTU.
    unscheduleVpe(v);
    kdtu().extDiscardCtx(oldNode, oldGen);

    // Move the retained entry functor over and wire a fresh context: a
    // new generation (in-flight messages for the dead incarnation can
    // never reach the new one), an empty CSA, not yet started.
    platform.pe(dst).adoptRetained(platform.pe(deadPe), v.id);
    v.pe = dst;
    v.dtuGen = nextDtuGen++;
    v.csa = 0;
    v.ctxBytes = 0;
    v.started = false;
    buildInitialCtx(v);

    peBusy[dst] = true;
    PeSched &d = scheds[dst];
    d.assigned++;
    platform.pe(dst).dtu().setSharedPe(d.assigned > 1);
    v.lastActivity = platform.simulator().curCycle();
    if (d.resident == INVALID_VPE)
        resumeVpe(v);
    else
        d.runQueue.push_back(v.id);
}

void
Kernel::unscheduleVpe(Vpe &v)
{
    auto sIt = scheds.find(v.pe);
    if (sIt == scheds.end())
        return;
    PeSched &s = sIt->second;
    if (s.resident == v.id)
        s.resident = INVALID_VPE;
    s.runQueue.erase(
        std::remove(s.runQueue.begin(), s.runQueue.end(), v.id),
        s.runQueue.end());
    platform.pe(v.pe).dropParked(v.id);
    if (s.assigned)
        s.assigned--;
    platform.pe(v.pe).dtu().setSharedPe(s.assigned > 1);
    if (s.assigned == 0)
        scheds.erase(sIt);
}

} // namespace kernel
} // namespace m3
