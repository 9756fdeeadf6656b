#include "kernel/kernel.hh"

#include <algorithm>

#include "base/logging.hh"
#include "trace/reqtrace.hh"

namespace m3
{
namespace kernel
{

Kernel::Kernel(Platform &platform, peid_t kernelPe, goff_t dramAllocStart,
               goff_t dramAllocEnd)
    : platform(platform), kernelPe(kernelPe), costs(platform.costs().m3),
      dramNext((dramAllocStart + 63) & ~goff_t{63}),
      dramEnd(dramAllocEnd ? dramAllocEnd : platform.dram().size()),
      peState(platform.peCount(), PeState::Free)
{
    peState.at(kernelPe) = PeState::Busy;
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
            peState[p] = PeState::Busy;
    peState.at(kernelPe) = PeState::Busy;
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
        if (peState.at(prog.pe) != PeState::Free)
            fatal("boot program '%s' wants busy PE%u", prog.name.c_str(),
                  prog.pe);
        Vpe &v = createVpeObj(prog.name, prog.pe);
        claimPe(prog.pe, false);
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

// ---------------------------------------------------------------------
// PE placement: the one place that picks, claims and releases PEs.
// ---------------------------------------------------------------------

peid_t
Kernel::pickPe(kif::PeTypeReq type, const std::string &attr,
               bool share) const
{
    const PeType want = type == kif::PeTypeReq::Accelerator
                            ? PeType::Accelerator
                            : PeType::General;
    auto fits = [&](peid_t p) {
        return platform.pe(p).desc().matches(want, attr);
    };
    // Select a suitable and unused PE (Sec. 4.5.5).
    for (peid_t p = 0; p < platform.peCount(); ++p)
        if (peState[p] == PeState::Free && fits(p))
            return p;
    if (!share || !timeSlice)
        return INVALID_PE;
    // Oversubscription: co-schedule onto the multiplexed PE with the
    // fewest VPEs (the map's order makes the lowest id win ties).
    peid_t best = INVALID_PE;
    uint32_t load = ~0u;
    for (const auto &[p, s] : scheds) {
        if (!drained(p) && s.assigned < load && fits(p)) {
            load = s.assigned;
            best = p;
        }
    }
    return best;
}

void
Kernel::claimPe(peid_t pe, bool scheduled)
{
    peState[pe] = PeState::Busy;
    if (!scheduled)
        return;
    PeSched &s = scheds[pe];
    s.assigned++;
    platform.pe(pe).dtu().setSharedPe(s.assigned > 1);
}

void
Kernel::releasePe(Vpe &v, bool dead)
{
    const peid_t pe = v.pe;
    auto sIt = scheds.find(pe);
    if (sIt != scheds.end()) {
        // A multiplexed PE is shared: drop only this VPE's share of it.
        PeSched &s = sIt->second;
        if (s.resident == v.id)
            s.resident = INVALID_VPE;
        s.runQueue.erase(
            std::remove(s.runQueue.begin(), s.runQueue.end(), v.id),
            s.runQueue.end());
        platform.pe(pe).dropParked(v.id);
        if (s.assigned)
            s.assigned--;
        platform.pe(pe).dtu().setSharedPe(s.assigned > 1);
        if (s.assigned)
            return;
        scheds.erase(sIt);
    }
    if (dead)
        return;  // quarantined as it is: no reset, never placed again
    // The last VPE is gone: reset the PE's DTU and give the PE back.
    kdtu().extReset(platform.nocIdOf(pe));
    auto bIt = borrowedPes.find(pe);
    if (bIt != borrowedPes.end()) {
        // Leased from a peer kernel: hand it back to its lender instead
        // of feeding it into the local allocator.
        releaseBorrowedPe(bIt->second, pe);
        borrowedPes.erase(bIt);
    } else {
        freePe(pe);
    }
}

void
Kernel::freePe(peid_t pe)
{
    if (drained(pe))
        return;
    platform.pe(pe).release();
    peState[pe] = PeState::Free;
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
Kernel::replyError(epid_t ep, uint32_t slot, Error e)
{
    uint8_t buf[16];
    Marshaller m(buf, sizeof(buf));
    m << e;
    replyOnEp(ep, slot, buf, static_cast<uint32_t>(m.size()));
}

} // namespace kernel
} // namespace m3
