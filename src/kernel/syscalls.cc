#include "kernel/kernel.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dtu/regs.hh"
#include "trace/metrics.hh"

namespace m3
{
namespace kernel
{

using kif::Syscall;

// ---------------------------------------------------------------------
// Syscall handlers.
// ---------------------------------------------------------------------

constexpr Kernel::Handler<Syscall, Kernel::SyscallFn> Kernel::SYSCALLS[] = {
    {Syscall::Noop, &Kernel::sysNoop},
    {Syscall::CreateVpe, &Kernel::sysCreateVpe},
    {Syscall::VpeStart, &Kernel::sysVpeStart},
    {Syscall::VpeWait, &Kernel::sysVpeWait},
    {Syscall::VpeExit, &Kernel::sysVpeExit},
    {Syscall::CreateRgate, &Kernel::sysCreateRgate},
    {Syscall::CreateSgate, &Kernel::sysCreateSgate},
    {Syscall::ReqMem, &Kernel::sysReqMem},
    {Syscall::DeriveMem, &Kernel::sysDeriveMem},
    {Syscall::Activate, &Kernel::sysActivate},
    {Syscall::Exchange, &Kernel::sysExchange},
    {Syscall::CreateSrv, &Kernel::sysCreateSrv},
    {Syscall::OpenSess, &Kernel::sysOpenSess},
    {Syscall::ExchangeSess, &Kernel::sysExchangeSess},
    {Syscall::Revoke, &Kernel::sysRevoke},
    {Syscall::Heartbeat, &Kernel::sysHeartbeat},
    {Syscall::Yield, &Kernel::sysYield},
    {Syscall::QuerySrv, &Kernel::sysQuerySrv},
};

void
Kernel::handleSyscall(uint32_t slot)
{
    static_assert(opTableCoversAll(SYSCALLS));
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

    serveRequest(KEP_SYSC, slot, hdr, kif::SYSCALL_NAMES,
                 [&](size_t op, Unmarshaller &um) {
        const Cycles sysStart = platform.simulator().curCycle();
        std::invoke(SYSCALLS[op].fn, this, *caller, um, slot);
        if (M3_METRICS_ON) {
            // Resolved on an opcode's first use.
            static std::pair<trace::Counter *, trace::Histogram *>
                handles[std::size(SYSCALLS)];
            auto &[count, cycles] = handles[op];
            if (!count) {
                std::string base = std::string("kernel.syscall.") +
                                   kif::SYSCALL_NAMES[op].name;
                count = &trace::Metrics::counter(base + ".count");
                cycles = &trace::Metrics::histogram(base + ".cycles");
            }
            count->inc();
            cycles->observe(platform.simulator().curCycle() - sysStart);
        }
    });
}

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
    peid_t chosen = pickPe(req.type, req.attr, true);
    if (chosen == INVALID_PE)
        return false;
    const bool coScheduled = peState[chosen] != PeState::Free;
    // Multiplexed (or migratable) VPEs get a kernel-assigned generation
    // and their syscall EPs via a context restore, so suspend/resume,
    // migration and the initial setup share one mechanism.
    const bool scheduled = timeSlice || migration;
    claimPe(chosen, scheduled);
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

    if (!scheduled) {
        configureVpeEps(child);
    } else {
        child.dtuGen = nextDtuGen++;
        buildInitialCtx(child);
        if (!coScheduled) {
            PeSched &s = scheds.at(chosen);
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
                    replyError(slot, e);
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

    // Messages the DTU buffered for a multiplexed VPE's generation are
    // stale now; future ones become stale once another context is
    // restored. Then the VPE's share of its PE goes.
    if (v.dtuGen)
        kdtu().extDiscardCtx(nodeOf(v), v.dtuGen);
    releasePe(v);

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
            sg.rgate->actWaiters.push_back(
                {caller.id, capSel, static_cast<epid_t>(ep), slot});
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
        flushPendingActivations(rg);
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
Kernel::flushPendingActivations(RGateObj &rgate)
{
    std::vector<RGateObj::ActWaiter> waiters;
    waiters.swap(rgate.actWaiters);
    for (const RGateObj::ActWaiter &w : waiters) {
        Vpe *v = deferredReplySent(w.vpe);
        if (!v || v->state == Vpe::State::Exited) {
            // Nobody is left to answer, and the PE may run another VPE
            // by now: configure nothing, just free the syscall slot.
            kdtu().ackMsg(KEP_SYSC, w.slot);
            continue;
        }
        Capability *cap = rgate.activated
                              ? v->caps.get(w.capSel, ObjType::SGate)
                              : nullptr;
        replyError(w.slot,
                   cap ? doActivate(*v, cap, w.ep, 0) : Error::NoSuchCap);
    }
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
                        replyError(slot, e);
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
        rg.activated = false;
        flushPendingActivations(rg);
        break;
      }
      default:
        break;
    }

    if (owner)
        owner->caps.remove(cap->sel);
}

} // namespace kernel
} // namespace m3
