#include "kernel/kernel.hh"

#include "base/logging.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace m3
{
namespace kernel
{

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

    Pe &srcPe = platform.pe(src);
    if (sIt->second.resident == v.id) {
        // Pull the running program off the core and its state out of
        // the DTU, exactly like a multiplexing suspend (minus the
        // runQueue re-insert — the VPE leaves this PE for good). A
        // descheduled VPE has both in its CSA already.
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
    }

    // Move the software over before touching the source PE's bookkeeping
    // (releasePe would drop the parked fiber we are about to adopt). The
    // moved hook repoints the program's environment to the new PE.
    Pe &dstPe = platform.pe(dst);
    if (srcPe.hasParked(v.id))
        dstPe.adoptParkedFrom(srcPe, v.id);
    else
        dstPe.adoptInstalledFrom(srcPe, v.id);

    releasePe(v);
    v.pe = dst;
    claimPe(dst, true);

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

    runOrQueue(v);

    // Discard last: anything parked for the old incarnation between the
    // context fetch and now was sent to the old home and is stale — the
    // sender times out, re-resolves the gate and resends.
    kdtu().extDiscardCtx(oldNode, v.dtuGen);

    kstats.migrationsCompleted++;
    if (M3_TRACE_ON)
        trace::Tracer::instant(kernelPe, "migration:done");
    return Error::None;
}

/** The type request that asks for a PE like @p d. */
static kif::PeTypeReq
typeReqOf(const PeDesc &d)
{
    return d.type == PeType::Accelerator ? kif::PeTypeReq::Accelerator
                                         : kif::PeTypeReq::General;
}

peid_t
Kernel::pickMigrationTarget(const Vpe &v) const
{
    const PeDesc &want = platform.pe(v.pe).desc();
    return pickPe(typeReqOf(want), want.attr, true);
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
    uint8_t buf[kif::IK_MSG_SIZE];
    Marshaller m(buf, sizeof(buf));
    m << kif::IkOp::PeLease << typeReqOf(want) << want.attr;
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
    retirePe(pe);
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
    retirePe(deadPe);

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

    // Detach from the dead PE without resetting or releasing it, and
    // drop whatever the old incarnation had parked at its DTU.
    releasePe(v, /*dead=*/true);
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

    claimPe(dst, true);
    runOrQueue(v);
}

void
Kernel::runOrQueue(Vpe &v)
{
    v.lastActivity = platform.simulator().curCycle();
    PeSched &s = scheds.at(v.pe);
    if (s.resident == INVALID_VPE)
        resumeVpe(v);
    else
        s.runQueue.push_back(v.id);
}

} // namespace kernel
} // namespace m3
