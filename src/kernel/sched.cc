#include "kernel/kernel.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dtu/regs.hh"

namespace m3
{
namespace kernel
{

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

} // namespace kernel
} // namespace m3
