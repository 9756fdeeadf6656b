#include "dtu/dtu.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "base/logging.hh"
#include "sim/fault_plan.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"

namespace m3
{

namespace
{

/** Every closure the DTU hands the NoC or the event queue fits SmallFn's
 *  inline storage: no command path allocates per event. */
template <class Fn>
Fn
inlineFn(Fn fn)
{
    static_assert(EventQueue::Callback::fitsInline<Fn>(),
                  "DTU closure must stay within SmallFn's inline storage "
                  "(no heap on a command path)");
    return fn;
}

/** Wake the fiber registered in @p w, if any, and clear @p w. */
void
wake(Fiber *&w)
{
    if (Fiber *f = std::exchange(w, nullptr))
        f->unblock();
}

/** Register @p f in @p w, or (!@p on) drop it if it is still f's. */
void
holdOne(Fiber *&w, Fiber *f, bool on)
{
    if (on)
        w = f;
    else if (w == f)
        w = nullptr;
}

} // anonymous namespace

Dtu::Dtu(EventQueue &eq, Noc &noc, Spm &spm, uint32_t nocId,
         const HwCosts &hw, epid_t epCount)
    : eq(eq), noc(noc), spm(spm), nocId(nocId), hw(hw), epCnt(epCount)
{
    // At least the two reserved syscall EPs plus one usable endpoint.
    if (epCount < 3 || epCount > MAX_EP_COUNT)
        panic("PE endpoint count %u out of range", epCount);
}

void
Dtu::checkEpId(epid_t id) const
{
    if (id >= epCnt)
        panic("endpoint id %u out of range", id);
}

EpRegs &
Dtu::epRef(epid_t id)
{
    checkEpId(id);
    return eps[id];
}

const EpRegs &
Dtu::ep(epid_t id) const
{
    checkEpId(id);
    return eps[id];
}

uint32_t
Dtu::credits(epid_t id) const
{
    const EpRegs &r = ep(id);
    if (r.type != EpType::Send)
        panic("credits() on non-send EP %u", id);
    return r.send.credits;
}

// ---------------------------------------------------------------------
// Local configuration (privileged only).
// ---------------------------------------------------------------------

Error
Dtu::configSend(epid_t id, const SendEpCfg &cfg)
{
    if (!privileged)
        return Error::NotPrivileged;
    EpRegs &r = epRef(id);
    r.invalidate();
    r.type = EpType::Send;
    r.send = cfg;
    if (r.send.maxCredits == 0)
        r.send.maxCredits = r.send.credits;
    return Error::None;
}

Error
Dtu::configRecv(epid_t id, const RecvEpCfg &cfg)
{
    if (!privileged)
        return Error::NotPrivileged;
    if (cfg.slotCount == 0 || cfg.slotCount > MAX_SLOTS)
        return Error::InvalidArgs;
    if (cfg.slotSize < sizeof(MessageHeader))
        return Error::InvalidArgs;
    EpRegs &r = epRef(id);
    r.invalidate();
    r.type = EpType::Receive;
    r.recv = cfg;
    recvState[id] = RecvState{};
    return Error::None;
}

Error
Dtu::configMem(epid_t id, const MemEpCfg &cfg)
{
    if (!privileged)
        return Error::NotPrivileged;
    EpRegs &r = epRef(id);
    r.invalidate();
    r.type = EpType::Memory;
    r.mem = cfg;
    return Error::None;
}

// ---------------------------------------------------------------------
// External (remote) configuration.
// ---------------------------------------------------------------------

template <class Fn>
Error
Dtu::ext(uint32_t targetNode, Fn onArrival, bool withCtx)
{
    if (!privileged)
        return Error::NotPrivileged;
    Dtu *target = dtuAt ? dtuAt(targetNode) : nullptr;
    if (!target)
        panic("ext request to node %u which has no DTU", targetNode);
    dtuStats.extConfigs++;
    // Config packets are small: header-sized on the wire, unless the
    // register file travels with the request.
    noc.send(nocId, targetNode, withCtx ? target->ctxWireBytes() : 0,
             inlineFn([target, fn = std::move(onArrival)]() mutable {
                 fn(*target);
             }));
    return Error::None;
}

Error
Dtu::sendExt(uint32_t targetNode, std::function<Error(Dtu &)> apply,
             std::function<void(Error)> onDone)
{
    return ext(targetNode, [this, targetNode, apply = std::move(apply),
                            onDone = std::move(onDone)](Dtu &target) {
        Error e = apply(target);
        if (!onDone)
            return;
        if (faults &&
            faults->refuseExtAck(eq.curCycle(), targetNode, nocId)) {
            // Config applied, ack suppressed: the sender has to recover
            // via its own deadline.
            if (M3_TRACE_ON)
                trace::Tracer::instant(trace::dtuTrack(targetNode),
                                       "fault:extack");
            logtrace("node%u: fault: ext ack from node%u refused", nocId,
                     targetNode);
            return;
        }
        noc.send(targetNode, nocId, 0, inlineFn([onDone, e] { onDone(e); }));
    });
}

Error
Dtu::applyExtConfig(epid_t id, const EpRegs &regs)
{
    if (id >= epCnt)
        return Error::InvalidArgs;
    eps[id] = regs;
    if (eps[id].type == EpType::Send && eps[id].send.maxCredits == 0)
        eps[id].send.maxCredits = eps[id].send.credits;
    if (regs.type == EpType::Receive || regs.type == EpType::Invalid)
        recvState[id] = RecvState{};
    return Error::None;
}

Error
Dtu::extConfigSend(uint32_t targetNode, epid_t id, const SendEpCfg &cfg,
                   std::function<void(Error)> onDone)
{
    EpRegs regs;
    regs.type = EpType::Send;
    regs.send = cfg;
    return sendExt(targetNode,
                   [id, regs](Dtu &d) { return d.applyExtConfig(id, regs); },
                   std::move(onDone));
}

Error
Dtu::extConfigRecv(uint32_t targetNode, epid_t id, const RecvEpCfg &cfg,
                   std::function<void(Error)> onDone)
{
    if (cfg.slotCount == 0 || cfg.slotCount > MAX_SLOTS ||
        cfg.slotSize < sizeof(MessageHeader)) {
        return Error::InvalidArgs;
    }
    EpRegs regs;
    regs.type = EpType::Receive;
    regs.recv = cfg;
    return sendExt(targetNode,
                   [id, regs](Dtu &d) { return d.applyExtConfig(id, regs); },
                   std::move(onDone));
}

Error
Dtu::extConfigMem(uint32_t targetNode, epid_t id, const MemEpCfg &cfg,
                  std::function<void(Error)> onDone)
{
    EpRegs regs;
    regs.type = EpType::Memory;
    regs.mem = cfg;
    return sendExt(targetNode,
                   [id, regs](Dtu &d) { return d.applyExtConfig(id, regs); },
                   std::move(onDone));
}

Error
Dtu::extInvalidateEp(uint32_t targetNode, epid_t id,
                     std::function<void(Error)> onDone)
{
    return sendExt(targetNode,
                   [id](Dtu &d) { return d.applyExtConfig(id, EpRegs{}); },
                   std::move(onDone));
}

Error
Dtu::extDowngrade(uint32_t targetNode, std::function<void(Error)> onDone)
{
    return sendExt(targetNode,
                   [](Dtu &d) {
                       d.privileged = false;
                       return Error::None;
                   },
                   std::move(onDone));
}

Error
Dtu::extReset(uint32_t targetNode, std::function<void(Error)> onDone)
{
    return sendExt(targetNode,
                   [](Dtu &d) {
                       d.applyReset();
                       return Error::None;
                   },
                   std::move(onDone));
}

Error
Dtu::extStart(uint32_t targetNode, std::function<void(Error)> onDone)
{
    return sendExt(targetNode,
                   [](Dtu &d) {
                       if (d.startHook)
                           d.startHook();
                       return Error::None;
                   },
                   std::move(onDone));
}

Error
Dtu::extStartVpe(uint32_t targetNode, uint64_t vpeId,
                 std::function<void(Error)> onDone)
{
    return sendExt(targetNode,
                   [vpeId](Dtu &d) {
                       if (d.startVpeHook)
                           d.startVpeHook(vpeId);
                       else if (d.startHook)
                           d.startHook();
                       return Error::None;
                   },
                   std::move(onDone));
}

// ---------------------------------------------------------------------
// VPE context switching.
// ---------------------------------------------------------------------

Error
Dtu::extDrain(uint32_t targetNode, std::function<void(Error)> onDone)
{
    return ext(targetNode, [this, targetNode,
                            onDone = std::move(onDone)](Dtu &target) {
        auto ack = [this, targetNode, onDone] {
            if (onDone)
                noc.send(targetNode, nocId, 0,
                         inlineFn([onDone] { onDone(Error::None); }));
        };
        // Unlike the other ext ops the ack is deferred until the target
        // is idle: that is the whole point of a drain.
        if (!target.cmd.busy)
            ack();
        else
            target.idleWaiters.push_back(std::move(ack));
    });
}

Error
Dtu::extFetchCtx(uint32_t targetNode, CtxState *out,
                 std::function<void(Error)> onDone)
{
    return ext(targetNode, [this, targetNode, out,
                            onDone = std::move(onDone)](Dtu &target) {
        target.fetchCtxLocal(*out);
        // The register file travels back with the ack.
        if (onDone)
            noc.send(targetNode, nocId, target.ctxWireBytes(),
                     inlineFn([onDone] { onDone(Error::None); }));
    });
}

Error
Dtu::extRestoreCtx(uint32_t targetNode, const CtxState *st,
                   std::function<void(Error)> onDone)
{
    return ext(
        targetNode,
        [this, targetNode, st, onDone = std::move(onDone)](Dtu &target) {
            target.restoreCtxLocal(*st);
            if (onDone)
                noc.send(targetNode, nocId, 0,
                         inlineFn([onDone] { onDone(Error::None); }));
        },
        /*withCtx=*/true);
}

Error
Dtu::extDiscardCtx(uint32_t targetNode, uint32_t gen,
                   std::function<void(Error)> onDone)
{
    return sendExt(targetNode,
                   [gen](Dtu &d) {
                       auto it = d.parkedMsgs.find(gen);
                       if (it != d.parkedMsgs.end()) {
                           d.dtuStats.msgsDropped += it->second.size();
                           d.parkedMsgs.erase(it);
                       }
                       return Error::None;
                   },
                   std::move(onDone));
}

void
Dtu::fetchCtxLocal(CtxState &out)
{
    // The kernel drains first, so a busy command here means the drain
    // raced a brand-new command; abort it and give the credit back so
    // the saved context is self-consistent (the VPE's retry layer sees
    // a loss, which it already handles).
    abortCommand(true);
    abortXfers();
    out.eps = eps;
    out.recvState = recvState;
    out.generation = generation;
    out.lastErr = cmd.err;
    // Park the fetched generation: messages addressed to it are buffered
    // until the kernel restores or discards it. The PE itself is left
    // ownerless (generation 0 is never assigned).
    parkedMsgs.emplace(generation, std::vector<ParkedMsg>{});
    for (epid_t i = 0; i < epCnt; ++i) {
        eps[i].invalidate();
        recvState[i] = RecvState{};
    }
    generation = 0;
}

void
Dtu::restoreCtxLocal(const CtxState &st)
{
    eps = st.eps;
    recvState = st.recvState;
    generation = st.generation;
    cmd.err = st.lastErr;
    ctxSwitchEpoch++;
    // Deliver what arrived while this VPE was descheduled, in arrival
    // order. handleMsg re-runs the full acceptance checks against the
    // restored endpoint registers.
    auto it = parkedMsgs.find(generation);
    if (it == parkedMsgs.end())
        return;
    std::vector<ParkedMsg> pending = std::move(it->second);
    parkedMsgs.erase(it);
    for (ParkedMsg &m : pending) {
        dtuStats.msgsUnparked++;
        handleMsg(m.ep, m.hdr, std::move(m.payload), m.rctx);
    }
}

void
Dtu::applyReset()
{
    // A new VPE will own this PE: stale replies addressed to the old
    // owner must not be delivered (generation check in handleMsg).
    generation++;
    for (epid_t i = 0; i < epCnt; ++i) {
        eps[i].invalidate();
        recvState[i] = RecvState{};
    }
    // Parked contexts belong to VPEs the kernel has already discarded or
    // migrated by the time it resets the PE for a new owner. Anything
    // still buffered in them was addressed to a gone VPE: account it as
    // dropped so message conservation stays exact.
    for (auto &[gen, msgs] : parkedMsgs)
        dtuStats.msgsDropped += msgs.size();
    parkedMsgs.clear();
    abortCommand();
    abortXfers();
}

void
Dtu::abortXfers()
{
    // A late completion of an aborted slot must not write into an SPM
    // the PE's next owner may already use: owns() refuses it. The
    // waiting fiber (if any) observes the abort through waitXferAll.
    for (Channel &x : xferSlots)
        if (x.busy)
            finish(x, Error::Aborted);
}

// ---------------------------------------------------------------------
// The command engine: channels, completion and the one wait loop.
// ---------------------------------------------------------------------

uint64_t
Dtu::begin(Channel &ch, const char *name)
{
    ch.busy = true;
    ch.err = Error::None;
    // The busy flag serializes the commands on the registers, so their
    // B/E spans on the DTU track never overlap; the slots overlap, so
    // they show as instants.
    if (M3_TRACE_ON) {
        if (&ch == &cmd)
            trace::Tracer::spanBegin(trace::dtuTrack(nocId), name);
        else
            trace::Tracer::instant(trace::dtuTrack(nocId), name);
    }
    return ++ch.seq;
}

void
Dtu::finish(Channel &ch, Error e)
{
    ch.busy = false;
    ch.err = e;
    if (&ch != &cmd) {
        if (!anyXferBusy())
            wake(xferWaiter);
        return;
    }
    if (M3_TRACE_ON)
        trace::Tracer::spanEnd(trace::dtuTrack(nocId));
    cmdEp = INVALID_EP;
    cmdTookCredit = false;
    wake(cmdWaiter);
    if (!idleWaiters.empty()) {
        auto acks = std::move(idleWaiters);
        idleWaiters.clear();
        for (auto &ack : acks)
            ack();
    }
}

void
Dtu::abortCommand(bool refund)
{
    if (!cmd.busy)
        return;
    epid_t ep = cmdEp;
    bool took = cmdTookCredit;
    finish(cmd, Error::Aborted);
    if (refund && took && ep != INVALID_EP)
        refundCredit(ep);
}

Error
Dtu::refundCredit(epid_t id)
{
    EpRegs &r = epRef(id);
    if (r.type != EpType::Send)
        return Error::InvalidEp;
    // Refunds never raise the credit count above the configured ceiling
    // (a retried send whose original reply eventually arrives must not
    // mint credits).
    if (r.send.credits != CREDITS_UNLIMITED &&
        r.send.credits < r.send.maxCredits) {
        r.send.credits++;
    }
    return Error::None;
}

void
Dtu::removeWaiter(Fiber *f)
{
    holdOne(cmdWaiter, f, false);
    holdOne(xferWaiter, f, false);
    for (epid_t i = 0; i < epCnt; ++i)
        holdOne(msgWaiters[i], f, false);
}

template <class Ready, class Hold>
Error
Dtu::waitFor(Ready ready, Hold hold, Cycles timeout)
{
    Fiber *self = Fiber::current();
    if (!self)
        panic("DTU wait outside a fiber");
    // A migration invalidates the wait: the fiber now lives on another
    // PE, and what this DTU completes belongs to whoever owns it next.
    const uint32_t moved = self->moveEpoch();
    // The timer and the wake race: the timer fires only while the wait
    // is armed, so a late timer event is harmless.
    std::shared_ptr<bool> armed;
    if (timeout) {
        armed = std::make_shared<bool>(true);
        eq.schedule(timeout, inlineFn([self, armed] {
            if (*armed) {
                *armed = false;
                self->unblock();
            }
        }));
    }
    while (!ready() && (!armed || *armed)) {
        hold(self, true);
        self->block();
        hold(self, false);
        if (self->moveEpoch() != moved)
            break;
    }
    if (armed)
        *armed = false;
    if (self->moveEpoch() != moved)
        return Error::VpeMoved;
    return ready() ? Error::None : Error::Timeout;
}

Error
Dtu::waitUntilIdle(Cycles timeout)
{
    Error e = waitFor(
        [this] { return !cmd.busy; },
        [this](Fiber *f, bool on) { holdOne(cmdWaiter, f, on); }, timeout);
    return e == Error::None ? cmd.err : e;
}

Error
Dtu::waitXferAll()
{
    Error e = waitFor(
        [this] { return !anyXferBusy(); },
        [this](Fiber *f, bool on) { holdOne(xferWaiter, f, on); }, 0);
    if (e != Error::None)
        return e;
    for (const Channel &x : xferSlots)
        if (x.err != Error::None)
            return x.err;
    return Error::None;
}

Error
Dtu::waitForMsg(epid_t id, Cycles timeout)
{
    return waitFor(
        [this, id] { return hasMsg(id); },
        [this, id](Fiber *f, bool on) { holdOne(msgWaiters[id], f, on); },
        timeout);
}

Error
Dtu::waitForMsgs(const std::vector<epid_t> &ids, Cycles timeout)
{
    return waitFor(
        [this, &ids] {
            return std::any_of(ids.begin(), ids.end(),
                               [this](epid_t id) { return hasMsg(id); });
        },
        [this, &ids](Fiber *f, bool on) {
            for (epid_t id : ids)
                holdOne(msgWaiters[id], f, on);
        },
        timeout);
}

// ---------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------

Error
Dtu::startSend(epid_t id, spmaddr_t msgAddr, uint32_t size, epid_t replyEp,
               label_t replyLabel)
{
    if (cmd.busy)
        return Error::DtuBusy;
    EpRegs &r = epRef(id);
    if (r.type != EpType::Send)
        return Error::InvalidEp;
    if (size + sizeof(MessageHeader) > r.send.maxMsgSize)
        return Error::MsgTooBig;
    if (replyEp != INVALID_EP && ep(replyEp).type != EpType::Receive)
        return Error::InvalidEp;
    bool tookCredit = false;
    if (r.send.credits != CREDITS_UNLIMITED) {
        if (r.send.credits == 0) {
            dtuStats.creditDenials++;
            return Error::NoCredits;
        }
        r.send.credits--;
        tookCredit = true;
    }

    MessageHeader hdr;
    hdr.label = r.send.label;
    hdr.length = size;
    hdr.senderNode = nocId;
    hdr.senderEp = id;
    hdr.replyEp = replyEp;
    hdr.replyLabel = replyLabel;
    hdr.creditEp = INVALID_EP;
    hdr.senderGen = generation;
    // Kernel-stamped target generation (0 = wildcard): a message for a
    // VPE that is currently descheduled must not land in the ringbuffers
    // of whoever owns the receiver PE right now.
    hdr.targetGen = r.send.targetGen;
    hdr.flags = (replyEp != INVALID_EP) ? MessageHeader::FL_REPLY_EN : 0;

    logtrace("node%u: send ep%u -> node%u ep%u label=%llx size=%u",
             nocId, id, r.send.targetNode, r.send.targetEp,
             (unsigned long long)r.send.label, size);
    // Request-tracing shadow: if the sending fiber carries a request
    // context, open a new span and ship its context with the message.
    // Host-side state only — it adds no payload bytes and no cycles.
    uint64_t rctx = 0;
    if (M3_REQTRACE_ON) {
        if (Fiber *f = Fiber::current(); f && f->reqCtx())
            rctx = trace::ReqTrace::msgSent(f->reqCtx(), eq.curCycle(),
                                            nocId);
    }
    cmdEp = id;
    cmdTookCredit = tookCredit;
    ship(hdr, msgAddr, size, r.send.targetNode, r.send.targetEp, rctx,
         "dtu:send");
    return Error::None;
}

Error
Dtu::startReply(epid_t id, uint32_t slot, spmaddr_t msgAddr, uint32_t size)
{
    if (cmd.busy)
        return Error::DtuBusy;
    EpRegs &r = epRef(id);
    if (r.type != EpType::Receive)
        return Error::InvalidEp;
    if (!r.recv.replyProtected) {
        // The kernel did not vouch for read-only header placement; the
        // hardware refuses to trust the stored reply info (Sec. 4.4.4).
        return Error::NoPerm;
    }
    if (slot >= r.recv.slotCount ||
        recvState[id].slots[slot].s != RecvSlotState::S::Fetched) {
        return Error::InvalidArgs;
    }

    MessageHeader orig = msgHeader(id, slot);
    if (!orig.canReply() || orig.replyEp == INVALID_EP)
        return Error::NoPerm;
    // Size vs. the reply ring's slot size is checked at delivery; an
    // oversized reply is dropped there, like any other oversized message.

    logtrace("node%u: reply ep%u slot%u -> node%u ep%u", nocId, id,
             slot, orig.senderNode, orig.replyEp);

    MessageHeader hdr;
    hdr.label = orig.replyLabel;
    hdr.length = size;
    hdr.senderNode = nocId;
    hdr.senderEp = INVALID_EP;
    hdr.replyEp = INVALID_EP;
    hdr.replyLabel = 0;
    hdr.creditEp = orig.senderEp;
    hdr.senderGen = generation;
    hdr.targetGen = orig.senderGen;
    hdr.flags = MessageHeader::FL_REPLY;

    // Replying also acknowledges the slot (frees it for new messages).
    recvState[id].slots[slot].s = RecvSlotState::S::Free;
    // Request-tracing shadow: the reply closes the span stored with the
    // slot, regardless of what context the replying fiber carries now —
    // this is what makes deferred (continuation-style) replies attribute
    // correctly.
    uint64_t rctx = recvState[id].rctx[slot];
    recvState[id].rctx[slot] = 0;
    if (M3_REQTRACE_ON && rctx)
        trace::ReqTrace::replySent(rctx, eq.curCycle(), nocId);
    else
        rctx = 0;

    ship(hdr, msgAddr, size, orig.senderNode, orig.replyEp, rctx,
         "dtu:reply");
    return Error::None;
}

void
Dtu::ship(MessageHeader hdr, spmaddr_t msgAddr, uint32_t size,
          uint32_t node, epid_t tep, uint64_t rctx, const char *span)
{
    Dtu *target = dtuAt(node);
    if (!target)
        panic("message to node %u which has no DTU", node);
    std::vector<uint8_t> payload(size);
    if (size)
        spm.read(msgAddr, payload.data(), size);
    hdr.payloadSum = payloadChecksum(payload.data(), payload.size());
    if (faults && size) {
        uint64_t off = 0;
        if (faults->corruptPayload(eq.curCycle(), nocId, node, size, off)) {
            // Flip one byte "on the wire": the checksum was computed
            // from the intact payload, so the receiver detects it.
            payload[off] ^= 0xa5;
            if (M3_TRACE_ON)
                trace::Tracer::instant(trace::dtuTrack(nocId),
                                       "fault:corrupt");
        }
    }

    const uint64_t seq = begin(cmd, span);
    dtuStats.msgsSent++;
    noc.send(nocId, node, size,
             inlineFn([target, tep, hdr, rctx,
                       payload = std::move(payload)]() mutable {
                 target->handleMsg(tep, hdr, std::move(payload), rctx);
             }));
    // The source side is free again once the tail left the injection port.
    Cycles ser = (size + hw.msgHeaderSize + hw.nocBytesPerCycle - 1) /
                 hw.nocBytesPerCycle;
    eq.schedule(ser, inlineFn([this, seq] {
                    if (cmd.owns(seq))
                        finish(cmd, Error::None);
                }));
}

void
Dtu::handleMsg(epid_t id, const MessageHeader &hdr,
               std::vector<uint8_t> payload, uint64_t rctx)
{
    if (payloadChecksum(payload.data(), payload.size()) != hdr.payloadSum) {
        // Bit error on the wire: drop the whole message. Software sees
        // a loss, which the retry layers already have to handle, rather
        // than silently consuming corrupted data.
        dtuStats.msgsCorrupted++;
        dtuStats.msgsDropped++;
        logtrace("node%u: drop at ep%u: checksum mismatch (from node%u)",
                 nocId, id, hdr.senderNode);
        return;
    }
    if (hdr.targetGen != 0 && hdr.targetGen != generation) {
        // Addressed to a generation that is not resident. If the kernel
        // parked that generation here (the VPE is descheduled but alive),
        // buffer the message and re-inject it on restore — the DTU stays
        // receptive on behalf of suspended VPEs, credit-bounded. Anything
        // else is stale: a previous owner of this PE (Sec. 3: NoC-level
        // isolation across PE reuse) or a reclaimed VPE.
        auto parked = parkedMsgs.find(hdr.targetGen);
        if (parked != parkedMsgs.end()) {
            if (parked->second.size() >= MAX_SLOTS) {
                dtuStats.msgsDropped++;
                logtrace("node%u: drop at ep%u: parked buffer full "
                         "(gen %u)", nocId, id, hdr.targetGen);
                return;
            }
            parked->second.push_back(
                ParkedMsg{id, hdr, std::move(payload), rctx});
            dtuStats.msgsParked++;
            logtrace("node%u: park at ep%u: gen %u descheduled "
                     "(resident %u)", nocId, id, hdr.targetGen,
                     generation);
            return;
        }
        dtuStats.msgsDropped++;
        logtrace("node%u: drop at ep%u: stale %s (gen %u != %u)",
                 nocId, id, hdr.isReply() ? "reply" : "message",
                 hdr.targetGen, generation);
        return;
    }
    if (id >= epCnt || eps[id].type != EpType::Receive) {
        dtuStats.msgsDropped++;
        logtrace("node%u: drop at ep%u: not a recv EP (from node%u)",
                 nocId, id, hdr.senderNode);
        return;
    }
    RecvEpCfg &cfg = eps[id].recv;
    if (sizeof(MessageHeader) + payload.size() > cfg.slotSize) {
        dtuStats.msgsDropped++;
        logtrace("node%u: drop at ep%u: oversized (from node%u)",
                 nocId, id, hdr.senderNode);
        return;
    }
    RecvState &st = recvState[id];
    // Find a free slot starting at the write position. Messages are
    // dropped if the ring is full (Sec. 4.4.3) - credits normally
    // prevent this.
    uint32_t slot = MAX_SLOTS;
    for (uint32_t i = 0; i < cfg.slotCount; ++i) {
        uint32_t cand = (st.wrPos + i) % cfg.slotCount;
        if (st.slots[cand].s == RecvSlotState::S::Free) {
            slot = cand;
            break;
        }
    }
    if (slot == MAX_SLOTS) {
        dtuStats.msgsDropped++;
        logtrace("node%u: drop at ep%u: ring full (from node%u, "
                 "reply=%d)",
                 nocId, id, hdr.senderNode, hdr.isReply() ? 1 : 0);
        return;
    }
    st.wrPos = (slot + 1) % cfg.slotCount;
    st.slots[slot].s = RecvSlotState::S::Ready;
    st.rctx[slot] = rctx;
    if (M3_REQTRACE_ON && rctx)
        trace::ReqTrace::msgArrived(rctx, eq.curCycle(), nocId,
                                    hdr.isReply());

    spmaddr_t addr = cfg.bufAddr + slot * cfg.slotSize;
    spm.write(addr, &hdr, sizeof(hdr));
    if (!payload.empty())
        spm.write(addr + sizeof(MessageHeader), payload.data(),
                  payload.size());

    dtuStats.msgsReceived++;

    // A reply refunds one credit to the sender's send EP (Sec. 4.4.3),
    // clamped at the configured ceiling: if the sender timed out and
    // already reclaimed the credit, the late reply must not mint one.
    if (hdr.isReply() && hdr.creditEp != INVALID_EP &&
        hdr.creditEp < epCnt) {
        EpRegs &sep = eps[hdr.creditEp];
        if (sep.type == EpType::Send &&
            sep.send.credits != CREDITS_UNLIMITED &&
            sep.send.credits < sep.send.maxCredits) {
            sep.send.credits++;
        }
    }

    wake(msgWaiters[id]);
}

// ---------------------------------------------------------------------
// Memory commands. The command registers and the parallel slots (distfs
// striping) run one transfer path, with the same wire protocol and
// timing; on the slots, transfers to different memory modules overlap.
// ---------------------------------------------------------------------

MemTarget *
Dtu::memOf(const EpRegs &r) const
{
    MemTarget *mem = memAt(r.mem.targetNode);
    if (!mem)
        panic("memory EP targets node %u which has no memory",
              r.mem.targetNode);
    return mem;
}

Error
Dtu::transfer(Channel &ch, bool write, epid_t id, spmaddr_t at, goff_t off,
              uint64_t size)
{
    if (ch.busy)
        return Error::DtuBusy;
    const EpRegs &r = epRef(id);
    Error e = memAccess(r, write ? MEM_W : MEM_R, off, size);
    if (e != Error::None)
        return e;
    MemTarget *mem = memOf(r);
    static constexpr const char *NAMES[2][2] = {
        {"dtu:read", "dtu:readx"}, {"dtu:write", "dtu:writex"}};
    const uint64_t seq = begin(ch, NAMES[write][&ch != &cmd]);
    (write ? dtuStats.memWrites : dtuStats.memReads)++;
    (write ? dtuStats.bytesWritten : dtuStats.bytesRead) += size;
    const goff_t gaddr = r.mem.offset + off;
    const uint32_t tnode = r.mem.targetNode;

    // Request packet -> target latency -> response; a write carries the
    // data in the request, a read in the response. The data travel as
    // Bytes: shared bytes stay slices from the memory to the SPM and on
    // to the next write, so a file copied through the SPM stays a
    // reference (MemTarget::read, MemTarget::write).
    std::shared_ptr<const Bytes> out;
    if (write)
        out = std::make_shared<const Bytes>(spm.read(at, size));
    noc.send(nocId, tnode, write ? static_cast<uint32_t>(size) : 0,
             inlineFn([this, mem, gaddr, size, at, tnode, out, c = &ch,
                       seq] {
        eq.schedule(mem->accessLatency(),
                    inlineFn([this, mem, gaddr, size, at, tnode, out, c,
                              seq] {
            std::shared_ptr<const Bytes> in;
            if (out)
                mem->write(gaddr, *out);
            else
                in = std::make_shared<const Bytes>(mem->read(gaddr, size));
            noc.send(tnode, nocId, in ? static_cast<uint32_t>(size) : 0,
                     inlineFn([this, in, at, c, seq] {
                         // Nothing of an aborted command reaches the
                         // SPM: the PE may have a new owner.
                         if (!c->owns(seq))
                             return;
                         if (in)
                             spm.write(at, *in);
                         finish(*c, Error::None);
                     }));
        }));
    }));
    return Error::None;
}

Error
Dtu::startRead(epid_t id, spmaddr_t dstAddr, goff_t off, uint64_t size)
{
    return transfer(cmd, false, id, dstAddr, off, size);
}

Error
Dtu::startWrite(epid_t id, spmaddr_t srcAddr, goff_t off, uint64_t size)
{
    return transfer(cmd, true, id, srcAddr, off, size);
}

Error
Dtu::startReadX(uint32_t slot, epid_t id, spmaddr_t dstAddr, goff_t off,
                uint64_t size)
{
    if (slot >= XFER_SLOTS)
        return Error::InvalidArgs;
    return transfer(xferSlots[slot], false, id, dstAddr, off, size);
}

Error
Dtu::startWriteX(uint32_t slot, epid_t id, spmaddr_t srcAddr, goff_t off,
                 uint64_t size)
{
    if (slot >= XFER_SLOTS)
        return Error::InvalidArgs;
    return transfer(xferSlots[slot], true, id, srcAddr, off, size);
}

bool
Dtu::xferBusy(uint32_t slot) const
{
    return slot < XFER_SLOTS && xferSlots[slot].busy;
}

Error
Dtu::startZero(epid_t id, goff_t off, uint64_t size)
{
    if (cmd.busy)
        return Error::DtuBusy;
    const EpRegs &r = epRef(id);
    Error e = memAccess(r, MEM_W, off, size);
    if (e != Error::None)
        return e;
    MemTarget *mem = memOf(r);
    goff_t gaddr = r.mem.offset + off;

    // Zero never sets busy, so it shows as an instant, not a span.
    if (M3_TRACE_ON)
        trace::Tracer::instant(trace::dtuTrack(nocId), "dtu:zero");

    // Fire-and-forget: the zeroing happens at the memory, in the
    // background (Sec. 5.4); only the small command packet is sent.
    noc.send(nocId, r.mem.targetNode, 0,
             inlineFn([mem, gaddr, size] { mem->zero(gaddr, size); }));
    return Error::None;
}

// ---------------------------------------------------------------------
// Receive side.
// ---------------------------------------------------------------------

bool
Dtu::hasMsg(epid_t id) const
{
    const EpRegs &r = ep(id);
    if (r.type != EpType::Receive)
        return false;
    const RecvState &st = recvState[id];
    for (uint32_t i = 0; i < r.recv.slotCount; ++i)
        if (st.slots[i].s == RecvSlotState::S::Ready)
            return true;
    return false;
}

int
Dtu::fetchMsg(epid_t id)
{
    EpRegs &r = epRef(id);
    if (r.type != EpType::Receive)
        return -1;
    RecvState &st = recvState[id];
    for (uint32_t i = 0; i < r.recv.slotCount; ++i) {
        uint32_t cand = (st.rdPos + i) % r.recv.slotCount;
        if (st.slots[cand].s == RecvSlotState::S::Ready) {
            st.slots[cand].s = RecvSlotState::S::Fetched;
            st.rdPos = (cand + 1) % r.recv.slotCount;
            // Request-tracing shadow: the fetching fiber adopts the
            // message's context (and drops whatever it carried), so
            // syscall handling, service loops and client reply pickup
            // all attribute to the right request automatically.
            if (M3_REQTRACE_ON) {
                uint64_t rctx = st.rctx[cand];
                if (Fiber *f = Fiber::current())
                    f->setReqCtx(rctx);
                if (rctx)
                    trace::ReqTrace::msgFetched(rctx, eq.curCycle());
            }
            return static_cast<int>(cand);
        }
    }
    return -1;
}

spmaddr_t
Dtu::msgAddr(epid_t id, uint32_t slot) const
{
    const EpRegs &r = ep(id);
    if (r.type != EpType::Receive || slot >= r.recv.slotCount)
        panic("msgAddr on invalid EP %u / slot %u", id, slot);
    return r.recv.bufAddr + slot * r.recv.slotSize;
}

MessageHeader
Dtu::msgHeader(epid_t id, uint32_t slot) const
{
    MessageHeader hdr;
    spm.read(msgAddr(id, slot), &hdr, sizeof(hdr));
    return hdr;
}

Error
Dtu::retargetReplies(epid_t id, label_t label, uint32_t newNode)
{
    if (!privileged)
        return Error::NotPrivileged;
    const EpRegs &r = ep(id);
    if (r.type != EpType::Receive)
        return Error::InvalidEp;
    const RecvState &st = recvState[id];
    for (uint32_t slot = 0; slot < r.recv.slotCount; ++slot) {
        if (st.slots[slot].s == RecvSlotState::S::Free)
            continue;
        spmaddr_t addr = r.recv.bufAddr + slot * r.recv.slotSize;
        MessageHeader hdr;
        spm.read(addr, &hdr, sizeof(hdr));
        if (hdr.label != label || hdr.senderNode == newNode)
            continue;
        hdr.senderNode = newNode;
        spm.write(addr, &hdr, sizeof(hdr));
    }
    return Error::None;
}

Error
Dtu::ackMsg(epid_t id, uint32_t slot)
{
    EpRegs &r = epRef(id);
    if (r.type != EpType::Receive || slot >= r.recv.slotCount)
        return Error::InvalidArgs;
    RecvState &st = recvState[id];
    if (st.slots[slot].s != RecvSlotState::S::Fetched)
        return Error::InvalidArgs;
    st.slots[slot].s = RecvSlotState::S::Free;
    return Error::None;
}

} // namespace m3
