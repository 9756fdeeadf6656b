#include "libm3/gates.hh"

#include <optional>

#include "base/logging.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"

namespace m3
{

Gate::~Gate()
{
    env.detach(*this);
}

Gate::Gate(Gate &&other) noexcept
    : env(other.env), sel(other.sel), ep(other.ep), pinned(other.pinned),
      lastUse(other.lastUse)
{
    if (ep != INVALID_EP) {
        env.rebind(*this, ep);
        other.ep = INVALID_EP;
    }
    other.sel = INVALID_SEL;
}

// ---------------------------------------------------------------------
// RecvGate.
// ---------------------------------------------------------------------

RecvGate::RecvGate(Env &env, uint32_t slots, uint32_t slotSize)
    : Gate(env, env.allocSels()), slots(slots), slotSz(slotSize),
      bufAddr(env.spm().alloc(slots * slotSize)),
      replyStage(env.spm().alloc(slotSize))
{
    Error e = env.createRgate(sel, slots, slotSize);
    if (e != Error::None)
        panic("creating receive gate failed: %s", errorName(e));
    // Receive gates cannot be moved once messages may arrive
    // (Sec. 4.5.4), so they are activated eagerly and pinned.
    pinned = true;
    acquire();
}

bool
RecvGate::hasMsg()
{
    return env.dtu().hasMsg(ep);
}

GateIStream
RecvGate::receive()
{
    env.waitMsgYielding(ep);
    return GateIStream(*this, env.dtu().fetchMsg(ep));
}

GateIStream
RecvGate::tryReceive()
{
    return GateIStream(*this, env.dtu().fetchMsg(ep));
}

// ---------------------------------------------------------------------
// GateIStream.
// ---------------------------------------------------------------------

GateIStream::GateIStream(RecvGate &rgate, int slot)
    : rg(&rgate), slot(slot), um(nullptr, 0)
{
    if (slot >= 0) {
        Env &env = rg->environment();
        hdr = env.dtu().msgHeader(rg->boundEp(), slot);
        const uint8_t *payload = env.spm().ptr(
            env.dtu().msgAddr(rg->boundEp(), slot) + sizeof(MessageHeader),
            hdr.length);
        um = Unmarshaller(payload, hdr.length);
    }
}

GateIStream::GateIStream(GateIStream &&other) noexcept
    : rg(other.rg), slot(other.slot), hdr(other.hdr), um(other.um)
{
    other.slot = -1;
}

GateIStream::~GateIStream()
{
    if (slot >= 0)
        ack();
}

void
GateIStream::ack()
{
    if (slot >= 0) {
        rg->environment().dtu().ackMsg(rg->boundEp(), slot);
        slot = -1;
    }
}

Error
GateIStream::reply(const void *msg, uint32_t size)
{
    if (slot < 0)
        return Error::InvalidArgs;
    trace::ScopedSpan span(rg->environment().peId, "gate:reply");
    rg->environment().spm().write(rg->replyStage, msg, size);
    return replyStaged(size);
}

Error
GateIStream::replyError(Error err)
{
    uint8_t buf[16];
    Marshaller m(buf, sizeof(buf));
    m << err;
    return reply(buf, static_cast<uint32_t>(m.size()));
}

Marshaller
GateIStream::replyStream()
{
    Env &env = rg->environment();
    return Marshaller(env.spm().ptr(rg->replyStage, rg->slotSize()),
                      rg->slotSize() - sizeof(MessageHeader));
}

Error
GateIStream::replyStreamSend(Marshaller &m)
{
    return replyStaged(static_cast<uint32_t>(m.size()));
}

Error
GateIStream::replyStaged(uint32_t size)
{
    if (slot < 0)
        return Error::InvalidArgs;
    Env &env = rg->environment();
    env.compute(env.cm.m3.marshal + env.cm.m3.dtuCommand);
    Error e = env.dtu().startReply(rg->boundEp(), slot, rg->replyStage,
                                   size);
    if (e == Error::None) {
        env.dtu().waitUntilIdle();
        slot = -1;  // replying freed the ring slot
    }
    return e;
}

// ---------------------------------------------------------------------
// SendGate.
// ---------------------------------------------------------------------

SendGate
SendGate::create(Env &env, RecvGate &target, label_t label,
                 uint32_t credits)
{
    capsel_t sel = env.allocSels();
    Error e = env.createSgate(sel, target.capSel(), label, credits);
    if (e != Error::None)
        panic("creating send gate failed: %s", errorName(e));
    return SendGate(env, sel, target.slotSize(),
                    credits != CREDITS_UNLIMITED);
}

SendGate::SendGate(Env &env, capsel_t sel, uint32_t maxMsgSize,
                   bool finiteCredits)
    : Gate(env, sel), maxMsgSize(maxMsgSize),
      stage(env.spm().alloc(maxMsgSize))
{
    // Gates whose remaining credits live in the endpoint registers must
    // not be evicted (rebinding would reset the budget); pin them.
    pinned = finiteCredits;
}

uint8_t *
SendGate::stagePtr()
{
    return env.spm().ptr(stage, maxMsgSize);
}

Marshaller
SendGate::ostream()
{
    return Marshaller(stagePtr(), maxMsgSize - sizeof(MessageHeader));
}

Error
SendGate::send(Marshaller &m, RecvGate *replyGate, label_t replyLabel)
{
    env.compute(env.cm.m3.marshal);
    return sendRaw(static_cast<uint32_t>(m.size()), replyGate, replyLabel);
}

Error
SendGate::sendRaw(uint32_t size, RecvGate *replyGate, label_t replyLabel)
{
    epid_t e = acquire();
    epid_t replyEp = INVALID_EP;
    if (replyGate)
        replyEp = replyGate->boundEp() != INVALID_EP
                      ? replyGate->boundEp()
                      : replyGate->acquire();
    env.compute(env.cm.m3.dtuCommand);
    return env.send(e, stage, size, replyEp, replyLabel);
}

namespace
{

/** A timed call's pause before its second attempt; doubles per attempt. */
constexpr Cycles BACKOFF_BASE = 128;
/** The cap on a timed call's pause between attempts. */
constexpr Cycles BACKOFF_MAX = 16384;

/**
 * Deterministic per-VPE backoff jitter (splitmix-style bit mix): many
 * VPEs retrying after the same fault or migration event must not resend
 * in lockstep, but runs have to stay reproducible — so the jitter is a
 * pure function of (VPE id, attempt), not of a random source.
 */
Cycles
retryJitter(vpeid_t vpe, uint32_t attempt, Cycles backoff)
{
    uint64_t h = (uint64_t{vpe} << 32) | attempt;
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    // Up to half the nominal backoff, so the exponential envelope keeps
    // its shape while colliding retriers spread out.
    return h % (backoff / 2 + 1);
}

} // anonymous namespace

GateIStream
SendGate::call(Marshaller &m, RecvGate &replyGate, uint32_t attempts,
               Cycles timeout, Error *err)
{
    // The untimed call is spanned, yields the PE while it waits and
    // records its reply latency; only the timed one retries, paces and
    // counts its stalls and retries.
    const bool timed = attempts > 1 || timeout != 0;
    std::optional<trace::ScopedSpan> span;
    if (!timed)
        span.emplace(env.peId, "gate:call");
    env.compute(env.cm.m3.marshal);
    const uint32_t size = static_cast<uint32_t>(m.size());
    Simulator &sim = env.platform.simulator();
    Cycles backoff = BACKOFF_BASE;
    uint32_t paces = 0;
    auto pace = [&] {
        env.fiber.sleep(backoff +
                        retryJitter(env.vpeId, paces++, backoff));
        backoff = std::min(BACKOFF_MAX, backoff * 2);
    };
    for (uint32_t attempt = 0; attempt < std::max(attempts, 1u);
         ++attempt) {
        Error se = sendRaw(size, &replyGate, 0);
        if (se == Error::NoCredits && timed) {
            // Out of budget: an earlier reply may still be in flight or
            // was lost along with its refund. Pace and retry.
            if (M3_METRICS_ON) {
                static trace::Counter &cs =
                    trace::Metrics::counter("dtu.credit_stall_cycles");
                cs.add(backoff);
            }
            Cycles s0 = sim.curCycle();
            pace();
            if (M3_REQTRACE_ON) {
                if (Fiber *f = Fiber::current(); f && f->reqCtx())
                    trace::ReqTrace::noteCreditStall(f->reqCtx(),
                                                     sim.curCycle() - s0);
            }
            continue;
        }
        if (se != Error::None) {
            if (!timed)
                panic("send for call failed: %s", errorName(se));
            if (err)
                *err = se;
            return GateIStream(replyGate, -1);
        }
        Cycles t0 = sim.curCycle();
        Error we = timed ? env.waitMsg(replyGate.boundEp(), timeout)
                         : env.waitMsgYielding(replyGate.boundEp());
        Cycles elapsed = sim.curCycle() - t0;
        env.acct().charge(elapsed);
        if (!timed && M3_METRICS_ON) {
            trace::Metrics::histogram("dtu.reply_latency.ep" +
                                      std::to_string(replyGate.boundEp()))
                .observe(elapsed);
        }
        if (we == Error::None) {
            env.compute(env.cm.m3.fetchMsg + env.cm.m3.unmarshal);
            if (err)
                *err = Error::None;
            return replyGate.tryReceive();
        }
        // The request or its reply was lost; the credit the reply would
        // have refunded is gone with it. Re-arm the gate, pace the
        // resend, and drop stragglers of this attempt that arrived while
        // backing off. (A straggler arriving later still refunds its
        // credit, which can over-provision the gate; that only loosens
        // the send bound and is harmless.)
        env.dtu().refundCredit(acquire());
        if (M3_METRICS_ON) {
            static trace::Counter &rt =
                trace::Metrics::counter("gate.retries");
            rt.inc();
        }
        // A timeout may also mean the peer migrated: re-run Activate so
        // the kernel reconfigures this EP from its current view of the
        // target (node, generation). The refreshed credits are covered
        // by the over-provisioning argument above.
        env.activate(sel, acquire(), activateBuf());
        pace();
        while (replyGate.tryReceive().valid()) {
        }
    }
    if (err)
        *err = Error::Timeout;
    return GateIStream(replyGate, -1);
}

// ---------------------------------------------------------------------
// MemGate.
// ---------------------------------------------------------------------

MemGate
MemGate::create(Env &env, uint64_t size, uint8_t perms)
{
    capsel_t sel = env.allocSels();
    Error e = env.reqMem(sel, size, perms);
    if (e != Error::None)
        panic("allocating %llu bytes of DRAM failed: %s",
              static_cast<unsigned long long>(size), errorName(e));
    return MemGate(env, sel, size);
}

MemGate::MemGate(Env &env, capsel_t sel, uint64_t size)
    : Gate(env, sel), regionSize(size)
{
}

MemGate
MemGate::derive(goff_t off, uint64_t size, uint8_t perms)
{
    capsel_t dst = env.allocSels();
    Error e = env.deriveMem(sel, dst, off, size, perms);
    if (e != Error::None)
        panic("deriving memory gate failed: %s", errorName(e));
    return MemGate(env, dst, size);
}

namespace
{

/**
 * Scalability-study backdoor (Sec. 5.7): functional access to the
 * memory behind an endpoint, used when data transfers are replaced by
 * spins of the uncontended transfer time.
 */
MemTarget *
targetOf(Env &env, const MemEpCfg &cfg)
{
    if (env.platform.isDramNode(cfg.targetNode))
        return &env.platform.dram(cfg.targetNode - env.platform.peCount());
    return &env.platform.pe(cfg.targetNode).spm();
}

/** Uncontended duration of a @p len byte transfer on this endpoint. */
Cycles
spinDuration(Env &env, const MemEpCfg &cfg, size_t len)
{
    Noc &noc = env.platform.noc();
    uint32_t self = env.dtu().nodeId();
    MemTarget *mem = targetOf(env, cfg);
    return noc.idleLatency(self, cfg.targetNode, 0) +
           mem->accessLatency() +
           noc.idleLatency(cfg.targetNode, self,
                           static_cast<uint32_t>(len));
}

/**
 * The loop of every MemGate read and write, in XFER_BUF_SIZE chunks.
 * @p data moves the bytes of one chunk: on the spin path with
 * spin(mem, addr, done, chunk) against the memory itself; on the DTU
 * path through the transfer buffer at @p at in the SPM, with
 * toSpm(spm, at, done, chunk) before a write and fromSpm(spm, at, done,
 * chunk) after a read.
 */
template <class Data>
Error
transfer(MemGate &gate, size_t len, goff_t off, Data &data)
{
    constexpr bool write = Data::WRITE;
    Env &env = gate.environment();
    trace::ScopedSpan span(env.peId, write ? "mem:write" : "mem:read");
    epid_t e = gate.acquire();
    size_t done = 0;
    while (done < len) {
        size_t chunk = std::min(len - done, XFER_BUF_SIZE);
        env.compute(env.cm.m3.dtuCommand);
        if (env.cm.spinDataTransfers) {
            const EpRegs &r = env.dtu().ep(e);
            Error err = memAccess(r, write ? MEM_W : MEM_R, off + done, chunk);
            if (err != Error::None)
                return err;
            const MemEpCfg &cfg = r.mem;
            data.spin(*targetOf(env, cfg), cfg.offset + off + done, done,
                      chunk);
            Cycles dur = spinDuration(env, cfg, chunk);
            env.acct().chargeTo(Category::Xfer, dur);
            env.fiber.sleep(dur);
            done += chunk;
            continue;
        }
        // The app buffer conceptually lives in the SPM; moving bytes
        // between them is aliasing, not a modelled transfer.
        if constexpr (write)
            data.toSpm(env.spm(), env.xferBuf(), done, chunk);
        Error err = write ? env.dtu().startWrite(e, env.xferBuf(),
                                                 off + done, chunk)
                          : env.dtu().startRead(e, env.xferBuf(),
                                                off + done, chunk);
        if (err != Error::None)
            return err;
        Cycles t0 = env.platform.simulator().curCycle();
        Error w = env.dtu().waitUntilIdle();
        env.acct().chargeTo(Category::Xfer,
                            env.platform.simulator().curCycle() - t0);
        if (w == Error::VpeMoved) {
            // Migrated mid-transfer: re-issue this chunk against the new
            // home's DTU. The context fetch aborted a read before it
            // touched the SPM; an aborted write may or may not have
            // reached the memory, and re-issuing it is idempotent (same
            // bytes, same offset).
            continue;
        }
        if constexpr (!write)
            data.fromSpm(env.spm(), env.xferBuf(), done, chunk);
        done += chunk;
    }
    return Error::None;
}

/** A read into a host buffer. */
struct ToBuffer
{
    static constexpr bool WRITE = false;
    uint8_t *out;

    void
    spin(MemTarget &mem, goff_t addr, size_t done, size_t chunk)
    {
        mem.read(addr, out + done, chunk);
    }
    void
    fromSpm(Spm &spm, spmaddr_t at, size_t done, size_t chunk)
    {
        std::memcpy(out + done, spm.ptr(at, chunk), chunk);
    }
};

/** A read into a Bytes value: shared bytes stay slices. */
struct ToBytes
{
    static constexpr bool WRITE = false;
    Bytes out;

    void
    spin(MemTarget &mem, goff_t addr, size_t, size_t chunk)
    {
        out += mem.read(addr, chunk);
    }
    void
    fromSpm(Spm &spm, spmaddr_t at, size_t, size_t chunk)
    {
        out += spm.read(at, chunk);
    }
};

/** A write from a host buffer. */
struct FromBuffer
{
    static constexpr bool WRITE = true;
    const uint8_t *in;

    void
    spin(MemTarget &mem, goff_t addr, size_t done, size_t chunk)
    {
        mem.write(addr, in + done, chunk);
    }
    void
    toSpm(Spm &spm, spmaddr_t at, size_t done, size_t chunk)
    {
        std::memcpy(spm.ptr(at, chunk), in + done, chunk);
    }
};

/** A write from a Bytes value: shared bytes stay slices. */
struct FromBytes
{
    static constexpr bool WRITE = true;
    const Bytes &in;

    void
    spin(MemTarget &mem, goff_t addr, size_t done, size_t chunk)
    {
        mem.write(addr, in.sub(done, chunk));
    }
    void
    toSpm(Spm &spm, spmaddr_t at, size_t done, size_t chunk)
    {
        spm.write(at, in.sub(done, chunk));
    }
};

} // anonymous namespace

Error
MemGate::read(void *dst, size_t len, goff_t off)
{
    ToBuffer data{static_cast<uint8_t *>(dst)};
    return transfer(*this, len, off, data);
}

Error
MemGate::read(Bytes &dst, size_t len, goff_t off)
{
    ToBytes data;
    Error e = transfer(*this, len, off, data);
    dst = std::move(data.out);
    return e;
}

Error
MemGate::write(const void *src, size_t len, goff_t off)
{
    FromBuffer data{static_cast<const uint8_t *>(src)};
    return transfer(*this, len, off, data);
}

Error
MemGate::write(const Bytes &src, goff_t off)
{
    FromBytes data{src};
    return transfer(*this, src.size(), off, data);
}

Error
MemGate::zero(size_t len, goff_t off)
{
    epid_t e = acquire();
    env.compute(env.cm.m3.dtuCommand);
    return env.dtu().startZero(e, off, len);
}

namespace
{

/**
 * Map each segment to a transfer slot: segments for the same memory
 * module share a slot (and thus serialize), distinct modules spread
 * round-robin over the slots. Returns the slot of each segment.
 */
void
assignSlots(Env &env, XferSeg *segs, uint32_t n, uint32_t *slot)
{
    uint32_t nodes[Dtu::XFER_SLOTS];
    uint32_t used = 0;
    uint32_t next = 0;
    for (uint32_t i = 0; i < n; ++i) {
        epid_t e = segs[i].gate->acquire();
        uint32_t node = env.dtu().ep(e).mem.targetNode;
        uint32_t s = ~0u;
        for (uint32_t j = 0; j < used; ++j)
            if (nodes[j] == node)
                s = j;
        if (s == ~0u) {
            if (used < Dtu::XFER_SLOTS) {
                nodes[used] = node;
                s = used++;
            } else {
                s = next;
                next = (next + 1) % Dtu::XFER_SLOTS;
            }
        }
        slot[i] = s;
    }
}

Error
parallelXfer(Env &env, XferSeg *segs, uint32_t n, bool isRead)
{
    if (n == 0)
        return Error::None;
    trace::ScopedSpan span(env.peId, isRead ? "mem:preadx" : "mem:pwritex");

    std::vector<uint32_t> slot(n);
    assignSlots(env, segs, n, slot.data());

    if (env.cm.spinDataTransfers) {
        // Functional access per segment; the modelled time is the
        // slowest slot's summed uncontended transfers — modules
        // overlap, a module's own queue serializes (Sec. 5.7
        // methodology plus the controller as serialization point).
        Cycles slotDur[Dtu::XFER_SLOTS] = {};
        for (uint32_t i = 0; i < n; ++i) {
            XferSeg &s = segs[i];
            epid_t e = s.gate->acquire();
            env.compute(env.cm.m3.dtuCommand);
            const EpRegs &r = env.dtu().ep(e);
            Error err = memAccess(r, isRead ? MEM_R : MEM_W, s.off, s.len);
            if (err != Error::None)
                return err;
            const MemEpCfg &cfg = r.mem;
            MemTarget *t = targetOf(env, cfg);
            if (isRead)
                t->read(cfg.offset + s.off, s.buf, s.len);
            else
                t->write(cfg.offset + s.off, s.buf, s.len);
            slotDur[slot[i]] += spinDuration(env, cfg, s.len);
        }
        Cycles dur = 0;
        for (Cycles d : slotDur)
            dur = std::max(dur, d);
        env.acct().chargeTo(Category::Xfer, dur);
        env.fiber.sleep(dur);
        return Error::None;
    }

    // Real transfers: the transfer buffer is split into one sub-buffer
    // per slot; chained segments and segments longer than a sub-buffer
    // proceed in rounds. Each round moves at most one sub-buffer per
    // slot, and a slot works through its segments in order.
    const size_t slotBytes = XFER_BUF_SIZE / Dtu::XFER_SLOTS;
    std::vector<size_t> done(n, 0);
    for (;;) {
        // Per slot, pick the first unfinished segment assigned to it.
        uint32_t pick[Dtu::XFER_SLOTS];
        size_t chunk[Dtu::XFER_SLOTS] = {};
        for (uint32_t s = 0; s < Dtu::XFER_SLOTS; ++s)
            pick[s] = n;
        bool any = false;
        for (uint32_t i = 0; i < n; ++i) {
            uint32_t s = slot[i];
            if (done[i] >= segs[i].len || pick[s] != n)
                continue;
            pick[s] = i;
            chunk[s] = std::min(segs[i].len - done[i], slotBytes);
            any = true;
        }
        if (!any)
            return Error::None;
        for (uint32_t s = 0; s < Dtu::XFER_SLOTS; ++s) {
            if (!chunk[s])
                continue;
            XferSeg &sg = segs[pick[s]];
            epid_t e = sg.gate->acquire();
            spmaddr_t sub =
                env.xferBuf() + static_cast<spmaddr_t>(s * slotBytes);
            env.compute(env.cm.m3.dtuCommand);
            Error err;
            if (isRead) {
                err = env.dtu().startReadX(s, e, sub,
                                           sg.off + done[pick[s]],
                                           chunk[s]);
            } else {
                std::memcpy(env.spm().ptr(sub, chunk[s]),
                            static_cast<const uint8_t *>(sg.buf) +
                                done[pick[s]],
                            chunk[s]);
                err = env.dtu().startWriteX(s, e, sub,
                                            sg.off + done[pick[s]],
                                            chunk[s]);
            }
            if (err != Error::None)
                return err;
        }
        Cycles t0 = env.platform.simulator().curCycle();
        Error w = env.dtu().waitXferAll();
        env.acct().chargeTo(Category::Xfer,
                            env.platform.simulator().curCycle() - t0);
        if (w == Error::VpeMoved) {
            // Migrated mid-round: the aborted round never touched the
            // app buffer (reads) and re-writing the same bytes is
            // idempotent, so re-issue it against the new home's DTU.
            continue;
        }
        if (w != Error::None)
            return w;
        for (uint32_t s = 0; s < Dtu::XFER_SLOTS; ++s) {
            if (!chunk[s])
                continue;
            uint32_t i = pick[s];
            if (isRead) {
                spmaddr_t sub =
                    env.xferBuf() + static_cast<spmaddr_t>(s * slotBytes);
                std::memcpy(static_cast<uint8_t *>(segs[i].buf) + done[i],
                            env.spm().ptr(sub, chunk[s]), chunk[s]);
            }
            done[i] += chunk[s];
        }
    }
}

} // anonymous namespace

Error
parallelRead(Env &env, XferSeg *segs, uint32_t n)
{
    return parallelXfer(env, segs, n, true);
}

Error
parallelWrite(Env &env, XferSeg *segs, uint32_t n)
{
    return parallelXfer(env, segs, n, false);
}

} // namespace m3
