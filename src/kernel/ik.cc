#include "kernel/kernel.hh"

#include <algorithm>

#include "base/logging.hh"
#include "trace/metrics.hh"

namespace m3
{
namespace kernel
{

// ---------------------------------------------------------------------
// Multi-kernel: the inter-kernel protocol. Each kernel owns a slice of
// the PE grid; requests that concern another domain travel as ordinary
// DTU messages between kernel PEs, mirroring the kernel<->service
// channel (per-peer software credits, deferred replies hold ring
// slots). Kernels never block on each other: every request is answered
// from the main loop in continuation style.
// ---------------------------------------------------------------------

constexpr Kernel::Handler<kif::IkOp, Kernel::IkFn> Kernel::IK_OPS[] = {
    {kif::IkOp::AnnounceSrv, &Kernel::ikAnnounceSrv},
    {kif::IkOp::CreateVpe, &Kernel::ikCreateVpe},
    {kif::IkOp::VpeStart, &Kernel::ikVpeStart},
    {kif::IkOp::VpeWait, &Kernel::ikVpeWait},
    {kif::IkOp::OpenSess, &Kernel::ikOpenSess},
    {kif::IkOp::SessExchange, &Kernel::ikSessExchange},
    {kif::IkOp::DelegateCaps, &Kernel::ikDelegateCaps},
    {kif::IkOp::PeLease, &Kernel::ikPeLease},
    {kif::IkOp::PeRelease, &Kernel::ikPeRelease},
    {kif::IkOp::CapsRehome, &Kernel::ikCapsRehome},
};

void
Kernel::handleIkRequest(uint32_t slot)
{
    static_assert(opTableCoversAll(IK_OPS));
    kstats.ikRequestsHandled++;
    MessageHeader hdr = kdtu().msgHeader(KEP_IK, slot);
    serveRequest(KEP_IK, slot, hdr, kif::IK_OP_NAMES,
                 [&](size_t op, Unmarshaller &um) {
        std::invoke(IK_OPS[op].fn, this, um, slot);
        if (M3_METRICS_ON) {
            // Resolved once per opcode, like the syscall handles.
            static trace::Counter *counts[std::size(IK_OPS)];
            if (!counts[op])
                counts[op] = &trace::Metrics::counter(
                    std::string("kernel.ik.") + kif::IK_OP_NAMES[op].name +
                    ".count");
            counts[op]->inc();
        }
    });
}

uint32_t
Kernel::freeOwnedPes() const
{
    // Non-owned PEs are pinned busy (setDomain) and drained ones are
    // never placed on, so this counts exactly the PEs of this kernel's
    // domain that a CreateVpe could get.
    return static_cast<uint32_t>(
        std::count(peState.begin(), peState.end(), PeState::Free));
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
                replyError(req.slot, e);
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

    peid_t chosen = pickPe(type, attr, false);
    if (chosen == INVALID_PE) {
        // This domain is full too. Do NOT re-forward: the requesting
        // kernel walks its own candidate list, so a single hop suffices
        // and forwarding loops are impossible.
        ikReplyError(slot, Error::NoFreePe);
        return;
    }

    claimPe(chosen, false);
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
    // All or nothing: a refused cap leaves the target's table as it was.
    std::vector<std::shared_ptr<KObject>> objs;
    Error e = decodeSerializedCaps(um, *to, dstStart, count, objs);
    for (size_t i = 0; e == Error::None && i < objs.size(); ++i)
        putDecodedCap(*to, dstStart + i, std::move(objs[i]));
    compute(count * costs.capOp);
    ikReplyError(slot, e);
}

void
Kernel::ikPeLease(Unmarshaller &um, uint32_t slot)
{
    auto type = um.pull<kif::PeTypeReq>();
    auto attr = um.pull<std::string>();

    peid_t chosen = pickPe(type, attr, false);
    if (chosen == INVALID_PE) {
        ikReplyError(slot, Error::NoFreePe);
        return;
    }
    // The borrower keeps VPE ownership and drives the PE's DTU via ext
    // commands (downgraded PEs accept them from any kernel PE); this
    // kernel only takes the PE out of its own allocator until the
    // matching PeRelease hands it back.
    claimPe(chosen, false);
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
    freePe(pe);
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
Kernel::decodeSerializedCap(Unmarshaller &um, std::shared_ptr<KObject> &obj)
{
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
        obj = std::make_shared<SGateObj>(rg, label,
                                         static_cast<uint32_t>(credits));
        return Error::None;
      }
      case ObjType::Mem: {
        auto node = um.pull<uint64_t>();
        auto off = um.pull<goff_t>();
        auto size = um.pull<uint64_t>();
        auto perms = um.pull<uint64_t>();
        obj = std::make_shared<MemObj>(static_cast<uint32_t>(node), off,
                                       size, static_cast<uint8_t>(perms));
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
            obj = std::make_shared<SessObj>(it->second, ident);
        } else {
            obj = std::make_shared<SessObj>(nm, static_cast<uint32_t>(dom),
                                            ident);
        }
        return Error::None;
      }
      case ObjType::Vpe: {
        auto id = um.pull<uint64_t>();
        obj = std::make_shared<VpeRefObj>(static_cast<vpeid_t>(id));
        return Error::None;
      }
      default:
        return Error::InvalidArgs;
    }
}

Error
Kernel::decodeSerializedCaps(Unmarshaller &um, const Vpe &target,
                             capsel_t dstStart, uint64_t count,
                             std::vector<std::shared_ptr<KObject>> &objs)
{
    for (uint64_t i = 0; i < count; ++i) {
        if (target.caps.get(dstStart + i))
            return Error::CapExists;
        std::shared_ptr<KObject> obj;
        if (Error e = decodeSerializedCap(um, obj); e != Error::None)
            return e;
        objs.push_back(std::move(obj));
    }
    return Error::None;
}

void
Kernel::putDecodedCap(Vpe &target, capsel_t sel, std::shared_ptr<KObject> obj)
{
    target.caps.put(sel, std::move(obj));
    kstats.capsDelegated++;
}

} // namespace kernel
} // namespace m3
