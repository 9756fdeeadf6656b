#include "kernel/kernel.hh"

#include <algorithm>

#include "base/logging.hh"

namespace m3
{
namespace kernel
{

// ---------------------------------------------------------------------
// Services: registration, sessions and the kernel's request channels
// (Sec. 4.5.3). Every service call is deferred: its reply continuation
// runs from the main loop when the service answers.
// ---------------------------------------------------------------------

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
                        replyError(slot, e);
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
            replyError(slot, e);
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
                // Like obtainReply: decode and check the whole list
                // before installing any.
                auto numCaps = um.pull<uint64_t>();
                std::vector<std::shared_ptr<KObject>> objs;
                Error xe = numCaps > count
                               ? Error::InvalidArgs
                               : decodeSerializedCaps(um, *c, dstStart,
                                                      numCaps, objs);
                if (xe == Error::None) {
                    for (size_t i = 0; i < objs.size(); ++i) {
                        putDecodedCap(*c, dstStart + i, std::move(objs[i]));
                        compute(costs.capOp);
                    }
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
            // Like obtainReply: check the whole list before installing
            // any, so a refused answer leaves no partial delegation at
            // the service. A selector named twice is refused too: the
            // second put would find it occupied.
            std::vector<std::pair<capsel_t, Capability *>> moves;
            Vpe *srvVpe = vpeById(serv->owner);
            Error xe = e;
            if (xe == Error::None) {
                auto numCaps = um.pull<uint64_t>();
                if (numCaps > count || !srvVpe)
                    xe = Error::InvalidArgs;
                for (uint64_t i = 0; xe == Error::None && i < numCaps;
                     ++i) {
                    auto srvDstSel = um.pull<capsel_t>();
                    Capability *src = c->caps.get(dstStart + i);
                    auto named = [srvDstSel](const auto &mv) {
                        return mv.first == srvDstSel;
                    };
                    if (!src)
                        xe = Error::NoSuchCap;
                    else if (srvVpe->caps.get(srvDstSel) ||
                             std::any_of(moves.begin(), moves.end(), named))
                        xe = Error::CapExists;
                    else
                        moves.emplace_back(srvDstSel, src);
                }
            }
            if (xe == Error::None) {
                for (const auto &[sel, src] : moves) {
                    srvVpe->caps.put(sel, src->obj, src);
                    kstats.capsDelegated++;
                    compute(costs.capOp);
                }
            }
            replyError(slot, xe);
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

} // namespace kernel
} // namespace m3
