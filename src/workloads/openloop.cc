#include "workloads/openloop.hh"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "trace/reqtrace.hh"

namespace m3
{
namespace workloads
{

namespace
{

/** Wire protocol of the "rpc" service. Every request carries its
 *  request id so the client can complete out-of-order replies. */
enum class RpcOp : uint64_t
{
    Echo,  //!< { Echo, reqId, pad } -> { Error, reqId }
    Put,   //!< { Put, reqId, key, value } -> { Error, reqId }
    Get,   //!< { Get, reqId, key } -> { Error, reqId, value }
};

enum class RpcXchg : uint64_t
{
    GetChannel,  //!< obtain the session's 1-credit send gate
};

constexpr uint32_t OL_MSG = 256;

/**
 * Deterministic exponential inter-arrival gaps: a splitmix-style mix of
 * (seed, client, index) feeds the inverse-CDF. A pure function, so the
 * arrival process is identical across repeats.
 */
uint64_t
mix64(uint64_t seed, uint32_t client, uint32_t idx)
{
    uint64_t h = seed ^ ((uint64_t{client} + 1) * 0x9e3779b97f4a7c15ull) ^
                 ((uint64_t{idx} + 1) << 32);
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

Cycles
poissonGap(uint64_t seed, uint32_t client, uint32_t idx, uint64_t mean)
{
    // 53 uniform bits -> u in [0, 1); -ln(1-u) is Exp(1).
    double u = static_cast<double>(mix64(seed, client, idx) >> 11) *
               (1.0 / 9007199254740992.0);
    double gap = -std::log(1.0 - u) * static_cast<double>(mean);
    return 1 + static_cast<Cycles>(gap);
}

/** Request ids: non-zero, unique, and a pure function of (client,
 *  index), so no shared counter is involved. */
constexpr uint64_t
requestId(uint32_t client, uint32_t idx)
{
    return (uint64_t{client} << 20) + idx + 1;
}

/** The service program: a KV store with an echo fast path, run as a
 *  boot VPE (same service-protocol shape as m3fs / test_service). */
int
rpcServiceMain(uint64_t serviceCycles)
{
    Env &env = Env::cur();
    env.acct().push(Category::Os);

    RecvGate rgate(env, 32, OL_MSG);
    capsel_t srvSel = env.allocSels();
    if (env.createSrv(srvSel, rgate.capSel(), "rpc") != Error::None)
        return 1;

    std::map<uint64_t, uint64_t> table;
    uint64_t nextIdent = 1;

    for (;;) {
        GateIStream is = rgate.receive();
        env.compute(env.cm.m3.fetchMsg);
        if (is.label() == 0) {
            auto op = is.pull<kif::ServiceOp>();
            switch (op) {
              case kif::ServiceOp::Open: {
                is.pull<uint64_t>();
                Marshaller m = is.replyStream();
                m << Error::None << nextIdent++;
                is.replyStreamSend(m);
                break;
              }
              case kif::ServiceOp::Obtain: {
                auto ident = is.pull<uint64_t>();
                is.pull<uint64_t>();  // cap budget
                auto argc = is.pull<uint64_t>();
                uint64_t arg0 = argc ? is.pull<uint64_t>() : 0;
                if (static_cast<RpcXchg>(arg0) == RpcXchg::GetChannel) {
                    capsel_t sel = env.allocSels();
                    // One credit per client: at most one request of each
                    // client in the service ring — bunched arrivals show
                    // up as client-side credit stalls, not ring drops.
                    Error e = env.createSgate(sel, rgate.capSel(), ident,
                                              1);
                    Marshaller m = is.replyStream();
                    m << e << uint64_t{1} << sel << uint64_t{0};
                    is.replyStreamSend(m);
                } else {
                    Marshaller m = is.replyStream();
                    m << Error::InvalidArgs << uint64_t{0};
                    is.replyStreamSend(m);
                }
                break;
              }
              case kif::ServiceOp::Shutdown:
                is.replyError(Error::None);
                return 0;
              default:
                is.replyError(Error::InvalidArgs);
                break;
            }
            continue;
        }
        // Direct client request: serve and reply with the echoed id.
        auto op = is.pull<RpcOp>();
        auto reqId = is.pull<uint64_t>();
        uint64_t value = 0;
        if (op == RpcOp::Put) {
            auto key = is.pull<uint64_t>();
            value = is.pull<uint64_t>();
            table[key] = value;
        } else if (op == RpcOp::Get) {
            auto key = is.pull<uint64_t>();
            auto it = table.find(key);
            value = it == table.end() ? 0 : it->second;
        }
        env.compute(serviceCycles);
        Marshaller m = is.replyStream();
        m << Error::None << reqId << value;
        is.replyStreamSend(m);
        // Housekeeping below (none today) must not be attributed to
        // this request.
        if (M3_REQTRACE_ON) {
            if (Fiber *f = Fiber::current())
                f->setReqCtx(0);
        }
    }
}

/** One open-loop client: fires requestsPerClient requests at Poisson
 *  arrival times, never waiting for a reply before the next arrival. */
int
clientMain(const OpenLoopOpts opts, uint32_t client, uint32_t cls)
{
    Env &env = Env::cur();
    Simulator &sim = env.platform.simulator();

    // Session + channel setup (boot-race retry like the fs client).
    capsel_t sess = env.allocSels();
    Error e = Error::None;
    for (int i = 0; i < 2000; ++i) {
        e = env.openSess(sess, "rpc", 0);
        if (e != Error::NoSuchService)
            break;
        Fiber::current()->sleep(500);
    }
    if (e != Error::None)
        return 1;
    capsel_t sgateSel = env.allocSels();
    std::vector<uint64_t> ret;
    if (env.exchangeSess(sess, kif::ExchangeOp::Obtain, sgateSel, 1,
                         {static_cast<uint64_t>(RpcXchg::GetChannel)},
                         &ret) != Error::None)
        return 2;
    SendGate chan(env, sgateSel, OL_MSG, true);
    RecvGate reply(env, 4, OL_MSG);

    uint32_t outstanding = 0;
    // Consume one reply if available (blocking waits first when asked).
    // Fetching the reply adopts its request context onto this fiber;
    // completion is keyed by the echoed request id, so out-of-order
    // replies complete the right request.
    auto drainOne = [&](bool blocking) -> bool {
        if (blocking)
            env.waitMsgYielding(reply.boundEp());
        GateIStream r = reply.tryReceive();
        if (!r.valid())
            return false;
        env.compute(env.cm.m3.fetchMsg + env.cm.m3.unmarshal);
        r.pullError();
        uint64_t rid = r.pull<uint64_t>();
        if (M3_REQTRACE_ON)
            trace::ReqTrace::end(trace::reqCtxMake(cls, rid, 0),
                                 sim.curCycle());
        outstanding--;
        return true;
    };

    uint64_t t = sim.curCycle();
    for (uint32_t i = 0; i < opts.requestsPerClient; ++i) {
        t += poissonGap(opts.seed, client, i, opts.meanGapCycles);
        uint64_t now = sim.curCycle();
        if (now < t)
            Fiber::current()->sleep(t - now);
        while (drainOne(false)) {
        }

        const uint64_t reqId = requestId(client, i);
        trace::ReqCtx ctx = 0;
        if (M3_REQTRACE_ON) {
            ctx = trace::ReqTrace::begin(cls, reqId, t);
            trace::ReqTrace::noteQueued(ctx, sim.curCycle() - t);
        }
        for (;;) {
            // Re-arm the fiber's context before every attempt: draining
            // a reply in between adopted that reply's context.
            if (M3_REQTRACE_ON)
                Fiber::current()->setReqCtx(ctx);
            Marshaller m = chan.ostream();
            if ((client % 2) == 0) {
                m << RpcOp::Echo << reqId << uint64_t{0};
            } else if ((i % 2) == 0) {
                m << RpcOp::Put << reqId << (reqId % 8192)
                  << (reqId * 2654435761ull);
            } else {
                m << RpcOp::Get << reqId << (reqId % 8192);
            }
            uint64_t s0 = sim.curCycle();
            Error se = chan.send(m, &reply);
            if (se == Error::None) {
                outstanding++;
                break;
            }
            if (se != Error::NoCredits)
                return 3;
            // Out of credits: the previous request still owns the slot.
            // Wait for its reply (which refunds the credit) and retry.
            drainOne(true);
            if (M3_REQTRACE_ON)
                trace::ReqTrace::noteCreditStall(ctx,
                                                 sim.curCycle() - s0);
        }
    }
    while (outstanding > 0)
        drainOne(true);
    if (M3_REQTRACE_ON)
        Fiber::current()->setReqCtx(0);
    return 0;
}

void
appendU64(std::string &out, const char *key, uint64_t v, bool comma = true)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64 "%s", key, v,
                  comma ? ", " : "");
    out += buf;
}

} // anonymous namespace

OpenLoopResult
runOpenLoop(const OpenLoopOpts &opts)
{
    OpenLoopResult res;
    if (trace::ReqTrace::on)
        trace::ReqTrace::reset();
    // Deterministic class registration, before any traffic exists.
    const uint32_t clsEcho = trace::ReqTrace::registerClass("echo");
    const uint32_t clsKv = trace::ReqTrace::registerClass("kv");

    M3SystemCfg cfg;
    cfg.withFs = false;
    cfg.numKernels = opts.numKernels;
    // Root + service + one PE per client.
    cfg.appPes = opts.clients + 2;

    M3System sys(std::move(cfg));

    const peid_t servicePe = sys.rootPe() + 1;
    kernel::Kernel::BootProgram prog;
    prog.pe = servicePe;
    prog.name = "rpc";
    Platform *plat = &sys.platform();
    const uint64_t serviceCycles = opts.serviceCycles;
    prog.main = [plat, servicePe, serviceCycles](vpeid_t id) {
        Env env(*plat, servicePe, id);
        int rc = rpcServiceMain(serviceCycles);
        env.vpeExit(rc);
    };
    sys.kernelInstance(sys.domainOfPe(servicePe)).addBootProgram(
        std::move(prog));

    const OpenLoopOpts optsCopy = opts;
    sys.runRoot("openloop", [optsCopy, clsEcho, clsKv] {
        Env &env = Env::cur();
        std::vector<std::unique_ptr<VPE>> vpes;
        for (uint32_t c = 0; c < optsCopy.clients; ++c) {
            auto v = std::make_unique<VPE>(
                env, "client" + std::to_string(c));
            if (v->err() != Error::None)
                return 10;
            uint32_t cls = (c % 2) == 0 ? clsEcho : clsKv;
            if (v->run([optsCopy, c, cls] {
                    return clientMain(optsCopy, c, cls);
                }) != Error::None)
                return 11;
            vpes.push_back(std::move(v));
        }
        int rc = 0;
        for (auto &v : vpes)
            rc |= v->wait();
        return rc;
    });

    auto host0 = std::chrono::steady_clock::now();
    bool finished = sys.simulate();
    res.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host0)
            .count();
    res.rc = finished ? sys.rootExitCode() : -1;
    res.wallCycles = sys.simulator().curCycle();
    res.events = sys.eventsExecuted();

    const uint64_t totalReqs =
        uint64_t{opts.clients} * opts.requestsPerClient;
    res.completed =
        trace::ReqTrace::on ? trace::ReqTrace::completedCount() : totalReqs;

    if (trace::ReqTrace::on) {
        // The SLO report. Pure simulated integers: byte-identical across
        // repeats. "Offered" rates over the generation
        // window; the verdict calls the offered load sustainable when
        // the completion tail past the last arrival stays within 10% of
        // the arrival window (the system kept pace instead of building
        // an ever-growing backlog).
        const uint64_t firstGen = trace::ReqTrace::firstGenCycle();
        const uint64_t lastGen = trace::ReqTrace::lastGenCycle();
        const uint64_t lastEnd = trace::ReqTrace::lastEndCycle();
        const uint64_t span = lastGen > firstGen ? lastGen - firstGen : 1;
        const uint64_t tail = lastEnd > lastGen ? lastEnd - lastGen : 0;
        const uint64_t achievedSpan =
            lastEnd > firstGen ? lastEnd - firstGen : 1;
        std::string j = "{\"schema\": 1, \"workload\": \"openloop\", ";
        appendU64(j, "clients", opts.clients);
        appendU64(j, "requests_per_client", opts.requestsPerClient);
        appendU64(j, "mean_gap_cycles", opts.meanGapCycles);
        appendU64(j, "seed", opts.seed);
        appendU64(j, "service_cycles", opts.serviceCycles);
        appendU64(j, "kernels", opts.numKernels);
        appendU64(j, "requests", totalReqs);
        appendU64(j, "completed", res.completed);
        appendU64(j, "spans", trace::ReqTrace::spanCount());
        appendU64(j, "arrival_window_cycles", span);
        appendU64(j, "drain_tail_cycles", tail);
        appendU64(j, "offered_per_mcycle", totalReqs * 1000000 / span);
        appendU64(j, "achieved_per_mcycle",
                  res.completed * 1000000 / achievedSpan);
        const bool sustainable =
            res.completed == totalReqs && tail * 10 <= span;
        j += "\"sustainable\": ";
        j += sustainable ? "true" : "false";
        j += ", \"classes\": ";
        j += trace::ReqTrace::sloJson();
        j += "}\n";
        res.sloJson = std::move(j);
    }
    return res;
}

} // namespace workloads
} // namespace m3
