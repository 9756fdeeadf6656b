/**
 * @file
 * A custom OS service beyond m3fs: exercises the generic service API of
 * Sec. 4.5.3 — registration, sessions, direct client channels, and
 * kernel-arbitrated capability exchange — with a small key-value
 * service implemented exactly like an application would write one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "libm3/m3system.hh"
#include "libm3/vpe.hh"

namespace m3
{
namespace
{

/** Wire protocol of the toy key-value service. */
enum class KvOp : uint64_t
{
    Put,  //!< { Put, key, value } -> { Error }
    Get,  //!< { Get, key } -> { Error, value }
};

/** Exchange opcodes (args[0] of a session obtain). */
enum class KvXchg : uint64_t
{
    GetChannel,  //!< obtain the session's send gate
    GetStore,    //!< obtain a memory capability to the raw store
    BadCapList,  //!< a malformed answer: two caps the service never had
    GetStores,   //!< obtain two read-only memory caps to the store
    // args[0] of a session delegate:
    TakeCaps,     //!< take the caps at fresh selectors
    TakeTooMany,  //!< name one selector more than the client offered
    TakeAtOwnSel, //!< name a selector the service already uses
    TakeAtOneSel, //!< name one fresh selector for every cap
};

/** The selectors the service named in its last Delegate answer. */
struct KvTaken
{
    vpeid_t vpe = INVALID_VPE;
    std::vector<capsel_t> sels;
};

constexpr uint32_t KV_MSG = 256;

/**
 * The service program: run as a boot VPE next to the kernel. Its
 * receive gate has 16 slots of @p slotSize bytes. Its VPE id and its
 * Delegate answers are logged to @p taken, if given.
 */
int
kvServiceMain(uint32_t slotSize = KV_MSG, KvTaken *taken = nullptr)
{
    Env &env = Env::cur();
    env.acct().push(Category::Os);
    if (taken)
        taken->vpe = env.vpeId;

    RecvGate rgate(env, 16, slotSize);
    capsel_t srvSel = env.allocSels();
    if (env.createSrv(srvSel, rgate.capSel(), "kvstore") != Error::None)
        return 1;

    // A DRAM region clients can obtain read access to.
    MemGate store = MemGate::create(env, 64 * KiB, MEM_RW);

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
                if (static_cast<KvXchg>(arg0) == KvXchg::GetChannel) {
                    capsel_t sel = env.allocSels();
                    Error e = env.createSgate(sel, rgate.capSel(),
                                              ident, 1);
                    Marshaller m = is.replyStream();
                    m << e << uint64_t{1} << sel << uint64_t{0};
                    is.replyStreamSend(m);
                } else if (static_cast<KvXchg>(arg0) ==
                           KvXchg::GetStore) {
                    // Attenuated: clients get read-only access.
                    capsel_t sel = env.allocSels();
                    Error e = env.deriveMem(store.capSel(), sel, 0,
                                            64 * KiB, MEM_R);
                    Marshaller m = is.replyStream();
                    m << e << uint64_t{1} << sel << uint64_t{1}
                      << uint64_t{64 * KiB};
                    is.replyStreamSend(m);
                } else if (static_cast<KvXchg>(arg0) ==
                           KvXchg::GetStores) {
                    capsel_t sel = env.allocSels(2);
                    Error e = env.deriveMem(store.capSel(), sel, 0,
                                            64 * KiB, MEM_R);
                    if (e == Error::None)
                        e = env.deriveMem(store.capSel(), sel + 1, 0,
                                          64 * KiB, MEM_R);
                    Marshaller m = is.replyStream();
                    m << e << uint64_t{2} << sel << capsel_t(sel + 1)
                      << uint64_t{0};
                    is.replyStreamSend(m);
                } else if (static_cast<KvXchg>(arg0) ==
                           KvXchg::BadCapList) {
                    // More caps than asked for, at selectors this VPE
                    // does not hold, then no args.
                    Marshaller m = is.replyStream();
                    m << Error::None << uint64_t{2} << capsel_t{1000}
                      << capsel_t{1001} << uint64_t{0};
                    is.replyStreamSend(m);
                } else {
                    Marshaller m = is.replyStream();
                    m << Error::InvalidArgs << uint64_t{0};
                    is.replyStreamSend(m);
                }
                break;
              }
              case kif::ServiceOp::Delegate: {
                is.pull<uint64_t>();  // ident
                auto count = is.pull<uint64_t>();
                auto argc = is.pull<uint64_t>();
                auto how = static_cast<KvXchg>(argc ? is.pull<uint64_t>()
                                                    : 0);
                KvTaken log{env.vpeId, {}};
                if (how == KvXchg::TakeTooMany)
                    count++;
                for (uint64_t i = 0; i < count; ++i)
                    log.sels.push_back(
                        how == KvXchg::TakeAtOwnSel ? srvSel
                        : how == KvXchg::TakeAtOneSel && i ? log.sels[0]
                                                           : env.allocSels());
                Marshaller m = is.replyStream();
                m << Error::None << count;
                for (capsel_t sel : log.sels)
                    m << sel;
                is.replyStreamSend(m);
                if (taken)
                    *taken = std::move(log);
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
        // Direct client request.
        auto op = is.pull<KvOp>();
        if (op == KvOp::Put) {
            auto key = is.pull<uint64_t>();
            auto value = is.pull<uint64_t>();
            table[key] = value;
            // Mirror into the raw store so memory-capability clients
            // can read it directly (key-indexed slots).
            store.write(&value, sizeof(value), (key % 8192) * 8);
            is.replyError(Error::None);
        } else {
            auto key = is.pull<uint64_t>();
            auto it = table.find(key);
            Marshaller m = is.replyStream();
            if (it == table.end()) {
                m << Error::NoSuchFile;
            } else {
                m << Error::None << it->second;
            }
            is.replyStreamSend(m);
        }
    }
}

/**
 * A machine without m3fs whose service runs as a boot VPE on the PE
 * after the root's: PE2 with one kernel, PE3 (kernel domain 1) with two.
 */
struct KvFixture
{
    explicit KvFixture(std::function<int()> service = [] {
        return kvServiceMain();
    }, uint32_t appPes = 3, uint32_t kernels = 1)
    {
        M3SystemCfg cfg;
        cfg.appPes = appPes;
        cfg.withFs = false;
        cfg.numKernels = kernels;
        sys = std::make_unique<M3System>(std::move(cfg));
        addService(std::move(service), sys->rootPe() + 1);
    }

    /** Run @p service as a boot VPE on @p pe; before runRoot. */
    void
    addService(std::function<int()> service, peid_t pe)
    {
        kernel::Kernel::BootProgram prog;
        prog.pe = pe;
        prog.name = "service";
        Platform *plat = &sys->platform();
        prog.main = [plat, pe, service](vpeid_t id) {
            Env env(*plat, pe, id);
            service();
            env.vpeExit(0);
        };
        // Install before runRoot starts the kernel.
        sys->kernelInstance(sys->domainOfPe(pe))
            .addBootProgram(std::move(prog));
    }

    std::unique_ptr<M3System> sys;
};

/** Open a session, retrying while the service is still booting. */
Error
openRetrying(Env &env, capsel_t sess, const char *name)
{
    Error e = Error::None;
    for (int i = 0; i < 1000; ++i) {
        e = env.openSess(sess, name, 0);
        if (e != Error::NoSuchService)
            break;
        Fiber::current()->sleep(500);
    }
    return e;
}

TEST(Service, SessionChannelAndRequests)
{
    KvFixture fx;
    fx.sys->runRoot("client", [&] {
        Env &env = Env::cur();
        capsel_t sess = env.allocSels();
        if (openRetrying(env, sess, "kvstore") != Error::None)
            return 1;

        // Obtain the channel send gate.
        capsel_t sgateSel = env.allocSels();
        std::vector<uint64_t> ret;
        if (env.exchangeSess(sess, kif::ExchangeOp::Obtain, sgateSel, 1,
                             {static_cast<uint64_t>(KvXchg::GetChannel)},
                             &ret) != Error::None)
            return 2;
        SendGate chan(env, sgateSel, KV_MSG, true);
        RecvGate reply(env, 2, KV_MSG);

        // Put and get a few values.
        for (uint64_t k = 0; k < 10; ++k) {
            Marshaller m = chan.ostream();
            m << KvOp::Put << k << (k * k + 1);
            GateIStream r = chan.call(m, reply);
            if (r.pullError() != Error::None)
                return 3;
        }
        for (uint64_t k = 0; k < 10; ++k) {
            Marshaller m = chan.ostream();
            m << KvOp::Get << k;
            GateIStream r = chan.call(m, reply);
            if (r.pullError() != Error::None)
                return 4;
            if (r.pull<uint64_t>() != k * k + 1)
                return 5;
        }
        // Unknown key.
        Marshaller m = chan.ostream();
        m << KvOp::Get << uint64_t{999};
        GateIStream r = chan.call(m, reply);
        return r.pullError() == Error::NoSuchFile ? 0 : 6;
    });
    ASSERT_TRUE(fx.sys->simulate());
    EXPECT_EQ(fx.sys->rootExitCode(), 0);
}

TEST(Service, MemoryCapabilityExchange)
{
    KvFixture fx;
    fx.sys->runRoot("client", [&] {
        Env &env = Env::cur();
        capsel_t sess = env.allocSels();
        if (openRetrying(env, sess, "kvstore") != Error::None)
            return 1;
        capsel_t sgateSel = env.allocSels();
        std::vector<uint64_t> ret;
        env.exchangeSess(sess, kif::ExchangeOp::Obtain, sgateSel, 1,
                         {static_cast<uint64_t>(KvXchg::GetChannel)},
                         &ret);
        SendGate chan(env, sgateSel, KV_MSG, true);
        RecvGate reply(env, 2, KV_MSG);

        // Store one value via the message protocol...
        Marshaller m = chan.ostream();
        m << KvOp::Put << uint64_t{7} << uint64_t{0xabcd};
        chan.call(m, reply).pullError();

        // ...then obtain the raw store and read it directly via RDMA,
        // without involving the service (the m3fs data-path pattern).
        capsel_t memSel = env.allocSels();
        ret.clear();
        if (env.exchangeSess(sess, kif::ExchangeOp::Obtain, memSel, 1,
                             {static_cast<uint64_t>(KvXchg::GetStore)},
                             &ret) != Error::None)
            return 2;
        if (ret.empty() || ret[0] != 64 * KiB)
            return 3;
        MemGate storeView(env, memSel, ret[0]);
        uint64_t v = 0;
        if (storeView.read(&v, sizeof(v), 7 * 8) != Error::None)
            return 4;
        if (v != 0xabcd)
            return 5;
        // The view is read-only (service-side attenuation).
        return storeView.write(&v, sizeof(v), 0) == Error::NoPerm ? 0
                                                                  : 6;
    });
    ASSERT_TRUE(fx.sys->simulate());
    EXPECT_EQ(fx.sys->rootExitCode(), 0);
}

TEST(Service, ObtainWithBadCapListFailsCleanly)
{
    // A service that names more caps than asked for, or caps it does
    // not hold, gets its answer refused as a whole: the client sees the
    // error, no cap is installed, and the kernel keeps running.
    KvFixture fx;
    fx.sys->runRoot("client", [&] {
        Env &env = Env::cur();
        capsel_t sess = env.allocSels();
        if (openRetrying(env, sess, "kvstore") != Error::None)
            return 1;
        const capsel_t dst = env.allocSels(2);
        const uint64_t bad = static_cast<uint64_t>(KvXchg::BadCapList);
        // Two caps answered to a one-cap request.
        if (env.exchangeSess(sess, kif::ExchangeOp::Obtain, dst, 1,
                             {bad}) != Error::InvalidArgs)
            return 2;
        // Two caps, but the service holds neither selector.
        if (env.exchangeSess(sess, kif::ExchangeOp::Obtain, dst, 2,
                             {bad}) != Error::NoSuchCap)
            return 3;
        // Nothing was installed: the selectors still take a real cap.
        std::vector<uint64_t> ret;
        if (env.exchangeSess(sess, kif::ExchangeOp::Obtain, dst, 1,
                             {static_cast<uint64_t>(KvXchg::GetChannel)},
                             &ret) != Error::None)
            return 4;
        return 0;
    });
    ASSERT_TRUE(fx.sys->simulate());
    EXPECT_EQ(fx.sys->rootExitCode(), 0);
}

TEST(Service, RemoteObtainToOccupiedSelectorInstallsNothing)
{
    // Two kernels: the client (domain 0) obtains two caps from a
    // domain-1 service, and its own kernel installs the copies the
    // peer kernel sends. With the second destination selector in use,
    // the list is refused as a whole: the client's table is unchanged.
    KvFixture fx([] { return kvServiceMain(); }, 3, 2);
    ASSERT_NE(fx.sys->domainOfPe(fx.sys->rootPe()),
              fx.sys->domainOfPe(fx.sys->rootPe() + 1));
    const kernel::Kernel &k =
        fx.sys->kernelInstance(fx.sys->domainOfPe(fx.sys->rootPe()));
    Error got = Error::None;
    size_t before = 0, after = 0;
    bool firstFree = false;
    fx.sys->runRoot("client", [&] {
        Env &env = Env::cur();
        capsel_t sess = env.allocSels();
        if (openRetrying(env, sess, "kvstore") != Error::None)
            return 1;
        const std::vector<uint64_t> stores{
            static_cast<uint64_t>(KvXchg::GetStores)};
        // Both caps arrive at free selectors.
        const capsel_t ok = env.allocSels(2);
        if (env.exchangeSess(sess, kif::ExchangeOp::Obtain, ok, 2, stores) !=
                Error::None ||
            !k.vpe(env.vpeId)->caps.get(ok + 1))
            return 2;
        const capsel_t dst = env.allocSels(2);
        if (env.reqMem(dst + 1, KiB, MEM_RW) != Error::None)
            return 3;
        before = k.vpe(env.vpeId)->caps.size();
        got = env.exchangeSess(sess, kif::ExchangeOp::Obtain, dst, 2, stores);
        after = k.vpe(env.vpeId)->caps.size();
        firstFree = !k.vpe(env.vpeId)->caps.get(dst);
        return 0;
    });
    ASSERT_TRUE(fx.sys->simulate());
    EXPECT_EQ(fx.sys->rootExitCode(), 0);
    EXPECT_EQ(got, Error::CapExists);
    EXPECT_EQ(after, before);
    EXPECT_TRUE(firstFree);
}

TEST(Service, DelegateInstallsCapsAtServiceSelectors)
{
    // The client hands two memory caps to the service, which names the
    // selectors to put them at. The copies are children of the client's
    // caps, so revoking one takes the service's copy with it. Answers
    // naming more caps than offered, a source selector that is empty,
    // or a service selector in use fail with the matching error.
    KvTaken taken;
    KvFixture fx([&taken] { return kvServiceMain(KV_MSG, &taken); });
    const kernel::Kernel &k = fx.sys->kernelInstance();
    auto srvCap = [&](capsel_t sel) {
        return k.vpe(taken.vpe)->caps.get(sel);
    };
    fx.sys->runRoot("client", [&] {
        Env &env = Env::cur();
        capsel_t sess = env.allocSels();
        if (openRetrying(env, sess, "kvstore") != Error::None)
            return 1;
        auto delegate = [&](capsel_t first, uint32_t n, KvXchg how) {
            return env.exchangeSess(sess, kif::ExchangeOp::Delegate, first,
                                    n, {static_cast<uint64_t>(how)});
        };
        const capsel_t mem = env.allocSels(2);
        if (env.reqMem(mem, KiB, MEM_RW) != Error::None ||
            env.reqMem(mem + 1, KiB, MEM_R) != Error::None)
            return 2;
        if (delegate(mem, 2, KvXchg::TakeCaps) != Error::None)
            return 3;
        const kernel::Vpe *client = k.vpe(env.vpeId);
        if (taken.sels.size() != 2)
            return 4;
        for (uint32_t i = 0; i < 2; ++i) {
            kernel::Capability *copy = srvCap(taken.sels[i]);
            if (!copy || copy->obj != client->caps.get(mem + i)->obj ||
                copy->parent != client->caps.get(mem + i))
                return 5;
        }
        const std::vector<capsel_t> first = taken.sels;
        if (env.revoke(mem, true) != Error::None)
            return 6;
        if (srvCap(first[0]) || !srvCap(first[1]))
            return 7;
        // A refused answer installs nothing at the selectors it named.
        if (delegate(mem + 1, 1, KvXchg::TakeTooMany) != Error::InvalidArgs ||
            srvCap(taken.sels[0]) || srvCap(taken.sels[1]))
            return 8;
        if (delegate(mem, 1, KvXchg::TakeCaps) != Error::NoSuchCap ||
            srvCap(taken.sels[0]))
            return 9;
        if (delegate(mem + 1, 1, KvXchg::TakeAtOwnSel) != Error::CapExists)
            return 10;
        return 0;
    });
    ASSERT_TRUE(fx.sys->simulate());
    EXPECT_EQ(fx.sys->rootExitCode(), 0);
}

/**
 * Delegate two caps to a fresh kvstore session, the second source
 * selector left empty if @p secondEmpty, and the service answering
 * @p how. Expects @p want and a service cap table of unchanged size.
 */
void
expectDelegateInstallsNothing(KvXchg how, bool secondEmpty, Error want)
{
    KvTaken taken;
    KvFixture fx([&taken] { return kvServiceMain(KV_MSG, &taken); });
    const kernel::Kernel &k = fx.sys->kernelInstance();
    Error got = Error::None;
    size_t before = 0, after = 0;
    fx.sys->runRoot("client", [&] {
        Env &env = Env::cur();
        capsel_t sess = env.allocSels();
        if (openRetrying(env, sess, "kvstore") != Error::None)
            return 1;
        const capsel_t mem = env.allocSels(2);
        if (env.reqMem(mem, KiB, MEM_RW) != Error::None ||
            (!secondEmpty && env.reqMem(mem + 1, KiB, MEM_R) != Error::None))
            return 2;
        before = k.vpe(taken.vpe)->caps.size();
        got = env.exchangeSess(sess, kif::ExchangeOp::Delegate, mem, 2,
                               {static_cast<uint64_t>(how)});
        after = k.vpe(taken.vpe)->caps.size();
        return 0;
    });
    ASSERT_TRUE(fx.sys->simulate());
    EXPECT_EQ(fx.sys->rootExitCode(), 0);
    EXPECT_EQ(got, want);
    EXPECT_EQ(after, before);
}

TEST(Service, DelegateWithEmptySourceInstallsNothing)
{
    // The second of two offered source selectors is empty: the kernel
    // refuses the answer as a whole, and the first cap, whose check
    // passed, is not left behind at the service either.
    expectDelegateInstallsNothing(KvXchg::TakeCaps, true, Error::NoSuchCap);
}

TEST(Service, DelegateTwiceToOneSelectorInstallsNothing)
{
    // The service names one selector for both caps: the second cap has
    // nowhere to go, so neither is installed.
    expectDelegateInstallsNothing(KvXchg::TakeAtOneSel, false,
                                  Error::CapExists);
}

TEST(Service, OversizedRequestToSmallSlotServiceFails)
{
    // The service's ring has 64-byte slots: an Obtain carrying 8 args
    // does not fit. The kernel's send fails; the client gets the DTU's
    // error and the kernel keeps serving.
    KvFixture fx([] { return kvServiceMain(64); });
    fx.sys->runRoot("client", [&] {
        Env &env = Env::cur();
        capsel_t sess = env.allocSels();
        if (openRetrying(env, sess, "kvstore") != Error::None)
            return 1;
        std::vector<uint64_t> args(kif::MAX_EXCHG_ARGS, 0);
        if (env.exchangeSess(sess, kif::ExchangeOp::Obtain,
                             env.allocSels(), 1,
                             args) != Error::MsgTooBig)
            return 2;
        // A request that fits still goes through.
        return env.openSess(env.allocSels(), "kvstore", 0) == Error::None
                   ? 0
                   : 3;
    });
    ASSERT_TRUE(fx.sys->simulate());
    EXPECT_EQ(fx.sys->rootExitCode(), 0);
}

/** What the holding service saw, in simulated cycles. */
struct HoldLog
{
    std::vector<Cycles> arrivals;  //!< each kernel request
    Cycles firstReply = 0;
    /** If set, the hold ends at this cycle, not 1M cycles after the
     *  hold-th request arrived: several services answer at once. */
    Cycles holdUntil = 0;
};

/** How a holding service ends its hold. */
enum class HoldEnd
{
    Answer,  //!< answer the held requests, and every later one at once
    Revoke,  //!< revoke its registration and exit, answering none
    Exit,    //!< exit without revoking, answering none
};

/**
 * A service named @p name that answers nothing until @p hold Open
 * requests wait in its ring, then sleeps long enough for every client
 * to issue its request (or until log.holdUntil), takes what reached its
 * ring meanwhile and ends its hold as @p end says.
 */
int
holdServiceMain(uint32_t hold, HoldEnd end, HoldLog &log,
                const char *name = "holder")
{
    Env &env = Env::cur();
    RecvGate rgate(env, 16, KV_MSG);
    capsel_t srvSel = env.allocSels();
    if (env.createSrv(srvSel, rgate.capSel(), name) != Error::None)
        return 1;
    std::vector<GateIStream> held;
    uint64_t ident = 1;
    auto arrived = [&](GateIStream is) {
        held.push_back(std::move(is));
        log.arrivals.push_back(env.platform.simulator().curCycle());
    };
    for (;;) {
        arrived(rgate.receive());
        if (log.firstReply == 0 && held.size() < hold)
            continue;
        if (log.firstReply == 0) {
            const Cycles now = env.platform.simulator().curCycle();
            Fiber::current()->sleep(
                log.holdUntil > now ? log.holdUntil - now : 1000000);
            for (;;) {
                GateIStream is = rgate.tryReceive();
                if (!is.valid())
                    break;
                arrived(std::move(is));
            }
            if (end == HoldEnd::Revoke)
                return env.revoke(srvSel, true) == Error::None ? 0 : 2;
            if (end == HoldEnd::Exit)
                return 0;
            log.firstReply = env.platform.simulator().curCycle();
        }
        for (GateIStream &is : held) {
            Marshaller m = is.replyStream();
            m << Error::None << ident++;
            is.replyStreamSend(m);
        }
        held.clear();
    }
}

/**
 * @p clients children of the root open the holding service at once,
 * client i the one named names[i % names.size()]. Returns each client's
 * result, the cycle it issued its OpenSess, and the result of one more
 * open of names[0] by the root once all of them exited.
 */
void
openConcurrently(M3System &sys, uint32_t clients,
                 std::vector<Error> &results, std::vector<Cycles> &issued,
                 Error &lateOpen,
                 const std::vector<std::string> &names = {"holder"})
{
    results.assign(clients, Error::InvalidArgs);
    issued.assign(clients, 0);
    sys.runRoot("root", [&] {
        Env &env = Env::cur();
        std::vector<std::unique_ptr<VPE>> children;
        for (uint32_t i = 0; i < clients; ++i) {
            auto v = std::make_unique<VPE>(
                env, std::string("c").append(std::to_string(i)));
            if (v->err() != Error::None)
                return 1;
            if (sys.domainOfPe(v->peId()) != sys.domainOfPe(sys.rootPe()))
                return 2;
            const std::string &name = names[i % names.size()];
            Error run = v->run([&results, &issued, &name, i] {
                Env &cenv = Env::cur();
                capsel_t sess = cenv.allocSels();
                // Retry while the service is still booting.
                for (int t = 0; t < 1000; ++t) {
                    issued[i] = cenv.platform.simulator().curCycle();
                    results[i] = cenv.openSess(sess, name, 0);
                    if (results[i] != Error::NoSuchService)
                        break;
                    Fiber::current()->sleep(500);
                }
                return 0;
            });
            if (run != Error::None)
                return 3;
            children.push_back(std::move(v));
        }
        for (auto &v : children)
            if (v->wait() != 0)
                return 4;
        lateOpen = env.openSess(env.allocSels(), names[0], 0);
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    ASSERT_EQ(sys.rootExitCode(), 0);
}

TEST(Service, KernelChannelQueuesBeyondCredits)
{
    // 20 opens against a service channel of 16 credits: 16 go out, 4
    // wait in the kernel until the first reply returns a credit.
    HoldLog log;
    KvFixture fx([&log] { return holdServiceMain(16, HoldEnd::Answer, log); }, 22);
    std::vector<Error> results;
    std::vector<Cycles> issued;
    Error late = Error::InvalidArgs;
    openConcurrently(*fx.sys, 20, results, issued, late);
    for (Error e : results)
        EXPECT_EQ(e, Error::None);
    EXPECT_EQ(late, Error::None);
    ASSERT_EQ(log.arrivals.size(), 21u);  // plus the root's late open
    EXPECT_LT(*std::max_element(issued.begin(), issued.end()),
              log.firstReply);
    EXPECT_GT(log.arrivals[16], log.firstReply);
    EXPECT_TRUE(fx.sys->kernelInstance().channelsIdle());
}

TEST(Service, IkChannelQueuesBeyondCredits)
{
    // Two kernels: 10 domain-0 clients open a domain-1 service. Their
    // kernel holds 8 inter-kernel credits to domain 1, so the 9th and
    // 10th open wait in domain 0 until the first reply comes back.
    HoldLog log;
    KvFixture fx(
        [&log] { return holdServiceMain(kif::IK_CREDITS, HoldEnd::Answer, log); },
        21, 2);
    std::vector<Error> results;
    std::vector<Cycles> issued;
    Error late = Error::InvalidArgs;
    openConcurrently(*fx.sys, 10, results, issued, late);
    for (Error e : results)
        EXPECT_EQ(e, Error::None);
    EXPECT_EQ(late, Error::None);
    ASSERT_EQ(log.arrivals.size(), 11u);  // plus the root's late open
    EXPECT_LT(*std::max_element(issued.begin(), issued.end()),
              log.firstReply);
    EXPECT_GT(log.arrivals[kif::IK_CREDITS], log.firstReply);
    for (uint32_t k = 0; k < 2; ++k)
        EXPECT_TRUE(fx.sys->kernelInstance(k).channelsIdle()) << k;
}

TEST(Service, DeadServiceFailsInFlightAndQueuedRequests)
{
    // 20 opens: 16 reach the service, 4 wait in the kernel. The service
    // then revokes its registration and exits without answering any.
    // Every client gets PeerGone, nothing hangs, and the name is gone.
    HoldLog log;
    KvFixture fx([&log] { return holdServiceMain(16, HoldEnd::Revoke, log); }, 22);
    std::vector<Error> results;
    std::vector<Cycles> issued;
    Error late = Error::InvalidArgs;
    openConcurrently(*fx.sys, 20, results, issued, late);
    for (Error e : results)
        EXPECT_EQ(e, Error::PeerGone);
    EXPECT_EQ(late, Error::NoSuchService);
    EXPECT_EQ(log.arrivals.size(), 16u);
    EXPECT_TRUE(fx.sys->kernelInstance().channelsIdle());
}

TEST(Service, ExitingServiceFailsItsRequests)
{
    // As above, but the service exits without revoking anything: its
    // exit retires the registration all the same.
    HoldLog log;
    KvFixture fx([&log] { return holdServiceMain(16, HoldEnd::Exit, log); },
                 22);
    std::vector<Error> results;
    std::vector<Cycles> issued;
    Error late = Error::InvalidArgs;
    openConcurrently(*fx.sys, 20, results, issued, late);
    for (Error e : results)
        EXPECT_EQ(e, Error::PeerGone);
    EXPECT_EQ(late, Error::NoSuchService);
    EXPECT_EQ(log.arrivals.size(), 16u);
    EXPECT_TRUE(fx.sys->kernelInstance().channelsIdle());
}

TEST(Service, TwoServicesShareTheReplyRing)
{
    // 32 opens, 16 per service: both services hold their requests
    // until every client has issued its open, then answer all that
    // reached them at the same cycle. Both channels have 16 credits,
    // but the kernel's reply ring has 16 slots for both, so at most 16
    // requests may be in flight between them, or replies are dropped.
    HoldLog logA, logB;
    logA.holdUntil = logB.holdUntil = 3000000;
    KvFixture fx(
        [&logA] { return holdServiceMain(1, HoldEnd::Answer, logA, "a"); },
        35);
    fx.addService(
        [&logB] { return holdServiceMain(1, HoldEnd::Answer, logB, "b"); },
        fx.sys->rootPe() + 2);
    std::vector<Error> results;
    std::vector<Cycles> issued;
    Error late = Error::InvalidArgs;
    openConcurrently(*fx.sys, 32, results, issued, late, {"a", "b"});
    for (Error e : results)
        EXPECT_EQ(e, Error::None);
    EXPECT_EQ(late, Error::None);
    EXPECT_EQ(logA.arrivals.size() + logB.arrivals.size(), 33u);
    EXPECT_LT(*std::max_element(issued.begin(), issued.end()),
              logA.holdUntil);
    EXPECT_EQ(logA.firstReply, logB.firstReply);
    uint64_t dropped = 0;
    for (peid_t p = 0; p < fx.sys->platform().peCount(); ++p)
        dropped += fx.sys->platform().pe(p).dtu().stats().msgsDropped;
    EXPECT_EQ(dropped, 0u);
    EXPECT_TRUE(fx.sys->kernelInstance().channelsIdle());
}

} // anonymous namespace
} // namespace m3
