/**
 * @file
 * Multi-kernel machines (Sec. 7: sharding the control plane): booting
 * with several kernel instances, remote VPE placement when the local
 * domain runs out of PEs, cross-domain sessions (a client in one kernel
 * domain mounting an m3fs served in another) and cross-domain
 * capability delegation over the inter-kernel protocol.
 */

#include <gtest/gtest.h>

#include <set>

#include "kernel/kif.hh"
#include "libm3/gates.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"

namespace m3
{
namespace
{

/**
 * Two kernels, one fs, three app PEs. Layout: PE0/PE1 kernels, PE2 fs
 * (domain 0), PE3 root (domain 1), PE4 (domain 0), PE5 (domain 1). The
 * root's domain owns exactly one free PE, so the second child it
 * creates must be placed remotely in domain 0.
 */
M3SystemCfg
twoKernelCfg()
{
    M3SystemCfg cfg;
    cfg.numKernels = 2;
    cfg.appPes = 3;
    cfg.fsSpec.dirs = {"/data"};
    cfg.fsSpec.totalBlocks = 16384;
    return cfg;
}

TEST(MultiKernel, BootsAndCrossDomainMountWorks)
{
    // Root lives in domain 1, m3fs in domain 0: mounting "/" already
    // exercises the cross-domain OpenSess/SessExchange path.
    M3System sys(twoKernelCfg());
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        if (m3fs::M3fsSession::mount(env, "/") != Error::None)
            return 1;
        Error e = Error::None;
        auto data = m3fs::FsImage::patternData(9000, 7);
        {
            auto f = env.vfs().open("/data/f", FILE_W | FILE_CREATE, e);
            if (!f)
                return 2;
            if (f->write(data.data(), data.size()) !=
                static_cast<ssize_t>(data.size()))
                return 3;
        }
        auto f = env.vfs().open("/data/f", FILE_R, e);
        if (!f)
            return 4;
        std::vector<uint8_t> back(data.size());
        if (f->read(back.data(), back.size()) !=
            static_cast<ssize_t>(back.size()))
            return 5;
        return back == data ? 0 : 6;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    // The session was obtained across the kernel boundary.
    EXPECT_GT(sys.kernelInstance(1).stats().ikRequestsSent, 0u);
    EXPECT_GT(sys.kernelInstance(0).stats().ikRequestsHandled, 0u);
    std::string report;
    EXPECT_TRUE(sys.fsImage()->core().check(report)) << report;
}

TEST(MultiKernel, RemotePlacementAndExitPropagation)
{
    M3System sys(twoKernelCfg());
    uint32_t rootDomain = sys.domainOfPe(sys.rootPe());
    std::vector<vpeid_t> childIds;
    std::vector<peid_t> childPes;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        // Two children on a domain owning one free PE: the second must
        // land in the peer domain, and both exit codes must come back.
        VPE a(env, "a"), b(env, "b");
        if (a.err() != Error::None || b.err() != Error::None)
            return 1;
        childIds = {a.id(), b.id()};
        childPes = {a.peId(), b.peId()};
        a.run([] { return 41; });
        b.run([] { return 42; });
        if (a.wait() != 41)
            return 2;
        if (b.wait() != 42)
            return 3;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    ASSERT_EQ(sys.rootExitCode(), 0);
    ASSERT_EQ(childIds.size(), 2u);
    // Exactly one child was placed remotely (domain-tagged VPE ids).
    uint32_t remote = 0;
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(kif::domainOfVpe(childIds[i]),
                  sys.domainOfPe(childPes[i]));
        if (kif::domainOfVpe(childIds[i]) != rootDomain)
            ++remote;
    }
    EXPECT_EQ(remote, 1u);
    uint32_t peerDomain = 1 - rootDomain;
    EXPECT_EQ(sys.kernelInstance(peerDomain).stats().remoteVpesPlaced, 1u);
}

TEST(MultiKernel, CrossDomainDelegatedSendGateWorks)
{
    M3SystemCfg cfg = twoKernelCfg();
    cfg.withFs = false;  // PE1..: root PE2 (d0), then PE3 (d1), PE4 (d0)
    M3System sys(std::move(cfg));
    uint32_t rootDomain = sys.domainOfPe(sys.rootPe());
    uint32_t remoteChildren = 0;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        RecvGate rg(env, 4, 128);
        SendGate sg = SendGate::create(env, rg, 0x5151, 2);
        // Fill the local domain first so the second child goes remote;
        // delegate the send gate to both and collect both messages.
        VPE a(env, "a"), b(env, "b");
        if (a.err() != Error::None || b.err() != Error::None)
            return 1;
        if (kif::domainOfVpe(b.id()) == kif::domainOfVpe(a.id()))
            return 2;  // expected one local + one remote placement
        for (VPE *v : {&a, &b})
            if (v->delegate(sg.capSel(), 1, 40) != Error::None)
                return 3;
        auto body = [] {
            Env &cenv = Env::cur();
            SendGate csg(cenv, 40, 128, true);
            Marshaller m = csg.ostream();
            m << uint64_t{cenv.vpeId};
            return csg.send(m) == Error::None ? 0 : 1;
        };
        a.run(body);
        b.run(body);
        std::set<uint64_t> got;
        for (int i = 0; i < 2; ++i) {
            GateIStream is = rg.receive();
            if (is.label() != 0x5151)
                return 4;
            got.insert(is.pull<uint64_t>());
        }
        if (a.wait() != 0 || b.wait() != 0)
            return 5;
        return got == std::set<uint64_t>{a.id(), b.id()} ? 0 : 6;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    uint32_t peerDomain = 1 - rootDomain;
    remoteChildren =
        sys.kernelInstance(peerDomain).stats().remoteVpesPlaced;
    EXPECT_EQ(remoteChildren, 1u);
}

TEST(MultiKernel, CrossDomainDelegateToOccupiedSelectorInstallsNothing)
{
    // Two caps delegated to a child in the peer domain, whose kernel
    // installs them. With the child's second destination selector in
    // use, the list is refused as a whole: the child's table is
    // unchanged.
    M3SystemCfg cfg = twoKernelCfg();
    cfg.withFs = false;
    M3System sys(std::move(cfg));
    Error got = Error::None;
    size_t before = 0, after = 0;
    bool firstFree = false;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        VPE a(env, "a"), b(env, "b");
        if (a.err() != Error::None || b.err() != Error::None)
            return 1;
        VPE &remote =
            kif::domainOfVpe(a.id()) == kif::domainOfVpe(env.vpeId) ? b : a;
        const uint32_t domain = kif::domainOfVpe(remote.id());
        if (domain == kif::domainOfVpe(env.vpeId))
            return 2;
        const capsel_t mem = env.allocSels(2);
        if (env.reqMem(mem, KiB, MEM_RW) != Error::None ||
            env.reqMem(mem + 1, KiB, MEM_R) != Error::None)
            return 3;
        if (remote.delegate(mem + 1, 1, 41) != Error::None)
            return 4;
        const kernel::Vpe *child =
            sys.kernelInstance(domain).vpe(remote.id());
        if (!child || !child->caps.get(41))
            return 5;
        before = child->caps.size();
        got = remote.delegate(mem, 2, 40);
        after = child->caps.size();
        firstFree = !child->caps.get(40);
        a.run([] { return 0; });
        b.run([] { return 0; });
        return a.wait() == 0 && b.wait() == 0 ? 0 : 6;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(got, Error::CapExists);
    EXPECT_EQ(after, before);
    EXPECT_TRUE(firstFree);
}

TEST(MultiKernel, FourKernelsManyChildren)
{
    // A larger machine: 4 kernels, 8 app PEs, children spread across
    // every domain with exit codes intact.
    M3SystemCfg cfg;
    cfg.numKernels = 4;
    cfg.appPes = 8;
    cfg.withFs = false;
    M3System sys(std::move(cfg));
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        std::vector<std::unique_ptr<VPE>> vpes;
        // Create every child before starting any, so each holds its PE
        // and placement is forced to spill into the peer domains.
        for (int i = 0; i < 7; ++i) {
            auto v = std::make_unique<VPE>(
                env, std::string("c").append(std::to_string(i)));
            if (v->err() != Error::None)
                return 1 + i;
            vpes.push_back(std::move(v));
        }
        for (int i = 0; i < 7; ++i)
            vpes[i]->run([i] { return 10 + i; });
        for (int i = 0; i < 7; ++i)
            if (vpes[i]->wait() != 10 + i)
                return 100 + i;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    uint64_t placed = 0;
    for (uint32_t k = 0; k < sys.numKernels(); ++k)
        placed += sys.kernelInstance(k).stats().remoteVpesPlaced;
    // Root's domain has one free PE left (root holds the other); the
    // remaining 6 children are placed remotely.
    EXPECT_EQ(placed, 6u);
}

TEST(MultiKernel, DrainedIdlePeIsNotReportedFree)
{
    // Kernels on 0/1, apps on 2..5: domain 0 owns {2 (root), 4}, domain
    // 1 owns {3, 5}. Domain 1 drains its idle PE 5 at once, so it has
    // one PE a CreateVpe could get. The root fills PE 4, places a
    // second child remotely on PE 3, and the reply reports domain 1's
    // free PEs: none. A third child must then fail locally with
    // NoFreePe instead of sending an IK CreateVpe bound to be refused.
    M3SystemCfg cfg;
    cfg.numKernels = 2;
    cfg.appPes = 4;
    cfg.withFs = false;
    cfg.drains = {{5, 1}};
    M3System sys(std::move(cfg));
    uint64_t sentBefore = 0, sentAfter = 0;
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Fiber::current()->sleep(20000);  // the drain is done by now
        VPE a(env, "a"), b(env, "b");
        if (a.err() != Error::None || b.err() != Error::None)
            return 1;
        if (a.peId() != 4 || b.peId() != 3)
            return 2;
        sentBefore = sys.kernelInstance(0).stats().ikRequestsSent;
        VPE c(env, "c");
        sentAfter = sys.kernelInstance(0).stats().ikRequestsSent;
        if (c.err() != Error::NoFreePe)
            return 3;
        a.run([] { return 0; });
        b.run([] { return 0; });
        return a.wait() + b.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(sys.kernelInstance(1).stats().drains, 1u);
    EXPECT_EQ(sentAfter, sentBefore);
}

TEST(MultiKernel, SingleKernelMachineHasNoIkTraffic)
{
    // numKernels=1 must take exactly the classic paths: no inter-kernel
    // requests, no remote placements.
    M3SystemCfg cfg;
    cfg.appPes = 3;
    cfg.withFs = false;
    M3System sys(std::move(cfg));
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        VPE child(env, "c");
        if (child.err() != Error::None)
            return 1;
        child.run([] { return 7; });
        return child.wait() == 7 ? 0 : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(sys.kernelInstance().stats().ikRequestsSent, 0u);
    EXPECT_EQ(sys.kernelInstance().stats().ikRequestsHandled, 0u);
    EXPECT_EQ(sys.kernelInstance().stats().remoteVpesPlaced, 0u);
}

} // anonymous namespace
} // namespace m3
