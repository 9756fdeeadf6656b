/**
 * @file
 * Kernel-focused tests: the capability system (delegation chains,
 * recursive revoke, attenuation), VPE lifecycle corner cases, PE
 * allocation and reuse, service registration and kernel-arbitrated
 * exchanges, and the kernel's flow-control limits.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "dtu/regs.hh"
#include "kernel/kernel.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"

namespace m3
{
namespace
{

M3SystemCfg
bareCfg(uint32_t appPes = 4)
{
    M3SystemCfg cfg;
    cfg.appPes = appPes;
    cfg.withFs = false;
    return cfg;
}

TEST(KernelCaps, DelegationChainRevokesRecursively)
{
    // root -> child -> grandchild; revoking at the root kills all.
    M3System sys(bareCfg(4));
    sys.runRoot("chain", [&] {
        Env &env = Env::cur();
        MemGate mem = MemGate::create(env, 64 * KiB, MEM_RW);
        uint64_t v = 42;
        mem.write(&v, sizeof(v), 0);

        VPE child(env, "child");
        if (child.err() != Error::None)
            return 1;
        if (child.delegate(mem.capSel(), 1, 50) != Error::None)
            return 2;
        child.run([] {
            Env &cenv = Env::cur();
            // Pass it on to a grandchild.
            VPE grand(cenv, "grand");
            if (grand.err() != Error::None)
                return 1;
            if (grand.delegate(50, 1, 60) != Error::None)
                return 2;
            grand.run([] {
                Env &genv = Env::cur();
                MemGate g(genv, 60, 64 * KiB);
                uint64_t got = 0;
                g.read(&got, sizeof(got), 0);
                return got == 42 ? 0 : 3;
            });
            return grand.wait();
        });
        if (child.wait() != 0)
            return 3;

        // Now revoke the root capability including all grants.
        if (env.revoke(mem.capSel(), true) != Error::None)
            return 4;
        // Our own endpoint is gone.
        uint64_t dummy = 0;
        return mem.read(&dummy, sizeof(dummy), 0) == Error::InvalidEp
                   ? 0
                   : 5;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_GE(sys.kernelInstance().stats().capsRevoked, 3u);
}

TEST(KernelCaps, RevokeChildrenOnlyKeepsOwn)
{
    M3System sys(bareCfg(3));
    sys.runRoot("children", [&] {
        Env &env = Env::cur();
        MemGate mem = MemGate::create(env, 64 * KiB, MEM_RW);
        VPE child(env, "child");
        if (child.err() != Error::None)
            return 1;
        child.delegate(mem.capSel(), 1, 50);
        // Revoke only the grants (own=false).
        if (env.revoke(mem.capSel(), false) != Error::None)
            return 2;
        // Own capability still works.
        uint64_t v = 7;
        if (mem.write(&v, sizeof(v), 0) != Error::None)
            return 3;
        // The child's copy is gone: using it must fail.
        child.run([] {
            Env &cenv = Env::cur();
            MemGate g(cenv, 50, 64 * KiB);
            uint64_t x = 0;
            // Activation fails (NoSuchCap) -> libm3 panics; probe via
            // the raw syscall instead.
            Error e = cenv.activate(50, 4, 0);
            (void)g;
            (void)x;
            return e == Error::NoSuchCap ? 0 : 1;
        });
        return child.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelCaps, DeriveAttenuatesPermissions)
{
    M3System sys(bareCfg(2));
    sys.runRoot("derive", [&] {
        Env &env = Env::cur();
        MemGate rw = MemGate::create(env, 64 * KiB, MEM_RW);
        // Deriving more rights than the parent has silently masks them.
        MemGate ro = rw.derive(0, 4 * KiB, MEM_R);
        capsel_t escalated = env.allocSels();
        if (env.deriveMem(ro.capSel(), escalated, 0, 4 * KiB,
                          MEM_RW) != Error::None)
            return 1;
        MemGate evil(env, escalated, 4 * KiB);
        uint64_t v = 1;
        // Writing must still fail: perms are ANDed down the chain.
        return evil.write(&v, sizeof(v), 0) == Error::NoPerm ? 0 : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelCaps, SelectorsCannotCollide)
{
    M3System sys(bareCfg(2));
    sys.runRoot("collide", [&] {
        Env &env = Env::cur();
        capsel_t sel = env.allocSels();
        if (env.reqMem(sel, 4 * KiB, MEM_RW) != Error::None)
            return 1;
        // Reusing the same selector must be rejected.
        return env.reqMem(sel, 4 * KiB, MEM_RW) == Error::CapExists
                   ? 0
                   : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelCaps, RecvGatesAreNotDelegable)
{
    M3System sys(bareCfg(3));
    sys.runRoot("norgate", [&] {
        Env &env = Env::cur();
        RecvGate rg(env, 2, 128);
        VPE child(env, "child");
        if (child.err() != Error::None)
            return 1;
        // Sec. 4.5.4: receive capabilities cannot be moved.
        return child.delegate(rg.capSel(), 1, 50) == Error::NoPerm ? 0
                                                                   : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelVpe, RevokingVpeCapKillsIt)
{
    M3System sys(bareCfg(3));
    sys.runRoot("killer", [&] {
        Env &env = Env::cur();
        VPE vpe(env, "looper");
        if (vpe.err() != Error::None)
            return 1;
        // The child blocks forever; revoking the VPE capability lets
        // the kernel reset the PE (the paper's Sec. 4.5.5 scenario).
        vpe.run([] {
            Fiber::current()->block();
            return 0;
        });
        if (vpe.revoke() != Error::None)
            return 2;
        // The PE is free again: creating another VPE must succeed.
        VPE next(env, "next");
        if (next.err() != Error::None)
            return 3;
        next.run([] { return 11; });
        return next.wait() == 11 ? 0 : 4;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelVpe, WaitAfterExitReturnsImmediately)
{
    M3System sys(bareCfg(3));
    sys.runRoot("late", [&] {
        Env &env = Env::cur();
        VPE vpe(env, "fast");
        if (vpe.err() != Error::None)
            return 1;
        vpe.run([] { return 5; });
        // Let the child finish long before we ask.
        Fiber::current()->sleep(200000);
        return vpe.wait() == 5 ? 0 : 2;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelVpe, AcceleratorTypeMatching)
{
    M3SystemCfg cfg = bareCfg(2);
    cfg.extraPes.push_back(PeDesc::accel("fft"));
    cfg.extraPes.push_back(PeDesc::accel("crypto"));
    M3System sys(std::move(cfg));
    sys.runRoot("match", [&] {
        Env &env = Env::cur();
        // Request an FFT PE specifically.
        VPE fft(env, "fft", kif::PeTypeReq::Accelerator, "fft");
        if (fft.err() != Error::None)
            return 1;
        if (env.platform.pe(fft.peId()).desc().attr != "fft")
            return 2;
        // A second FFT PE does not exist.
        VPE fft2(env, "fft2", kif::PeTypeReq::Accelerator, "fft");
        if (fft2.err() != Error::NoFreePe)
            return 3;
        // But an unspecified accelerator finds the crypto PE.
        VPE any(env, "any", kif::PeTypeReq::Accelerator, "");
        return any.err() == Error::None ? 0 : 4;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelSyscalls, BadSelectorsAreRejected)
{
    M3System sys(bareCfg(2));
    sys.runRoot("bad", [&] {
        Env &env = Env::cur();
        int fail = 0;
        fail += env.vpeStart(999) != Error::NoSuchCap;
        fail += env.revoke(999, true) != Error::NoSuchCap;
        fail += env.createSgate(env.allocSels(), 999, 0, 1) !=
                Error::NoSuchCap;
        fail += env.deriveMem(999, env.allocSels(), 0, 1, MEM_R) !=
                Error::NoSuchCap;
        int code = 0;
        fail += env.vpeWait(999, code) != Error::NoSuchCap;
        fail += env.openSess(env.allocSels(), "nosuch", 0) !=
                Error::NoSuchService;
        // Activating onto the reserved system endpoints is refused.
        MemGate mem = MemGate::create(env, 4 * KiB, MEM_RW);
        fail += env.activate(mem.capSel(), kif::SYSC_SEP, 0) !=
                Error::InvalidArgs;
        return fail;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

/** Send @p len bytes holding @p word on the syscall EP, bypassing
 *  libm3, and return the Error the kernel's reply starts with. */
Error
rawSyscall(Env &env, uint32_t len, uint64_t word = 0)
{
    env.spm().write(env.xferBuf(), &word, sizeof(word));
    Error e = env.dtu().startSend(kif::SYSC_SEP, env.xferBuf(), len,
                                  kif::SYSC_REP, 0);
    if (e != Error::None)
        return e;
    env.dtu().waitForMsg(kif::SYSC_REP);
    int slot = env.dtu().fetchMsg(kif::SYSC_REP);
    Error reply = Error::None;
    std::memcpy(&reply,
                env.spm().ptr(env.dtu().msgAddr(kif::SYSC_REP, slot) +
                                  sizeof(MessageHeader),
                              sizeof(reply)),
                sizeof(reply));
    env.dtu().ackMsg(kif::SYSC_REP, slot);
    return reply;
}

TEST(KernelSyscalls, ShortMessageIsRejected)
{
    // A syscall too short to hold its opcode, or naming none, comes from
    // an app PE's bytes: the kernel answers it and keeps serving.
    M3System sys(bareCfg(2));
    sys.runRoot("short", [&] {
        Env &env = Env::cur();
        int fail = 0;
        fail += rawSyscall(env, 0) != Error::InvalidArgs;
        fail += rawSyscall(env, 4) != Error::InvalidArgs;
        fail += rawSyscall(env, 8, uint64_t(kif::Syscall::COUNT)) !=
                Error::InvalidArgs;
        fail += env.noop() != Error::None;
        return fail;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

/** Let time pass until VPE @p id waits in the kernel for a deferred
 *  syscall reply; false if it never does. */
bool
awaitDeferredReply(Env &env, M3System &sys, vpeid_t id)
{
    for (int i = 0; i < 1000; ++i) {
        const kernel::Vpe *v = sys.kernelInstance().vpe(id);
        if (v && v->pendingReplies)
            return true;
        env.compute(1000);
    }
    return false;
}

/**
 * A child activates a send gate to the root's receive gate before the
 * root activated that receive gate, so the kernel defers the child's
 * reply (Sec. 4.5.4). @p resolve ends the wait on the receive gate;
 * then the root returns the child's exit code: the Error its Activate
 * got back.
 */
int
deferredActivation(M3System &sys,
                   const std::function<int(Env &, capsel_t rg)> &resolve)
{
    Env &env = Env::cur();
    capsel_t rg = env.allocSels();
    capsel_t sg = env.allocSels();
    if (env.createRgate(rg, 4, 64) != Error::None ||
        env.createSgate(sg, rg, 0x77, 1) != Error::None)
        return -1;
    VPE child(env, "sender");
    if (child.err() != Error::None ||
        child.delegate(sg, 1, 50) != Error::None)
        return -2;
    child.run([] {
        Env &cenv = Env::cur();
        epid_t ep = cenv.dtu().epCount() - 1;
        Error e = cenv.activate(50, ep, 0);
        if (e == Error::None) {
            uint64_t word = 42;
            cenv.spm().write(cenv.xferBuf(), &word, sizeof(word));
            e = cenv.dtu().startSend(ep, cenv.xferBuf(), sizeof(word));
            cenv.dtu().waitUntilIdle();
        }
        return static_cast<int>(e);
    });
    if (!awaitDeferredReply(env, sys, child.id()))
        return -3;
    if (int rc = resolve(env, rg))
        return rc;
    return child.wait();
}

TEST(KernelSyscalls, DeferredActivationCompletesWhenRecvGateActivates)
{
    M3System sys(bareCfg(2));
    sys.runRoot("defer", [&] {
        return deferredActivation(sys, [](Env &env, capsel_t rg) {
            epid_t ep = env.dtu().epCount() - 1;
            spmaddr_t ring = env.spm().alloc(4 * 64);
            if (env.activate(rg, ep, ring) != Error::None)
                return -4;
            // The deferred Activate configured the child's send EP: its
            // message arrives with the send gate's label.
            env.dtu().waitForMsg(ep);
            int slot = env.dtu().fetchMsg(ep);
            MessageHeader hdr = env.dtu().msgHeader(ep, slot);
            uint64_t word = 0;
            std::memcpy(&word,
                        env.spm().ptr(env.dtu().msgAddr(ep, slot) +
                                          sizeof(MessageHeader),
                                      sizeof(word)),
                        sizeof(word));
            env.dtu().ackMsg(ep, slot);
            return hdr.label == 0x77 && word == 42 ? 0 : -5;
        });
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), static_cast<int>(Error::None));
}

TEST(KernelSyscalls, DeferredActivationFailsWhenRecvGateIsRevoked)
{
    M3System sys(bareCfg(2));
    sys.runRoot("defer", [&] {
        return deferredActivation(sys, [](Env &env, capsel_t rg) {
            return env.revoke(rg, true) == Error::None ? 0 : -4;
        });
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), static_cast<int>(Error::NoSuchCap));
}

TEST(KernelSyscalls, DeferredActivationOfExitedVpeConfiguresNothing)
{
    // The waiting VPE is killed and its PE goes to a new VPE before the
    // receive gate activates: the new VPE must not get the dead one's
    // send endpoint.
    M3System sys(bareCfg(2));
    sys.runRoot("stale", [&] {
        Env &env = Env::cur();
        capsel_t rg = env.allocSels();
        capsel_t sg = env.allocSels();
        epid_t ep = env.dtu().epCount() - 1;
        if (env.createRgate(rg, 4, 64) != Error::None ||
            env.createSgate(sg, rg, 0x77, 1) != Error::None)
            return -1;
        VPE dead(env, "dead");
        if (dead.err() != Error::None ||
            dead.delegate(sg, 1, 50) != Error::None)
            return -2;
        dead.run([ep] { return int(Env::cur().activate(50, ep, 0)); });
        if (!awaitDeferredReply(env, sys, dead.id()) ||
            env.revoke(dead.sel(), true) != Error::None)
            return -3;
        VPE heir(env, "heir");
        if (heir.err() != Error::None ||
            sys.kernelInstance().vpe(heir.id())->pe !=
                sys.kernelInstance().vpe(dead.id())->pe)
            return -4;
        heir.run([ep] {
            Env &cenv = Env::cur();
            cenv.compute(20000);
            return cenv.dtu().ep(ep).type == EpType::Invalid ? 0 : 1;
        });
        if (env.activate(rg, ep, env.spm().alloc(4 * 64)) != Error::None)
            return -5;
        return heir.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelSyscalls, DramExhaustionIsGraceful)
{
    M3SystemCfg cfg = bareCfg(2);
    cfg.dramBytes = 2 * MiB;
    M3System sys(std::move(cfg));
    sys.runRoot("oom", [&] {
        Env &env = Env::cur();
        // Allocate until the kernel runs out; must end with NoSpace.
        for (int i = 0; i < 64; ++i) {
            capsel_t sel = env.allocSels();
            Error e = env.reqMem(sel, 256 * KiB, MEM_RW);
            if (e == Error::NoSpace)
                return 0;
            if (e != Error::None)
                return 1;
        }
        return 2;  // never hit the limit?
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelIsolation, AppPesAreDowngradedAtBoot)
{
    M3System sys(bareCfg(2));
    sys.runRoot("downgraded", [&] {
        Env &env = Env::cur();
        // The application's DTU must be unprivileged: local endpoint
        // configuration and external requests are refused in hardware.
        if (env.dtu().isPrivileged())
            return 1;
        RecvEpCfg cfg;
        cfg.bufAddr = 0;
        cfg.slotCount = 2;
        cfg.slotSize = 128;
        if (env.dtu().configRecv(5, cfg) != Error::NotPrivileged)
            return 2;
        if (env.dtu().extDowngrade(0) != Error::NotPrivileged)
            return 3;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelIsolation, GenerationTagBlocksStaleReplies)
{
    // PE reuse: replies addressed to a previous owner must vanish.
    M3System sys(bareCfg(3));
    sys.runRoot("gen", [&] {
        Env &env = Env::cur();
        // Create and destroy a child so its PE gets a new generation.
        peid_t reusedPe;
        {
            VPE vpe(env, "first");
            if (vpe.err() != Error::None)
                return 1;
            reusedPe = vpe.peId();
            vpe.run([] { return 0; });
            if (vpe.wait() != 0)
                return 2;
        }
        VPE vpe2(env, "second");
        if (vpe2.err() != Error::None)
            return 3;
        if (vpe2.peId() != reusedPe)
            return 0;  // allocator picked another PE; nothing to test
        vpe2.run([] { return 0; });
        vpe2.wait();
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelStats, CountsDelegations)
{
    M3System sys(bareCfg(3));
    sys.runRoot("stats", [&] {
        Env &env = Env::cur();
        MemGate mem = MemGate::create(env, 4 * KiB, MEM_RW);
        VPE child(env, "child");
        if (child.err() != Error::None)
            return 1;
        child.delegate(mem.capSel(), 1, 50);
        child.run([] { return 0; });
        return child.wait();
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_GE(sys.kernelInstance().stats().capsDelegated, 1u);
    EXPECT_GE(sys.kernelInstance().stats().vpesCreated, 2u);
}


TEST(KernelCaps, ObtainPullsCapsFromChild)
{
    // The reverse direction of Exchange: the parent obtains a
    // capability the child created (Sec. 4.5.3).
    M3System sys(bareCfg(3));
    sys.runRoot("obtain", [&] {
        Env &env = Env::cur();
        VPE child(env, "maker");
        if (child.err() != Error::None)
            return 1;
        child.run([] {
            Env &cenv = Env::cur();
            // Create a memory capability at a selector the parent
            // knows, write a marker, and idle until revoked... no:
            // simply exit; the capability outlives the program.
            capsel_t sel = 70;
            if (cenv.reqMem(sel, 4 * KiB, MEM_RW) != Error::None)
                return 1;
            MemGate g(cenv, sel, 4 * KiB);
            uint64_t v = 0x1234;
            g.write(&v, sizeof(v), 0);
            return 0;
        });
        if (child.wait() != 0)
            return 2;
        // Pull selector 70 out of the child's table into ours.
        if (child.obtain(70, 1, 80) != Error::None)
            return 3;
        MemGate mine(env, 80, 4 * KiB);
        uint64_t v = 0;
        if (mine.read(&v, sizeof(v), 0) != Error::None)
            return 4;
        return v == 0x1234 ? 0 : 5;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(KernelVpe, QueuedCreationWaitsForFreePe)
{
    // Sec. 3.3's waiting-for-a-reusable-core policy: with only one free
    // PE, five sequential children all run; each creation waits until
    // the predecessor's PE is released.
    M3System sys(bareCfg(2));  // root + one worker PE
    sys.kernelInstance().setQueueVpes(true);
    sys.runRoot("queued", [&] {
        Env &env = Env::cur();
        // Launch children without waiting in between: creation itself
        // provides the back-pressure.
        std::vector<std::unique_ptr<VPE>> kids;
        for (int i = 0; i < 5; ++i) {
            auto vpe = std::make_unique<VPE>(
                env, "kid" + std::to_string(i));
            if (vpe->err() != Error::None)
                return 1 + i;
            vpe->run([i] {
                Fiber::current()->sleep(2000);
                return 10 + i;
            });
            kids.push_back(std::move(vpe));
            // After the first child, creation necessarily waited: only
            // one worker PE exists.
        }
        for (int i = 0; i < 5; ++i)
            if (kids[i]->wait() != 10 + i)
                return 20 + i;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_GE(sys.kernelInstance().stats().vpesCreated, 6u);
}
} // anonymous namespace
} // namespace m3
