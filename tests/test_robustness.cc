/**
 * @file
 * Fault injection and recovery: the deterministic fault plan, the DTU's
 * checksum/timeout/credit-reclaim machinery, NoC-level packet loss, the
 * stale-reply generation filter, receive-ring backpressure, the libm3
 * retry layer, m3fs session re-open and the kernel watchdog.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "libm3/m3system.hh"
#include "libm3/pipe.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"
#include "sim/fault_plan.hh"

namespace m3
{
namespace
{

// ---------------------------------------------------------------------
// FaultPlan unit tests: determinism and scoping.
// ---------------------------------------------------------------------

TEST(FaultPlan, IdenticalConfigReplaysIdentically)
{
    FaultPlanCfg cfg;
    cfg.seed = 42;
    cfg.dropRate = 0.3;
    cfg.delayRate = 0.2;
    cfg.corruptRate = 0.25;
    cfg.extAckDropRate = 0.5;
    FaultPlan a(cfg), b(cfg);
    for (uint64_t i = 0; i < 500; ++i) {
        Cycles now = 10 * i;
        auto da = a.onPacket(now, i % 4, (i + 1) % 4);
        auto db = b.onPacket(now, i % 4, (i + 1) % 4);
        ASSERT_EQ(static_cast<int>(da.action), static_cast<int>(db.action));
        ASSERT_EQ(da.delay, db.delay);
        ASSERT_EQ(da.seq, db.seq);
        uint64_t offA = 0, offB = 0;
        ASSERT_EQ(a.corruptPayload(now, 0, 1, 64, offA),
                  b.corruptPayload(now, 0, 1, 64, offB));
        ASSERT_EQ(offA, offB);
        ASSERT_EQ(a.refuseExtAck(now, 0, 1), b.refuseExtAck(now, 0, 1));
    }
    EXPECT_FALSE(a.trace().empty());
    EXPECT_EQ(a.trace().size(), b.trace().size());
    EXPECT_EQ(a.traceDigest(), b.traceDigest());

    // A different seed must produce a different fault pattern.
    FaultPlanCfg other = cfg;
    other.seed = 43;
    FaultPlan c(other);
    for (uint64_t i = 0; i < 500; ++i) {
        c.onPacket(10 * i, i % 4, (i + 1) % 4);
        uint64_t off = 0;
        c.corruptPayload(10 * i, 0, 1, 64, off);
        c.refuseExtAck(10 * i, 0, 1);
    }
    EXPECT_NE(c.traceDigest(), a.traceDigest());
}

TEST(FaultPlan, DirectedDropsRespectPairAndCap)
{
    FaultPlanCfg cfg;
    cfg.seed = 9;
    cfg.dropRate = 1.0;
    cfg.maxDrops = 3;
    cfg.dropPairs = {{2, 1}};
    FaultPlan plan(cfg);
    uint64_t dropped = 0;
    for (Cycles i = 0; i < 100; ++i) {
        // Wrong direction: never dropped.
        if (plan.onPacket(i, 1, 2).action == FaultPlan::PacketAction::Drop)
            dropped++;
    }
    EXPECT_EQ(dropped, 0u);
    for (Cycles i = 0; i < 100; ++i) {
        if (plan.onPacket(100 + i, 2, 1).action ==
            FaultPlan::PacketAction::Drop) {
            dropped++;
        }
    }
    EXPECT_EQ(dropped, 3u);  // capped by maxDrops
    EXPECT_EQ(plan.stats().packetsDropped, 3u);
    EXPECT_EQ(plan.stats().packetsSeen, 200u);
}

TEST(FaultPlan, ExactSeqDropsFire)
{
    FaultPlanCfg cfg;
    cfg.dropSeqs = {0, 3};
    FaultPlan plan(cfg);
    std::vector<int> actions;
    for (Cycles i = 0; i < 5; ++i)
        actions.push_back(
            static_cast<int>(plan.onPacket(i, 0, 1).action));
    int drop = static_cast<int>(FaultPlan::PacketAction::Drop);
    int none = static_cast<int>(FaultPlan::PacketAction::None);
    EXPECT_EQ(actions, (std::vector<int>{drop, none, none, drop, none}));
}

// ---------------------------------------------------------------------
// Raw platform tests.
// ---------------------------------------------------------------------

/** A small bare platform: 3 PEs + DRAM, DTUs still privileged. */
struct BareSystem
{
    BareSystem() : platform(sim, PlatformSpec::generalPurpose(3)) {}

    Simulator sim;
    Platform platform;

    Dtu &dtu(peid_t p) { return platform.pe(p).dtu(); }
    Spm &spm(peid_t p) { return platform.pe(p).spm(); }
};

RecvEpCfg
ringCfg(Spm &spm, uint32_t slots, uint32_t slotSize, bool replies = true)
{
    RecvEpCfg cfg;
    cfg.bufAddr = spm.alloc(slots * slotSize);
    cfg.slotCount = slots;
    cfg.slotSize = slotSize;
    cfg.replyProtected = replies;
    return cfg;
}

SendEpCfg
sendCfg(uint32_t targetNode, epid_t targetEp, label_t label,
        uint32_t credits, uint32_t maxMsg)
{
    SendEpCfg cfg;
    cfg.targetNode = targetNode;
    cfg.targetEp = targetEp;
    cfg.label = label;
    cfg.credits = credits;
    cfg.maxMsgSize = maxMsg;
    return cfg;
}

TEST(Robustness, TimedWaitAndCreditRefundRecoverALostMessage)
{
    FaultPlanCfg fcfg;
    fcfg.seed = 7;
    fcfg.dropRate = 1.0;
    fcfg.maxDrops = 1;
    FaultPlan plan(fcfg);
    BareSystem s;
    s.platform.setFaultPlan(plan);

    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0x5, /*credits=*/1, 128));
    s.dtu(0).configRecv(3, ringCfg(s.spm(0), 2, 128, false));

    bool recovered = false;
    s.sim.run("recv", [&] {
        s.dtu(1).waitForMsg(2);  // only the retried message arrives
        int slot = s.dtu(1).fetchMsg(2);
        ASSERT_GE(slot, 0);
        spmaddr_t rep = s.spm(1).alloc(8);
        ASSERT_EQ(s.dtu(1).startReply(2, slot, rep, 8), Error::None);
        s.dtu(1).waitUntilIdle();
    });
    s.sim.run("send", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 8, 3, 0), Error::None);
        s.dtu(0).waitUntilIdle();
        EXPECT_EQ(s.dtu(0).credits(2), 0u);
        // The request was dropped on the NoC: the reply never comes.
        EXPECT_EQ(s.dtu(0).waitForMsg(3, 2000), Error::Timeout);
        // Reclaim the credit the lost reply can no longer refund, then
        // resend; the drop budget is exhausted, so this one goes through.
        EXPECT_EQ(s.dtu(0).refundCredit(2), Error::None);
        EXPECT_EQ(s.dtu(0).credits(2), 1u);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 8, 3, 0), Error::None);
        s.dtu(0).waitUntilIdle();
        EXPECT_EQ(s.dtu(0).waitForMsg(3, 2000), Error::None);
        recovered = true;
    });
    s.sim.simulate();
    EXPECT_TRUE(recovered);
    EXPECT_EQ(plan.stats().packetsDropped, 1u);
    EXPECT_EQ(s.platform.noc().stats().packetsDropped, 1u);
}

TEST(Robustness, CorruptedPayloadIsDroppedAtDelivery)
{
    FaultPlanCfg fcfg;
    fcfg.seed = 3;
    fcfg.corruptRate = 1.0;
    FaultPlan plan(fcfg);
    BareSystem s;
    s.platform.setFaultPlan(plan);

    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 4, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0, CREDITS_UNLIMITED, 128));

    s.sim.run("send", [&] {
        spmaddr_t msg = s.spm(0).alloc(16);
        s.spm(0).write(msg, "payload-payload!", 16);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 16), Error::None);
        s.dtu(0).waitUntilIdle();
        Fiber::current()->sleep(500);
        // The flipped byte failed the checksum: dropped, not delivered.
        EXPECT_FALSE(s.dtu(1).hasMsg(2));
    });
    s.sim.simulate();
    EXPECT_EQ(plan.stats().payloadsCorrupted, 1u);
    EXPECT_EQ(s.dtu(1).stats().msgsCorrupted, 1u);
    EXPECT_EQ(s.dtu(1).stats().msgsDropped, 1u);
    EXPECT_EQ(s.dtu(1).stats().msgsReceived, 0u);
}

TEST(Robustness, RefusedExtAckLeavesSenderWithoutCompletion)
{
    FaultPlanCfg fcfg;
    fcfg.seed = 11;
    fcfg.extAckDropRate = 1.0;
    FaultPlan plan(fcfg);
    BareSystem s;
    s.platform.setFaultPlan(plan);

    bool acked = false;
    s.sim.run("kernel", [&] {
        RecvEpCfg ring = ringCfg(s.spm(1), 2, 128);
        ASSERT_EQ(s.dtu(0).extConfigRecv(1, 4, ring,
                                         [&](Error) { acked = true; }),
                  Error::None);
        Fiber::current()->sleep(1000);
        // The config was applied remotely, but the ack was suppressed:
        // the sender's completion callback never fires and it has to
        // recover via its own deadline.
        EXPECT_FALSE(acked);
        EXPECT_EQ(s.dtu(1).ep(4).type, EpType::Receive);
    });
    s.sim.simulate();
    EXPECT_FALSE(acked);
    EXPECT_EQ(plan.stats().extAcksRefused, 1u);
}

TEST(Robustness, StaleReplyAfterResetIsDropped)
{
    // A(node 0) requests from B(node 2); while B's 256-byte reply is
    // still serialising onto the NoC, C(node 1, privileged) resets A
    // and installs a fresh ring for the PE's next owner. The small
    // config packets overtake the big reply, so the reply arrives at a
    // *valid* ring — of the wrong owner. The generation filter must
    // drop it (Sec. 3: NoC-level isolation across PE reuse).
    BareSystem s;
    RecvEpCfg aRing = ringCfg(s.spm(0), 4, 512, false);
    s.dtu(0).configRecv(3, aRing);
    s.dtu(2).configRecv(2, ringCfg(s.spm(2), 4, 512));
    s.dtu(0).configSend(2, sendCfg(2, 2, 0xab, CREDITS_UNLIMITED, 512));

    bool replyIssued = false;
    s.sim.run("A", [&] {
        spmaddr_t msg = s.spm(0).alloc(16);
        ASSERT_EQ(s.dtu(0).startSend(2, msg, 16, 3, 0x1), Error::None);
        s.dtu(0).waitUntilIdle();
    });
    s.sim.run("B", [&] {
        s.dtu(2).waitForMsg(2);
        int slot = s.dtu(2).fetchMsg(2);
        ASSERT_GE(slot, 0);
        spmaddr_t rep = s.spm(2).alloc(256);
        ASSERT_EQ(s.dtu(2).startReply(2, slot, rep, 256), Error::None);
        replyIssued = true;
    });
    s.sim.run("C", [&] {
        while (!replyIssued)
            Fiber::current()->sleep(5);
        // Reclaim A's PE: reset, then re-create the syscall-reply ring
        // for the next owner at the same address.
        ASSERT_EQ(s.dtu(1).extReset(0), Error::None);
        ASSERT_EQ(s.dtu(1).extConfigRecv(0, 3, aRing), Error::None);
    });
    s.sim.simulate();
    // The ring exists and is empty: the stale reply was filtered.
    EXPECT_EQ(s.dtu(0).stats().msgsDropped, 1u);
    EXPECT_FALSE(s.dtu(0).hasMsg(3));
}

TEST(Robustness, ReceiveRingBackpressure)
{
    BareSystem s;
    // A 2-slot ring; the well-behaved sender holds exactly 2 credits.
    s.dtu(1).configRecv(2, ringCfg(s.spm(1), 2, 128));
    s.dtu(0).configSend(2, sendCfg(1, 2, 0, /*credits=*/2, 128));
    // A misbehaving sender towards the same ring, unlimited credits.
    s.dtu(0).configSend(4, sendCfg(1, 2, 1, CREDITS_UNLIMITED, 128));

    s.sim.run("send", [&] {
        spmaddr_t msg = s.spm(0).alloc(8);
        for (int i = 0; i < 2; ++i) {
            ASSERT_EQ(s.dtu(0).startSend(2, msg, 8), Error::None);
            s.dtu(0).waitUntilIdle();
        }
        // Credits exhausted: the DTU refuses before touching the wire.
        EXPECT_EQ(s.dtu(0).startSend(2, msg, 8), Error::NoCredits);
        EXPECT_EQ(s.dtu(0).stats().creditDenials, 1u);
        EXPECT_EQ(s.dtu(0).credits(2), 0u);

        // The unlimited sender pushes a third message anyway; the full
        // ring drops it at delivery (Sec. 4.4.3: credits normally
        // prevent exactly this).
        ASSERT_EQ(s.dtu(0).startSend(4, msg, 8), Error::None);
        s.dtu(0).waitUntilIdle();
        Fiber::current()->sleep(500);
        EXPECT_EQ(s.dtu(1).stats().msgsReceived, 2u);
        EXPECT_EQ(s.dtu(1).stats().msgsDropped, 1u);

        // Acking a slot makes room again.
        int slot = s.dtu(1).fetchMsg(2);
        ASSERT_GE(slot, 0);
        s.dtu(1).ackMsg(2, slot);
        ASSERT_EQ(s.dtu(0).startSend(4, msg, 8), Error::None);
        s.dtu(0).waitUntilIdle();
        Fiber::current()->sleep(500);
        EXPECT_EQ(s.dtu(1).stats().msgsReceived, 3u);
        EXPECT_EQ(s.dtu(1).stats().msgsDropped, 1u);
    });
    s.sim.simulate();
    EXPECT_TRUE(s.sim.allFinished());
}

// ---------------------------------------------------------------------
// Full-system tests: retry, re-open, watchdog.
// ---------------------------------------------------------------------

/** Fs-enabled config. NoC nodes: kernel=0, m3fs=1, root app=2. */
M3SystemCfg
faultFsCfg()
{
    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.fsSpec.dirs = {"/d"};
    return cfg;
}

TEST(Robustness, M3fsClientRetriesLostRequests)
{
    M3SystemCfg cfg = faultFsCfg();
    cfg.faults.seed = 5;
    cfg.faults.dropRate = 1.0;
    cfg.faults.maxDrops = 2;
    cfg.faults.dropPairs = {{2, 1}};  // root -> fs requests only
    M3System sys(cfg);
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto fs = m3fs::M3fsSession::create(env, e);
        if (e != Error::None)
            return 1;
        fs->callTimeout = 20000;
        fs->callRetries = 3;
        FileInfo info;
        if (fs->stat("/d", info) != Error::None)
            return 2;
        return info.isDir() ? 0 : 3;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    ASSERT_NE(sys.faultPlan(), nullptr);
    // Both drops hit the stat request; the third attempt went through.
    EXPECT_EQ(sys.faultPlan()->stats().packetsDropped, 2u);
}

TEST(Robustness, M3fsClientReopensDeadSession)
{
    M3SystemCfg cfg = faultFsCfg();
    cfg.faults.seed = 6;
    cfg.faults.dropRate = 1.0;
    cfg.faults.maxDrops = 3;
    cfg.faults.dropPairs = {{2, 1}};
    M3System sys(cfg);
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto fs = m3fs::M3fsSession::create(env, e);
        if (e != Error::None)
            return 1;
        // Only 2 attempts per channel: the first two drops exhaust
        // them, forcing a session re-open; the replay eats the third
        // drop and its retry finally succeeds.
        fs->callTimeout = 20000;
        fs->callRetries = 1;
        FileInfo info;
        if (fs->stat("/d", info) != Error::None)
            return 2;
        return info.isDir() ? 0 : 3;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(sys.faultPlan()->stats().packetsDropped, 3u);
    // The re-open shows up as a second Open at the service.
    EXPECT_GE(sys.kernelInstance().stats().serviceRequests, 2u);
}

TEST(Robustness, M3fsSoftFailSessionSurfacesDeadServer)
{
    // The server PE dies for good: the timed call exhausts its channel,
    // the session re-open finds no service, and a softFail session
    // reports the cause from the operation instead of panicking.
    M3SystemCfg cfg = faultFsCfg();
    cfg.watchdogDeadline = 50000;
    cfg.watchdogPeriod = 10000;
    cfg.faults.seed = 7;
    cfg.faults.killPes = {{1, 1000000}};
    M3System sys(cfg);
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto fs = m3fs::M3fsSession::create(env, e);
        if (e != Error::None)
            return 1;
        fs->callTimeout = 20000;
        fs->callRetries = 1;
        fs->softFail = true;
        FileInfo info;
        if (fs->stat("/d", info) != Error::None)
            return 2;
        // Wait out the kill and the watchdog reclaim of the server,
        // heartbeating so the idle client is not reclaimed too.
        while (env.platform.simulator().curCycle() < 1500000) {
            Fiber::current()->sleep(20000);
            if (env.heartbeat() != Error::None)
                return 3;
        }
        Error se = fs->stat("/d", info);
        if (se == Error::None || se != fs->lastCallError)
            return 4;
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
}

TEST(Robustness, WatchdogReclaimsKilledVpe)
{
    M3SystemCfg cfg;
    cfg.appPes = 3;
    cfg.withFs = false;
    // Kernel=0, root=1; the first child VPE lands on PE 2.
    cfg.faults.seed = 8;
    cfg.faults.killPes = {{2, 2000000}};
    cfg.watchdogDeadline = 50000;
    cfg.watchdogPeriod = 10000;
    M3System sys(cfg);
    sys.runRoot("root", [&] {
        Env &env = Env::cur();
        VPE child(env, "victim");
        if (child.err() != Error::None)
            return 1;
        Error e = child.run([] {
            Env &cenv = Env::cur();
            // Heartbeat until the injected core kill silences us.
            for (int i = 0; i < 1000000; ++i) {
                cenv.heartbeat();
                cenv.fiber.sleep(1000);
            }
            return 0;
        });
        if (e != Error::None)
            return 2;
        if (child.peId() != 2)
            return 3;
        // The kernel must detect the dead child and answer our wait
        // with the involuntary exit code instead of hanging forever.
        // The core was killed, so the classification is "PE died"
        // (EXIT_PE_DEAD), not "program misbehaved" (EXIT_RECLAIMED).
        return child.wait() == kif::EXIT_PE_DEAD ? 0 : 4;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(sys.kernelInstance().stats().watchdogReclaims, 1u);
    EXPECT_EQ(sys.faultPlan()->stats().peKills, 1u);
    EXPECT_GT(sys.kernelInstance().stats().heartbeats, 100u);
}

TEST(Robustness, WatchdogDistinguishesMisbehavedVpeFromDeadPe)
{
    // A VPE that simply stops heartbeating on a perfectly healthy core
    // gets reclaimed with EXIT_RECLAIMED: the watchdog consults the
    // core's state (reachable through the DTU either way) to tell a
    // program failure from a hardware failure.
    M3SystemCfg cfg;
    cfg.appPes = 3;
    cfg.withFs = false;
    cfg.watchdogDeadline = 50000;
    cfg.watchdogPeriod = 10000;
    M3System sys(cfg);
    sys.runRoot("root", [&] {
        Env &env = Env::cur();
        VPE child(env, "hog");
        if (child.err() != Error::None)
            return 1;
        Error e = child.run([] {
            Env &cenv = Env::cur();
            // One heartbeat, then silence: an infinite loop that never
            // services the watchdog again.
            cenv.heartbeat();
            for (;;)
                cenv.fiber.sleep(1000000);
            return 0;
        });
        if (e != Error::None)
            return 2;
        return child.wait() == kif::EXIT_RECLAIMED ? 0 : 3;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(sys.kernelInstance().stats().watchdogReclaims, 1u);
}

TEST(Robustness, PipeWriterTeardownSurvivesDeadReader)
{
    // The reader of a push pipe dies while the writer still holds a
    // full ring (all credits spent). The writer's destructor announces
    // EOF best-effort: it must give up after a bounded wait instead of
    // spinning forever on acknowledgements that can never arrive.
    M3SystemCfg cfg;
    cfg.appPes = 3;
    cfg.withFs = false;
    // Kernel=0, root=1, reader=2, writer=3. The reader PE dies after
    // the pipe is set up and the writer runs.
    cfg.faults.seed = 12;
    cfg.faults.killPes = {{2, 1000000}};
    M3System sys(cfg);
    bool writerDone = false;
    Cycles teardown = 0;
    sys.runRoot("root", [&] {
        Env &env = Env::cur();
        VPE reader(env, "reader");
        if (reader.err() != Error::None)
            return 1;
        reader.run([&writerDone, &teardown] {
            Env &renv = Env::cur();
            constexpr size_t RING = 2048;
            constexpr uint32_t CHUNKS = 4;
            Pipe pipe(renv, /*creatorWrites=*/false, RING, CHUNKS);
            VPE writer(renv, "writer");
            if (writer.err() != Error::None)
                return 1;
            if (pipe.delegateTo(writer) != Error::None)
                return 2;
            writer.run([&writerDone, &teardown] {
                Env &wenv = Env::cur();
                // Outlive the reader before writing.
                while (wenv.platform.simulator().curCycle() < 1100000)
                    wenv.fiber.sleep(10000);
                {
                    auto out = pipePeer(wenv, true, PIPE_PEER_SELS, 2048,
                                        4);
                    // Fill the ring: all 4 credits spent, no acks ever.
                    std::vector<uint8_t> buf(512, 0x3C);
                    for (int i = 0; i < 4; ++i)
                        if (out->write(buf.data(), buf.size()) != 512)
                            return 1;
                    Cycles t0 = wenv.platform.simulator().curCycle();
                    out.reset();  // ~PipePeerWriter: best-effort EOF
                    teardown = wenv.platform.simulator().curCycle() - t0;
                }
                writerDone = true;
                return 0;
            });
            // The reader never reads; this fiber dies with its PE.
            for (;;)
                renv.fiber.sleep(10000);
            return 0;
        });
        // Poll the writer instead of waiting on the dead reader (a
        // wait on it would hang: the watchdog is off in this test).
        for (int i = 0; i < 1000 && !writerDone; ++i)
            env.fiber.sleep(10000);
        return writerDone ? 0 : 3;
    });
    ASSERT_TRUE(sys.simulate());
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_TRUE(writerDone);
    EXPECT_EQ(sys.faultPlan()->stats().peKills, 1u);
    // Bounded teardown: 4 attempts of 20k cycles plus overhead, far
    // below the forever the old unbounded retry would have spun.
    EXPECT_LT(teardown, 200000u);
}

// ---------------------------------------------------------------------
// Zero-overhead: an attached-but-inert plan must not move a cycle.
// ---------------------------------------------------------------------

Cycles
inertProbeRun(bool attachPlan)
{
    M3SystemCfg cfg = faultFsCfg();
    if (attachPlan) {
        cfg.faults.attachInert = true;
        cfg.faults.seed = 99;
    }
    M3System sys(cfg);
    sys.runRoot("t", [&] {
        Env &env = Env::cur();
        m3fs::M3fsSession::mount(env, "/");
        Error e = Error::None;
        std::vector<uint8_t> data(8192, 0x5a);
        {
            auto f = env.vfs().open("/d/f", FILE_W | FILE_CREATE, e);
            if (!f || f->write(data.data(), data.size()) !=
                          static_cast<ssize_t>(data.size()))
                return 1;
        }
        auto f = env.vfs().open("/d/f", FILE_R, e);
        std::vector<uint8_t> back(8192);
        if (!f || f->read(back.data(), back.size()) !=
                      static_cast<ssize_t>(back.size()))
            return 2;
        if (back != data)
            return 3;
        env.noop();
        return 0;
    });
    if (!sys.simulate() || sys.rootExitCode() != 0)
        return 0;
    return sys.now();
}

TEST(Robustness, InertFaultPlanAddsZeroCycles)
{
    Cycles without = inertProbeRun(false);
    Cycles with = inertProbeRun(true);
    ASSERT_NE(without, 0u);
    EXPECT_EQ(without, with);
}

} // anonymous namespace
} // namespace m3
