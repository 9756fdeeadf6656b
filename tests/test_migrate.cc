/**
 * @file
 * VPE live migration, PE drain and fault-driven failover: a drained
 * run produces byte-identical application output, migrating runs are
 * trace-byte deterministic, drains can cross kernel domains via PE
 * leases, and conservation laws survive migrations racing NoC faults
 * and PE kills.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "libm3/gates.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "trace/trace.hh"

namespace m3
{
namespace
{

// ---------------------------------------------------------------------
// Shared drain workload: workers stream seeded values to the root while
// the kernel evacuates one of their PEs mid-run. The per-worker message
// streams ARE the application output; they must not depend on whether
// (or where to) the kernel migrated anybody.
// ---------------------------------------------------------------------

constexpr uint32_t ROUNDS = 8;

struct DrainRun
{
    int rc = -1;
    Cycles wall = 0;
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t aborted = 0;
    uint64_t drains = 0;
    /** Per-worker streams of (round, value) words, in receive order. */
    std::map<uint64_t, std::vector<uint64_t>> streams;
};

int
drainWorker(uint64_t label)
{
    Env &cenv = Env::cur();
    SendGate out(cenv, 40, 256, /*finiteCredits=*/false);
    uint64_t acc = 0x9e3779b97f4a7c15ull * (label + 1);
    for (uint64_t r = 0; r < ROUNDS; ++r) {
        cenv.compute(30000 + 7000 * ((acc >> 8) & 3));
        acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        Marshaller m = out.ostream();
        m << label << r << acc;
        if (out.send(m) != Error::None)
            return 10;
    }
    return 0;
}

DrainRun
runDrainWorkload(bool migrate)
{
    M3SystemCfg cfg;
    // Kernel=0, root=1, workers on 2 and 3, spare on 4.
    cfg.appPes = 4;
    cfg.withFs = false;
    if (migrate) {
        cfg.migration = true;
        cfg.drains = {{2, 150000}};
    }
    DrainRun out;
    M3System sys(cfg);
    sys.runRoot("root", [&out] {
        Env &env = Env::cur();
        RecvGate rg(env, 16, 256);
        VPE w0(env, "w0"), w1(env, "w1");
        if (w0.err() != Error::None || w1.err() != Error::None)
            return 1;
        uint64_t label = 0;
        for (VPE *v : {&w0, &w1}) {
            SendGate sg = SendGate::create(env, rg, label,
                                           CREDITS_UNLIMITED);
            if (v->delegate(sg.capSel(), 1, 40) != Error::None)
                return 2;
            uint64_t l = label;
            if (v->run([l] { return drainWorker(l); }) != Error::None)
                return 3;
            label++;
        }
        for (uint32_t n = 0; n < 2 * ROUNDS; ++n) {
            GateIStream is = rg.receive();
            auto l = is.pull<uint64_t>();
            auto round = is.pull<uint64_t>();
            auto val = is.pull<uint64_t>();
            out.streams[l].push_back(round);
            out.streams[l].push_back(val);
            is.ack();
        }
        return w0.wait() + w1.wait();
    });
    sys.simulate();
    out.rc = sys.rootExitCode();
    out.wall = sys.now();
    const kernel::KernelStats &ks = sys.kernelInstance().stats();
    out.started = ks.migrationsStarted;
    out.completed = ks.migrationsCompleted;
    out.aborted = ks.migrationsAborted;
    out.drains = ks.drains;
    return out;
}

TEST(Migration, MigratedRunMatchesNonMigratedOutput)
{
    DrainRun plain = runDrainWorkload(false);
    DrainRun moved = runDrainWorkload(true);
    ASSERT_EQ(plain.rc, 0);
    ASSERT_EQ(moved.rc, 0);

    // The evacuation actually happened and lost nothing.
    EXPECT_EQ(plain.started, 0u);
    EXPECT_EQ(moved.drains, 1u);
    EXPECT_EQ(moved.started, 1u);
    EXPECT_EQ(moved.completed, 1u);
    EXPECT_EQ(moved.aborted, 0u);

    // Application output is byte-identical: same per-worker streams,
    // same order, same values — wherever the workers ended up running.
    EXPECT_EQ(plain.streams, moved.streams);
    ASSERT_EQ(plain.streams.size(), 2u);
    for (const auto &[label, words] : plain.streams)
        EXPECT_EQ(words.size(), 2 * ROUNDS) << "worker " << label;
}

TEST(Migration, MigratingRunIsTraceByteIdentical)
{
    // The cycle-accurate trace of a migrating run — drain instants,
    // context transfers, the migration itself — must serialize to
    // byte-identical JSON across two runs of the same configuration.
    auto traced = [] {
        trace::Tracer::enable();
        trace::Tracer::reset();
        DrainRun r = runDrainWorkload(true);
        std::string json =
            r.rc == 0 ? trace::Tracer::toJson() : std::string();
        trace::Tracer::disable();
        return std::make_pair(r.wall, json);
    };
    auto a = traced();
    auto b = traced();
    ASSERT_FALSE(a.second.empty());
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    // The migration actually shows up in the trace.
    EXPECT_NE(a.second.find("migration:start"), std::string::npos);
    EXPECT_NE(a.second.find("migration:done"), std::string::npos);
    EXPECT_NE(a.second.find("drain:done"), std::string::npos);
}

/**
 * Boot @p sys with a root whose one worker streams into @p words, and
 * run it. @return whether the root exited.
 */
bool
runCrossDomainDrain(M3System &sys, std::vector<uint64_t> &words)
{
    sys.runRoot("root", [&words] {
        Env &env = Env::cur();
        RecvGate rg(env, 16, 256);
        VPE w(env, "w");
        if (w.err() != Error::None)
            return 1;
        SendGate sg = SendGate::create(env, rg, 0, CREDITS_UNLIMITED);
        if (w.delegate(sg.capSel(), 1, 40) != Error::None)
            return 2;
        if (w.run([] { return drainWorker(0); }) != Error::None)
            return 3;
        for (uint32_t n = 0; n < ROUNDS; ++n) {
            GateIStream is = rg.receive();
            is.pull<uint64_t>();
            words.push_back(is.pull<uint64_t>());
            words.push_back(is.pull<uint64_t>());
            is.ack();
        }
        return w.wait();
    });
    return sys.simulate();
}

/**
 * Two kernel domains; the draining domain has no spare PE of its own,
 * so the evacuation borrows one from the peer via the PeLease protocol
 * and hands it back when the worker exits.
 */
M3SystemCfg
crossDomainDrainCfg()
{
    M3SystemCfg cfg;
    cfg.numKernels = 2;
    // Kernels on 0/1, apps on 2..5; domain 0 owns {2, 4}, domain 1
    // owns {3, 5}. Root lands on 2, its worker on 4.
    cfg.appPes = 4;
    cfg.withFs = false;
    cfg.migration = true;
    cfg.drains = {{4, 150000}};
    return cfg;
}

TEST(Migration, CrossDomainDrainBorrowsPeerPe)
{
    std::vector<uint64_t> words;
    M3System sys(crossDomainDrainCfg());
    ASSERT_TRUE(runCrossDomainDrain(sys, words));
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(words.size(), 2 * ROUNDS);

    const kernel::KernelStats &k0 = sys.kernelInstance(0).stats();
    const kernel::KernelStats &k1 = sys.kernelInstance(1).stats();
    EXPECT_EQ(k0.drains, 1u);
    EXPECT_EQ(k0.migrationsStarted, 1u);
    EXPECT_EQ(k0.migrationsCompleted, 1u);
    EXPECT_EQ(k0.migrationsAborted, 0u);
    EXPECT_EQ(k1.pesLeased, 1u);
}

TEST(Migration, PrintStatsShowsDrainsAndLeases)
{
    // The end-of-run summary prints every non-zero stat under its
    // metric name, migration and lease counts included.
    std::vector<uint64_t> words;
    M3System sys(crossDomainDrainCfg());
    ASSERT_TRUE(runCrossDomainDrain(sys, words));
    ASSERT_EQ(sys.rootExitCode(), 0);
    testing::internal::CaptureStdout();
    sys.printStats();
    const std::string out = testing::internal::GetCapturedStdout();
    for (const char *needle :
         {"\nkernel0: ", "drains=1", "migrations_completed=1",
          "\nkernel1: ", "pes_leased=1", "\npe4 dtu: "})
        EXPECT_NE(out.find(needle), std::string::npos) << needle << "\n"
                                                       << out;
}

/** Size and djb2 hash of the trace JSON: a whole-run pin. */
std::pair<size_t, uint64_t>
traceDigest()
{
    const std::string json = trace::Tracer::toJson();
    uint64_t h = 5381;
    for (char c : json)
        h = h * 33 + static_cast<uint8_t>(c);
    return {json.size(), h};
}

TEST(Migration, FailoverRestartIsPinned)
{
    // One worker's core dies mid-run; the watchdog sees the dead core
    // and restarts the worker from its retained program on the spare
    // PE, where it runs to completion. Pins: root exit, wall cycles and
    // the trace (size + djb2 hash), recorded before the kernel's PE
    // placement became one pick/claim/release path.
    trace::Tracer::enable();
    trace::Tracer::reset();
    M3SystemCfg cfg;
    // Root=1, worker on 2, spare 3.
    cfg.appPes = 3;
    cfg.withFs = false;
    cfg.failover = true;
    cfg.watchdogDeadline = 250000;
    cfg.watchdogPeriod = 50000;
    cfg.faults.killPes = {{2, 200000}};
    M3System sys(cfg);
    peid_t workerPe = INVALID_PE;
    sys.runRoot("root", [&workerPe] {
        Env &env = Env::cur();
        RecvGate rg(env, 16, 256);
        VPE w(env, "w");
        if (w.err() != Error::None)
            return 1;
        workerPe = w.peId();
        SendGate sg = SendGate::create(env, rg, 0, CREDITS_UNLIMITED);
        if (w.delegate(sg.capSel(), 1, 40) != Error::None)
            return 2;
        Error e = w.run([] {
            Env &cenv = Env::cur();
            SendGate out(cenv, 40, 256, /*finiteCredits=*/false);
            for (uint64_t r = 0; r < ROUNDS; ++r) {
                cenv.compute(40000);
                cenv.heartbeat();
                Marshaller m = out.ostream();
                m << r;
                if (out.send(m) != Error::None)
                    return 10;
            }
            return 0;
        });
        if (e != Error::None)
            return 3;
        const int rc = w.wait();
        while (rg.hasMsg())
            rg.tryReceive().ack();
        return rc;
    });
    ASSERT_TRUE(sys.simulate());
    const auto [size, hash] = traceDigest();
    trace::Tracer::disable();
    const kernel::KernelStats &ks = sys.kernelInstance().stats();
    EXPECT_EQ(workerPe, 2u);
    EXPECT_TRUE(sys.platform().pe(2).coreKilled());
    EXPECT_EQ(ks.failovers, 1u);
    EXPECT_EQ(ks.watchdogReclaims, 0u);
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(sys.now(), 789402u);
    EXPECT_EQ(size, 43727u);
    EXPECT_EQ(hash, 16907658221928830732ull);
}

TEST(Migration, DrainCoSchedulesOntoLeastLoadedPe)
{
    // Multiplexing and migration, no free PE left: four workers on the
    // three worker PEs 2..4 (the fourth shares PE 2, the lowest of the
    // equally loaded ones). Draining PE 4 then co-schedules its worker
    // onto PE 3, the least-loaded multiplexed PE that is not drained.
    // Pins: final PEs, root exit, wall cycles and the trace digest.
    trace::Tracer::enable();
    trace::Tracer::reset();
    M3SystemCfg cfg;
    cfg.appPes = 4;
    cfg.withFs = false;
    cfg.multiplexSlice = 50000;
    cfg.migration = true;
    cfg.drains = {{4, 150000}};
    M3System sys(cfg);
    std::vector<vpeid_t> ids;
    std::vector<peid_t> placed;
    sys.runRoot("root", [&] {
        Env &env = Env::cur();
        RecvGate rg(env, 16, 256);
        std::vector<std::unique_ptr<VPE>> ws;
        for (uint64_t l = 0; l < 4; ++l) {
            auto w = std::make_unique<VPE>(
                env, std::string("w").append(std::to_string(l)));
            if (w->err() != Error::None)
                return 1;
            SendGate sg = SendGate::create(env, rg, l, CREDITS_UNLIMITED);
            if (w->delegate(sg.capSel(), 1, 40) != Error::None)
                return 2;
            if (w->run([l] { return drainWorker(l); }) != Error::None)
                return 3;
            ids.push_back(w->id());
            placed.push_back(w->peId());
            ws.push_back(std::move(w));
        }
        for (uint32_t n = 0; n < 4 * ROUNDS; ++n)
            rg.receive().ack();
        int rc = 0;
        for (auto &w : ws)
            rc += w->wait();
        return rc;
    });
    ASSERT_TRUE(sys.simulate());
    const auto [size, hash] = traceDigest();
    trace::Tracer::disable();
    EXPECT_EQ(placed, (std::vector<peid_t>{2, 3, 4, 2}));
    ASSERT_EQ(ids.size(), 4u);
    const kernel::Kernel &k = sys.kernelInstance();
    EXPECT_EQ(k.vpe(ids[2])->pe, 3u);
    const kernel::KernelStats &ks = k.stats();
    EXPECT_EQ(ks.drains, 1u);
    EXPECT_EQ(ks.migrationsCompleted, 1u);
    EXPECT_EQ(ks.migrationsAborted, 0u);
    EXPECT_EQ(sys.rootExitCode(), 0);
    EXPECT_EQ(sys.now(), 614214u);
    EXPECT_EQ(size, 184089u);
    EXPECT_EQ(hash, 4207251221574146343ull);
}

TEST(Migration, SyscallReplyFollowsDrainedCaller)
{
    // A parent VPE blocks in VpeWait on a long-running child while the
    // kernel drains the parent's PE. The deferred reply follows the
    // parent to the spare PE, its syscall reply wait re-waits there,
    // and VpeWait returns the child's exit code at the new home. Pins:
    // root exit, wall cycles and the trace digest, recorded before
    // libm3's round trip became one send, one reply wait and one call.
    trace::Tracer::enable();
    trace::Tracer::reset();
    M3SystemCfg cfg;
    // Root=1, parent on 2, child on 3, spare 4.
    cfg.appPes = 4;
    cfg.withFs = false;
    cfg.migration = true;
    cfg.drains = {{2, 150000}};
    M3System sys(cfg);
    peid_t homeAfter = INVALID_PE;
    sys.runRoot("root", [&homeAfter] {
        Env &env = Env::cur();
        VPE p(env, "parent");
        if (p.err() != Error::None)
            return 1;
        Error e = p.run([&homeAfter] {
            Env &penv = Env::cur();
            VPE c(penv, "child");
            if (c.err() != Error::None)
                return 1;
            if (c.run([] {
                    Env::cur().compute(400000);
                    return 42;
                }) != Error::None)
                return 2;
            const int rc = c.wait();
            homeAfter = penv.peId;
            return rc;
        });
        if (e != Error::None)
            return 3;
        return p.wait();
    });
    ASSERT_TRUE(sys.simulate());
    const auto [size, hash] = traceDigest();
    trace::Tracer::disable();
    const kernel::KernelStats &ks = sys.kernelInstance().stats();
    EXPECT_EQ(ks.drains, 1u);
    EXPECT_EQ(ks.migrationsCompleted, 1u);
    EXPECT_EQ(ks.migrationsAborted, 0u);
    EXPECT_EQ(homeAfter, 4u);
    EXPECT_EQ(sys.rootExitCode(), 42);
    EXPECT_EQ(sys.now(), 410094u);
    EXPECT_EQ(size, 29308u);
    EXPECT_EQ(hash, 5528555305537274254ull);
}

// ---------------------------------------------------------------------
// Conservation sweep: failover restarts racing NoC faults and PE kills
// must preserve the machine-wide invariants of test_invariants.cc.
// ---------------------------------------------------------------------

struct Totals
{
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t dropped = 0;
};

Totals
dtuTotals(M3System &sys)
{
    Totals t;
    for (peid_t p = 0; p < sys.platform().peCount(); ++p) {
        const DtuStats &ds = sys.platform().pe(p).dtu().stats();
        t.sent += ds.msgsSent;
        t.received += ds.msgsReceived;
        t.dropped += ds.msgsDropped;
    }
    return t;
}

void
checkCommonInvariants(M3System &sys)
{
    // Engine conservation: the queue drained, nothing was lost.
    const SimStats &ss = sys.simulator().queue().stats();
    EXPECT_EQ(ss.eventsScheduled, ss.eventsExecuted);

    // NoC packet conservation.
    const NocStats &ns = sys.platform().noc().stats();
    EXPECT_EQ(ns.packets, ns.packetsDelivered + ns.packetsDropped);

    for (peid_t p = 0; p < sys.platform().peCount(); ++p) {
        Dtu &dtu = sys.platform().pe(p).dtu();
        // Quiescence: no DTU command still in flight.
        EXPECT_FALSE(dtu.isBusy()) << "pe" << p;
        // Credit safety: refunds never lift credits above the ceiling.
        for (epid_t e = 0; e < EP_COUNT; ++e) {
            const EpRegs &r = dtu.ep(e);
            if (r.type != EpType::Send)
                continue;
            if (r.send.maxCredits != 0 &&
                r.send.maxCredits != CREDITS_UNLIMITED) {
                EXPECT_LE(r.send.credits, r.send.maxCredits)
                    << "pe" << p << " ep" << e;
            }
        }
    }
}

TEST(Invariants, MigrationUnderFaults)
{
    // 16 seeds: one worker PE dies mid-run while the data routes to the
    // root see bounded drops and random delays. The watchdog restarts
    // the dead PE's VPE from its retained program on the spare; every
    // child still finishes with rc 0 and all conservation laws hold.
    uint64_t totalFailovers = 0;
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed ^ 0x51u);
        const uint32_t workers = static_cast<uint32_t>(
            rng.nextRange(2, 3));

        M3SystemCfg cfg;
        // Root=1, workers on 2..(1+workers), one spare for failover.
        cfg.appPes = 1 + workers + 1;
        cfg.withFs = false;
        cfg.migration = true;
        cfg.failover = true;
        cfg.watchdogDeadline = 250000;
        cfg.watchdogPeriod = 50000;
        cfg.faults.seed = seed * 13 + 5;
        const peid_t victim =
            2 + static_cast<peid_t>(rng.nextBounded(workers));
        cfg.faults.killPes = {
            {victim, rng.nextRange(200000, 500000)}};
        // Fault only the expendable fire-and-forget data routes, after
        // the setup traffic is done (same scoping as the FaultedWorkloads
        // sweep: a dropped context transfer would wedge the kernel).
        cfg.faults.armAt = 150000;
        cfg.faults.dropRate = 1.0;
        cfg.faults.maxDrops =
            static_cast<uint32_t>(rng.nextRange(1, 2));
        cfg.faults.delayRate = 0.3;
        cfg.faults.delayMin = 256;
        cfg.faults.delayMax = 5000;
        for (uint32_t c = 0; c < workers; ++c) {
            cfg.faults.dropPairs.push_back({2 + c, 1});
            cfg.faults.delayPairs.push_back({2 + c, 1});
        }

        M3System sys(cfg);
        sys.runRoot("root", [&rng, workers] {
            Env &env = Env::cur();
            RecvGate rg(env, 16, 256);
            std::vector<std::unique_ptr<VPE>> children;
            for (uint32_t i = 0; i < workers; ++i) {
                auto v = std::make_unique<VPE>(
                    env, std::string("c").append(std::to_string(i)));
                if (v->err() != Error::None)
                    return 1;
                SendGate sg = SendGate::create(env, rg, i,
                                               CREDITS_UNLIMITED);
                if (v->delegate(sg.capSel(), 1, 40) != Error::None)
                    return 2;
                uint64_t childSeed = rng.next();
                Error e = v->run([childSeed] {
                    Env &cenv = Env::cur();
                    // Restartable from scratch: a failover re-runs this
                    // body on a replacement PE with the delegated send
                    // gate intact and everything else rebuilt.
                    Random crng(childSeed);
                    SendGate sg(cenv, 40, 256, /*finiteCredits=*/false);
                    MemGate dram =
                        MemGate::create(cenv, 16 * KiB, MEM_RW);
                    std::vector<uint8_t> wr(KiB), rd(KiB);
                    for (uint64_t r = 0; r < ROUNDS; ++r) {
                        cenv.compute(crng.nextRange(20000, 60000));
                        cenv.heartbeat();
                        size_t n = crng.nextRange(64, wr.size());
                        for (size_t b = 0; b < n; ++b)
                            wr[b] = static_cast<uint8_t>(crng.next());
                        if (dram.write(wr.data(), n, 0) != Error::None)
                            return 10;
                        if (dram.read(rd.data(), n, 0) != Error::None)
                            return 11;
                        if (std::memcmp(wr.data(), rd.data(), n) != 0)
                            return 12;
                        Marshaller m = sg.ostream();
                        m << childSeed << r;
                        if (sg.send(m) != Error::None)
                            return 13;
                    }
                    return 0;
                });
                if (e != Error::None)
                    return 3;
                children.push_back(std::move(v));
            }
            for (auto &v : children)
                if (v->wait() != 0)
                    return 4;
            // Drain whatever arrived; drops and restarts legitimately
            // change the count, conservation is checked machine-wide.
            while (rg.hasMsg())
                rg.tryReceive().ack();
            return 0;
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);

        checkCommonInvariants(sys);
        // Message conservation as bounds: packets the NoC dropped were
        // sent but never reached a DTU; everything else must balance.
        Totals t = dtuTotals(sys);
        const NocStats &ns = sys.platform().noc().stats();
        ASSERT_GE(t.sent, t.received + t.dropped);
        EXPECT_LE(t.sent - t.received - t.dropped, ns.packetsDropped);
        // The kill fired; if it caught the worker mid-run, the restart
        // completed (no migration may ever be left half-done).
        ASSERT_NE(sys.faultPlan(), nullptr);
        EXPECT_EQ(sys.faultPlan()->stats().peKills, 1u);
        const kernel::KernelStats &ks = sys.kernelInstance().stats();
        EXPECT_EQ(ks.migrationsAborted, 0u);
        if (ks.failovers) {
            EXPECT_TRUE(sys.platform().pe(victim).coreKilled());
        }
        totalFailovers += ks.failovers;
    }
    // Some kills legitimately land after the victim already exited, but
    // the sweep as a whole must exercise the failover path for real.
    EXPECT_GE(totalFailovers, 4u);
}

} // anonymous namespace
} // namespace m3
