/**
 * @file
 * Property/invariant layer: conservation laws that must hold for EVERY
 * workload at quiescence, checked over randomized (seeded) workloads —
 * clean time-multiplexed runs and fault-injected single-occupancy runs.
 *
 *  (a) engine conservation: every scheduled event executed;
 *  (b) NoC packet conservation: injected == delivered + dropped;
 *  (c) DTU message conservation: sent == received + dropped (clean),
 *      with NoC-level drops bounding the gap under fault injection;
 *  (d) credit safety: no send endpoint ever ends above its ceiling;
 *  (e) DTU quiescence: no command left in flight;
 *  (f) kernel channel quiescence (clean): no request to a service or a
 *      peer kernel pending or queued, every channel credit home.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "base/random.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "m3fs/distfs.hh"

namespace m3
{
namespace
{

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

/** The invariants that hold for every workload, faulted or not. */
void
checkCommonInvariants(M3System &sys)
{
    // (a) Engine conservation: the queue drained, nothing was lost.
    const SimStats &ss = sys.simulator().queue().stats();
    EXPECT_EQ(ss.eventsScheduled, ss.eventsExecuted);

    // (b) NoC packet conservation.
    const NocStats &ns = sys.platform().noc().stats();
    EXPECT_EQ(ns.packets, ns.packetsDelivered + ns.packetsDropped);

    for (peid_t p = 0; p < sys.platform().peCount(); ++p) {
        Dtu &dtu = sys.platform().pe(p).dtu();
        // (e) Quiescence: no DTU command still in flight.
        EXPECT_FALSE(dtu.isBusy()) << "pe" << p;
        // (d) Credit safety: refunds never lift credits above the
        // ceiling the kernel configured. Striped machines provision
        // wider DTUs, so walk the PE's actual endpoint count.
        for (epid_t e = 0; e < dtu.epCount(); ++e) {
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

/** (f): every kernel's channels are idle. */
void
checkChannelsIdle(M3System &sys)
{
    for (uint32_t k = 0; k < sys.numKernels(); ++k)
        EXPECT_TRUE(sys.kernelInstance(k).channelsIdle()) << "kernel" << k;
}

/**
 * One randomized workload: @p vpes children on a machine with
 * @p spares spare PEs, each child mixing compute, DRAM RDMA round
 * trips and fire-and-forget messages to the root. Fully determined by
 * @p seed.
 */
struct WorkloadParams
{
    uint64_t seed = 1;
    uint32_t spares = 1;
    uint32_t vpes = 2;
    Cycles slice = 0;
    /** Compute burned by every child before it starts messaging; used to
     *  push all expendable traffic past the fault plan's armAt gate. */
    Cycles warmup = 0;
};

void
runRandomWorkload(const WorkloadParams &p, M3System &sys)
{
    sys.runRoot("root", [&sys, p] {
        Env &env = Env::cur();
        Random rng(p.seed * 977 + 13);
        RecvGate rg(env, 16, 256);

        std::vector<std::unique_ptr<VPE>> children;
        std::vector<capsel_t> sgates;
        for (uint32_t i = 0; i < p.vpes; ++i) {
            auto v = std::make_unique<VPE>(
                env, std::string("c").append(std::to_string(i)));
            if (v->err() != Error::None)
                return 1;
            SendGate sg =
                SendGate::create(env, rg, /*label=*/i, CREDITS_UNLIMITED);
            capsel_t dst = 40;
            if (v->delegate(sg.capSel(), 1, dst) != Error::None)
                return 2;
            children.push_back(std::move(v));
            sgates.push_back(dst);
        }
        for (uint32_t i = 0; i < p.vpes; ++i) {
            uint64_t childSeed = rng.next();
            capsel_t sgSel = sgates[i];
            Cycles warmup = p.warmup;
            Error e = children[i]->run([childSeed, sgSel, warmup] {
                Env &cenv = Env::cur();
                Random crng(childSeed);
                if (warmup)
                    cenv.compute(warmup);
                SendGate sg(cenv, sgSel, /*maxMsgSize=*/256,
                            /*finiteCredits=*/false);
                MemGate dram =
                    MemGate::create(cenv, 16 * KiB, MEM_RW);
                const uint32_t rounds =
                    static_cast<uint32_t>(crng.nextRange(4, 8));
                std::vector<uint8_t> wr(2 * KiB), rd(2 * KiB);
                for (uint32_t r = 0; r < rounds; ++r) {
                    cenv.compute(crng.nextRange(10000, 50000));
                    // DRAM round trip with random bytes.
                    size_t n = crng.nextRange(64, wr.size());
                    goff_t off = crng.nextBounded(8 * KiB);
                    for (size_t b = 0; b < n; ++b)
                        wr[b] = static_cast<uint8_t>(crng.next());
                    if (dram.write(wr.data(), n, off) != Error::None)
                        return 10;
                    if (dram.read(rd.data(), n, off) != Error::None)
                        return 11;
                    if (std::memcmp(wr.data(), rd.data(), n) != 0)
                        return 12;
                    // Fire-and-forget message to the root (may be lost
                    // under fault injection; conservation still holds).
                    Marshaller m = sg.ostream();
                    m << childSeed << static_cast<uint64_t>(r);
                    if (sg.send(m) != Error::None)
                        return 13;
                }
                return 0;
            });
            if (e != Error::None)
                return 3;
        }
        for (auto &v : children)
            if (v->wait() != 0)
                return 4;
        // Drain whatever arrived; under fault injection some messages
        // are legitimately lost, so no count is asserted here.
        while (rg.hasMsg())
            rg.tryReceive().ack();
        return 0;
    });
    ASSERT_TRUE(sys.simulate());
    ASSERT_EQ(sys.rootExitCode(), 0);
}

TEST(Invariants, CleanMultiplexedWorkloads)
{
    // 16 seeds, all oversubscribed (more VPEs than spare PEs): the
    // context-switch machinery must preserve every conservation law,
    // and without faults message conservation is exact.
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed);
        WorkloadParams p;
        p.seed = seed;
        p.spares = static_cast<uint32_t>(rng.nextRange(1, 2));
        p.vpes = p.spares * 2;  // 2x oversubscription
        // Every child computes at least 4 x 10000 cycles, so the smallest
        // workload still overruns the largest slice: preemption happens.
        p.slice = rng.nextRange(5000, 30000);

        M3SystemCfg cfg;
        cfg.appPes = 1 + p.spares;
        cfg.withFs = false;
        cfg.multiplexSlice = p.slice;
        M3System sys(cfg);
        runRandomWorkload(p, sys);

        checkCommonInvariants(sys);
        // (c) exact message conservation: nothing in flight, nothing
        // parked, nothing unaccounted.
        Totals t = dtuTotals(sys);
        EXPECT_EQ(t.sent, t.received + t.dropped);
        checkChannelsIdle(sys);
        EXPECT_GE(sys.kernelInstance().stats().ctxSwitches, 1u);
    }
}

TEST(Invariants, FaultedWorkloads)
{
    // 16 seeds with NoC fault injection on the child->root data routes
    // (single occupancy: a dropped context-transfer packet would wedge
    // the kernel, so faults and multiplexing are not combined). Bounded
    // drops keep the run terminating; conservation holds as bounds.
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed ^ 0xfau);
        WorkloadParams p;
        p.seed = seed;
        p.spares = static_cast<uint32_t>(rng.nextRange(2, 3));
        p.vpes = p.spares;  // one VPE per PE

        // The faults only arm once every child is loaded and deep in its
        // warmup compute: from then on the faulted routes carry nothing
        // but the expendable fire-and-forget messages (message sends
        // complete locally at the DTU; only memory commands would wedge
        // on a lost ack, and those all happen before armAt).
        p.warmup = 1000000;

        M3SystemCfg cfg;
        cfg.appPes = 1 + p.spares;
        cfg.withFs = false;
        cfg.faults.seed = seed * 31 + 7;
        cfg.faults.armAt = 500000;
        cfg.faults.dropRate = 1.0;
        cfg.faults.maxDrops = static_cast<uint32_t>(rng.nextRange(1, 3));
        cfg.faults.corruptRate = 0.5;
        // Children live on PEs 2..; the root consumer on PE 1. Only the
        // fire-and-forget data route is faulted, never the syscall path.
        for (uint32_t c = 0; c < p.vpes; ++c) {
            cfg.faults.dropPairs.push_back({2 + c, 1});
            cfg.faults.corruptPairs.push_back({2 + c, 1});
        }
        M3System sys(cfg);
        runRandomWorkload(p, sys);

        checkCommonInvariants(sys);
        // The plan must actually have fired: each child sends at least 4
        // messages after armAt, more than maxDrops eligible packets.
        ASSERT_NE(sys.faultPlan(), nullptr);
        EXPECT_EQ(sys.faultPlan()->stats().packetsDropped,
                  cfg.faults.maxDrops);
        // (c) as bounds: messages the NoC dropped were sent but never
        // reached a DTU; corrupted ones arrived and were discarded there.
        Totals t = dtuTotals(sys);
        const NocStats &ns = sys.platform().noc().stats();
        ASSERT_GE(t.sent, t.received + t.dropped);
        EXPECT_LE(t.sent - t.received - t.dropped, ns.packetsDropped);
    }
}

TEST(Invariants, MultiKernelWorkloads)
{
    // 16 seeds on a two-kernel machine: the root's domain is too small
    // for all children, so placement spills across the kernel boundary
    // and every delegated send gate crosses domains via the
    // inter-kernel protocol. All conservation laws must still be exact
    // (IK requests are ordinary DTU messages).
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed ^ 0x3eu);
        WorkloadParams p;
        p.seed = seed;
        p.spares = static_cast<uint32_t>(rng.nextRange(2, 4));
        p.vpes = p.spares;  // one VPE per PE, across both domains

        M3SystemCfg cfg;
        cfg.numKernels = 2;
        cfg.appPes = 1 + p.spares;
        cfg.withFs = false;
        M3System sys(cfg);
        runRandomWorkload(p, sys);

        checkCommonInvariants(sys);
        // (c) exact message conservation, inter-kernel traffic included.
        Totals t = dtuTotals(sys);
        EXPECT_EQ(t.sent, t.received + t.dropped);
        checkChannelsIdle(sys);
        // The kernels actually talked to each other: the root's domain
        // owns fewer free PEs than there are children.
        uint64_t ik = 0, placed = 0;
        for (uint32_t k = 0; k < sys.numKernels(); ++k) {
            ik += sys.kernelInstance(k).stats().ikRequestsHandled;
            placed += sys.kernelInstance(k).stats().remoteVpesPlaced;
        }
        EXPECT_GT(ik, 0u);
        EXPECT_GT(placed, 0u);
    }
}

TEST(Invariants, StripedWorkloads)
{
    // 16 seeds on striped machines (2 or 4 stripes): every client runs
    // a randomized create/write/stat/read-back/unlink cycle through the
    // striped mount — pipelined metadata fan-outs over the shared reply
    // gate, parallel transfer slots, per-stripe append allocations. All
    // conservation laws must be exact at quiescence.
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed ^ 0x5du);
        const uint32_t stripes = rng.nextBounded(2) ? 4 : 2;
        const uint32_t vpes = static_cast<uint32_t>(rng.nextRange(1, 2));

        M3SystemCfg cfg;
        cfg.appPes = 1 + vpes;
        cfg.distfsStripes = stripes;
        cfg.fsSpec.dirs = {"/data"};
        cfg.fsSpec.totalBlocks = 16384;
        M3System sys(cfg);
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            Random wrng(seed * 613 + 29);
            std::vector<std::unique_ptr<VPE>> children;
            for (uint32_t i = 0; i < vpes; ++i) {
                auto v = std::make_unique<VPE>(
                    env, std::string("c").append(std::to_string(i)));
                if (v->err() != Error::None)
                    return 1;
                uint64_t childSeed = wrng.next();
                Error e = v->run([i, childSeed] {
                    Env &cenv = Env::cur();
                    Random crng(childSeed);
                    Error err = Error::None;
                    auto dfs = m3fs::DistfsSession::create(cenv, err);
                    if (!dfs)
                        return 10;
                    const std::string path =
                        "/data/f" + std::to_string(i);
                    const size_t size = static_cast<size_t>(
                        crng.nextRange(3000, 60000));
                    auto data = m3fs::FsImage::patternData(
                        size, static_cast<uint8_t>(childSeed));
                    {
                        auto f =
                            dfs->open(path, FILE_W | FILE_CREATE, err);
                        if (!f || f->write(data.data(), size) !=
                                      static_cast<ssize_t>(size))
                            return 11;
                    }
                    FileInfo info;
                    if (dfs->stat(path, info) != Error::None ||
                        info.size != size)
                        return 12;
                    {
                        auto f = dfs->open(path, FILE_R, err);
                        std::vector<uint8_t> back(size);
                        if (!f || f->read(back.data(), size) !=
                                      static_cast<ssize_t>(size))
                            return 13;
                        if (back != data)
                            return 14;
                    }
                    return dfs->unlink(path) == Error::None ? 0 : 15;
                });
                if (e != Error::None)
                    return 2;
                children.push_back(std::move(v));
            }
            for (auto &v : children)
                if (v->wait() != 0)
                    return 3;
            return 0;
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);

        checkCommonInvariants(sys);
        // (c) exact message conservation: fan-out sends, label-matched
        // replies and transfer-slot traffic all accounted for.
        Totals t = dtuTotals(sys);
        EXPECT_EQ(t.sent, t.received + t.dropped);
        checkChannelsIdle(sys);
    }
}

TEST(Invariants, StripedStripeKillSurfacesPeerGone)
{
    // One stripe's server PE dies mid-run (the DTU survives; the
    // kernel watchdog reclaims the server VPE and marks its service
    // dead). A client holding an open striped file must get
    // Error::PeerGone from the next extent fetch on the dead stripe —
    // not a hang — and the surviving stripes must keep serving their
    // subfiles. Conservation must still hold at quiescence.
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed ^ 0xc1u);
        const uint32_t stripes = rng.nextBounded(2) ? 4 : 2;
        const std::string path = "/data/k";
        // The client's placement hash (djb2), replicated to pick the
        // victim: killing the home stripe makes the first post-kill
        // read hit the dead server deterministically.
        uint64_t h = 5381;
        for (char c : path)
            h = h * 33 + static_cast<uint8_t>(c);
        const uint32_t home = static_cast<uint32_t>(h % stripes);
        const Cycles killAt = 2000000;

        M3SystemCfg cfg;
        cfg.appPes = 2;
        cfg.distfsStripes = stripes;
        cfg.fsSpec.dirs = {"/data"};
        cfg.fsSpec.totalBlocks = 16384;
        cfg.watchdogDeadline = 50000;
        cfg.watchdogPeriod = 10000;
        cfg.faults.seed = seed * 41 + 3;
        // fs instance k serves stripe k from PE numKernels + k.
        cfg.faults.killPes = {
            {static_cast<uint32_t>(1 + home), killAt}};
        M3System sys(cfg);
        sys.runRoot("root", [&] {
            Env &env = Env::cur();
            Random wrng(seed * 769 + 11);
            Error err = Error::None;
            auto dfs = m3fs::DistfsSession::create(env, err);
            if (!dfs)
                return 10;
            const size_t size =
                static_cast<size_t>(wrng.nextRange(20000, 60000));
            auto data = m3fs::FsImage::patternData(
                size, static_cast<uint8_t>(seed));
            {
                auto f = dfs->open(path, FILE_W | FILE_CREATE, err);
                if (!f || f->write(data.data(), size) !=
                              static_cast<ssize_t>(size))
                    return 11;
            }
            // Open for read while every stripe is alive (extent
            // locations are fetched lazily, so nothing is cached yet),
            // then sleep past the kill and the watchdog reclaim.
            auto f = dfs->open(path, FILE_R, err);
            if (!f)
                return 12;
            if (env.platform.simulator().curCycle() >= killAt)
                return 13;  // setup overran the kill; rearrange timing
            // Wait out the kill and the watchdog reclaim of the server,
            // heartbeating so the watchdog does not reclaim the idle
            // client as unresponsive too.
            while (env.platform.simulator().curCycle() <
                   killAt + 500000) {
                Fiber::current()->sleep(20000);
                if (env.heartbeat() != Error::None)
                    return 18;
            }

            // The first extent fetch addresses the dead home stripe;
            // the kernel knows the service is gone and must answer
            // PeerGone immediately — no timeout, no hang.
            std::vector<uint8_t> back(size);
            ssize_t r = f->read(back.data(), size);
            if (r != -static_cast<ssize_t>(Error::PeerGone))
                return 14;

            // Degrade the close fan-out before the file goes out of
            // scope: with a timeout the dead stripe's Close fails soft
            // instead of waiting forever for a reply.
            for (uint32_t k = 0; k < dfs->stripes(); ++k) {
                dfs->stripe(k).callTimeout = 20000;
                dfs->stripe(k).callRetries = 1;
            }
            f.reset();

            // The surviving stripes still serve their subfiles: a
            // plain session with a live neighbour must answer.
            const uint32_t live = (home + 1) % dfs->stripes();
            auto plain = m3fs::M3fsSession::create(
                env, err, M3SystemCfg::fsName(live));
            if (!plain)
                return 15;
            FileInfo info;
            if (plain->stat(path, info) != Error::None)
                return 16;
            return info.size > 0 ? 0 : 17;
        });
        ASSERT_TRUE(sys.simulate());
        ASSERT_EQ(sys.rootExitCode(), 0);

        checkCommonInvariants(sys);
        // Message conservation as a bound: requests that reached the
        // dead server's DTU were received but never answered.
        Totals t = dtuTotals(sys);
        EXPECT_GE(t.sent, t.received + t.dropped);
    }
}

} // anonymous namespace
} // namespace m3
