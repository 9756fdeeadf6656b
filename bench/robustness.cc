/**
 * @file
 * Robustness bench: the cost of surviving an unreliable NoC.
 *
 * Two claims are checked. First, the fault-injection layer is free when
 * unused: attaching an inert plan must not move a single cycle. Second,
 * the timeout/retry/re-open machinery turns packet loss into latency
 * instead of hangs: a meta-data workload completes at every drop rate,
 * and its slowdown grows with the loss rate (each lost request costs
 * one reply timeout plus backoff).
 */

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/common.hh"
#include "libm3/gates.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"
#include "m3fs/distfs.hh"
#include "m3fs/fs_image.hh"
#include "trace/metrics.hh"
#include "trace/sinkfiles.hh"

using namespace m3;

namespace
{

constexpr int STAT_CALLS = 40;

M3SystemCfg
baseCfg()
{
    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.fsSpec.dirs = {"/d"};
    return cfg;
}

/** @return (wall cycles, packets dropped, root exit code). */
std::tuple<Cycles, uint64_t, int>
statLoop(M3SystemCfg cfg, Cycles timeout)
{
    M3System sys(std::move(cfg));
    sys.runRoot("bench", [&, timeout] {
        Env &env = Env::cur();
        Error e = Error::None;
        auto fs = m3fs::M3fsSession::create(env, e);
        if (e != Error::None)
            return 1;
        fs->callTimeout = timeout;
        fs->callRetries = 8;
        for (int i = 0; i < STAT_CALLS; ++i) {
            FileInfo info;
            if (fs->stat("/d", info) != Error::None)
                return 2;
        }
        return 0;
    });
    sys.simulate();
    uint64_t drops =
        sys.faultPlan() ? sys.faultPlan()->stats().packetsDropped : 0;
    return {sys.now(), drops, sys.rootExitCode()};
}

// ---------------------------------------------------------------------
// Rolling-restart drill: drain + kill every compute PE once, staggered,
// under a fig6-class request workload. Zero lost work, byte-identical
// application output.
// ---------------------------------------------------------------------

constexpr uint32_t RR_WORKERS = 4;
constexpr uint32_t RR_ROUNDS = 10;

struct RollingRun
{
    int rc = -1;
    Cycles wall = 0;
    uint64_t msgs = 0;
    uint64_t migrStarted = 0, migrCompleted = 0, migrAborted = 0;
    uint64_t drains = 0, peKills = 0;
    uint64_t retries = 0;
    /** Per-worker streams of (round, value) words, in receive order. */
    std::map<uint64_t, std::vector<uint64_t>> streams;
};

RollingRun
rollingWorkload(bool restart)
{
    M3SystemCfg cfg;
    // Kernel=0, root=1, workers on 2..5, spares on 6..9 that the
    // evacuations migrate onto.
    cfg.appPes = 1 + RR_WORKERS + RR_WORKERS;
    cfg.withFs = false;
    if (restart) {
        cfg.migration = true;
        // Drain each compute PE, then kill it once it is empty — the
        // order a rolling kernel/firmware upgrade would use.
        for (uint32_t i = 0; i < RR_WORKERS; ++i) {
            Cycles drainAt = 100000 + 80000 * i;
            cfg.drains.push_back({static_cast<peid_t>(2 + i), drainAt});
            cfg.faults.killPes.push_back({2 + i, drainAt + 50000});
        }
    }
    RollingRun out;
    trace::Metrics::reset();
    M3System sys(std::move(cfg));
    sys.runRoot("root", [&out] {
        Env &env = Env::cur();
        RecvGate rg(env, 2 * RR_WORKERS * RR_ROUNDS > 32 ? 64 : 32, 256);
        std::vector<std::unique_ptr<VPE>> workers;
        for (uint64_t i = 0; i < RR_WORKERS; ++i) {
            auto v = std::make_unique<VPE>(
                env, std::string("w").append(std::to_string(i)));
            if (v->err() != Error::None)
                return 1;
            SendGate sg =
                SendGate::create(env, rg, i, CREDITS_UNLIMITED);
            if (v->delegate(sg.capSel(), 1, 40) != Error::None)
                return 2;
            Error e = v->run([i] {
                Env &cenv = Env::cur();
                SendGate req(cenv, 40, 256, /*finiteCredits=*/false);
                uint64_t acc = 0x9e3779b97f4a7c15ull * (i + 1);
                for (uint64_t r = 0; r < RR_ROUNDS; ++r) {
                    cenv.compute(30000 + 9000 * ((acc >> 8) & 3));
                    acc = acc * 6364136223846793005ull +
                          1442695040888963407ull;
                    Marshaller m = req.ostream();
                    m << i << r << acc;
                    if (req.send(m) != Error::None)
                        return 10;
                }
                return 0;
            });
            if (e != Error::None)
                return 3;
            workers.push_back(std::move(v));
        }
        for (uint32_t n = 0; n < RR_WORKERS * RR_ROUNDS; ++n) {
            GateIStream is = rg.receive();
            auto l = is.pull<uint64_t>();
            auto round = is.pull<uint64_t>();
            auto val = is.pull<uint64_t>();
            out.streams[l].push_back(round);
            out.streams[l].push_back(val);
            out.msgs++;
            is.ack();
        }
        int rc = 0;
        for (auto &v : workers)
            rc += v->wait();
        return rc;
    });
    sys.simulate();
    out.rc = sys.rootExitCode();
    out.wall = sys.now();
    const kernel::KernelStats &ks = sys.kernelInstance().stats();
    out.migrStarted = ks.migrationsStarted;
    out.migrCompleted = ks.migrationsCompleted;
    out.migrAborted = ks.migrationsAborted;
    out.drains = ks.drains;
    out.peKills = sys.faultPlan() ? sys.faultPlan()->stats().peKills : 0;
    out.retries = trace::Metrics::counter("gate.retries").value;
    return out;
}

bool
rollingRestartDrill()
{
    // Metrics on for the drill: the retry counter and the drain-latency
    // histogram below are part of the report.
    trace::Metrics::enable();
    RollingRun clean = rollingWorkload(false);
    RollingRun rolling = rollingWorkload(true);

    bench::header(
        "rolling restart, " + std::to_string(RR_WORKERS) + " workers x " +
            std::to_string(RR_ROUNDS) +
            " requests, every compute PE drained then killed",
        {"run", "msgs", "wall", "migrations", "aborted", "retries"});
    for (const auto *r : {&clean, &rolling}) {
        bench::cell(r == &clean ? "clean" : "rolling");
        bench::cell(std::to_string(r->msgs));
        bench::cellCycles(r->wall);
        bench::cell(std::to_string(r->migrCompleted));
        bench::cell(std::to_string(r->migrAborted));
        bench::cell(std::to_string(r->retries));
        bench::endRow();
    }
    const trace::Histogram &dh =
        trace::Metrics::histogram("kernel.drain.cycles");
    if (dh.count) {
        std::printf("  drain latency: %llu drains, avg %llu cycles "
                    "(min %llu, max %llu)\n",
                    static_cast<unsigned long long>(dh.count),
                    static_cast<unsigned long long>(dh.sum / dh.count),
                    static_cast<unsigned long long>(dh.minVal),
                    static_cast<unsigned long long>(dh.maxVal));
    }

    bool ok = true;
    ok &= bench::verdict("both runs complete",
                         clean.rc == 0 && rolling.rc == 0);
    ok &= bench::verdict("every compute PE was drained and killed once",
                         rolling.drains == RR_WORKERS &&
                             rolling.peKills == RR_WORKERS);
    ok &= bench::verdict("every evacuation migrated, none aborted",
                         rolling.migrStarted == RR_WORKERS &&
                             rolling.migrCompleted == RR_WORKERS &&
                             rolling.migrAborted == 0);
    ok &= bench::verdict(
        "zero in-flight requests lost",
        clean.msgs == RR_WORKERS * RR_ROUNDS &&
            rolling.msgs == RR_WORKERS * RR_ROUNDS);
    ok &= bench::verdict("application output is byte-identical",
                         clean.streams == rolling.streams);
    return ok;
}

// ---------------------------------------------------------------------
// Stripe-kill drill: replicated distfs (R=2, one spare). Kill each
// stripe's server PE in turn mid-workload: every read — held handles
// and fresh opens — must stay byte-identical to the written patterns
// with zero PeerGone surfaced, and a rebuild onto the spare must
// restore the full stripe set.
// ---------------------------------------------------------------------

constexpr uint32_t SK_STRIPES = 3;

struct StripeKillRun
{
    int rc = -1;
    Cycles wall = 0;
    uint64_t degradedReads = 0;
    uint64_t stripeDeaths = 0;
    uint64_t rebuilds = 0;
    uint64_t rebuiltFiles = 0;
    uint64_t stripesDeadEnd = 0;
};

StripeKillRun
stripeKillWorkload(int victim)  // victim < 0: clean run, nothing dies
{
    const Cycles killAt = 3000000;
    M3SystemCfg cfg;
    cfg.appPes = 2;
    cfg.distfsStripes = SK_STRIPES;
    cfg.distfsReplicas = 2;
    cfg.distfsSpares = 1;
    cfg.fsSpec.dirs = {"/data"};
    cfg.fsSpec.totalBlocks = 16384;
    if (victim >= 0) {
        cfg.watchdogDeadline = 50000;
        cfg.watchdogPeriod = 10000;
        cfg.faults.seed = 1234 + static_cast<uint64_t>(victim);
        // fs instance k serves stripe k from PE 1 + k.
        cfg.faults.killPes = {
            {static_cast<uint32_t>(1 + victim), killAt}};
    }
    StripeKillRun out;
    trace::Metrics::reset();
    M3System sys(std::move(cfg));
    sys.runRoot("root", [&out, victim, killAt] {
        Env &env = Env::cur();
        Error err = Error::None;
        auto dfs = m3fs::DistfsSession::create(env, err);
        if (!dfs)
            return 10;
        const std::vector<std::pair<std::string, size_t>> files = {
            {"/data/f0", 24000},
            {"/data/f1", 33000},
            {"/data/f2", 48000}};
        std::vector<std::vector<uint8_t>> datas;
        for (size_t i = 0; i < files.size(); ++i) {
            datas.push_back(m3fs::FsImage::patternData(
                files[i].second, static_cast<uint8_t>(31 + i)));
            auto f = dfs->open(files[i].first, FILE_W | FILE_CREATE, err);
            if (!f || f->write(datas[i].data(), datas[i].size()) !=
                          static_cast<ssize_t>(datas[i].size()))
                return 11;
        }
        // Hold a read handle across the kill (no extent locations
        // cached yet), then wait out the kill and the watchdog reclaim.
        auto held = dfs->open(files[0].first, FILE_R, err);
        if (!held)
            return 12;
        if (victim >= 0) {
            if (env.platform.simulator().curCycle() >= killAt)
                return 13;  // setup overran the kill; retime the drill
            while (env.platform.simulator().curCycle() <
                   killAt + 500000) {
                Fiber::current()->sleep(20000);
                if (env.heartbeat() != Error::None)
                    return 14;
            }
        }
        auto check = [&](size_t i) {
            auto f = dfs->open(files[i].first, FILE_R, err);
            std::vector<uint8_t> back(files[i].second);
            return f &&
                   f->read(back.data(), back.size()) ==
                       static_cast<ssize_t>(back.size()) &&
                   back == datas[i];
        };
        // The held handle degrades in place; the rest via fresh opens.
        std::vector<uint8_t> back0(files[0].second);
        if (held->read(back0.data(), back0.size()) !=
                static_cast<ssize_t>(back0.size()) ||
            back0 != datas[0])
            return 15;
        held.reset();
        if (!check(1) || !check(2))
            return 16;
        // A degraded write: created after the kill, the dead stripe's
        // units live on their replica hosts only.
        auto data3 = m3fs::FsImage::patternData(56000, 77);
        {
            auto f = dfs->open("/data/f3", FILE_W | FILE_CREATE, err);
            if (!f || f->write(data3.data(), data3.size()) !=
                          static_cast<ssize_t>(data3.size()))
                return 17;
        }
        {
            auto f = dfs->open("/data/f3", FILE_R, err);
            std::vector<uint8_t> back(data3.size());
            if (!f ||
                f->read(back.data(), back.size()) !=
                    static_cast<ssize_t>(back.size()) ||
                back != data3)
                return 18;
        }
        if (victim >= 0) {
            if (!dfs->stripeDead(static_cast<uint32_t>(victim)))
                return 19;
            // Rebuild onto the spare instance, then verify every file
            // again with the full stripe set live.
            if (dfs->rebuild(static_cast<uint32_t>(victim),
                             M3SystemCfg::fsName(SK_STRIPES)) !=
                Error::None)
                return 20;
            if (dfs->stripeDead(static_cast<uint32_t>(victim)))
                return 21;
            if (!check(0) || !check(1) || !check(2))
                return 22;
        }
        return 0;
    });
    sys.simulate();
    out.rc = sys.rootExitCode();
    out.wall = sys.now();
    out.degradedReads =
        trace::Metrics::counter("distfs.degraded_reads").value;
    out.stripeDeaths =
        trace::Metrics::counter("distfs.stripe_deaths").value;
    out.rebuilds = trace::Metrics::counter("distfs.rebuilds").value;
    out.rebuiltFiles =
        trace::Metrics::counter("distfs.rebuilt_files").value;
    out.stripesDeadEnd =
        trace::Metrics::gauge("distfs.stripes_dead").value;
    return out;
}

bool
stripeKillDrill()
{
    // Metrics on: the degraded-read and rebuild counters are the report.
    trace::Metrics::enable();
    bench::header("stripe kill, distfs " + std::to_string(SK_STRIPES) +
                      " stripes R=2 + spare, kill each stripe in turn",
                  {"run", "wall", "degraded", "deaths", "rebuilt files",
                   "dead at end"});
    StripeKillRun clean = stripeKillWorkload(-1);
    std::vector<StripeKillRun> killed;
    for (uint32_t v = 0; v < SK_STRIPES; ++v)
        killed.push_back(stripeKillWorkload(static_cast<int>(v)));
    auto row = [](const std::string &name, const StripeKillRun &r) {
        bench::cell(name);
        bench::cellCycles(r.wall);
        bench::cell(std::to_string(r.degradedReads));
        bench::cell(std::to_string(r.stripeDeaths));
        bench::cell(std::to_string(r.rebuiltFiles));
        bench::cell(std::to_string(r.stripesDeadEnd));
        bench::endRow();
    };
    row("clean", clean);
    for (uint32_t v = 0; v < SK_STRIPES; ++v)
        row("kill stripe " + std::to_string(v), killed[v]);

    bool ok = true;
    bool allRc = clean.rc == 0;
    bool allDegraded = true, allRebuilt = true, allRecovered = true;
    for (const StripeKillRun &r : killed) {
        allRc &= r.rc == 0;
        allDegraded &= r.degradedReads > 0 && r.stripeDeaths == 1;
        allRebuilt &= r.rebuilds == 1 && r.rebuiltFiles > 0;
        allRecovered &= r.stripesDeadEnd == 0;
    }
    ok &= bench::verdict("every run reads every byte back intact (rc 0)",
                         allRc);
    ok &= bench::verdict("each kill run served degraded reads "
                         "(one stripe death, zero PeerGone surfaced)",
                         allDegraded);
    ok &= bench::verdict("each kill run rebuilt the stripe onto the "
                         "spare",
                         allRebuilt);
    ok &= bench::verdict("no stripe left dead after rebuild", allRecovered);
    ok &= bench::verdict("the clean run never degraded",
                         clean.degradedReads == 0 &&
                             clean.stripeDeaths == 0);
    return ok;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    trace::SinkFiles sinks;
    bool rollingRestart = false;
    bool stripeKill = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--rolling-restart") {
            rollingRestart = true;
        } else if (arg == "--stripe-kill") {
            stripeKill = true;
        } else if (!sinks.parse(arg)) {
            std::fprintf(stderr, "usage: robustness [--trace=FILE] "
                                 "[--metrics=FILE] [--rolling-restart] "
                                 "[--stripe-kill]\n");
            return 2;
        }
    }
    sinks.enable();

    if (rollingRestart || stripeKill) {
        bool drillOk = true;
        if (rollingRestart)
            drillOk &= rollingRestartDrill();
        if (stripeKill)
            drillOk &= stripeKillDrill();
        return sinks.write("robustness") && drillOk ? 0 : 1;
    }

    bool ok = true;

    // --- zero overhead: inert plan attached vs no plan at all --------
    auto [plainWall, d0, rc0] = statLoop(baseCfg(), 0);
    M3SystemCfg inert = baseCfg();
    inert.faults.attachInert = true;
    inert.faults.seed = 1234;
    auto [inertWall, d1, rc1] = statLoop(std::move(inert), 0);
    ok &= rc0 == 0 && rc1 == 0;
    std::printf("no plan:    %llu cycles\ninert plan: %llu cycles\n",
                static_cast<unsigned long long>(plainWall),
                static_cast<unsigned long long>(inertWall));
    ok &= bench::verdict("an inert fault plan adds zero cycles",
                         plainWall == inertWall && d0 == 0 && d1 == 0);

    // --- recovery latency vs drop rate -------------------------------
    bench::header("recovery latency, " + std::to_string(STAT_CALLS) +
                      " m3fs stat calls (timeout 20K, 8 retries)",
                  {"dropRate", "drops", "wall", "slowdown"});
    Cycles faultFree = 0;
    Cycles prevWall = 0;
    bool completed = true, monotone = true;
    for (double rate : {0.0, 0.01, 0.05, 0.1, 0.2}) {
        M3SystemCfg cfg = baseCfg();
        cfg.faults.seed = 7;
        cfg.faults.dropRate = rate;
        // Only client->server requests get lost; kernel traffic stays
        // clean so the run isolates the retry path under test.
        cfg.faults.dropPairs = {{2, 1}};
        auto [wall, drops, rc] = statLoop(std::move(cfg), 20000);
        if (rate == 0.0)
            faultFree = wall;
        completed &= rc == 0;
        monotone &= wall >= prevWall;
        prevWall = wall;
        char rbuf[32];
        std::snprintf(rbuf, sizeof(rbuf), "%.2f", rate);
        bench::cell(rbuf);
        bench::cell(std::to_string(drops));
        bench::cellCycles(wall);
        bench::cellRatio(static_cast<double>(wall) /
                         static_cast<double>(faultFree));
        bench::endRow();
    }
    ok &= bench::verdict("workload completes at every drop rate",
                         completed);
    ok &= bench::verdict("latency grows monotonically with loss",
                         monotone);

    return sinks.write("robustness") && ok ? 0 : 1;
}
