#include "workloads/runners.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"
#include "libm3/m3system.hh"
#include "libm3/vpe.hh"
#include "m3fs/client.hh"
#include "m3fs/distfs.hh"
#include "workloads/generators.hh"
#include "workloads/lx_replay.hh"
#include "workloads/m3_replay.hh"

namespace m3
{
namespace workloads
{

namespace
{

M3SystemCfg
makeM3Cfg(const FsSetup &setup, const M3RunOpts &opts)
{
    M3SystemCfg cfg;
    cfg.appPes = opts.appPes;
    cfg.numKernels = opts.numKernels;
    cfg.costs = opts.costs;
    cfg.fsCfg.appendBlocks = opts.fsAppendBlocks;
    cfg.fsCfg.backgroundZero = opts.fsBackgroundZero;
    applySetupToImage(setup, cfg.fsSpec);
    for (auto &f : cfg.fsSpec.files)
        f.blocksPerExtent = opts.fsBlocksPerExtent;
    // Size the image generously for the workload's writes.
    cfg.fsSpec.totalBlocks = 32768;  // 32 MiB at 1 KiB blocks
    return cfg;
}

/** Boot M3, run @p body as root (after mounting), report the result. */
RunResult
runOnM3(M3SystemCfg cfg, const std::function<int(Env &)> &body)
{
    RunResult res;
    M3System sys(std::move(cfg));
    sys.runRoot("bench", [&] {
        Env &env = Env::cur();
        if (m3fs::M3fsSession::mount(env, "/") != Error::None)
            return 100;
        env.acct().reset();
        Cycles t0 = env.platform.simulator().curCycle();
        int rc = body(env);
        res.wall = env.platform.simulator().curCycle() - t0;
        return rc;
    });
    auto host0 = std::chrono::steady_clock::now();
    bool finished = sys.simulate();
    res.hostSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - host0)
                          .count();
    if (!finished)
        fatal("M3 benchmark run did not finish");
    res.rc = sys.rootExitCode();
    res.acct = sys.appAccounting();
    res.events = sys.eventsExecuted();
    return res;
}

lx::LinuxConfig
makeLxCfg(const LxRunOpts &opts)
{
    lx::LinuxConfig cfg;
    cfg.costs = opts.costs;
    cfg.compute = opts.compute;
    cfg.cacheAlwaysHit = opts.cacheAlwaysHit;
    return cfg;
}

RunResult
runOnLx(const lx::LinuxConfig &cfg, const FsSetup &setup,
        const std::function<int(lx::Process &)> &body)
{
    RunResult res;
    lx::Machine m(cfg);
    applySetupToTmpfs(setup, m.fs());
    Cycles t0 = 0, t1 = 0;
    int rc = -1;
    m.spawnInit("bench", [&](lx::Process &p) {
        p.accounting().reset();
        t0 = m.now();
        rc = body(p);
        t1 = m.now();
        return rc;
    });
    auto host0 = std::chrono::steady_clock::now();
    m.simulate();
    res.hostSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - host0)
                          .count();
    res.rc = rc;
    res.wall = t1 - t0;
    res.acct = m.mergedAccounting();
    res.events = m.eventsExecuted();
    return res;
}

} // anonymous namespace

RunResult
runM3Trace(const Workload &workload, const M3RunOpts &opts)
{
    M3SystemCfg cfg = makeM3Cfg(workload.setup, opts);
    const Trace &trace = workload.trace;
    return runOnM3(cfg, [&trace](Env &env) {
        return replayTraceM3(env, trace);
    });
}

RunResult
runLxTrace(const Workload &workload, const LxRunOpts &opts)
{
    return runOnLx(makeLxCfg(opts), workload.setup,
                   [&](lx::Process &p) {
                       return replayTraceLx(p, workload.trace);
                   });
}

RunResult
runM3CatTr(const CatTrParams &p, const M3RunOpts &opts)
{
    M3SystemCfg cfg = makeM3Cfg(catTrSetup(p), opts);
    return runOnM3(cfg, [&p](Env &env) { return catTrM3(env, p); });
}

RunResult
runLxCatTr(const CatTrParams &p, const LxRunOpts &opts)
{
    return runOnLx(makeLxCfg(opts), catTrSetup(p),
                   [&](lx::Process &proc) { return catTrLx(proc, p); });
}

RunResult
runM3Fft(const FftParams &p, const M3RunOpts &opts)
{
    registerFftProgram(p);
    M3SystemCfg cfg = makeM3Cfg(fftSetup(p), opts);
    if (p.useAccel)
        cfg.extraPes.push_back(PeDesc::accel("fft"));
    return runOnM3(cfg, [&p](Env &env) { return fftChainM3(env, p); });
}

RunResult
runLxFft(const FftParams &p, const LxRunOpts &opts)
{
    return runOnLx(makeLxCfg(opts), fftSetup(p),
                   [&](lx::Process &proc) { return fftChainLx(proc, p); });
}

// ---------------------------------------------------------------------
// Scalability (Sec. 5.7).
// ---------------------------------------------------------------------

namespace
{

/** Give every path of @p w an instance-private prefix. */
Workload
namespaced(const Workload &w, uint32_t instance)
{
    std::string prefix = "/i" + std::to_string(instance);
    Workload out = w;
    out.setup.dirs.clear();
    out.setup.dirs.push_back(prefix);
    for (const std::string &d : w.setup.dirs)
        out.setup.dirs.push_back(prefix + d);
    for (auto &f : out.setup.files)
        f.path = prefix + f.path;
    for (auto &op : out.trace) {
        if (!op.path.empty())
            op.path = prefix + op.path;
        if (!op.path2.empty())
            op.path2 = prefix + op.path2;
    }
    return out;
}

} // anonymous namespace

ScalabilityResult
runM3Scalability(const std::string &benchName, uint32_t instances,
                 const M3RunOpts &opts)
{
    ScalabilityResult result;
    result.instances.assign(instances, 0);

    const bool isCatTr = benchName == "cat+tr";
    uint32_t pesPerInstance = isCatTr ? 2 : 1;

    // Build the per-instance workloads (trace benches only).
    std::vector<Workload> perInstance;
    Workload base;
    if (!isCatTr) {
        auto all = makeAllTraceWorkloads(opts.costs.compute);
        for (const Workload &w : all)
            if (w.name == benchName)
                base = w;
        if (base.name.empty())
            fatal("unknown scalability bench '%s'", benchName.c_str());
        for (uint32_t i = 0; i < instances; ++i)
            perInstance.push_back(namespaced(base, i));
        if (opts.ioChunk) {
            for (Workload &w : perInstance)
                for (TraceOp &op : w.trace)
                    if (op.kind == TraceOp::Kind::Sendfile &&
                        op.chunkSize == 4096)
                        op.chunkSize = opts.ioChunk;
        }
    }

    const bool striped = opts.distfsStripes > 1;

    M3SystemCfg cfg;
    cfg.appPes = 1 + instances * pesPerInstance;
    if (opts.maxAppPes && opts.maxAppPes < cfg.appPes) {
        if (!opts.multiplexSlice)
            fatal("capping %u needed app PEs at %u requires a multiplex "
                  "slice",
                  cfg.appPes, opts.maxAppPes);
        cfg.appPes = opts.maxAppPes;
        result.capped = true;
    }
    result.appPes = cfg.appPes;
    cfg.multiplexSlice = opts.multiplexSlice;
    cfg.costs = opts.costs;
    cfg.fsInstances = opts.fsInstances;
    cfg.distfsStripes = opts.distfsStripes;
    cfg.distfsUnitBlocks = opts.distfsUnitBlocks;
    cfg.distfsReplicas = opts.distfsReplicas;
    cfg.numKernels = opts.numKernels;
    // Images + one pipe ring per instance. The classic runs (<= 16
    // instances) keep their exact historical sizes; larger machines
    // (the 256-PE engine-scaling workloads) grow proportionally.
    cfg.dramBytes = std::max<size_t>(256 * MiB,
                                     size_t(instances) * 16 * MiB);
    // Sec. 5.7: DRAM transfers become spins of equal time.
    cfg.costs.spinDataTransfers = true;
    cfg.fsCfg.appendBlocks = opts.fsAppendBlocks;
    cfg.fsSpec.totalBlocks =
        std::max<uint32_t>(65536, instances * 4096);  // room for every inst
    cfg.fsSpec.totalInodes = std::max<uint32_t>(2048, instances * 128);
    const uint32_t fsN = opts.fsInstances;
    // Striped machines create the setup files at runtime through the
    // distfs mount (subfiles cannot be pre-built into a single image).
    if (!striped) {
        for (uint32_t i = 0; i < instances; ++i) {
            FsSetup setup;
            if (isCatTr) {
                CatTrParams instParams;
                instParams.root = "/i" + std::to_string(i);
                setup = catTrSetup(instParams);
            } else {
                setup = perInstance[i].setup;
            }
            applySetupToImage(setup, cfg.fsSpec);
        }
    }

    M3System sys(std::move(cfg));
    std::vector<Cycles> durations(instances, 0);
    std::vector<int> rcs(instances, -1);

    sys.runRoot("orchestrator", [&] {
        Env &env = Env::cur();
        if (m3fs::M3fsSession::mount(env, "/") != Error::None)
            return 100;
        std::vector<std::unique_ptr<VPE>> vpes;
        for (uint32_t i = 0; i < instances; ++i) {
            auto vpe = std::make_unique<VPE>(
                env, "inst" + std::to_string(i));
            if (vpe->err() != Error::None)
                return 101;
            std::string srv = M3SystemCfg::fsName(i % fsN);
            const bool timeSetup = opts.timeSetup;
            const uint32_t unitBlocks = opts.distfsUnitBlocks;
            // Mount the instance's filesystem: the striped session over
            // the whole stripe set, or one plain m3fs instance. Striped
            // runs then create the setup files through the mount,
            // outside the timed window unless timeSetup asks for it.
            auto mountFs = [striped, srv, unitBlocks](Env &ienv) {
                if (striped)
                    return m3fs::DistfsSession::mount(
                        ienv, "/", M3SystemCfg::DISTFS_GROUP, unitBlocks);
                return m3fs::M3fsSession::mount(ienv, "/", srv);
            };
            if (isCatTr) {
                CatTrParams instParams;
                instParams.root = "/i" + std::to_string(i);
                FsSetup vfsSetup;
                if (striped)
                    vfsSetup = catTrSetup(instParams);
                vpe->run([i, &durations, &rcs, instParams, vfsSetup,
                          mountFs, striped, timeSetup] {
                    Env &ienv = Env::cur();
                    Cycles t0 = ienv.platform.simulator().curCycle();
                    if (mountFs(ienv) != Error::None) {
                        rcs[i] = 200;
                        return 1;
                    }
                    if (striped && applySetupToVfs(ienv, vfsSetup) != 0) {
                        rcs[i] = 201;
                        return 1;
                    }
                    if (!timeSetup)
                        t0 = ienv.platform.simulator().curCycle();
                    rcs[i] = catTrM3(ienv, instParams);
                    durations[i] =
                        ienv.platform.simulator().curCycle() - t0;
                    return rcs[i];
                });
            } else {
                const Trace *trace = &perInstance[i].trace;
                const FsSetup *vfsSetup =
                    striped ? &perInstance[i].setup : nullptr;
                vpe->run([i, &durations, &rcs, trace, vfsSetup, mountFs,
                          timeSetup] {
                    Env &ienv = Env::cur();
                    Cycles t0 = ienv.platform.simulator().curCycle();
                    if (mountFs(ienv) != Error::None) {
                        rcs[i] = 200;
                        return 1;
                    }
                    if (vfsSetup &&
                        applySetupToVfs(ienv, *vfsSetup) != 0) {
                        rcs[i] = 201;
                        return 1;
                    }
                    if (!timeSetup)
                        t0 = ienv.platform.simulator().curCycle();
                    rcs[i] = replayTraceM3(ienv, *trace);
                    durations[i] =
                        ienv.platform.simulator().curCycle() - t0;
                    return rcs[i];
                });
            }
            vpes.push_back(std::move(vpe));
            // Instances are launched back to back, not in lockstep: a
            // short stagger avoids measuring an artificial thundering
            // herd of setup syscalls that no real deployment exhibits.
            Fiber::current()->sleep(2000);
        }
        int bad = 0;
        for (auto &vpe : vpes)
            if (vpe->wait() != 0)
                ++bad;
        return bad;
    });
    auto host0 = std::chrono::steady_clock::now();
    bool finished = sys.simulate();
    result.hostSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - host0)
                             .count();
    result.events = sys.eventsExecuted();
    for (uint32_t m = 0; m < sys.platform().dramModules(); ++m)
        result.dramWrittenPages += sys.platform().dram(m).writtenPages();
    if (!finished) {
        for (uint32_t i = 0; i < instances; ++i)
            warn("instance %u rc=%d dur=%llu", i, rcs[i],
                 static_cast<unsigned long long>(durations[i]));
        sys.printStats();
        result.rc = -2;
        return result;
    }

    result.rc = sys.rootExitCode();
    Cycles sum = 0;
    for (uint32_t i = 0; i < instances; ++i) {
        if (rcs[i] != 0)
            result.rc = result.rc ? result.rc : 300 + static_cast<int>(i);
        sum += durations[i];
        result.instances[i] = durations[i];
    }
    result.avgInstance = instances ? sum / instances : 0;
    return result;
}

} // namespace workloads
} // namespace m3
