#include "workloads/runners.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"
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

M3SystemCfg
m3MachineCfg(const M3RunOpts &opts, uint32_t appPes,
             m3fs::FsImageSpec fsSpec)
{
    M3SystemCfg cfg;
    cfg.appPes = appPes;
    cfg.numKernels = opts.numKernels;
    cfg.fsInstances = opts.fsInstances;
    cfg.costs = opts.costs;
    cfg.multiplexSlice = opts.multiplexSlice;
    cfg.distfsStripes = opts.distfsStripes;
    cfg.distfsUnitBlocks = opts.distfsUnitBlocks;
    cfg.distfsReplicas = opts.distfsReplicas;
    cfg.fsCfg.appendBlocks = opts.fsAppendBlocks;
    cfg.fsCfg.backgroundZero = opts.fsBackgroundZero;
    cfg.fsSpec = std::move(fsSpec);
    for (auto &f : cfg.fsSpec.files)
        f.blocksPerExtent = opts.fsBlocksPerExtent;
    return cfg;
}

namespace
{

/** Host seconds since @p t0. */
double
hostSecondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Rescale @p trace's 4 KiB sendfile buffers to @p ioChunk bytes
 *  (0 = keep them; see M3RunOpts::ioChunk). */
void
rescaleIoChunk(Trace &trace, uint32_t ioChunk)
{
    if (!ioChunk)
        return;
    for (TraceOp &op : trace)
        if (op.kind == TraceOp::Kind::Sendfile && op.chunkSize == 4096)
            op.chunkSize = ioChunk;
}

/** The trace, cat+tr and FFT machine: four app PEs and @p setup in an
 *  image sized generously for the workload's writes. */
M3SystemCfg
singleRunCfg(const M3RunOpts &opts, const FsSetup &setup)
{
    m3fs::FsImageSpec spec;
    applySetupToImage(setup, spec);
    spec.totalBlocks = 32768;  // 32 MiB at 1 KiB blocks
    return m3MachineCfg(opts, 4, std::move(spec));
}

} // anonymous namespace

RunResult
runOnM3(M3SystemCfg cfg, const std::function<int(Env &)> &body)
{
    if (cfg.distfsStripes > 1)
        fatal("distfsStripes needs a scalability run: a single-machine "
              "run pre-builds its image and cannot stripe it");
    // Room for every m3fs instance's image and as much again for the
    // run's own allocations: one 32 MiB image keeps the default 64 MiB.
    const size_t imageBytes =
        size_t(cfg.fsSpec.totalBlocks) * cfg.fsSpec.blockSize;
    cfg.dramBytes = std::max(cfg.dramBytes,
                             (cfg.fsInstances + 1) * imageBytes);
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
    res.hostSeconds = hostSecondsSince(host0);
    res.events = sys.eventsExecuted();
    if (!finished) {
        sys.printStats();
        res.rc = -2;
        return res;
    }
    res.rc = sys.rootExitCode();
    res.acct = sys.appAccounting();
    return res;
}

RunResult
runOnLx(const LxRunOpts &opts, const FsSetup &setup,
        const std::function<int(lx::Process &)> &body)
{
    lx::LinuxConfig cfg;
    cfg.costs = opts.costs;
    cfg.compute = opts.compute;
    cfg.cacheAlwaysHit = opts.cacheAlwaysHit;
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
    res.hostSeconds = hostSecondsSince(host0);
    res.rc = rc;
    res.wall = t1 - t0;
    res.acct = m.mergedAccounting();
    res.events = m.eventsExecuted();
    return res;
}

RunResult
runM3Trace(const Workload &workload, const M3RunOpts &opts)
{
    Trace trace = workload.trace;
    rescaleIoChunk(trace, opts.ioChunk);
    return runOnM3(singleRunCfg(opts, workload.setup),
                   [&trace](Env &env) { return replayTraceM3(env, trace); });
}

RunResult
runLxTrace(const Workload &workload, const LxRunOpts &opts)
{
    return runOnLx(opts, workload.setup, [&](lx::Process &p) {
        return replayTraceLx(p, workload.trace);
    });
}

RunResult
runM3CatTr(const CatTrParams &p, const M3RunOpts &opts)
{
    return runOnM3(singleRunCfg(opts, catTrSetup(p)),
                   [&p](Env &env) { return catTrM3(env, p); });
}

RunResult
runLxCatTr(const CatTrParams &p, const LxRunOpts &opts)
{
    return runOnLx(opts, catTrSetup(p),
                   [&](lx::Process &proc) { return catTrLx(proc, p); });
}

RunResult
runM3Fft(const FftParams &p, const M3RunOpts &opts)
{
    registerFftProgram(p);
    M3SystemCfg cfg = singleRunCfg(opts, fftSetup(p));
    if (p.useAccel)
        cfg.extraPes.push_back(PeDesc::accel("fft"));
    return runOnM3(std::move(cfg),
                   [&p](Env &env) { return fftChainM3(env, p); });
}

RunResult
runLxFft(const FftParams &p, const LxRunOpts &opts)
{
    return runOnLx(opts, fftSetup(p),
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

/** One scalability instance: the files it starts from, and its work. */
struct Instance
{
    FsSetup setup;
    std::function<int(Env &)> work;
};

/** The @p instances instances of @p benchName, each under its own
 *  "/i<n>" prefix. */
std::vector<Instance>
makeInstances(const std::string &benchName, uint32_t instances,
              const M3RunOpts &opts)
{
    std::vector<Instance> out;
    if (benchName == "cat+tr") {
        for (uint32_t i = 0; i < instances; ++i) {
            CatTrParams p;
            p.root = "/i" + std::to_string(i);
            out.push_back({catTrSetup(p), [p](Env &env) {
                               return catTrM3(env, p);
                           }});
        }
        return out;
    }
    Workload base;
    for (Workload &w : makeAllTraceWorkloads(opts.costs.compute))
        if (w.name == benchName)
            base = std::move(w);
    if (base.name.empty())
        fatal("unknown scalability bench '%s'", benchName.c_str());
    rescaleIoChunk(base.trace, opts.ioChunk);
    for (uint32_t i = 0; i < instances; ++i) {
        Workload w = namespaced(base, i);
        out.push_back({std::move(w.setup),
                       [trace = std::move(w.trace)](Env &env) {
                           return replayTraceM3(env, trace);
                       }});
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

    const uint32_t pesPerInstance = benchName == "cat+tr" ? 2 : 1;
    const std::vector<Instance> insts =
        makeInstances(benchName, instances, opts);
    const bool striped = opts.distfsStripes > 1;

    m3fs::FsImageSpec spec;
    spec.totalBlocks =
        std::max<uint32_t>(65536, instances * 4096);  // room for every inst
    spec.totalInodes = std::max<uint32_t>(2048, instances * 128);
    // Striped machines create the setup files at runtime through the
    // distfs mount (subfiles cannot be pre-built into a single image).
    if (!striped)
        for (const Instance &inst : insts)
            applySetupToImage(inst.setup, spec);

    M3SystemCfg cfg = m3MachineCfg(opts, 1 + instances * pesPerInstance,
                                   std::move(spec));
    if (opts.maxAppPes && opts.maxAppPes < cfg.appPes) {
        if (!opts.multiplexSlice)
            fatal("capping %u needed app PEs at %u requires a multiplex "
                  "slice",
                  cfg.appPes, opts.maxAppPes);
        cfg.appPes = opts.maxAppPes;
        result.capped = true;
    }
    result.appPes = cfg.appPes;
    // Images + one pipe ring per instance. The classic runs (<= 16
    // instances) keep their exact historical sizes; larger machines
    // (the 256-PE engine-scaling workloads) grow proportionally.
    cfg.dramBytes = std::max<size_t>(256 * MiB,
                                     size_t(instances) * 16 * MiB);
    // Sec. 5.7: DRAM transfers become spins of equal time.
    cfg.costs.spinDataTransfers = true;

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
            // Mount the instance's filesystem: the striped session over
            // the whole stripe set, or one plain m3fs instance. Striped
            // runs then create the setup files through the mount,
            // outside the timed window unless timeSetup asks for it.
            vpe->run([i, &durations, &rcs, &inst = insts[i], &opts,
                      striped] {
                Env &ienv = Env::cur();
                Cycles t0 = ienv.platform.simulator().curCycle();
                Error e = striped
                              ? m3fs::DistfsSession::mount(
                                    ienv, "/", M3SystemCfg::DISTFS_GROUP,
                                    opts.distfsUnitBlocks)
                              : m3fs::M3fsSession::mount(
                                    ienv, "/",
                                    M3SystemCfg::fsName(i % opts.fsInstances));
                if (e != Error::None) {
                    rcs[i] = 200;
                    return 1;
                }
                if (striped && applySetupToVfs(ienv, inst.setup) != 0) {
                    rcs[i] = 201;
                    return 1;
                }
                if (!opts.timeSetup)
                    t0 = ienv.platform.simulator().curCycle();
                rcs[i] = inst.work(ienv);
                durations[i] = ienv.platform.simulator().curCycle() - t0;
                return rcs[i];
            });
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
    result.hostSeconds = hostSecondsSince(host0);
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
