#include "libm3/m3system.hh"

#include "base/logging.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"

namespace m3
{

namespace
{

/** Clock adapter handed to the tracer: reads this machine's cycle. */
uint64_t
simClock(const void *ctx)
{
    return static_cast<const Simulator *>(ctx)->curCycle();
}

} // anonymous namespace

M3System::M3System(M3SystemCfg config) : cfg(std::move(config))
{
    if (cfg.withFs && cfg.fsInstances == 0)
        fatal("withFs requires at least one fs instance");
    if (cfg.numKernels == 0)
        fatal("numKernels must be at least 1");
    if (cfg.distfsStripes == 0)
        fatal("distfsStripes must be at least 1");
    if (cfg.distfsReplicas == 0)
        fatal("distfsReplicas must be at least 1");
    if (cfg.distfsReplicas > cfg.distfsStripes)
        fatal("distfsReplicas (%u) cannot exceed distfsStripes (%u): "
              "every copy needs its own stripe",
              cfg.distfsReplicas, cfg.distfsStripes);
    const bool striped = cfg.distfsStripes > 1;
    if (cfg.distfsSpares && !striped)
        fatal("distfsSpares requires a striped machine "
              "(distfsStripes > 1)");
    if (striped) {
        if (!cfg.withFs)
            fatal("distfs requires withFs");
        // One m3fs instance per stripe, plus the standby spares that
        // rebuild() re-mirrors dead stripes onto; the group fans
        // sessions out over the stripes only.
        cfg.fsInstances = cfg.distfsStripes + cfg.distfsSpares;
    }

    PlatformSpec spec;
    spec.costs = cfg.costs;
    spec.dramBytes = cfg.dramBytes;
    // Striped machines give every stripe its own DRAM module so the
    // stripes' memory bandwidth adds up instead of queueing at one
    // controller; modules == 1 keeps the seed's node numbering.
    spec.dramModules = striped ? cfg.fsInstances : 1;
    uint32_t generalPes = cfg.numKernels + fsCount() + cfg.appPes;
    spec.pes.assign(generalPes, PeDesc::general());
    // A striped data plane multiplies the client's concurrent gates
    // (one mem gate in flight per stripe and open file, plus one send
    // gate per stripe session): provision wider DTUs so steady-state
    // I/O is not dominated by endpoint eviction and kernel re-Activate
    // round trips. Non-striped machines keep the prototype's 8 EPs —
    // and their exact cycle counts.
    if (striped) {
        // Replicated mounts hold one extra subfile (and its in-flight
        // memory gate) per stripe and copy; widen further so mirrored
        // writes do not thrash the endpoint cache. R = 1 keeps the
        // PR 9 formula — and its exact cycle counts.
        uint32_t want = 4 + 3 * cfg.distfsStripes +
                        2 * cfg.distfsStripes * (cfg.distfsReplicas - 1);
        epid_t eps = static_cast<epid_t>(
            std::min<uint32_t>(MAX_EP_COUNT, want));
        for (PeDesc &d : spec.pes)
            d.epCount = std::max(d.epCount, eps);
    }
    // Multi-kernel machines carry two extra rings (inter-kernel request
    // and reply) in each kernel's scratchpad; give kernel PEs room for
    // them. Single-kernel machines keep the classic SPM layout.
    if (cfg.numKernels > 1)
        for (uint32_t k = 0; k < cfg.numKernels; ++k)
            spec.pes[k].spmDataSize = 2 * SPM_DATA_SIZE;
    for (const PeDesc &d : cfg.extraPes)
        spec.pes.push_back(d);

    plat = std::make_unique<Platform>(sim, spec);

    // Fresh machine: clear the cross-system environment registry
    // (fiber homes recorded by a previous M3System in this process).
    Env::resetRegistry();
    if (cfg.migration || cfg.failover) {
        for (peid_t p = 0; p < plat->peCount(); ++p) {
            // When a VPE's software lands on another PE, repoint its
            // environment: a live fiber learns its new home on wakeup,
            // a failover restart resolves it at functor entry.
            plat->pe(p).setVpeMovedHook(
                [](Fiber *f, uint64_t id, peid_t newPe) {
                    if (f)
                        Env::noteMoved(f, newPe);
                    else
                        Env::setHome(static_cast<vpeid_t>(id), newPe);
                });
            if (cfg.failover)
                plat->pe(p).setRetainPrograms(true);
        }
    }

    if (cfg.faults.active()) {
        faults = std::make_unique<FaultPlan>(cfg.faults);
        plat->setFaultPlan(*faults);
    }

    // Every instance gets the same image: build the first from the
    // spec, and copy it for the others (stripe k's at offset 0 of DRAM
    // module k, the plain ones one after another in module 0).
    goff_t dramAllocStart = 0;
    for (uint32_t k = 0; k < fsCount(); ++k) {
        Dram &dram = plat->dram(striped ? k : 0);
        const goff_t base = striped ? 0 : dramAllocStart;
        images.push_back(
            k == 0 ? std::make_unique<m3fs::FsImage>(dram, base, cfg.fsSpec)
                   : std::make_unique<m3fs::FsImage>(dram, base,
                                                     *images[0]));
        if (!striped)
            dramAllocStart += images.back()->sizeBytes();
    }
    if (striped && !images.empty()) {
        // The kernels' dynamic region lives in module 0, above its
        // stripe image.
        dramAllocStart = images[0]->sizeBytes();
    }
    // One kernel per domain. Each gets its own slice of the dynamic DRAM
    // region; a single kernel keeps the whole region, exactly as before.
    const uint32_t K = cfg.numKernels;
    for (uint32_t k = 0; k < K; ++k) {
        goff_t start = dramAllocStart;
        goff_t end = 0;
        if (K > 1) {
            goff_t usable = plat->dram().size() - dramAllocStart;
            goff_t share = (usable / K) & ~goff_t{63};
            start = dramAllocStart + k * share;
            end = k == K - 1 ? plat->dram().size() : start + share;
        }
        kerns.push_back(std::make_unique<kernel::Kernel>(
            *plat, kernelPe(k), start, end));
    }
    if (K > 1) {
        std::vector<peid_t> kernelPes;
        for (uint32_t k = 0; k < K; ++k)
            kernelPes.push_back(kernelPe(k));
        std::vector<uint32_t> ownedCounts(K, 0);
        for (peid_t p = K; p < plat->peCount(); ++p)
            ownedCounts[domainOfPe(p)]++;
        for (uint32_t k = 0; k < K; ++k) {
            kernel::Kernel::DomainCfg dc;
            dc.id = k;
            dc.count = K;
            dc.kernelPes = kernelPes;
            dc.ownedPes.assign(plat->peCount(), false);
            for (peid_t p = K; p < plat->peCount(); ++p)
                dc.ownedPes[p] = domainOfPe(p) == k;
            dc.ownedCounts = ownedCounts;
            kerns[k]->setDomain(std::move(dc));
        }
    }
    for (auto &k : kerns) {
        if (cfg.watchdogPeriod)
            k->enableWatchdog(cfg.watchdogDeadline, cfg.watchdogPeriod);
        if (cfg.multiplexSlice)
            k->enableMultiplexing(cfg.multiplexSlice);
        // Failover needs the same per-VPE context machinery (scheds
        // entries, generations) migration builds on, so it implies it.
        if (cfg.migration || cfg.failover)
            k->enableMigration();
        if (cfg.failover)
            k->enableFailover();
    }
    for (auto &[drainPe, drainAt] : cfg.drains)
        kernelOf(drainPe).scheduleDrain(drainPe, drainAt);

    for (uint32_t k = 0; k < fsCount(); ++k) {
        m3fs::ServerConfig srvCfg = cfg.fsCfg;
        srvCfg.fsBytes = images[k]->sizeBytes();
        srvCfg.name = M3SystemCfg::fsName(k);

        kernel::Kernel::BootProgram fsProg;
        fsProg.pe = fsPe(k);
        fsProg.name = srvCfg.name;
        fsProg.caps.push_back(kernel::Kernel::BootCap{
            srvCfg.fsMemSel, striped ? plat->dramNode(k) : plat->dramNode(),
            striped ? 0
                    : static_cast<goff_t>(k) * images[k]->sizeBytes(),
            images[k]->sizeBytes(), MEM_RW});
        Platform *platPtr = plat.get();
        peid_t pe = fsPe(k);
        fsProg.main = [platPtr, pe, srvCfg](vpeid_t id) {
            Env env(*platPtr, pe, id);
            int rc = m3fs::serverMain(srvCfg);
            env.vpeExit(rc);
        };
        kernelOf(fsPe(k)).addBootProgram(std::move(fsProg));
    }
    if (striped) {
        // Every kernel learns the stripe set so OpenSess("distfs", k)
        // resolves anywhere (members in other domains are reached via
        // the cross-domain service announcement).
        std::vector<std::string> members;
        for (uint32_t k = 0; k < cfg.distfsStripes; ++k)
            members.push_back(M3SystemCfg::fsName(k));
        for (auto &kern : kerns)
            kern->addServiceGroup(M3SystemCfg::DISTFS_GROUP, members,
                                  cfg.distfsReplicas);
    }

    if (trace::Tracer::on) {
        trace::Tracer::setClock(&simClock, &sim);
        for (peid_t p = 0; p < plat->peCount(); ++p) {
            uint32_t n = plat->nocIdOf(p);
            trace::Tracer::trackName(p, "pe" + std::to_string(p));
            trace::Tracer::trackName(trace::dtuTrack(n),
                                     "pe" + std::to_string(p) + " dtu");
            trace::Tracer::trackName(trace::nocTrack(n),
                                     "noc n" + std::to_string(n));
        }
        // A single module keeps the seed's "dram" track name; striped
        // machines label each module.
        if (plat->dramModules() > 1) {
            for (uint32_t m = 0; m < plat->dramModules(); ++m)
                trace::Tracer::trackName(
                    trace::nocTrack(plat->dramNode(m)),
                    "dram" + std::to_string(m));
        } else {
            trace::Tracer::trackName(trace::nocTrack(plat->dramNode()),
                                     "dram");
        }
        // Request tracks appear only when request tracing is armed, so
        // plain traces keep the seed's track set byte-for-byte.
        if (trace::ReqTrace::on) {
            for (peid_t p = 0; p < plat->peCount(); ++p) {
                uint32_t n = plat->nocIdOf(p);
                trace::Tracer::trackName(trace::reqTrack(n),
                                         "req pe" + std::to_string(p));
            }
        }
        // Multi-kernel machines label each kernel's track; single-kernel
        // machines keep the seed's track names byte-for-byte.
        if (cfg.numKernels > 1) {
            for (uint32_t k = 0; k < cfg.numKernels; ++k)
                trace::Tracer::trackName(
                    kernelPe(k), "kernel" + std::to_string(k) + " (pe" +
                                     std::to_string(kernelPe(k)) + ")");
        }
    }
}

M3System::~M3System()
{
    if (trace::Metrics::on)
        exportMetrics();
    trace::Tracer::clearClock(&sim);
}

void
M3System::exportMetrics()
{
    using trace::exportStats;
    const uint32_t groups =
        (cfg.migration || cfg.failover ? trace::STAT_MIGRATION : 0) |
        (kerns.size() > 1 ? trace::STAT_MULTI_KERNEL : 0);
    exportStats("sim.", sim.queue().stats(), groups);
    // Instances fold in the registry (counters add), so the "kernel.*"
    // and "dtu.*" keys are machine totals whatever the instance count;
    // multi-kernel machines add the per-kernel breakdown. The drain
    // histogram (kernel.drain.cycles) is observed live by the kernel.
    for (size_t k = 0; k < kerns.size(); ++k) {
        exportStats("kernel.", kerns[k]->stats(), groups);
        if (kerns.size() > 1)
            exportStats("kernel.k" + std::to_string(k) + ".",
                        kerns[k]->stats(), groups, trace::STAT_PER_INSTANCE);
    }
    for (peid_t p = 0; p < plat->peCount(); ++p)
        exportStats("dtu.", plat->pe(p).dtu().stats(), groups);
    exportStats("noc.", plat->noc().stats(), groups);
    plat->noc().exportMetrics(sim.curCycle());

    if (faults) {
        exportStats("faults.", faults->stats(), groups);
        if (uint64_t n = faults->stats().injected())
            trace::Metrics::counter("faults_injected").add(n);
    }
}

void
M3System::runRoot(const std::string &name, std::function<int()> main)
{
    if (rootInstalled)
        fatal("runRoot called twice");
    rootInstalled = true;

    kernel::Kernel::BootProgram rootProg;
    rootProg.pe = rootPe();
    rootProg.name = name;
    Platform *platPtr = plat.get();
    peid_t pe = rootPe();
    M3System *self = this;
    rootProg.main = [platPtr, pe, self, main = std::move(main)](vpeid_t id) {
        Env env(*platPtr, pe, id);
        int rc = main();
        self->rootExit = rc;
        self->rootDone = true;
        self->rootAcct = env.fiber.accounting();
        env.vpeExit(rc);
    };
    kernelOf(rootPe()).addBootProgram(std::move(rootProg));
    for (auto &k : kerns)
        k->start();
}

Accounting
M3System::appAccounting() const
{
    Accounting total;
    std::vector<std::string> systemPrefixes;
    for (uint32_t k = 0; k < cfg.numKernels; ++k)
        systemPrefixes.push_back("pe" + std::to_string(kernelPe(k)) + ":");
    for (uint32_t k = 0; k < fsCount(); ++k)
        systemPrefixes.push_back("pe" + std::to_string(fsPe(k)) + ":");
    sim.forEachFiber([&](Fiber &f) {
        const std::string &n = f.fiberName();
        for (const std::string &p : systemPrefixes)
            if (n.rfind(p, 0) == 0)
                return;
        total.merge(f.accounting());
    });
    return total;
}

void
M3System::printStats() const
{
    std::printf("==== M3System stats @ cycle %llu ====\n",
                static_cast<unsigned long long>(sim.curCycle()));
    // One line per component instance: every non-zero field under its
    // metric name; all-zero instances are skipped.
    auto line = [](const std::string &label, const auto &stats) {
        std::string fields = trace::formatStats(stats);
        if (!fields.empty())
            std::printf("%s: %s\n", label.c_str(), fields.c_str());
    };
    line("sim", sim.queue().stats());
    for (size_t k = 0; k < kerns.size(); ++k)
        line(kerns.size() > 1 ? "kernel" + std::to_string(k) : "kernel",
             kerns[k]->stats());
    line("noc", plat->noc().stats());
    for (peid_t p = 0; p < plat->peCount(); ++p)
        line("pe" + std::to_string(p) + " dtu", plat->pe(p).dtu().stats());
    if (faults)
        line("faults", faults->stats());
}

bool
M3System::simulate(Cycles limit)
{
    eventsRun += sim.simulate(limit);
    if (!rootDone && sim.queue().empty()) {
        auto blocked = sim.blockedFibers();
        std::string names;
        for (const auto &n : blocked)
            names += n + " ";
        warn("simulation drained without root exit; blocked fibers: %s",
             names.c_str());
    }
    return rootDone;
}

} // namespace m3
