/**
 * @file
 * Benchmark runners: boot a fresh machine (M3 or the Linux baseline),
 * execute one workload, and report wall time plus the App/OS/Xfers
 * breakdown the paper's figures use.
 */

#ifndef M3_WORKLOADS_RUNNERS_HH
#define M3_WORKLOADS_RUNNERS_HH

#include <functional>

#include "base/accounting.hh"
#include "base/cost_model.hh"
#include "libm3/m3system.hh"
#include "workloads/apps.hh"
#include "workloads/trace.hh"

namespace m3
{
namespace workloads
{

/** Outcome of one benchmark run. */
struct RunResult
{
    int rc = -1;          //!< 0 on success
    Cycles wall = 0;      //!< end-to-end cycles of the benchmark phase
    Accounting acct;      //!< App/OS/Xfers attribution
    /** Engine events executed by the whole run (boot + workload). */
    uint64_t events = 0;
    /** Host wall-clock seconds of the simulate phase (machine boot
     *  excluded). Non-deterministic; perf reporting only. */
    double hostSeconds = 0;

    Cycles app() const { return acct.total(Category::App); }
    Cycles os() const { return acct.total(Category::Os); }
    Cycles xfer() const { return acct.total(Category::Xfer); }
};

/**
 * Extra knobs for M3 runs. maxAppPes, timeSetup and ioChunk shape the
 * workload; every other knob describes the machine and reaches
 * M3SystemCfg through m3MachineCfg() only.
 */
struct M3RunOpts
{
    CostModel costs;
    /** m3fs instances (Sec. 7 future work; sharded by client). */
    uint32_t fsInstances = 1;
    /** Kernel instances (Sec. 7: sharding the control plane). */
    uint32_t numKernels = 1;
    uint32_t fsAppendBlocks = 256;  //!< m3fs allocation granularity
    bool fsBackgroundZero = true;
    uint32_t fsBlocksPerExtent = 0xffffffff;  //!< image fragmentation

    /**
     * Oversubscription (scalability runs only): cap the machine at this
     * many application PEs even when the instance count wants more; the
     * kernel time-multiplexes the excess VPEs. 0 = one PE per instance
     * as before. Requires a non-zero multiplexSlice when it bites.
     */
    uint32_t maxAppPes = 0;
    /** Kernel scheduling quantum for time multiplexing (0 = off). */
    Cycles multiplexSlice = 0;
    /**
     * Scalability runs: start each instance's timer at VPE entry rather
     * than after its m3fs mount, so session setup — the kernel-mediated
     * phase (OpenSess, capability exchanges) — counts toward the
     * per-instance time. The multi-kernel table uses this; the classic
     * tables keep the paper's steady-state-only window.
     */
    bool timeSetup = false;

    /**
     * distfs stripes (1 = off; scalability runs only). With N >= 2 the
     * machine boots N m3fs instances, each on its own DRAM module; every
     * client mounts the striped session and the workload's setup files
     * are created at runtime through it (striped subfiles cannot be
     * pre-built into a single image). Setup stays outside the timed
     * window unless timeSetup is set.
     */
    uint32_t distfsStripes = 1;
    /** distfs striping unit in blocks. */
    uint32_t distfsUnitBlocks = 8;
    /** distfs replication factor R (1 = unreplicated; see M3SystemCfg). */
    uint32_t distfsReplicas = 1;
    /**
     * Override the streaming I/O buffer for trace benches (bytes,
     * 0 = keep the trace's own sizes). Only sendfile-style bulk ops
     * that use the paper's default 4 KiB buffer are rescaled; header
     * reads/writes keep their sizes. Bandwidth tables use this to run
     * the same workload with larger buffers on every column.
     */
    uint32_t ioChunk = 0;
};

/** Extra knobs for Linux runs. */
struct LxRunOpts
{
    LinuxCosts costs = LinuxCosts::xtensa();
    ComputeCosts compute;
    bool cacheAlwaysHit = false;  //!< the Lx-$ bars
};

/**
 * The machine every M3 runner boots: M3SystemCfg's defaults, each
 * machine knob of @p opts, @p appPes application PEs and the image
 * @p fsSpec, whose files all get opts.fsBlocksPerExtent. This is the
 * one place an M3RunOpts knob is copied into M3SystemCfg; a runner sets
 * only what is its own on top (accelerators, DRAM size, spin transfers).
 */
M3SystemCfg m3MachineCfg(const M3RunOpts &opts, uint32_t appPes,
                         m3fs::FsImageSpec fsSpec);

/**
 * Boot @p cfg, mount m3fs at "/" and run @p body as root; the result
 * times @p body alone. DRAM grows to hold every m3fs instance's image.
 * A striped machine is refused: a single-machine run pre-builds its
 * image and cannot stripe it. A run that does not finish prints the
 * machine's stats and returns rc -2.
 */
RunResult runOnM3(M3SystemCfg cfg, const std::function<int(Env &)> &body);

/** Boot the Linux baseline with @p setup in its tmpfs and run @p body as
 *  init; the result times @p body alone. */
RunResult runOnLx(const LxRunOpts &opts, const FsSetup &setup,
                  const std::function<int(lx::Process &)> &body);

/** Replay a trace workload on a freshly booted M3 machine. */
RunResult runM3Trace(const Workload &workload, const M3RunOpts &opts = {});

/** Replay a trace workload on the Linux baseline. */
RunResult runLxTrace(const Workload &workload, const LxRunOpts &opts = {});

/** cat+tr on M3 (needs 2 PEs). */
RunResult runM3CatTr(const CatTrParams &p, const M3RunOpts &opts = {});

/** cat+tr on Linux. */
RunResult runLxCatTr(const CatTrParams &p, const LxRunOpts &opts = {});

/** The FFT chain on M3 (software or accelerator PE). */
RunResult runM3Fft(const FftParams &p, const M3RunOpts &opts = {});

/** The FFT chain on Linux (software). */
RunResult runLxFft(const FftParams &p, const LxRunOpts &opts = {});

/**
 * The Sec. 5.7 scalability experiment: @p instances instances of the
 * named workload run in parallel on one M3 machine with a single kernel
 * and a single m3fs instance; DRAM data transfers are replaced by spins
 * of equal time. @return the average per-instance wall time.
 */
struct ScalabilityResult
{
    int rc = -1;
    Cycles avgInstance = 0;
    std::vector<Cycles> instances;
    uint64_t events = 0;     //!< engine events executed by the run
    double hostSeconds = 0;  //!< host seconds of the simulate phase
    /** Application PEs the machine was actually built with. Smaller than
     *  the instance demand when maxAppPes capped it (time-multiplexed). */
    uint32_t appPes = 0;
    /** True when maxAppPes reduced the machine below one PE/instance. */
    bool capped = false;
    /** DRAM pages the host wrote (MemTarget::writtenPages), over all
     *  modules: the run's host footprint. */
    size_t dramWrittenPages = 0;
};

ScalabilityResult runM3Scalability(const std::string &benchName,
                                   uint32_t instances,
                                   const M3RunOpts &opts = {});

} // namespace workloads
} // namespace m3

#endif // M3_WORKLOADS_RUNNERS_HH
