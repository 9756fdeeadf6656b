/**
 * @file
 * e2ebench: whole runs of one benchmark workload, timed on the host.
 *
 * Runs a workload through the public runner functions of src/workloads,
 * on one engine thread, repeatedly while another run fits in a
 * wall-clock budget, and prints one JSON object of raw samples as the last line of stdout:
 * per repetition the host seconds of the whole run (synthesis, image,
 * boot, simulate, teardown) and of its simulate phase, the engine events,
 * and the simulated results, which must repeat exactly. run.py builds
 * this program, derives the metrics and checks the results.
 *
 *   e2ebench --workload fs_scale|repro --seed N --seconds S
 *            [--traced SPANS_FILE]
 *
 * --traced makes the per-layer run instead. It times the calls into each
 * layer that a run makes during setup, each on its own, as host spans
 * (name, start, end, parent) that it writes to SPANS_FILE at exit. Then
 * it runs the workload once untraced and once with the Metrics and
 * ReqTrace sinks on, and adds the Metrics dump to its output.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "libm3/m3system.hh"
#include "m3fs/fs_image.hh"
#include "mem/dram.hh"
#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "workloads/apps.hh"
#include "workloads/generators.hh"
#include "workloads/m3_replay.hh"
#include "workloads/micro.hh"
#include "workloads/runners.hh"

using namespace m3;
using namespace m3::workloads;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** JSON text built front to back; commas are placed automatically. */
class Json
{
  public:
    Json &
    key(const char *k)
    {
        sep();
        out += '"';
        out += k;
        out += "\": ";
        pendingValue = true;
        return *this;
    }

    Json &
    open(char bracket)
    {
        sep();
        out += bracket;
        first = true;
        return *this;
    }

    Json &
    close(char bracket)
    {
        out += bracket;
        first = false;
        return *this;
    }

    Json &
    num(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        return raw(buf);
    }

    Json &
    u64(uint64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
        return raw(buf);
    }

    Json &
    i64(int64_t v)
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRId64, v);
        return raw(buf);
    }

    /** A string value; callers pass names without quotes or escapes. */
    Json &
    str(const std::string &s)
    {
        return raw("\"" + s + "\"");
    }

    /** A value that already is JSON text (or empty for null), put on
     *  the one output line. */
    Json &
    raw(const std::string &text)
    {
        sep();
        if (text.empty())
            out += "null";
        for (char c : text)
            out += c == '\n' ? ' ' : c;
        return *this;
    }

    const std::string &text() const { return out; }

  private:
    void
    sep()
    {
        if (pendingValue) {
            pendingValue = false;
            first = false;
            return;
        }
        if (!first)
            out += ", ";
        first = false;
    }

    std::string out;
    bool first = true;
    bool pendingValue = false;
};

/** Host spans around the benchmark's own calls into the layers. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Spans &spans, const std::string &name, int parent)
            : spans(spans), id(spans.open(name, parent))
        {
        }
        ~Scope() { spans.close(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        Spans &spans;
        const int id;
    };

    int
    open(const std::string &name, int parent)
    {
        list.push_back({name, now(), 0, parent});
        return static_cast<int>(list.size()) - 1;
    }

    void close(int id) { list[id].end = now(); }

    void
    write(Json &j) const
    {
        j.open('[');
        for (const Span &s : list) {
            j.open('{');
            j.key("name").str(s.name);
            j.key("start").num(s.start);
            j.key("end").num(s.end);
            j.key("parent").i64(s.parent);
            j.close('}');
        }
        j.close(']');
    }

  private:
    double now() const { return secondsSince(origin); }

    Clock::time_point origin = Clock::now();
    std::vector<Span> list;
};

/** One whole run of a workload. */
struct Rep
{
    double runS = 0;       //!< synthesis -> teardown, host seconds
    double simulateS = 0;  //!< simulate() phases, host seconds
    uint64_t events = 0;   //!< engine events executed
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double lxHostS = 0;    //!< repro: whole calls of the Linux rows
    std::string sim;       //!< simulated results (JSON object)

    void
    write(Json &j) const
    {
        j.open('{');
        j.key("run_s").num(runS);
        j.key("simulate_s").num(simulateS);
        j.key("events").u64(events);
        j.key("attempted").u64(attempted);
        j.key("failed").u64(failed);
        j.key("lx_host_s").num(lxHostS);
        j.key("sim").raw(sim);
        j.close('}');
    }
};

// ---------------------------------------------------------------------
// fs_scale: the ROADMAP's headline run, tar x240 on 4 kernels + 4 m3fs.
// ---------------------------------------------------------------------

constexpr uint32_t FS_SCALE_INSTANCES = 240;

M3RunOpts
fsScaleOpts()
{
    M3RunOpts o;
    o.numKernels = 4;
    o.fsInstances = 4;
    return o;
}

/** Failed instances of a scalability run: the root exits with the count
 *  of failed instances, or with a code > instances if it failed itself. */
uint64_t
failedInstances(int rc, uint32_t instances)
{
    if (rc == 0)
        return 0;
    if (rc > 0 && static_cast<uint32_t>(rc) <= instances)
        return static_cast<uint64_t>(rc);
    return instances;
}

Rep
runFsScale(uint64_t)
{
    Rep rep;
    auto t0 = Clock::now();
    ScalabilityResult r =
        runM3Scalability("tar", FS_SCALE_INSTANCES, fsScaleOpts());
    rep.runS = secondsSince(t0);
    rep.simulateS = r.hostSeconds;
    rep.events = r.events;
    rep.attempted = FS_SCALE_INSTANCES;
    rep.failed = failedInstances(r.rc, FS_SCALE_INSTANCES);
    Json j;
    j.open('{');
    j.key("rc").i64(r.rc);
    j.key("events").u64(r.events);
    j.key("instances").open('[');
    for (Cycles c : r.instances)
        j.u64(c);
    j.close(']');
    j.close('}');
    rep.sim = j.text();
    return rep;
}

// ---------------------------------------------------------------------
// repro: the paper's single-machine rows, one fresh machine each.
// ---------------------------------------------------------------------

constexpr uint32_t REPRO_SYSCALLS = 64;
constexpr uint32_t REPRO_FIG6_INSTANCES = 16;

FftParams
fftParams(const char *binary, bool accel)
{
    FftParams p;
    p.binary = binary;
    p.useAccel = accel;
    return p;
}

Rep
runRepro(uint64_t)
{
    Rep rep;
    Json j;
    j.open('{').key("rows").open('[');
    auto row = [&](const char *name, const char *system,
                   const std::function<RunResult()> &fn) {
        auto h0 = Clock::now();
        RunResult r = fn();
        double hostS = secondsSince(h0);
        if (std::strcmp(system, "lx") == 0)
            rep.lxHostS += hostS;
        rep.simulateS += r.hostSeconds;
        rep.events += r.events;
        rep.attempted++;
        rep.failed += r.rc != 0;
        j.open('{');
        j.key("name").str(name);
        j.key("system").str(system);
        j.key("rc").i64(r.rc);
        j.key("wall").u64(r.wall);
        j.key("app").u64(r.app());
        j.key("xfer").u64(r.xfer());
        j.key("os").u64(r.os());
        j.key("events").u64(r.events);
        j.close('}');
    };

    auto t0 = Clock::now();
    // Fig. 3: null syscall, 2 MiB read/write/pipe with 4 KiB buffers.
    row("syscall", "m3", [] { return m3NullSyscall(REPRO_SYSCALLS); });
    row("syscall", "lx", [] { return lxNullSyscall(REPRO_SYSCALLS); });
    const MicroOpts micro;
    row("read", "m3", [&] { return m3FileRead(micro); });
    row("read", "lx", [&] { return lxFileRead(micro); });
    row("write", "m3", [&] { return m3FileWrite(micro); });
    row("write", "lx", [&] { return lxFileWrite(micro); });
    row("pipe", "m3", [&] { return m3PipeXfer(micro); });
    row("pipe", "lx", [&] { return lxPipeXfer(micro); });
    // Fig. 5: cat+tr and the four trace-driven applications.
    const CatTrParams catTr;
    row("cat+tr", "m3", [&] { return runM3CatTr(catTr); });
    row("cat+tr", "lx", [&] { return runLxCatTr(catTr); });
    for (const Workload &w : makeAllTraceWorkloads(ComputeCosts{})) {
        row(w.name.c_str(), "m3", [&] { return runM3Trace(w); });
        row(w.name.c_str(), "lx", [&] { return runLxTrace(w); });
    }
    // Fig. 7: the FFT chain in software on both systems, and on M3's
    // accelerator PE.
    row("fft", "m3", [] { return runM3Fft(fftParams("/bin/fft-sw", false)); });
    row("fft", "lx", [] { return runLxFft(fftParams("/bin/fft-lx", false)); });
    row("fft-accel", "m3",
        [] { return runM3Fft(fftParams("/bin/fft-accel", true)); });
    // Fig. 6: one point, tar x16 on one kernel and one m3fs.
    row("fig6-tar16", "m3", [] {
        ScalabilityResult s = runM3Scalability("tar", REPRO_FIG6_INSTANCES);
        RunResult r;
        r.rc = s.rc;
        r.wall = s.avgInstance;
        r.events = s.events;
        r.hostSeconds = s.hostSeconds;
        return r;
    });
    rep.runS = secondsSince(t0);
    j.close(']').close('}');
    rep.sim = j.text();
    return rep;
}

// ---------------------------------------------------------------------
// Per-layer probes: the setup calls a run makes, each timed on its own.
// ---------------------------------------------------------------------

/** The instance-private copy of a setup (as the scalability runner
 *  namespaces every instance's paths). */
FsSetup
namespacedSetup(const FsSetup &setup, uint32_t instance)
{
    const std::string prefix = "/i" + std::to_string(instance);
    FsSetup out;
    out.dirs.push_back(prefix);
    for (const std::string &d : setup.dirs)
        out.dirs.push_back(prefix + d);
    for (SetupFile f : setup.files) {
        f.path = prefix + f.path;
        out.files.push_back(f);
    }
    return out;
}

/**
 * The machine runM3Scalability builds for a trace bench without
 * multiplexing or striping, with an empty image spec.
 */
M3SystemCfg
scalabilityCfg(uint32_t instances, const M3RunOpts &opts)
{
    M3SystemCfg cfg;
    cfg.appPes = 1 + instances;
    cfg.costs = opts.costs;
    cfg.costs.spinDataTransfers = true;
    cfg.fsInstances = opts.fsInstances;
    cfg.numKernels = opts.numKernels;
    cfg.dramBytes = std::max<size_t>(256 * MiB, size_t(instances) * 16 * MiB);
    cfg.fsCfg.appendBlocks = opts.fsAppendBlocks;
    cfg.fsSpec.totalBlocks = std::max<uint32_t>(65536, instances * 4096);
    cfg.fsSpec.totalInodes = std::max<uint32_t>(2048, instances * 128);
    return cfg;
}

/** The machine the single-run M3 runners build for @p setup. */
M3SystemCfg
rowCfg(const FsSetup &setup, const std::vector<PeDesc> &extraPes = {})
{
    M3SystemCfg cfg;
    applySetupToImage(setup, cfg.fsSpec);
    cfg.fsSpec.totalBlocks = 32768;
    cfg.extraPes = extraPes;
    return cfg;
}

/** Time the M3System constructor and destructor for @p cfg, with no
 *  root program. */
void
bootMachine(Spans &spans, int parent, const M3SystemCfg &cfg)
{
    std::unique_ptr<M3System> sys;
    {
        Spans::Scope boot(spans, "libm3.boot", parent);
        sys = std::make_unique<M3System>(cfg);
    }
    Spans::Scope teardown(spans, "libm3.teardown", parent);
    sys.reset();
}

/** Time, on their own, the DRAM zeroing and m3fs image builds that
 *  booting @p cfg includes. */
void
probeDram(Spans &spans, int parent, const M3SystemCfg &cfg)
{
    Spans::Scope dram(spans, "mem.dram", parent);
    auto mem = std::make_unique<Dram>(cfg.dramBytes, cfg.costs.hw.dramLatency);
    {
        Spans::Scope build(spans, "m3fs.image_build", dram.id);
        goff_t base = 0;
        const uint32_t images = cfg.withFs ? cfg.fsInstances : 0;
        for (uint32_t k = 0; k < images; ++k) {
            m3fs::FsImage image(*mem, base, cfg.fsSpec);
            base += image.sizeBytes();
        }
    }
    mem.reset();
}

/** fs_scale's setup: the tar trace, and one machine holding all 240
 *  instances' files in each of its 4 images. */
std::vector<M3SystemCfg>
setupFsScale(Spans &spans, int setupRoot)
{
    const M3RunOpts opts = fsScaleOpts();
    Workload tar;
    {
        Spans::Scope s(spans, "workloads.synth", setupRoot);
        for (Workload &w : makeAllTraceWorkloads(opts.costs.compute))
            if (w.name == "tar")
                tar = std::move(w);
    }
    M3SystemCfg cfg = scalabilityCfg(FS_SCALE_INSTANCES, opts);
    {
        Spans::Scope s(spans, "workloads.image_spec", setupRoot);
        for (uint32_t i = 0; i < FS_SCALE_INSTANCES; ++i)
            applySetupToImage(namespacedSetup(tar.setup, i), cfg.fsSpec);
    }
    // Moved, not listed: an initializer list would copy the image spec.
    std::vector<M3SystemCfg> machines;
    machines.push_back(std::move(cfg));
    return machines;
}

/** repro's setup: every row's inputs, and one machine per M3 row. */
std::vector<M3SystemCfg>
setupRepro(Spans &spans, int setupRoot)
{
    std::vector<FsSetup> setups;
    std::vector<Workload> traces;
    {
        Spans::Scope s(spans, "workloads.synth", setupRoot);
        traces = makeAllTraceWorkloads(ComputeCosts{});
        setups.push_back(catTrSetup(CatTrParams{}));
        for (const Workload &w : traces)
            setups.push_back(w.setup);
        setups.push_back(fftSetup(fftParams("/bin/fft-sw", false)));
    }
    std::vector<M3SystemCfg> cfgs;
    {
        Spans::Scope s(spans, "workloads.image_spec", setupRoot);
        for (const FsSetup &setup : setups)
            cfgs.push_back(rowCfg(setup));
        cfgs.push_back(rowCfg(fftSetup(fftParams("/bin/fft-accel", true)),
                              {PeDesc::accel("fft")}));
        M3SystemCfg fig6 = scalabilityCfg(REPRO_FIG6_INSTANCES, M3RunOpts{});
        for (uint32_t i = 0; i < REPRO_FIG6_INSTANCES; ++i)
            applySetupToImage(namespacedSetup(traces[0].setup, i),
                              fig6.fsSpec);
        cfgs.push_back(std::move(fig6));
    }
    // The four Fig. 3 micro rows boot a machine with a small prepared
    // image; a default machine stands in for each.
    for (int i = 0; i < 4; ++i)
        cfgs.push_back(M3SystemCfg{});
    return cfgs;
}

// ---------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------

struct BenchWorkload
{
    const char *name;
    Rep (*run)(uint64_t seed);
    std::vector<M3SystemCfg> (*setup)(Spans &, int setupRoot);
};

const BenchWorkload WORKLOADS[] = {
    {"fs_scale", runFsScale, setupFsScale},
    {"repro", runRepro, setupRepro},
};

/** Repetitions a plain run makes at least, whatever the budget. */
constexpr int MIN_REPS = 3;

uint64_t
peakRssKib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss);
}

void
writeBuild(Json &j)
{
    j.key("build").open('{');
    j.key("type").str(E2E_BUILD_TYPE);
    j.key("compiler").str(__VERSION__);
    j.key("flags").str(E2E_CXX_FLAGS);
    j.close('}');
}

/** Timing numbers from an unoptimized or instrumented build would be
 *  compared against bounds recorded on an optimized one. */
bool
timedBuild()
{
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) ||                          \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#else
    return std::strcmp(E2E_BUILD_TYPE, "Release") == 0 &&
           std::strstr(E2E_CXX_FLAGS, "-fsanitize") == nullptr;
#endif
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench --workload fs_scale|repro "
                 "--seed N --seconds S [--traced SPANS_FILE]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const BenchWorkload *wl = nullptr;
    uint64_t seed = 1;
    double seconds = -1;
    std::string spansPath;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const char *val = argv[i + 1];
        if (arg == "--workload") {
            for (const BenchWorkload &w : WORKLOADS)
                if (std::strcmp(w.name, val) == 0)
                    wl = &w;
        } else if (arg == "--seed") {
            seed = std::strtoull(val, nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(val, nullptr);
        } else if (arg == "--traced") {
            spansPath = val;
        } else {
            return usage();
        }
    }
    if (!wl || seconds < 0 || argc % 2 != 1)
        return usage();
    if (!timedBuild()) {
        std::fprintf(stderr,
                     "e2ebench: refusing to time a '%s' build with flags "
                     "'%s': configure with -DCMAKE_BUILD_TYPE=Release and "
                     "no sanitizer\n",
                     E2E_BUILD_TYPE, E2E_CXX_FLAGS);
        return 3;
    }

    Json out;
    out.open('{');
    out.key("workload").str(wl->name);
    out.key("seed").u64(seed);
    writeBuild(out);

    if (spansPath.empty()) {
        // Plain run: untraced repetitions while the longest one so far
        // still fits in the budget, so a run never overshoots it.
        out.key("reps").open('[');
        auto t0 = Clock::now();
        double longest = 0;
        uint64_t firstRunRssKib = 0;
        for (int n = 0;
             n < MIN_REPS || secondsSince(t0) + longest <= seconds; ++n) {
            auto r0 = Clock::now();
            wl->run(seed).write(out);
            longest = std::max(longest, secondsSince(r0));
            if (n == 0)
                firstRunRssKib = peakRssKib();
        }
        out.close(']');
        // The process keeps some memory from one run to the next, so a
        // peak over all runs would grow with the number of runs that fit
        // in the budget; a faster program would read as a bigger one.
        out.key("peak_rss_kib").u64(firstRunRssKib);
    } else {
        // Setup spans cover what a run does before simulating; the
        // probe spans repeat parts of boot on their own, so they are kept
        // out of the setup sum.
        Spans spans;
        std::vector<M3SystemCfg> machines;
        {
            Spans::Scope setup(spans, "setup", -1);
            machines = wl->setup(spans, setup.id);
            for (const M3SystemCfg &cfg : machines)
                bootMachine(spans, setup.id, cfg);
        }
        {
            Spans::Scope probe(spans, "probe", -1);
            for (const M3SystemCfg &cfg : machines)
                probeDram(spans, probe.id, cfg);
        }
        machines.clear();
        Rep plain;
        {
            Spans::Scope s(spans, "run.untraced", -1);
            plain = wl->run(seed);
        }
        trace::Metrics::reset();
        trace::Metrics::enable();
        trace::ReqTrace::enable();
        Rep traced;
        {
            Spans::Scope s(spans, "run.traced", -1);
            traced = wl->run(seed);
        }
        trace::ReqTrace::disable();
        trace::Metrics::disable();
        out.key("untraced");
        plain.write(out);
        out.key("traced");
        traced.write(out);
        out.key("metrics").raw(trace::Metrics::toJson());
        Json sj;
        spans.write(sj);
        out.key("spans").raw(sj.text());
        std::FILE *f = std::fopen(spansPath.c_str(), "w");
        bool written = f && std::fputs(sj.text().c_str(), f) >= 0;
        if (f && std::fclose(f) != 0)
            written = false;
        if (!written) {
            std::fprintf(stderr, "e2ebench: cannot write spans to '%s'\n",
                         spansPath.c_str());
            return 1;
        }
    }
    out.close('}');
    std::printf("%s\n", out.text().c_str());
    return 0;
}
