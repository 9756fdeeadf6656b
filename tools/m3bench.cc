/**
 * @file
 * m3bench: the command-line front end for running any of the paper's
 * workloads on either system with tweakable parameters.
 *
 * Usage:
 *   m3bench <workload> [options]
 *
 * Workloads: cat+tr, tar, untar, find, sqlite, fft, read, write, pipe,
 * syscall.
 *
 * Options:
 *   --lx               run on the Linux baseline instead of M3
 *   --lx-hit           baseline with all cache hits (Lx-$)
 *   --arm              baseline with the ARM cost profile (Sec. 5.2)
 *   --accel            fft: use the FFT accelerator PE
 *   --instances N      scalability mode: N parallel instances (M3)
 *   --fs-instances K   boot K m3fs instances (scalability mode shards
 *                      the clients over them)
 *   --stripes N        stripe the data plane over N m3fs instances
 *                      (distfs; needs --instances)
 *   --stripe-unit B    distfs striping unit in blocks (default 8;
 *                      needs --stripes)
 *   --replicas R       distfs replication factor (default 1 = off;
 *                      needs --stripes)
 *   --io-chunk N       streaming buffer override for trace workloads
 *   --kernels K        shard the control plane over K kernels
 *   --bytes N          transfer size for read/write/pipe (default 2 MiB)
 *   --buf N            buffer size (default 4096)
 *   --append-blocks N  m3fs allocation granularity (default 256)
 *   --frag N           blocks per extent of prepared files
 *   --json             machine-readable output (one JSON object)
 *   --workload NAME    alternative to the positional workload; also
 *                      accepts "fig6" (= tar x8, the Fig. 6 setup)
 *   --trace=FILE       record a Chrome trace (open in Perfetto)
 *   --metrics=FILE     dump the metric registry as JSON
 *   --host-profile=FILE sample the host PC every ms of CPU time and
 *                      write the folded samples (tools/hostprof.py)
 *
 * --kernels, --fs-instances, --append-blocks and --frag shape the M3
 * machine in both modes. m3bench refuses, with exit code 2, a flag its
 * run would ignore: the distfs options on a single-machine run (it
 * pre-builds its image and cannot stripe it), --stripe-unit and
 * --replicas without --stripes, --io-chunk on a workload that streams
 * no file, --accel outside fft, an M3 machine knob on a Linux run
 * (--lx, --lx-hit, --arm), and a malformed number.
 */

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "base/cli.hh"
#include "host_profile.hh"
#include "trace/sinkfiles.hh"
#include "workloads/generators.hh"
#include "workloads/micro.hh"
#include "workloads/runners.hh"

using namespace m3;
using namespace m3::workloads;

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: m3bench <cat+tr|tar|untar|find|sqlite|fft|read|write|"
        "pipe|syscall> [options]\n"
        "  --lx --lx-hit --arm --accel --instances N --fs-instances K\n"
        "  --stripes N --stripe-unit B --replicas R --io-chunk N --kernels K\n"
        "  --bytes N --buf N --append-blocks N --frag N --json\n"
        "  --workload NAME --trace=FILE --metrics=FILE\n"
        "  --host-profile=FILE\n");
    std::exit(2);
}

bool jsonOutput = false;

void
report(const std::string &name, const RunResult &r)
{
    if (r.rc != 0) {
        std::printf("%s: FAILED (rc=%d)\n", name.c_str(), r.rc);
        std::exit(1);
    }
    if (jsonOutput) {
        std::printf("{\"workload\": \"%s\", \"wall_cycles\": %llu, "
                    "\"app_cycles\": %llu, \"xfer_cycles\": %llu, "
                    "\"os_cycles\": %llu, \"events\": %llu, "
                    "\"host_seconds\": %.6f, \"events_per_sec\": %.0f}\n",
                    name.c_str(),
                    static_cast<unsigned long long>(r.wall),
                    static_cast<unsigned long long>(r.app()),
                    static_cast<unsigned long long>(r.xfer()),
                    static_cast<unsigned long long>(r.os()),
                    static_cast<unsigned long long>(r.events),
                    r.hostSeconds,
                    r.hostSeconds > 0 ? r.events / r.hostSeconds : 0.0);
        return;
    }
    std::printf("%-10s %12llu cycles  (App %llu, Xfers %llu, OS %llu)\n",
                name.c_str(), static_cast<unsigned long long>(r.wall),
                static_cast<unsigned long long>(r.app()),
                static_cast<unsigned long long>(r.xfer()),
                static_cast<unsigned long long>(r.os()));
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string workload;

    bool onLx = false;
    bool accel = false;
    uint32_t instances = 0;
    MicroOpts micro;
    trace::SinkFiles sinks;
    std::set<std::string> given;  //!< every flag on the command line
    std::string hostProfileFile;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto num = [&](auto &field) {
            if (i + 1 >= argc)
                usage();
            ++i;
            parseFlagNumber(arg.c_str(), argv[i], field);
        };
        if (arg.rfind("--", 0) == 0)
            given.insert(arg);
        if (sinks.parse(arg))
            continue;
        if (arg == "--lx") {
            onLx = true;
        } else if (arg == "--lx-hit") {
            onLx = true;
            micro.lx.cacheAlwaysHit = true;
        } else if (arg == "--arm") {
            onLx = true;
            micro.lx.costs = LinuxCosts::arm();
        } else if (arg == "--accel") {
            accel = true;
        } else if (arg == "--instances") {
            num(instances);
        } else if (arg == "--fs-instances") {
            num(micro.m3.fsInstances);
        } else if (arg == "--stripes") {
            num(micro.m3.distfsStripes);
        } else if (arg == "--stripe-unit") {
            num(micro.m3.distfsUnitBlocks);
        } else if (arg == "--replicas") {
            num(micro.m3.distfsReplicas);
        } else if (arg == "--io-chunk") {
            num(micro.m3.ioChunk);
        } else if (arg == "--kernels") {
            num(micro.m3.numKernels);
        } else if (arg == "--bytes") {
            num(micro.fileBytes);
        } else if (arg == "--buf") {
            num(micro.bufSize);
        } else if (arg == "--append-blocks") {
            num(micro.m3.fsAppendBlocks);
        } else if (arg == "--frag") {
            num(micro.m3.fsBlocksPerExtent);
        } else if (arg == "--json") {
            jsonOutput = true;
        } else if (arg == "--workload") {
            if (i + 1 >= argc)
                usage();
            workload = argv[++i];
        } else if (arg.rfind("--host-profile=", 0) == 0) {
            hostProfileFile = arg.substr(15);
        } else if (arg.rfind("--", 0) != 0 && workload.empty()) {
            workload = arg;
        } else {
            usage();
        }
    }
    if (workload.empty())
        usage();

    // "fig6" is shorthand for the paper's Fig. 6 setup: the tar workload
    // scaled over parallel instances (8 unless --instances overrides).
    if (workload == "fig6") {
        workload = "tar";
        if (instances == 0)
            instances = 8;
    }

    // Refuse each flag this run would ignore.
    auto refuse = [&given](const char *flag, const char *why) {
        if (given.count(flag)) {
            std::fprintf(stderr, "%s %s\n", flag, why);
            std::exit(2);
        }
    };
    for (const char *flag : {"--stripes", "--stripe-unit", "--replicas"})
        if (instances == 0)
            refuse(flag, "needs --instances: a single-machine run "
                         "pre-builds its image and cannot stripe it");
    for (const char *flag : {"--stripe-unit", "--replicas"})
        if (micro.m3.distfsStripes < 2)
            refuse(flag, "needs --stripes N with N > 1: an unstriped "
                         "run has no stripes to shape");
    for (const char *w : {"cat+tr", "fft", "read", "write", "pipe",
                          "syscall"})
        if (workload == w)
            refuse("--io-chunk", "sizes the streaming buffers of the "
                                 "trace workloads (tar, untar, find, "
                                 "sqlite) only");
    if (workload != "fft")
        refuse("--accel", "applies only to fft");
    if (onLx)
        for (const char *flag : {"--kernels", "--fs-instances", "--io-chunk",
                                 "--append-blocks", "--frag"})
            refuse(flag, "shapes the M3 machine, which a Linux run "
                         "(--lx, --lx-hit, --arm) does not build");

    const HostProfile hostProfile(hostProfileFile);
    sinks.enable();

    // Scalability mode.
    if (instances > 0) {
        if (onLx) {
            std::fprintf(stderr,
                         "--instances is an M3 mode (Sec. 5.7)\n");
            return 2;
        }
        ScalabilityResult r = runM3Scalability(workload, instances,
                                               micro.m3);
        if (!sinks.write("m3bench"))
            return 1;
        if (r.rc != 0) {
            std::printf("FAILED (rc=%d)\n", r.rc);
            return 1;
        }
        if (jsonOutput) {
            std::printf("{\"workload\": \"%s\", \"instances\": %u, "
                        "\"avg_instance_cycles\": %llu, "
                        "\"instance_cycles\": [",
                        workload.c_str(), instances,
                        static_cast<unsigned long long>(r.avgInstance));
            for (uint32_t i = 0; i < instances; ++i)
                std::printf("%s%llu", i ? ", " : "",
                            static_cast<unsigned long long>(
                                r.instances[i]));
            std::printf("], \"events\": %llu, \"host_seconds\": %.6f, "
                        "\"events_per_sec\": %.0f}\n",
                        static_cast<unsigned long long>(r.events),
                        r.hostSeconds,
                        r.hostSeconds > 0 ? r.events / r.hostSeconds
                                          : 0.0);
            return 0;
        }
        std::printf("%s x%u: avg %llu cycles per instance\n",
                    workload.c_str(), instances,
                    static_cast<unsigned long long>(r.avgInstance));
        for (uint32_t i = 0; i < instances; ++i)
            std::printf("  instance %-2u %llu\n", i,
                        static_cast<unsigned long long>(r.instances[i]));
        return 0;
    }

    ComputeCosts compute;
    if (workload == "cat+tr") {
        CatTrParams p;
        p.bufSize = micro.bufSize;
        report(workload,
               onLx ? runLxCatTr(p, micro.lx) : runM3CatTr(p, micro.m3));
    } else if (workload == "fft") {
        FftParams p;
        p.useAccel = accel;
        p.binary = accel ? "/bin/fft-accel" : "/bin/fft-sw";
        report(workload, onLx ? runLxFft(p, micro.lx)
                              : runM3Fft(p, micro.m3));
    } else if (workload == "read") {
        report(workload, onLx ? lxFileRead(micro) : m3FileRead(micro));
    } else if (workload == "write") {
        report(workload, onLx ? lxFileWrite(micro) : m3FileWrite(micro));
    } else if (workload == "pipe") {
        report(workload, onLx ? lxPipeXfer(micro) : m3PipeXfer(micro));
    } else if (workload == "syscall") {
        report(workload, onLx ? lxNullSyscall(64, micro.lx)
                              : m3NullSyscall(64, micro.m3));
    } else {
        bool found = false;
        for (const Workload &w : makeAllTraceWorkloads(compute)) {
            if (w.name == workload) {
                report(workload, onLx ? runLxTrace(w, micro.lx)
                                      : runM3Trace(w, micro.m3));
                found = true;
            }
        }
        if (!found)
            usage();
    }
    return sinks.write("m3bench") ? 0 : 1;
}
