/**
 * @file
 * openloop: the open-loop serving driver — Poisson clients firing
 * echo/KV requests at the "rpc" service, with request tracing and an
 * end-of-run SLO report.
 *
 * Usage:
 *   openloop [options]
 *
 * Options:
 *   --clients N        client VPEs (default 8; even=echo, odd=kv)
 *   --requests N       requests per client (default 50)
 *   --mean-gap N       mean Poisson inter-arrival gap in cycles (20000)
 *   --service-cycles N per-request compute at the server (2000)
 *   --seed N           arrival-process seed (1)
 *   --kernels K        kernel instances
 *   --slo=FILE         enable request tracing, write the SLO report
 *                      ("-" = stdout)
 *   --trace=FILE       Chrome trace (request span tree included when
 *                      --slo is also given)
 *   --metrics=FILE     metric registry dump (req.<class>.* histograms)
 *   --json             machine-readable run summary on stdout
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/metrics.hh"
#include "trace/reqtrace.hh"
#include "trace/trace.hh"
#include "workloads/openloop.hh"

using namespace m3;
using namespace m3::workloads;

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: openloop [--clients N] [--requests N] "
                 "[--mean-gap N]\n"
                 "  [--service-cycles N] [--seed N] [--kernels K]\n"
                 "  [--slo=FILE] [--trace=FILE]\n"
                 "  [--metrics=FILE] [--json]\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OpenLoopOpts opts;
    std::string sloFile;
    std::string traceFile;
    std::string metricsFile;
    bool jsonOutput = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto intArg = [&] {
            if (i + 1 >= argc)
                usage();
            return static_cast<uint64_t>(
                std::strtoull(argv[++i], nullptr, 0));
        };
        if (arg == "--clients") {
            opts.clients = static_cast<uint32_t>(intArg());
        } else if (arg == "--requests") {
            opts.requestsPerClient = static_cast<uint32_t>(intArg());
        } else if (arg == "--mean-gap") {
            opts.meanGapCycles = intArg();
        } else if (arg == "--service-cycles") {
            opts.serviceCycles = intArg();
        } else if (arg == "--seed") {
            opts.seed = intArg();
        } else if (arg == "--kernels") {
            opts.numKernels = static_cast<uint32_t>(intArg());
        } else if (arg.rfind("--slo=", 0) == 0) {
            sloFile = arg.substr(6);
        } else if (arg.rfind("--trace=", 0) == 0) {
            traceFile = arg.substr(8);
        } else if (arg.rfind("--metrics=", 0) == 0) {
            metricsFile = arg.substr(10);
        } else if (arg == "--json") {
            jsonOutput = true;
        } else {
            usage();
        }
    }
    if (!sloFile.empty())
        trace::ReqTrace::enable();
    if (!traceFile.empty())
        trace::Tracer::enable();
    if (!metricsFile.empty())
        trace::Metrics::enable();

    OpenLoopResult r = runOpenLoop(opts);
    if (r.rc != 0) {
        std::fprintf(stderr, "openloop: FAILED (rc=%d)\n", r.rc);
        return 1;
    }

    if (!sloFile.empty()) {
        if (sloFile == "-") {
            std::fwrite(r.sloJson.data(), 1, r.sloJson.size(), stdout);
        } else {
            std::FILE *f = std::fopen(sloFile.c_str(), "w");
            if (!f || std::fwrite(r.sloJson.data(), 1, r.sloJson.size(),
                                  f) != r.sloJson.size()) {
                std::fprintf(stderr,
                             "openloop: cannot write SLO report to %s\n",
                             sloFile.c_str());
                if (f)
                    std::fclose(f);
                return 1;
            }
            std::fclose(f);
        }
    }
    if (!traceFile.empty() && !trace::Tracer::writeJson(traceFile)) {
        std::fprintf(stderr, "openloop: cannot write trace to %s\n",
                     traceFile.c_str());
        return 1;
    }
    if (!metricsFile.empty() && !trace::Metrics::writeJson(metricsFile)) {
        std::fprintf(stderr, "openloop: cannot write metrics to %s\n",
                     metricsFile.c_str());
        return 1;
    }

    if (jsonOutput) {
        std::printf("{\"workload\": \"openloop\", \"wall_cycles\": %llu, "
                    "\"completed\": %llu, \"events\": %llu, "
                    "\"host_seconds\": %.6f}\n",
                    static_cast<unsigned long long>(r.wallCycles),
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.events),
                    r.hostSeconds);
    } else {
        std::printf("openloop: %llu requests in %llu cycles\n",
                    static_cast<unsigned long long>(r.completed),
                    static_cast<unsigned long long>(r.wallCycles));
    }
    return 0;
}
