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
#include <string>

#include "base/cli.hh"
#include "trace/reqtrace.hh"
#include "trace/sinkfiles.hh"
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
    trace::SinkFiles sinks;
    bool jsonOutput = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto num = [&](auto &field) {
            if (i + 1 >= argc)
                usage();
            ++i;
            parseFlagNumber(arg.c_str(), argv[i], field);
        };
        if (arg == "--clients") {
            num(opts.clients);
        } else if (arg == "--requests") {
            num(opts.requestsPerClient);
        } else if (arg == "--mean-gap") {
            num(opts.meanGapCycles);
        } else if (arg == "--service-cycles") {
            num(opts.serviceCycles);
        } else if (arg == "--seed") {
            num(opts.seed);
        } else if (arg == "--kernels") {
            num(opts.numKernels);
        } else if (arg.rfind("--slo=", 0) == 0) {
            sloFile = arg.substr(6);
        } else if (arg == "--json") {
            jsonOutput = true;
        } else if (!sinks.parse(arg)) {
            usage();
        }
    }
    if (!sloFile.empty())
        trace::ReqTrace::enable();
    sinks.enable();

    OpenLoopResult r = runOpenLoop(opts);
    if (r.rc != 0) {
        std::fprintf(stderr, "openloop: FAILED (rc=%d)\n", r.rc);
        return 1;
    }

    if (!sloFile.empty()) {
        if (sloFile == "-") {
            std::fwrite(r.sloJson.data(), 1, r.sloJson.size(), stdout);
        } else if (!trace::writeFile(sloFile, r.sloJson)) {
            std::fprintf(stderr,
                         "openloop: cannot write SLO report to %s\n",
                         sloFile.c_str());
            return 1;
        }
    }
    if (!sinks.write("openloop"))
        return 1;

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
