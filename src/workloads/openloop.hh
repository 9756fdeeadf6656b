/**
 * @file
 * Open-loop serving workload: a Poisson traffic generator firing
 * echo/KV-style requests from many client VPEs at one "rpc" service —
 * the seed of the ROADMAP's latency-SLO serving scenario, and the
 * reference driver for the request-tracing layer (src/trace/reqtrace):
 * every request is tagged at generation, its spans are stitched across
 * libm3, DTU, NoC, kernel and service, and the run ends with a per-class
 * p50/p99/p999 SLO report plus a sustainability verdict.
 *
 * Open-loop means arrival times are drawn up front (exponential gaps,
 * deterministic splitmix-seeded), independent of service progress: when
 * the service falls behind, requests queue at the client and the credit
 * system, and the latency distribution shows it — exactly what a
 * closed-loop benchmark cannot measure.
 */

#ifndef M3_WORKLOADS_OPENLOOP_HH
#define M3_WORKLOADS_OPENLOOP_HH

#include <cstdint>
#include <string>

namespace m3
{
namespace workloads
{

struct OpenLoopOpts
{
    uint32_t clients = 8;            //!< client VPEs (even=echo, odd=kv)
    uint32_t requestsPerClient = 50;
    uint64_t meanGapCycles = 20000;  //!< mean Poisson inter-arrival gap
    uint64_t seed = 1;               //!< arrival-process seed
    uint64_t serviceCycles = 2000;   //!< per-request compute at the server
    uint32_t numKernels = 1;
};

struct OpenLoopResult
{
    int rc = -1;             //!< 0 on success (root exit code otherwise)
    uint64_t wallCycles = 0; //!< simulated end-to-end cycles
    uint64_t completed = 0;  //!< requests completed (ReqTrace on) or sent
    uint64_t events = 0;     //!< engine events executed
    double hostSeconds = 0;  //!< host time of the simulate phase
    /**
     * The SLO report (JSON, schema 1): run parameters, offered vs.
     * achieved throughput, a max-sustainable-throughput verdict, and the
     * per-class latency quantiles + decomposition from ReqTrace. Only
     * composed when request tracing is enabled; empty otherwise. Pure
     * simulated integers — byte-identical across repeats.
     */
    std::string sloJson;
};

/** Boot the machine, run the open-loop scenario, tear down. */
OpenLoopResult runOpenLoop(const OpenLoopOpts &opts);

} // namespace workloads
} // namespace m3

#endif // M3_WORKLOADS_OPENLOOP_HH
