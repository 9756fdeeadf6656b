/**
 * @file
 * Figure 6: scalability of the OS design with a single kernel and a
 * single m3fs instance. N instances of each application benchmark run in
 * parallel (one per PE); the table shows the average time per instance,
 * normalised to one instance — flatter is better. DRAM data transfers
 * are replaced by equal-time spins, per the paper's methodology
 * (Sec. 5.7).
 */

#include <map>

#include "bench/common.hh"
#include "workloads/runners.hh"

using namespace m3;
using namespace m3::workloads;

int
main(int argc, char **argv)
{
    // --multikernel-only: skip straight to the multi-kernel table (the
    // CI hook runs just that stage).
    bool mkOnly = false;
    bool distfsOnly = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--multikernel-only")
            mkOnly = true;
        else if (arg == "--distfs-only")
            distfsOnly = true;
        else {
            std::fprintf(stderr, "usage: fig6_scalability "
                                 "[--multikernel-only] [--distfs-only]\n");
            return 2;
        }
    }

    bool ok = true;
    if (!mkOnly && !distfsOnly) {
    const std::vector<uint32_t> counts = {1, 2, 4, 8, 16};
    const std::vector<std::string> benches = {"cat+tr", "tar", "untar",
                                              "find", "sqlite"};

    std::printf("Figure 6: average time per benchmark instance,\n"
                "normalised to one instance (flatter is better)\n");

    std::vector<std::string> cols = {"instances"};
    for (uint32_t n : counts)
        cols.push_back(std::to_string(n));
    bench::header("M3 scalability, single kernel + single m3fs", cols,
                  12);

    std::map<std::string, std::vector<double>> normalised;
    bool allOk = true;
    for (const std::string &b : benches) {
        bench::cell(b, 12);
        double base = 0;
        for (uint32_t n : counts) {
            ScalabilityResult r = runM3Scalability(b, n);
            if (r.rc != 0) {
                std::printf(" run failed (%d)\n", r.rc);
                allOk = false;
                break;
            }
            if (n == 1)
                base = static_cast<double>(r.avgInstance);
            double norm = static_cast<double>(r.avgInstance) / base;
            normalised[b].push_back(norm);
            bench::cellRatio(norm, 12);
        }
        bench::endRow();
    }

    std::printf("\nShape checks (Sec. 5.7):\n");
    auto at = [&](const std::string &b, uint32_t n) {
        size_t idx = 0;
        for (size_t i = 0; i < counts.size(); ++i)
            if (counts[i] == n)
                idx = i;
        return normalised[b][idx];
    };
    ok &= allOk;
    ok &= bench::verdict("all benchmarks scale well up to 4 instances "
                         "(within 25%)",
                         at("cat+tr", 4) < 1.25 && at("tar", 4) < 1.25 &&
                             at("untar", 4) < 1.25 &&
                             at("find", 4) < 1.25 &&
                             at("sqlite", 4) < 1.25);
    ok &= bench::verdict("cat+tr shows nearly no degradation at 16",
                         at("cat+tr", 16) < 1.2);
    ok &= bench::verdict("sqlite stays acceptable at 16 (compute-bound)",
                         at("sqlite", 16) < 1.5);
    ok &= bench::verdict("find degrades significantly at 16 instances",
                         at("find", 16) > 1.5);
    ok &= bench::verdict("find/untar degrade more than cat+tr/sqlite "
                         "at 16",
                         at("find", 16) > at("cat+tr", 16) &&
                             at("untar", 16) > at("sqlite", 16));

    // ------------------------------------------------------------------
    // Extension (the paper's Sec. 7 future work): multiple m3fs
    // instances. find saturates a single service at 16 clients; shard
    // the clients across 1/2/4 instances and watch the bottleneck
    // dissolve.
    // ------------------------------------------------------------------
    const std::vector<uint32_t> services = {1, 2, 4};
    std::vector<std::string> cols2 = {"fs instances"};
    for (uint32_t s : services)
        cols2.push_back(std::to_string(s));
    bench::header("find, 16 clients, sharded m3fs instances "
                  "(Sec. 7 extension)",
                  cols2, 14);
    bench::cell("norm. time", 14);
    ScalabilityResult base1 = runM3Scalability("find", 1);
    std::vector<double> shard;
    for (uint32_t s : services) {
        workloads::M3RunOpts opts;
        opts.fsInstances = s;
        ScalabilityResult r = runM3Scalability("find", 16, opts);
        if (r.rc != 0 || base1.rc != 0) {
            std::printf(" run failed\n");
            return 1;
        }
        shard.push_back(static_cast<double>(r.avgInstance) /
                        static_cast<double>(base1.avgInstance));
        bench::cellRatio(shard.back(), 14);
    }
    bench::endRow();
    ok &= bench::verdict("two fs instances roughly halve the "
                         "16-client find degradation",
                         shard[1] < 1.0 + (shard[0] - 1.0) * 0.6);
    ok &= bench::verdict("four fs instances nearly remove it "
                         "(within 40% of one client)",
                         shard[2] < 1.4);

    // ------------------------------------------------------------------
    // Extension: time-multiplexed VPEs. Fig. 6 gives every instance its
    // own PE; here the kernel co-schedules more instances than PEs
    // (context switching via the DTU, Sec. 4.5.2's spatial model traded
    // for density). 8 tar instances on 8, 4 and 2 application PEs.
    // ------------------------------------------------------------------
    const uint32_t plexInstances = 8;
    const std::vector<uint32_t> appPeCounts = {8, 4, 2};
    std::vector<std::string> cols3 = {"app PEs"};
    for (uint32_t pes : appPeCounts)
        cols3.push_back(std::to_string(plexInstances) + " on " +
                        std::to_string(pes));
    bench::header("tar, 8 instances, time-multiplexed PEs", cols3, 14);
    bench::cell("norm. time", 14);
    std::vector<double> plex;
    std::vector<std::string> capNotes;
    for (uint32_t pes : appPeCounts) {
        workloads::M3RunOpts opts;
        if (pes < plexInstances) {
            opts.maxAppPes = 1 + pes;  // orchestrator + shared app PEs
            // A 200k-cycle quantum (~0.2 ms at 1 GHz) amortises the
            // ~10k-cycle switch: smaller slices serialise at the single
            // kernel, whose DTU performs every spill/fill.
            opts.multiplexSlice = 200000;
        }
        ScalabilityResult r = runM3Scalability("tar", plexInstances, opts);
        if (r.rc != 0) {
            std::printf(" run failed (%d)\n", r.rc);
            return 1;
        }
        if (r.capped)
            capNotes.push_back(
                "  capped: " + std::to_string(plexInstances) +
                " instances on " + std::to_string(r.appPes - 1) +
                " shared app PEs (+1 orchestrator; kernel time-slices, "
                "quantum " + std::to_string(opts.multiplexSlice) +
                " cycles)");
        plex.push_back(static_cast<double>(r.avgInstance));
        bench::cellRatio(plex.back() / plex.front(), 14);
    }
    bench::endRow();
    for (const std::string &n : capNotes)
        std::printf("%s\n", n.c_str());
    ok &= bench::verdict("2x oversubscription costs at most 2.4x per "
                         "instance (save/restore amortised)",
                         plex[1] / plex[0] <= 2.4);
    ok &= bench::verdict("4x oversubscription stays under 5x per "
                         "instance",
                         plex[2] / plex[0] <= 5.0);
    }  // !mkOnly && !distfsOnly

    // ------------------------------------------------------------------
    // Extension: the striped m3fs data plane (distfs). One client runs
    // tar/untar against 1/2/4 m3fs stripes, each stripe on its own DRAM
    // module; the striped session splits every I/O buffer into 4 KiB
    // units and moves the stripes' shares with parallel DTU transfer
    // slots. Every column (including the unstriped baseline) streams
    // with 16 KiB buffers — a bandwidth table needs transfers large
    // enough that the wire time, not the per-op fixed cost, dominates.
    // Speedup = single-instance time / striped time.
    // ------------------------------------------------------------------
    if (!mkOnly) {
    const std::vector<uint32_t> stripeCounts = {1, 2, 4};
    std::vector<std::string> cols5 = {"stripes"};
    for (uint32_t s : stripeCounts)
        cols5.push_back(std::to_string(s));
    bench::header("tar/untar, 1 client, striped m3fs (distfs)", cols5,
                  14);
    const std::vector<std::string> stripedBenches = {"tar", "untar"};
    std::map<std::string, std::vector<double>> speedup;
    // Raw per-column times, reused by the replication-cost table below.
    std::map<std::string, std::map<uint32_t, double>> rawTime;
    for (const std::string &b : stripedBenches) {
        bench::cell(b + " speedup", 14);
        double base = 0;
        for (uint32_t s : stripeCounts) {
            workloads::M3RunOpts opts;
            opts.distfsStripes = s;
            // 4 KiB units: every 16 KiB buffer spans four units, so a
            // four-stripe round fills all DTU transfer slots.
            opts.distfsUnitBlocks = 4;
            opts.ioChunk = 16384;
            ScalabilityResult r = runM3Scalability(b, 1, opts);
            if (r.rc != 0) {
                std::printf(" run failed (%d)\n", r.rc);
                return 1;
            }
            if (s == 1)
                base = static_cast<double>(r.avgInstance);
            rawTime[b][s] = static_cast<double>(r.avgInstance);
            speedup[b].push_back(base /
                                 static_cast<double>(r.avgInstance));
            bench::cellRatio(speedup[b].back(), 14);
        }
        bench::endRow();
    }
    ok &= bench::verdict("2 stripes beat the single instance on tar "
                         "and untar",
                         speedup["tar"][1] > 1.0 &&
                             speedup["untar"][1] > 1.0);
    ok &= bench::verdict("4 stripes deliver >= 1.6x tar/untar bandwidth",
                         speedup["tar"][2] >= 1.6 &&
                             speedup["untar"][2] >= 1.6);

    // ------------------------------------------------------------------
    // Replication cost: the same striped columns with R = 2 — every
    // gathered write run is mirrored onto the neighbour stripe on the
    // same parallel transfer slots, every open/namespace op pays one
    // extra fan-out wave. The cells are t(R=2) / t(R=1) per column:
    // the write-amplification overhead a user buys degraded reads with.
    // ------------------------------------------------------------------
    const std::vector<uint32_t> repStripes = {2, 4};
    std::vector<std::string> cols5r = {"R=2 cost"};
    for (uint32_t s : repStripes)
        cols5r.push_back(std::to_string(s) + " stripes");
    bench::header("tar/untar, replicated distfs (R=2 vs R=1)", cols5r,
                  14);
    std::map<std::string, std::vector<double>> repCost;
    for (const std::string &b : stripedBenches) {
        bench::cell(b + " t2/t1", 14);
        for (uint32_t s : repStripes) {
            workloads::M3RunOpts opts;
            opts.distfsStripes = s;
            opts.distfsReplicas = 2;
            opts.distfsUnitBlocks = 4;
            opts.ioChunk = 16384;
            ScalabilityResult r = runM3Scalability(b, 1, opts);
            if (r.rc != 0) {
                std::printf(" run failed (%d)\n", r.rc);
                return 1;
            }
            repCost[b].push_back(static_cast<double>(r.avgInstance) /
                                 rawTime[b][s]);
            bench::cellRatio(repCost[b].back(), 14);
        }
        bench::endRow();
    }
    ok &= bench::verdict("replication never speeds a run up (cost >= 1)",
                         repCost["tar"][0] >= 1.0 &&
                             repCost["tar"][1] >= 1.0 &&
                             repCost["untar"][0] >= 1.0 &&
                             repCost["untar"][1] >= 1.0);
    // The 4-stripe R=2 column is endpoint-limited (4 + 3*4 + 2*4 = 24
    // wanted EPs capped at MAX_EP_COUNT), so mirror segments partially
    // serialize there; 2.75x bounds that worst case.
    ok &= bench::verdict("R=2 cost stays under 2x at 2 stripes",
                         repCost["tar"][0] < 2.0 &&
                             repCost["untar"][0] < 2.0);
    ok &= bench::verdict("R=2 write amplification stays under 2.75x",
                         repCost["tar"][1] < 2.75 &&
                             repCost["untar"][1] < 2.75);
    }  // !mkOnly

    if (distfsOnly)
        return ok ? 0 : 1;

    // ------------------------------------------------------------------
    // Extension (Sec. 7: "another alternative is using multiple kernel
    // instances"): shard the control plane. With m3fs already sharded
    // four ways, a write-heavy workload at fine allocation granularity
    // (every 8-block append is a kernel-mediated session exchange)
    // leaves the single kernel PE as the remaining syscall bottleneck;
    // spreading the same machine across 1/2/4 cooperating kernels
    // dissolves it. Setup (mount, capability exchanges) is included in
    // the timed window — the control plane is what is being measured —
    // and each column is normalised to a 1-instance run of its own
    // configuration, so only the contention moves.
    // ------------------------------------------------------------------
    const std::vector<uint32_t> kernelCounts = {1, 2, 4};
    std::vector<std::string> cols4 = {"kernels"};
    for (uint32_t k : kernelCounts)
        cols4.push_back(std::to_string(k));
    bench::header("tar, 16 clients, 4 m3fs, sharded kernels "
                  "(multi-kernel M3)",
                  cols4, 14);
    bench::cell("norm. time", 14);
    std::vector<double> mk;
    for (uint32_t k : kernelCounts) {
        workloads::M3RunOpts opts;
        opts.numKernels = k;
        opts.fsInstances = 4;
        opts.fsAppendBlocks = 8;
        opts.timeSetup = true;
        ScalabilityResult base = runM3Scalability("tar", 1, opts);
        ScalabilityResult r = runM3Scalability("tar", 16, opts);
        if (base.rc != 0 || r.rc != 0) {
            std::printf(" run failed (%d/%d)\n", base.rc, r.rc);
            return 1;
        }
        mk.push_back(static_cast<double>(r.avgInstance) /
                     static_cast<double>(base.avgInstance));
        bench::cellRatio(mk.back(), 14);
    }
    bench::endRow();
    ok &= bench::verdict("two kernels remove most of the remaining "
                         "syscall bottleneck",
                         mk[1] < 1.0 + (mk[0] - 1.0) * 0.6);
    ok &= bench::verdict("four kernels strictly beat the single kernel "
                         "per instance",
                         mk[2] < mk[0]);
    return ok ? 0 : 1;
}
