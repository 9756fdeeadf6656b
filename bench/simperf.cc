/**
 * @file
 * simperf: host wall-clock performance of the simulator itself.
 *
 * Runs a fixed set of representative workloads (null-syscall micro,
 * 2 MiB file read/write, pipe transfer, and one Fig. 6 scalability
 * point) and times each whole run on the host: config, image build,
 * boot, simulate and teardown. That run time is what the regression
 * gate compares. The events/sec of the simulate phase alone is reported
 * next to it for information. Simulated cycles are reported alongside
 * as a determinism cross-check: they must never change from run to run
 * (or from PR to PR unless the cost model itself changes).
 *
 * The mk4 row is the large machine: a 256-PE fig6-class setup (tar
 * x240, 4 kernel domains, 4 m3fs instances).
 *
 * A row times a fixed number of runs of its workload (the row's
 * "runs"), chosen so that even the smallest rows take at least 50 ms
 * on a 4-core x86-64 host: a single run of the micro rows takes 0.5 to
 * 8 ms, too close to timer and scheduler noise to gate.
 *
 * Usage:
 *   simperf                 human-readable table
 *   simperf --json          JSON report on stdout
 *   simperf --out FILE      write the JSON report to FILE
 *   simperf --check FILE    compare against a baseline JSON (exit 1 if
 *                           a whole run slows beyond its tolerance)
 *   simperf --quick         single repetition (CI smoke mode)
 *   simperf --reps N        repetitions per workload (default 3)
 *   simperf --trace=FILE    record a Chrome trace of the runs
 *   simperf --metrics=FILE  dump the metric registry as JSON
 *
 * Every run must execute the identical number of events and simulated
 * cycles; the harness verifies this and fails otherwise (a cheap
 * determinism check that costs nothing extra).
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/cli.hh"
#include "trace/sinkfiles.hh"
#include "workloads/micro.hh"
#include "workloads/runners.hh"

using namespace m3;
using namespace m3::workloads;

namespace
{

struct Measurement
{
    std::string name;
    int runs = 1;            //!< runs of the workload per repetition
    double runSeconds = 0;   //!< all runs, best over all repetitions
    double hostSeconds = 0;  //!< their simulate phases, best likewise
    uint64_t events = 0;     //!< of one run, identical across runs
    Cycles simCycles = 0;    //!< simulated wall of one run
    double eventsPerSec = 0;
};

struct Sample
{
    int rc;
    double hostSeconds;
    uint64_t events;
    Cycles simCycles;
};

/**
 * One row: @p runs runs of a workload (a callable producing a Sample) per
 * timed repetition, best of @p reps repetitions.
 */
template <typename F>
Measurement
measure(const std::string &name, int reps, int runs, F &&runOnce)
{
    Measurement m;
    m.name = name;
    m.runs = runs;
    for (int i = 0; i < reps; ++i) {
        double host = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < runs; ++r) {
            Sample s = runOnce();
            if (s.rc != 0) {
                std::fprintf(stderr,
                             "simperf: workload '%s' failed (rc=%d)\n",
                             name.c_str(), s.rc);
                std::exit(1);
            }
            if (i == 0 && r == 0) {
                m.events = s.events;
                m.simCycles = s.simCycles;
            } else if (s.events != m.events || s.simCycles != m.simCycles) {
                std::fprintf(stderr,
                             "simperf: '%s' is non-deterministic: "
                             "%llu/%llu events, %llu/%llu cycles\n",
                             name.c_str(),
                             (unsigned long long)s.events,
                             (unsigned long long)m.events,
                             (unsigned long long)s.simCycles,
                             (unsigned long long)m.simCycles);
                std::exit(1);
            }
            host += s.hostSeconds;
        }
        double run = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        if (i == 0 || run < m.runSeconds)
            m.runSeconds = run;
        if (i == 0 || host < m.hostSeconds)
            m.hostSeconds = host;
    }
    m.eventsPerSec = m.hostSeconds > 0
                         ? static_cast<double>(m.events) * runs / m.hostSeconds
                         : 0;
    std::fflush(stdout);
    return m;
}

Sample
fromRunResult(const RunResult &r)
{
    return Sample{r.rc, r.hostSeconds, r.events, r.wall};
}

std::vector<Measurement>
runAll(int reps)
{
    std::vector<Measurement> out;
    // The runs per row are fixed here, not derived from the host's
    // speed, so that every host times the same work.
    out.push_back(measure("syscall", reps, 160, [] {
        return fromRunResult(m3NullSyscall(512));
    }));
    MicroOpts micro;  // paper defaults: 2 MiB transfers, 4 KiB buffers
    out.push_back(measure("read", reps, 48, [&] {
        return fromRunResult(m3FileRead(micro));
    }));
    out.push_back(measure("write", reps, 80, [&] {
        return fromRunResult(m3FileWrite(micro));
    }));
    out.push_back(measure("pipe", reps, 80, [&] {
        return fromRunResult(m3PipeXfer(micro));
    }));
    out.push_back(measure("fig6", reps, 12, [] {
        ScalabilityResult r = runM3Scalability("tar", 8);
        return Sample{r.rc, r.hostSeconds, r.events, r.avgInstance};
    }));

    out.push_back(measure("mk4", reps, 1, [] {
        M3RunOpts opts;
        opts.numKernels = 4;
        opts.fsInstances = 4;
        ScalabilityResult r = runM3Scalability("tar", 240, opts);
        return Sample{r.rc, r.hostSeconds, r.events, r.avgInstance};
    }));
    return out;
}

void
printTable(const std::vector<Measurement> &ms)
{
    std::printf("%-10s %5s %10s %12s %14s %16s %14s\n", "workload", "runs",
                "run s", "simulate s", "events", "events/sec",
                "sim cycles");
    for (const Measurement &m : ms)
        std::printf("%-10s %5d %10.4f %12.4f %14llu %16.0f %14llu\n",
                    m.name.c_str(), m.runs, m.runSeconds, m.hostSeconds,
                    (unsigned long long)m.events, m.eventsPerSec,
                    (unsigned long long)m.simCycles);
}

std::string
toJson(const std::vector<Measurement> &ms)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"bench\": \"simperf\",\n"
       << "  \"schema\": 4,\n"
       << "  \"host_cores\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"regression_tolerance\": 0.25,\n"
       << "  \"note\": \"run_seconds is the host time of a row's"
          " \\\"runs\\\" whole runs of its workload (config, image, boot,"
          " simulate, teardown; machine-dependent), best of --reps"
          " repetitions;"
          " --check fails a workload whose run speed (baseline"
          " run_seconds / current run_seconds) drops more than"
          " regression_tolerance below 1, or whose runs differ from the"
          " baseline's. host_seconds and events_per_sec cover the simulate"
          " phases alone and are information only. events and sim_cycles"
          " are the simulated state of one run and must match exactly on"
          " any machine and in every run. host_cores records the"
          " recording host.\",\n"
       << "  \"workloads\": [\n";
    for (size_t i = 0; i < ms.size(); ++i) {
        const Measurement &m = ms[i];
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"runs\": %d, "
                      "\"run_seconds\": %.6f, \"host_seconds\": %.6f, "
                      "\"events\": %llu, \"events_per_sec\": %.0f, "
                      "\"sim_cycles\": %llu}%s\n",
                      m.name.c_str(), m.runs, m.runSeconds, m.hostSeconds,
                      (unsigned long long)m.events, m.eventsPerSec,
                      (unsigned long long)m.simCycles,
                      i + 1 < ms.size() ? "," : "");
        os << buf;
    }
    os << "  ]\n}\n";
    return os.str();
}

/**
 * Minimal extractor for the baseline file this tool writes itself: finds
 * `"key": <number>` after the entry containing `"name": "<wl>"`.
 */
bool
extractNumber(const std::string &json, const std::string &wl,
              const std::string &key, double &out)
{
    size_t at = json.find("\"name\": \"" + wl + "\"");
    if (at == std::string::npos)
        return false;
    size_t end = json.find('}', at);
    size_t k = json.find("\"" + key + "\":", at);
    if (k == std::string::npos || k > end)
        return false;
    out = std::strtod(json.c_str() + k + key.size() + 3, nullptr);
    return true;
}

int
check(const std::vector<Measurement> &ms, const std::string &baselinePath)
{
    std::ifstream in(baselinePath);
    if (!in) {
        std::fprintf(stderr, "simperf: cannot read baseline '%s'\n",
                     baselinePath.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string base = ss.str();

    double tol = 0.25;
    {
        size_t t = base.find("\"regression_tolerance\":");
        if (t != std::string::npos)
            tol = std::strtod(base.c_str() + t + 23, nullptr);
    }

    int bad = 0;
    std::printf("%-10s %14s %14s %8s %16s %16s\n", "workload",
                "baseline run s", "current run s", "speed",
                "baseline ev/s", "current ev/s");
    for (const Measurement &m : ms) {
        double baseRun = 0;
        double baseEps = 0;
        if (!extractNumber(base, m.name, "run_seconds", baseRun)) {
            std::fprintf(stderr,
                         "simperf: workload '%s' missing from baseline\n",
                         m.name.c_str());
            ++bad;
            continue;
        }
        extractNumber(base, m.name, "events_per_sec", baseEps);
        double baseRuns = 1;
        extractNumber(base, m.name, "runs", baseRuns);
        if (static_cast<int>(baseRuns) != m.runs) {
            std::fprintf(stderr,
                         "simperf: '%s' times %d runs, baseline %d — "
                         "re-record the baseline\n",
                         m.name.c_str(), m.runs, static_cast<int>(baseRuns));
            ++bad;
            continue;
        }
        double ratio = m.runSeconds > 0 ? baseRun / m.runSeconds : 0;
        bool ok = ratio >= 1.0 - tol;
        std::printf("%-10s %14.4f %14.4f %7.2fx %16.0f %16.0f%s\n",
                    m.name.c_str(), baseRun, m.runSeconds, ratio, baseEps,
                    m.eventsPerSec, ok ? "" : "  REGRESSED");
        if (!ok)
            ++bad;
        // Simulated state must match the baseline bit-exactly.
        double baseEvents = 0, baseCycles = 0;
        if ((extractNumber(base, m.name, "events", baseEvents) &&
             static_cast<uint64_t>(baseEvents) != m.events) ||
            (extractNumber(base, m.name, "sim_cycles", baseCycles) &&
             static_cast<Cycles>(baseCycles) != m.simCycles)) {
            std::fprintf(stderr,
                         "simperf: '%s' executed %llu events in %llu "
                         "cycles, baseline has %llu in %llu — simulated "
                         "behaviour changed\n",
                         m.name.c_str(), (unsigned long long)m.events,
                         (unsigned long long)m.simCycles,
                         (unsigned long long)baseEvents,
                         (unsigned long long)baseCycles);
            ++bad;
        }
    }
    if (bad) {
        std::fprintf(stderr,
                     "simperf: %d workload(s) regressed more than %.0f%% "
                     "vs %s\n",
                     bad, tol * 100, baselinePath.c_str());
        return 1;
    }
    std::printf("simperf: all workloads within %.0f%% of baseline\n",
                tol * 100);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool quick = false;
    int reps = 3;
    std::string outPath;
    std::string checkPath;
    trace::SinkFiles sinks;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--reps" && i + 1 < argc) {
            parseFlagNumber("--reps", argv[++i], reps);
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            checkPath = argv[++i];
        } else if (!sinks.parse(arg)) {
            std::fprintf(stderr,
                         "usage: simperf [--json] [--out FILE] "
                         "[--check FILE] [--quick] [--reps N] "
                         "[--trace=FILE] [--metrics=FILE]\n");
            return 2;
        }
    }
    if (quick)
        reps = 1;
    if (reps < 1)
        reps = 1;

    sinks.enable();
    std::vector<Measurement> ms = runAll(reps);
    if (!sinks.write("simperf"))
        return 1;

    if (!outPath.empty()) {
        std::ofstream out(outPath);
        if (!out) {
            std::fprintf(stderr, "simperf: cannot write '%s'\n",
                         outPath.c_str());
            return 1;
        }
        out << toJson(ms);
    }
    if (!checkPath.empty())
        return check(ms, checkPath);
    if (json)
        std::fputs(toJson(ms).c_str(), stdout);
    else
        printTable(ms);
    return 0;
}
