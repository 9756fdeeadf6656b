#!/usr/bin/env python3
"""e2ebench: whole-run host cost and simulated results of the M3 repro.

    python3 e2ebench/run.py --workload fs_scale|repro --seed N \\
        --seconds S --trace 0|1

Run from the repository root. Builds the bench program (main.cc) and
the simulator libraries in Release under $CARGO_TARGET_DIR (default
.bench_build), runs one workload and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones from a separate traced run. The
lines before it record the host and build and explain the numbers.
Exits 1 when a correctness, determinism or zero-drift check fails, and 2
when the benchmark cannot be built or run. README.md defines every
metric.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import stats  # noqa: E402  (after the bytecode switch)

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("fs_scale", "repro")
# A run of the benchmark must end within 180 s; stop the bench program
# before that.
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles", "cycles"),
]

PER_LAYER = [
    ("setup.total_s", "s"),
    ("setup.spans_s", "s"),
    ("setup.unexplained_s", "s"),
    ("workloads.synth_s", "s"),
    ("workloads.image_spec_s", "s"),
    ("mem.dram_init_s", "s"),
    ("m3fs.image_build_s", "s"),
    ("libm3.boot_s", "s"),
    ("libm3.teardown_s", "s"),
    ("libm3.app_cycles", "cycles"),
    ("libm3.xfer_cycles", "cycles"),
    ("libm3.os_cycles", "cycles"),
    ("sim.simulate_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.peak_pending", "count"),
    ("sim.callback_heap_fallbacks", "count"),
    ("kernel.syscalls", "count"),
    ("kernel.syscall_cycles", "cycles"),
    ("kernel.ik_requests", "count"),
    ("kernel.service_requests", "count"),
    ("dtu.msgs_sent", "count"),
    ("dtu.msgs_dropped", "count"),
    ("dtu.credit_denials", "count"),
    ("dtu.ext_configs", "count"),
    ("dtu.reply_latency_p99_cycles", "cycles"),
    ("noc.packets", "count"),
    ("noc.payload_bytes", "bytes"),
    ("noc.contention_stalls", "count"),
    ("noc.queue_delay_p99_cycles", "cycles"),
    ("noc.max_link_busy_frac", "ratio"),
    ("m3fs.ops", "count"),
    ("m3fs.op_p99_cycles", "cycles"),
    ("m3fs.cache.hit_ratio", "ratio"),
    ("m3fs.cache.write_backs", "count"),
    ("trace.overhead", "ratio"),
    ("linuxsim.host_s", "s"),
    ("linuxsim.cycles_geomean", "cycles"),
    ("accel.fft_cycles", "cycles"),
    ("instance_p50_cycles", "cycles"),
    ("instance_p95_cycles", "cycles"),
    ("m3_cycles_geomean", "cycles"),
]

class BenchError(Exception):
    """The benchmark could not be built or run (exit 2, no result)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build and run the bench program.
# ---------------------------------------------------------------------

def build():
    if not (SRC_DIR / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found in {SRC_DIR}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target.resolve() / "e2ebench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return build_dir


def run_bench(build_dir, args):
    cmd = [str(build_dir / "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--traced", str(build_dir / f"spans-{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"bench program ran past {CHILD_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"bench program exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("bench program printed nothing")
    return json.loads(lines[-1])


def host_line(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    b = raw["build"]
    return (f"host: nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} | "
            f"build: type={b['type']} compiler={b['compiler']!r} "
            f"flags={b['flags'].strip()!r}")


# ---------------------------------------------------------------------
# Simulated results.
# ---------------------------------------------------------------------

def instance_cycles(sim):
    return sim["instances"]


def m3_rows(sim):
    return [r for r in sim["rows"] if r["system"] == "m3"]


def lx_rows(sim):
    return [r for r in sim["rows"] if r["system"] == "lx"]


def sim_cycles(workload, sim):
    """The headline simulated result of each workload (README.md)."""
    if workload == "fs_scale":
        return stats.nearest_rank(instance_cycles(sim), 50)
    return stats.geomean([r["wall"] for r in m3_rows(sim)])


# ---------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------

def check_reps(reps, problems):
    first = reps[0]["sim"]
    for i, rep in enumerate(reps[1:], 1):
        if rep["sim"] != first:
            problems.append(f"run {i} simulated differently from run 0")
    for i, rep in enumerate(reps):
        if rep["failed"]:
            problems.append(f"run {i}: {rep['failed']} of "
                            f"{rep['attempted']} failed")


def check_drift(untraced, traced, what, problems):
    if untraced["sim"] != traced["sim"]:
        problems.append(f"zero drift broken: the run with {what} on "
                        "simulated differently")
    if traced["failed"]:
        problems.append(f"the run with {what} on: {traced['failed']} of "
                        f"{traced['attempted']} failed")


# ---------------------------------------------------------------------
# End-to-end metrics (--trace 0).
# ---------------------------------------------------------------------

def end_to_end(workload, raw, problems):
    reps = raw["reps"]
    check_reps(reps, problems)
    runs = [r["run_s"] for r in reps]
    setups = [r["run_s"] - r["simulate_s"] for r in reps]
    values = {
        "run_s": stats.median(runs),
        "setup_s": stats.median(setups),
        "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        "sim_cycles": sim_cycles(workload, reps[0]["sim"]),
    }
    print(f"{len(reps)} untraced runs: run_s {fmt(runs)}, "
          f"setup_s {fmt(setups)}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return values, attempted, failed


def fmt(values):
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


# ---------------------------------------------------------------------
# Per-layer metrics (--trace 1).
# ---------------------------------------------------------------------

def span_times(spans):
    """Duration and self time (duration minus what child spans cover) of
    every span; children of one parent run one after another."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = []
    for s, covered in zip(spans, child_time):
        dur = s["end"] - s["start"]
        out.append((s, dur, dur - covered))
    return out


def span_totals(times):
    """Per span name: total duration, total self time and count."""
    totals = {}
    for s, dur, self_s in times:
        d, sf, n = totals.get(s["name"], (0.0, 0.0, 0))
        totals[s["name"]] = (d + dur, sf + self_s, n + 1)
    return totals


def per_layer(workload, raw, problems):
    un, tr, m = raw["untraced"], raw["traced"], raw["metrics"]
    check_reps([un], problems)
    check_drift(un, tr, "Metrics and ReqTrace", problems)
    counters, gauges, hists = m["counters"], m["gauges"], m["histograms"]

    times = span_times(raw["spans"])
    totals = span_totals(times)
    print(f"{'span':<20} {'count':>5} {'total s':>10} {'self s':>10}")
    for name, (d, sf, n) in totals.items():
        print(f"{name:<20} {n:>5} {d:>10.4f} {sf:>10.4f}")
    setup_root = next(i for i, s in enumerate(raw["spans"])
                      if s["name"] == "setup")
    spans_s = sum(dur for s, dur, _ in times if s["parent"] == setup_root)
    total_s = un["run_s"] - un["simulate_s"]

    def dur(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    v = {
        "setup.total_s": total_s,
        "setup.spans_s": spans_s,
        "setup.unexplained_s": total_s - spans_s,
        "workloads.synth_s": dur("workloads.synth"),
        "workloads.image_spec_s": dur("workloads.image_spec"),
        "mem.dram_init_s": self_time("mem.dram"),
        "m3fs.image_build_s": dur("m3fs.image_build"),
        "libm3.boot_s": dur("libm3.boot"),
        "libm3.teardown_s": dur("libm3.teardown"),
        "sim.simulate_s": un["simulate_s"],
        "sim.events": un["events"],
        "sim.events_per_s": un["events"] / un["simulate_s"],
        "sim.peak_pending": gauges.get("sim.peak_pending", 0),
        "sim.callback_heap_fallbacks":
            counters.get("sim.callback_heap_fallbacks", 0),
        "kernel.syscalls": counters.get("kernel.syscalls", 0),
        "kernel.syscall_cycles": sum(
            h["sum"] for k, h in hists.items()
            if re.match(r"^kernel\.syscall\.[^.]+\.cycles$", k)),
        "kernel.ik_requests": counters.get("kernel.ik_requests_sent", 0),
        "kernel.service_requests": counters.get("kernel.service_requests", 0),
        "dtu.msgs_sent": counters.get("dtu.msgs_sent", 0),
        "dtu.msgs_dropped": counters.get("dtu.msgs_dropped", 0),
        "dtu.credit_denials": counters.get("dtu.credit_denials", 0),
        "dtu.ext_configs": counters.get("dtu.ext_configs", 0),
        "dtu.reply_latency_p99_cycles": stats.log2_quantile(
            stats.merge_buckets(
                h for k, h in hists.items()
                if re.match(r"^dtu\.reply_latency\.ep\d+$", k)), 990),
        "noc.packets": counters.get("noc.packets", 0),
        "noc.payload_bytes": counters.get("noc.payload_bytes", 0),
        "noc.contention_stalls": counters.get("noc.contention_stalls", 0),
        "noc.queue_delay_p99_cycles": stats.log2_quantile(
            stats.merge_buckets(
                [hists["noc.queue_delay"]] if "noc.queue_delay" in hists
                else []), 990),
        "noc.max_link_busy_frac": max(
            [g for k, g in gauges.items()
             if re.match(r"^noc\.link\..*\.util_pct$", k)] or [0]) / 100,
        "m3fs.ops": sum(c for k, c in counters.items()
                        if re.match(r"^m3fs\.([^.]+\.)?op\.[^.]+$", k)),
        "m3fs.op_p99_cycles": stats.log2_quantile(
            stats.merge_buckets(
                h for k, h in hists.items()
                if re.match(r"^m3fs\.([^.]+\.)?op_cycles$", k)), 990),
        "m3fs.cache.write_backs": counters.get("m3fs.cache.write_backs", 0),
        "trace.overhead": stats.Ratio(tr["simulate_s"], un["simulate_s"]),
        "linuxsim.host_s": un["lx_host_s"],
    }
    hits = counters.get("m3fs.cache.hits", 0)
    v["m3fs.cache.hit_ratio"] = stats.Ratio(
        hits, hits + counters.get("m3fs.cache.misses", 0))

    sim = un["sim"]
    zero = ("libm3.app_cycles", "libm3.xfer_cycles", "libm3.os_cycles",
            "linuxsim.cycles_geomean", "accel.fft_cycles",
            "instance_p50_cycles", "instance_p95_cycles",
            "m3_cycles_geomean")
    v.update(dict.fromkeys(zero, 0))
    if workload == "fs_scale":
        inst = instance_cycles(sim)
        pct = stats.tail_percentile(len(inst))
        if pct != 95:
            raise BenchError(f"{len(inst)} instances put the tail at "
                             f"p{pct}, not p95")
        v["instance_p50_cycles"] = stats.nearest_rank(inst, 50)
        v["instance_p95_cycles"] = stats.nearest_rank(inst, 95)
    else:
        m3 = m3_rows(sim)
        for part in ("app", "xfer", "os"):
            v[f"libm3.{part}_cycles"] = sum(r[part] for r in m3)
        v["m3_cycles_geomean"] = stats.geomean([r["wall"] for r in m3])
        v["linuxsim.cycles_geomean"] = stats.geomean(
            [r["wall"] for r in lx_rows(sim)])
        v["accel.fft_cycles"] = next(r["app"] for r in m3
                                     if r["name"] == "fft-accel")

    print(f"setup_s {total_s:.4f} = setup spans {spans_s:.4f} "
          f"+ unexplained {total_s - spans_s:.4f}")
    for name in ("trace.overhead", "m3fs.cache.hit_ratio"):
        print(f"{name} {v[name]}")
        v[name] = v[name].value
    return v, un["attempted"] + tr["attempted"], un["failed"] + tr["failed"]


# ---------------------------------------------------------------------

def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must not be negative")
    return args


def main():
    args = parse_args()
    try:
        raw = run_bench(build(), args)
        print(host_line(raw))
        problems = []
        if args.trace:
            values, attempted, failed = per_layer(args.workload, raw,
                                                  problems)
            table = PER_LAYER
        else:
            values, attempted, failed = end_to_end(args.workload, raw,
                                                   problems)
            table = END_TO_END
        block = stats.metrics_block(
            (name, values[name], unit) for name, unit in table)
    except (BenchError, KeyError, ValueError, StopIteration) as e:
        log(f"e2ebench: {type(e).__name__}: {e}")
        return 2
    for name, m in block.items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    for problem in problems:
        log(f"e2ebench: FAIL {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": block}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
