#!/bin/sh
# Full pre-merge check: build and run the test suite twice, once in the
# default optimized configuration and once instrumented with ASan+UBSan
# (the fiber/ucontext switching is ASan-aware, no extra options needed).
#
# Usage: tools/check.sh [jobs]   (default: nproc)
set -eu

cd "$(dirname "$0")/.."
jobs=${1:-$(nproc)}

run_config() {
    dir=$1
    labels=$2
    shift 2
    echo "=== configure $dir ($*)"
    cmake -B "$dir" -S . "$@"
    echo "=== build $dir"
    cmake --build "$dir" -j "$jobs"
    echo "=== test $dir ($labels)"
    # shellcheck disable=SC2086  # $labels is a ctest flag pair
    ctest --test-dir "$dir" -j "$jobs" --output-on-failure $labels
}

# The release pass runs the quick suite; the randomized invariant/fuzz
# tests (label "slow") run once, in the sanitized build, so every check
# includes ASan+UBSan-instrumented fuzzing without doubling its cost.
# Both builds treat compiler warnings as errors: the tree builds clean.
run_config build-release "-LE slow" -DCMAKE_BUILD_TYPE=Release -DM3_SANITIZE= \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
run_config build-asan "-LE slow" -DM3_SANITIZE=address,undefined \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
echo "=== test build-asan (-L slow: sanitized invariant/fuzz suite)"
ctest --test-dir build-asan -j "$jobs" --output-on-failure -L slow

# Observability smoke: a traced micro-benchmark must emit a well-formed
# Chrome trace containing every phase the exporter produces (span B/E,
# complete X, flow s/f, counter C) and a metrics dump with the schema
# keys CI consumers rely on.
echo "=== traced micro-benchmark (tracecheck)"
obs=$(mktemp -d)
trap 'rm -rf "$obs"' EXIT
./build-release/tools/m3bench syscall \
    --trace="$obs/t.json" --metrics="$obs/m.json" > /dev/null
./build-release/tools/tracecheck \
    --trace "$obs/t.json" --phases BEXsfC \
    --metrics "$obs/m.json" \
    --require dtu.msgs_sent,dtu.reply_latency.ep0,noc.packets,kernel.syscalls,sim.queue_depth

# Host-profile smoke: sampling the host PC must leave the simulated
# output byte-identical, and tools/hostprof.py must fold the samples
# into top functions and layers.
echo "=== host PC sampler (m3bench --host-profile, hostprof.py)"
./build-release/tools/m3bench tar --instances 240 --kernels 4 \
    --fs-instances 4 > "$obs/tar.txt"
./build-release/tools/m3bench tar --instances 240 --kernels 4 \
    --fs-instances 4 --host-profile="$obs/prof.txt" > "$obs/tar.prof.txt"
cmp "$obs/tar.txt" "$obs/tar.prof.txt"
python3 tools/hostprof.py build-release/tools/m3bench "$obs/prof.txt" \
    --top 5 > "$obs/prof.out"
grep -q '^layers' "$obs/prof.out"

# Request-tracing gate: the open-loop serving driver must produce a
# structurally valid request trace (every flow paired, spans nested), a
# metrics dump carrying the per-class latency histograms with their
# quantile estimates, and an SLO report with the schema CI consumers
# parse. Runs once against the release build and once under ASan+UBSan
# (the context shadow rides DTU closures and ring slots — exactly where
# lifetime bugs would hide).
echo "=== open-loop serving driver + SLO report (request tracing)"
for build in build-release build-asan; do
    ./$build/bench/openloop --clients 6 --requests 30 --kernels 2 \
        --slo="$obs/slo.json" --trace="$obs/req.json" \
        --metrics="$obs/reqm.json" > /dev/null
    ./build-release/tools/tracecheck \
        --trace "$obs/req.json" --phases BEXsf \
        --metrics "$obs/reqm.json" \
        --require req.echo.total,req.echo.credit_stall,req.kv.service,quantiles \
        --slo "$obs/slo.json" \
        --slo-require schema,workload,sustainable,classes,p999,decomposition
done

# Perf smoke: the release build must reproduce the committed simulated
# state (events, sim_cycles) exactly, in every run, and each row's
# runs must stay within the regression tolerance of its run_seconds in
# BENCH_simperf.json. A row is a fixed number of whole runs of its
# workload (config, image build, boot, simulate, teardown), at least
# 50 ms in all on the recording host, so the gate measures more than
# timer noise. The whole run is what a user waits for; simulate-only
# events/sec is printed for information, because DRAM pages are zeroed
# on first touch and some of that cost lands inside simulate(). Tracing
# is compiled in but disabled here, so this doubles as the
# zero-overhead gate for the observability layer.
echo "=== simperf smoke (vs BENCH_simperf.json)"
# Best-of-3 measurement: a single rep is too noisy on a loaded host to
# hold the 25% tolerance against the recorded baseline.
./build-release/bench/simperf --reps 3 --check BENCH_simperf.json

# Figure-verdict gate: every figure and section bench prints the paper's
# rows with PASS/FAIL shape verdicts and exits 1 on any FAIL, so the
# reproduction's claims hold on every check, not only when someone
# reads the tables. About 1 s in all, against the release build.
echo "=== figure and section verdicts"
for b in fig3_syscall fig3_fileops fig4_fragmentation fig5_apps \
         fig6_scalability fig7_accelerator sec34_utilization sec52_arm \
         ablations; do
    if ! ./build-release/bench/$b > "$obs/$b.txt" 2>&1; then
        cat "$obs/$b.txt"
        echo "=== $b: a verdict failed"
        exit 1
    fi
    echo "$b: $(grep -c '\[PASS\]' "$obs/$b.txt") verdicts pass"
done

# Byte-identity gate: the stdout of every figure, section and drill
# bench, every example and two m3bench tar runs, plus the open-loop and
# traced-tar trace/metrics/SLO files, must hash exactly as recorded in
# tests/golden.sha256. A mismatch names each artifact that moved; an
# intended change re-records the manifest (tools/golden.sh DIR --record).
# Simulated results do not depend on the build configuration, so one
# manifest holds for the release and the sanitized build (~1.5 s and
# ~45 s).
echo "=== golden artifacts (release + sanitized)"
tools/golden.sh build-release
tools/golden.sh build-asan

# Coverage ratchet: an -O0 --coverage build runs every test and the
# golden artifacts, and no src/ file may leave more lines unrun than
# tests/coverage.ledger records for it. New code comes with the tests
# that run it; a change that runs more re-records the ledger
# (tools/coverage.sh DIR JOBS --record).
echo "=== coverage ledger (tests/coverage.ledger)"
tools/coverage.sh build-coverage "$jobs"

# Multi-kernel gate: the sharded-control-plane table of fig6 must keep
# both verdicts (two kernels remove most of the syscall bottleneck;
# four strictly beat one per instance). Runs against the release build;
# the inter-kernel protocol itself is exercised under ASan+UBSan by the
# suites above (test_multikernel, and Invariants.MultiKernelWorkloads
# in the -L slow pass).
echo "=== fig6 multi-kernel verdict"
./build-release/bench/fig6_scalability --multikernel-only

# Striped-data-plane gate: the distfs tables of fig6 must keep their
# verdicts (two stripes beat the single instance on tar and untar;
# four stripes deliver >= 1.6x bandwidth on both; the replicated R=2
# columns bound the write-amplification cost). Simulated cycles are
# sanitizer-independent, so the same verdicts run once against the
# release build and once under ASan+UBSan — the pipelined metadata
# fan-out, the replica mirror segments and the parallel per-stripe DTU
# transfers are exactly where lifetime bugs would hide. The randomized
# striped invariant suites (Invariants.Striped*) ride the sanitized
# -L slow pass above via test_invariants.
echo "=== fig6 distfs striped + replicated verdict (release + sanitized)"
./build-release/bench/fig6_scalability --distfs-only
./build-asan/bench/fig6_scalability --distfs-only

# Pipe-teardown gate, named explicitly so a test relabel cannot drop
# it: the writer destructor's bounded-EOF path must survive a dead
# reader under ASan+UBSan — destructors are where lifetime bugs hide.
echo "=== pipe teardown robustness (sanitized)"
# gtest exits 0 when a filter matches nothing, so assert the test ran.
./build-asan/tests/test_robustness \
    --gtest_filter='Robustness.PipeWriterTeardownSurvivesDeadReader' \
    2>&1 | tee "$obs/pipe_teardown.log"
grep -q '\[  PASSED  \] 1 test' "$obs/pipe_teardown.log"

# Kernel-channel gate, named explicitly so a test relabel cannot drop
# it: the kernel's request channels to services and peer kernels must
# queue beyond their credits and beyond the free slots of the reply
# ring they share, fail a refused send, refuse a malformed Obtain
# answer and fail every pending request of a service that is revoked
# or exits, all under ASan+UBSan. The reply continuations capture
# service and session objects and run after the service's revocation —
# exactly where lifetime bugs hide. The same gate covers the request
# rings' front door: a message too short to hold an opcode, on the
# syscall ring and on an m3fs session, is answered instead of aborting
# the machine. An Activate deferred on a receive gate completes or
# fails with that gate, and configures nothing once its VPE is gone. A
# session Delegate installs its caps at the service's selectors, and a
# refused answer (an empty source, one selector named twice) installs
# none of them; so does a cross-kernel Obtain whose second destination
# selector is in use.
echo "=== kernel channel queue and failure paths (sanitized)"
./build-asan/tests/test_service \
    --gtest_filter='Service.ObtainWithBadCapListFailsCleanly:Service.OversizedRequestToSmallSlotServiceFails:Service.KernelChannelQueuesBeyondCredits:Service.IkChannelQueuesBeyondCredits:Service.DeadServiceFailsInFlightAndQueuedRequests:Service.ExitingServiceFailsItsRequests:Service.TwoServicesShareTheReplyRing:Service.DelegateInstallsCapsAtServiceSelectors:Service.DelegateWithEmptySourceInstallsNothing:Service.DelegateTwiceToOneSelectorInstallsNothing:Service.RemoteObtainToOccupiedSelectorInstallsNothing' \
    2>&1 | tee "$obs/kchannel.log"
grep -q '\[  PASSED  \] 11 tests' "$obs/kchannel.log"
./build-asan/tests/test_kernel \
    --gtest_filter='KernelSyscalls.ShortMessageIsRejected:KernelSyscalls.DeferredActivationCompletesWhenRecvGateActivates:KernelSyscalls.DeferredActivationFailsWhenRecvGateIsRevoked:KernelSyscalls.DeferredActivationOfExitedVpeConfiguresNothing' \
    2>&1 | tee "$obs/kchannel.log"
grep -q '\[  PASSED  \] 4 tests' "$obs/kchannel.log"
./build-asan/tests/test_m3fs --gtest_filter='M3fs.ShortRequestIsRejected' \
    2>&1 | tee "$obs/kchannel.log"
grep -q '\[  PASSED  \] 1 test' "$obs/kchannel.log"

# Migrated-wait gate, named explicitly so a test relabel cannot drop
# it: a parent blocked in VpeWait while the kernel drains its PE must
# get the child's exit code at its new home, with the pinned wall
# cycles and trace digest, under ASan+UBSan. The syscall reply wait
# bails out of the old home's DTU and re-waits at the new one while
# the kernel retargets the deferred reply: exactly where lifetime bugs
# hide.
echo "=== syscall reply wait across a drain (sanitized)"
./build-asan/tests/test_migrate \
    --gtest_filter='Migration.SyscallReplyFollowsDrainedCaller' \
    2>&1 | tee "$obs/migrated_wait.log"
grep -q '\[  PASSED  \] 1 test' "$obs/migrated_wait.log"

# Bytes gate, named explicitly so a test relabel cannot drop it: file
# data moved as Bytes must read back exactly, against a plain byte
# vector and as a whole tar archive, under ASan+UBSan. Bytes slices hold
# shared file bytes across fiber sleeps, after the memory that handed
# them out has cut or dropped its ranges — exactly where lifetime bugs
# hide.
echo "=== file bytes by reference (sanitized)"
./build-asan/tests/test_mem --gtest_filter='Mem.*' 2>&1 | tee "$obs/bytes.log"
grep -q '\[  PASSED  \] 9 tests' "$obs/bytes.log"
./build-asan/tests/test_workloads \
    --gtest_filter='Scalability.TarArchive*:Scalability.TarHostFootprintIsPinned' \
    2>&1 | tee "$obs/bytes.log"
grep -q '\[  PASSED  \] 2 tests' "$obs/bytes.log"

# Rolling-restart gate: drain + kill every compute PE once under a
# fig6-class request workload; the run must finish with byte-identical
# application output, zero lost in-flight work and no aborted
# migration. The bench prints the table and enforces the verdicts.
echo "=== rolling restart drill (live migration)"
./build-release/bench/robustness --rolling-restart

# Stripe-kill gate: replicated distfs (R=2 + spare) must survive the
# kill of each stripe's server PE in turn — every byte reads back
# intact with zero PeerGone surfaced, and the rebuild onto the spare
# restores the full stripe set. Runs against the release build and
# under ASan+UBSan: degraded reads re-route through replica handles and
# abandoned subfiles — exactly where lifetime bugs would hide.
echo "=== stripe kill drill (replicated distfs, release + sanitized)"
./build-release/bench/robustness --stripe-kill
./build-asan/bench/robustness --stripe-kill

echo "=== all checks passed"
