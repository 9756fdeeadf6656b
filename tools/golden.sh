#!/bin/sh
# Byte-identity gate: hash the stdout (and the trace, metrics and SLO
# files) of every figure and section bench, the robustness drills, the
# open-loop driver, every example and five m3bench runs (two traced tar
# scalability runs, three that pin the machine knobs), and compare
# the hashes with the committed manifest tests/golden.sha256. Simulated
# results are deterministic and sanitizer-independent, so the same
# manifest holds for every build configuration. stderr is not hashed
# (sanitizer runtimes print their own notes there).
#
# Usage: tools/golden.sh BUILD_DIR            check against the manifest
#        tools/golden.sh BUILD_DIR --record   rewrite the manifest
#
# On a mismatch it names every artifact whose hash moved and exits 1.
# An intended change re-records the manifest and names the moved
# artifacts, and why they moved, in its change notes.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
manifest="$root/tests/golden.sha256"
[ $# -ge 1 ] || { echo "usage: $0 BUILD_DIR [--record]" >&2; exit 2; }
build=$(cd "$1" && pwd)
record=${2:-}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0

# run NAME CMD...: run CMD with its stdout in $out/NAME.
run() {
    name=$1
    shift
    if ! "$@" > "$out/$name" 2> "$out/$name.stderr"; then
        echo "golden: $name exited nonzero" >&2
        cat "$out/$name.stderr" >&2
        status=1
    fi
    rm -f "$out/$name.stderr"
}

for b in fig3_syscall fig3_fileops fig4_fragmentation fig5_apps \
         fig6_scalability fig7_accelerator sec34_utilization sec52_arm \
         ablations; do
    run "bench.$b" "$build/bench/$b"
done
run bench.fig6_scalability.multikernel \
    "$build/bench/fig6_scalability" --multikernel-only
run bench.fig6_scalability.distfs \
    "$build/bench/fig6_scalability" --distfs-only
run bench.robustness "$build/bench/robustness" \
    --metrics="$out/bench.robustness.metrics"
run bench.robustness.rolling_restart \
    "$build/bench/robustness" --rolling-restart \
    --metrics="$out/bench.robustness.rolling_restart.metrics"
run bench.robustness.stripe_kill "$build/bench/robustness" --stripe-kill \
    --metrics="$out/bench.robustness.stripe_kill.metrics"
run bench.openloop "$build/bench/openloop" --clients 6 --requests 30 \
    --kernels 2 --slo="$out/bench.openloop.slo" \
    --trace="$out/bench.openloop.trace" \
    --metrics="$out/bench.openloop.metrics"
for e in quickstart fileio pipeline capabilities taskfarm fft_pipeline; do
    run "example.$e" "$build/examples/$e"
done
run m3bench.tar240 "$build/tools/m3bench" tar --instances 240 \
    --kernels 4 --fs-instances 4 --trace="$out/m3bench.tar240.trace"
run m3bench.tar16 "$build/tools/m3bench" tar --instances 16 \
    --trace="$out/m3bench.tar16.trace" \
    --metrics="$out/m3bench.tar16.metrics"
# The machine knobs must reach every runner: two kernels and a
# fragmented image on a micro run, two m3fs instances and a larger
# streaming buffer on a trace run, a fragmented scalability image.
run m3bench.read.k2.frag4 "$build/tools/m3bench" read --kernels 2 --frag 4
run m3bench.tar.fs2.chunk16k "$build/tools/m3bench" tar --fs-instances 2 \
    --io-chunk 16384
run m3bench.tar4.frag4 "$build/tools/m3bench" tar --instances 4 --frag 4

[ "$status" -eq 0 ] || exit 1

sums=$(cd "$out" && sha256sum -- *)
if [ "$record" = "--record" ]; then
    printf '%s\n' "$sums" > "$manifest"
    echo "golden: recorded $(wc -l < "$manifest") artifacts in $manifest"
    exit 0
fi

moved=$(printf '%s\n' "$sums" | diff "$manifest" - |
        sed -n 's/^[<>] [0-9a-f]*  //p' | sort -u || true)
if [ -n "$moved" ]; then
    echo "golden: these artifacts differ from $manifest:" >&2
    echo "$moved" | sed 's/^/  /' >&2
    exit 1
fi
echo "golden: $(wc -l < "$manifest") artifacts match $manifest"
