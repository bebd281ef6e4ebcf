#!/usr/bin/env bash
# The benchmark of record (see benchmark/README.md). Builds the runner
# from the sources of the checkout it sits in, runs each workload in
# its own process, and merges the per-workload results.
#
#   benchmark/run.sh [--workload W]... [--seed S] [--reps N]
#                    [--trace [0|1]] [--smoke] [--out FILE]
#                    [--expect-fingerprint HEX] [--seconds T]
#
# Without --workload every workload runs. The run length is run_seconds
# in BENCHMARK.json, compiled into the runner; --seconds is accepted
# only with that value. The runner's last stdout line is the result
# JSON; with several workloads a combined line follows. Build output
# goes to stderr. The build directory is $CARGO_TARGET_DIR if set, else
# build-bench; results land in <build>/results unless --out names the
# merged results file (trace.json is written beside it). The git
# revision recorded in the results comes from git, or from
# $BENCH_GIT_REV when the tree is not a git checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

workloads=()
seed=1
seconds=""
reps=""
trace=0
smoke=""
out=""
expect=""
while [ $# -gt 0 ]; do
    case "$1" in
      --workload) workloads+=("$2"); shift 2 ;;
      --seed) seed=$2; shift 2 ;;
      --seconds) seconds=$2; shift 2 ;;
      --reps) reps=$2; shift 2 ;;
      --trace)
        if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
            trace=$2; shift 2
        else
            trace=1; shift
        fi ;;
      --smoke) smoke=1; shift ;;
      --out) out=$2; shift 2 ;;
      --expect-fingerprint) expect=$2; shift 2 ;;
      -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
      *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    esac
done

if [ ! -f "$root/src/system/system.hh" ] || [ ! -f "$root/CMakeLists.txt" ]; then
    echo "run.sh: simulator sources not found in $root" >&2
    exit 2
fi

cd "$root"
if [ -n "$seconds" ]; then
    run_seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
    if [ "$seconds" != "$run_seconds" ]; then
        echo "run.sh: --seconds $seconds: the run length is fixed at" \
             "run_seconds = $run_seconds (BENCHMARK.json)" >&2
        exit 2
    fi
fi

build=${CARGO_TARGET_DIR:-build-bench}
if [ ! -f "$build/CMakeCache.txt" ]; then
    generator=()
    command -v ninja >/dev/null && generator=(-G Ninja)
    cmake -S benchmark -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target dsp_bench -j "$(nproc)" >&2

if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <("$build/dsp_bench" --list)
fi
[ -n "$out" ] || out="$build/results/results.json"
parts="$(dirname "$out")/parts"
mkdir -p "$parts"

rev=${BENCH_GIT_REV:-unknown}
if [ -e "$root/.git" ] && command -v git >/dev/null; then
    rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

args=(--seed "$seed" --trace "$trace" --git-rev "$rev")
[ -n "$reps" ] && args+=(--reps "$reps")
[ -n "$smoke" ] && args+=(--smoke)
[ -n "$expect" ] && args+=(--expect-fingerprint "$expect")

status=0
files=()
for w in "${workloads[@]}"; do
    part="$parts/$w.json"
    rm -f "$part" "$parts/$w.trace.json"
    if ! "$build/dsp_bench" --workload "$w" "${args[@]}" --out "$part" \
            --trace-out "$parts/$w.trace.json"; then
        echo "run.sh: workload $w crashed or exited non-zero" >&2
        status=1
        if [ ${#workloads[@]} -eq 1 ]; then
            echo '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
            exit 1
        fi
        continue
    fi
    files+=("$part")
done

if command -v python3 >/dev/null; then
    python3 "$here/report.py" merge --out "$out" \
        --expected "${workloads[*]}" \
        --reference "$here/reference.json" "${files[@]}"
else
    echo "run.sh: python3 not found; per-workload results are in $parts" >&2
fi
exit $status
