#!/usr/bin/env bash
# Self-test of the benchmark: every workload at --smoke sizes, untraced
# and traced. Checks that every result line carries every metric
# BENCHMARK.json names, finite and with its unit; that the results
# file lists the per-layer metrics that apply to each workload, every
# one of them on at least one workload; that trace.json parses with
# every child span inside its parent; and that the correctness gate
# works: a run given a deliberately wrong expected fingerprint must
# fail every rep.
#
#   benchmark/selftest.sh
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"
out=${CARGO_TARGET_DIR:-build-bench}/selftest
rm -rf "$out"

"$here/run.sh" --smoke --reps 2 --out "$out/untraced/results.json" \
    >/dev/null
"$here/run.sh" --smoke --reps 2 --trace 1 \
    --out "$out/traced/results.json" >/dev/null
# The guard itself: run.sh's result must say the reps failed.
"$here/run.sh" --smoke --reps 2 --workload mcast16-oltp \
    --expect-fingerprint 0000000000000000 \
    --out "$out/guard/results.json" >/dev/null

python3 "$here/report.py" selftest --benchmark "$root/BENCHMARK.json" \
    --untraced "$out/untraced/results.json" \
    --traced "$out/traced/results.json" \
    --trace "$out/traced/trace.json" \
    --guard "$out/guard/results.json"
