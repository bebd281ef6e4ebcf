#!/usr/bin/env bash
#
# Tier-1 verification plus the hot-path perf bench. Run from anywhere;
# everything happens in the repo root. This is what CI runs, and what
# every PR should pass locally:
#
#   1. configure + build (Release, warnings-as-errors for src/)
#   2. ctest unit suite
#   3. bench_perf_hotpath with a small --measure, checked against the
#      committed BENCH_hotpath.json: a >15% events/sec regression on
#      any config fails the run. Pass --allow-perf-regression (or set
#      ALLOW_PERF_REGRESSION=1) for intentional perf changes.
#   4. sharded-kernel determinism cross-check: the Figure-7 multicast
#      config is run with --threads 1 and --threads 4 and every
#      deterministic figure statistic must match bit-for-bit -- first
#      on the paper's 16-node machine, then on a 64-node hierarchical
#      4-hub machine (the configs/fig6_scaling.conf shape).
#   5. sweep-driver crash-tolerance smoke (scripts/sweep_smoke.sh):
#      a seeded fault-injection sweep must terminate with the expected
#      failed rows, and resuming it must produce an aggregate table
#      byte-identical to a fault-free sweep.
#   6. coherence-oracle legs: all four bench configs shadowed by the
#      runtime oracle must stay violation-free; an injected protocol
#      mutation must die with exit 77 and a repro bundle whose bounded
#      replay (--stop-at) reproduces the byte-identical violation
#      line. The perf-guarded runs above stay oracle-off, so the
#      events/sec bar keeps holding the oracle's zero-overhead claim.
#   7. docs hygiene (scripts/docs_check.sh): markdown links resolve
#      and every src/ subsystem appears in the docs index.
#
# Bench JSONs are validated (python3, else jq, else a warning) before
# any regression grep reads them, so a truncated or interrupted file
# fails loudly instead of feeding the guards nonsense.
#
# BENCH_hotpath.json is only rewritten at the very end, after *every*
# guard has passed (or been explicitly waived), so a failed run can
# never clobber the committed baseline with the numbers that failed.
#
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW_PERF_REGRESSION="${ALLOW_PERF_REGRESSION:-0}"
for arg in "$@"; do
    case "$arg" in
      --allow-perf-regression) ALLOW_PERF_REGRESSION=1 ;;
      *) echo "check.sh: unknown option '$arg'" >&2; exit 2 ;;
    esac
done

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j"$JOBS"

# --no-tests=error: a missing GTest only warns at configure time; an
# empty test set must fail loudly here, not report green.
ctest --test-dir build --output-on-failure --no-tests=error -j"$JOBS"

# Walk-counter invariants of the staged access pipeline, asserted
# explicitly (they also run inside ctest; this names them in the CI
# log): the L1-hit path touches zero simulated-L2 words, a repeat hit
# through the L0 filter walks neither plane, and an absorbed repeat
# touches zero packed-array words at all.
# Guard the guard: gtest exits 0 when a filter matches zero tests, so
# require the exact test count or fail loudly.
WALK_OUT=$(./build/test_access_pipeline --gtest_filter='AccessPipeline.L1HitPathTouchesZeroL2Words:AccessPipeline.RepeatHitWalksNothing:AccessPipeline.AbsorbedRepeatTouchesZeroPackedWords')
if ! grep -q "3 tests from 1 test suite ran" <<< "$WALK_OUT"; then
    echo "check.sh: walk-counter invariant tests did not run (filter" \
         "out of sync with test_access_pipeline?)" >&2
    exit 1
fi
echo "walk-counter invariants: L1-hit/L0/absorbed paths OK"

# Reference-generation exactness, named in the log the same way: the
# guide-table geometric draw, the select-based alias pick and the
# counted region pick each equal their plain scan value for value, and
# the first 100k references of every processor hash to constants
# recorded with the scans (oltp and barnes at 16 nodes, oltp at 256).
GEO_OUT=$(./build/test_rng --gtest_filter='Means/GeometricExact.*')
if ! grep -q "8 tests from 1 test suite ran" <<< "$GEO_OUT"; then
    echo "check.sh: geometric exactness tests did not run (filter" \
         "out of sync with test_rng?)" >&2
    exit 1
fi
GEN_OUT=$(./build/test_workload --gtest_filter='Zipf.AliasPickEqualsBranchingReference:Workload.RegionPickEqualsFirstAboveScan:Workload.GoldenStream*')
if ! grep -q "5 tests from 2 test suites ran" <<< "$GEN_OUT"; then
    echo "check.sh: generation exactness/golden-stream tests did not" \
         "run (filter out of sync with test_workload?)" >&2
    exit 1
fi
echo "reference generation: exact draws, golden streams OK"

# Coherence-oracle legs (see header item 6). Quick runs: the oracle's
# value here is the invariants, not the throughput.
ORACLE_JSON=build/BENCH_hotpath_oracle.json
./build/bench_perf_hotpath --measure 20000 --warmup 5000 --oracle \
    --out "$ORACLE_JSON" > /dev/null
echo "oracle: all 4 configs violation-free"

MUT_LOG=build/oracle_mutation.log
rc=0
./build/bench_perf_hotpath --measure 20000 --warmup 5000 \
    --mutate drop-inval --config multicast-owner-group \
    > /dev/null 2> "$MUT_LOG" || rc=$?
if [[ "$rc" -ne 77 ]]; then
    echo "check.sh: mutated run exited $rc, expected 77 (violation)" >&2
    cat "$MUT_LOG" >&2
    exit 1
fi
VIOLATION=$(grep -m1 '^DSP-VIOLATION ' "$MUT_LOG" || true)
STOP_AT=$(grep -m1 -o '"stop_at":[0-9]*' "$MUT_LOG" | cut -d: -f2)
if [[ -z "$VIOLATION" || -z "$STOP_AT" ]]; then
    echo "check.sh: mutated run printed no violation / repro bundle" >&2
    cat "$MUT_LOG" >&2
    exit 1
fi
REPLAY_LOG=build/oracle_replay.log
rc=0
./build/bench_perf_hotpath --measure 20000 --warmup 5000 \
    --mutate drop-inval --stop-at "$STOP_AT" \
    --config multicast-owner-group > /dev/null 2> "$REPLAY_LOG" \
    || rc=$?
if [[ "$rc" -ne 77 ]]; then
    echo "check.sh: bounded replay exited $rc, expected 77" >&2
    cat "$REPLAY_LOG" >&2
    exit 1
fi
REPLAYED=$(grep -m1 '^DSP-VIOLATION ' "$REPLAY_LOG" || true)
if [[ "$VIOLATION" != "$REPLAYED" ]]; then
    echo "check.sh: bounded replay diverged from the full run:" >&2
    echo "  full run: $VIOLATION" >&2
    echo "  replay:   $REPLAYED" >&2
    exit 1
fi
echo "oracle: drop-inval caught (exit 77); bounded replay identical"

# Small measured run: enough events for a stable events/sec figure,
# quick enough for CI (a few seconds). --repeat 3 takes the best of
# three per config, cutting scheduler noise out of the regression
# guard (each repetition is also checked to be bit-identical by the
# bench itself).
BASELINE=BENCH_hotpath.json
FRESH=build/BENCH_hotpath_fresh.json
./build/bench_perf_hotpath --measure 200000 --warmup 20000 \
    --repeat 3 --out "$FRESH"

# Guard the guards: everything below greps the bench JSON as raw
# text, so a malformed, truncated, or interrupted file could feed the
# regression checks nonsense that happens to pass. Require the file
# to parse and every guarded field to exist and be finite first.
validate_bench_json() {
    local file="$1"
    if command -v python3 > /dev/null 2>&1; then
        python3 - "$file" <<'PYEOF'
import json, math, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("interrupted"):
    sys.exit("bench JSON is marked interrupted (partial results)")
configs = doc.get("configs")
if not configs:
    sys.exit("bench JSON has no configs")
for c in configs:
    if c.get("partial"):
        sys.exit("config %r is marked partial" % c.get("name"))
    for field in ("events_per_sec", "barriers_per_window",
                  "l0_hit_rate", "events", "misses",
                  "calendar_ops_per_miss"):
        v = c.get(field)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            sys.exit("config %r field %r is %r -- missing or not a "
                     "finite number" % (c.get("name"), field, v))
PYEOF
    elif command -v jq > /dev/null 2>&1; then
        jq -e '
            ((.interrupted // false) | not)
            and (.configs | length > 0)
            and ([.configs[] | (.partial // false) | not] | all)
            and ([.configs[] | .events_per_sec, .barriers_per_window,
                  .l0_hit_rate, .events, .misses,
                  .calendar_ops_per_miss]
                 | all(type == "number" and (isinfinite | not)
                       and (isnan | not)))' "$file" > /dev/null
    else
        echo "check.sh: warning: neither python3 nor jq found --" \
             "skipping JSON validation of $file" >&2
        return 0
    fi || {
        echo "check.sh: $file failed JSON validation -- refusing to" \
             "run regression greps over it" >&2
        exit 1
    }
}
validate_bench_json "$FRESH"

# Single-barrier window invariant: the parallel config must cross the
# barrier about once per window (the old kernel crossed twice; quiet
# -window batching may dip slightly below 1.0).
BPW=$(awk -F: '
    /"name"/   { gsub(/[ ",]/, "", $2); name = $2 }
    /"barriers_per_window"/ && name == "multicast-owner-group-par" {
        gsub(/[ ,]/, "", $2); print $2; exit
    }' "$FRESH")
if ! awk -v b="$BPW" 'BEGIN { exit !(b > 0.5 && b <= 1.05) }'; then
    echo "check.sh: barriers_per_window=$BPW on the par config --" \
         "expected ~1.0 (single-crossing windows)" >&2
    exit 1
fi
echo "barriers_per_window: $BPW (par config)"

# L0 block-result filter sanity: every config must report a non-zero
# hit rate (the filter silently disabling itself would erase the
# repeat-hit fast path without failing anything else).
L0MIN=$(awk -F: '
    /"l0_hit_rate"/ { gsub(/[ ,]/, "", $2); if (min == "" || $2 < min) min = $2 }
    END { print (min == "" ? "missing" : min) }' "$FRESH")
if ! awk -v r="$L0MIN" 'BEGIN { exit !(r > 0 && r < 1) }'; then
    echo "check.sh: l0_hit_rate=$L0MIN -- the L0 filter is not" \
         "filtering (expected a rate in (0,1) on every config)" >&2
    exit 1
fi
echo "l0_hit_rate: >= $L0MIN on all configs"

# Per-config events/sec guard. Bench noise on a busy machine is well
# under the 15% bar; a real regression from a hot-path change is not.
# With --allow-perf-regression the comparison still prints, but only
# informationally (intentional perf changes, non-comparable hardware).
extract_evps() {
    awk -F: '
        /"name"/   { gsub(/[ ",]/, "", $2); name = $2 }
        /"events_per_sec"/ && name != "" {
            gsub(/[ ,]/, "", $2); print name, $2; name = ""
        }' "$1"
}
if [[ -f "$BASELINE" ]]; then
    if ! { extract_evps "$BASELINE"; echo "--"; extract_evps "$FRESH"; } \
        | awk -v \
        enforce="$([[ "$ALLOW_PERF_REGRESSION" == "1" ]] || echo 1)" '
        $1 == "--"  { fresh_section = 1; next }
        !fresh_section { base[$1] = $2; next }
        { fresh[$1] = $2 }
        END {
            status = 0
            for (name in fresh) {
                if (!(name in base) || base[name] <= 0) continue
                ratio = fresh[name] / base[name]
                printf "perf guard: %-32s %12.0f -> %12.0f ev/s (%.2fx)\n", \
                       name, base[name], fresh[name], ratio
                if (ratio < 0.85 && enforce == "1") {
                    printf "perf guard: FAIL %s regressed >15%%\n", name
                    status = 1
                }
            }
            exit status
        }'; then
        echo "check.sh: events/sec regression vs committed" \
             "BENCH_hotpath.json (rerun with --allow-perf-regression" \
             "if intentional)" >&2
        exit 1
    fi
fi

# Sharded-kernel determinism cross-check: a K-shard run must emit
# bit-identical figure statistics to the single-threaded run -- here
# with the two placement extremes (K=1, and K=4 with a dedicated hub
# shard), so both the single-barrier windows and the hub-shard
# partition are covered. The calendar-op count rides along: every
# event costs one insert and one pop on whichever shard holds it, so
# it is partition-independent too. Wall clock and events/sec may
# differ; everything else may not.
DET1=build/BENCH_det_t1.json
DET4=build/BENCH_det_t4.json
./build/bench_perf_hotpath --config multicast-owner-group-par \
    --measure 100000 --warmup 10000 --threads 1 --out "$DET1" \
    > /dev/null
./build/bench_perf_hotpath --config multicast-owner-group-par \
    --measure 100000 --warmup 10000 --threads 4 --hub-shard \
    --out "$DET4" > /dev/null
validate_bench_json "$DET1"
validate_bench_json "$DET4"
extract_det() {
    awk -F: '
        /"events"|"misses"|"retries"|"traffic_bytes"|"avg_miss_latency_ns"|"sim_runtime_ms"|"l0_hit_rate"|"touched_words_per_access"|"calendar_ops_per_miss"/ {
            gsub(/[ ",]/, "", $1); gsub(/[ ,]/, "", $2)
            print $1, $2
        }' "$1"
}
# Guard the guard: if the JSON field names ever drift, the extraction
# would compare two empty streams and "pass" while checking nothing.
DET_FIELDS=9
for f in "$DET1" "$DET4"; do
    n="$(extract_det "$f" | wc -l)"
    if [[ "$n" -ne "$DET_FIELDS" ]]; then
        echo "check.sh: determinism extraction found $n/$DET_FIELDS" \
             "stat fields in $f -- extractor out of sync with the" \
             "bench JSON" >&2
        exit 1
    fi
done
if ! diff <(extract_det "$DET1") <(extract_det "$DET4"); then
    echo "check.sh: DETERMINISM FAILURE -- --threads 4 diverged from" \
         "--threads 1 on multicast-owner-group-par (see diff above)" >&2
    exit 1
fi
echo "determinism: --threads 1 == --threads 4 on all figure stats"

# 64-node scaling smoke: the same determinism contract on a larger
# hierarchical machine -- 64 nodes in 4 clusters of 16 behind
# switches, 4 address-interleaved ordering hubs (the committed
# configs/fig6_scaling.conf shape, docs/machine_topology.md). This
# exercises the parameterized topology, multi-hub ordering, and the
# 64-node txn-id/oracle-buffer regressions end to end in CI without
# paying for a full scaling sweep.
DET64_1=build/BENCH_det64_t1.json
DET64_4=build/BENCH_det64_t4.json
./build/bench_perf_hotpath --config multicast-owner-group-par \
    --nodes 64 --hubs 4 --cluster 16 --switch-ns 15 \
    --measure 20000 --warmup 5000 --threads 1 --out "$DET64_1" \
    > /dev/null
./build/bench_perf_hotpath --config multicast-owner-group-par \
    --nodes 64 --hubs 4 --cluster 16 --switch-ns 15 \
    --measure 20000 --warmup 5000 --threads 4 --hub-shard \
    --out "$DET64_4" > /dev/null
validate_bench_json "$DET64_1"
validate_bench_json "$DET64_4"
for f in "$DET64_1" "$DET64_4"; do
    n="$(extract_det "$f" | wc -l)"
    if [[ "$n" -ne "$DET_FIELDS" ]]; then
        echo "check.sh: 64-node determinism extraction found" \
             "$n/$DET_FIELDS stat fields in $f -- extractor out of" \
             "sync with the bench JSON" >&2
        exit 1
    fi
done
if ! diff <(extract_det "$DET64_1") <(extract_det "$DET64_4"); then
    echo "check.sh: DETERMINISM FAILURE -- 64-node hierarchical" \
         "--threads 4 diverged from --threads 1 (see diff above)" >&2
    exit 1
fi
echo "determinism: 64-node 4-hub hierarchical machine," \
     "--threads 1 == --threads 4"

# Refuse to install a fresh baseline that lost configs (e.g. a bench
# crash after a partial write): the perf guard would silently stop
# guarding whatever is missing.
for config in snooping multicast-owner-group \
              multicast-owner-group-detailed multicast-owner-group-par
do
    if ! grep -q "\"name\": \"$config\"" "$FRESH"; then
        echo "check.sh: fresh bench JSON is missing config" \
             "'$config'; not touching $BASELINE" >&2
        exit 1
    fi
done

# Sweep-driver crash-tolerance smoke: seeded fault injection must
# fail the expected jobs, and a resumed sweep must reproduce the
# fault-free aggregate table byte-for-byte.
SWEEP_BIN=./build/bench_sweep scripts/sweep_smoke.sh

# Checkpoint/restore smoke (scripts/checkpoint_smoke.sh): a run
# SIGKILLed mid-flight resumes from its newest snapshot with
# byte-identical figure stats; a violation replays from the repro
# bundle's nearest checkpoint re-raising the identical DSP-VIOLATION
# line; the committed configs/nightly.conf sweep survives kill+resume
# with a byte-identical aggregate table.
scripts/checkpoint_smoke.sh

# The checkpoint tests again under AddressSanitizer: restore rebuilds
# every in-flight event through the component pools, exactly where a
# stale pointer or double-release would hide. A dedicated build tree
# keeps the instrumented objects out of the Release build. Skipped
# (with a warning) only if the toolchain lacks libasan.
if echo 'int main(){}' | g++ -fsanitize=address -x c++ - \
        -o build/asan_probe 2> /dev/null; then
    rm -f build/asan_probe
    cmake -B build-asan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=address" > /dev/null
    cmake --build build-asan --target test_checkpoint -j"$JOBS"
    ASAN_OUT=$(./build-asan/test_checkpoint \
        --gtest_filter='CheckpointFile.*:Checkpoint.FlatRestoreBitEquivalentAcrossShardCounts')
    if ! grep -q "5 tests from 2 test suites ran" <<< "$ASAN_OUT"; then
        echo "check.sh: ASan checkpoint tests did not run (filter out" \
             "of sync with test_checkpoint?)" >&2
        exit 1
    fi
    echo "checkpoint tests clean under AddressSanitizer"
else
    echo "check.sh: warning: g++ lacks -fsanitize=address --" \
         "skipping the ASan checkpoint leg" >&2
fi

# Docs hygiene: markdown links resolve, and every src/ subsystem is
# mentioned in the docs index.
scripts/docs_check.sh

# Every guard passed (or was explicitly waived): only now does the
# fresh run become the committed perf trajectory.
cp "$FRESH" "$BASELINE"

echo "check.sh: build + tests + hotpath bench + determinism +" \
     "sweep-resume OK"
