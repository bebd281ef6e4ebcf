#!/usr/bin/env bash
# A/B harness: measure two commits on this host with identical benchmark
# code, interleaved, and apply the benchmark's comparison rules.
#
#   benchmark/ab.sh BASE HEAD
#
# Each commit's tree is exported (git archive) to build-ab/base and
# build-ab/head, and this working tree's benchmark/ directory and
# BENCHMARK.json replace the exported ones on both sides, so both sides
# run the same benchmark code for the same run length. Every workload
# then runs 10 pairs, alternating which side goes first, on held-out
# seed 11 (seeds 1-10 were used while the benchmark was written). A
# change is compared on every workload, so none can be left out. The
# table gives each side's median and quartiles, the pairs the head won,
# whether the figure-statistics fingerprints agree, and a verdict:
# "gain" needs >= 9/10 wins and a median gap wider than the base's
# interquartile range; a metric whose spread exceeds its bound in
# BENCHMARK.json is "unresolved"; a median worse than the base's by
# more than the bound is a REGRESSION (exit status 1).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
seed=11
pairs=10

if [ $# -ne 2 ]; then
    sed -n '2,18p' "$0" >&2
    exit 2
fi
base=$1
head=$2

cd "$root"
ab=build-ab
declare -A rev
for side in base head; do
    commit=$base
    [ "$side" = head ] && commit=$head
    rev[$side]=$(git rev-parse --verify "$commit^{commit}")
    dir=$ab/$side
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "${rev[$side]}" | tar -x -C "$dir"
    rm -rf "$dir/benchmark"
    cp -r "$here" "$dir/benchmark"
    cp "$root/BENCHMARK.json" "$dir/BENCHMARK.json"
    generator=()
    command -v ninja >/dev/null && generator=(-G Ninja)
    cmake -S "$dir/benchmark" -B "$dir/build-bench" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
    cmake --build "$dir/build-bench" --target dsp_bench -j "$(nproc)" >&2
done

mapfile -t workloads < <("$ab/head/build-bench/dsp_bench" --list)
rm -rf "$ab/runs"
for w in "${workloads[@]}"; do
    mkdir -p "$ab/runs/$w"
    for ((i = 0; i < pairs; i++)); do
        order=(base head)
        [ $((i % 2)) -eq 1 ] && order=(head base)
        for side in "${order[@]}"; do
            echo "ab.sh: $w pair $i $side" >&2
            "$ab/$side/build-bench/dsp_bench" --workload "$w" \
                --seed "$seed" --trace 0 --git-rev "${rev[$side]}" \
                --out "$ab/runs/$w/$side-$i.json" >/dev/null
        done
    done
done

echo "base ${rev[base]}  head ${rev[head]}  seed $seed  pairs $pairs"
python3 "$here/report.py" ab --benchmark "$root/BENCHMARK.json" \
    --runs "$ab/runs" --json "$ab/ab.json"
