/**
 * @file
 * google-benchmark microbenchmarks of the predictor implementations:
 * lookup/train throughput and table behaviour. These support the
 * paper's implementability argument (Section 3.1: the predictor is
 * accessed in parallel with the L2 tag array, so its access path must
 * be short) and quantify the host-side cost of each policy in the
 * simulator.
 */

#include <benchmark/benchmark.h>

#include "core/factory.hh"
#include "sim/rng.hh"

namespace {

using namespace dsp;

PredictorConfig
configFor(std::size_t entries, IndexingMode mode)
{
    PredictorConfig config;
    config.numNodes = 16;
    config.entries = entries;
    config.indexing = mode;
    return config;
}

void
runPredictBench(benchmark::State &state, PredictorPolicy policy)
{
    auto entries = static_cast<std::size_t>(state.range(0));
    auto predictor = makePredictor(
        policy, configFor(entries, IndexingMode::Macroblock1024));
    Rng rng(42);

    // Pre-train over a hot region so lookups mostly hit.
    for (int i = 0; i < 100000; ++i) {
        Addr addr = rng.uniformInt(1 << 24);
        predictor->trainExternalRequest(
            addr, 0x1000, RequestType::GetExclusive,
            static_cast<NodeId>(rng.uniformInt(16)));
    }

    std::uint64_t fold = 0;
    for (auto _ : state) {
        Addr addr = rng.uniformInt(1 << 24);
        DestinationSet set = predictor->predict(
            addr, 0x1000, RequestType::GetExclusive, 3, 7);
        for (std::uint64_t word : set.words())
            fold ^= word;
    }
    benchmark::DoNotOptimize(fold);
    state.SetItemsProcessed(state.iterations());
}

void
runTrainBench(benchmark::State &state, PredictorPolicy policy)
{
    auto entries = static_cast<std::size_t>(state.range(0));
    auto predictor = makePredictor(
        policy, configFor(entries, IndexingMode::Macroblock1024));
    Rng rng(42);

    for (auto _ : state) {
        Addr addr = rng.uniformInt(1 << 24);
        predictor->trainResponse(
            addr, 0x1000, static_cast<NodeId>(rng.uniformInt(16)),
            true);
    }
    state.SetItemsProcessed(state.iterations());
}

void
predictOwner(benchmark::State &s)
{
    runPredictBench(s, PredictorPolicy::Owner);
}
void
predictBcastIfShared(benchmark::State &s)
{
    runPredictBench(s, PredictorPolicy::BroadcastIfShared);
}
void
predictGroup(benchmark::State &s)
{
    runPredictBench(s, PredictorPolicy::Group);
}
void
predictOwnerGroup(benchmark::State &s)
{
    runPredictBench(s, PredictorPolicy::OwnerGroup);
}
void
predictStickySpatial(benchmark::State &s)
{
    runPredictBench(s, PredictorPolicy::StickySpatial);
}
void
trainOwner(benchmark::State &s)
{
    runTrainBench(s, PredictorPolicy::Owner);
}
void
trainGroup(benchmark::State &s)
{
    runTrainBench(s, PredictorPolicy::Group);
}

} // namespace

BENCHMARK(predictOwner)->Arg(8192)->Arg(0);
BENCHMARK(predictBcastIfShared)->Arg(8192)->Arg(0);
BENCHMARK(predictGroup)->Arg(8192)->Arg(0);
BENCHMARK(predictOwnerGroup)->Arg(8192)->Arg(0);
BENCHMARK(predictStickySpatial)->Arg(8192)->Arg(0);
BENCHMARK(trainOwner)->Arg(8192)->Arg(0);
BENCHMARK(trainGroup)->Arg(8192)->Arg(0);

BENCHMARK_MAIN();
