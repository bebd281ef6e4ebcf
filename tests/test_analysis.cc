/**
 * @file
 * Tests for the workload characterization (Table 2 / Figures 2-4
 * math) and the trace-driven predictor evaluator (Figures 5-6).
 */

#include <gtest/gtest.h>

#include "analysis/characterization.hh"
#include "analysis/predictor_eval.hh"
#include "analysis/trace_collector.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

TraceRecord
record(Addr addr, Addr pc, NodeId req, RequestType type,
       std::uint32_t responder)
{
    TraceRecord r;
    r.addr = addr;
    r.pc = pc;
    r.requester = req;
    r.type = static_cast<std::uint8_t>(type);
    r.responder = responder;
    return r;
}

/** The set whose word 0 is `low` (bit i <=> node i). */
DestinationSet
lowWord(std::uint64_t low)
{
    return DestinationSet::fromWords(DestinationSet::Words{low});
}

Trace
syntheticTrace()
{
    Trace trace;
    trace.workloadName = "synthetic";
    trace.numNodes = kNodes;
    trace.totalInstructions = 10000;
    trace.warmupInstructions = 0;
    // 4 misses: one memory read, one c2c read, one upgrade with a
    // sharer, one widely-shared write.
    trace.append(record(0x0000, 0x10, 0, RequestType::GetShared,
                        TraceRecord::memoryResponder),
                 DestinationSet{});
    trace.append(record(0x1000, 0x14, 1, RequestType::GetShared, 2),
                 DestinationSet::of(2));
    trace.append(record(0x2000, 0x18, 3, RequestType::GetExclusive, 3),
                 DestinationSet::of(4));
    trace.append(record(0x3000, 0x1c, 5, RequestType::GetExclusive, 6),
                 lowWord(0b11011000000ull));  // nodes 6,7,9,10
    return trace;
}

TEST(Characterization, Table2Math)
{
    Trace trace = syntheticTrace();
    WorkloadCharacterization chars(kNodes);
    chars.beginMeasurement(0);
    chars.absorbTrace(trace);

    auto row = chars.table2(trace.totalInstructions);
    EXPECT_EQ(row.totalMisses, 4u);
    EXPECT_EQ(row.staticMissPcs, 4u);
    EXPECT_DOUBLE_EQ(row.missesPer1kInstr, 0.4);
    // 3 of 4 misses have a non-empty required set.
    EXPECT_DOUBLE_EQ(row.directoryIndirectionPct, 75.0);
    // 4 distinct blocks and 4 distinct macroblocks touched.
    EXPECT_EQ(row.touched64Bytes, 4 * blockBytes);
    EXPECT_EQ(row.touched1024Bytes, 4 * macroblockBytes);
}

TEST(Characterization, Figure2Bins)
{
    Trace trace = syntheticTrace();
    WorkloadCharacterization chars(kNodes);
    chars.beginMeasurement(0);
    chars.absorbTrace(trace);

    const auto &reads = chars.sharingHistogramReads();
    EXPECT_EQ(reads.total(), 2u);
    EXPECT_EQ(reads.bucket(0), 1u);  // memory read
    EXPECT_EQ(reads.bucket(1), 1u);  // c2c read

    const auto &writes = chars.sharingHistogramWrites();
    EXPECT_EQ(writes.total(), 2u);
    EXPECT_EQ(writes.bucket(1), 1u);  // upgrade, one sharer
    EXPECT_EQ(writes.bucket(3), 1u);  // 4 observers -> "3+"
}

TEST(Characterization, WarmupRecordsExcludedFromRates)
{
    Trace trace = syntheticTrace();
    trace.warmupRecords = 2;
    trace.warmupInstructions = 5000;
    WorkloadCharacterization chars(kNodes);
    chars.beginMeasurement(trace.warmupInstructions);
    chars.absorbTrace(trace);

    auto row = chars.table2(trace.totalInstructions);
    EXPECT_EQ(row.totalMisses, 2u);
    // Footprint still covers warmup blocks.
    EXPECT_EQ(row.touched64Bytes, 4 * blockBytes);
}

TEST(Characterization, Figure3TouchedByAndWeighting)
{
    WorkloadCharacterization chars(kNodes);
    chars.beginMeasurement(0);
    // Block 0x0 touched by nodes 0,1,2 (3 misses); block 0x1000 by
    // node 3 alone (1 miss).
    chars.onMissRecord(record(0x0000, 0x10, 0, RequestType::GetShared,
                              TraceRecord::memoryResponder),
                       DestinationSet{}, true);
    chars.onMissRecord(record(0x0000, 0x10, 1, RequestType::GetShared,
                              0),
                       lowWord(1), true);
    chars.onMissRecord(record(0x0000, 0x10, 2, RequestType::GetShared,
                              0),
                       lowWord(1), true);
    chars.onMissRecord(record(0x1000, 0x14, 3, RequestType::GetShared,
                              TraceRecord::memoryResponder),
                       DestinationSet{}, true);

    auto blocks = chars.blocksTouchedBy();
    EXPECT_EQ(blocks.bucket(1), 1u);
    EXPECT_EQ(blocks.bucket(3), 1u);

    auto weighted = chars.missesToBlocksTouchedBy();
    EXPECT_EQ(weighted.bucket(3), 3u);
    EXPECT_EQ(weighted.bucket(1), 1u);
}

TEST(Characterization, TouchersAboveNode63AreDistinct)
{
    // At 256 nodes, nodes 6 and 70 touch the same block: two
    // touchers, whether seen as references or as miss requesters.
    WorkloadCharacterization chars(256);
    chars.beginMeasurement(0);
    MemRef ref;
    ref.addr = 0x8000;
    chars.onReference(6, ref);
    chars.onReference(70, ref);
    chars.onMissRecord(record(0x9000, 0x10, 6, RequestType::GetShared,
                              TraceRecord::memoryResponder),
                       DestinationSet{}, true);
    chars.onMissRecord(record(0x9000, 0x10, 70, RequestType::GetShared,
                              TraceRecord::memoryResponder),
                       DestinationSet{}, true);
    chars.onMissRecord(record(0xa000, 0x10, 255, RequestType::GetShared,
                              TraceRecord::memoryResponder),
                       DestinationSet{}, true);

    auto blocks = chars.blocksTouchedBy();
    EXPECT_EQ(blocks.bucket(2), 2u);
    EXPECT_EQ(blocks.bucket(1), 1u);
    auto weighted = chars.missesToBlocksTouchedBy();
    EXPECT_EQ(weighted.bucket(2), 2u);
    EXPECT_EQ(weighted.bucket(1), 1u);
}

TEST(Characterization, Figure4CoverageCountsOnlyC2c)
{
    Trace trace = syntheticTrace();
    WorkloadCharacterization chars(kNodes);
    chars.beginMeasurement(0);
    chars.absorbTrace(trace);

    // Records 2 and 4 are cache-to-cache (cache responder != req).
    EXPECT_EQ(chars.cacheToCacheMisses(), 2u);
    auto coverage = chars.blockCoverage({1, 2, 10});
    EXPECT_DOUBLE_EQ(coverage[2], 100.0);
    EXPECT_GE(coverage[0], 50.0);
}

TEST(Characterization, AbsorbEquivalentToLiveObservation)
{
    auto workload = makeWorkload("oltp", kNodes, 7, 0.05);
    TraceCollector collector(*workload);
    WorkloadCharacterization live(kNodes);
    live.attach(collector);
    live.beginMeasurement(0);
    Trace trace = collector.collect(0, 1500);

    WorkloadCharacterization replay(kNodes);
    replay.beginMeasurement(0);
    replay.absorbTrace(trace);

    auto a = live.table2(trace.totalInstructions);
    auto b = replay.table2(trace.totalInstructions);
    EXPECT_EQ(a.totalMisses, b.totalMisses);
    EXPECT_EQ(a.staticMissPcs, b.staticMissPcs);
    EXPECT_DOUBLE_EQ(a.directoryIndirectionPct,
                     b.directoryIndirectionPct);
    EXPECT_EQ(live.cacheToCacheMisses(), replay.cacheToCacheMisses());
    // Footprint recovered from misses matches the reference-stream
    // footprint (cold caches: every toucher misses at least once).
    EXPECT_EQ(a.touched64Bytes, b.touched64Bytes);
}

// ---------------------------------------------------------- predictor eval

Trace
pingPongTrace(std::size_t misses)
{
    // Block bounces between nodes 1 and 2: each GETX needs the other.
    Trace trace;
    trace.workloadName = "pingpong";
    trace.numNodes = kNodes;
    trace.totalInstructions = misses * 100;
    for (std::size_t i = 0; i < misses; ++i) {
        NodeId me = 1 + (i % 2);
        NodeId other = 1 + ((i + 1) % 2);
        trace.append(
            record(0x4000, 0x20, me, RequestType::GetExclusive, other),
            DestinationSet::of(other));
    }
    return trace;
}

TEST(PredictorEval, SnoopingAnchorIsExact)
{
    Trace trace = pingPongTrace(100);
    PredictorEvaluator eval(kNodes);
    BroadcastSnoopingModel snooping(kNodes);
    EvalResult r = eval.evaluateBaseline(trace, snooping);
    EXPECT_DOUBLE_EQ(r.requestMessagesPerMiss, 15.0);
    EXPECT_DOUBLE_EQ(r.indirectionPct, 0.0);
    EXPECT_EQ(r.misses, 100u);
}

TEST(PredictorEval, DirectoryAnchorIndirectsEveryPingPong)
{
    Trace trace = pingPongTrace(100);
    PredictorEvaluator eval(kNodes);
    DirectoryModel directory(kNodes);
    EvalResult r = eval.evaluateBaseline(trace, directory);
    EXPECT_DOUBLE_EQ(r.indirectionPct, 100.0);
    EXPECT_LT(r.requestMessagesPerMiss, 3.0);
}

TEST(PredictorEval, OwnerPredictorLearnsPingPong)
{
    Trace trace = pingPongTrace(400);
    trace.warmupRecords = 100;
    PredictorEvaluator eval(kNodes);
    PredictorConfig config;
    config.numNodes = kNodes;
    config.entries = 1024;
    EvalResult r = eval.evaluatePredictor(
        trace, PredictorPolicy::Owner, config);
    // After warmup both sides know each other: no indirections, and
    // requests go to {requester, home, owner} = 2 messages.
    EXPECT_LT(r.indirectionPct, 2.0);
    EXPECT_NEAR(r.requestMessagesPerMiss, 2.0, 0.1);
}

TEST(PredictorEval, AlwaysBroadcastMatchesSnoopingShape)
{
    Trace trace = pingPongTrace(100);
    PredictorEvaluator eval(kNodes);
    PredictorConfig config;
    config.numNodes = kNodes;
    EvalResult r = eval.evaluatePredictor(
        trace, PredictorPolicy::AlwaysBroadcast, config);
    EXPECT_DOUBLE_EQ(r.indirectionPct, 0.0);
    EXPECT_DOUBLE_EQ(r.requestMessagesPerMiss, 15.0);
}

TEST(PredictorEval, AlwaysMinimalRetriesEverySharingMiss)
{
    Trace trace = pingPongTrace(100);
    PredictorEvaluator eval(kNodes);
    PredictorConfig config;
    config.numNodes = kNodes;
    EvalResult r = eval.evaluatePredictor(
        trace, PredictorPolicy::AlwaysMinimal, config);
    EXPECT_DOUBLE_EQ(r.indirectionPct, 100.0);
    EXPECT_DOUBLE_EQ(r.retriesPerMiss, 1.0);
}

TEST(PredictorEval, WarmupExcludedFromStats)
{
    Trace trace = pingPongTrace(200);
    trace.warmupRecords = 150;
    PredictorEvaluator eval(kNodes);
    BroadcastSnoopingModel snooping(kNodes);
    EvalResult r = eval.evaluateBaseline(trace, snooping);
    EXPECT_EQ(r.misses, 50u);
}

TEST(PredictorEval, Replays256NodeCollectedTrace)
{
    // Collect at 256 nodes, where required sets reach past node 63,
    // and replay: every stored set equals the live transaction's.
    constexpr NodeId nodes = 256;
    auto workload = makeWorkload("oltp", nodes, 5, 0.05);
    TraceCollector collector(*workload);
    std::vector<DestinationSet> live;
    collector.addMissObserver(
        [&](const TraceRecord &, const SharingTracker::Transaction &txn) {
            live.push_back(txn.required);
        });
    Trace trace = collector.collect(500, 1500);
    ASSERT_EQ(trace.size(), 2000u);
    ASSERT_EQ(live.size(), trace.size());
    EXPECT_EQ(trace.requiredWords.size(), trace.size() * 4);

    bool high = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(trace.required(i), live[i]) << i;
        ASSERT_EQ(trace.missInfo(i).required, live[i]) << i;
        DestinationSet above = trace.required(i);
        for (NodeId n = 0; n < 64; ++n)
            above.remove(n);
        high = high || !above.empty();
    }
    EXPECT_TRUE(high) << "no required set reached past node 63";

    PredictorEvaluator eval(nodes);
    BroadcastSnoopingModel snooping(nodes);
    EvalResult snoop = eval.evaluateBaseline(trace, snooping);
    EXPECT_EQ(snoop.misses, 1500u);
    EXPECT_DOUBLE_EQ(snoop.requestMessagesPerMiss, nodes - 1.0);
    EXPECT_DOUBLE_EQ(snoop.indirectionPct, 0.0);

    PredictorConfig config;
    config.numNodes = nodes;
    config.entries = 8192;
    EvalResult owner =
        eval.evaluatePredictor(trace, PredictorPolicy::Owner, config);
    EvalResult minimal = eval.evaluatePredictor(
        trace, PredictorPolicy::AlwaysMinimal, config);
    EXPECT_EQ(owner.misses, 1500u);
    EXPECT_LT(owner.indirectionPct, minimal.indirectionPct);
    EXPECT_LT(owner.requestMessagesPerMiss, snoop.requestMessagesPerMiss);
}

TEST(PredictorEval, PredictorsBeatMinimalOnRealWorkload)
{
    auto workload = makeWorkload("oltp", kNodes, 11, 0.05);
    TraceCollector collector(*workload);
    Trace trace = collector.collect(2000, 4000);

    PredictorEvaluator eval(kNodes);
    PredictorConfig config;
    config.numNodes = kNodes;
    config.entries = 8192;

    EvalResult minimal = eval.evaluatePredictor(
        trace, PredictorPolicy::AlwaysMinimal, config);
    for (PredictorPolicy policy : proposedPolicies()) {
        EvalResult r = eval.evaluatePredictor(trace, policy, config);
        EXPECT_LT(r.indirectionPct, minimal.indirectionPct)
            << toString(policy);
    }

    // And all predictors use less request traffic than broadcast.
    BroadcastSnoopingModel snooping(kNodes);
    EvalResult snoop = eval.evaluateBaseline(trace, snooping);
    for (PredictorPolicy policy : proposedPolicies()) {
        EvalResult r = eval.evaluatePredictor(trace, policy, config);
        EXPECT_LT(r.requestMessagesPerMiss,
                  snoop.requestMessagesPerMiss)
            << toString(policy);
    }
}

} // namespace
} // namespace dsp
