/**
 * @file
 * Scenario tests for Section 3.3's policy-vs-sharing-pattern claims:
 * each policy is built for a particular sharing archetype, and these
 * tests verify the claimed match on synthetic miss streams with known
 * ground truth:
 *
 *  - Owner "works well for pairwise sharing";
 *  - Broadcast-If-Shared "performs comparably to snooping" on widely
 *    shared data while filtering unshared data;
 *  - Group "should work well ... if the system is logically
 *    partitioned";
 *  - Owner/Group saves GETS bandwidth on stable sharing patterns.
 */

#include <gtest/gtest.h>

#include "analysis/predictor_eval.hh"
#include "sim/rng.hh"
#include "trace/trace.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

void
append(Trace &trace, Addr addr, NodeId req, RequestType type,
       std::uint32_t resp, const DestinationSet &required)
{
    TraceRecord r;
    r.addr = addr;
    r.pc = 0x1000;
    r.requester = req;
    r.type = static_cast<std::uint8_t>(type);
    r.responder = resp;
    trace.append(r, required);
}

/** Migratory items bouncing between fixed pairs (2k, 2k+1). */
Trace
pairwiseTrace(std::size_t misses, std::uint64_t seed)
{
    Trace trace;
    trace.numNodes = kNodes;
    trace.workloadName = "pairwise";
    trace.totalInstructions = misses * 100;
    Rng rng(seed);
    // 64 items, each bound to one pair.
    std::vector<NodeId> owner(64);
    for (std::size_t i = 0; i < owner.size(); ++i)
        owner[i] = static_cast<NodeId>((i % 8) * 2);
    for (std::size_t i = 0; i < misses; ++i) {
        std::size_t item = rng.uniformInt(64);
        NodeId cur = owner[item];
        NodeId next = static_cast<NodeId>(cur ^ 1);  // the partner
        Addr addr = 0x100000 + item * blockBytes;
        append(trace, addr, next, RequestType::GetExclusive, cur,
               DestinationSet::of(cur));
        owner[item] = next;
    }
    trace.warmupRecords = misses / 4;
    return trace;
}

/** Widely-shared read-mostly blocks with periodic writers. */
Trace
wideSharingTrace(std::size_t misses, std::uint64_t seed)
{
    Trace trace;
    trace.numNodes = kNodes;
    trace.workloadName = "wide";
    trace.totalInstructions = misses * 100;
    Rng rng(seed);
    std::vector<NodeId> owner(16, invalidNode);
    std::vector<DestinationSet> sharers(16);
    for (std::size_t i = 0; i < misses; ++i) {
        std::size_t blockIdx = rng.uniformInt(16);
        Addr addr = 0x200000 + blockIdx * blockBytes;
        NodeId p = static_cast<NodeId>(rng.uniformInt(kNodes));
        if (rng.chance(0.1)) {
            // write: must reach owner + all sharers
            DestinationSet req = sharers[blockIdx];
            if (owner[blockIdx] != invalidNode)
                req.add(owner[blockIdx]);
            req.remove(p);
            std::uint32_t resp =
                owner[blockIdx] == invalidNode
                    ? TraceRecord::memoryResponder
                    : owner[blockIdx];
            if (owner[blockIdx] == p)
                resp = p;
            append(trace, addr, p, RequestType::GetExclusive, resp, req);
            owner[blockIdx] = p;
            sharers[blockIdx] = DestinationSet{};
        } else {
            DestinationSet req;
            std::uint32_t resp = TraceRecord::memoryResponder;
            if (owner[blockIdx] != invalidNode &&
                owner[blockIdx] != p) {
                req.add(owner[blockIdx]);
                resp = owner[blockIdx];
            }
            append(trace, addr, p, RequestType::GetShared, resp, req);
            sharers[blockIdx].add(p);
        }
    }
    trace.warmupRecords = misses / 4;
    return trace;
}

/** Blocks shared read-write within fixed groups of four nodes. */
Trace
groupTrace(std::size_t misses, std::uint64_t seed)
{
    Trace trace;
    trace.numNodes = kNodes;
    trace.workloadName = "grouped";
    trace.totalInstructions = misses * 100;
    Rng rng(seed);
    std::vector<NodeId> owner(64, invalidNode);
    for (std::size_t i = 0; i < misses; ++i) {
        std::size_t blockIdx = rng.uniformInt(64);
        NodeId group = static_cast<NodeId>(blockIdx % 4);
        NodeId p = static_cast<NodeId>(group * 4 +
                                       rng.uniformInt(4));
        Addr addr = 0x300000 + blockIdx * blockBytes;
        DestinationSet req;
        std::uint32_t resp = TraceRecord::memoryResponder;
        if (owner[blockIdx] != invalidNode && owner[blockIdx] != p) {
            req.add(owner[blockIdx]);
            resp = owner[blockIdx];
        } else if (owner[blockIdx] == p) {
            resp = p;
        }
        append(trace, addr, p, RequestType::GetExclusive, resp, req);
        owner[blockIdx] = p;
    }
    trace.warmupRecords = misses / 4;
    return trace;
}

EvalResult
evaluate(const Trace &trace, PredictorPolicy policy)
{
    PredictorEvaluator evaluator(kNodes);
    PredictorConfig config;
    config.numNodes = kNodes;
    config.entries = 8192;
    config.indexing = IndexingMode::Block64;
    return evaluator.evaluatePredictor(trace, policy, config);
}

TEST(PolicyBehavior, OwnerNailsPairwiseSharing)
{
    Trace trace = pairwiseTrace(8000, 3);
    EvalResult owner = evaluate(trace, PredictorPolicy::Owner);
    // Both partners track each other through external GETX: near-zero
    // indirections at barely more than minimal traffic.
    EXPECT_LT(owner.indirectionPct, 3.0);
    EXPECT_LT(owner.requestMessagesPerMiss, 3.1);
}

TEST(PolicyBehavior, OwnerUsesFarLessBandwidthThanBisOnPairs)
{
    Trace trace = pairwiseTrace(8000, 4);
    EvalResult owner = evaluate(trace, PredictorPolicy::Owner);
    EvalResult bis =
        evaluate(trace, PredictorPolicy::BroadcastIfShared);
    // Both predict well, but B-I-S broadcasts shared data: Owner's
    // whole point is doing the same job with a fraction of the
    // traffic (Section 3.3).
    EXPECT_LE(owner.indirectionPct, bis.indirectionPct + 2.0);
    EXPECT_LT(owner.requestMessagesPerMiss,
              bis.requestMessagesPerMiss / 3.0);
}

TEST(PolicyBehavior, BisMatchesBroadcastOnWidelyShared)
{
    Trace trace = wideSharingTrace(8000, 5);
    EvalResult bis =
        evaluate(trace, PredictorPolicy::BroadcastIfShared);
    // Widely-shared data: B-I-S broadcasts nearly everything and so
    // nearly never indirects.
    EXPECT_LT(bis.indirectionPct, 2.0);
    EXPECT_GT(bis.predictedSetSize, 12.0);
}

TEST(PolicyBehavior, OwnerStrugglesOnWideInvalidations)
{
    Trace trace = wideSharingTrace(8000, 6);
    EvalResult owner = evaluate(trace, PredictorPolicy::Owner);
    EvalResult bis =
        evaluate(trace, PredictorPolicy::BroadcastIfShared);
    // Owner can find the owner for reads but cannot cover the sharer
    // set for writes; it must indirect far more often than B-I-S.
    EXPECT_GT(owner.indirectionPct, bis.indirectionPct + 5.0);
}

TEST(PolicyBehavior, GroupConvergesOnPartitions)
{
    Trace trace = groupTrace(12000, 7);
    EvalResult group = evaluate(trace, PredictorPolicy::Group);
    EvalResult bis =
        evaluate(trace, PredictorPolicy::BroadcastIfShared);
    // Group learns the 4-node partitions: few indirections at a
    // fraction of Broadcast-If-Shared's traffic.
    EXPECT_LT(group.indirectionPct, 10.0);
    EXPECT_LT(group.requestMessagesPerMiss,
              bis.requestMessagesPerMiss * 0.55);
    // Predicted sets hover near the group size, not the machine size.
    EXPECT_LT(group.predictedSetSize, 8.0);
}

TEST(PolicyBehavior, OwnerGroupSavesReadBandwidthVsGroup)
{
    // Mixture: group-shared writes plus pairwise reads.
    Trace trace = pairwiseTrace(8000, 8);
    EvalResult group = evaluate(trace, PredictorPolicy::Group);
    EvalResult og = evaluate(trace, PredictorPolicy::OwnerGroup);
    EXPECT_LE(og.requestMessagesPerMiss,
              group.requestMessagesPerMiss + 0.01);
}

TEST(PolicyBehavior, StickySpatialTrailsOwnerGroupOnPairs)
{
    Trace trace = pairwiseTrace(8000, 9);
    EvalResult og = evaluate(trace, PredictorPolicy::OwnerGroup);
    EvalResult sticky =
        evaluate(trace, PredictorPolicy::StickySpatial);
    // Sticky-Spatial only trains from its own responses/retries (the
    // partner's requests teach it nothing) and only sheds stale nodes
    // on replacement -- it cannot beat Owner/Group here.
    EXPECT_LE(og.indirectionPct, sticky.indirectionPct + 1.0);
    EXPECT_LE(og.requestMessagesPerMiss,
              sticky.requestMessagesPerMiss + 0.1);
}

TEST(PolicyBehavior, AnchorsBracketEveryPolicyOnEveryPattern)
{
    for (auto make : {pairwiseTrace, wideSharingTrace, groupTrace}) {
        Trace trace = make(4000, 11);
        EvalResult bcast =
            evaluate(trace, PredictorPolicy::AlwaysBroadcast);
        EvalResult minimal =
            evaluate(trace, PredictorPolicy::AlwaysMinimal);
        for (PredictorPolicy policy : proposedPolicies()) {
            EvalResult r = evaluate(trace, policy);
            // Latency anchor: nothing beats broadcast's 0
            // indirections. There is no corresponding bandwidth
            // anchor: a correct prediction (initial multicast only)
            // can undercut AlwaysMinimal's initial-request-plus-retry
            // total -- prediction can win on BOTH axes at once.
            EXPECT_GE(r.indirectionPct, bcast.indirectionPct);
            EXPECT_LE(r.indirectionPct,
                      minimal.indirectionPct + 1e-9);
            EXPECT_LE(r.requestMessagesPerMiss,
                      bcast.requestMessagesPerMiss + 1e-9);
        }
    }
}

} // namespace
} // namespace dsp
