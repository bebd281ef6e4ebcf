/**
 * @file
 * Table 3 compliance tests for every destination-set predictor policy,
 * plus indexing, allocation-filter, capacity, and factory tests, the
 * >64-node guards, machine-sized entry widths and predictor checkpoint
 * round trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "checkpoint/checkpoint.hh"
#include "core/baseline_predictors.hh"
#include "core/broadcast_if_shared.hh"
#include "core/factory.hh"
#include "core/group_predictor.hh"
#include "core/owner_group_predictor.hh"
#include "core/owner_predictor.hh"
#include "core/sticky_spatial.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;
constexpr Addr kAddr = 0x10000;
constexpr Addr kPc = 0x400;
constexpr NodeId kReq = 3;
constexpr NodeId kHome = 0;

PredictorConfig
config(std::size_t entries = 0,
       IndexingMode mode = IndexingMode::Macroblock1024)
{
    PredictorConfig c;
    c.numNodes = kNodes;
    c.entries = entries;
    c.indexing = mode;
    return c;
}

DestinationSet
minimal()
{
    DestinationSet s;
    s.add(kReq);
    s.add(kHome);
    return s;
}

// ------------------------------------------------------------------ Owner

TEST(Owner, ColdPredictsMinimalSet)
{
    OwnerPredictor pred(config());
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              minimal());
}

TEST(Owner, LearnsResponderFromDataResponse)
{
    OwnerPredictor pred(config());
    pred.trainResponse(kAddr, kPc, 7, true);
    DestinationSet expected = minimal();
    expected.add(7);
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              expected);
}

TEST(Owner, MemoryResponseClearsValid)
{
    OwnerPredictor pred(config());
    pred.trainResponse(kAddr, kPc, 7, true);
    pred.trainResponse(kAddr, kPc, invalidNode, false);
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              minimal());
    // The entry still exists -- only Valid was cleared (Table 3).
    EXPECT_EQ(pred.entryCount(), 1u);
}

TEST(Owner, ExternalGetxSetsOwnerToRequester)
{
    OwnerPredictor pred(config());
    pred.trainExternalRequest(kAddr, kPc, RequestType::GetExclusive,
                              11);
    DestinationSet expected = minimal();
    expected.add(11);
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetExclusive, kReq,
                           kHome),
              expected);
}

TEST(Owner, ExternalGetsIsIgnored)
{
    OwnerPredictor pred(config());
    pred.trainExternalRequest(kAddr, kPc, RequestType::GetShared, 11);
    EXPECT_EQ(pred.entryCount(), 0u);
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              minimal());
}

TEST(Owner, PredictsAtMostOneExtraNode)
{
    OwnerPredictor pred(config());
    for (NodeId n = 0; n < kNodes; ++n)
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, n);
    auto set = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                            kHome);
    EXPECT_LE(set.count(), 3u);  // requester + home + one owner
    // Last trainer wins.
    EXPECT_TRUE(set.contains(kNodes - 1));
}

TEST(Owner, AllocationFilterSkipsSufficientMisses)
{
    OwnerPredictor pred(config());
    // Memory response with a sufficient minimal set: no allocation.
    pred.trainResponse(kAddr, kPc, invalidNode, false);
    EXPECT_EQ(pred.entryCount(), 0u);
}

TEST(Owner, NoFilterAllocatesOnMemoryResponses)
{
    PredictorConfig cfg = config(64);
    cfg.allocationFilter = false;
    OwnerPredictor pred(cfg);
    pred.trainResponse(kAddr, kPc, invalidNode, false);
    // Without the Section 3.1 filter, even an unshared miss costs an
    // entry (the pollution the filter exists to avoid).
    EXPECT_EQ(pred.entryCount(), 1u);

    PredictorConfig strict = config(64);
    OwnerPredictor filtered(strict);
    filtered.trainResponse(kAddr, kPc, invalidNode, false);
    EXPECT_EQ(filtered.entryCount(), 0u);
}

TEST(Owner, EntryBitsMatchTable3)
{
    OwnerPredictor pred(config());
    // log2(16) + valid = 5 bits.
    EXPECT_EQ(pred.entryBits(), 5u);
}

// ----------------------------------------------------- Broadcast-If-Shared

TEST(BroadcastIfShared, ColdPredictsMinimal)
{
    BroadcastIfSharedPredictor pred(config());
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              minimal());
}

TEST(BroadcastIfShared, CounterAboveOneBroadcasts)
{
    BroadcastIfSharedPredictor pred(config());
    pred.trainResponse(kAddr, kPc, 7, true);  // counter 1 -> minimal
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              minimal());
    pred.trainResponse(kAddr, kPc, 7, true);  // counter 2 -> broadcast
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              DestinationSet::all(kNodes));
}

TEST(BroadcastIfShared, MemoryResponsesTrainDown)
{
    BroadcastIfSharedPredictor pred(config());
    for (int i = 0; i < 3; ++i)
        pred.trainResponse(kAddr, kPc, 7, true);  // saturate at 3
    pred.trainResponse(kAddr, kPc, invalidNode, false);  // 2
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              DestinationSet::all(kNodes));
    pred.trainResponse(kAddr, kPc, invalidNode, false);  // 1
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              minimal());
}

TEST(BroadcastIfShared, CounterSaturatesAtThree)
{
    BroadcastIfSharedPredictor pred(config());
    for (int i = 0; i < 10; ++i)
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, 5);
    // Three train-downs must be enough to fall below the threshold.
    for (int i = 0; i < 2; ++i)
        pred.trainResponse(kAddr, kPc, invalidNode, false);
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                           kHome),
              minimal());
}

TEST(BroadcastIfShared, EntryBitsMatchTable3)
{
    BroadcastIfSharedPredictor pred(config());
    EXPECT_EQ(pred.entryBits(), 2u);
}

// ------------------------------------------------------------------ Group

TEST(Group, AddsNodesWithCountersAboveOne)
{
    GroupPredictor pred(config());
    // Nodes 5 and 6 train twice; node 7 only once.
    for (NodeId n : {5, 6, 5, 6, 7}) {
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, n);
    }
    DestinationSet expected = minimal();
    expected.add(5);
    expected.add(6);
    EXPECT_EQ(pred.predict(kAddr, kPc, RequestType::GetExclusive, kReq,
                           kHome),
              expected);
}

TEST(Group, ResponsesTrainResponder)
{
    GroupPredictor pred(config());
    pred.trainResponse(kAddr, kPc, 9, true);
    pred.trainResponse(kAddr, kPc, 9, true);
    auto set = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                            kHome);
    EXPECT_TRUE(set.contains(9));
}

TEST(Group, RolloverDecaysInactiveNodes)
{
    GroupPredictor pred(config());
    // Train node 5 up to saturation (counter 3).
    for (int i = 0; i < 3; ++i)
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, 5);
    // 3 events so far. Drive the 5-bit rollover over its edge twice
    // (64 more events from node 2): each wrap decays all counters.
    for (int i = 0; i < 64; ++i)
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, 2);
    auto set = pred.predict(kAddr, kPc, RequestType::GetExclusive,
                            kReq, kHome);
    // Node 2 trained continuously, so it stays; node 5 decayed from
    // 3 to 1 and left the predicted set.
    EXPECT_TRUE(set.contains(2));
    EXPECT_FALSE(set.contains(5));
}

TEST(Group, MemoryResponseOnlyTicksRollover)
{
    GroupPredictor pred(config());
    pred.trainExternalRequest(kAddr, kPc, RequestType::GetExclusive,
                              5);
    std::size_t entries = pred.entryCount();
    pred.trainResponse(kAddr, kPc, invalidNode, false);
    EXPECT_EQ(pred.entryCount(), entries);  // no allocation
}

TEST(Group, EntryBitsMatchTable3)
{
    GroupPredictor pred(config());
    // 2 bits x 16 nodes + 5-bit rollover = 37 bits.
    EXPECT_EQ(pred.entryBits(), 37u);
}

// ------------------------------------------------------------ Owner/Group

TEST(OwnerGroup, ReadsUseOwnerWritesUseGroup)
{
    OwnerGroupPredictor pred(config());
    // Build a sharing group {5, 6}; most recent exclusive from 6.
    for (NodeId n : {5, 6, 5, 6}) {
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, n);
    }

    auto read = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                             kHome);
    DestinationSet read_expected = minimal();
    read_expected.add(6);  // owner only
    EXPECT_EQ(read, read_expected);

    auto write = pred.predict(kAddr, kPc, RequestType::GetExclusive,
                              kReq, kHome);
    EXPECT_TRUE(write.contains(5));
    EXPECT_TRUE(write.contains(6));
}

TEST(OwnerGroup, ReadPredictionIsNarrowerThanWrite)
{
    OwnerGroupPredictor pred(config());
    for (NodeId n : {5, 6, 7, 5, 6, 7}) {
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, n);
    }
    auto read = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                             kHome);
    auto write = pred.predict(kAddr, kPc, RequestType::GetExclusive,
                              kReq, kHome);
    EXPECT_LE(read.count(), write.count());
    EXPECT_TRUE(write.containsAll(read));
}

TEST(OwnerGroup, MemoryResponseClearsOwnerOnly)
{
    OwnerGroupPredictor pred(config());
    for (NodeId n : {5, 5}) {
        pred.trainExternalRequest(kAddr, kPc,
                                  RequestType::GetExclusive, n);
    }
    pred.trainResponse(kAddr, kPc, invalidNode, false);
    auto read = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                             kHome);
    EXPECT_EQ(read, minimal());  // owner invalidated
    auto write = pred.predict(kAddr, kPc, RequestType::GetExclusive,
                              kReq, kHome);
    EXPECT_TRUE(write.contains(5));  // group survives
}

// ------------------------------------------------------- 256-node machines

/**
 * Train nodes 70 and 255 -- both outside the low 64-bit word -- on a
 * 256-node machine and check the predictor predicts them there, not
 * aliased onto node % 64, and nothing else beyond the minimal set.
 */
void
expectPredictsHighNodes(Predictor &pred)
{
    for (NodeId n : {70, 255, 70, 255})
        pred.trainResponse(kAddr, kPc, n, true);
    // A memory response clears Owner-Group's owner pointer, so the
    // write prediction below comes from the group counters alone.
    pred.trainResponse(kAddr, kPc, invalidNode, false);

    DestinationSet set = pred.predict(
        kAddr, kPc, RequestType::GetExclusive, kReq, kHome);
    SCOPED_TRACE(set.toString());
    for (NodeId n : {70, 255}) {
        EXPECT_TRUE(set.contains(n)) << n;
        EXPECT_FALSE(set.contains(n % 64)) << n % 64;
    }
    set.forEach([&](NodeId n) { EXPECT_LT(n, 256u); });
    DestinationSet expected = minimal();
    expected.add(70);
    expected.add(255);
    EXPECT_EQ(set, expected);
}

PredictorConfig
config256(std::size_t entries = 0,
          IndexingMode mode = IndexingMode::Macroblock1024)
{
    PredictorConfig c = config(entries, mode);
    c.numNodes = 256;
    return c;
}

TEST(Group, PredictsNodesAbove63On256Nodes)
{
    GroupPredictor pred(config256());
    expectPredictsHighNodes(pred);
}

TEST(OwnerGroup, PredictsNodesAbove63On256Nodes)
{
    OwnerGroupPredictor pred(config256());
    expectPredictsHighNodes(pred);
}

TEST(StickySpatial, PredictsNodesAbove63On256Nodes)
{
    for (std::size_t entries : {std::size_t{0}, std::size_t{64}}) {
        SCOPED_TRACE(entries);
        auto pred =
            makePredictor(PredictorPolicy::StickySpatial,
                          config256(entries, IndexingMode::Block64));
        expectPredictsHighNodes(*pred);
    }
}

/**
 * Every per-node policy, built through the factory on machines just
 * past each entry-width step and at the 256-node limit, can predict
 * the last node and node 70, and never predicts a node the machine
 * does not have.
 */
TEST(LargeMachines, EveryPolicyPredictsHighNodesAndOnlyRealOnes)
{
    for (PredictorPolicy policy :
         {PredictorPolicy::Owner, PredictorPolicy::BroadcastIfShared,
          PredictorPolicy::Group, PredictorPolicy::OwnerGroup,
          PredictorPolicy::StickySpatial}) {
        for (NodeId n : {65u, 129u, 256u}) {
            SCOPED_TRACE(toString(policy) + " @ " + std::to_string(n));
            PredictorConfig c = config(8192);
            c.numNodes = n;
            auto pred = makePredictor(policy, c);
            auto expectOnlyRealNodes = [&](const DestinationSet &set) {
                set.forEach([&](NodeId node) { EXPECT_LT(node, n); });
            };
            // Node 70 sits in the second word; a 65-node machine has
            // no node 70, so there the second target is node 63.
            DestinationSet both;
            for (NodeId target : {n - 1, std::min<NodeId>(70, n - 2)}) {
                both.add(target);
                for (int i = 0; i < 2; ++i) {
                    pred->trainResponse(kAddr, kPc, target, true);
                    pred->trainExternalRequest(
                        kAddr, kPc, RequestType::GetExclusive, target);
                }
                DestinationSet set = pred->predict(
                    kAddr, kPc, RequestType::GetExclusive, kReq, kHome);
                EXPECT_TRUE(set.contains(target))
                    << target << " missing from " << set.toString();
                expectOnlyRealNodes(set);
            }
            pred->trainRetry(kAddr, kPc, both);
            for (RequestType type :
                 {RequestType::GetShared, RequestType::GetExclusive})
                expectOnlyRealNodes(
                    pred->predict(kAddr, kPc, type, kReq, kHome));
        }
    }
}

// ------------------------------------------------ machine-sized entries

/** Word count of the Group counters `pred` was built with (0 if it is
 *  no Group or Owner-Group predictor). */
template <template <unsigned> class Pred>
unsigned
groupWordsOf(const Predictor &pred)
{
    if (dynamic_cast<const Pred<1> *>(&pred))
        return 1;
    if (dynamic_cast<const Pred<2> *>(&pred))
        return 2;
    if (dynamic_cast<const Pred<4> *>(&pred))
        return 4;
    if (dynamic_cast<const Pred<8> *>(&pred))
        return 8;
    return 0;
}

/**
 * The factory's narrow Group and Owner-Group predictors and their
 * full-width (256-node) twins see one seeded random stream of
 * training and prediction calls and must agree on every prediction.
 * A quarter of the events hit one hot key, so its rollover wraps at
 * least twice; the rest spread over 512 keys.
 */
TEST(MachineSizedEntries, NarrowWidthPredictsLikeFullWidth)
{
    for (NodeId n : {2u, 16u, 32u, 33u, 64u, 65u, 128u, 129u, 256u}) {
        unsigned words = n <= 32 ? 1 : n <= 64 ? 2 : n <= 128 ? 4 : 8;
        for (std::size_t entries : {std::size_t{8192}, std::size_t{0}}) {
            PredictorConfig c = config(entries);
            c.numNodes = n;
            c.ways = 4;
            auto group = makePredictor(PredictorPolicy::Group, c);
            auto owner_group =
                makePredictor(PredictorPolicy::OwnerGroup, c);
            EXPECT_EQ(groupWordsOf<BasicGroupPredictor>(*group), words);
            EXPECT_EQ(groupWordsOf<BasicOwnerGroupPredictor>(*owner_group),
                      words);
            GroupPredictor group_full(c);
            OwnerGroupPredictor owner_group_full(c);
            std::pair<Predictor *, Predictor *> pairs[] = {
                {group.get(), &group_full},
                {owner_group.get(), &owner_group_full}};

            Rng rng(1000 + n);
            Addr hot = 0x40000;
            unsigned hot_writes = 0;
            for (int i = 0; i < 4000; ++i) {
                bool is_hot = rng.uniformInt(4) == 0;
                Addr addr = is_hot ? hot : rng.uniformInt(512) * 1024;
                NodeId node = static_cast<NodeId>(rng.uniformInt(n));
                RequestType type = rng.chance(0.5)
                                       ? RequestType::GetExclusive
                                       : RequestType::GetShared;
                unsigned op = static_cast<unsigned>(rng.uniformInt(4));
                bool insufficient = rng.chance(0.5);
                NodeId home = static_cast<NodeId>(rng.uniformInt(n));
                // An observed GETX always ticks the rollover.
                hot_writes += is_hot && op == 2 &&
                              type == RequestType::GetExclusive;
                for (auto [narrow, full] : pairs) {
                    switch (op) {
                      case 0:
                        narrow->trainResponse(addr, kPc, node,
                                              insufficient);
                        full->trainResponse(addr, kPc, node,
                                            insufficient);
                        break;
                      case 1:
                        narrow->trainResponse(addr, kPc, invalidNode,
                                              insufficient);
                        full->trainResponse(addr, kPc, invalidNode,
                                            insufficient);
                        break;
                      case 2:
                        narrow->trainExternalRequest(addr, kPc, type,
                                                     node);
                        full->trainExternalRequest(addr, kPc, type,
                                                   node);
                        break;
                      default:
                        break;
                    }
                    DestinationSet want =
                        full->predict(addr, kPc, type, node, home);
                    ASSERT_EQ(narrow->predict(addr, kPc, type, node,
                                              home),
                              want)
                        << narrow->name() << " @ " << n << " nodes, "
                        << entries << " entries, step " << i;
                    ASSERT_EQ(narrow->entryCount(), full->entryCount());
                }
            }
            EXPECT_GE(hot_writes, 64u);
        }
    }
}

/**
 * A checkpointed Owner-Group predictor -- its table is saved as raw
 * entry bytes, so the entry width is part of the format -- restores
 * into a fresh predictor of the same machine size that predicts
 * exactly like the original.
 */
void
expectCheckpointRoundTrip(NodeId n, std::size_t entries)
{
    PredictorConfig c = config(entries);
    c.numNodes = n;
    auto original = makePredictor(PredictorPolicy::OwnerGroup, c);
    Rng rng(n);
    auto randomAddr = [&] { return rng.uniformInt(256) * 1024; };
    for (int i = 0; i < 2000; ++i) {
        NodeId node = static_cast<NodeId>(rng.uniformInt(n));
        if (rng.chance(0.5))
            original->trainResponse(randomAddr(), kPc, node, true);
        else
            original->trainExternalRequest(
                randomAddr(), kPc, RequestType::GetExclusive, node);
    }
    ckpt::Writer w;
    original->ckptSave(w);
    auto restored = makePredictor(PredictorPolicy::OwnerGroup, c);
    ckpt::Reader r(w.buffer());
    restored->ckptLoad(r);

    ASSERT_EQ(restored->entryCount(), original->entryCount());
    for (Addr addr = 0; addr < 256 * 1024; addr += 1024) {
        for (RequestType type :
             {RequestType::GetShared, RequestType::GetExclusive}) {
            ASSERT_EQ(restored->predict(addr, kPc, type, kReq, kHome),
                      original->predict(addr, kPc, type, kReq, kHome))
                << addr;
        }
    }
}

TEST(PredictorCheckpoint, OwnerGroupRoundTrip16NodesFiniteTable)
{
    expectCheckpointRoundTrip(16, 8192);
}

TEST(PredictorCheckpoint, OwnerGroupRoundTrip256Nodes)
{
    expectCheckpointRoundTrip(256, 8192);
    expectCheckpointRoundTrip(256, 0);
}

// ---------------------------------------------------------- StickySpatial

TEST(StickySpatial, TrainsFromResponses)
{
    StickySpatialPredictor pred(config(0, IndexingMode::Block64), 1);
    pred.trainResponse(kAddr, kPc, 9, true);
    auto set = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                            kHome);
    EXPECT_TRUE(set.contains(9));
}

TEST(StickySpatial, IgnoresExternalRequests)
{
    StickySpatialPredictor pred(config(0, IndexingMode::Block64), 1);
    pred.trainExternalRequest(kAddr, kPc, RequestType::GetExclusive,
                              9);
    EXPECT_EQ(pred.entryCount(), 0u);
}

TEST(StickySpatial, RetryTrainsTrueSet)
{
    StickySpatialPredictor pred(config(0, IndexingMode::Block64), 1);
    DestinationSet truth;
    truth.add(4);
    truth.add(9);
    pred.trainRetry(kAddr, kPc, truth);
    auto set = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                            kHome);
    EXPECT_TRUE(set.containsAll(truth));
}

TEST(StickySpatial, AggregatesNeighbourEntries)
{
    StickySpatialPredictor pred(config(0, IndexingMode::Block64), 1);
    // Train the next block over; spatial degree 1 picks it up.
    pred.trainResponse(kAddr + blockBytes, kPc, 12, true);
    auto set = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                            kHome);
    EXPECT_TRUE(set.contains(12));
}

TEST(StickySpatial, OnlyTrainsUpUntilReplacement)
{
    StickySpatialPredictor pred(config(64, IndexingMode::Block64), 1);
    pred.trainResponse(kAddr, kPc, 9, true);
    pred.trainResponse(kAddr, kPc, 10, true);
    auto set = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                            kHome);
    // Sticky: both stay.
    EXPECT_TRUE(set.contains(9));
    EXPECT_TRUE(set.contains(10));

    // An aliasing address (same direct-mapped slot, different tag)
    // replaces the entry, which is the only way the set shrinks.
    Addr alias = kAddr + 64 * blockBytes;
    pred.trainResponse(alias, kPc, 2, true);
    auto set2 = pred.predict(kAddr, kPc, RequestType::GetShared, kReq,
                             kHome);
    EXPECT_FALSE(set2.contains(9));
    EXPECT_TRUE(set2.contains(2));  // aliased prediction, tag ignored
}

TEST(StickySpatial, PredictionIgnoresTag)
{
    StickySpatialPredictor pred(config(64, IndexingMode::Block64), 1);
    Addr alias = kAddr + 64 * blockBytes;  // same slot as kAddr
    pred.trainResponse(kAddr, kPc, 9, true);
    auto set = pred.predict(alias, kPc, RequestType::GetShared, kReq,
                            kHome);
    EXPECT_TRUE(set.contains(9));
}

// -------------------------------------------------------------- baselines

TEST(Baselines, AlwaysBroadcastAndAlwaysMinimal)
{
    AlwaysBroadcastPredictor bcast(config());
    AlwaysMinimalPredictor min(config());
    EXPECT_EQ(bcast.predict(kAddr, kPc, RequestType::GetShared, kReq,
                            kHome),
              DestinationSet::all(kNodes));
    EXPECT_EQ(min.predict(kAddr, kPc, RequestType::GetShared, kReq,
                          kHome),
              minimal());
}

// ----------------------------------------------------- indexing & capacity

TEST(Indexing, KeysFollowGranularity)
{
    EXPECT_EQ(indexKey(IndexingMode::Block64, 0x1000, 0), 0x40u);
    EXPECT_EQ(indexKey(IndexingMode::Macroblock256, 0x1000, 0),
              0x10u);
    EXPECT_EQ(indexKey(IndexingMode::Macroblock1024, 0x1000, 0), 4u);
    EXPECT_EQ(indexKey(IndexingMode::ProgramCounter, 0x1000, 0x844),
              0x211u);
}

TEST(Indexing, MacroblockSharesEntryAcrossNeighbours)
{
    OwnerPredictor pred(config(0, IndexingMode::Macroblock1024));
    pred.trainResponse(kAddr, kPc, 7, true);
    // A different block in the same 1 KB macroblock hits the entry.
    auto set = pred.predict(kAddr + 512, kPc, RequestType::GetShared,
                            kReq, kHome);
    EXPECT_TRUE(set.contains(7));
    // A block in the next macroblock does not.
    auto miss = pred.predict(kAddr + 1024, kPc,
                             RequestType::GetShared, kReq, kHome);
    EXPECT_FALSE(miss.contains(7));
}

TEST(Indexing, PcModeIgnoresDataAddress)
{
    OwnerPredictor pred(config(0, IndexingMode::ProgramCounter));
    pred.trainResponse(kAddr, kPc, 7, true);
    auto set = pred.predict(kAddr + 0x100000, kPc,
                            RequestType::GetShared, kReq, kHome);
    EXPECT_TRUE(set.contains(7));
}

TEST(Capacity, FiniteTableEvicts)
{
    OwnerPredictor pred(config(16, IndexingMode::Block64));
    for (Addr a = 0; a < 64 * blockBytes; a += blockBytes)
        pred.trainExternalRequest(a, kPc, RequestType::GetExclusive,
                                  5);
    EXPECT_LE(pred.entryCount(), 16u);
}

TEST(Capacity, UnboundedTableGrows)
{
    OwnerPredictor pred(config(0, IndexingMode::Block64));
    for (Addr a = 0; a < 64 * blockBytes; a += blockBytes)
        pred.trainExternalRequest(a, kPc, RequestType::GetExclusive,
                                  5);
    EXPECT_EQ(pred.entryCount(), 64u);
}

// ---------------------------------------------------------------- factory

TEST(Factory, BuildsEveryPolicyWithMatchingName)
{
    for (PredictorPolicy policy :
         {PredictorPolicy::Owner, PredictorPolicy::BroadcastIfShared,
          PredictorPolicy::Group, PredictorPolicy::OwnerGroup,
          PredictorPolicy::StickySpatial,
          PredictorPolicy::AlwaysBroadcast,
          PredictorPolicy::AlwaysMinimal}) {
        auto pred = makePredictor(policy, config(1024));
        EXPECT_EQ(pred->name(), toString(policy));
        EXPECT_EQ(parsePredictorPolicy(toString(policy)), policy);
    }
}

TEST(Factory, PerNodeBuildsIndependentPredictors)
{
    auto preds =
        makePredictorsPerNode(PredictorPolicy::Owner, config(1024));
    ASSERT_EQ(preds.size(), kNodes);
    preds[0]->trainResponse(kAddr, kPc, 7, true);
    auto set0 = preds[0]->predict(kAddr, kPc, RequestType::GetShared,
                                  kReq, kHome);
    auto set1 = preds[1]->predict(kAddr, kPc, RequestType::GetShared,
                                  kReq, kHome);
    EXPECT_TRUE(set0.contains(7));
    EXPECT_FALSE(set1.contains(7));
}

TEST(Factory, ProposedPoliciesAreTheFourFromThePaper)
{
    EXPECT_EQ(proposedPolicies().size(), 4u);
}

// ------------------------------------------------- universal property sweep

/**
 * Every policy, regardless of training history, must predict a
 * superset of the minimal destination set and never exceed the full
 * broadcast set.
 */
class MinimalSetContract
    : public ::testing::TestWithParam<PredictorPolicy>
{
};

TEST_P(MinimalSetContract, HoldsUnderRandomTraining)
{
    auto pred = makePredictor(GetParam(), config(256));
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        Addr addr = rng.uniformInt(1 << 22);
        Addr pc = 0x1000 + rng.uniformInt(64) * 4;
        NodeId node = static_cast<NodeId>(rng.uniformInt(kNodes));
        switch (rng.uniformInt(4)) {
          case 0:
            pred->trainResponse(addr, pc, node, true);
            break;
          case 1:
            pred->trainResponse(addr, pc, invalidNode, false);
            break;
          case 2:
            pred->trainExternalRequest(
                addr, pc,
                rng.chance(0.5) ? RequestType::GetExclusive
                                : RequestType::GetShared,
                node);
            break;
          case 3:
            pred->trainRetry(addr, pc,
                             DestinationSet::fromMask(rng.next() &
                                                      0xffff));
            break;
        }

        NodeId req = static_cast<NodeId>(rng.uniformInt(kNodes));
        NodeId home = static_cast<NodeId>(rng.uniformInt(kNodes));
        auto set = pred->predict(addr, pc,
                                 rng.chance(0.5)
                                     ? RequestType::GetExclusive
                                     : RequestType::GetShared,
                                 req, home);
        ASSERT_TRUE(set.contains(req));
        ASSERT_TRUE(set.contains(home));
        ASSERT_TRUE(DestinationSet::all(kNodes).containsAll(set));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, MinimalSetContract,
    ::testing::Values(PredictorPolicy::Owner,
                      PredictorPolicy::BroadcastIfShared,
                      PredictorPolicy::Group,
                      PredictorPolicy::OwnerGroup,
                      PredictorPolicy::StickySpatial,
                      PredictorPolicy::AlwaysBroadcast,
                      PredictorPolicy::AlwaysMinimal),
    [](const ::testing::TestParamInfo<PredictorPolicy> &info) {
        std::string name = toString(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace dsp
