/**
 * @file
 * Unit tests for the trace-level protocol models: exact message
 * counts, indirection rules, latency classes, and byte accounting for
 * broadcast snooping, the directory protocol, and multicast snooping.
 */

#include <gtest/gtest.h>

#include "coherence/trace_protocols.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

MissInfo
makeMiss(NodeId requester, RequestType type, NodeId responder,
         DestinationSet required, NodeId home = 0)
{
    MissInfo miss;
    miss.addr = 0x4000;  // block 0x100 -> home 0 for 16 nodes
    miss.pc = 0x1000;
    miss.requester = requester;
    miss.type = type;
    miss.required = required;
    miss.responder = responder;
    miss.home = home;
    return miss;
}

DestinationSet
minimalSet(NodeId requester, NodeId home)
{
    DestinationSet s;
    s.add(requester);
    s.add(home);
    return s;
}

// ---------------------------------------------------------------- snooping

TEST(Snooping, BroadcastsToAllOthers)
{
    BroadcastSnoopingModel model(kNodes);
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetShared, invalidNode, {}));
    EXPECT_EQ(out.requestMessages, 15u);
    EXPECT_FALSE(out.indirection);
    EXPECT_EQ(out.dataMessages, 1u);
    EXPECT_EQ(out.latency, LatencyClass::Memory);
    EXPECT_FALSE(out.observers.contains(3));
    EXPECT_EQ(out.observers.count(), 15u);
}

TEST(Snooping, CacheToCacheIsDirect)
{
    BroadcastSnoopingModel model(kNodes);
    auto out = model.handleMiss(makeMiss(
        3, RequestType::GetShared, 7, DestinationSet::of(7)));
    EXPECT_FALSE(out.indirection);
    EXPECT_TRUE(out.cacheToCache);
    EXPECT_EQ(out.latency, LatencyClass::DirectCache);
}

TEST(Snooping, UpgradeSendsNoData)
{
    BroadcastSnoopingModel model(kNodes);
    auto out = model.handleMiss(makeMiss(
        3, RequestType::GetExclusive, 3, DestinationSet::of(9)));
    EXPECT_EQ(out.dataMessages, 0u);
    EXPECT_EQ(out.controlMessages, 0u);
    EXPECT_EQ(out.latency, LatencyClass::LocalUpgrade);
    EXPECT_EQ(out.totalBytes(), 15u * requestMessageBytes);
}

TEST(Snooping, NeverIndirectsRegardlessOfSharers)
{
    BroadcastSnoopingModel model(kNodes);
    DestinationSet many;
    for (NodeId n = 4; n < 12; ++n)
        many.add(n);
    auto out = model.handleMiss(
        makeMiss(0, RequestType::GetExclusive, 4, many));
    EXPECT_FALSE(out.indirection);
}

// --------------------------------------------------------------- directory

TEST(Directory, MemoryReadIsTwoHop)
{
    DirectoryModel model(kNodes);
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetShared, invalidNode, {}));
    EXPECT_EQ(out.requestMessages, 1u);  // request to home only
    EXPECT_FALSE(out.indirection);
    EXPECT_EQ(out.latency, LatencyClass::Memory);
    EXPECT_EQ(out.totalBytes(),
              requestMessageBytes + dataMessageBytes);
}

TEST(Directory, CacheToCacheIndirects)
{
    DirectoryModel model(kNodes);
    auto out = model.handleMiss(makeMiss(
        3, RequestType::GetShared, 7, DestinationSet::of(7)));
    EXPECT_TRUE(out.indirection);
    EXPECT_EQ(out.requestMessages, 2u);  // request + forward
    EXPECT_EQ(out.latency, LatencyClass::Indirect);
    EXPECT_TRUE(out.cacheToCache);
}

TEST(Directory, WriteWithSharersCountsInvalidations)
{
    DirectoryModel model(kNodes);
    DestinationSet req;
    req.add(7);
    req.add(8);
    req.add(9);
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetExclusive, 7, req));
    // 1 request + 3 forwards/invalidations.
    EXPECT_EQ(out.requestMessages, 4u);
    EXPECT_TRUE(out.indirection);
    EXPECT_EQ(out.observers, req);
}

TEST(Directory, RequesterAtHomeSavesRequestMessage)
{
    DirectoryModel model(kNodes);
    auto out = model.handleMiss(makeMiss(
        0, RequestType::GetShared, invalidNode, {}, /* home */ 0));
    EXPECT_EQ(out.requestMessages, 0u);
}

TEST(Directory, UpgradeGetsGrantMessage)
{
    DirectoryModel model(kNodes);
    auto out = model.handleMiss(makeMiss(
        3, RequestType::GetExclusive, 3, DestinationSet::of(9)));
    EXPECT_EQ(out.dataMessages, 0u);
    EXPECT_EQ(out.controlMessages, 1u);
    EXPECT_TRUE(out.indirection);  // a sharer must observe
}

TEST(Directory, UpgradeWithNoSharersIsNotIndirect)
{
    DirectoryModel model(kNodes);
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetExclusive, 3, {}));
    EXPECT_FALSE(out.indirection);
    EXPECT_EQ(out.latency, LatencyClass::Memory);
}

// --------------------------------------------------------------- multicast

TEST(Multicast, SufficientSetAvoidsIndirection)
{
    MulticastSnoopingModel model(kNodes);
    DestinationSet predicted = minimalSet(3, 0);
    predicted.add(7);
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetShared, 7, DestinationSet::of(7)),
        predicted);
    EXPECT_FALSE(out.indirection);
    EXPECT_EQ(out.retries, 0u);
    EXPECT_EQ(out.requestMessages, 2u);  // home + owner
    EXPECT_EQ(out.latency, LatencyClass::DirectCache);
}

TEST(Multicast, InsufficientSetRetriesWithIndirection)
{
    MulticastSnoopingModel model(kNodes);
    DestinationSet predicted = minimalSet(3, 0);  // misses owner 7
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetShared, 7, DestinationSet::of(7)),
        predicted);
    EXPECT_TRUE(out.indirection);
    EXPECT_EQ(out.retries, 1u);
    // 1 initial (to home) + retry to {7, requester 3}.
    EXPECT_EQ(out.requestMessages, 3u);
    EXPECT_EQ(out.latency, LatencyClass::Indirect);
    EXPECT_TRUE(out.observers.contains(7));
}

TEST(Multicast, MinimalSetSufficientForMemoryRead)
{
    MulticastSnoopingModel model(kNodes);
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetShared, invalidNode, {}),
        minimalSet(3, 0));
    EXPECT_FALSE(out.indirection);
    EXPECT_EQ(out.requestMessages, 1u);  // just the home
    EXPECT_EQ(out.latency, LatencyClass::Memory);
}

TEST(Multicast, BroadcastPredictionMatchesSnooping)
{
    MulticastSnoopingModel multicast(kNodes);
    BroadcastSnoopingModel snooping(kNodes);
    DestinationSet sharers;
    sharers.add(5);
    sharers.add(6);
    MissInfo miss =
        makeMiss(3, RequestType::GetExclusive, 5, sharers);

    auto m = multicast.handleMiss(miss, DestinationSet::all(kNodes));
    auto s = snooping.handleMiss(miss, {});
    EXPECT_EQ(m.requestMessages, s.requestMessages);
    EXPECT_EQ(m.indirection, s.indirection);
    EXPECT_EQ(m.latency, s.latency);
    EXPECT_EQ(m.totalBytes(), s.totalBytes());
}

TEST(Multicast, PartialCoverageStillRetries)
{
    MulticastSnoopingModel model(kNodes);
    DestinationSet required;
    required.add(7);
    required.add(8);
    DestinationSet predicted = minimalSet(3, 0);
    predicted.add(7);  // covers the owner but not sharer 8
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetExclusive, 7, required),
        predicted);
    EXPECT_TRUE(out.indirection);
    EXPECT_EQ(out.retries, 1u);
}

TEST(Multicast, MissingRequesterInSetPanics)
{
    MulticastSnoopingModel model(kNodes);
    PanicGuard guard;
    EXPECT_THROW(
        model.handleMiss(
            makeMiss(3, RequestType::GetShared, invalidNode, {}),
            DestinationSet::of(0)),
        std::runtime_error);
}

TEST(Multicast, UpgradeSufficientIsLocal)
{
    MulticastSnoopingModel model(kNodes);
    DestinationSet predicted = minimalSet(3, 0);
    predicted.add(9);
    auto out = model.handleMiss(
        makeMiss(3, RequestType::GetExclusive, 3,
                 DestinationSet::of(9)),
        predicted);
    EXPECT_FALSE(out.indirection);
    EXPECT_EQ(out.dataMessages, 0u);
    EXPECT_EQ(out.latency, LatencyClass::LocalUpgrade);
}

/**
 * Property sweep: on random misses, multicast with a broadcast
 * prediction never retries, and any sufficient prediction yields the
 * same latency class as snooping.
 */
class MulticastProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MulticastProperty, SufficiencyInvariants)
{
    Rng rng(GetParam());
    MulticastSnoopingModel multicast(kNodes);
    BroadcastSnoopingModel snooping(kNodes);

    for (int i = 0; i < 2000; ++i) {
        NodeId req = static_cast<NodeId>(rng.uniformInt(kNodes));
        RequestType type = rng.chance(0.5)
                               ? RequestType::GetExclusive
                               : RequestType::GetShared;
        DestinationSet required =
            DestinationSet::fromWords(
                DestinationSet::Words{rng.next() & 0xffff});
        required.remove(req);
        NodeId responder = invalidNode;
        if (!required.empty() && rng.chance(0.7)) {
            // pick some member as the owner
            required.forEach([&](NodeId n) { responder = n; });
        } else if (rng.chance(0.3)) {
            responder = req;  // upgrade
        }
        MissInfo miss = makeMiss(req, type, responder, required,
                                 static_cast<NodeId>(
                                     rng.uniformInt(kNodes)));

        auto broadcast = multicast.handleMiss(
            miss, DestinationSet::all(kNodes));
        ASSERT_FALSE(broadcast.indirection);
        ASSERT_EQ(broadcast.retries, 0u);

        DestinationSet predicted = required;
        predicted.add(req);
        predicted.add(miss.home);
        auto exact = multicast.handleMiss(miss, predicted);
        ASSERT_FALSE(exact.indirection);
        ASSERT_EQ(exact.latency,
                  snooping.handleMiss(miss, {}).latency);
        // The exact prediction never sends more request messages
        // than broadcast.
        ASSERT_LE(exact.requestMessages, broadcast.requestMessages);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MulticastProperty,
                         ::testing::Values(7, 8, 9, 10));

TEST(LatencyParams, PaperCalibration)
{
    LatencyParams lat;
    EXPECT_DOUBLE_EQ(lat.memoryFetch(), 180.0);
    EXPECT_DOUBLE_EQ(lat.directCacheToCache(), 112.0);
    EXPECT_DOUBLE_EQ(lat.indirectCacheToCache(), 242.0);
}

} // namespace
} // namespace dsp
