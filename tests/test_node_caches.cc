/**
 * @file
 * Unit tests for the per-node two-level cache hierarchy.
 */

#include <gtest/gtest.h>

#include "mem/node_caches.hh"

namespace dsp {
namespace {

CacheParams
tinyCaches()
{
    // 4 kB L1, 16 kB L2 keeps eviction tests small.
    CacheParams params;
    params.l1 = CacheGeometry{4 * 1024, 2};
    params.l2 = CacheGeometry{16 * 1024, 4};
    return params;
}

TEST(CacheGeometry, SetsComputation)
{
    CacheGeometry g{128 * 1024, 4};
    EXPECT_EQ(g.sets(), 512u);
    CacheGeometry l2{4 * 1024 * 1024, 4};
    EXPECT_EQ(l2.sets(), 16384u);
}

TEST(NodeCaches, ColdReadNeedsGetShared)
{
    NodeCaches caches(tinyCaches());
    auto result = caches.access(0x1000, false);
    EXPECT_EQ(result.need, CoherenceNeed::GetShared);
    EXPECT_FALSE(result.l1Hit);
    EXPECT_FALSE(result.l2Hit);
}

TEST(NodeCaches, ColdWriteNeedsGetExclusive)
{
    NodeCaches caches(tinyCaches());
    auto result = caches.access(0x1000, true);
    EXPECT_EQ(result.need, CoherenceNeed::GetExclusive);
}

TEST(NodeCaches, FillThenReadHitsL1)
{
    NodeCaches caches(tinyCaches());
    caches.access(0x1000, false);
    caches.fill(0x1000, MosiState::Shared);
    auto result = caches.access(0x1008, false);  // same block
    EXPECT_EQ(result.need, CoherenceNeed::None);
    EXPECT_TRUE(result.l1Hit);
}

TEST(NodeCaches, SharedWriteNeedsUpgrade)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Shared);
    auto result = caches.access(0x1000, true);
    EXPECT_EQ(result.need, CoherenceNeed::GetExclusive);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_EQ(result.l2State, MosiState::Shared);
    EXPECT_EQ(caches.upgrades(), 1u);
}

TEST(NodeCaches, OwnedWriteNeedsUpgrade)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Owned);
    auto result = caches.access(0x1000, true);
    EXPECT_EQ(result.need, CoherenceNeed::GetExclusive);
}

TEST(NodeCaches, ModifiedAllowsReadAndWrite)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    EXPECT_EQ(caches.access(0x1000, true).need, CoherenceNeed::None);
    EXPECT_EQ(caches.access(0x1000, false).need, CoherenceNeed::None);
}

TEST(NodeCaches, UpgradeFillPromotesInPlace)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Shared);
    caches.access(0x1000, true);  // upgrade miss
    auto fill = caches.fill(0x1000, MosiState::Modified);
    EXPECT_FALSE(fill.evicted);
    EXPECT_EQ(caches.stateOf(blockOf(0x1000)), MosiState::Modified);
    EXPECT_EQ(caches.access(0x1000, true).need, CoherenceNeed::None);
}

TEST(NodeCaches, InvalidateDropsBothLevels)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    // Contract: callers of invalidate()/downgrade() pair them with
    // the l0Invalidate() hook (the system layer's coherence fan-in).
    caches.l0Invalidate(blockOf(0x1000));
    MosiState prior = caches.invalidate(blockOf(0x1000));
    EXPECT_EQ(prior, MosiState::Modified);
    auto result = caches.access(0x1000, false);
    EXPECT_EQ(result.need, CoherenceNeed::GetShared);
}

TEST(NodeCaches, DowngradeModifiedToOwned)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    caches.l0Invalidate(blockOf(0x1000));
    EXPECT_EQ(caches.downgrade(blockOf(0x1000)), MosiState::Owned);
    // Readable without coherence, but a write now needs an upgrade.
    EXPECT_EQ(caches.access(0x1000, false).need, CoherenceNeed::None);
    EXPECT_EQ(caches.access(0x1000, true).need,
              CoherenceNeed::GetExclusive);
}

TEST(NodeCaches, DowngradeAbsentBlockIsInvalid)
{
    NodeCaches caches(tinyCaches());
    EXPECT_EQ(caches.downgrade(123), MosiState::Invalid);
    EXPECT_EQ(caches.invalidate(123), MosiState::Invalid);
}

TEST(NodeCaches, L2EvictionReportsDirtyVictim)
{
    CacheParams params;
    params.l1 = CacheGeometry{1024, 1};
    params.l2 = CacheGeometry{4096, 1};  // 64 sets, direct mapped
    NodeCaches caches(params);

    // Two blocks mapping to the same L2 set: 64 sets * 64 B = 4096.
    Addr a = 0x0;
    Addr b = 0x1000;  // same set (4096 apart), different tag
    caches.fill(a, MosiState::Modified);
    auto fill = caches.fill(b, MosiState::Shared);
    ASSERT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victim, blockOf(a));
    EXPECT_EQ(fill.victimState, MosiState::Modified);
    EXPECT_EQ(caches.writebacks(), 1u);
}

TEST(NodeCaches, InclusionL2EvictionPurgesL1)
{
    CacheParams params;
    params.l1 = CacheGeometry{4096, 64};  // fully assoc, 64 lines
    params.l2 = CacheGeometry{4096, 1};
    NodeCaches caches(params);

    Addr a = 0x0, b = 0x1000;  // conflict in L2, not in L1
    caches.fill(a, MosiState::Shared);
    EXPECT_TRUE(caches.access(a, false).l1Hit);
    caches.fill(b, MosiState::Shared);  // evicts `a` from L2
    // Inclusion: `a` must also be gone from the L1.
    auto result = caches.access(a, false);
    EXPECT_FALSE(result.l1Hit);
    EXPECT_EQ(result.need, CoherenceNeed::GetShared);
}

TEST(NodeCaches, StatsCount)
{
    NodeCaches caches(tinyCaches());
    caches.access(0x1000, false);  // miss
    caches.fill(0x1000, MosiState::Shared);
    caches.access(0x1000, false);  // L1 hit
    caches.l0Invalidate(blockOf(0x1000));
    caches.invalidate(blockOf(0x1000));
    caches.access(0x1000, false);  // miss again
    EXPECT_EQ(caches.accesses(), 3u);
    EXPECT_EQ(caches.l1Hits(), 1u);
    EXPECT_EQ(caches.l2Misses(), 2u);
}

// ---------------------------------------------------- fill handles

TEST(NodeCachesHandle, FillViaMshrHandleDoesZeroExtraWalks)
{
    // The headline invariant of the probe/fill rework: after the
    // access walked the sets once, the fill() that completes the miss
    // must not walk any tag plane again. Pinned via the debug-build
    // walk counters (release builds count nothing and skip the exact
    // assertions; semantics are still exercised).
    NodeCaches caches(tinyCaches());
    auto result = caches.access(0x1000, false);
    ASSERT_EQ(result.need, CoherenceNeed::GetShared);
    NodeCaches::FillHandle handle = caches.lastMissHandle();

    std::uint64_t l1_before = caches.l1TagWalks();
    std::uint64_t l2_before = caches.l2TagWalks();
    auto fill = caches.fill(0x1000, MosiState::Shared, &handle);
    EXPECT_FALSE(fill.evicted);
    if (NodeCaches::walkCounting) {
        EXPECT_EQ(caches.l2TagWalks(), l2_before);
        EXPECT_EQ(caches.l1TagWalks(), l1_before);
    }
    EXPECT_EQ(caches.handleRewalks(), 0u);
    EXPECT_EQ(caches.access(0x1000, false).need, CoherenceNeed::None);
}

TEST(NodeCachesHandle, UpgradeFillViaHandleIsWalkFree)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Shared);
    auto result = caches.access(0x1000, true);  // upgrade miss
    ASSERT_EQ(result.need, CoherenceNeed::GetExclusive);
    NodeCaches::FillHandle handle = caches.lastMissHandle();

    std::uint64_t l2_before = caches.l2TagWalks();
    auto fill = caches.fill(0x1000, MosiState::Modified, &handle);
    EXPECT_FALSE(fill.evicted);
    if (NodeCaches::walkCounting) {
        EXPECT_EQ(caches.l2TagWalks(), l2_before);
    }
    EXPECT_EQ(caches.stateOf(blockOf(0x1000)), MosiState::Modified);
    EXPECT_EQ(caches.access(0x1000, true).need, CoherenceNeed::None);
}

TEST(NodeCachesHandle, FillAfterInvalidateOfSameSetRewalks)
{
    // A racing GETX invalidates a block in the *same L2 set* between
    // the access and its fill; the stale handle must re-walk and the
    // fill must prefer the way the invalidation just freed.
    CacheParams params;
    params.l1 = CacheGeometry{1024, 1};
    params.l2 = CacheGeometry{16 * 1024, 4};  // 64 sets, 4-way
    NodeCaches caches(params);

    // Three same-set residents (blocks 0, 64, 128 -> set 0).
    caches.fill(blockBase(0), MosiState::Shared);
    caches.fill(blockBase(64), MosiState::Shared);
    caches.fill(blockBase(128), MosiState::Shared);

    auto result = caches.access(blockBase(192), false);  // set 0 miss
    ASSERT_EQ(result.need, CoherenceNeed::GetShared);
    NodeCaches::FillHandle handle = caches.lastMissHandle();

    caches.l0Invalidate(64);
    caches.invalidate(64);  // frees a way in set 0 mid-flight

    auto fill = caches.fill(blockBase(192), MosiState::Shared, &handle);
    EXPECT_FALSE(fill.evicted);  // took the freed way, evicted no one
    EXPECT_GE(caches.handleRewalks(), 1u);
    EXPECT_EQ(caches.stateOf(0), MosiState::Shared);
    EXPECT_EQ(caches.stateOf(128), MosiState::Shared);
    EXPECT_EQ(caches.stateOf(192), MosiState::Shared);
}

TEST(NodeCachesHandle, FillAfterEvictionPressureOnSameSet)
{
    // Another miss's fill lands in the same L2 set between this
    // miss's access and fill (consuming the precomputed victim); the
    // handle re-walks and evicts exactly what a fresh install would.
    CacheParams params;
    params.l1 = CacheGeometry{1024, 1};
    params.l2 = CacheGeometry{16 * 1024, 4};  // 64 sets, 4-way
    NodeCaches caches(params);

    for (BlockId b : {0u, 64u, 128u, 192u})
        caches.fill(blockBase(b), MosiState::Shared);  // set 0 full

    auto result = caches.access(blockBase(256), false);  // set 0
    ASSERT_EQ(result.need, CoherenceNeed::GetShared);
    NodeCaches::FillHandle handle = caches.lastMissHandle();

    // A different miss fills the same set first, taking the LRU way
    // (block 0).
    auto other = caches.fill(blockBase(320), MosiState::Shared);
    ASSERT_TRUE(other.evicted);
    EXPECT_EQ(other.victim, 0u);

    auto fill = caches.fill(blockBase(256), MosiState::Shared, &handle);
    ASSERT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victim, 64u);  // the fresh LRU, not the stale one
    EXPECT_EQ(caches.stateOf(256), MosiState::Shared);
    EXPECT_EQ(caches.stateOf(320), MosiState::Shared);
}

TEST(NodeCachesHandle, FillAfterDowngradeKeepsInPlacePromotion)
{
    // A downgrade (external GETS) touches the L2 line between an
    // upgrade access and its fill; the fill still promotes in place.
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    caches.l0Invalidate(blockOf(0x1000));
    caches.downgrade(blockOf(0x1000));  // M -> O
    auto result = caches.access(0x1000, true);
    ASSERT_EQ(result.need, CoherenceNeed::GetExclusive);
    NodeCaches::FillHandle handle = caches.lastMissHandle();

    caches.l0Invalidate(blockOf(0x1000));
    caches.downgrade(blockOf(0x1000));  // no-op on O, but touches

    auto fill = caches.fill(0x1000, MosiState::Modified, &handle);
    EXPECT_FALSE(fill.evicted);
    EXPECT_EQ(caches.stateOf(blockOf(0x1000)), MosiState::Modified);
}

TEST(Mosi, StatePredicates)
{
    EXPECT_FALSE(canRead(MosiState::Invalid));
    EXPECT_TRUE(canRead(MosiState::Shared));
    EXPECT_TRUE(canRead(MosiState::Owned));
    EXPECT_TRUE(canRead(MosiState::Modified));
    EXPECT_TRUE(canWrite(MosiState::Modified));
    EXPECT_FALSE(canWrite(MosiState::Owned));
    EXPECT_FALSE(canWrite(MosiState::Shared));
    EXPECT_TRUE(isOwnerState(MosiState::Modified));
    EXPECT_TRUE(isOwnerState(MosiState::Owned));
    EXPECT_FALSE(isOwnerState(MosiState::Shared));
    EXPECT_EQ(toString(MosiState::Owned), "O");
}

TEST(MemTypes, BlockAndMacroblockMath)
{
    EXPECT_EQ(blockOf(0), 0u);
    EXPECT_EQ(blockOf(63), 0u);
    EXPECT_EQ(blockOf(64), 1u);
    EXPECT_EQ(blockBase(2), 128u);
    EXPECT_EQ(macroblockOf(1023), 0u);
    EXPECT_EQ(macroblockOf(1024), 1u);
    EXPECT_EQ(macroblockOf(512, 8), 2u);  // 256 B macroblocks
}

TEST(MemTypes, HomeInterleaving)
{
    EXPECT_EQ(homeOf(0, 16), 0u);
    EXPECT_EQ(homeOf(17, 16), 1u);
    EXPECT_EQ(homeOf(31, 16), 15u);
    // Consecutive blocks round-robin across nodes.
    for (BlockId b = 0; b < 64; ++b)
        EXPECT_EQ(homeOf(b, 16), b % 16);
}

} // namespace
} // namespace dsp
