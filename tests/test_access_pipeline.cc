/**
 * @file
 * Tests for the staged probe/commit access pipeline and the L0
 * block-result filter (see docs/access_pipeline.md):
 *
 *  - the walk-counter invariants (L1-hit path touches zero L2 words;
 *    a repeat hit through the L0 walks nothing; an absorbed repeat
 *    touches zero packed-array words at all);
 *  - the staged API contract (side-effect-free probe, FillHandle
 *    carried in the staged result);
 *  - L0 staleness: every coherence action that can stale an L0 entry
 *    (remote invalidation, downgrade, local L1/L2 evictions, the
 *    writeback-race shape, stamp renormalization) must be bypassed by
 *    the next access;
 *  - randomized L0-on vs L0-off equivalence at the NodeCaches level
 *    and full-System equivalence (multicast + snooping, K=1 and K=4).
 */

#include <gtest/gtest.h>

#include "mem/node_caches.hh"
#include "sim/rng.hh"
#include "system/system.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

CacheParams
tinyCaches(bool l0 = true)
{
    CacheParams params;
    params.l1 = CacheGeometry{4 * 1024, 2};
    params.l2 = CacheGeometry{16 * 1024, 4};
    params.l0Filter = l0;
    return params;
}

// ------------------------------------------------- staged API shape

TEST(AccessPipeline, ProbeIsSideEffectFree)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Shared);

    std::uint64_t accesses = caches.accesses();
    std::uint64_t hits = caches.l1Hits();
    auto first = caches.probeAccess(0x1000, false);
    auto second = caches.probeAccess(0x1000, false);
    // No counter moved, and the second probe sees the same world.
    EXPECT_EQ(caches.accesses(), accesses);
    EXPECT_EQ(caches.l1Hits(), hits);
    EXPECT_EQ(first.result.l1Hit, second.result.l1Hit);
    EXPECT_EQ(first.path, second.path);

    caches.commitAccess(second);
    EXPECT_EQ(caches.accesses(), accesses + 1);
    EXPECT_EQ(caches.l1Hits(), hits + 1);
}

TEST(AccessPipeline, MissHandleRidesInTheStagedResult)
{
    // The FillHandle comes from the staged result, not a mutable
    // latch: a second (unrelated) access cannot clobber it.
    NodeCaches caches(tinyCaches());
    auto miss = caches.probeAccess(0x1000, false);
    caches.commitAccess(miss);
    ASSERT_EQ(miss.result.need, CoherenceNeed::GetShared);

    // An unrelated miss in between (this one would have overwritten
    // lastMissHandle()).
    auto other = caches.probeAccess(0x8000, true);
    caches.commitAccess(other);
    ASSERT_EQ(other.result.need, CoherenceNeed::GetExclusive);

    NodeCaches::FillHandle handle = miss.fillHandle();
    std::uint64_t l1_before = caches.l1TagWalks();
    std::uint64_t l2_before = caches.l2TagWalks();
    auto fill = caches.fill(0x1000, MosiState::Shared, &handle);
    EXPECT_FALSE(fill.evicted);
    if (NodeCaches::walkCounting) {
        EXPECT_EQ(caches.l1TagWalks(), l1_before);
        EXPECT_EQ(caches.l2TagWalks(), l2_before);
    }
    EXPECT_EQ(caches.stateOf(blockOf(0x1000)), MosiState::Shared);
}

// -------------------------------------------- walk-count invariants

TEST(AccessPipeline, L1HitPathTouchesZeroL2Words)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Shared);
    caches.l0Invalidate(blockOf(0x1000));  // force the walk path

    std::uint64_t l2_before = caches.l2TagWalks();
    auto result = caches.access(0x1000, false);
    EXPECT_TRUE(result.l1Hit);
    if (NodeCaches::walkCounting) {
        // The L1-hit path must not reach the L2 plane at all.
        EXPECT_EQ(caches.l2TagWalks(), l2_before);
    }
}

TEST(AccessPipeline, RepeatHitWalksNothing)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    // fill() recorded the block; this repeat resolves in the L0.
    std::uint64_t l1_before = caches.l1TagWalks();
    std::uint64_t l2_before = caches.l2TagWalks();
    std::uint64_t l0_before = caches.l0Hits();
    auto result = caches.access(0x1008, true);  // same block
    EXPECT_TRUE(result.l1Hit);
    EXPECT_EQ(result.need, CoherenceNeed::None);
    EXPECT_EQ(caches.l0Hits(), l0_before + 1);
    if (NodeCaches::walkCounting) {
        EXPECT_EQ(caches.l1TagWalks(), l1_before);
        EXPECT_EQ(caches.l2TagWalks(), l2_before);
    }
}

TEST(AccessPipeline, AbsorbedRepeatTouchesZeroPackedWords)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    // The fill's L1 touch is the newest stamp in the plane, so the
    // repeat is provably MRU: no walk, no touch, clock unchanged.
    std::uint32_t clock_before = caches.debugL1Clock();
    std::uint64_t absorbed_before = caches.l0Absorbed();
    auto result = caches.access(0x1000, false);
    EXPECT_TRUE(result.l1Hit);
    EXPECT_EQ(caches.l0Absorbed(), absorbed_before + 1);
    EXPECT_EQ(caches.debugL1Clock(), clock_before);

    // A run of repeats stays absorbed (the line stays globally MRU).
    caches.access(0x1008, true);
    caches.access(0x1010, false);
    EXPECT_EQ(caches.l0Absorbed(), absorbed_before + 3);
    EXPECT_EQ(caches.debugL1Clock(), clock_before);
}

TEST(AccessPipeline, NonMruRepeatRefreshesExactlyOneWord)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Shared);
    // A different block in a different L0 slot becomes the MRU line.
    caches.fill(0x8040, MosiState::Shared);

    std::uint32_t clock_before = caches.debugL1Clock();
    std::uint64_t absorbed_before = caches.l0Absorbed();
    std::uint64_t l1_before = caches.l1TagWalks();
    auto result = caches.access(0x1000, false);  // L0 hit, not MRU
    EXPECT_TRUE(result.l1Hit);
    EXPECT_EQ(caches.l0Absorbed(), absorbed_before);  // not absorbed
    // One LRU touch (clock advanced once), still zero walks.
    EXPECT_EQ(caches.debugL1Clock(), clock_before + 1);
    if (NodeCaches::walkCounting) {
        EXPECT_EQ(caches.l1TagWalks(), l1_before);
    }
}

// ------------------------------------------------------ L0 staleness

TEST(AccessPipeline, RemoteInvalidationBypassesStaleL0)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    EXPECT_TRUE(caches.access(0x1000, true).l1Hit);  // L0-resident

    // Remote GETX: the system fan-in pairs the hook with the action.
    caches.l0Invalidate(blockOf(0x1000));
    caches.invalidate(blockOf(0x1000));

    auto result = caches.access(0x1000, false);
    EXPECT_FALSE(result.l1Hit);
    EXPECT_EQ(result.need, CoherenceNeed::GetShared);
}

TEST(AccessPipeline, DowngradeBypassesStaleL0Writable)
{
    NodeCaches caches(tinyCaches());
    caches.fill(0x1000, MosiState::Modified);
    EXPECT_TRUE(caches.access(0x1000, true).l1Hit);  // writable in L0

    // Remote GETS to an owned block: M -> O, write permission gone.
    caches.l0Invalidate(blockOf(0x1000));
    caches.downgrade(blockOf(0x1000));

    // Reads still hit locally; a write must go through the upgrade
    // path, not the stale writable L0 result.
    EXPECT_EQ(caches.access(0x1000, false).need, CoherenceNeed::None);
    auto write = caches.access(0x1000, true);
    EXPECT_EQ(write.need, CoherenceNeed::GetExclusive);
    EXPECT_EQ(write.l2State, MosiState::Owned);
}

TEST(AccessPipeline, LocalL1EvictionBypassesStaleL0)
{
    // A conflicting L1 install silently evicts an L0-resident block;
    // NodeCaches invalidates its own victim's L0 entry.
    CacheParams params;
    params.l1 = CacheGeometry{1024, 1};      // 16 sets, direct-mapped
    params.l2 = CacheGeometry{16 * 1024, 4};
    NodeCaches caches(params);

    caches.fill(blockBase(0), MosiState::Shared);
    EXPECT_TRUE(caches.access(blockBase(0), false).l1Hit);
    // Block 16 maps to L1 set 0 as well: evicts block 0 from the L1
    // (but not from the larger L2).
    caches.fill(blockBase(16), MosiState::Shared);

    auto result = caches.access(blockBase(0), false);
    EXPECT_FALSE(result.l1Hit);  // a stale L0 hit would say L1
    EXPECT_TRUE(result.l2Hit);
    EXPECT_EQ(result.need, CoherenceNeed::None);
}

TEST(AccessPipeline, L2EvictionBypassesStaleL0)
{
    // The writeback-race shape: an L2 conflict eviction (dirty victim
    // headed for memory) must also kill the victim's L0 entry -- a
    // racing re-access would otherwise claim an L1 hit on a block the
    // node no longer caches at all.
    CacheParams params;
    params.l1 = CacheGeometry{1024, 1};
    params.l2 = CacheGeometry{4096, 1};  // 64 sets, direct-mapped
    NodeCaches caches(params);

    caches.fill(blockBase(0), MosiState::Modified);
    EXPECT_TRUE(caches.access(blockBase(0), true).l1Hit);
    auto fill = caches.fill(blockBase(64), MosiState::Shared);
    ASSERT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victim, 0u);
    EXPECT_EQ(fill.victimState, MosiState::Modified);

    auto result = caches.access(blockBase(0), false);
    EXPECT_FALSE(result.l1Hit);
    EXPECT_FALSE(result.l2Hit);
    EXPECT_EQ(result.need, CoherenceNeed::GetShared);
}

TEST(AccessPipeline, RenormalizationCannotFakeAbsorption)
{
    // Engineered collision: an L0 entry's recorded stamp equals the
    // post-renormalization clock, but the entry's line is NOT the MRU
    // line any more. The epoch guard must refuse the absorbed path
    // (which would silently skip a real LRU touch).
    CacheParams params;
    params.l1 = CacheGeometry{1024, 1};      // 16 sets, direct-mapped
    params.l2 = CacheGeometry{16 * 1024, 4};
    params.l0Filter = true;
    NodeCaches caches(params);

    // Four L1-resident blocks (clock 1..4), then block 16 evicts
    // block 0 from its L1 set: 4 valid lines, E recorded at stamp 5.
    caches.fill(blockBase(1), MosiState::Shared);
    caches.fill(blockBase(2), MosiState::Shared);
    caches.fill(blockBase(3), MosiState::Shared);
    caches.fill(blockBase(0), MosiState::Shared);
    caches.fill(blockBase(16), MosiState::Shared);  // evicts block 0
    EXPECT_EQ(caches.debugL1Clock(), 5u);

    // Force the next L1 touch to renormalize: stamps compress to
    // 1..4 (4 valid lines), then the touch stamps 5 -- numerically
    // equal to the L0 entry's recorded stamp, in a new epoch.
    caches.debugAdvanceL1Clock(
        std::numeric_limits<std::uint32_t>::max());
    caches.fill(blockBase(4), MosiState::Shared);
    EXPECT_EQ(caches.debugL1Clock(), 5u);

    std::uint64_t absorbed_before = caches.l0Absorbed();
    auto result = caches.access(blockBase(16), false);
    EXPECT_TRUE(result.l1Hit);
    // Refreshed (one touch), NOT absorbed: block 4 is the real MRU.
    EXPECT_EQ(caches.l0Absorbed(), absorbed_before);
    EXPECT_EQ(caches.debugL1Clock(), 6u);
}

// ------------------------------------------- equivalence, L0 on/off

TEST(AccessPipeline, RandomizedL0OnOffEquivalence)
{
    // The L0 is a pure accelerator: a random access/fill/coherence
    // stream must produce identical results and counters with it on
    // and off.
    NodeCaches on(tinyCaches(true));
    NodeCaches off(tinyCaches(false));
    Rng rng(12345);

    for (int i = 0; i < 200000; ++i) {
        std::uint64_t roll = rng.uniformInt(100);
        // Small block space so hits, conflicts, and evictions are
        // all common.
        Addr addr = blockBase(rng.uniformInt(1024)) +
                    rng.uniformInt(8) * 8;
        BlockId block = blockOf(addr);
        if (roll < 80) {
            bool write = rng.chance(0.3);
            auto a = on.access(addr, write);
            auto b = off.access(addr, write);
            ASSERT_EQ(a.need, b.need);
            ASSERT_EQ(a.l1Hit, b.l1Hit);
            ASSERT_EQ(a.l2Hit, b.l2Hit);
            ASSERT_EQ(a.l2State, b.l2State);
            if (a.need != CoherenceNeed::None) {
                MosiState grant =
                    a.need == CoherenceNeed::GetExclusive
                        ? MosiState::Modified
                        : (rng.chance(0.5) ? MosiState::Shared
                                           : MosiState::Owned);
                NodeCaches::FillHandle ha = on.lastMissHandle();
                NodeCaches::FillHandle hb = off.lastMissHandle();
                auto fa = on.fill(addr, grant, &ha);
                auto fb = off.fill(addr, grant, &hb);
                ASSERT_EQ(fa.evicted, fb.evicted);
                ASSERT_EQ(fa.victim, fb.victim);
                ASSERT_EQ(fa.victimState, fb.victimState);
            }
        } else if (roll < 90) {
            on.l0Invalidate(block);
            ASSERT_EQ(on.invalidate(block), off.invalidate(block));
        } else {
            on.l0Invalidate(block);
            ASSERT_EQ(on.downgrade(block), off.downgrade(block));
        }
    }

    EXPECT_EQ(on.accesses(), off.accesses());
    EXPECT_EQ(on.l1Hits(), off.l1Hits());
    EXPECT_EQ(on.l2Hits(), off.l2Hits());
    EXPECT_EQ(on.l2Misses(), off.l2Misses());
    EXPECT_EQ(on.upgrades(), off.upgrades());
    EXPECT_EQ(on.writebacks(), off.writebacks());
    EXPECT_GT(on.l0Hits(), 0u);
    EXPECT_EQ(off.l0Hits(), 0u);
    for (BlockId b = 0; b < 1024; ++b)
        ASSERT_EQ(on.stateOf(b), off.stateOf(b));
}

SystemStats
runMini(ProtocolKind protocol, bool l0, unsigned shards)
{
    auto workload = makeWorkload("barnes", 16, /* seed */ 11, 0.25);
    SystemParams params;
    params.nodes = 16;
    params.protocol = protocol;
    params.policy = PredictorPolicy::OwnerGroup;
    params.caches.l0Filter = l0;
    params.shards = shards;
    params.functionalWarmupMisses = 2000;
    params.warmupInstrPerCpu = 2000;
    params.measureInstrPerCpu = 6000;
    System system(*workload, params);
    return system.run();
}

void
expectFigureIdentical(const SystemStats &a, const SystemStats &b)
{
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.indirections, b.indirections);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.doubleRetries, b.doubleRetries);
    EXPECT_EQ(a.upgrades, b.upgrades);
    EXPECT_EQ(a.cacheToCache, b.cacheToCache);
    EXPECT_EQ(a.requestMessages, b.requestMessages);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.avgMissLatencyNs, b.avgMissLatencyNs);
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses);
}

TEST(AccessPipeline, SystemL0OnOffIdenticalMulticast)
{
    SystemStats on = runMini(ProtocolKind::Multicast, true, 1);
    SystemStats off = runMini(ProtocolKind::Multicast, false, 1);
    ASSERT_GT(on.misses, 100u);
    EXPECT_GT(on.l0Hits, 0u);
    EXPECT_EQ(off.l0Hits, 0u);
    expectFigureIdentical(on, off);
}

TEST(AccessPipeline, SystemL0OnOffIdenticalSnooping)
{
    SystemStats on = runMini(ProtocolKind::Snooping, true, 1);
    SystemStats off = runMini(ProtocolKind::Snooping, false, 1);
    ASSERT_GT(on.misses, 100u);
    expectFigureIdentical(on, off);
}

TEST(AccessPipeline, SystemL0OnOffIdenticalAtK4)
{
    // L0 on/off crossed with shard counts: all four runs must agree
    // (the L0 is per-node state, so its behaviour is partition
    // -independent by construction; this pins it).
    SystemStats on1 = runMini(ProtocolKind::Multicast, true, 1);
    SystemStats on4 = runMini(ProtocolKind::Multicast, true, 4);
    SystemStats off4 = runMini(ProtocolKind::Multicast, false, 4);
    expectFigureIdentical(on1, on4);
    EXPECT_EQ(on1.l0Hits, on4.l0Hits);
    EXPECT_EQ(on1.l0Absorbed, on4.l0Absorbed);
    expectFigureIdentical(on1, off4);
}

TEST(AccessPipeline, SystemL0OnOffIdenticalAtK4Snooping)
{
    SystemStats on1 = runMini(ProtocolKind::Snooping, true, 1);
    SystemStats on4 = runMini(ProtocolKind::Snooping, true, 4);
    SystemStats off4 = runMini(ProtocolKind::Snooping, false, 4);
    expectFigureIdentical(on1, on4);
    EXPECT_EQ(on1.l0Hits, on4.l0Hits);
    expectFigureIdentical(on1, off4);
}

// ----------------------------------------- workload scatter helpers

TEST(AccessPipeline, RankScattererMatchesScatterRank)
{
    // The per-region precomputed scatterer must be bit-identical to
    // the reference free function for every rank (the workload draw
    // streams depend on it).
    for (std::uint64_t blocks :
         {1ull, 5ull, 16ull, 100ull, 4096ull, 99991ull}) {
        RankScatterer scatter(blocks);
        for (std::uint64_t r = 0; r < std::min<std::uint64_t>(
                                          blocks * 2, 5000);
             ++r) {
            ASSERT_EQ(scatter.map(r), scatterRank(r, blocks))
                << "blocks=" << blocks << " rank=" << r;
        }
    }
}

TEST(AccessPipeline, FastModMatchesHardwareModulo)
{
    Rng rng(7);
    for (std::uint64_t d :
         {2ull, 3ull, 7ull, 16ull, 641ull, 99991ull,
          (1ull << 32) + 7}) {
        FastMod fm(d);
        for (int i = 0; i < 20000; ++i) {
            std::uint64_t n = rng.next();
            ASSERT_EQ(fm.mod(n), n % d) << "d=" << d << " n=" << n;
        }
        ASSERT_EQ(fm.mod(0), 0u);
        ASSERT_EQ(fm.mod(d), 0u);
        ASSERT_EQ(fm.mod(d - 1), d - 1);
    }
}

} // namespace
} // namespace dsp
