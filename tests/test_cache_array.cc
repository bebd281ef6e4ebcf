/**
 * @file
 * Unit tests for the packed set-associative cache array, checked
 * against a naive true-LRU reference model.
 */

#include <gtest/gtest.h>

#include <limits>

#include "lru_model.hh"
#include "mem/packed_cache_array.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

/**
 * Deterministic LRU scenario against the reference model, at 4 ways
 * (the SWAR tag compare) and at 2 and 8 ways (the scalar walk).
 */
TEST(PackedCacheArray, InsertFindEvictMatchesLruModel)
{
    for (std::size_t ways : {2u, 4u, 8u}) {
        SCOPED_TRACE(ways);
        PackedCacheArray<2> cache(1, ways);
        LruModel model(1, ways);
        for (std::uint64_t k = 1; k <= ways; ++k) {
            EXPECT_FALSE(cache.insert(k, k & 3).has_value());
            EXPECT_FALSE(model.insert(k).has_value());
        }
        ASSERT_NE(cache.find(1), nullptr);  // key 2 becomes LRU
        ASSERT_TRUE(model.find(1));
        auto evicted = cache.insert(100, 1);
        auto modelEvicted = model.insert(100);
        ASSERT_TRUE(evicted.has_value());
        ASSERT_TRUE(modelEvicted.has_value());
        EXPECT_EQ(evicted->key, 2u);
        EXPECT_EQ(evicted->key, *modelEvicted);
        EXPECT_EQ(evicted->payload, 2u);
        EXPECT_EQ(cache.size(), model.size());
        EXPECT_EQ(cache.peek(100).value(), 1u);
        EXPECT_FALSE(cache.peek(2).has_value());
    }
}

TEST(PackedCacheArray, PayloadMutationInPlace)
{
    PackedCacheArray<2> cache(4, 2);
    cache.insert(10, 3);
    auto *entry = cache.find(10);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(PackedCacheArray<2>::payloadOf(*entry), 3u);
    PackedCacheArray<2>::setPayload(*entry, 2);
    EXPECT_EQ(cache.peek(10).value(), 2u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(PackedCacheArray, EraseAndClear)
{
    PackedCacheArray<1> cache(4, 4);
    for (std::uint64_t k = 0; k < 10; ++k)
        cache.insert(k, static_cast<std::uint32_t>(k & 1));
    EXPECT_EQ(cache.size(), 10u);
    EXPECT_EQ(cache.erase(3).value(), 1u);
    EXPECT_FALSE(cache.erase(3).has_value());
    EXPECT_EQ(cache.size(), 9u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.peek(0).has_value());
}

TEST(PackedCacheArray, HandleStaleAfterEraseFreesWay)
{
    PackedCacheArray<2> cache(1, 2);
    cache.insert(1, 1);
    cache.insert(2, 2);
    auto h = cache.probe(3);
    cache.erase(2);
    auto evicted = cache.fillAt(h, 3);
    EXPECT_FALSE(evicted.has_value());  // re-walk found the free way
    EXPECT_GE(cache.rewalks(), 1u);
    ASSERT_NE(cache.find(1), nullptr);
    ASSERT_NE(cache.find(3), nullptr);
}

TEST(PackedCacheArray, HandleSurvivesRenormalization)
{
    PackedCacheArray<2> cache(2, 2);
    cache.insert(1, 1);
    auto h = cache.probe(3);
    cache.debugSetUseClock(std::numeric_limits<std::uint32_t>::max());
    cache.find(1);  // renormalizes every stamp
    auto evicted = cache.fillAt(h, 2);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(cache.peek(3).value(), 2u);
    EXPECT_EQ(cache.peek(1).value(), 1u);
}

/**
 * Property: packed probe/fillAt and packed find/insert agree with each
 * other and with the reference LRU model (hit/miss, evicted key, size)
 * under random lookups, fills, and erases, at 4 ways (SWAR) and at 2
 * and 8 ways (scalar; 8 also exceeds the handle's snapshot width).
 */
TEST(PackedCacheArray, RandomizedEquivalenceWithLruModel)
{
    constexpr std::size_t sets = 8;
    for (std::size_t ways : {2u, 4u, 8u}) {
        SCOPED_TRACE(ways);
        PackedCacheArray<2> packedHandles(sets, ways);
        PackedCacheArray<2> packedInsert(sets, ways);
        LruModel model(sets, ways);
        Rng rng(77);

        for (int i = 0; i < 5000; ++i) {
            // Three keys per line: every set sees steady eviction.
            std::uint64_t key = rng.uniformInt(3 * sets * ways);
            std::uint32_t payload =
                static_cast<std::uint32_t>(rng.uniformInt(4));
            int op = static_cast<int>(rng.uniformInt(10));
            if (op < 4) {
                auto h = packedHandles.probe(key);
                auto *pi = packedInsert.find(key);
                ASSERT_EQ(h.hit(), pi != nullptr);
                ASSERT_EQ(h.hit(), model.find(key));
                if (h.hit()) {
                    ASSERT_EQ(packedHandles.at(h),
                              PackedCacheArray<2>::payloadOf(*pi));
                    packedHandles.touchAt(h);
                }
            } else if (op < 8) {
                auto h = packedHandles.probe(key);
                auto ea = packedHandles.fillAt(h, payload);
                auto eb = packedInsert.insert(key, payload);
                auto em = model.insert(key);
                ASSERT_EQ(ea.has_value(), eb.has_value());
                ASSERT_EQ(ea.has_value(), em.has_value());
                if (ea) {
                    ASSERT_EQ(ea->key, eb->key);
                    ASSERT_EQ(ea->key, *em);
                    ASSERT_EQ(ea->payload, eb->payload);
                }
            } else {
                auto ea = packedHandles.erase(key);
                auto eb = packedInsert.erase(key);
                ASSERT_EQ(ea.has_value(), eb.has_value());
                ASSERT_EQ(ea.has_value(), model.erase(key));
            }
            ASSERT_EQ(packedHandles.size(), packedInsert.size());
            ASSERT_EQ(packedHandles.size(), model.size());
        }
    }
}

/**
 * 64/256-node scaling regression for the 32-bit packed word: keys up
 * to maxKey() round-trip through the compressed tag, one past it
 * panics (always-on, so a too-small geometry can never silently alias
 * tags), and the Table-4 L1/L2 geometries clear the largest block
 * address any workload can generate at the full 256-node machine.
 */
TEST(PackedCacheArray, CompressedTagCeiling)
{
    PackedCacheArray<2> pow2(16, 4);  // tag = key >> 4, 30 bits
    std::uint64_t top = pow2.maxKey();
    EXPECT_EQ(top, (std::uint64_t{1} << 34) - 1);
    EXPECT_FALSE(pow2.insert(top, 3).has_value());
    ASSERT_NE(pow2.find(top), nullptr);
    EXPECT_EQ(pow2.peek(top).value(), 3u);
    {
        PanicGuard guard;
        EXPECT_THROW(pow2.insert(top + 1, 0), std::runtime_error);
    }

    PackedCacheArray<1> odd(3, 2);  // non-pow2 sets: key / 3 path
    std::uint64_t odd_top = odd.maxKey();
    EXPECT_FALSE(odd.insert(odd_top, 1).has_value());
    EXPECT_EQ(odd.peek(odd_top).value(), 1u);
    {
        PanicGuard guard;
        EXPECT_THROW(odd.insert(odd_top + 1, 0), std::runtime_error);
    }

    // The simulated L1/L2 planes, Table-4 geometry: the workload
    // generator lays regions 1 GB apart starting at 1 GB, at most a
    // handful of regions per preset and no node-count-dependent
    // growth, so the top block id stays below 2^30 at every node
    // count while both planes accept keys well past 2^40.
    PackedCacheArray<1> l1(128 * 1024 / 64 / 4, 4);
    PackedCacheArray<2> l2(4 * 1024 * 1024 / 64 / 4, 4);
    constexpr std::uint64_t top_block = (std::uint64_t{1} << 30) - 1;
    EXPECT_GE(l1.maxKey(), top_block);
    EXPECT_GE(l2.maxKey(), top_block);
    EXPECT_FALSE(l2.insert(top_block, 2).has_value());
    EXPECT_EQ(l2.peek(top_block).value(), 2u);
}

} // namespace
} // namespace dsp
