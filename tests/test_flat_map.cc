/**
 * @file
 * Unit tests for the open-addressing FlatMap/FlatSet, including a
 * randomized differential test against std::unordered_map and the
 * bounded-capacity-under-churn property the simulator's transaction
 * and MSHR tables rely on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

TEST(FlatMap, StartsEmpty)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(42), m.end());
    EXPECT_FALSE(m.contains(42));
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    m[7] = 70;
    m[0] = 1;  // key 0 is a valid key, not a sentinel
    auto [it, inserted] = m.try_emplace(9);
    EXPECT_TRUE(inserted);
    it->second = 90;

    EXPECT_EQ(m.size(), 3u);
    EXPECT_EQ(m.find(7)->second, 70);
    EXPECT_EQ(m.find(0)->second, 1);
    EXPECT_EQ(m.find(9)->second, 90);

    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.find(7), m.end());
    EXPECT_EQ(m.size(), 2u);

    // Erased keys can return.
    m[7] = 71;
    EXPECT_EQ(m.find(7)->second, 71);
}

TEST(FlatMap, EmplaceDoesNotOverwrite)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.emplace(5, 50).second);
    EXPECT_FALSE(m.emplace(5, 99).second);
    EXPECT_EQ(m.find(5)->second, 50);
}

TEST(FlatMap, IterationVisitsEveryLiveElementOnce)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    std::uint64_t expected_sum = 0;
    for (std::uint64_t k = 0; k < 100; ++k) {
        m[k * 977] = k;
        expected_sum += k;
    }
    m.erase(0 * 977);
    m.erase(50 * 977);
    expected_sum -= 0 + 50;

    std::uint64_t sum = 0;
    std::size_t count = 0;
    for (const auto &kv : m) {
        sum += kv.second;
        ++count;
    }
    EXPECT_EQ(count, m.size());
    EXPECT_EQ(sum, expected_sum);
}

TEST(FlatMap, SurvivesRehash)
{
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t k = 0; k < 10000; ++k)
        m[k] = k * 3;
    EXPECT_EQ(m.size(), 10000u);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        ASSERT_NE(m.find(k), m.end());
        EXPECT_EQ(m.find(k)->second, k * 3);
    }
}

TEST(FlatMap, ChurnDoesNotGrowCapacityUnboundedly)
{
    // Insert/erase steady state (the transaction table pattern): the
    // table must rebuild in place when tombstones accumulate, not
    // double forever.
    FlatMap<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        m[i] = i;
        if (i >= 16)
            m.erase(i - 16);
    }
    EXPECT_EQ(m.size(), 16u);
    EXPECT_LE(m.capacity(), 256u);
}

TEST(FlatMap, RandomizedDifferentialAgainstUnorderedMap)
{
    Rng rng(123);
    FlatMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    for (int op = 0; op < 200000; ++op) {
        std::uint64_t key = rng.uniformInt(512);
        switch (rng.uniformInt(3)) {
          case 0: {
            std::uint64_t value = rng.next();
            flat[key] = value;
            ref[key] = value;
            break;
          }
          case 1:
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
            break;
          default: {
            auto fit = flat.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(fit == flat.end(), rit == ref.end());
            if (rit != ref.end()) {
                ASSERT_EQ(fit->second, rit->second);
            }
            break;
          }
        }
    }
    EXPECT_EQ(flat.size(), ref.size());
    for (const auto &kv : ref) {
        auto it = flat.find(kv.first);
        ASSERT_NE(it, flat.end());
        EXPECT_EQ(it->second, kv.second);
    }
}

TEST(FlatMap, ClearResetsButKeepsCapacity)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k] = 1;
    std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(5), m.end());
}

TEST(FlatMap, ReserveAvoidsRehash)
{
    FlatMap<std::uint64_t, int> m;
    m.reserve(1000);
    std::size_t cap = m.capacity();
    EXPECT_GE(cap, 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k)
        m[k] = 1;
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatSet, InsertAndContains)
{
    FlatSet<std::uint64_t> s;
    EXPECT_TRUE(s.insert(3));
    EXPECT_FALSE(s.insert(3));
    EXPECT_TRUE(s.insert(4));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.contains(3));
    EXPECT_FALSE(s.contains(5));
    s.clear();
    EXPECT_TRUE(s.empty());
}

} // namespace
} // namespace dsp
