/**
 * @file
 * Unit tests for PredictorTable: finite sizing invariants (requested
 * capacity is never silently shrunk), allocation/eviction accounting,
 * LRU replacement checked against a naive reference model, and the
 * unbounded (flat-map backed) variant.
 */

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "checkpoint/checkpoint.hh"
#include "core/indexing.hh"
#include "core/predictor_table.hh"
#include "lru_model.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

struct Entry {
    int value = 0;
    bool live = false;       ///< set by the model check on allocation
    std::uint64_t key = 0;   ///< the key the entry was allocated for
};

/**
 * A finite table and the reference model driven through the same
 * random find / probeOrInsert (allocating or not) / findOrAllocate
 * sequence. Every step must agree on hit or miss, on the evicted key
 * (the table must no longer hold it), on size, and on all four
 * counters; a hit must return the entry allocated for that very key.
 */
struct ModelCheck {
    ModelCheck(std::size_t entries, std::size_t ways,
               std::size_t model_sets, std::size_t model_ways)
        : table(entries, ways), model(model_sets, model_ways)
    {
    }

    void
    run(Rng &rng, std::uint64_t key_base, std::uint64_t key_span, int ops)
    {
        for (int i = 0; i < ops; ++i) {
            std::uint64_t key = key_base + rng.uniformInt(key_span);
            int op = static_cast<int>(rng.uniformInt(4));
            bool held = model.find(key);
            Entry *entry = nullptr;
            if (op == 0)
                entry = table.find(key);
            else if (op == 1)
                entry = table.probeOrInsert(key, false);
            else if (op == 2)
                entry = table.probeOrInsert(key, true);
            else
                entry = &table.findOrAllocate(key);
            lookups += op != 3;
            hits += held && op != 3;

            if (held) {
                ASSERT_NE(entry, nullptr) << "key " << key;
                ASSERT_TRUE(entry->live && entry->key == key)
                    << "key " << key << " aliased key " << entry->key;
            } else if (op < 2) {
                ASSERT_EQ(entry, nullptr) << "key " << key;
            } else {
                ASSERT_NE(entry, nullptr);
                ASSERT_FALSE(entry->live) << "allocation not default";
                *entry = Entry{0, true, key};
                ++allocations;
                if (std::optional<std::uint64_t> victim = model.insert(key)) {
                    ++evictions;
                    // A miss leaves LRU state alone on both sides.
                    ASSERT_FALSE(model.find(*victim, false));
                    ASSERT_EQ(table.find(*victim), nullptr)
                        << "expected key " << *victim << " evicted";
                    ++lookups;
                }
            }
            ASSERT_EQ(table.size(), model.size());
            ASSERT_EQ(table.lookups(), lookups);
            ASSERT_EQ(table.hits(), hits);
            ASSERT_EQ(table.allocations(), allocations);
            ASSERT_EQ(table.evictions(), evictions);
        }
    }

    PredictorTable<Entry> table;
    LruModel model;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t allocations = 0;
    std::uint64_t evictions = 0;
};

TEST(PredictorTable, CapacityNeverBelowRequestedEntries)
{
    // 10 entries 4-way used to floor to 2 sets = capacity 8; the set
    // count must round up instead.
    PredictorTable<Entry> t(10, 4);
    EXPECT_FALSE(t.unbounded());
    EXPECT_GE(t.capacity(), 10u);
    EXPECT_EQ(t.capacity(), 12u);  // 3 sets x 4 ways

    PredictorTable<Entry> exact(8192, 4);
    EXPECT_EQ(exact.capacity(), 8192u);

    PredictorTable<Entry> prime(13, 4);
    EXPECT_GE(prime.capacity(), 13u);

    // ways > entries clamps to fully-associative over `entries`.
    PredictorTable<Entry> clamped(3, 8);
    EXPECT_EQ(clamped.capacity(), 3u);
}

TEST(PredictorTable, FindNeverAllocates)
{
    PredictorTable<Entry> t(16, 4);
    EXPECT_EQ(t.find(1), nullptr);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.allocations(), 0u);
    EXPECT_EQ(t.lookups(), 1u);
    EXPECT_EQ(t.hits(), 0u);
}

TEST(PredictorTable, FindOrAllocateFillsAndEvicts)
{
    // 4 entries, 2 ways -> 2 sets.
    PredictorTable<Entry> t(4, 2);
    for (std::uint64_t k = 0; k < 4; ++k)
        t.findOrAllocate(k).value = static_cast<int>(k);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.allocations(), 4u);
    EXPECT_EQ(t.evictions(), 0u);

    // A fifth key lands in some set and evicts its LRU way.
    t.findOrAllocate(4).value = 4;
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.evictions(), 1u);
    Entry *entry = t.find(4);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->value, 4);
}

TEST(PredictorTable, UnboundedVariantGrowsWithoutEviction)
{
    PredictorTable<Entry> t(0, 0);
    EXPECT_TRUE(t.unbounded());
    EXPECT_EQ(t.capacity(), 0u);
    for (std::uint64_t k = 0; k < 5000; ++k)
        t.findOrAllocate(k).value = static_cast<int>(k);
    EXPECT_EQ(t.size(), 5000u);
    EXPECT_EQ(t.evictions(), 0u);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        Entry *entry = t.find(k);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->value, static_cast<int>(k));
    }
    EXPECT_EQ(t.hits(), 5000u);
}

TEST(PredictorTable, RandomizedMatchesLruModel)
{
    struct Geometry {
        std::size_t entries, ways, sets, effectiveWays;
    };
    const Geometry geometries[] = {
        {64, 4, 16, 4},  // power-of-two sets: shift/mask indexing
        {10, 4, 3, 4},   // 3 sets: division indexing
        {3, 8, 1, 3},    // ways > entries clamps to fully associative
        {16, 1, 16, 1},  // direct mapped
    };
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(testing::Message()
                     << g.entries << " entries, " << g.ways << " ways");
        ModelCheck check(g.entries, g.ways, g.sets, g.effectiveWays);
        ASSERT_EQ(check.table.capacity(), g.sets * g.effectiveWays);
        Rng rng(31);
        check.run(rng, 0, 3 * g.sets * g.effectiveWays, 4000);
    }
}

TEST(PredictorTable, ProgramCounterKeysAbove4G)
{
    // PC indexing keys on pc >> 2; a text segment at 16 GB puts every
    // key above 2^32, while key / sets still fits the 32-bit tags.
    std::uint64_t base = indexKey(IndexingMode::ProgramCounter, 0,
                                  std::uint64_t{1} << 34);
    ASSERT_GT(base, std::numeric_limits<std::uint32_t>::max());
    for (std::size_t entries : {64u, 48u}) {  // 16 sets, then 12
        SCOPED_TRACE(entries);
        ModelCheck check(entries, 4, entries / 4, 4);
        Rng rng(5);
        check.run(rng, base, 3 * entries, 4000);
    }
}

TEST(PredictorTable, LruOrderSurvivesStampRenormalization)
{
    ModelCheck check(16, 4, 4, 4);
    Rng rng(8);
    check.run(rng, 0, 48, 500);  // every set full, LRU order mixed
    // A few touches from now the use clock wraps and every stamp is
    // renormalized; evictions after that must still follow the model.
    check.table.debugSetUseClock(
        std::numeric_limits<std::uint32_t>::max() - 3);
    check.run(rng, 0, 48, 500);
}

TEST(PredictorTable, CheckpointRoundTripKeepsLruState)
{
    ModelCheck check(12, 4, 3, 4);
    Rng rng(13);
    check.run(rng, 0, 36, 500);

    ckpt::Writer w;
    check.table.ckptSave(w);
    PredictorTable<Entry> restored(12, 4);
    ckpt::Reader r(w.buffer());
    restored.ckptLoad(r);
    check.table = std::move(restored);
    check.run(rng, 0, 36, 500);
}

TEST(PredictorTable, TagBeyond32BitsPanics)
{
    // One set: the tag is the whole key. 2^32 - 1 is the last key that
    // fits; 2^32 must panic rather than alias key 0.
    PredictorTable<Entry> t(4, 4);
    std::uint64_t top = std::numeric_limits<std::uint32_t>::max();
    t.findOrAllocate(top).value = 7;
    ASSERT_NE(t.find(top), nullptr);
    EXPECT_EQ(t.find(top)->value, 7);

    PanicGuard guard;
    EXPECT_THROW(t.find(top + 1), std::runtime_error);
    EXPECT_THROW(t.probeOrInsert(top + 1, true), std::runtime_error);
    EXPECT_THROW(t.findOrAllocate(top + 1), std::runtime_error);
}

} // namespace
} // namespace dsp
