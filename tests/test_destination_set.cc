/**
 * @file
 * Unit and property tests for DestinationSet.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "mem/destination_set.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

/** The set whose word 0 is `low` (bit i <=> node i). */
DestinationSet
lowWord(std::uint64_t low)
{
    return DestinationSet::fromWords(DestinationSet::Words{low});
}

TEST(DestinationSet, StartsEmpty)
{
    DestinationSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_FALSE(s.contains(0));
}

TEST(DestinationSet, AddRemoveContains)
{
    DestinationSet s;
    s.add(3);
    s.add(7);
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(7));
    EXPECT_FALSE(s.contains(5));
    EXPECT_EQ(s.count(), 2u);
    s.remove(3);
    EXPECT_FALSE(s.contains(3));
    EXPECT_EQ(s.count(), 1u);
}

TEST(DestinationSet, AllCoversExactlyNNodes)
{
    // Whole-word, partial-word, and boundary node counts, up to the
    // full 256-node machine.
    for (NodeId n : {1u, 4u, 16u, 63u, 64u, 65u, 127u, 128u, 129u,
                     255u, 256u}) {
        DestinationSet s = DestinationSet::all(n);
        EXPECT_EQ(s.count(), n);
        for (NodeId i = 0; i < n; ++i)
            EXPECT_TRUE(s.contains(i));
        if (n < maxNodes) {
            EXPECT_FALSE(s.contains(n));
        }
    }
}

TEST(DestinationSet, SingletonOf)
{
    DestinationSet s = DestinationSet::of(9);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_TRUE(s.contains(9));
}

TEST(DestinationSet, UnionIntersectionMinus)
{
    DestinationSet a = lowWord(0b1010);
    DestinationSet b = lowWord(0b0110);
    EXPECT_EQ((a | b).words(), lowWord(0b1110).words());
    EXPECT_EQ((a & b).words(), lowWord(0b0010).words());
    EXPECT_EQ(a.minus(b).words(), lowWord(0b1000).words());
}

TEST(DestinationSet, ContainsAllSemantics)
{
    DestinationSet big = lowWord(0b1111);
    DestinationSet small = lowWord(0b0101);
    EXPECT_TRUE(big.containsAll(small));
    EXPECT_FALSE(small.containsAll(big));
    EXPECT_TRUE(small.containsAll(DestinationSet{}));
    EXPECT_TRUE(small.containsAll(small));
}

TEST(DestinationSet, ForEachVisitsAscending)
{
    DestinationSet s = lowWord(0b101001);
    std::vector<NodeId> visited;
    s.forEach([&](NodeId n) { visited.push_back(n); });
    EXPECT_EQ(visited, (std::vector<NodeId>{0, 3, 5}));
}

TEST(DestinationSet, ToStringIsReadable)
{
    DestinationSet s;
    EXPECT_EQ(s.toString(), "{}");
    s.add(1);
    s.add(12);
    EXPECT_EQ(s.toString(), "{1,12}");
}

TEST(DestinationSet, OutOfRangePanics)
{
    DestinationSet s;
    PanicGuard guard;
    EXPECT_THROW(s.add(maxNodes), std::runtime_error);
    EXPECT_THROW(DestinationSet::all(0), std::runtime_error);
    EXPECT_THROW(DestinationSet::all(maxNodes + 1),
                 std::runtime_error);
}

TEST(DestinationSet, WordBoundaryMembership)
{
    // Nodes straddling every 64-bit word boundary of the backing
    // array land in the right word with the right shift.
    DestinationSet s;
    const NodeId probes[] = {0,   31,  63,  64,  65,  127,
                             128, 191, 192, 254, 255};
    for (NodeId n : probes)
        s.add(n);
    EXPECT_EQ(s.count(), std::size(probes));
    for (NodeId n : probes)
        EXPECT_TRUE(s.contains(n));
    EXPECT_FALSE(s.contains(62));
    EXPECT_FALSE(s.contains(66));
    EXPECT_FALSE(s.contains(129));
    for (NodeId n : probes) {
        s.remove(n);
        EXPECT_FALSE(s.contains(n));
    }
    EXPECT_TRUE(s.empty());
}

TEST(DestinationSet, ForEachCrossesWords)
{
    DestinationSet s;
    std::vector<NodeId> expect{5, 63, 64, 130, 200, 255};
    for (NodeId n : expect)
        s.add(n);
    std::vector<NodeId> visited;
    s.forEach([&](NodeId n) { visited.push_back(n); });
    EXPECT_EQ(visited, expect);
    EXPECT_EQ(s.toString(), "{5,63,64,130,200,255}");
}

TEST(DestinationSet, WideSetAlgebra)
{
    // Set operations over high words, where a uint64 mask cannot
    // represent the members.
    DestinationSet a = DestinationSet::all(256);
    DestinationSet b;
    b.add(10);
    b.add(100);
    b.add(250);
    EXPECT_TRUE(a.containsAll(b));
    EXPECT_FALSE(b.containsAll(a));
    EXPECT_EQ((a & b), b);
    EXPECT_EQ((a | b), a);
    DestinationSet rest = a.minus(b);
    EXPECT_EQ(rest.count(), 253u);
    EXPECT_FALSE(rest.contains(100));
    EXPECT_TRUE(rest.contains(99));
    EXPECT_TRUE(rest.contains(255));
    EXPECT_EQ((rest | b), a);
}

TEST(DestinationSet, FromWordsPlaneTakesOnlyCountWords)
{
    // A plane stores ceil(N/64) words per set; fromWords(ptr, count)
    // must read exactly those and leave the rest of the set empty.
    const std::uint64_t plane[] = {0x8000000000000001ull, 0x5ull,
                                   ~std::uint64_t{0}, 0x1ull};
    DestinationSet one = DestinationSet::fromWords(plane, 1);
    EXPECT_EQ(one.words(), lowWord(0x8000000000000001ull).words());
    EXPECT_TRUE(one.contains(0));
    EXPECT_TRUE(one.contains(63));
    EXPECT_FALSE(one.contains(64));

    DestinationSet two = DestinationSet::fromWords(plane + 1, 2);
    EXPECT_EQ(two.count(), 2u + 64u);
    EXPECT_TRUE(two.contains(0));
    EXPECT_TRUE(two.contains(2));
    EXPECT_TRUE(two.contains(127));
    EXPECT_FALSE(two.contains(128));

    DestinationSet all = DestinationSet::fromWords(
        plane, DestinationSet::wordCount);
    EXPECT_EQ(all, DestinationSet::fromWords(DestinationSet::Words{
                       plane[0], plane[1], plane[2], plane[3]}));
    EXPECT_TRUE(all.contains(192));
}

/** Property sweep over random sets: algebraic identities hold. */
class SetAlgebra : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SetAlgebra, Identities)
{
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        DestinationSet a = lowWord(rng.next());
        DestinationSet b = lowWord(rng.next());

        // union is commutative and contains both operands
        EXPECT_EQ((a | b), (b | a));
        EXPECT_TRUE((a | b).containsAll(a));
        EXPECT_TRUE((a | b).containsAll(b));

        // minus removes exactly the intersection
        EXPECT_EQ(a.minus(b).count() + (a & b).count(), a.count());
        EXPECT_TRUE((a.minus(b) & b).empty());

        // containsAll is equivalent to union absorption
        EXPECT_EQ(a.containsAll(b), (a | b) == a);

        // count matches forEach cardinality
        unsigned n = 0;
        a.forEach([&](NodeId) { ++n; });
        EXPECT_EQ(n, a.count());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetAlgebra,
                         ::testing::Values(1, 2, 3, 4, 5));

} // namespace
} // namespace dsp
