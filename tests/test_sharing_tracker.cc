/**
 * @file
 * Unit and property tests for the global MOSI sharing tracker.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "checkpoint/checkpoint.hh"
#include "coherence/sharing_tracker.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dsp {
namespace {

constexpr BlockId kBlock = 42;

TEST(SharingTracker, ColdReadFromMemory)
{
    SharingTracker tracker(16);
    auto txn = tracker.apply(kBlock, 3, RequestType::GetShared);
    EXPECT_TRUE(txn.required.empty());
    EXPECT_EQ(txn.responder, invalidNode);
    EXPECT_FALSE(txn.cacheToCache);
    EXPECT_EQ(txn.grantedState, MosiState::Shared);
    EXPECT_EQ(tracker.ownerOf(kBlock), invalidNode);
    EXPECT_TRUE(tracker.sharersOf(kBlock).contains(3));
}

TEST(SharingTracker, ColdWriteFromMemory)
{
    SharingTracker tracker(16);
    auto txn = tracker.apply(kBlock, 5, RequestType::GetExclusive);
    EXPECT_TRUE(txn.required.empty());
    EXPECT_EQ(txn.responder, invalidNode);
    EXPECT_EQ(txn.grantedState, MosiState::Modified);
    EXPECT_EQ(tracker.ownerOf(kBlock), 5u);
    EXPECT_TRUE(tracker.sharersOf(kBlock).empty());
}

TEST(SharingTracker, ReadAfterWriteIsCacheToCache)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetExclusive);
    auto txn = tracker.apply(kBlock, 2, RequestType::GetShared);
    EXPECT_EQ(txn.required, DestinationSet::of(1));
    EXPECT_EQ(txn.responder, 1u);
    EXPECT_TRUE(txn.cacheToCache);
    // Owner keeps ownership (M -> O); requester becomes a sharer.
    EXPECT_EQ(tracker.ownerOf(kBlock), 1u);
    EXPECT_TRUE(tracker.sharersOf(kBlock).contains(2));
}

TEST(SharingTracker, WriteInvalidatesOwnerAndSharers)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetExclusive);
    tracker.apply(kBlock, 2, RequestType::GetShared);
    tracker.apply(kBlock, 3, RequestType::GetShared);

    auto txn = tracker.apply(kBlock, 4, RequestType::GetExclusive);
    // Must observe: owner (1) and sharers (2, 3).
    DestinationSet expected;
    expected.add(1);
    expected.add(2);
    expected.add(3);
    EXPECT_EQ(txn.required, expected);
    EXPECT_EQ(txn.responder, 1u);
    EXPECT_TRUE(txn.cacheToCache);
    EXPECT_EQ(tracker.ownerOf(kBlock), 4u);
    EXPECT_TRUE(tracker.sharersOf(kBlock).empty());
}

TEST(SharingTracker, UpgradeFromSharedNeedsNoData)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetShared);
    tracker.apply(kBlock, 2, RequestType::GetShared);

    // Node 1 upgrades: it already holds valid data.
    auto txn = tracker.apply(kBlock, 1, RequestType::GetExclusive);
    EXPECT_EQ(txn.responder, 1u);
    EXPECT_FALSE(txn.cacheToCache);
    EXPECT_EQ(txn.required, DestinationSet::of(2));
    EXPECT_EQ(tracker.ownerOf(kBlock), 1u);
}

TEST(SharingTracker, UpgradeFromOwned)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetExclusive);  // 1 owns M
    tracker.apply(kBlock, 2, RequestType::GetShared);     // 1 -> O
    auto txn = tracker.apply(kBlock, 1, RequestType::GetExclusive);
    EXPECT_EQ(txn.responder, 1u);  // upgrade in place
    EXPECT_EQ(txn.required, DestinationSet::of(2));
}

TEST(SharingTracker, RequiredNeverContainsRequester)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetShared);
    tracker.apply(kBlock, 2, RequestType::GetShared);
    auto txn = tracker.apply(kBlock, 1, RequestType::GetExclusive);
    EXPECT_FALSE(txn.required.contains(1));
}

TEST(SharingTracker, EvictSharedRemovesSharer)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetShared);
    tracker.apply(kBlock, 2, RequestType::GetShared);
    tracker.evictShared(kBlock, 1);
    EXPECT_FALSE(tracker.sharersOf(kBlock).contains(1));
    EXPECT_TRUE(tracker.sharersOf(kBlock).contains(2));
}

TEST(SharingTracker, EvictOwnedReturnsToMemory)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetExclusive);
    tracker.evictOwned(kBlock, 1);
    EXPECT_EQ(tracker.ownerOf(kBlock), invalidNode);
    // Next reader is served by memory again.
    auto txn = tracker.apply(kBlock, 2, RequestType::GetShared);
    EXPECT_EQ(txn.responder, invalidNode);
}

TEST(SharingTracker, FullyEvictedBlockIsForgotten)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetShared);
    EXPECT_EQ(tracker.trackedBlocks(), 1u);
    tracker.evictShared(kBlock, 1);
    EXPECT_EQ(tracker.trackedBlocks(), 0u);
}

TEST(SharingTracker, InspectDoesNotMutate)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetExclusive);
    auto before = tracker.ownerOf(kBlock);
    auto txn = tracker.inspect(kBlock, 2, RequestType::GetExclusive);
    EXPECT_EQ(txn.responder, 1u);
    EXPECT_EQ(tracker.ownerOf(kBlock), before);
    EXPECT_TRUE(tracker.sharersOf(kBlock).empty());
}

TEST(SharingTracker, HoldersCombineOwnerAndSharers)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetExclusive);
    tracker.apply(kBlock, 2, RequestType::GetShared);
    tracker.apply(kBlock, 3, RequestType::GetShared);
    DestinationSet holders = tracker.holdersOf(kBlock);
    EXPECT_TRUE(holders.contains(1));
    EXPECT_TRUE(holders.contains(2));
    EXPECT_TRUE(holders.contains(3));
    EXPECT_EQ(holders.count(), 3u);
}

TEST(SharingTracker, IndependentBlocks)
{
    SharingTracker tracker(16);
    tracker.apply(1, 1, RequestType::GetExclusive);
    tracker.apply(2, 2, RequestType::GetExclusive);
    EXPECT_EQ(tracker.ownerOf(1), 1u);
    EXPECT_EQ(tracker.ownerOf(2), 2u);
}

TEST(SharingTracker, GetsFromOwnerItselfIsDegenerate)
{
    SharingTracker tracker(16);
    tracker.apply(kBlock, 1, RequestType::GetExclusive);
    auto txn = tracker.apply(kBlock, 1, RequestType::GetShared);
    EXPECT_EQ(txn.responder, 1u);
    EXPECT_TRUE(txn.required.empty());
    EXPECT_EQ(txn.grantedState, MosiState::Owned);
}

TEST(SharingTracker, BadRequesterPanics)
{
    SharingTracker tracker(4);
    PanicGuard guard;
    EXPECT_THROW(tracker.apply(kBlock, 4, RequestType::GetShared),
                 std::runtime_error);
}

/** Checkpoint bytes do not depend on the order pages were first
 *  touched, and a restore reproduces every block's state. */
TEST(SharingTracker, CheckpointIsTouchOrderIndependent)
{
    // One block in each of 40 pages (4096 records apiece) of a hub
    // slice with stride 3, touched in opposite orders.
    constexpr int pages = 40;
    auto blockIn = [](int page) {
        return (BlockId{4096} * page + 5) * 3 + 2;
    };
    SharingTracker a(64, 3), b(64, 3);
    for (int p = 0; p < pages; ++p)
        a.apply(blockIn(p), p % 64, RequestType::GetExclusive, p + 1);
    for (int p = pages - 1; p >= 0; --p)
        b.apply(blockIn(p), p % 64, RequestType::GetExclusive, p + 1);

    ckpt::Writer wa, wb;
    a.ckptSave(wa);
    b.ckptSave(wb);
    EXPECT_EQ(wa.buffer(), wb.buffer());

    SharingTracker restored(64, 3);
    ckpt::Reader r(wb.buffer());
    restored.ckptLoad(r);
    EXPECT_EQ(restored.trackedBlocks(), static_cast<std::size_t>(pages));
    for (int p = 0; p < pages; ++p) {
        EXPECT_EQ(restored.ownerOf(blockIn(p)),
                  static_cast<NodeId>(p % 64));
        EXPECT_EQ(restored.lastOrderedAt(blockIn(p)),
                  static_cast<Tick>(p + 1));
    }
}

/**
 * Property sweep: a random request stream maintains the MOSI
 * invariants -- the owner is never in the sharer set, required sets
 * exclude the requester, GETX leaves exactly one holder, and a
 * sufficient-set check for the full-broadcast set always passes.
 */
class TrackerProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TrackerProperty, RandomStreamInvariants)
{
    const NodeId nodes = 16;
    SharingTracker tracker(nodes);
    Rng rng(GetParam());

    for (int i = 0; i < 5000; ++i) {
        BlockId block = rng.uniformInt(32);
        NodeId req = static_cast<NodeId>(rng.uniformInt(nodes));
        RequestType type = rng.chance(0.4)
                               ? RequestType::GetExclusive
                               : RequestType::GetShared;

        auto inspect = tracker.inspect(block, req, type);
        auto apply = tracker.apply(block, req, type);
        ASSERT_EQ(inspect.required, apply.required);
        ASSERT_EQ(inspect.responder, apply.responder);

        ASSERT_FALSE(apply.required.contains(req));
        ASSERT_TRUE(
            DestinationSet::all(nodes).containsAll(apply.required));

        NodeId owner = tracker.ownerOf(block);
        DestinationSet sharers = tracker.sharersOf(block);
        if (owner != invalidNode) {
            ASSERT_FALSE(sharers.contains(owner));
        }

        if (type == RequestType::GetExclusive) {
            ASSERT_EQ(owner, req);
            ASSERT_TRUE(sharers.empty());
        } else {
            ASSERT_TRUE(tracker.holdersOf(block).contains(req));
        }

        // Occasional random evictions keep the state space moving.
        if (rng.chance(0.05)) {
            NodeId victim = static_cast<NodeId>(rng.uniformInt(nodes));
            if (tracker.ownerOf(block) == victim)
                tracker.evictOwned(block, victim);
            else
                tracker.evictShared(block, victim);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/**
 * Reference model of the tracker's contract, with the erase semantics
 * of a hash map: a block is present while some cache holds it, and a
 * block whose last holder leaves is forgotten (last order back to 0).
 */
class ReferenceTracker
{
  public:
    struct State {
        NodeId owner = invalidNode;
        DestinationSet sharers;
        Tick lastOrder = 0;
    };

    SharingTracker::Transaction
    inspect(BlockId block, NodeId requester, RequestType type) const
    {
        auto it = blocks.find(block);
        return transaction(it == blocks.end() ? State{} : it->second,
                           requester, type);
    }

    SharingTracker::Transaction
    apply(BlockId block, NodeId requester, RequestType type, Tick now)
    {
        State &st = blocks[block];
        SharingTracker::Transaction t = transaction(st, requester, type);
        st.lastOrder = now;
        if (type == RequestType::GetShared) {
            if (st.owner != requester)
                st.sharers.add(requester);
        } else {
            st.owner = requester;
            st.sharers = DestinationSet{};
        }
        return t;
    }

    void
    evictShared(BlockId block, NodeId node)
    {
        auto it = blocks.find(block);
        if (it == blocks.end())
            return;
        it->second.sharers.remove(node);
        if (it->second.owner == invalidNode && it->second.sharers.empty())
            blocks.erase(it);
    }

    void
    evictOwned(BlockId block)
    {
        auto it = blocks.find(block);
        if (it == blocks.end())
            return;
        it->second.owner = invalidNode;
        if (it->second.sharers.empty())
            blocks.erase(it);
    }

    State
    at(BlockId block) const
    {
        auto it = blocks.find(block);
        return it == blocks.end() ? State{} : it->second;
    }

    std::map<BlockId, State> blocks;

  private:
    static SharingTracker::Transaction
    transaction(const State &st, NodeId requester, RequestType type)
    {
        SharingTracker::Transaction t;
        bool cached = st.owner != invalidNode;
        if (type == RequestType::GetShared) {
            t.grantedState = MosiState::Shared;
            if (cached && st.owner != requester) {
                t.required = DestinationSet::of(st.owner);
                t.responder = st.owner;
                t.cacheToCache = true;
            } else if (cached) {
                t.responder = requester;
                t.grantedState = MosiState::Owned;
            }
            return t;
        }
        t.grantedState = MosiState::Modified;
        t.required = st.sharers;
        t.required.remove(requester);
        if (cached && st.owner != requester) {
            t.required.add(st.owner);
            t.responder = st.owner;
            t.cacheToCache = true;
        } else if (st.owner == requester || st.sharers.contains(requester)) {
            t.responder = requester;
        }
        return t;
    }
};

void
expectSameTransaction(const SharingTracker::Transaction &got,
                      const SharingTracker::Transaction &want)
{
    ASSERT_EQ(got.required, want.required);
    ASSERT_EQ(got.responder, want.responder);
    ASSERT_EQ(got.cacheToCache, want.cacheToCache);
    ASSERT_EQ(got.grantedState, want.grantedState);
}

void
expectSameBlock(const SharingTracker &tracker,
                const ReferenceTracker &ref, BlockId block)
{
    ReferenceTracker::State st = ref.at(block);
    DestinationSet holders = st.sharers;
    if (st.owner != invalidNode)
        holders.add(st.owner);
    ASSERT_EQ(tracker.ownerOf(block), st.owner) << "block " << block;
    ASSERT_EQ(tracker.sharersOf(block), st.sharers) << "block " << block;
    ASSERT_EQ(tracker.holdersOf(block), holders) << "block " << block;
    ASSERT_EQ(tracker.lastOrderedAt(block), st.lastOrder)
        << "block " << block;
}

void
expectSameState(const SharingTracker &tracker,
                const ReferenceTracker &ref)
{
    ASSERT_EQ(tracker.trackedBlocks(), ref.blocks.size());
    for (const auto &entry : ref.blocks)
        expectSameBlock(tracker, ref, entry.first);
}

/**
 * Drives a tracker and the reference model with one random stream of
 * apply / applyIfSufficient / evictShared / evictOwned / inspect over
 * the blocks of one hub slice, comparing them after every step.
 * Blocks come from regions 1 GB apart (as the workload presets lay
 * them out) and span several record pages of each region.
 */
class TrackerDifferential
{
  public:
    TrackerDifferential(NodeId nodes, unsigned stride, std::uint64_t seed)
        : nodes_(nodes), stride_(stride), hub_(stride - 1), rng_(seed)
    {
    }

    BlockId
    block()
    {
        constexpr BlockId regionBlocks = (BlockId{1} << 30) / 64;
        BlockId base = (1 + rng_.uniformInt(4)) * regionBlocks;
        BlockId b = base + rng_.uniformInt(3 * 4096 * stride_);
        return b - b % stride_ + hub_;
    }

    NodeId node() { return static_cast<NodeId>(rng_.uniformInt(nodes_)); }

    void
    step(SharingTracker &tracker, ReferenceTracker &ref)
    {
        BlockId b = block();
        NodeId req = node();
        RequestType type = rng_.chance(0.4) ? RequestType::GetExclusive
                                            : RequestType::GetShared;
        // Functional callers pass no clock; model both.
        Tick now = rng_.chance(0.2) ? 0 : ++clock_;
        unsigned op = static_cast<unsigned>(rng_.uniformInt(10));
        if (op < 4) {
            auto want = ref.apply(b, req, type, now);
            expectSameTransaction(tracker.apply(b, req, type, now), want);
        } else if (op < 7) {
            DestinationSet dests;
            for (NodeId n = 0; n < nodes_; ++n)
                if (rng_.chance(0.5))
                    dests.add(n);
            auto want = ref.inspect(b, req, type);
            bool sufficient = false;
            auto got = tracker.applyIfSufficient(b, req, type, dests,
                                                 sufficient, now);
            expectSameTransaction(got, want);
            ASSERT_EQ(sufficient, dests.containsAll(want.required));
            if (sufficient)
                ref.apply(b, req, type, now);
        } else if (op < 8) {
            NodeId victim = node();
            tracker.evictShared(b, victim);
            ref.evictShared(b, victim);
        } else if (op < 9) {
            // A writeback from the owner, or a notice for a block with
            // no state (a no-op).
            NodeId owner = ref.at(b).owner;
            if (owner != invalidNode || !ref.blocks.count(b)) {
                tracker.evictOwned(b, owner == invalidNode ? req : owner);
                ref.evictOwned(b);
            }
        } else {
            expectSameTransaction(tracker.inspect(b, req, type),
                                  ref.inspect(b, req, type));
        }
        expectSameBlock(tracker, ref, b);
        ASSERT_EQ(tracker.trackedBlocks(), ref.blocks.size());
    }

  private:
    NodeId nodes_;
    unsigned stride_;
    unsigned hub_;
    Rng rng_;
    Tick clock_ = 0;
};

class TrackerVsReference
    : public ::testing::TestWithParam<std::tuple<NodeId, unsigned>>
{
};

TEST_P(TrackerVsReference, RandomStreamMatches)
{
    auto [nodes, stride] = GetParam();
    SharingTracker tracker(nodes, stride);
    ReferenceTracker ref;
    TrackerDifferential diff(nodes, stride, 1000 + nodes * 7 + stride);
    for (int i = 0; i < 20000; ++i) {
        diff.step(tracker, ref);
        if (::testing::Test::HasFatalFailure())
            return;
        if (i % 1000 == 999)
            expectSameState(tracker, ref);
    }
    expectSameState(tracker, ref);
}

/** A copy-assigned snapshot and its source diverge independently, as
 *  the benchmark's window snapshot does. */
TEST_P(TrackerVsReference, CopyAssignThenDiverge)
{
    auto [nodes, stride] = GetParam();
    SharingTracker live(nodes, stride);
    ReferenceTracker live_ref;
    TrackerDifferential diff(nodes, stride, 2000 + nodes * 7 + stride);
    for (int i = 0; i < 5000; ++i)
        diff.step(live, live_ref);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());

    SharingTracker snapshot{1};
    snapshot = live;
    ReferenceTracker snapshot_ref = live_ref;
    expectSameState(snapshot, snapshot_ref);
    for (int i = 0; i < 5000; ++i) {
        diff.step(live, live_ref);
        diff.step(snapshot, snapshot_ref);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectSameState(live, live_ref);
    expectSameState(snapshot, snapshot_ref);
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndStrides, TrackerVsReference,
    ::testing::Combine(::testing::Values<NodeId>(2, 16, 64, 65, 256),
                       ::testing::Values(1u, 3u, 4u)));

} // namespace
} // namespace dsp
