/**
 * @file
 * Global MOSI sharing state: for every block, who owns it (a cache or
 * memory) and which caches hold read-only copies.
 *
 * This is the functional heart of all three protocols. In a system with
 * a totally-ordered interconnect, coherence transactions are logically
 * serialized at the ordering point; this class applies that serialized
 * order. Protocols differ only in *who gets told* about each request
 * (the destination set) and hence in latency and traffic -- never in the
 * resulting sharing state.
 */

#ifndef DSP_COHERENCE_SHARING_TRACKER_HH
#define DSP_COHERENCE_SHARING_TRACKER_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/destination_set.hh"
#include "mem/mosi.hh"
#include "mem/types.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace dsp {

/**
 * Tracks owner + sharers per block and serializes MOSI transactions.
 *
 * Owner semantics: `invalidNode` means memory (at the block's home node)
 * owns the block; otherwise the named cache is in M or O.
 *
 * State lives in dense records sized to the machine (last-order tick,
 * owner, ceil(N/64) sharer words: 24 B up to 64 nodes, 48 B at 256),
 * in pages of 4096 records allocated on first touch. An absent page or
 * an all-zero record means memory owns the block, no sharers, last
 * order 0. A block whose last holder leaves has its record zeroed.
 */
class SharingTracker
{
  public:
    /**
     * A tracker for a `num_nodes`-node machine. With `stride` > 1 it
     * holds one hub's slice of blocks interleaved over `stride` hubs
     * (Topology::hubOf), and indexes each by block / stride, so the
     * slices together touch each record page once.
     */
    explicit SharingTracker(NodeId num_nodes, unsigned stride = 1);

    /** Result of serializing one coherence request. */
    struct Transaction {
        /**
         * Caches (other than the requester) that had to observe the
         * request for it to succeed: the owner for GETS; the owner and
         * all sharers for GETX. This is exactly the set whose size
         * Figure 2 histograms, and whose non-emptiness defines a
         * directory-protocol indirection (Table 2, rightmost column).
         */
        DestinationSet required;

        /**
         * Who supplies the data: a cache id, `invalidNode` for memory,
         * or the requester itself (upgrade: requester already holds
         * valid data, no data message needed).
         */
        NodeId responder = invalidNode;

        /** True if another cache supplies the data (3-hop in a
         *  directory protocol; a "cache-to-cache miss"). */
        bool cacheToCache = false;

        /** State the requester's L2 should install. */
        MosiState grantedState = MosiState::Invalid;
    };

    /**
     * Peek: what would this request require, without changing state?
     * Used by directories to build improved destination sets.
     */
    Transaction inspect(BlockId block, NodeId requester,
                        RequestType type) const;

    /**
     * Serialize a request: compute the transaction and update global
     * state (GETS: requester becomes sharer, M owner conceptually
     * downgrades to O; GETX: requester becomes sole M owner, sharers
     * are invalidated).
     */
    Transaction apply(BlockId block, NodeId requester, RequestType type,
                      Tick now = 0);

    /**
     * Snooping/multicast ordering point: serialize the request only if
     * `dests` covers the required observers (Section 4.1), with a
     * single state lookup. Returns the transaction and sets
     * `sufficient`; when insufficient, no state changes and the
     * transaction reflects what *would* be required.
     */
    Transaction applyIfSufficient(BlockId block, NodeId requester,
                                  RequestType type,
                                  const DestinationSet &dests,
                                  bool &sufficient, Tick now = 0);

    /**
     * Tick of the last applied (state-changing) ordering for `block`;
     * 0 if none since tracking began. Lets a delayed eviction notice
     * detect that a later ordering superseded it.
     */
    Tick lastOrderedAt(BlockId block) const;

    /** A sharer dropped its S copy (clean eviction). */
    void evictShared(BlockId block, NodeId node);

    /** The owner wrote the block back; memory becomes owner. */
    void evictOwned(BlockId block, NodeId node);

    /** Current owner (invalidNode = memory). */
    NodeId ownerOf(BlockId block) const;

    /** Current sharers (read-only copy holders, owner not included). */
    DestinationSet sharersOf(BlockId block) const;

    /** All caches holding the block: sharers plus cache owner. */
    DestinationSet holdersOf(BlockId block) const;

    /** Number of nodes in the system. */
    NodeId numNodes() const { return numNodes_; }

    /** Number of blocks with any non-default state. */
    std::size_t trackedBlocks() const { return tracked_; }

    /**
     * Checkpoint the touched pages in ascending page-id order, so the
     * bytes do not depend on the order in which pages were first
     * touched.
     */
    template <typename W>
    void
    ckptSave(W &w) const
    {
        w.u64(numNodes_);
        w.u64(stride_);
        w.u64(tracked_);
        std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
        for (const auto &entry : pageOf_)
            order.push_back(entry);
        std::sort(order.begin(), order.end());
        w.u64(order.size());
        for (const auto &[page, index] : order) {
            w.u64(page);
            w.bytes(pages_[index].data(),
                    pages_[index].size() * sizeof(std::uint64_t));
        }
    }

    template <typename R>
    void
    ckptLoad(R &r)
    {
        std::uint64_t nodes = r.u64();
        dsp_assert(nodes == numNodes_,
                   "checkpoint sharing tracker built for %llu nodes, "
                   "this machine has %u",
                   static_cast<unsigned long long>(nodes), numNodes_);
        std::uint64_t stride = r.u64();
        dsp_assert(stride == stride_,
                   "checkpoint sharing tracker has block stride %llu, "
                   "this machine has %u",
                   static_cast<unsigned long long>(stride), stride_);
        tracked_ = r.u64();
        pageOf_ = {};
        pages_.clear();
        std::uint64_t count = r.u64();
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t page = r.u64();
            std::vector<std::uint64_t> &words = newPage(page);
            r.bytes(words.data(), words.size() * sizeof(std::uint64_t));
        }
    }

  private:
    /** Owner, sharers and last-order tick of one block, decoded from
     *  (and encoded back into) its record. */
    struct BlockState {
        NodeId owner = invalidNode;  ///< invalidNode = memory owns
        DestinationSet sharers;      ///< S-state holders
        /** Serialization tick of the last applied request (0 for
         *  functional/trace use, which passes no clock). */
        Tick lastOrder = 0;
    };

    /** Blocks per record page (2^pageBits). */
    static constexpr unsigned pageBits = 12;

    NodeId numNodes_;
    /** Blocks are interleaved over `stride_` trackers; this one holds
     *  every stride_-th block and indexes it by block / stride_. */
    unsigned stride_;
    /** Sharer words per record: ceil(numNodes_ / 64). */
    unsigned sharerWords_;
    /** Words per record: lastOrder, owner + 1 (0 = memory), sharers.
     *  An all-zero record is the default state. */
    unsigned recordWords_;
    /** Records with a holder (the non-default ones). */
    std::size_t tracked_ = 0;
    /** Page id (local index >> pageBits) -> index into pages_. */
    FlatMap<std::uint64_t, std::uint32_t> pageOf_;
    /** Dense record pages, allocated zeroed on first touch. */
    std::vector<std::vector<std::uint64_t>> pages_;

    /** The block's record, or nullptr if its page was never touched. */
    const std::uint64_t *findRecord(BlockId block) const;

    std::uint64_t *
    findRecord(BlockId block)
    {
        return const_cast<std::uint64_t *>(
            std::as_const(*this).findRecord(block));
    }

    /** The block's record, allocating its page on first touch. */
    std::uint64_t *record(BlockId block);

    /** Append a zeroed page for `page` and map it. */
    std::vector<std::uint64_t> &newPage(std::uint64_t page);

    BlockState decode(const std::uint64_t *rec) const;
    void encode(const BlockState &st, std::uint64_t *rec) const;

    /** True if any cache holds the block (the record is not the
     *  default state). */
    static bool
    held(const BlockState &st)
    {
        return st.owner != invalidNode || !st.sharers.empty();
    }

    /** Zero the record of a block whose last holder left. */
    void forget(std::uint64_t *rec);

    Transaction
    makeTransaction(const BlockState &st, NodeId requester,
                    RequestType type) const;

    /** Apply the serialized request to `st` and store it in `rec`. */
    void commit(std::uint64_t *rec, BlockState &st, NodeId requester,
                RequestType type, Tick now);

    /** Mutate `st` as the serialized request dictates. */
    static void applyTo(BlockState &st, NodeId requester,
                        RequestType type, Tick now);
};

} // namespace dsp

#endif // DSP_COHERENCE_SHARING_TRACKER_HH
