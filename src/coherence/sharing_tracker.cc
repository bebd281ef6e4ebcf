#include "coherence/sharing_tracker.hh"

#include "sim/logging.hh"

namespace dsp {

SharingTracker::SharingTracker(NodeId num_nodes, unsigned stride)
    : numNodes_(num_nodes),
      stride_(stride),
      sharerWords_((num_nodes + 63) / 64),
      recordWords_(2 + sharerWords_)
{
    dsp_assert(num_nodes > 0 && num_nodes <= maxNodes,
               "node count %u out of range", num_nodes);
    dsp_assert(stride > 0, "tracker block stride must be positive");
}

const std::uint64_t *
SharingTracker::findRecord(BlockId block) const
{
    std::uint64_t local = block / stride_;
    auto it = pageOf_.find(local >> pageBits);
    if (it == pageOf_.end())
        return nullptr;
    std::uint64_t slot = local & ((std::uint64_t{1} << pageBits) - 1);
    return pages_[it->second].data() + slot * recordWords_;
}

std::uint64_t *
SharingTracker::record(BlockId block)
{
    if (std::uint64_t *rec = findRecord(block))
        return rec;
    newPage((block / stride_) >> pageBits);
    return findRecord(block);
}

std::vector<std::uint64_t> &
SharingTracker::newPage(std::uint64_t page)
{
    pageOf_[page] = static_cast<std::uint32_t>(pages_.size());
    return pages_.emplace_back(std::size_t{recordWords_} << pageBits);
}

SharingTracker::BlockState
SharingTracker::decode(const std::uint64_t *rec) const
{
    BlockState st;
    st.lastOrder = rec[0];
    st.owner = static_cast<NodeId>(rec[1] - 1);
    DestinationSet::Words words{};
    std::copy_n(rec + 2, sharerWords_, words.begin());
    st.sharers = DestinationSet::fromWords(words);
    return st;
}

void
SharingTracker::encode(const BlockState &st, std::uint64_t *rec) const
{
    rec[0] = st.lastOrder;
    rec[1] = static_cast<NodeId>(st.owner + 1);
    std::copy_n(st.sharers.words().begin(), sharerWords_, rec + 2);
}

void
SharingTracker::forget(std::uint64_t *rec)
{
    std::fill_n(rec, recordWords_, 0);
    --tracked_;
}

SharingTracker::Transaction
SharingTracker::makeTransaction(const BlockState &st, NodeId requester,
                                RequestType type) const
{
    Transaction t;
    const bool cache_owned = st.owner != invalidNode;

    if (type == RequestType::GetShared) {
        t.grantedState = MosiState::Shared;
        if (cache_owned && st.owner != requester) {
            t.required.add(st.owner);
            t.responder = st.owner;
            t.cacheToCache = true;
        } else if (cache_owned) {
            // Requester already owns the block; degenerate hit.
            t.responder = requester;
            t.grantedState = MosiState::Owned;
        } else {
            t.responder = invalidNode;  // memory supplies
        }
        return t;
    }

    // GetExclusive: owner and every sharer other than the requester
    // must observe the request.
    t.grantedState = MosiState::Modified;
    t.required = st.sharers;
    t.required.remove(requester);
    if (cache_owned && st.owner != requester)
        t.required.add(st.owner);

    if (st.owner == requester) {
        t.responder = requester;           // upgrade from O
    } else if (cache_owned) {
        t.responder = st.owner;            // cache-to-cache transfer
        t.cacheToCache = true;
    } else if (st.sharers.contains(requester)) {
        t.responder = requester;           // upgrade from S
    } else {
        t.responder = invalidNode;         // memory supplies
    }
    return t;
}

SharingTracker::Transaction
SharingTracker::inspect(BlockId block, NodeId requester,
                        RequestType type) const
{
    dsp_assert(requester < numNodes_, "requester %u out of range",
               requester);
    const std::uint64_t *rec = findRecord(block);
    return makeTransaction(rec ? decode(rec) : BlockState{}, requester,
                           type);
}

void
SharingTracker::applyTo(BlockState &st, NodeId requester,
                        RequestType type, Tick now)
{
    st.lastOrder = now;
    if (type == RequestType::GetShared) {
        if (st.owner != requester)
            st.sharers.add(requester);
        // A cache owner stays owner (M -> O downgrade is local to it);
        // a memory owner stays memory.
    } else {
        st.owner = requester;
        st.sharers = DestinationSet{};
    }
}

void
SharingTracker::commit(std::uint64_t *rec, BlockState &st,
                       NodeId requester, RequestType type, Tick now)
{
    // Every applied request leaves the requester holding the block.
    if (!held(st))
        ++tracked_;
    applyTo(st, requester, type, now);
    encode(st, rec);
}

SharingTracker::Transaction
SharingTracker::apply(BlockId block, NodeId requester, RequestType type,
                      Tick now)
{
    dsp_assert(requester < numNodes_, "requester %u out of range",
               requester);
    std::uint64_t *rec = record(block);
    BlockState st = decode(rec);
    Transaction t = makeTransaction(st, requester, type);
    commit(rec, st, requester, type, now);
    return t;
}

SharingTracker::Transaction
SharingTracker::applyIfSufficient(BlockId block, NodeId requester,
                                  RequestType type,
                                  const DestinationSet &dests,
                                  bool &sufficient, Tick now)
{
    dsp_assert(requester < numNodes_, "requester %u out of range",
               requester);
    std::uint64_t *rec = record(block);
    BlockState st = decode(rec);
    Transaction t = makeTransaction(st, requester, type);
    // A default record requires no observers, so any dests is
    // sufficient there -- insufficiency implies real existing state.
    sufficient = dests.containsAll(t.required);
    if (sufficient)
        commit(rec, st, requester, type, now);
    return t;
}

Tick
SharingTracker::lastOrderedAt(BlockId block) const
{
    const std::uint64_t *rec = findRecord(block);
    return rec ? rec[0] : 0;
}

void
SharingTracker::evictShared(BlockId block, NodeId node)
{
    std::uint64_t *rec = findRecord(block);
    if (!rec)
        return;
    BlockState st = decode(rec);
    if (!held(st))
        return;
    st.sharers.remove(node);
    if (held(st))
        encode(st, rec);
    else
        forget(rec);
}

void
SharingTracker::evictOwned(BlockId block, NodeId node)
{
    std::uint64_t *rec = findRecord(block);
    if (!rec)
        return;
    BlockState st = decode(rec);
    if (!held(st))
        return;  // an untracked block: the notice is a no-op
    dsp_assert(st.owner == node,
               "writeback from node %u but owner is %u", node, st.owner);
    st.owner = invalidNode;
    if (held(st))
        encode(st, rec);
    else
        forget(rec);
}

NodeId
SharingTracker::ownerOf(BlockId block) const
{
    const std::uint64_t *rec = findRecord(block);
    return rec ? decode(rec).owner : invalidNode;
}

DestinationSet
SharingTracker::sharersOf(BlockId block) const
{
    const std::uint64_t *rec = findRecord(block);
    return rec ? decode(rec).sharers : DestinationSet{};
}

DestinationSet
SharingTracker::holdersOf(BlockId block) const
{
    const std::uint64_t *rec = findRecord(block);
    if (!rec)
        return DestinationSet{};
    BlockState st = decode(rec);
    DestinationSet holders = st.sharers;
    if (st.owner != invalidNode)
        holders.add(st.owner);
    return holders;
}

} // namespace dsp
