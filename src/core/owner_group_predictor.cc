#include "core/owner_group_predictor.hh"

#include "sim/logging.hh"

namespace dsp {

template <unsigned Words>
BasicOwnerGroupPredictor<Words>::BasicOwnerGroupPredictor(
    const PredictorConfig &config)
    : Predictor(config), table_(config.entries, config.ways)
{
    dsp_assert(config.numNodes <= nodeCapacity,
               "%u nodes exceed a %u-word Owner-Group entry (%u nodes)",
               config.numNodes, Words, nodeCapacity);
}

template <unsigned Words>
DestinationSet
BasicOwnerGroupPredictor<Words>::predict(Addr addr, Addr pc,
                                         RequestType type,
                                         NodeId requester, NodeId home)
{
    DestinationSet set = minimalSet(requester, home);
    Entry *entry = table_.find(indexKey(config_.indexing, addr, pc));
    if (!entry)
        return set;

    if (type == RequestType::GetShared) {
        // Reads only need the owner; keep the request narrow.
        if (entry->owner.valid)
            set.add(entry->owner.owner);
    } else {
        // Writes must reach every sharer to avoid a retry.
        set |= entry->group.predictedSet();
        if (entry->owner.valid)
            set.add(entry->owner.owner);
    }
    return set;
}

template <unsigned Words>
void
BasicOwnerGroupPredictor<Words>::trainResponse(Addr addr, Addr pc,
                                               NodeId responder,
                                               bool insufficient)
{
    std::uint64_t key = indexKey(config_.indexing, addr, pc);
    if (responder == invalidNode) {
        Entry *entry =
            table_.probeOrInsert(key, !config_.allocationFilter);
        if (entry) {
            entry->owner.valid = false;
            entry->group.tickRollover();
        }
        return;
    }
    Entry *entry = table_.probeOrInsert(
        key, insufficient || !config_.allocationFilter);
    if (entry) {
        entry->owner.owner = responder;
        entry->owner.valid = true;
        entry->group.strengthen(responder);
        entry->group.tickRollover();
    }
}

template <unsigned Words>
void
BasicOwnerGroupPredictor<Words>::trainExternalRequest(Addr addr, Addr pc,
                                                      RequestType type,
                                                      NodeId requester)
{
    if (type == RequestType::GetShared)
        return;
    Entry &entry =
        table_.findOrAllocate(indexKey(config_.indexing, addr, pc));
    entry.owner.owner = requester;
    entry.owner.valid = true;
    entry.group.strengthen(requester);
    entry.group.tickRollover();
}

template class BasicOwnerGroupPredictor<1>;
template class BasicOwnerGroupPredictor<2>;
template class BasicOwnerGroupPredictor<4>;
template class BasicOwnerGroupPredictor<8>;

} // namespace dsp
