#include "core/group_predictor.hh"

#include "sim/logging.hh"

namespace dsp {

template <unsigned Words>
BasicGroupPredictor<Words>::BasicGroupPredictor(
    const PredictorConfig &config)
    : Predictor(config), table_(config.entries, config.ways)
{
    dsp_assert(config.numNodes <= nodeCapacity,
               "%u nodes exceed a %u-word Group entry (%u nodes)",
               config.numNodes, Words, nodeCapacity);
}

template <unsigned Words>
DestinationSet
BasicGroupPredictor<Words>::predict(Addr addr, Addr pc,
                                    RequestType /* type */,
                                    NodeId requester, NodeId home)
{
    DestinationSet set = minimalSet(requester, home);
    if (Entry *entry = table_.find(indexKey(config_.indexing, addr, pc)))
        set |= entry->predictedSet();
    return set;
}

template <unsigned Words>
void
BasicGroupPredictor<Words>::trainResponse(Addr addr, Addr pc,
                                          NodeId responder,
                                          bool insufficient)
{
    std::uint64_t key = indexKey(config_.indexing, addr, pc);
    if (responder == invalidNode) {
        // Memory response: only the rollover advances, giving the
        // entry gentle train-down pressure. The allocation filter
        // keeps never-shared blocks out of the table entirely.
        Entry *entry =
            table_.probeOrInsert(key, !config_.allocationFilter);
        if (entry)
            entry->tickRollover();
        return;
    }
    Entry *entry = table_.probeOrInsert(
        key, insufficient || !config_.allocationFilter);
    if (entry) {
        entry->strengthen(responder);
        entry->tickRollover();
    }
}

template <unsigned Words>
void
BasicGroupPredictor<Words>::trainExternalRequest(Addr addr, Addr pc,
                                                 RequestType type,
                                                 NodeId requester)
{
    if (type == RequestType::GetShared)
        return;
    Entry &entry =
        table_.findOrAllocate(indexKey(config_.indexing, addr, pc));
    entry.strengthen(requester);
    entry.tickRollover();
}

template class BasicGroupPredictor<1>;
template class BasicGroupPredictor<2>;
template class BasicGroupPredictor<4>;
template class BasicGroupPredictor<8>;

} // namespace dsp
