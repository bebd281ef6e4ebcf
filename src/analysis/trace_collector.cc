#include "analysis/trace_collector.hh"

#include "sim/logging.hh"

namespace dsp {

TraceCollector::TraceCollector(Workload &workload,
                               const CacheParams &caches)
    : workload_(workload),
      numNodes_(workload.numNodes()),
      tracker_(workload.numNodes()),
      order_(workload.numNodes())
{
    nodes_.reserve(numNodes_);
    for (NodeId n = 0; n < numNodes_; ++n)
        nodes_.emplace_back(caches);
}

void
TraceCollector::addRefObserver(RefObserver observer)
{
    refObservers_.push_back(std::move(observer));
}

void
TraceCollector::addMissObserver(MissObserver observer)
{
    missObservers_.push_back(std::move(observer));
}

void
TraceCollector::handleMiss(NodeId p, const MemRef &ref, bool is_write)
{
    BlockId block = blockOf(ref.addr);
    RequestType type = is_write ? RequestType::GetExclusive
                                : RequestType::GetShared;

    SharingTracker::Transaction txn = tracker_.apply(block, p, type);

    // Propagate the transaction's side effects into the peer caches,
    // pairing each coherence action with its l0Invalidate() hook
    // (this is the trace-replay flavour of the system fan-in; see
    // docs/access_pipeline.md).
    if (type == RequestType::GetShared) {
        if (txn.cacheToCache) {
            nodes_[txn.responder].l0Invalidate(block);
            nodes_[txn.responder].downgrade(block);
        }
    } else {
        txn.required.forEach([&](NodeId q) {
            nodes_[q].l0Invalidate(block);
            nodes_[q].invalidate(block);
        });
    }

    // Install at the requester, reflecting any L2 eviction back into
    // the global sharing state.
    NodeCaches::FillResult fill =
        nodes_[p].fill(ref.addr, txn.grantedState);
    if (fill.evicted) {
        if (isOwnerState(fill.victimState))
            tracker_.evictOwned(fill.victim, p);
        else if (fill.victimState == MosiState::Shared)
            tracker_.evictShared(fill.victim, p);
    }

    ++misses_;

    if (missObservers_.empty())
        return;
    TraceRecord record;
    record.addr = ref.addr;
    record.pc = ref.pc;
    record.requiredMask = txn.required.mask();
    record.requester = p;
    record.responder = txn.responder == invalidNode
                           ? TraceRecord::memoryResponder
                           : txn.responder;
    record.type = static_cast<std::uint8_t>(type);
    for (const MissObserver &observer : missObservers_)
        observer(record, txn);
}

void
TraceCollector::step()
{
    NodeId p = order_.next();
    MemRef ref = workload_.next(p);
    order_.advance(p, ref.work + 1);
    ++references_;

    for (const RefObserver &observer : refObservers_)
        observer(p, ref);

    NodeCaches::AccessResult result =
        nodes_[p].access(ref.addr, ref.write);
    if (result.need != CoherenceNeed::None)
        handleMiss(p, ref, ref.write);
}

TraceCollector::RunStats
TraceCollector::run(std::uint64_t misses, std::uint64_t max_refs)
{
    RunStats stats;
    std::uint64_t start_refs = references_;
    std::uint64_t start_instr = totalInstructions();
    std::uint64_t start_misses = misses_;

    while (misses_ - start_misses < misses &&
           references_ - start_refs < max_refs) {
        step();
    }

    stats.references = references_ - start_refs;
    stats.instructions = totalInstructions() - start_instr;
    stats.misses = misses_ - start_misses;
    return stats;
}

Trace
TraceCollector::collect(std::uint64_t warmup, std::uint64_t measured)
{
    Trace trace;
    trace.workloadName = workload_.name();
    trace.numNodes = numNodes_;
    trace.records.reserve(warmup + measured);

    addMissObserver([&trace](const TraceRecord &record,
                             const SharingTracker::Transaction &) {
        trace.records.push_back(record);
    });

    run(warmup);
    trace.warmupRecords = trace.records.size();
    trace.warmupInstructions = totalInstructions();

    run(measured);
    trace.totalInstructions = totalInstructions();

    // Drop the collector-owned observer we just added; the trace
    // vector must not be appended to after we return it.
    missObservers_.pop_back();
    return trace;
}

} // namespace dsp
