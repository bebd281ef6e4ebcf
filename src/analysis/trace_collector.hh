/**
 * @file
 * Trace collection (Section 2.1): drives a workload's reference
 * streams through the 16-node cache hierarchy under a MOSI protocol
 * and captures the stream of annotated L2 misses.
 *
 * Processor interleaving is instruction-count driven: at every step
 * the processor with the fewest executed instructions issues the next
 * reference (workload/issue_order.hh), approximating lockstep
 * parallel execution.
 */

#ifndef DSP_ANALYSIS_TRACE_COLLECTOR_HH
#define DSP_ANALYSIS_TRACE_COLLECTOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "coherence/sharing_tracker.hh"
#include "mem/node_caches.hh"
#include "trace/trace.hh"
#include "workload/issue_order.hh"
#include "workload/workload.hh"

namespace dsp {

/** Drives workload -> caches -> sharing tracker -> trace records. */
class TraceCollector
{
  public:
    /** Observer of every memory reference (pre cache filtering). */
    using RefObserver =
        std::function<void(NodeId, const MemRef &)>;

    /** Observer of every L2 miss with its serialized transaction. */
    using MissObserver = std::function<void(
        const TraceRecord &, const SharingTracker::Transaction &)>;

    /**
     * @param workload reference generator (not owned; must outlive)
     * @param caches per-node cache geometry (Table 4 defaults)
     */
    TraceCollector(Workload &workload,
                   const CacheParams &caches = CacheParams{});

    void addRefObserver(RefObserver observer);
    void addMissObserver(MissObserver observer);

    /** Aggregate counts for one run() call. */
    struct RunStats {
        std::uint64_t references = 0;
        std::uint64_t instructions = 0;
        std::uint64_t misses = 0;
    };

    /**
     * Run until `misses` additional L2 misses occur (or `max_refs`
     * references, a safety valve for miss-starved configurations).
     */
    RunStats run(std::uint64_t misses,
                 std::uint64_t max_refs = ~std::uint64_t{0});

    /**
     * Convenience: produce a Trace with `warmup` + `measured` misses,
     * with warmup metadata filled in.
     */
    Trace collect(std::uint64_t warmup, std::uint64_t measured);

    /** Total instructions executed so far (all processors). */
    std::uint64_t totalInstructions() const { return order_.total(); }

    /** Total L2 misses so far. */
    std::uint64_t totalMisses() const { return misses_; }

    /** Functional sharing state (for invariant checks in tests). */
    const SharingTracker &tracker() const { return tracker_; }

    /** Per-node caches (for invariant checks in tests). */
    const NodeCaches &caches(NodeId node) const { return nodes_[node]; }

  private:
    /** Issue one reference on the least-advanced processor. */
    void step();

    /** Resolve an L2 miss through the sharing tracker. */
    void handleMiss(NodeId p, const MemRef &ref, bool is_write);

    Workload &workload_;
    NodeId numNodes_;
    SharingTracker tracker_;
    std::vector<NodeCaches> nodes_;
    IssueOrder order_;

    std::vector<RefObserver> refObservers_;
    std::vector<MissObserver> missObservers_;

    std::uint64_t references_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace dsp

#endif // DSP_ANALYSIS_TRACE_COLLECTOR_HH
