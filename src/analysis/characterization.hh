/**
 * @file
 * Workload characterization (Section 2): computes Table 2 and
 * Figures 2-4 from the reference and miss streams of a TraceCollector.
 */

#ifndef DSP_ANALYSIS_CHARACTERIZATION_HH
#define DSP_ANALYSIS_CHARACTERIZATION_HH

#include <cstdint>
#include <vector>

#include "analysis/trace_collector.hh"
#include "sim/flat_map.hh"
#include "stats/histogram.hh"
#include "trace/trace.hh"

namespace dsp {

/**
 * Streaming observer of references and misses.
 *
 * Attach with attach(); call beginMeasurement() after warmup so the
 * rate-based statistics (Table 2 columns 4-7, Figures 2 and 4) cover
 * only the measured interval. Footprints and per-block toucher sets
 * (Table 2 columns 2-3, Figure 3) accumulate over the whole run, like
 * the paper's whole-execution analysis.
 */
class WorkloadCharacterization
{
  public:
    explicit WorkloadCharacterization(NodeId num_nodes);

    /** Register this object's observers on a collector. */
    void attach(TraceCollector &collector);

    /** Mark the end of warmup. */
    void beginMeasurement(std::uint64_t instructions_so_far);

    // -- Raw event sinks (public so replays/tests can feed directly).
    void onReference(NodeId p, const MemRef &ref);
    void onMiss(const TraceRecord &record,
                const SharingTracker::Transaction &txn);

    /**
     * Rebuild all statistics from an annotated trace instead of a live
     * collection. Because caches start cold, every processor that ever
     * touches a block appears as the requester of at least one miss on
     * it, so footprints and touched-by masks are exact when recovered
     * from the full (warmup + measured) record stream.
     */
    void absorbTrace(const Trace &trace);

    /** Record-level sink used by absorbTrace and onMiss. */
    void onMissRecord(const TraceRecord &record,
                      const DestinationSet &required, bool measured);

    /** Table 2: one row of workload properties. */
    struct Table2Row {
        std::uint64_t touched64Bytes = 0;    ///< footprint in bytes
        std::uint64_t touched1024Bytes = 0;
        std::uint64_t staticMissPcs = 0;
        std::uint64_t totalMisses = 0;       ///< measured interval
        double missesPer1kInstr = 0.0;
        double directoryIndirectionPct = 0.0;
    };

    Table2Row table2(std::uint64_t total_instructions) const;

    /** Figure 2: required-observer histograms (bins 0,1,2,3+). */
    const stats::Histogram &sharingHistogramReads() const
    {
        return figure2Reads_;
    }
    const stats::Histogram &sharingHistogramWrites() const
    {
        return figure2Writes_;
    }

    /** Figure 3(a): blocks touched by n processors (bin = n). */
    stats::Histogram blocksTouchedBy() const;

    /** Figure 3(b): same histogram weighted by misses to the block. */
    stats::Histogram missesToBlocksTouchedBy() const;

    /** Figure 4 cumulative coverage (percent) of cache-to-cache misses
     *  by the hottest `points` 64 B blocks / 1 KB macroblocks / PCs. */
    std::vector<double>
    blockCoverage(const std::vector<std::size_t> &points) const;
    std::vector<double>
    macroblockCoverage(const std::vector<std::size_t> &points) const;
    std::vector<double>
    pcCoverage(const std::vector<std::size_t> &points) const;

    /** Total cache-to-cache misses in the measured interval. */
    std::uint64_t cacheToCacheMisses() const { return c2cMisses_; }

  private:
    NodeId numNodes_;
    bool measuring_ = false;
    std::uint64_t warmupInstructions_ = 0;

    /** Per-block: where its toucher set lives + measured misses. */
    struct BlockInfo {
        std::uint32_t touched = 0;  ///< block ordinal in touchedWords_
        std::uint32_t misses = 0;
    };

    /** Note that processor p touched addr's block; returns its info. */
    BlockInfo &touch(Addr addr, NodeId p);

    /** Number of processors that touched the block. */
    unsigned touchers(const BlockInfo &info) const;

    unsigned words_;  ///< ceil(numNodes / 64) words per toucher set
    FlatMap<BlockId, BlockInfo> blocks_;
    /** Which processors ever touched each block: words_ words per
     *  block, in first-touch order (blocks are never dropped). */
    std::vector<std::uint64_t> touchedWords_;
    FlatSet<std::uint64_t> macroblocks_;
    FlatSet<Addr> missPcs_;

    std::uint64_t measuredMisses_ = 0;
    std::uint64_t indirections_ = 0;
    std::uint64_t c2cMisses_ = 0;

    stats::Histogram figure2Reads_;
    stats::Histogram figure2Writes_;

    stats::HotSpotAccumulator c2cByBlock_;
    stats::HotSpotAccumulator c2cByMacroblock_;
    stats::HotSpotAccumulator c2cByPc_;
};

} // namespace dsp

#endif // DSP_ANALYSIS_CHARACTERIZATION_HH
