/**
 * @file
 * Sticky-Spatial(k): the original multicast snooping predictor of
 * Bilir et al., reconstructed from Section 3.5 of this paper and the
 * multicast snooping paper.
 *
 * Properties (and deliberate limitations, kept for fidelity):
 *  - direct-mapped; the tag is IGNORED on prediction, so aliased
 *    entries pollute each other;
 *  - "spatial": the prediction ORs the indexed entry's mask with its k
 *    neighbouring entries' masks;
 *  - "sticky": it only trains up (from data responses and directory
 *    retries); the destination set shrinks only when a tag replacement
 *    resets the entry.
 */

#ifndef DSP_CORE_STICKY_SPATIAL_HH
#define DSP_CORE_STICKY_SPATIAL_HH

#include <cstdint>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "core/predictor.hh"
#include "sim/flat_map.hh"

namespace dsp {

class StickySpatialPredictor : public Predictor
{
  public:
    /**
     * @param config common configuration; Block64 indexing is the
     *        historically faithful choice (set by the factory)
     * @param spatial_degree neighbours ORed on each side (k; the paper
     *        evaluates k = 1)
     */
    StickySpatialPredictor(const PredictorConfig &config,
                           unsigned spatial_degree = 1);

    DestinationSet
    predict(Addr addr, Addr pc, RequestType type, NodeId requester,
            NodeId home) override;

    void trainResponse(Addr addr, Addr pc, NodeId responder,
                       bool insufficient) override;
    void trainExternalRequest(Addr addr, Addr pc, RequestType type,
                              NodeId requester) override;
    void trainRetry(Addr addr, Addr pc,
                    DestinationSet true_required) override;

    std::string name() const override { return "sticky-spatial"; }
    std::size_t entryCount() const override;
    unsigned entryBits() const override { return config_.numNodes; }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.podVec(finite_);
        unbounded_.ckptSave(w);
    }

    void
    ckptLoad(ckpt::Reader &r) override
    {
        finite_ = r.podVec<Entry>();
        unbounded_.ckptLoad(r);
    }

  private:
    struct Entry {
        std::uint64_t tag = 0;
        std::uint64_t mask = 0;
        bool valid = false;
    };

    /** OR `bits` into the entry for `key`, resetting on tag miss. */
    void trainUp(std::uint64_t key, std::uint64_t bits);

    /** Mask stored at table slot for key (0 if none). */
    std::uint64_t maskAt(std::uint64_t key) const;

    unsigned spatialDegree_;
    std::vector<Entry> finite_;                        ///< direct-mapped
    FlatMap<std::uint64_t, std::uint64_t> unbounded_;
};

} // namespace dsp

#endif // DSP_CORE_STICKY_SPATIAL_HH
