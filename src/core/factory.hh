/**
 * @file
 * Predictor policy enumeration and construction by name.
 */

#ifndef DSP_CORE_FACTORY_HH
#define DSP_CORE_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/predictor.hh"

namespace dsp {

/** The predictor policies of Section 3 (plus anchors). */
enum class PredictorPolicy : std::uint8_t {
    Owner,
    BroadcastIfShared,
    Group,
    OwnerGroup,
    StickySpatial,
    AlwaysBroadcast,
    AlwaysMinimal,
};

/** Printable name matching the paper's terminology. */
std::string toString(PredictorPolicy policy);

/** Parse a policy name; fatal on unknown names. */
PredictorPolicy parsePredictorPolicy(const std::string &name);

/** The four proposed policies, in the paper's order (Figure 5). */
const std::vector<PredictorPolicy> &proposedPolicies();

/**
 * Construct a predictor. Sticky-Spatial is forced to Block64 indexing
 * and direct-mapped geometry when built through this factory, matching
 * the original design it reproduces.
 *
 * Group, Owner-Group and Sticky-Spatial keep per-node state in every
 * entry; they are built at the narrowest entry width that covers
 * config.numNodes (Group counters: 1, 2, 4 or 8 words for <= 32, 64,
 * 128 or 256 nodes; Sticky-Spatial masks: 1, 2 or 4 words for <= 64,
 * 128 or 256 nodes). The width changes no prediction, only memory.
 */
std::unique_ptr<Predictor>
makePredictor(PredictorPolicy policy, PredictorConfig config);

/** Sticky-Spatial(k) as makePredictor builds it (Block64,
 *  direct-mapped, narrowest mask), with `spatial_degree` = k. */
std::unique_ptr<Predictor>
makeStickySpatial(PredictorConfig config, unsigned spatial_degree);

/** Build one predictor per node (each node trains independently). */
std::vector<std::unique_ptr<Predictor>>
makePredictorsPerNode(PredictorPolicy policy,
                      const PredictorConfig &config);

} // namespace dsp

#endif // DSP_CORE_FACTORY_HH
