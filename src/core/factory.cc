#include "core/factory.hh"

#include "core/baseline_predictors.hh"
#include "core/broadcast_if_shared.hh"
#include "core/group_predictor.hh"
#include "core/owner_group_predictor.hh"
#include "core/owner_predictor.hh"
#include "core/sticky_spatial.hh"
#include "sim/logging.hh"

namespace dsp {

std::string
toString(PredictorPolicy policy)
{
    switch (policy) {
      case PredictorPolicy::Owner:
        return "owner";
      case PredictorPolicy::BroadcastIfShared:
        return "bcast-if-shared";
      case PredictorPolicy::Group:
        return "group";
      case PredictorPolicy::OwnerGroup:
        return "owner-group";
      case PredictorPolicy::StickySpatial:
        return "sticky-spatial";
      case PredictorPolicy::AlwaysBroadcast:
        return "always-broadcast";
      case PredictorPolicy::AlwaysMinimal:
        return "always-minimal";
    }
    return "?";
}

PredictorPolicy
parsePredictorPolicy(const std::string &name)
{
    static const std::vector<PredictorPolicy> all = {
        PredictorPolicy::Owner,
        PredictorPolicy::BroadcastIfShared,
        PredictorPolicy::Group,
        PredictorPolicy::OwnerGroup,
        PredictorPolicy::StickySpatial,
        PredictorPolicy::AlwaysBroadcast,
        PredictorPolicy::AlwaysMinimal,
    };
    for (PredictorPolicy policy : all)
        if (toString(policy) == name)
            return policy;
    dsp_fatal("unknown predictor policy '%s'", name.c_str());
}

const std::vector<PredictorPolicy> &
proposedPolicies()
{
    static const std::vector<PredictorPolicy> policies = {
        PredictorPolicy::Owner,
        PredictorPolicy::BroadcastIfShared,
        PredictorPolicy::Group,
        PredictorPolicy::OwnerGroup,
    };
    return policies;
}

namespace {

/**
 * Build Pred<W> for the narrowest W in 1, 2, 4, ... whose
 * Pred<W>::nodeCapacity covers config.numNodes. The widths stop at
 * the one covering maxNodes, whose constructor rejects anything larger.
 */
template <template <unsigned> class Pred, unsigned Words = 1,
          typename... Args>
std::unique_ptr<Predictor>
makeNarrowest(const PredictorConfig &config, Args... args)
{
    if constexpr (Pred<Words>::nodeCapacity < maxNodes) {
        if (config.numNodes > Pred<Words>::nodeCapacity)
            return makeNarrowest<Pred, 2 * Words>(config, args...);
    }
    return std::make_unique<Pred<Words>>(config, args...);
}

} // namespace

std::unique_ptr<Predictor>
makeStickySpatial(PredictorConfig config, unsigned spatial_degree)
{
    config.indexing = IndexingMode::Block64;
    config.ways = 1;
    return makeNarrowest<BasicStickySpatialPredictor>(config,
                                                      spatial_degree);
}

std::unique_ptr<Predictor>
makePredictor(PredictorPolicy policy, PredictorConfig config)
{
    switch (policy) {
      case PredictorPolicy::Owner:
        return std::make_unique<OwnerPredictor>(config);
      case PredictorPolicy::BroadcastIfShared:
        return std::make_unique<BroadcastIfSharedPredictor>(config);
      case PredictorPolicy::Group:
        return makeNarrowest<BasicGroupPredictor>(config);
      case PredictorPolicy::OwnerGroup:
        return makeNarrowest<BasicOwnerGroupPredictor>(config);
      case PredictorPolicy::StickySpatial:
        return makeStickySpatial(config, 1);
      case PredictorPolicy::AlwaysBroadcast:
        return std::make_unique<AlwaysBroadcastPredictor>(config);
      case PredictorPolicy::AlwaysMinimal:
        return std::make_unique<AlwaysMinimalPredictor>(config);
    }
    dsp_fatal("unhandled predictor policy %d",
              static_cast<int>(policy));
}

std::vector<std::unique_ptr<Predictor>>
makePredictorsPerNode(PredictorPolicy policy,
                      const PredictorConfig &config)
{
    std::vector<std::unique_ptr<Predictor>> predictors;
    predictors.reserve(config.numNodes);
    for (NodeId n = 0; n < config.numNodes; ++n)
        predictors.push_back(makePredictor(policy, config));
    return predictors;
}

} // namespace dsp
