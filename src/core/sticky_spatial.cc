#include "core/sticky_spatial.hh"

#include "sim/logging.hh"

namespace dsp {

template <unsigned Words>
BasicStickySpatialPredictor<Words>::BasicStickySpatialPredictor(
    const PredictorConfig &config, unsigned spatial_degree)
    : Predictor(config), spatialDegree_(spatial_degree)
{
    dsp_assert(config.numNodes <= nodeCapacity,
               "%u nodes exceed a %u-word Sticky-Spatial mask (%u nodes)",
               config.numNodes, Words, nodeCapacity);
    if (config.entries > 0)
        finite_.resize(config.entries);
}

template <unsigned Words>
typename BasicStickySpatialPredictor<Words>::Mask
BasicStickySpatialPredictor<Words>::maskOf(const DestinationSet &set)
{
    const DestinationSet::Words &words = set.words();
    for (unsigned w = Words; w < words.size(); ++w)
        dsp_assert(words[w] == 0, "set %s exceeds a %u-word mask",
                   set.toString().c_str(), Words);
    Mask mask;
    for (unsigned w = 0; w < Words; ++w)
        mask[w] = words[w];
    return mask;
}

template <unsigned Words>
void
BasicStickySpatialPredictor<Words>::orMaskAt(
    std::uint64_t key, DestinationSet::Words &out) const
{
    const Mask *mask = nullptr;
    if (!finite_.empty()) {
        const Entry &entry = finite_[key % finite_.size()];
        // Prediction deliberately ignores the tag (Section 3.5).
        if (entry.valid)
            mask = &entry.mask;
    } else if (auto it = unbounded_.find(key); it != unbounded_.end()) {
        mask = &it->second;
    }
    if (mask)
        for (unsigned w = 0; w < Words; ++w)
            out[w] |= (*mask)[w];
}

template <unsigned Words>
DestinationSet
BasicStickySpatialPredictor<Words>::predict(Addr addr, Addr pc,
                                            RequestType /* type */,
                                            NodeId requester,
                                            NodeId home)
{
    std::uint64_t key = indexKey(config_.indexing, addr, pc);
    DestinationSet::Words words{};
    orMaskAt(key, words);
    for (unsigned d = 1; d <= spatialDegree_; ++d) {
        orMaskAt(key + d, words);
        orMaskAt(key - d, words);  // unsigned wrap is harmless here
    }
    return DestinationSet::fromWords(words)
         | minimalSet(requester, home);
}

template <unsigned Words>
void
BasicStickySpatialPredictor<Words>::trainUp(std::uint64_t key,
                                            const Mask &bits)
{
    std::uint64_t any = 0;
    for (std::uint64_t word : bits)
        any |= word;
    if (any == 0)
        return;
    if (!finite_.empty()) {
        Entry &entry = finite_[key % finite_.size()];
        if (!entry.valid || entry.tag != key) {
            // Replacement is the only train-down mechanism.
            entry.valid = true;
            entry.tag = key;
            entry.mask = bits;
        } else {
            for (unsigned w = 0; w < Words; ++w)
                entry.mask[w] |= bits[w];
        }
        return;
    }
    Mask &mask = unbounded_[key];
    for (unsigned w = 0; w < Words; ++w)
        mask[w] |= bits[w];
}

template <unsigned Words>
void
BasicStickySpatialPredictor<Words>::trainResponse(Addr addr, Addr pc,
                                                  NodeId responder,
                                                  bool /* insufficient */)
{
    if (responder == invalidNode)
        return;  // sticky: memory responses teach nothing
    trainUp(indexKey(config_.indexing, addr, pc),
            maskOf(DestinationSet::of(responder)));
}

template <unsigned Words>
void
BasicStickySpatialPredictor<Words>::trainExternalRequest(
    Addr /* addr */, Addr /* pc */, RequestType /* type */,
    NodeId /* requester */)
{
    // Sticky-Spatial trains only on responses and directory retries
    // (Section 3.5); external requests are not a training cue.
}

template <unsigned Words>
void
BasicStickySpatialPredictor<Words>::trainRetry(
    Addr addr, Addr pc, DestinationSet true_required)
{
    trainUp(indexKey(config_.indexing, addr, pc), maskOf(true_required));
}

template <unsigned Words>
std::size_t
BasicStickySpatialPredictor<Words>::entryCount() const
{
    if (!finite_.empty()) {
        std::size_t n = 0;
        for (const Entry &entry : finite_)
            n += entry.valid ? 1 : 0;
        return n;
    }
    return unbounded_.size();
}

template class BasicStickySpatialPredictor<1>;
template class BasicStickySpatialPredictor<2>;
template class BasicStickySpatialPredictor<4>;

} // namespace dsp
