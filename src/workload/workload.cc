#include "workload/workload.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dsp {

Workload::Workload(std::string name, NodeId num_nodes, double mean_work,
                   std::uint64_t seed, double episode_len)
    : name_(std::move(name)),
      numNodes_(num_nodes),
      meanWork_(mean_work),
      episodeLen_(episode_len),
      workGeo_(mean_work + 1.0),
      episodeGeo_(episode_len)
{
    dsp_assert(num_nodes > 0 && num_nodes <= maxNodes,
               "bad node count %u", num_nodes);
    dsp_assert(mean_work >= 0.0, "mean work must be non-negative");
    dsp_assert(episode_len >= 1.0, "episode length must be >= 1");
    procs_.reserve(num_nodes);
    for (NodeId p = 0; p < num_nodes; ++p)
        procs_.emplace_back(Rng(seed, /* stream */ p + 1), p);
}

void
Workload::addRegion(std::unique_ptr<Region> region, double weight)
{
    dsp_assert(weight > 0.0, "region weight must be positive");
    double prev = cumWeights_.empty() ? 0.0 : cumWeights_.back();
    regions_.push_back(std::move(region));
    cumWeights_.push_back(prev + weight);
}

std::size_t
Workload::pickRegion(Rng &rng) const
{
    dsp_assert(!regions_.empty(), "workload '%s' has no regions",
               name_.c_str());
    double u = rng.uniformReal() * cumWeights_.back();
    // The first i with u < cumWeights_[i], else the last region, as a
    // fixed-length count: cumWeights_ is nondecreasing, so the entries
    // <= u form a prefix and its length is that index. Counting over
    // all but the last entry caps it at the last region.
    std::size_t i = 0;
    for (std::size_t j = 0; j + 1 < cumWeights_.size(); ++j)
        i += cumWeights_[j] <= u;
    return i;
}

void
Workload::refill(ProcState &st)
{
    st.buf.resize(refillBatch_);

    // Batched generation with the per-ref overheads hoisted out of
    // the inner loop: the RNG state lives in a local for the whole
    // batch (one load/store per refill instead of per draw), and refs
    // are generated an *episode chunk* at a time so the region
    // dispatch happens once per chunk, not once per ref. Every draw
    // happens in exactly the order the one-ref-at-a-time generator
    // made it -- chunk boundaries coincide with the episode draws --
    // so the stream is draw-identical to batch=1 (pinned by the
    // batching test in test_workload.cc).
    Rng rng = st.rng;
    const bool draw_work = meanWork_ != 0.0;
    std::size_t i = 0;
    while (i < refillBatch_) {
        if (st.episodeLeft == 0) {
            st.region = pickRegion(rng);
            st.episodeLeft = episodeGeo_.sample(rng);
        }
        Region &region = *regions_[st.region];
        std::size_t run = static_cast<std::size_t>(
            std::min<std::uint64_t>(refillBatch_ - i,
                                    st.episodeLeft));
        st.episodeLeft -= run;
        const NodeId proc = st.proc;
        for (std::size_t end = i + run; i < end; ++i) {
            RegionRef ref = region.gen(proc, rng);
            MemRef &out = st.buf[i];
            out.work = draw_work
                           ? static_cast<std::uint32_t>(
                                 workGeo_.sample(rng) - 1)
                           : 0;
            out.addr = ref.addr;
            out.pc = ref.pc;
            out.write = ref.write;
        }
    }
    st.rng = rng;
    st.bufPos = 0;
}

Addr
Workload::totalFootprint() const
{
    Addr total = 0;
    for (const auto &region : regions_)
        total += region->bytes();
    return total;
}

} // namespace dsp
