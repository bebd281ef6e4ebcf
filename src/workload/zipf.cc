#include "workload/zipf.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace dsp {

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    dsp_assert(n > 0, "zipf sampler needs at least one item");
    dsp_assert(theta >= 0.0 && theta <= 2.0,
               "zipf theta %.3f outside [0,2]", theta);
    if (theta == 0.0)
        return;  // uniform: no table needed

    cdf_.resize(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += std::pow(static_cast<double>(i + 1), -theta);
        cdf_[i] = sum;
    }
    double inv = 1.0 / sum;
    for (double &v : cdf_)
        v *= inv;
    cdf_.back() = 1.0;  // guard against rounding

    if (n > aliasMaxItems)
        return;

    // Walker alias construction: split the mass into n equal columns,
    // each covered by at most two items.
    alias_.resize(n);
    std::vector<double> scaled(n);  // P(i) * n
    double prev = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        scaled[i] = (cdf_[i] - prev) * static_cast<double>(n);
        prev = cdf_[i];
    }
    std::vector<std::uint64_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        (scaled[i] < 1.0 ? small : large).push_back(i);
    while (!small.empty() && !large.empty()) {
        std::uint64_t s = small.back();
        std::uint64_t l = large.back();
        small.pop_back();
        large.pop_back();
        alias_[s] = AliasCell{static_cast<float>(scaled[s]),
                              static_cast<std::uint32_t>(l)};
        scaled[l] -= 1.0 - scaled[s];
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Leftovers are numerically-full columns.
    for (std::uint64_t s : small)
        alias_[s] = AliasCell{1.0f, static_cast<std::uint32_t>(s)};
    for (std::uint64_t l : large)
        alias_[l] = AliasCell{1.0f, static_cast<std::uint32_t>(l)};
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    if (cdf_.empty())
        return rng.uniformInt(n_);
    if (!alias_.empty()) {
        // One draw covers both the column pick and the coin: the
        // integer part selects the column, the fraction is the coin.
        double u = rng.uniformReal() * static_cast<double>(n_);
        auto col = static_cast<std::uint64_t>(u);
        if (col >= n_)
            col = n_ - 1;  // guard against u == 1.0 rounding
        return pick(col, u - static_cast<double>(col), alias_[col]);
    }
    return sampleCdf(rng);
}

std::uint64_t
ZipfSampler::sampleCdf(Rng &rng) const
{
    double u = rng.uniformReal();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
}

double
ZipfSampler::headMass(std::uint64_t k) const
{
    if (k == 0)
        return 0.0;
    if (k >= n_)
        return 1.0;
    if (cdf_.empty())
        return static_cast<double>(k) / static_cast<double>(n_);
    return cdf_[k - 1];
}

WorkingSetSampler::WorkingSetSampler(std::uint64_t n,
                                     std::uint64_t hot_items,
                                     double hot_prob, double hot_theta)
    : n_(n),
      hot_(hot_items < n ? (hot_items > 0 ? hot_items : 1) : n),
      hotProb_(hot_prob),
      hotPick_(hot_, hot_theta)
{
    dsp_assert(n > 0, "working set sampler needs items");
    dsp_assert(hot_prob >= 0.0 && hot_prob <= 1.0,
               "hot probability %.3f outside [0,1]", hot_prob);
}

std::uint64_t
WorkingSetSampler::sample(Rng &rng) const
{
    if (hot_ >= n_ || rng.chance(hotProb_))
        return hotPick_.sample(rng);
    // Cold tail: uniform over the non-hot remainder, so cold accesses
    // sweep the full footprint and almost always miss.
    return hot_ + rng.uniformInt(n_ - hot_);
}

std::uint64_t
scatterRank(std::uint64_t rank, std::uint64_t blocks, std::uint64_t run)
{
    dsp_assert(blocks > 0, "scatterRank over empty region");
    if (rank >= blocks)
        rank %= blocks;
    if (blocks <= run)
        return rank;

    // Fill one `run`-block cluster at a time; clusters are visited in a
    // multiplicative-permutation order so the hot clusters spread over
    // the whole region.
    std::uint64_t clusters = (blocks + run - 1) / run;
    std::uint64_t cluster = rank / run;
    std::uint64_t offset = rank % run;
    // 0x9E3779B1 is odd, hence coprime with any power of two; for
    // non-power-of-two cluster counts the modulo still permutes well
    // enough for our purposes (collisions only merge popularity mass).
    std::uint64_t scattered = (cluster * 0x9E3779B1ull) % clusters;
    std::uint64_t block = scattered * run + offset;
    return block % blocks;
}

} // namespace dsp
