#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace dsp {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    // Mix the stream id into the seed so streams are independent.
    std::uint64_t x = seed ^ (stream * 0xda942042e4dd58b5ull + 1);
    for (auto &word : s_)
        word = splitmix64(x);
}

std::int64_t
Rng::uniformRange(std::int64_t lo, std::int64_t hi)
{
    dsp_assert(lo <= hi, "uniformRange requires lo <= hi");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

std::uint64_t
Rng::geometric(double mean)
{
    dsp_assert(mean >= 1.0, "geometric mean must be >= 1");
    if (mean == 1.0)
        return 1;
    // Inverse-CDF sampling of a geometric with success prob 1/mean.
    double u = uniformReal();
    double p = 1.0 / mean;
    double v = std::log1p(-u) / std::log1p(-p);
    std::uint64_t k = static_cast<std::uint64_t>(v) + 1;
    return k == 0 ? 1 : k;
}

GeometricSampler::GeometricSampler(double mean) : mean_(mean)
{
    dsp_assert(mean >= 1.0, "geometric mean must be >= 1");
    double p = 1.0 / mean;
    logSurvive_ = std::log1p(-p);
    double survive = 1.0;
    for (std::size_t k = 0; k < tableSize; ++k) {
        survive *= 1.0 - p;         // (1-p)^(k+1)
        cdf_[k] = 1.0 - survive;    // P(X <= k+1)
    }
    std::size_t k = 0;
    for (std::size_t b = 0; b < guideSize; ++b) {
        double edge = static_cast<double>(b) / guideSize;
        while (k < tableSize && cdf_[k] <= edge)
            ++k;
        guide_[b] = static_cast<std::uint8_t>(k);
    }
}

std::uint64_t
GeometricSampler::tailSample(double u) const
{
    double v = std::log1p(-u) / logSurvive_;
    std::uint64_t k = static_cast<std::uint64_t>(v) + 1;
    return k == 0 ? 1 : k;
}

} // namespace dsp
