/**
 * @file
 * Deterministic random number generation for reproducible simulation.
 *
 * Every stochastic component in the simulator draws from its own Rng
 * stream, seeded from a global seed plus a stream identifier, so that runs
 * are bit-reproducible and perturbation studies (Section 5.2 of the paper)
 * can vary a single seed.
 *
 * The draw methods are header-inline: workload synthesis draws tens of
 * millions of values per simulated second, all on the hot path.
 */

#ifndef DSP_SIM_RNG_HH
#define DSP_SIM_RNG_HH

#include <array>
#include <cstdint>

#include "sim/logging.hh"

namespace dsp {

/**
 * xoshiro256** generator (Blackman & Vigna). Small, fast, and high
 * quality; state is seeded through splitmix64 so any 64-bit seed works.
 */
class Rng
{
  public:
    /** Construct from a seed and an optional stream id. Two Rngs with the
     *  same seed but different streams produce independent sequences. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull,
                 std::uint64_t stream = 0);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's method. bound > 0. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        dsp_assert(bound > 0, "uniformInt bound must be positive");
        // Lemire's multiply-shift rejection method.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = -bound % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniformReal()
    {
        // 53 random mantissa bits.
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial: true with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /** Geometric-ish positive integer with given mean (>= 1). */
    std::uint64_t geometric(double mean);

    /** Raw xoshiro state, exposed for checkpoint save/restore only. */
    std::array<std::uint64_t, 4>
    ckptState() const
    {
        return {s_[0], s_[1], s_[2], s_[3]};
    }

    void
    ckptRestore(const std::array<std::uint64_t, 4> &s)
    {
        s_[0] = s[0];
        s_[1] = s[1];
        s_[2] = s[2];
        s_[3] = s[3];
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/**
 * Repeated geometric draws with a fixed mean (per-reference work
 * counts, episode lengths). Rng::geometric costs two log1p calls per
 * draw; this caches the distribution in a small cumulative table and
 * inverts it by indexed search (Chen & Asau): a 256-entry guide table
 * maps the draw's top bits to the first table slot it can land in, so
 * the scan almost always stops at its first compare instead of taking
 * a data-dependent number of steps. Draws past the table fall back to
 * the exact log form. Rounding at bin boundaries can differ from
 * Rng::geometric(mean) by one in rare cases, so the two are
 * distribution-equivalent, not draw-identical.
 */
class GeometricSampler
{
  public:
    /** mean >= 1; mean == 1 always draws 1. */
    explicit GeometricSampler(double mean);

    /** One draw; mean == 1 consumes no randomness. */
    std::uint64_t
    sample(Rng &rng) const
    {
        if (mean_ == 1.0)
            return 1;
        return sampleAt(rng.uniformReal());
    }

    /**
     * The draw for uniform u in [0, 1): the smallest k with
     * u < cdf_[k - 1], or the log tail past the table. Exact against
     * the plain scan from slot 0: u * guideSize only rescales the
     * exponent, so its floor b is exact, and every slot the guide
     * skips has cdf_ <= b / guideSize <= u (cdf_ is nondecreasing),
     * so the plain scan would have stepped over it too.
     */
    std::uint64_t
    sampleAt(double u) const
    {
        if (u >= cdf_[tableSize - 1])
            return tailSample(u);
        // guide_ <= tableSize - 1 here, so the scan stops in the table.
        std::size_t k = guide_[static_cast<std::size_t>(u * guideSize)];
        while (u >= cdf_[k])
            ++k;
        return k + 1;
    }

    double mean() const { return mean_; }

  private:
    /** Keep at 32: the table and the log tail round differently at
     *  bin edges, so moving the cutoff would change draws. */
    static constexpr std::size_t tableSize = 32;
    static constexpr std::size_t guideSize = 256;

    std::uint64_t tailSample(double u) const;

    double mean_;
    double logSurvive_ = 0.0;  ///< log1p(-1 / mean), for the tail
    std::array<double, tableSize> cdf_{};  ///< cdf_[k] = P(X <= k+1)
    /** guide_[b] = number of cdf_ entries <= b / guideSize. */
    std::array<std::uint8_t, guideSize> guide_{};
};

} // namespace dsp

#endif // DSP_SIM_RNG_HH
