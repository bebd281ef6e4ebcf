/**
 * @file
 * Unit and property tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hh"

namespace dsp {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, DifferentStreamsDiffer)
{
    Rng a(1, 0), b(1, 1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.uniformInt(bound), bound);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(9);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i)
        seen[rng.uniformInt(10)]++;
    for (int count : seen) {
        EXPECT_GT(count, 800);
        EXPECT_LT(count, 1200);
    }
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::int64_t v = rng.uniformRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

/** Property sweep: geometric samples are >= 1 and match their mean. */
class GeometricMean : public ::testing::TestWithParam<double>
{
};

TEST_P(GeometricMean, MeanAndSupport)
{
    double mean = GetParam();
    Rng rng(23);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        std::uint64_t v = rng.geometric(mean);
        ASSERT_GE(v, 1u);
        sum += static_cast<double>(v);
    }
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Means, GeometricMean,
                         ::testing::Values(1.0, 1.5, 2.0, 4.0, 8.0,
                                           16.0, 64.0));

/**
 * The geometric table draw as a plain linear scan from slot 0 plus the
 * log tail, recomputing log1p(-p) per draw: the reference the guided
 * GeometricSampler must match value for value.
 */
struct LinearGeometric {
    double mean;
    double p;
    double cdf[32];

    explicit LinearGeometric(double m) : mean(m), p(1.0 / m)
    {
        double survive = 1.0;
        for (double &c : cdf) {
            survive *= 1.0 - p;
            c = 1.0 - survive;
        }
    }

    std::uint64_t
    draw(double u) const
    {
        if (mean == 1.0)
            return 1;
        if (u < cdf[31]) {
            std::uint64_t k = 0;
            while (u >= cdf[k])
                ++k;
            return k + 1;
        }
        double v = std::log1p(-u) / std::log1p(-p);
        std::uint64_t k = static_cast<std::uint64_t>(v) + 1;
        return k == 0 ? 1 : k;
    }
};

class GeometricExact : public ::testing::TestWithParam<double>
{
};

TEST_P(GeometricExact, GuidedDrawEqualsLinearScan)
{
    const double mean = GetParam();
    const GeometricSampler fast(mean);
    const LinearGeometric ref(mean);

    // Inputs where a guide or scan slip would show: every guide
    // bucket's lower edge, every table edge and its two neighbours,
    // and the tail from the last edge up to the largest draw below 1.
    std::vector<double> us;
    for (int b = 0; b < 256; ++b)
        us.push_back(b / 256.0);
    for (double c : ref.cdf) {
        us.push_back(c);
        us.push_back(std::nextafter(c, 0.0));
        us.push_back(std::nextafter(c, 2.0));
    }
    const double last = ref.cdf[31];
    for (double t : {0.0, 0.25, 0.5, 0.75, 0.999})
        us.push_back(last + (1.0 - last) * t);
    us.push_back(std::nextafter(1.0, 0.0));
    for (double u : us) {
        if (u < 0.0 || u >= 1.0)
            continue;
        ASSERT_EQ(fast.sampleAt(u), ref.draw(u))
            << "mean " << mean << " u " << u;
    }

    // Random draws through sample(): same values, and the same
    // randomness consumed (none at all when mean == 1).
    Rng a(29), b(29);
    for (int i = 0; i < 1000000; ++i) {
        std::uint64_t want =
            mean == 1.0 ? 1 : ref.draw(b.uniformReal());
        ASSERT_EQ(fast.sample(a), want) << "mean " << mean << " draw "
                                        << i;
    }
    EXPECT_EQ(a.next(), b.next());
}

INSTANTIATE_TEST_SUITE_P(Means, GeometricExact,
                         ::testing::Values(1.0, 1.5, 2.0, 4.5, 8.0,
                                           15.0, 64.0, 1e6));

} // namespace
} // namespace dsp
