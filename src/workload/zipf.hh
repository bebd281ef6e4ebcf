/**
 * @file
 * Zipf popularity sampling for workload synthesis.
 *
 * Commercial-workload miss streams are highly skewed (Figure 4 of the
 * paper: the hottest ~1000 blocks cover most cache-to-cache misses).
 * We use an exact discrete Zipf: P(rank r) proportional to 1/(r+1)^theta.
 * Small tables sample in O(1) by Walker's alias method (one uniform
 * draw, one table load, and a branch-free pick between the column and
 * its alias); large tables keep the CDF binary search, whose probe
 * path through the hot head is far cache-friendlier than the alias
 * method's uniformly-random column access. This keeps the head
 * realistic (no single mega-hot item, unlike the continuous power-law
 * shortcut) while preserving the heavy tail that produces capacity
 * misses.
 */

#ifndef DSP_WORKLOAD_ZIPF_HH
#define DSP_WORKLOAD_ZIPF_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"

namespace dsp {

/**
 * Samples ranks in [0, n) with discrete Zipf skew.
 *
 * theta = 0 degenerates to uniform; theta around 0.8-1.0 matches the
 * block-popularity skew of server workloads. theta up to 2 supported.
 */
class ZipfSampler
{
  public:
    /** Create a sampler over n items (n > 0) with skew theta >= 0. */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    std::uint64_t sample(Rng &rng) const;

    /**
     * A sample split into its RNG draw and its table lookup. The
     * alias cell a draw lands on is uniformly random, so for the big
     * tables the cell load is a guaranteed host-cache miss; begin()
     * makes all the RNG draws (exactly the draws sample() makes, in
     * the same order) and issues a prefetch for the cell, and
     * finish() reads it. Callers interleave independent work (their
     * other per-ref draws) between the two, hiding the fetch latency
     * that used to stall every reference. begin()+finish() is
     * draw-for-draw and value-identical to sample().
     */
    struct Pending {
        std::uint64_t value = 0;     ///< resolved rank (non-alias) or column
        double coin = 0.0;
        const void *cell = nullptr;  ///< alias cell, when deferred
    };

    Pending
    begin(Rng &rng) const
    {
        if (cdf_.empty())
            return Pending{rng.uniformInt(n_), 0.0, nullptr};
        if (!alias_.empty()) {
            double u = rng.uniformReal() * static_cast<double>(n_);
            auto col = static_cast<std::uint64_t>(u);
            if (col >= n_)
                col = n_ - 1;  // guard against u == 1.0 rounding
            const AliasCell *cell = &alias_[col];
            __builtin_prefetch(cell, 0, 3);
            return Pending{col, u - static_cast<double>(col), cell};
        }
        return Pending{sampleCdf(rng), 0.0, nullptr};
    }

    std::uint64_t
    finish(const Pending &pending) const
    {
        if (pending.cell == nullptr)
            return pending.value;
        return pick(pending.value, pending.coin,
                    *static_cast<const AliasCell *>(pending.cell));
    }

    /** Probability mass of the `k` hottest items (for tests). */
    double headMass(std::uint64_t k) const;

    std::uint64_t items() const { return n_; }
    double theta() const { return theta_; }

  private:
    /** One alias-table cell: take the column if the coin lands below
     *  `threshold`, otherwise take `alias`. Packed to 8 bytes (float
     *  threshold, 32-bit alias -- both lossless at aliasMaxItems
     *  scale up to float rounding of ~1e-7 on the split point): the
     *  sample path indexes this table uniformly at random, so halving
     *  the cell halves the host cache footprint of every draw. */
    struct AliasCell {
        float threshold;
        std::uint32_t alias;
    };

    /** The column if the coin lands below the cell's threshold, else
     *  its alias. The coin is uniform in [0, 1), so a branch on it
     *  mispredicts as often as the two outcomes are mixed; the
     *  comparison is turned into an all-ones or all-zeros mask
     *  instead, which selects the same value without a jump. */
    static std::uint64_t
    pick(std::uint64_t col, double coin, const AliasCell &cell)
    {
        const std::uint64_t take_col = -static_cast<std::uint64_t>(
            coin < static_cast<double>(cell.threshold));
        return (col & take_col) | (cell.alias & ~take_col);
    }

    /** Largest table the alias method is built for (512 KiB of cells);
     *  beyond that the CDF search wins on cache behaviour. */
    static constexpr std::uint64_t aliasMaxItems = 1u << 16;

    /** The big-table CDF binary search (shared by sample/begin). */
    std::uint64_t sampleCdf(Rng &rng) const;

    std::uint64_t n_;
    double theta_;
    std::vector<double> cdf_;        ///< kept for headMass(); empty
                                     ///< when theta == 0 (uniform)
    std::vector<AliasCell> alias_;   ///< empty when theta == 0 or
                                     ///< n > aliasMaxItems
};

/**
 * Two-tier popularity: a hot working set that steady-state caches can
 * hold, plus a uniform cold tail that produces compulsory/capacity
 * misses. This is the knob structure that lets each workload preset
 * dial in its Table 2 miss rate and footprint growth independently:
 * hit rate ~= hotProb once the hot set is cached, and the cold tail
 * sweeps the region's full footprint over time.
 */
class WorkingSetSampler
{
  public:
    /**
     * @param n total items in the region
     * @param hot_items size of the hot working set (clamped to n)
     * @param hot_prob probability an access targets the hot set
     * @param hot_theta Zipf skew within the hot set
     */
    WorkingSetSampler(std::uint64_t n, std::uint64_t hot_items,
                      double hot_prob, double hot_theta = 0.4);

    /** Draw a rank in [0, n); ranks below hotItems() are hot. */
    std::uint64_t sample(Rng &rng) const;

    /** Split sample (see ZipfSampler::begin): all draws happen in
     *  begin(), in sample()'s order; finish() only reads the
     *  prefetched alias cell. */
    struct Pending {
        bool hot = false;
        std::uint64_t cold = 0;
        ZipfSampler::Pending zipf;
    };

    Pending
    begin(Rng &rng) const
    {
        if (hot_ >= n_ || rng.chance(hotProb_))
            return Pending{true, 0, hotPick_.begin(rng)};
        return Pending{false, hot_ + rng.uniformInt(n_ - hot_), {}};
    }

    std::uint64_t
    finish(const Pending &pending) const
    {
        return pending.hot ? hotPick_.finish(pending.zipf)
                           : pending.cold;
    }

    std::uint64_t items() const { return n_; }
    std::uint64_t hotItems() const { return hot_; }
    double hotProb() const { return hotProb_; }

  private:
    std::uint64_t n_;
    std::uint64_t hot_;
    double hotProb_;
    ZipfSampler hotPick_;
};

/**
 * Exact magic-number modulo: mod() returns n % d bit-for-bit, with a
 * multiply-high and one conditional subtract instead of a hardware
 * divide (~30 cycles on the workload hot path). With
 * M = floor((2^64 - 1) / d), the true ratio satisfies
 * n/d - n*M/2^64 <= n * (1 + (d-1)) / (d * 2^64) < 1 for all 64-bit
 * n and d >= 2, so mulhi(n, M) is floor(n/d) or exactly one less and
 * a single fix-up subtract restores the exact remainder (fuzzed
 * against the hardware %, including d-boundary values, in
 * test_access_pipeline.cc). Divisors are per-region constants, so
 * the magic is computed once at construction.
 */
struct FastMod {
    std::uint64_t d = 1;
    std::uint64_t M = 0;

    FastMod() = default;
    explicit FastMod(std::uint64_t divisor)
        : d(divisor), M(divisor > 1 ? ~std::uint64_t{0} / divisor : 0)
    {
    }

    std::uint64_t
    mod(std::uint64_t n) const
    {
        if (d <= 1)
            return 0;
        std::uint64_t q = static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(n) * M) >> 64);
        std::uint64_t r = n - q * d;
        if (r >= d)
            r -= d;
        return r;
    }
};

/**
 * Map a popularity rank to a block index such that consecutive hot
 * ranks cluster into macroblock-sized runs whose *order* is scattered
 * across the region. This reproduces the paper's observation that
 * macroblock locality exceeds block locality (Figure 4b vs 4a) without
 * making the hot set perfectly contiguous.
 *
 * @param rank popularity rank in [0, blocks)
 * @param blocks total number of blocks in the region
 * @param run blocks per clustered run (16 = one 1 KB macroblock)
 */
std::uint64_t scatterRank(std::uint64_t rank, std::uint64_t blocks,
                          std::uint64_t run = 16);

/**
 * scatterRank with the per-region constants precomputed: the cluster
 * count's modulo runs on a FastMod magic and the run-size divisions
 * are shifts (run is a power of two). Bit-identical to scatterRank()
 * for every rank -- regions hold one of these per sampler so the per
 * -draw cost drops from three hardware divides to one multiply-high.
 */
class RankScatterer
{
  public:
    RankScatterer(std::uint64_t blocks, std::uint64_t run = 16)
        : blocks_(blocks),
          run_(run),
          clusters_(run ? (blocks + run - 1) / run : 0),
          blocksMod_(blocks),
          clustersMod_(clusters_ ? clusters_ : 1)
    {
        runShift_ = 0;
        while ((std::uint64_t{1} << runShift_) < run)
            ++runShift_;
        runPow2_ = (run & (run - 1)) == 0 && run != 0;
    }

    std::uint64_t
    map(std::uint64_t rank) const
    {
        if (rank >= blocks_)
            rank = blocksMod_.mod(rank);
        if (blocks_ <= run_)
            return rank;
        std::uint64_t cluster, offset;
        if (runPow2_) {
            cluster = rank >> runShift_;
            offset = rank & (run_ - 1);
        } else {
            cluster = rank / run_;
            offset = rank % run_;
        }
        std::uint64_t scattered =
            clustersMod_.mod(cluster * 0x9E3779B1ull);
        std::uint64_t block = scattered * run_ + offset;
        if (block >= blocks_)
            block = blocksMod_.mod(block);
        return block;
    }

  private:
    std::uint64_t blocks_;
    std::uint64_t run_;
    std::uint64_t clusters_;
    FastMod blocksMod_;
    FastMod clustersMod_;
    unsigned runShift_ = 0;
    bool runPow2_ = false;
};

} // namespace dsp

#endif // DSP_WORKLOAD_ZIPF_HH
