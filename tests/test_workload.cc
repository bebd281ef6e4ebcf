/**
 * @file
 * Tests for the Zipf samplers, sharing-pattern regions, workload
 * mixtures, and the six Table 1 presets.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

#include "sim/logging.hh"
#include "workload/presets.hh"
#include "workload/region.hh"
#include "workload/workload.hh"
#include "workload/zipf.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

// ------------------------------------------------------------------- zipf

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler z(10, 0.0);
    Rng rng(1);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 10000; ++i)
        counts[z.sample(rng)]++;
    for (int c : counts) {
        EXPECT_GT(c, 700);
        EXPECT_LT(c, 1300);
    }
}

TEST(Zipf, SkewFavoursLowRanks)
{
    ZipfSampler z(1000, 0.9);
    Rng rng(2);
    int head = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        head += z.sample(rng) < 10;
    // Rank 0-9 should take far more than the uniform 1%.
    EXPECT_GT(head, n / 20);
}

TEST(Zipf, HeadMassMonotoneInTheta)
{
    ZipfSampler flat(10000, 0.2);
    ZipfSampler steep(10000, 0.95);
    EXPECT_LT(flat.headMass(100), steep.headMass(100));
    EXPECT_DOUBLE_EQ(flat.headMass(10000), 1.0);
    EXPECT_DOUBLE_EQ(flat.headMass(0), 0.0);
}

TEST(Zipf, SamplesStayInRange)
{
    ZipfSampler z(7, 1.2);
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(z.sample(rng), 7u);
}

TEST(Zipf, InvalidParamsPanic)
{
    PanicGuard guard;
    EXPECT_THROW(ZipfSampler(0, 0.5), std::runtime_error);
    EXPECT_THROW(ZipfSampler(10, -0.1), std::runtime_error);
    EXPECT_THROW(ZipfSampler(10, 2.5), std::runtime_error);
}

/**
 * Walker alias sampling as built and drawn with a branch on the coin:
 * the reference the select-based ZipfSampler pick must match value for
 * value (same table construction, same single draw per sample).
 */
struct AliasReference {
    std::uint64_t n;
    std::vector<float> threshold;
    std::vector<std::uint32_t> alias;

    AliasReference(std::uint64_t items, double theta)
        : n(items), threshold(items), alias(items)
    {
        std::vector<double> cdf(n);
        double sum = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            sum += std::pow(static_cast<double>(i + 1), -theta);
            cdf[i] = sum;
        }
        for (double &v : cdf)
            v *= 1.0 / sum;
        cdf.back() = 1.0;
        std::vector<double> scaled(n);
        double prev = 0.0;
        for (std::uint64_t i = 0; i < n; ++i) {
            scaled[i] = (cdf[i] - prev) * static_cast<double>(n);
            prev = cdf[i];
        }
        std::vector<std::uint64_t> small, large;
        for (std::uint64_t i = 0; i < n; ++i)
            (scaled[i] < 1.0 ? small : large).push_back(i);
        while (!small.empty() && !large.empty()) {
            std::uint64_t s = small.back();
            std::uint64_t l = large.back();
            small.pop_back();
            large.pop_back();
            threshold[s] = static_cast<float>(scaled[s]);
            alias[s] = static_cast<std::uint32_t>(l);
            scaled[l] -= 1.0 - scaled[s];
            (scaled[l] < 1.0 ? small : large).push_back(l);
        }
        for (auto *rest : {&small, &large}) {
            for (std::uint64_t i : *rest) {
                threshold[i] = 1.0f;
                alias[i] = static_cast<std::uint32_t>(i);
            }
        }
    }

    std::uint64_t
    sample(Rng &rng) const
    {
        double u = rng.uniformReal() * static_cast<double>(n);
        auto col = static_cast<std::uint64_t>(u);
        if (col >= n)
            col = n - 1;
        double coin = u - static_cast<double>(col);
        return coin < static_cast<double>(threshold[col]) ? col
                                                          : alias[col];
    }
};

TEST(Zipf, AliasPickEqualsBranchingReference)
{
    for (std::uint64_t n : {7ull, 1000ull, 8000ull, 65536ull}) {
        for (double theta : {0.4, 0.9, 1.2}) {
            const ZipfSampler z(n, theta);
            const AliasReference ref(n, theta);
            Rng whole(31), split(31), want(31);
            for (int i = 0; i < 200000; ++i) {
                std::uint64_t expect = ref.sample(want);
                ASSERT_EQ(z.sample(whole), expect)
                    << "n " << n << " theta " << theta << " draw " << i;
                ASSERT_EQ(z.finish(z.begin(split)), expect)
                    << "n " << n << " theta " << theta << " draw " << i;
            }
            // Both forms consumed exactly the reference's draws.
            const std::uint64_t after = want.next();
            EXPECT_EQ(whole.next(), after);
            EXPECT_EQ(split.next(), after);
        }
    }
}

TEST(WorkingSet, HotProbControlsHitFraction)
{
    WorkingSetSampler s(100000, 1000, 0.99);
    Rng rng(4);
    int hot = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hot += s.sample(rng) < 1000;
    EXPECT_NEAR(hot / static_cast<double>(n), 0.99, 0.01);
}

TEST(WorkingSet, ColdTailCoversWholeRegion)
{
    WorkingSetSampler s(1000, 10, 0.0);  // always cold
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = s.sample(rng);
        ASSERT_GE(v, 10u);
        ASSERT_LT(v, 1000u);
        seen.insert(v);
    }
    EXPECT_GT(seen.size(), 900u);
}

TEST(WorkingSet, HotLargerThanRegionDegenerates)
{
    WorkingSetSampler s(10, 100, 0.5);
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        ASSERT_LT(s.sample(rng), 10u);
}

TEST(ScatterRank, IsAPermutationOverClusters)
{
    const std::uint64_t blocks = 1024;
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < blocks; ++r)
        seen.insert(scatterRank(r, blocks, 16));
    EXPECT_EQ(seen.size(), blocks);
}

TEST(ScatterRank, KeepsRunsWithinMacroblocks)
{
    // Ranks within the same 16-block run stay contiguous.
    std::uint64_t base = scatterRank(32, 4096, 16);
    for (std::uint64_t i = 1; i < 16; ++i)
        EXPECT_EQ(scatterRank(32 + i, 4096, 16), base + i);
}

// ----------------------------------------------------------------- regions

Region::Params
regionParams(Addr base, Addr bytes, std::uint32_t pcs = 64)
{
    Region::Params p;
    p.name = "test";
    p.base = base;
    p.bytes = bytes;
    p.pcSites = pcs;
    return p;
}

TEST(PrivateRegion, AddressesStayInOwnSlice)
{
    PrivateRegion region(regionParams(0x100000, 1 << 20), kNodes,
                         PrivateRegion::Config{64, 0.9, 0.3, 0.1, 8,
                                               4});
    Rng rng(7);
    Addr slice = (1 << 20) / kNodes;
    for (NodeId p = 0; p < kNodes; ++p) {
        for (int i = 0; i < 500; ++i) {
            RegionRef ref = region.gen(p, rng);
            ASSERT_GE(ref.addr, 0x100000u + p * slice);
            ASSERT_LT(ref.addr, 0x100000u + (p + 1) * slice);
        }
    }
}

TEST(ReadMostlyRegion, WriteFractionRespected)
{
    ReadMostlyRegion region(
        regionParams(0x200000, 1 << 20), kNodes,
        ReadMostlyRegion::Config{1024, 0.99, 0.05});
    Rng rng(8);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += region.gen(i % kNodes, rng).write;
    EXPECT_NEAR(writes / static_cast<double>(n), 0.05, 0.01);
}

TEST(MigratoryRegion, BurstReadsThenWrites)
{
    MigratoryRegion region(regionParams(0x300000, 1 << 20), kNodes,
                           MigratoryRegion::Config{2, 6, 0.5, 0.0});
    Rng rng(9);
    // One processor's burst: first half reads, second half writes.
    std::vector<bool> writes;
    for (int i = 0; i < 6; ++i)
        writes.push_back(region.gen(0, rng).write);
    EXPECT_FALSE(writes[0]);
    EXPECT_FALSE(writes[1]);
    EXPECT_FALSE(writes[2]);
    EXPECT_TRUE(writes[3]);
    EXPECT_TRUE(writes[4]);
    EXPECT_TRUE(writes[5]);
}

TEST(MigratoryRegion, BurstStaysOnOneItem)
{
    MigratoryRegion region(regionParams(0x300000, 1 << 20), kNodes,
                           MigratoryRegion::Config{2, 6, 0.5, 0.0});
    Rng rng(10);
    std::set<std::uint64_t> items;
    for (int i = 0; i < 6; ++i) {
        RegionRef ref = region.gen(1, rng);
        items.insert((ref.addr - 0x300000) / (2 * blockBytes));
    }
    EXPECT_EQ(items.size(), 1u);
}

TEST(ProducerConsumerRegion, PassesAreSequentialAndTyped)
{
    ProducerConsumerRegion region(
        regionParams(0x400000, 1 << 20), kNodes,
        ProducerConsumerRegion::Config{16, 1, 0.0, 1});  // produce only
    Rng rng(11);
    // With consumeFraction 0, processor 2 always writes its own
    // buffers, one block at a time, sequentially.
    std::vector<BlockId> blocks;
    for (int i = 0; i < 16; ++i) {
        RegionRef ref = region.gen(2, rng);
        EXPECT_TRUE(ref.write);
        blocks.push_back(blockOf(ref.addr));
    }
    for (std::size_t i = 1; i < blocks.size(); ++i)
        EXPECT_EQ(blocks[i], blocks[i - 1] + 1);
}

TEST(ProducerConsumerRegion, ConsumerReadsNeighbourBuffer)
{
    ProducerConsumerRegion region(
        regionParams(0x400000, 1 << 20), kNodes,
        ProducerConsumerRegion::Config{16, 1, 1.0, 1});  // consume only
    Rng rng(12);
    RegionRef ref = region.gen(2, rng);
    EXPECT_FALSE(ref.write);
    // Buffer index modulo nodes identifies the owner: must be the
    // immediate neighbour (2 + 1).
    std::uint64_t buffer =
        (blockOf(ref.addr) - blockOf(0x400000)) / 16;
    EXPECT_EQ(buffer % kNodes, 3u);
}

TEST(GroupRegion, MembersStayInGroupSlice)
{
    GroupRegion region(regionParams(0x500000, 1 << 20), kNodes,
                       GroupRegion::Config{4, 256, 0.9, 0.3});
    Rng rng(13);
    Addr slice = (1 << 20) / 4;  // 4 groups
    for (NodeId p = 0; p < kNodes; ++p) {
        NodeId group = p / 4;
        for (int i = 0; i < 200; ++i) {
            RegionRef ref = region.gen(p, rng);
            ASSERT_GE(ref.addr, 0x500000u + group * slice);
            ASSERT_LT(ref.addr, 0x500000u + (group + 1) * slice);
        }
    }
}

TEST(HotRegion, StaysTinyAndWriteHeavy)
{
    HotRegion region(regionParams(0x600000, 64 * 1024), kNodes,
                     HotRegion::Config{0.8, 0.5});
    Rng rng(14);
    int writes = 0;
    for (int i = 0; i < 10000; ++i) {
        RegionRef ref = region.gen(i % kNodes, rng);
        ASSERT_GE(ref.addr, 0x600000u);
        ASSERT_LT(ref.addr, 0x600000u + 64 * 1024);
        writes += ref.write;
    }
    EXPECT_NEAR(writes / 10000.0, 0.5, 0.05);
}

TEST(Region, PcsComeFromTheRegionPool)
{
    HotRegion region(regionParams(0x600000, 64 * 1024, 32), kNodes,
                     HotRegion::Config{0.8, 0.5});
    Rng rng(15);
    std::set<Addr> pcs;
    for (int i = 0; i < 5000; ++i)
        pcs.insert(region.gen(0, rng).pc);
    EXPECT_LE(pcs.size(), 32u);
    EXPECT_GT(pcs.size(), 10u);
}

// ---------------------------------------------------------------- workload

TEST(Workload, DeterministicPerSeed)
{
    auto make = [](std::uint64_t seed) {
        return makeWorkload("oltp", kNodes, seed, 0.05);
    };
    auto a = make(42), b = make(42), c = make(43);
    bool all_same = true, any_diff = false;
    for (int i = 0; i < 1000; ++i) {
        NodeId p = static_cast<NodeId>(i % kNodes);
        MemRef ra = a->next(p), rb = b->next(p), rc = c->next(p);
        all_same &= ra.addr == rb.addr && ra.pc == rb.pc &&
                    ra.write == rb.write && ra.work == rb.work;
        any_diff |= ra.addr != rc.addr;
    }
    EXPECT_TRUE(all_same);
    EXPECT_TRUE(any_diff);
}

TEST(Workload, RefillBatchingIsDrawIdentical)
{
    // The per-processor refill buffer is a pure amortization: every
    // batch size must produce the exact same reference stream as
    // generating one reference at a time (batch 1), under any
    // cross-processor interleaving.
    auto batched = makeWorkload("apache", kNodes, 7, 0.25);
    auto unbatched = makeWorkload("apache", kNodes, 7, 0.25);
    ASSERT_EQ(batched->refillBatch(), 64u);
    unbatched->setRefillBatch(1);

    Rng interleave(3);
    for (int i = 0; i < 20000; ++i) {
        // Bursty, uneven interleaving across processors.
        NodeId p = static_cast<NodeId>(interleave.uniformInt(kNodes));
        int burst = static_cast<int>(interleave.uniformInt(5)) + 1;
        for (int j = 0; j < burst; ++j) {
            MemRef rb = batched->next(p);
            MemRef ru = unbatched->next(p);
            ASSERT_EQ(rb.addr, ru.addr);
            ASSERT_EQ(rb.pc, ru.pc);
            ASSERT_EQ(rb.write, ru.write);
            ASSERT_EQ(rb.work, ru.work);
        }
    }

    // Changing the batch mid-stream only changes generation timing.
    batched->setRefillBatch(7);
    for (int i = 0; i < 1000; ++i) {
        NodeId p = static_cast<NodeId>(i % kNodes);
        MemRef rb = batched->next(p);
        MemRef ru = unbatched->next(p);
        ASSERT_EQ(rb.addr, ru.addr);
        ASSERT_EQ(rb.work, ru.work);
    }
}

TEST(Workload, RegionPickEqualsFirstAboveScan)
{
    // With no work draws and one-reference episodes, every reference
    // is one region pick followed by that region's gen(); HotRegion
    // holds no per-processor state, so a twin set of regions driven by
    // the plain "first cumulative weight above u" scan must reproduce
    // the stream exactly. The weights include near-ties and one too
    // small to move the running sum.
    const std::vector<double> weights = {3.0, 1e-18, 2.0, 5.0, 0.5,
                                         7.0, 1.0,   1.0, 4.0};
    Workload w("pick", kNodes, 0.0, 5, 1.0);
    std::vector<std::unique_ptr<HotRegion>> twins;
    std::vector<double> cum;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        Addr base = 0x1000000 * (i + 1);
        HotRegion::Config cfg{0.8, 0.3};
        w.addRegion(std::make_unique<HotRegion>(
                        regionParams(base, 64 * 1024), kNodes, cfg),
                    weights[i]);
        twins.push_back(std::make_unique<HotRegion>(
            regionParams(base, 64 * 1024), kNodes, cfg));
        cum.push_back((cum.empty() ? 0.0 : cum.back()) + weights[i]);
    }
    for (NodeId p : {NodeId(0), NodeId(9)}) {
        Rng rng(5, p + 1);
        for (int i = 0; i < 50000; ++i) {
            double u = rng.uniformReal() * cum.back();
            std::size_t r = 0;
            while (r + 1 < cum.size() && !(u < cum[r]))
                ++r;
            RegionRef want = twins[r]->gen(p, rng);
            MemRef got = w.next(p);
            ASSERT_EQ(got.addr, want.addr) << "proc " << p << " ref " << i;
            ASSERT_EQ(got.pc, want.pc);
            ASSERT_EQ(got.write, want.write);
        }
    }
}

TEST(Workload, MeanWorkApproximatelyHonoured)
{
    Workload w("test", kNodes, 4.0, 1);
    w.addRegion(std::make_unique<HotRegion>(
                    regionParams(0x1000000, 64 * 1024), kNodes,
                    HotRegion::Config{0.5, 0.5}),
                1.0);
    double total = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += w.next(static_cast<NodeId>(i % kNodes)).work;
    EXPECT_NEAR(total / n, 4.0, 0.25);
}

TEST(Workload, AllPresetsConstructAndRun)
{
    for (const std::string &name : workloadNames()) {
        auto w = makeWorkload(name, kNodes, 1, 0.05);
        ASSERT_EQ(w->name(), name);
        ASSERT_EQ(w->numNodes(), kNodes);
        ASSERT_GE(w->regionCount(), 4u);
        EXPECT_GT(w->totalFootprint(), 0u);
        for (int i = 0; i < 2000; ++i) {
            MemRef ref = w->next(static_cast<NodeId>(i % kNodes));
            ASSERT_NE(ref.addr, 0u);
            ASSERT_NE(ref.pc, 0u);
        }
    }
}

/**
 * Regression for the 256-node scaling sweep: at scale 0.05 apache's
 * netbufs pool used to round to zero buffers per node once the node
 * count outgrew the generic 64 KB footprint floor, panicking in the
 * ProducerConsumerRegion constructor. Every preset must construct
 * and generate references on every machine size the sweep supports.
 */
TEST(Workload, AllPresetsScaleTo256Nodes)
{
    for (NodeId nodes : {NodeId(64), NodeId(256)}) {
        for (const std::string &name : workloadNames()) {
            auto w = makeWorkload(name, nodes, 1, 0.05);
            ASSERT_EQ(w->numNodes(), nodes);
            for (int i = 0; i < 2000; ++i) {
                MemRef ref = w->next(static_cast<NodeId>(i % nodes));
                ASSERT_NE(ref.addr, 0u);
            }
        }
    }
}

/**
 * Golden-stream pin: a hash of the first 100k references of every
 * processor, at the benchmark's footprint scale and held-out seed 11.
 * The samplers' fast paths (guide-table geometric draws, select-based
 * alias picks, the counted region pick) must return exactly the values
 * of the plain inverse-CDF scans they replaced; a changed draw anywhere
 * in a stream changes its hash. The constants were recorded with the
 * linear-scan samplers, so this also pins the streams across compilers
 * and instruction sets (every CI leg runs it).
 */
std::uint64_t
streamHash(const std::string &preset, NodeId nodes)
{
    auto w = makeWorkload(preset, nodes, 11, 0.25);
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ull;
        h ^= h >> 29;
    };
    for (NodeId p = 0; p < nodes; ++p) {
        for (int i = 0; i < 100000; ++i) {
            MemRef ref = w->next(p);
            mix(ref.addr);
            mix(ref.pc);
            mix((static_cast<std::uint64_t>(ref.work) << 1) |
                (ref.write ? 1 : 0));
        }
    }
    return h;
}

TEST(Workload, GoldenStreamOltp16)
{
    EXPECT_EQ(streamHash("oltp", 16), 0x497d5e833d272e33ull);
}

TEST(Workload, GoldenStreamBarnes16)
{
    EXPECT_EQ(streamHash("barnes", 16), 0x9dc87776da39b047ull);
}

TEST(Workload, GoldenStreamOltp256)
{
    EXPECT_EQ(streamHash("oltp", 256), 0x2bf405a224d81905ull);
}

TEST(Workload, UnknownPresetFatals)
{
    PanicGuard guard;
    EXPECT_THROW(makeWorkload("nosuch", kNodes, 1, 1.0),
                 std::runtime_error);
}

TEST(Workload, PresetFootprintOrderingMatchesTable2)
{
    // specjbb > slashcode > {oltp, ocean, apache} > barnes.
    std::unordered_map<std::string, Addr> fp;
    for (const std::string &name : workloadNames())
        fp[name] = makeWorkload(name, kNodes, 1, 1.0)->totalFootprint();
    EXPECT_GT(fp["specjbb"], fp["slashcode"]);
    EXPECT_GT(fp["slashcode"], fp["oltp"]);
    EXPECT_GT(fp["oltp"], fp["barnes"]);
    EXPECT_GT(fp["ocean"], fp["barnes"]);
    EXPECT_GT(fp["apache"], fp["barnes"]);
}

TEST(Workload, ScaleShrinksFootprint)
{
    auto full = makeWorkload("apache", kNodes, 1, 1.0);
    auto quarter = makeWorkload("apache", kNodes, 1, 0.25);
    EXPECT_LT(quarter->totalFootprint(), full->totalFootprint());
}

} // namespace
} // namespace dsp
