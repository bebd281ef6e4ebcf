/**
 * @file
 * Differential tests for the functional issue order: the winner tree
 * must pick exactly what a linear least-advanced scan (lowest id on a
 * tie) picks, at every step, at every machine size -- including sizes
 * that are not powers of two -- and the trace collector must issue
 * references in that order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/trace_collector.hh"
#include "sim/rng.hh"
#include "workload/issue_order.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

/** The reference rule: the first processor with the fewest
 *  instructions. */
NodeId
naiveNext(const std::vector<std::uint64_t> &counts)
{
    NodeId p = 0;
    for (NodeId n = 1; n < counts.size(); ++n)
        if (counts[n] < counts[p])
            p = n;
    return p;
}

TEST(IssueOrder, MatchesNaiveScanAtEveryStep)
{
    constexpr int steps = 100000;
    constexpr int tieSteps = 20000;
    for (NodeId nodes : {1u, 2u, 3u, 16u, 17u, 64u, 255u, 256u}) {
        SCOPED_TRACE(nodes);
        IssueOrder order(nodes);
        std::vector<std::uint64_t> counts(nodes, 0);
        Rng rng(/* seed */ 11, /* stream */ nodes);
        std::uint64_t total = 0;
        for (int step = 0; step < steps; ++step) {
            const NodeId p = naiveNext(counts);
            ASSERT_EQ(order.next(), p) << "step " << step;
            // First a phase of unit increments, where ties decide
            // nearly every pick; then work + 1 with an occasional
            // long burst of non-memory work.
            std::uint64_t instructions = 1;
            if (step >= tieSteps) {
                instructions = 1 + rng.uniformInt(16);
                if (rng.uniformInt(64) == 0)
                    instructions += rng.uniformInt(5000);
            }
            order.advance(p, instructions);
            counts[p] += instructions;
            total += instructions;
        }
        EXPECT_EQ(order.total(), total);
    }
}

TEST(IssueOrder, TraceCollectorIssuesInNaiveScanOrder)
{
    constexpr NodeId nodes = 256;
    constexpr std::uint64_t refs = 10000;
    auto workload = makeWorkload("oltp", nodes, /* seed */ 11);
    TraceCollector collector(*workload);

    std::vector<std::uint64_t> counts(nodes, 0);
    std::uint64_t seen = 0;
    std::uint64_t mismatches = 0;
    collector.addRefObserver([&](NodeId p, const MemRef &ref) {
        if (p != naiveNext(counts))
            ++mismatches;
        counts[p] += ref.work + 1;
        ++seen;
    });
    collector.run(/* misses */ ~std::uint64_t{0}, refs);

    EXPECT_EQ(seen, refs);
    EXPECT_EQ(mismatches, 0u);
    std::uint64_t total = 0;
    for (std::uint64_t count : counts)
        total += count;
    EXPECT_EQ(collector.totalInstructions(), total);
}

} // namespace
} // namespace dsp
