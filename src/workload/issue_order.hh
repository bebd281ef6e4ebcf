/**
 * @file
 * The functional issue order: least-advanced processor first.
 *
 * Functional warmup and trace collection interleave the processors'
 * reference streams by instruction count: the processor with the
 * fewest executed instructions issues the next reference, the lowest
 * id winning a tie. This approximates lockstep parallel execution.
 *
 * IssueOrder keeps a winner tree over (count, id). Leaves are the
 * processors, padded to a power of two with leaves that never win;
 * every inner node holds the winner of its two children. Picking the
 * next processor reads the root, O(1); charging it for a reference
 * replays one leaf-to-root path, O(log N). Every id in a node's left
 * subtree is below every id in its right subtree, so "left wins
 * ties" is exactly the lowest-id rule of a linear argmin scan.
 */

#ifndef DSP_WORKLOAD_ISSUE_ORDER_HH
#define DSP_WORKLOAD_ISSUE_ORDER_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hh"

namespace dsp {

class IssueOrder
{
  public:
    /** `nodes` processors, all at instruction count zero. */
    explicit IssueOrder(NodeId nodes)
        : nodes_(nodes),
          leaves_(std::bit_ceil(static_cast<std::size_t>(nodes))),
          counts_(leaves_, std::numeric_limits<std::uint64_t>::max()),
          winner_(2 * leaves_)
    {
        for (NodeId p = 0; p < nodes_; ++p)
            counts_[p] = 0;
        for (std::size_t i = 0; i < leaves_; ++i)
            winner_[leaves_ + i] = static_cast<NodeId>(i);
        for (std::size_t i = leaves_; i-- > 1;)
            winner_[i] = pick(winner_[2 * i], winner_[2 * i + 1]);
    }

    /** The processor that issues next: fewest instructions, lowest id
     *  on a tie. */
    NodeId next() const { return winner_[1]; }

    /** Charge processor p `instructions` more instructions. */
    void
    advance(NodeId p, std::uint64_t instructions)
    {
        counts_[p] += instructions;
        for (std::size_t i = (leaves_ + p) / 2; i >= 1; i /= 2)
            winner_[i] = pick(winner_[2 * i], winner_[2 * i + 1]);
    }

    /** Instructions charged to all processors so far. */
    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (NodeId p = 0; p < nodes_; ++p)
            sum += counts_[p];
        return sum;
    }

  private:
    /** Winner of a left and a right subtree: the right one only when
     *  strictly behind, so ties go to the lower id. */
    NodeId
    pick(NodeId left, NodeId right) const
    {
        return counts_[right] < counts_[left] ? right : left;
    }

    NodeId nodes_;
    std::size_t leaves_;
    /** One count per leaf; padding leaves hold the maximum. */
    std::vector<std::uint64_t> counts_;
    /** Heap-ordered winner tree: [1] is the root, [leaves_ + i] is
     *  leaf i, [0] is unused. */
    std::vector<NodeId> winner_;
};

} // namespace dsp

#endif // DSP_WORKLOAD_ISSUE_ORDER_HH
