/**
 * @file
 * DestinationSet: the set of nodes that receive a coherence request.
 *
 * This is the central abstraction of the paper (the "multicast mask").
 * Represented as a fixed-size array of 64-bit words covering maxNodes
 * bits (256 nodes -> 4 words, 32 bytes), with SWAR popcount/iterate.
 * Code that stores many sets (trace files, characterization) keeps
 * only the ceil(N/64) words an N-node machine needs, in a plane of
 * words, and moves between the two forms with words() and fromWords().
 */

#ifndef DSP_MEM_DESTINATION_SET_HH
#define DSP_MEM_DESTINATION_SET_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace dsp {

/** A set of node identifiers, value semantics, O(words) set algebra. */
class DestinationSet
{
  public:
    /** Number of 64-bit words backing the set. */
    static constexpr unsigned wordCount = maxNodes / 64;
    static_assert(maxNodes % 64 == 0,
                  "maxNodes must be a multiple of the word width");

    using Words = std::array<std::uint64_t, wordCount>;

    constexpr DestinationSet() = default;

    /** Construct from a full word array (word w bit b <=> node 64w+b). */
    static constexpr DestinationSet
    fromWords(const Words &words)
    {
        DestinationSet s;
        s.words_ = words;
        return s;
    }

    /**
     * Construct from the first `count` words of a set stored in a
     * plane (word w bit b <=> node 64w+b); the words past `count` are
     * empty.
     */
    static constexpr DestinationSet
    fromWords(const std::uint64_t *words, unsigned count)
    {
        DestinationSet s;
        for (unsigned w = 0; w < count; ++w)
            s.words_[w] = words[w];
        return s;
    }

    /** The set containing every node in an n-node system. */
    static DestinationSet
    all(NodeId n)
    {
        dsp_assert(n > 0 && n <= maxNodes, "bad node count %u", n);
        DestinationSet s;
        for (unsigned w = 0; w < wordCount && n > 0; ++w) {
            if (n >= 64) {
                s.words_[w] = ~std::uint64_t{0};
                n -= 64;
            } else {
                s.words_[w] = (std::uint64_t{1} << n) - 1;
                n = 0;
            }
        }
        return s;
    }

    /** The singleton set {node}. */
    static DestinationSet
    of(NodeId node)
    {
        DestinationSet s;
        s.add(node);
        return s;
    }

    /** Full word array, for callers sized off maxNodes. */
    constexpr const Words &words() const { return words_; }

    /** Add a node to the set. */
    void
    add(NodeId node)
    {
        dsp_assert(node < maxNodes, "node %u out of range", node);
        words_[node >> 6] |= std::uint64_t{1} << (node & 63);
    }

    /** Remove a node from the set. */
    void
    remove(NodeId node)
    {
        dsp_assert(node < maxNodes, "node %u out of range", node);
        words_[node >> 6] &= ~(std::uint64_t{1} << (node & 63));
    }

    /** Membership test. */
    constexpr bool
    contains(NodeId node) const
    {
        return node < maxNodes &&
               (words_[node >> 6] >> (node & 63)) & 1;
    }

    /** True if every member of `other` is also a member of this set. */
    constexpr bool
    containsAll(const DestinationSet &other) const
    {
        std::uint64_t leak = 0;
        for (unsigned w = 0; w < wordCount; ++w)
            leak |= other.words_[w] & ~words_[w];
        return leak == 0;
    }

    /** Number of members. */
    constexpr unsigned
    count() const
    {
        unsigned n = 0;
        for (std::uint64_t w : words_)
            n += static_cast<unsigned>(std::popcount(w));
        return n;
    }

    /** True if the set is empty. */
    constexpr bool
    empty() const
    {
        std::uint64_t any = 0;
        for (std::uint64_t w : words_)
            any |= w;
        return any == 0;
    }

    /** Set union / difference / intersection. */
    constexpr DestinationSet
    operator|(const DestinationSet &o) const
    {
        DestinationSet s;
        for (unsigned w = 0; w < wordCount; ++w)
            s.words_[w] = words_[w] | o.words_[w];
        return s;
    }

    constexpr DestinationSet
    operator&(const DestinationSet &o) const
    {
        DestinationSet s;
        for (unsigned w = 0; w < wordCount; ++w)
            s.words_[w] = words_[w] & o.words_[w];
        return s;
    }

    /** Members of this set that are not in `o`. */
    constexpr DestinationSet
    minus(const DestinationSet &o) const
    {
        DestinationSet s;
        for (unsigned w = 0; w < wordCount; ++w)
            s.words_[w] = words_[w] & ~o.words_[w];
        return s;
    }

    DestinationSet &
    operator|=(const DestinationSet &o)
    {
        for (unsigned w = 0; w < wordCount; ++w)
            words_[w] |= o.words_[w];
        return *this;
    }

    constexpr bool
    operator==(const DestinationSet &) const = default;

    /** Invoke fn(NodeId) for each member, ascending. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (unsigned w = 0; w < wordCount; ++w) {
            std::uint64_t m = words_[w];
            while (m) {
                NodeId n = static_cast<NodeId>(
                    (w << 6) + std::countr_zero(m));
                fn(n);
                m &= m - 1;
            }
        }
    }

    /** Render like "{0,3,7}" for debugging. */
    std::string
    toString() const
    {
        std::string out = "{";
        bool first = true;
        forEach([&](NodeId n) {
            if (!first)
                out += ",";
            out += std::to_string(n);
            first = false;
        });
        out += "}";
        return out;
    }

  private:
    Words words_{};
};

} // namespace dsp

#endif // DSP_MEM_DESTINATION_SET_HH
