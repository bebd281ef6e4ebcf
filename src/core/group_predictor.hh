/**
 * @file
 * The Group predictor (Table 3, column 3).
 *
 * Targets group sharing: one 2-bit saturating counter per processor
 * plus a 5-bit rollover counter per entry. Processors whose counters
 * exceed the threshold join the predicted set; the rollover counter
 * periodically decays every counter so inactive processors eventually
 * leave the destination set (explicit train-down, the key advance over
 * Sticky-Spatial noted in Section 3.5).
 */

#ifndef DSP_CORE_GROUP_PREDICTOR_HH
#define DSP_CORE_GROUP_PREDICTOR_HH

#include <array>

#include "checkpoint/checkpoint.hh"
#include "core/predictor.hh"
#include "core/predictor_table.hh"

namespace dsp {

/**
 * Per-entry state: N 2-bit counters + a 5-bit rollover counter.
 *
 * The counters are packed two bits per processor into `Words` uint64
 * words, 32 processors per word, so decay/extract are SWAR operations
 * instead of per-node loops. The width is sized to the machine (see
 * makePredictor): an entry is 16 B for up to 32 nodes, 24 B for 64,
 * 40 B for 128 and 72 B for 256.
 */
template <unsigned Words>
struct BasicGroupEntry {
    static constexpr unsigned fieldsPerWord = 32;  ///< 2 bits each
    static constexpr NodeId nodeCapacity = Words * fieldsPerWord;

    std::array<std::uint64_t, Words> packed{};
    std::uint8_t rollover = 0;  ///< 5-bit, wraps at 32

    /** Current counter value for one processor (0..3). */
    unsigned
    counter(NodeId node) const
    {
        return (packed[node / fieldsPerWord] >>
                (2 * (node % fieldsPerWord))) &
               0x3;
    }

    /** Bump one processor's counter (saturating at 3). */
    void
    strengthen(NodeId node)
    {
        std::uint64_t &word = packed[node / fieldsPerWord];
        unsigned shift = 2 * (node % fieldsPerWord);
        if (((word >> shift) & 0x3) < 3)
            word += std::uint64_t{1} << shift;
    }

    /**
     * Advance the rollover counter; on wrap, decay every processor's
     * counter by one (Table 3 footnote).
     */
    void
    tickRollover()
    {
        rollover = static_cast<std::uint8_t>((rollover + 1) & 0x1f);
        if (rollover != 0)
            return;
        for (std::uint64_t &word : packed) {
            // Subtract one from every non-zero 2-bit field: the low
            // bit of (v | v>>1) is set exactly when v > 0, and v > 0
            // fields never borrow.
            constexpr std::uint64_t low =
                0x5555555555555555ULL;
            word -= ((word >> 1) | word) & low;
        }
    }

    /** Processors currently predicted to need the block (counter > 1,
     *  i.e. the field's high bit is set). */
    DestinationSet
    predictedSet() const
    {
        DestinationSet::Words words{};
        for (unsigned w = 0; w < Words; ++w) {
            std::uint64_t high =
                (packed[w] >> 1) & 0x5555555555555555ULL;
            while (high != 0) {
                unsigned bit = static_cast<unsigned>(
                    __builtin_ctzll(high));
                unsigned node = w * fieldsPerWord + bit / 2;
                words[node / 64] |= std::uint64_t{1} << (node % 64);
                high &= high - 1;
            }
        }
        return DestinationSet::fromWords(words);
    }
};

/** Counter words covering maxNodes: the width that fits any machine. */
constexpr unsigned groupFullWords =
    maxNodes / BasicGroupEntry<1>::fieldsPerWord;

static_assert(sizeof(BasicGroupEntry<1>) <= 16,
              "a <=32-node Group entry must stay 16 bytes");

/** Group predictor over entries of `Words` counter words; built for
 *  the narrowest width covering the machine by makePredictor. */
template <unsigned Words>
class BasicGroupPredictor : public Predictor
{
  public:
    using Entry = BasicGroupEntry<Words>;
    static constexpr NodeId nodeCapacity = Entry::nodeCapacity;

    explicit BasicGroupPredictor(const PredictorConfig &config);

    DestinationSet
    predict(Addr addr, Addr pc, RequestType type, NodeId requester,
            NodeId home) override;

    void trainResponse(Addr addr, Addr pc, NodeId responder,
                       bool insufficient) override;
    void trainExternalRequest(Addr addr, Addr pc, RequestType type,
                              NodeId requester) override;

    std::string name() const override { return "group"; }
    std::size_t entryCount() const override { return table_.size(); }

    unsigned
    entryBits() const override
    {
        return 2 * config_.numNodes + 5;
    }

    PredictorTable<Entry> &table() { return table_; }

    void ckptSave(ckpt::Writer &w) const override { table_.ckptSave(w); }
    void ckptLoad(ckpt::Reader &r) override { table_.ckptLoad(r); }

  private:
    PredictorTable<Entry> table_;
};

/** The full-width (256-node) Group predictor. */
using GroupPredictor = BasicGroupPredictor<groupFullWords>;

extern template class BasicGroupPredictor<1>;
extern template class BasicGroupPredictor<2>;
extern template class BasicGroupPredictor<4>;
extern template class BasicGroupPredictor<8>;

} // namespace dsp

#endif // DSP_CORE_GROUP_PREDICTOR_HH
