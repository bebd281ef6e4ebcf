/**
 * @file
 * The Owner/Group hybrid predictor (Section 3.3).
 *
 * Requests for shared use an Owner prediction (send only to the
 * predicted owner, saving bandwidth); requests for exclusive use a
 * Group prediction (reach the whole sharing set so the upgrade
 * succeeds directly). Works well for stable sharing patterns: every
 * sharer observes every GETX, so each can track the current owner.
 *
 * Both components are kept in one combined entry per table line
 * (~8 bytes modelled, Table 3; 24 B stored for up to 32 nodes).
 */

#ifndef DSP_CORE_OWNER_GROUP_PREDICTOR_HH
#define DSP_CORE_OWNER_GROUP_PREDICTOR_HH

#include "core/group_predictor.hh"
#include "core/owner_predictor.hh"
#include "core/predictor.hh"
#include "core/predictor_table.hh"

namespace dsp {

/** Combined Owner + Group state for one index. */
template <unsigned Words>
struct BasicOwnerGroupEntry {
    OwnerEntry owner;
    BasicGroupEntry<Words> group;
};

static_assert(sizeof(BasicOwnerGroupEntry<1>) <= 24,
              "a <=32-node Owner-Group entry must stay 24 bytes");

/** Owner-Group predictor over `Words` group-counter words; built for
 *  the narrowest width covering the machine by makePredictor. */
template <unsigned Words>
class BasicOwnerGroupPredictor : public Predictor
{
  public:
    using Entry = BasicOwnerGroupEntry<Words>;
    static constexpr NodeId nodeCapacity =
        BasicGroupEntry<Words>::nodeCapacity;

    explicit BasicOwnerGroupPredictor(const PredictorConfig &config);

    DestinationSet
    predict(Addr addr, Addr pc, RequestType type, NodeId requester,
            NodeId home) override;

    void trainResponse(Addr addr, Addr pc, NodeId responder,
                       bool insufficient) override;
    void trainExternalRequest(Addr addr, Addr pc, RequestType type,
                              NodeId requester) override;

    std::string name() const override { return "owner-group"; }
    std::size_t entryCount() const override { return table_.size(); }

    unsigned
    entryBits() const override
    {
        unsigned owner_bits = 1;
        while ((1u << owner_bits) < config_.numNodes)
            ++owner_bits;
        return owner_bits + 1 + 2 * config_.numNodes + 5;
    }

    PredictorTable<Entry> &table() { return table_; }

    void ckptSave(ckpt::Writer &w) const override { table_.ckptSave(w); }
    void ckptLoad(ckpt::Reader &r) override { table_.ckptLoad(r); }

  private:
    PredictorTable<Entry> table_;
};

/** The full-width (256-node) Owner-Group predictor. */
using OwnerGroupPredictor = BasicOwnerGroupPredictor<groupFullWords>;

extern template class BasicOwnerGroupPredictor<1>;
extern template class BasicOwnerGroupPredictor<2>;
extern template class BasicOwnerGroupPredictor<4>;
extern template class BasicOwnerGroupPredictor<8>;

} // namespace dsp

#endif // DSP_CORE_OWNER_GROUP_PREDICTOR_HH
