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
 * (~8 bytes modelled, Table 3).
 */

#ifndef DSP_CORE_OWNER_GROUP_PREDICTOR_HH
#define DSP_CORE_OWNER_GROUP_PREDICTOR_HH

#include "core/group_predictor.hh"
#include "core/owner_predictor.hh"
#include "core/predictor.hh"
#include "core/predictor_table.hh"

namespace dsp {

/** Combined Owner + Group state for one index. */
struct OwnerGroupEntry {
    OwnerEntry owner;
    GroupEntry group;
};

class OwnerGroupPredictor : public Predictor
{
  public:
    explicit OwnerGroupPredictor(const PredictorConfig &config)
        : Predictor(config), table_(config.entries, config.ways)
    {
    }

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

    PredictorTable<OwnerGroupEntry> &table() { return table_; }

    void ckptSave(ckpt::Writer &w) const override { table_.ckptSave(w); }
    void ckptLoad(ckpt::Reader &r) override { table_.ckptLoad(r); }

  private:
    PredictorTable<OwnerGroupEntry> table_;
};

} // namespace dsp

#endif // DSP_CORE_OWNER_GROUP_PREDICTOR_HH
