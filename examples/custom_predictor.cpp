/**
 * @file
 * Extending the library with a user-defined destination-set policy.
 *
 * Implements a "recent-two owners" predictor -- it remembers the last
 * two distinct nodes that touched each macroblock and sends to both,
 * splitting the difference between Owner (one candidate) and Group
 * (everyone with a high counter). It then competes against the
 * built-in policies on a real workload trace using the same
 * evaluation harness the paper's figures use.
 *
 * The point: anything deriving from dsp::Predictor plugs into the
 * replay harness, the timing simulator, and the benches.
 */

#include <iostream>

#include "analysis/predictor_eval.hh"
#include "analysis/trace_collector.hh"
#include "core/predictor.hh"
#include "core/predictor_table.hh"
#include "stats/table.hh"
#include "workload/presets.hh"

namespace {

using namespace dsp;

/** Last two distinct sharers of a block. */
struct RecentTwoEntry {
    NodeId recent = invalidNode;
    NodeId previous = invalidNode;

    void
    touch(NodeId node)
    {
        if (node == recent)
            return;
        previous = recent;
        recent = node;
    }
};

class RecentTwoPredictor : public Predictor
{
  public:
    explicit RecentTwoPredictor(const PredictorConfig &config)
        : Predictor(config), table_(config.entries, config.ways)
    {
    }

    DestinationSet
    predict(Addr addr, Addr pc, RequestType, NodeId requester,
            NodeId home) override
    {
        DestinationSet set = minimalSet(requester, home);
        if (RecentTwoEntry *entry =
                table_.find(indexKey(config_.indexing, addr, pc))) {
            if (entry->recent != invalidNode)
                set.add(entry->recent);
            if (entry->previous != invalidNode)
                set.add(entry->previous);
        }
        return set;
    }

    void
    trainResponse(Addr addr, Addr pc, NodeId responder,
                  bool insufficient) override
    {
        std::uint64_t key = indexKey(config_.indexing, addr, pc);
        if (responder == invalidNode)
            return;  // nothing to learn from memory
        RecentTwoEntry *entry = table_.find(key);
        if (!entry && insufficient)
            entry = &table_.findOrAllocate(key);
        if (entry)
            entry->touch(responder);
    }

    void
    trainExternalRequest(Addr addr, Addr pc, RequestType type,
                         NodeId requester) override
    {
        if (type == RequestType::GetShared)
            return;
        table_.findOrAllocate(indexKey(config_.indexing, addr, pc))
            .touch(requester);
    }

    std::string name() const override { return "recent-two"; }
    std::size_t entryCount() const override { return table_.size(); }

    unsigned
    entryBits() const override
    {
        unsigned id_bits = 1;
        while ((1u << id_bits) < config_.numNodes)
            ++id_bits;
        return 2 * (id_bits + 1);
    }

  private:
    PredictorTable<RecentTwoEntry> table_;
};

/** Replay a trace through multicast snooping with any predictor. */
EvalResult
evaluateCustom(const Trace &trace, const PredictorConfig &config)
{
    std::vector<std::unique_ptr<Predictor>> predictors;
    for (NodeId n = 0; n < config.numNodes; ++n)
        predictors.push_back(
            std::make_unique<RecentTwoPredictor>(config));

    MulticastSnoopingModel protocol(config.numNodes);
    EvalResult result;
    result.protocol = protocol.name();
    result.policy = predictors[0]->name();

    std::uint64_t msgs = 0, indirections = 0, bytes = 0;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        MissInfo miss = trace.missInfo(i);
        DestinationSet predicted = predictors[miss.requester]->predict(
            miss.addr, miss.pc, miss.type, miss.requester, miss.home);
        MissOutcome out = protocol.handleMiss(miss, predicted);

        Predictor &own = *predictors[miss.requester];
        if (miss.responder != miss.requester)
            own.trainResponse(miss.addr, miss.pc, miss.responder,
                              !miss.required.empty());
        out.observers.forEach([&](NodeId q) {
            if (q != miss.requester)
                predictors[q]->trainExternalRequest(
                    miss.addr, miss.pc, miss.type, miss.requester);
        });

        if (i < trace.warmupRecords)
            continue;
        ++result.misses;
        msgs += out.requestMessages;
        indirections += out.indirection ? 1 : 0;
        bytes += out.totalBytes();
    }
    double n = static_cast<double>(result.misses);
    result.requestMessagesPerMiss = msgs / n;
    result.indirectionPct = 100.0 * indirections / n;
    result.trafficBytesPerMiss = bytes / n;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dsp;
    const std::string name = argc > 1 ? argv[1] : "apache";
    const NodeId nodes = 16;

    auto workload = makeWorkload(name, nodes, 1, 1.0);
    TraceCollector collector(*workload);
    Trace trace = collector.collect(100000, 50000);

    PredictorConfig config;
    config.numNodes = nodes;
    config.entries = 8192;

    stats::Table table(
        {"policy", "reqMsgs/miss", "indirections", "traffic(B/miss)"});
    PredictorEvaluator evaluator(nodes);

    auto addRow = [&](const EvalResult &r) {
        table.addRow({
            r.policy,
            stats::Table::fixed(r.requestMessagesPerMiss, 2),
            stats::Table::percent(r.indirectionPct, 1),
            stats::Table::fixed(r.trafficBytesPerMiss, 1),
        });
    };

    for (PredictorPolicy policy : proposedPolicies())
        addRow(evaluator.evaluatePredictor(trace, policy, config));
    addRow(evaluateCustom(trace, config));

    table.print(std::cout, "Custom 'recent-two' policy vs built-ins ('"
                               + name + "')");
    return 0;
}
