/**
 * @file
 * Ablation study of the predictor design choices DESIGN.md calls out
 * (beyond the paper's own Figure 6 sensitivity analysis):
 *
 *  (a) table associativity -- the paper argues set-associative tables
 *      (enabled by macroblock tags) beat Sticky-Spatial's forced
 *      direct-mapped layout;
 *  (b) the Section 3.1 allocation filter ("allocate only if the
 *      minimal set proved insufficient") -- its value is predictor
 *      capacity, so the effect grows as tables shrink;
 *  (c) Sticky-Spatial's spatial degree k (0 = no neighbour OR,
 *      1 = the paper's variant, 2 = wider aggregation).
 *
 * Run on OLTP by default (like Figure 6); --workload overrides.
 */

#include <iostream>

#include "analysis/predictor_eval.hh"
#include "bench_common.hh"
#include "core/factory.hh"
#include "stats/table.hh"

namespace {

using namespace dsp;

/** Replay with explicitly-constructed predictors (for panel c). */
EvalResult
evalStickyDegree(const Trace &trace, NodeId nodes,
                 std::size_t entries, unsigned degree)
{
    PredictorConfig config;
    config.numNodes = nodes;
    config.entries = entries;

    std::vector<std::unique_ptr<Predictor>> predictors;
    for (NodeId n = 0; n < nodes; ++n)
        predictors.push_back(makeStickySpatial(config, degree));

    MulticastSnoopingModel protocol(nodes);
    EvalResult result;
    result.protocol = protocol.name();
    result.policy =
        "sticky-spatial(" + std::to_string(degree) + ")";

    std::uint64_t msgs = 0, indirections = 0, bytes = 0;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        MissInfo miss = trace.records[i].toMissInfo(nodes);
        DestinationSet predicted = predictors[miss.requester]->predict(
            miss.addr, miss.pc, miss.type, miss.requester, miss.home);
        MissOutcome out = protocol.handleMiss(miss, predicted);

        Predictor &own = *predictors[miss.requester];
        if (out.retries > 0)
            own.trainRetry(miss.addr, miss.pc, miss.required);
        if (miss.responder != miss.requester)
            own.trainResponse(miss.addr, miss.pc, miss.responder,
                              !miss.required.empty());

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
    bench::Options opt = bench::parseOptions(argc, argv);
    std::string name =
        opt.workloads.size() == 1 ? opt.workloads[0] : "oltp";

    const Trace &trace = bench::getOrCollectTrace(opt, name);
    PredictorEvaluator evaluator(opt.nodes);

    stats::Table table({"panel", "config", "policy", "reqMsgs/miss",
                        "indirections", "traffic(B/miss)"});

    auto addRow = [&](const char *panel, const std::string &config,
                      const EvalResult &r) {
        table.addRow({
            panel,
            config,
            r.policy,
            stats::Table::fixed(r.requestMessagesPerMiss, 2),
            stats::Table::percent(r.indirectionPct, 1),
            stats::Table::fixed(r.trafficBytesPerMiss, 1),
        });
    };

    // (a) associativity sweep at 8192 entries.
    for (std::size_t ways : {1ul, 2ul, 4ul, 8ul}) {
        for (PredictorPolicy policy :
             {PredictorPolicy::Owner, PredictorPolicy::OwnerGroup}) {
            PredictorConfig config;
            config.numNodes = opt.nodes;
            config.entries = 8192;
            config.ways = ways;
            addRow("a", std::to_string(ways) + "-way",
                   evaluator.evaluatePredictor(trace, policy, config));
        }
    }

    // (b) allocation filter on/off at small and standard sizes.
    for (std::size_t entries : {1024ul, 8192ul}) {
        for (bool filter : {true, false}) {
            PredictorConfig config;
            config.numNodes = opt.nodes;
            config.entries = entries;
            config.allocationFilter = filter;
            addRow("b",
                   std::to_string(entries) +
                       (filter ? "/filter" : "/no-filter"),
                   evaluator.evaluatePredictor(
                       trace, PredictorPolicy::OwnerGroup, config));
        }
    }

    // (c) Sticky-Spatial spatial degree.
    for (unsigned degree : {0u, 1u, 2u})
        addRow("c", "k=" + std::to_string(degree),
               evalStickyDegree(trace, opt.nodes, 8192, degree));

    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout,
                    "Ablation: predictor design choices (" + name +
                        ")");
    return 0;
}
