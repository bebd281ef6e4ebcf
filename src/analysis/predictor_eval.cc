#include "analysis/predictor_eval.hh"

#include "sim/logging.hh"

namespace dsp {

EvalResult
PredictorEvaluator::replay(
    const Trace &trace, TraceProtocol &protocol,
    std::vector<std::unique_ptr<Predictor>> *predictors) const
{
    dsp_assert(trace.numNodes == numNodes_,
               "trace has %u nodes, evaluator expects %u",
               trace.numNodes, numNodes_);

    EvalResult result;
    result.protocol = protocol.name();
    result.policy = predictors ? (*predictors)[0]->name() : "-";

    std::uint64_t request_messages = 0;
    std::uint64_t indirections = 0;
    std::uint64_t retries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t c2c = 0;
    std::uint64_t predicted_size_sum = 0;

    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const bool measured = i >= trace.warmupRecords;
        MissInfo miss = trace.missInfo(i);

        DestinationSet predicted;
        if (predictors) {
            predicted = (*predictors)[miss.requester]->predict(
                miss.addr, miss.pc, miss.type, miss.requester,
                miss.home);
        } else {
            // Baselines ignore the prediction, but the multicast
            // model's contract requires requester + home.
            predicted.add(miss.requester);
            predicted.add(miss.home);
        }

        MissOutcome outcome = protocol.handleMiss(miss, predicted);

        if (predictors) {
            Predictor &own = *(*predictors)[miss.requester];
            const bool insufficient = !miss.required.empty();

            // Directory retry informs the requester of the true set
            // (only Sticky-Spatial listens).
            if (outcome.retries > 0)
                own.trainRetry(miss.addr, miss.pc, miss.required);

            // Data response (none for upgrades-in-place).
            if (miss.responder != miss.requester) {
                own.trainResponse(miss.addr, miss.pc, miss.responder,
                                  insufficient);
            }

            // Every node that observed the request trains on it.
            outcome.observers.forEach([&](NodeId q) {
                if (q != miss.requester) {
                    (*predictors)[q]->trainExternalRequest(
                        miss.addr, miss.pc, miss.type, miss.requester);
                }
            });
        }

        if (!measured)
            continue;
        ++result.misses;
        request_messages += outcome.requestMessages;
        indirections += outcome.indirection ? 1 : 0;
        retries += outcome.retries;
        bytes += outcome.totalBytes();
        c2c += outcome.cacheToCache ? 1 : 0;
        predicted_size_sum += predicted.count();
    }

    if (result.misses > 0) {
        double n = static_cast<double>(result.misses);
        result.requestMessagesPerMiss =
            static_cast<double>(request_messages) / n;
        result.indirectionPct =
            100.0 * static_cast<double>(indirections) / n;
        result.retriesPerMiss = static_cast<double>(retries) / n;
        result.trafficBytesPerMiss = static_cast<double>(bytes) / n;
        result.cacheToCachePct = 100.0 * static_cast<double>(c2c) / n;
        result.predictedSetSize =
            static_cast<double>(predicted_size_sum) / n;
    }
    return result;
}

EvalResult
PredictorEvaluator::evaluateBaseline(const Trace &trace,
                                     TraceProtocol &protocol) const
{
    return replay(trace, protocol, nullptr);
}

EvalResult
PredictorEvaluator::evaluatePredictor(const Trace &trace,
                                      PredictorPolicy policy,
                                      const PredictorConfig &config) const
{
    dsp_assert(config.numNodes == numNodes_,
               "predictor config node count mismatch");
    auto predictors = makePredictorsPerNode(policy, config);
    MulticastSnoopingModel protocol(numNodes_);
    EvalResult result = replay(trace, protocol, &predictors);
    result.policy = toString(policy);
    return result;
}

} // namespace dsp
