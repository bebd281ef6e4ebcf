#include "analysis/characterization.hh"

#include "sim/logging.hh"

namespace dsp {

WorkloadCharacterization::WorkloadCharacterization(NodeId num_nodes)
    : numNodes_(num_nodes),
      words_((num_nodes + 63) / 64),
      figure2Reads_(4),   // 0, 1, 2, 3+
      figure2Writes_(4)
{
}

void
WorkloadCharacterization::attach(TraceCollector &collector)
{
    collector.addRefObserver(
        [this](NodeId p, const MemRef &ref) { onReference(p, ref); });
    collector.addMissObserver(
        [this](const TraceRecord &record,
               const SharingTracker::Transaction &txn) {
            onMiss(record, txn);
        });
}

void
WorkloadCharacterization::beginMeasurement(
    std::uint64_t instructions_so_far)
{
    measuring_ = true;
    warmupInstructions_ = instructions_so_far;
}

WorkloadCharacterization::BlockInfo &
WorkloadCharacterization::touch(Addr addr, NodeId p)
{
    dsp_assert(p < numNodes_, "node %u out of range", p);
    auto [it, inserted] = blocks_.try_emplace(blockOf(addr));
    BlockInfo &info = it->second;
    if (inserted) {
        info.touched = static_cast<std::uint32_t>(blocks_.size() - 1);
        touchedWords_.resize(touchedWords_.size() + words_);
    }
    touchedWords_[std::size_t{info.touched} * words_ + (p >> 6)] |=
        std::uint64_t{1} << (p & 63);
    macroblocks_.insert(macroblockOf(addr));
    return info;
}

unsigned
WorkloadCharacterization::touchers(const BlockInfo &info) const
{
    return DestinationSet::fromWords(
               &touchedWords_[std::size_t{info.touched} * words_], words_)
        .count();
}

void
WorkloadCharacterization::onReference(NodeId p, const MemRef &ref)
{
    touch(ref.addr, p);
}

void
WorkloadCharacterization::onMiss(const TraceRecord &record,
                                 const SharingTracker::Transaction &txn)
{
    onMissRecord(record, txn.required, measuring_);
}

void
WorkloadCharacterization::onMissRecord(const TraceRecord &record,
                                       const DestinationSet &required_set,
                                       bool measured)
{
    BlockInfo &info = touch(record.addr, record.requester);

    if (!measured)
        return;

    ++measuredMisses_;
    info.misses += 1;
    missPcs_.insert(record.pc);

    unsigned required = required_set.count();
    if (record.requestType() == RequestType::GetShared)
        figure2Reads_.record(required);
    else
        figure2Writes_.record(required);

    if (required > 0)
        ++indirections_;

    const bool cache_to_cache =
        record.responder != TraceRecord::memoryResponder &&
        record.responder != record.requester;
    if (cache_to_cache) {
        ++c2cMisses_;
        c2cByBlock_.record(blockOf(record.addr));
        c2cByMacroblock_.record(macroblockOf(record.addr));
        c2cByPc_.record(record.pc);
    }
}

void
WorkloadCharacterization::absorbTrace(const Trace &trace)
{
    for (std::size_t i = 0; i < trace.records.size(); ++i)
        onMissRecord(trace.records[i], trace.required(i),
                     i >= trace.warmupRecords);
}

WorkloadCharacterization::Table2Row
WorkloadCharacterization::table2(std::uint64_t total_instructions) const
{
    Table2Row row;
    row.touched64Bytes = blocks_.size() * blockBytes;
    row.touched1024Bytes = macroblocks_.size() * macroblockBytes;
    row.staticMissPcs = missPcs_.size();
    row.totalMisses = measuredMisses_;

    std::uint64_t measured_instr =
        total_instructions > warmupInstructions_
            ? total_instructions - warmupInstructions_
            : 0;
    if (measured_instr > 0) {
        row.missesPer1kInstr = 1000.0 *
                               static_cast<double>(measuredMisses_) /
                               static_cast<double>(measured_instr);
    }
    if (measuredMisses_ > 0) {
        row.directoryIndirectionPct =
            100.0 * static_cast<double>(indirections_) /
            static_cast<double>(measuredMisses_);
    }
    return row;
}

stats::Histogram
WorkloadCharacterization::blocksTouchedBy() const
{
    stats::Histogram hist(numNodes_ + 1);
    for (const auto &kv : blocks_)
        hist.record(touchers(kv.second));
    return hist;
}

stats::Histogram
WorkloadCharacterization::missesToBlocksTouchedBy() const
{
    stats::Histogram hist(numNodes_ + 1);
    for (const auto &kv : blocks_)
        if (kv.second.misses > 0)
            hist.record(touchers(kv.second), kv.second.misses);
    return hist;
}

std::vector<double>
WorkloadCharacterization::blockCoverage(
    const std::vector<std::size_t> &points) const
{
    return c2cByBlock_.coverageAt(points);
}

std::vector<double>
WorkloadCharacterization::macroblockCoverage(
    const std::vector<std::size_t> &points) const
{
    return c2cByMacroblock_.coverageAt(points);
}

std::vector<double>
WorkloadCharacterization::pcCoverage(
    const std::vector<std::size_t> &points) const
{
    return c2cByPc_.coverageAt(points);
}

} // namespace dsp
