/**
 * @file
 * L2-miss trace records (Section 2.1: "trace records contain the data
 * address, program counter (PC) address, requester, and request type"),
 * extended with the ground-truth transaction facts captured at
 * collection time so protocols and predictors can be replayed without
 * re-simulating the caches.
 */

#ifndef DSP_TRACE_TRACE_HH
#define DSP_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/trace_protocols.hh"
#include "mem/destination_set.hh"
#include "mem/types.hh"

namespace dsp {

/**
 * One L2 miss, fully annotated except for its required set, which the
 * Trace keeps in a separate word plane sized to the machine. POD,
 * 32 bytes on disk.
 */
struct TraceRecord {
    Addr addr = 0;            ///< data byte address
    Addr pc = 0;              ///< PC of the missing load/store
    std::uint32_t requester = 0;
    std::uint32_t responder = 0;     ///< memoryResponder = memory
    std::uint8_t type = 0;           ///< RequestType
    std::uint8_t pad[7] = {};

    /** Responder encoding for "memory supplies the data". */
    static constexpr std::uint32_t memoryResponder = 0xffffffffu;

    RequestType
    requestType() const
    {
        return static_cast<RequestType>(type);
    }
};

static_assert(sizeof(TraceRecord) == 32, "trace record layout changed");

/**
 * An in-memory trace plus the execution metadata Table 2 needs.
 *
 * Record i's required set (the caches that must observe the miss) is
 * words [i * W, (i + 1) * W) of `requiredWords`, W = ceil(numNodes /
 * 64): one word per record up to 64 nodes, four at 256. Set numNodes
 * before the first append().
 */
struct Trace {
    std::string workloadName;
    NodeId numNodes = 16;
    std::uint64_t totalInstructions = 0;  ///< across all processors

    /** The first `warmupRecords` misses warm caches and predictors and
     *  are excluded from measured statistics (Section 2.1 uses the
     *  first one million misses this way). */
    std::uint64_t warmupRecords = 0;
    std::uint64_t warmupInstructions = 0;

    std::vector<TraceRecord> records;
    std::vector<std::uint64_t> requiredWords;

    std::size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }

    /** Words of requiredWords per record. */
    unsigned
    wordsPerRecord() const
    {
        return (numNodes + 63) / 64;
    }

    /** Add one miss and its required set. */
    void
    append(const TraceRecord &record, const DestinationSet &required)
    {
        records.push_back(record);
        const auto &words = required.words();
        requiredWords.insert(requiredWords.end(), words.begin(),
                             words.begin() + wordsPerRecord());
    }

    /** The caches that must observe record i. */
    DestinationSet
    required(std::size_t i) const
    {
        const unsigned w = wordsPerRecord();
        return DestinationSet::fromWords(&requiredWords[i * w], w);
    }

    /** Record i as the protocol-engine input. */
    MissInfo
    missInfo(std::size_t i) const
    {
        const TraceRecord &record = records[i];
        MissInfo info;
        info.addr = record.addr;
        info.pc = record.pc;
        info.requester = record.requester;
        info.type = record.requestType();
        info.required = required(i);
        info.responder = record.responder == TraceRecord::memoryResponder
                             ? invalidNode
                             : static_cast<NodeId>(record.responder);
        info.home = homeOf(blockOf(record.addr), numNodes);
        return info;
    }

    /** Misses after warmup. */
    std::uint64_t
    measuredRecords() const
    {
        return records.size() > warmupRecords
                   ? records.size() - warmupRecords
                   : 0;
    }

    /** Instructions executed after warmup. */
    std::uint64_t
    measuredInstructions() const
    {
        return totalInstructions > warmupInstructions
                   ? totalInstructions - warmupInstructions
                   : 0;
    }
};

/** Version written into, and required of, every trace file header. */
constexpr std::uint32_t traceVersion = 2;

/**
 * Write a trace to a binary file. Format: fixed header, then the raw
 * records, then the required-set word plane. Returns false (with a
 * warning) on I/O failure.
 */
bool writeTrace(const Trace &trace, const std::string &path);

/**
 * Read a trace written by writeTrace(). Calls dsp_fatal on malformed
 * input (bad magic, another version, a node count outside
 * 1..maxNodes, a truncated file).
 */
Trace readTrace(const std::string &path);

} // namespace dsp

#endif // DSP_TRACE_TRACE_HH
