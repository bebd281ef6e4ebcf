/**
 * @file
 * Tests for trace records, binary round-tripping, the trace
 * collector's annotations, and the collector/tracker consistency
 * invariant.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/trace_collector.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

constexpr NodeId kNodes = 16;

std::string
tempPath(const char *name)
{
    return std::string("/tmp/dsp_test_") + name + ".trace";
}

/** The set whose word 0 is `low` (bit i <=> node i). */
DestinationSet
lowWord(std::uint64_t low)
{
    return DestinationSet::fromWords(DestinationSet::Words{low});
}

TEST(Trace, MissInfoConversion)
{
    TraceRecord record;
    record.addr = 0x12345;
    record.pc = 0x888;
    record.requester = 5;
    record.responder = 9;
    record.type =
        static_cast<std::uint8_t>(RequestType::GetExclusive);
    Trace trace;
    trace.numNodes = kNodes;
    trace.append(record, lowWord(0b1010));

    MissInfo info = trace.missInfo(0);
    EXPECT_EQ(info.addr, 0x12345u);
    EXPECT_EQ(info.pc, 0x888u);
    EXPECT_EQ(info.requester, 5u);
    EXPECT_EQ(info.responder, 9u);
    EXPECT_EQ(info.type, RequestType::GetExclusive);
    EXPECT_EQ(info.required.words(), lowWord(0b1010).words());
    EXPECT_EQ(info.home, homeOf(blockOf(0x12345), kNodes));
}

TEST(Trace, MemoryResponderSentinel)
{
    TraceRecord record;
    record.responder = TraceRecord::memoryResponder;
    Trace trace;
    trace.numNodes = kNodes;
    trace.append(record, DestinationSet{});
    EXPECT_EQ(trace.missInfo(0).responder, invalidNode);
}

TEST(Trace, PlaneHoldsOneWordPerRecordUpTo64Nodes)
{
    for (NodeId nodes : {2u, 16u, 64u, 65u, 128u, 256u}) {
        Trace trace;
        trace.numNodes = nodes;
        DestinationSet required;
        required.add(nodes - 1);
        trace.append(TraceRecord{}, required);
        trace.append(TraceRecord{}, DestinationSet::of(0));
        EXPECT_EQ(trace.requiredWords.size(),
                  2u * ((nodes + 63) / 64))
            << nodes;
        EXPECT_EQ(trace.required(0), required) << nodes;
        EXPECT_EQ(trace.required(1), DestinationSet::of(0)) << nodes;
    }
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    Trace trace;
    trace.workloadName = "roundtrip";
    trace.numNodes = kNodes;
    trace.totalInstructions = 123456;
    trace.warmupRecords = 1;
    trace.warmupInstructions = 1000;
    for (int i = 0; i < 5; ++i) {
        TraceRecord r;
        r.addr = 0x1000u * (i + 1);
        r.pc = 0x40u * i;
        r.requester = static_cast<std::uint32_t>(i);
        r.responder = i % 2 ? TraceRecord::memoryResponder
                            : static_cast<std::uint32_t>(i + 1);
        trace.append(r, lowWord(static_cast<std::uint64_t>(i)));
    }

    std::string path = tempPath("roundtrip");
    ASSERT_TRUE(writeTrace(trace, path));
    Trace loaded = readTrace(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.workloadName, trace.workloadName);
    EXPECT_EQ(loaded.numNodes, trace.numNodes);
    EXPECT_EQ(loaded.totalInstructions, trace.totalInstructions);
    EXPECT_EQ(loaded.warmupRecords, trace.warmupRecords);
    EXPECT_EQ(loaded.warmupInstructions, trace.warmupInstructions);
    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded.records[i].addr, trace.records[i].addr);
        EXPECT_EQ(loaded.records[i].responder,
                  trace.records[i].responder);
        EXPECT_EQ(loaded.required(i).words(),
                  trace.required(i).words());
    }
    EXPECT_EQ(loaded.measuredRecords(), 4u);
    EXPECT_EQ(loaded.measuredInstructions(), 122456u);
}

TEST(TraceIo, RoundTrip256NodesKeepsEveryWord)
{
    // Four words per record: members in every word must survive.
    Trace trace;
    trace.workloadName = "wide";
    trace.numNodes = 256;
    for (NodeId i = 0; i < 6; ++i) {
        TraceRecord r;
        r.addr = 0x1000u * (i + 1);
        r.requester = i;
        r.responder = 64 * (i % 4) + i;
        DestinationSet required;
        required.add(64 * (i % 4) + i);
        required.add(255 - i);
        if (i % 2)
            required.add(70);
        trace.append(r, required);
    }
    ASSERT_EQ(trace.requiredWords.size(), 6u * 4u);

    std::string path = tempPath("roundtrip256");
    ASSERT_TRUE(writeTrace(trace, path));
    Trace loaded = readTrace(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.numNodes, 256u);
    ASSERT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(loaded.requiredWords, trace.requiredWords);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded.required(i), trace.required(i)) << i;
        EXPECT_EQ(loaded.records[i].responder,
                  trace.records[i].responder);
    }
    EXPECT_TRUE(loaded.required(1).contains(70));
    EXPECT_TRUE(loaded.required(3).contains(195));
}

/** Write a valid one-record trace, then overwrite the header field
 *  at byte `offset` (8 = version and 12 = numNodes, both 32-bit;
 *  24 = recordCount, 64-bit). */
template <typename T>
std::string
patchedTrace(const char *name, long offset, T value)
{
    Trace trace;
    trace.workloadName = "patched";
    trace.numNodes = kNodes;
    trace.append(TraceRecord{}, DestinationSet::of(3));
    std::string path = tempPath(name);
    EXPECT_TRUE(writeTrace(trace, path));
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    EXPECT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    std::fwrite(&value, sizeof(value), 1, f);
    std::fclose(f);
    return path;
}

TEST(TraceIo, UnpatchedHeaderReadsBack)
{
    // Control for the rejection tests below: rewriting a field with
    // its own value must still load.
    std::string path = patchedTrace("unpatched", 8, traceVersion);
    Trace loaded = readTrace(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.numNodes, kNodes);
    EXPECT_EQ(loaded.required(0), DestinationSet::of(3));

    path = patchedTrace("unpatched_nodes", 12, std::uint32_t{kNodes});
    EXPECT_EQ(readTrace(path).numNodes, kNodes);
    std::remove(path.c_str());

    path = patchedTrace("unpatched_count", 24, std::uint64_t{1});
    EXPECT_EQ(readTrace(path).size(), 1u);
    std::remove(path.c_str());
}

TEST(TraceIo, Version1HeaderFatals)
{
    std::string path = patchedTrace("version1", 8, std::uint32_t{1});
    PanicGuard guard;
    EXPECT_THROW(readTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceIo, NodeCountOutsideRangeFatals)
{
    for (std::uint32_t nodes : {0u, maxNodes + 1}) {
        std::string path = patchedTrace("badnodes", 12, nodes);
        PanicGuard guard;
        EXPECT_THROW(readTrace(path), std::runtime_error) << nodes;
        std::remove(path.c_str());
    }
}

TEST(TraceIo, RecordCountBeyondFileFatals)
{
    // One record more than the file holds, and one so large that
    // allocating for it would fail: both are rejected before reading.
    for (std::uint64_t count : {std::uint64_t{2}, std::uint64_t{1} << 60}) {
        std::string path = patchedTrace("badcount", 24, count);
        PanicGuard guard;
        EXPECT_THROW(readTrace(path), std::runtime_error) << count;
        std::remove(path.c_str());
    }
}

TEST(TraceIo, MissingFileFatals)
{
    PanicGuard guard;
    EXPECT_THROW(readTrace("/nonexistent/path.trace"),
                 std::runtime_error);
}

TEST(TraceIo, BadMagicFatals)
{
    std::string path = tempPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[256] = "not a trace";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);

    PanicGuard guard;
    EXPECT_THROW(readTrace(path), std::runtime_error);
    std::remove(path.c_str());
}

// --------------------------------------------------------- trace collector

TEST(TraceCollector, CollectsRequestedMissCounts)
{
    auto workload = makeWorkload("oltp", kNodes, 1, 0.05);
    TraceCollector collector(*workload);
    Trace trace = collector.collect(200, 300);
    EXPECT_EQ(trace.size(), 500u);
    EXPECT_EQ(trace.warmupRecords, 200u);
    EXPECT_EQ(trace.measuredRecords(), 300u);
    EXPECT_GT(trace.totalInstructions, trace.warmupInstructions);
    EXPECT_EQ(trace.workloadName, "oltp");
}

TEST(TraceCollector, RecordsAreInternallyConsistent)
{
    auto workload = makeWorkload("apache", kNodes, 2, 0.05);
    TraceCollector collector(*workload);
    Trace trace = collector.collect(0, 2000);

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord &r = trace.records[i];
        ASSERT_LT(r.requester, kNodes);
        // Required set never includes the requester.
        ASSERT_FALSE(trace.required(i).contains(r.requester));
        // A cache responder is always a member of the required set
        // unless the responder is the requester itself (upgrade).
        if (r.responder != TraceRecord::memoryResponder &&
            r.responder != r.requester) {
            ASSERT_TRUE(trace.required(i).contains(r.responder));
        }
    }
}

TEST(TraceCollector, TrackerMatchesCaches)
{
    auto workload = makeWorkload("oltp", kNodes, 3, 0.05);
    TraceCollector collector(*workload);
    std::set<BlockId> touched;
    collector.addMissObserver(
        [&](const TraceRecord &r, const SharingTracker::Transaction &) {
            touched.insert(blockOf(r.addr));
        });
    collector.run(3000);

    // Global invariant: a node holds a block in its L2 iff the
    // tracker believes it is a holder.
    const SharingTracker &tracker = collector.tracker();
    int checked = 0;
    for (BlockId b : touched) {
        DestinationSet holders = tracker.holdersOf(b);
        for (NodeId n = 0; n < kNodes; ++n) {
            MosiState state = collector.caches(n).stateOf(b);
            if (holders.contains(n)) {
                ASSERT_NE(state, MosiState::Invalid)
                    << "node " << n << " block " << b;
                ++checked;
            } else {
                ASSERT_EQ(state, MosiState::Invalid)
                    << "node " << n << " block " << b;
            }
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(TraceCollector, OwnerStatesMatchTracker)
{
    auto workload = makeWorkload("barnes", kNodes, 4, 0.05);
    TraceCollector collector(*workload);
    std::set<BlockId> touched;
    collector.addMissObserver(
        [&](const TraceRecord &r, const SharingTracker::Transaction &) {
            touched.insert(blockOf(r.addr));
        });
    collector.run(2000);

    const SharingTracker &tracker = collector.tracker();
    int owners = 0;
    for (BlockId b : touched) {
        NodeId owner = tracker.ownerOf(b);
        if (owner == invalidNode)
            continue;
        ++owners;
        ASSERT_TRUE(
            isOwnerState(collector.caches(owner).stateOf(b)))
            << "block " << b << " owner " << owner;
    }
    EXPECT_GT(owners, 0);
}

TEST(TraceCollector, RefObserversSeeEveryReference)
{
    auto workload = makeWorkload("ocean", kNodes, 5, 0.05);
    TraceCollector collector(*workload);
    std::uint64_t refs = 0;
    collector.addRefObserver(
        [&](NodeId, const MemRef &) { ++refs; });
    auto stats = collector.run(500);
    EXPECT_EQ(refs, stats.references);
    EXPECT_GE(stats.instructions, stats.references);
    EXPECT_EQ(stats.misses, 500u);
}

TEST(TraceCollector, MaxRefsSafetyValve)
{
    auto workload = makeWorkload("barnes", kNodes, 6, 0.05);
    TraceCollector collector(*workload);
    auto stats = collector.run(1u << 30, /* max_refs */ 1000);
    EXPECT_EQ(stats.references, 1000u);
}

} // namespace
} // namespace dsp
