/**
 * @file
 * Tests for deterministic checkpoint/restore (src/checkpoint/,
 * docs/checkpoint.md): a run checkpointed mid-flight and resumed --
 * at the same or a different shard count -- produces figure
 * statistics identical to the uninterrupted run; corrupt and
 * truncated snapshot files are CRC-rejected and quarantined rather
 * than restored; a restore transparently falls back to the newest
 * *valid* snapshot; and the round-trip holds with the coherence
 * oracle armed (shadow state travels in the snapshot).
 *
 * Every byte-equivalence leg compares checkpointing-on against
 * checkpointing-on: each snapshot stop ends a kernel lookahead window,
 * so windowsRun/barrierCrossings legitimately differ from a
 * checkpoint-free run while all figure statistics stay identical.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "system/system.hh"
#include "verify/oracle.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

/** Self-cleaning scratch directory for snapshot files. */
struct TempDir {
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/dsp_ckpt_test_XXXXXX";
        const char *made = ::mkdtemp(buf);
        EXPECT_NE(made, nullptr);
        path = made ? made : "";
    }

    ~TempDir()
    {
        if (path.empty())
            return;
        if (DIR *dir = ::opendir(path.c_str())) {
            while (const dirent *entry = ::readdir(dir)) {
                std::string name = entry->d_name;
                if (name == "." || name == "..")
                    continue;
                std::remove((path + "/" + name).c_str());
            }
            ::closedir(dir);
        }
        ::rmdir(path.c_str());
    }
};

/** Snapshot files under `dir`, sorted oldest-first by tick. */
std::vector<std::pair<std::uint64_t, std::string>>
listCheckpoints(const std::string &dir)
{
    std::vector<std::pair<std::uint64_t, std::string>> found;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return found;
    while (const dirent *entry = ::readdir(d)) {
        std::string name = entry->d_name;
        if (name.size() <= 9 || name.compare(0, 5, "ckpt_") != 0 ||
            name.compare(name.size() - 4, 4, ".dsp") != 0) {
            continue;
        }
        std::uint64_t tick =
            std::strtoull(name.c_str() + 5, nullptr, 10);
        found.emplace_back(tick, dir + "/" + name);
    }
    ::closedir(d);
    std::sort(found.begin(), found.end());
    return found;
}

/** Flip one byte in the middle of a file (CRC must catch this). */
void
corruptFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    ASSERT_GT(size, 32);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
}

SystemParams
ckptParams(NodeId nodes, unsigned shards, unsigned hubs,
           std::uint64_t measure, const std::string &dir,
           std::uint64_t every)
{
    SystemParams params;
    params.nodes = nodes;
    params.protocol = ProtocolKind::Multicast;
    params.policy = PredictorPolicy::OwnerGroup;
    params.shards = shards;
    params.crossbar.topology.hubs = hubs;
    params.functionalWarmupMisses = 2000;
    params.warmupInstrPerCpu = measure / 10;
    params.measureInstrPerCpu = measure;
    params.checkpoint.every = every;
    params.checkpoint.dir = dir;
    return params;
}

struct RunResult {
    SystemStats stats;
    bool restored = false;
};

RunResult
runOnce(const SystemParams &params)
{
    auto workload =
        makeWorkload("barnes", params.nodes, 1, 0.25);
    System system(*workload, params);
    RunResult r;
    r.stats = system.run();
    r.restored = system.restoredFromCheckpoint();
    return r;
}

/** Every figure-feeding statistic, exactly equal. wallSeconds is the
 *  one legitimately host-dependent field and is excluded. */
void
expectFigureEqual(const SystemStats &a, const SystemStats &b)
{
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.indirections, b.indirections);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.doubleRetries, b.doubleRetries);
    EXPECT_EQ(a.upgrades, b.upgrades);
    EXPECT_EQ(a.cacheToCache, b.cacheToCache);
    EXPECT_EQ(a.requestMessages, b.requestMessages);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.barrierCrossings, b.barrierCrossings);
    EXPECT_EQ(a.windowsRun, b.windowsRun);
    EXPECT_EQ(a.avgMissLatencyNs, b.avgMissLatencyNs);
    EXPECT_EQ(a.cacheAccesses, b.cacheAccesses);
    EXPECT_EQ(a.l0Hits, b.l0Hits);
    EXPECT_EQ(a.l0Absorbed, b.l0Absorbed);
    EXPECT_EQ(a.wordTouches, b.wordTouches);
    EXPECT_EQ(a.calendarOps, b.calendarOps);
    EXPECT_EQ(a.stoppedEarly, b.stoppedEarly);
}

// Coarse enough that a run writes a handful of snapshots, not
// hundreds (each snapshot serializes every cache array): a 16-node
// 20k-instruction run spans ~200 ms simulated.
constexpr std::uint64_t kEvery = 20000000;  // 20 ms simulated

// ---- flat 16-node machine -------------------------------------------------

TEST(Checkpoint, FlatRestoreBitEquivalentAcrossShardCounts)
{
    TempDir dir;

    // Uninterrupted checkpointing runs at K=1 and K=4 agree (the
    // established cross-shard determinism contract, now with snapshot
    // stops interleaved).
    SystemParams k1 = ckptParams(16, 1, 1, 20000, dir.path, kEvery);
    RunResult full = runOnce(k1);
    EXPECT_FALSE(full.restored);
    auto ckpts = listCheckpoints(dir.path);
    ASSERT_GE(ckpts.size(), 2u)
        << "cadence too coarse: test needs an intermediate snapshot";

    {
        TempDir dir4;
        SystemParams k4 =
            ckptParams(16, 4, 1, 20000, dir4.path, kEvery);
        RunResult full4 = runOnce(k4);
        EXPECT_FALSE(full4.restored);
        expectFigureEqual(full4.stats, full.stats);
    }

    // Resume from the *earliest* snapshot (longest suffix re-run) at
    // the same shard count: byte-identical figures.
    SystemParams resume = k1;
    resume.checkpoint.restore = true;
    resume.checkpoint.restorePath = ckpts.front().second;
    RunResult resumed = runOnce(resume);
    EXPECT_TRUE(resumed.restored);
    expectFigureEqual(resumed.stats, full.stats);

    // Restore under a different shard count: snapshots are taken at
    // quiescent barriers in a canonical order, so a K=1 snapshot
    // resumes under K=4 (and vice versa) with identical figures.
    SystemParams cross = ckptParams(16, 4, 1, 20000, dir.path, kEvery);
    cross.checkpoint.restore = true;
    cross.checkpoint.restorePath = ckpts.front().second;
    RunResult crossed = runOnce(cross);
    EXPECT_TRUE(crossed.restored);
    expectFigureEqual(crossed.stats, full.stats);
}

TEST(Checkpoint, RestoreFallsBackPastCorruptNewest)
{
    TempDir dir;
    SystemParams params = ckptParams(16, 1, 1, 20000, dir.path, kEvery);
    RunResult full = runOnce(params);
    auto ckpts = listCheckpoints(dir.path);
    ASSERT_GE(ckpts.size(), 2u);

    // Torn/corrupt newest snapshot: restore must CRC-reject it,
    // quarantine it, and resume from the next-newest valid one.
    corruptFile(ckpts.back().second);
    SystemParams resume = params;
    resume.checkpoint.restore = true;
    RunResult resumed = runOnce(resume);
    EXPECT_TRUE(resumed.restored);
    expectFigureEqual(resumed.stats, full.stats);

    // The corrupt file was renamed aside for forensics. (Its original
    // name exists again: the resumed run deterministically re-wrote
    // the snapshot at that same tick -- a fresh, valid one.)
    std::string quarantined = ckpts.back().second + ".corrupt";
    struct stat st;
    EXPECT_EQ(::stat(quarantined.c_str(), &st), 0)
        << "corrupt snapshot not quarantined";
}

// ---- hierarchical 64-node, 4-hub machine ----------------------------------

TEST(Checkpoint, HierarchicalRestoreBitEquivalent)
{
    TempDir dir;
    SystemParams k1 = ckptParams(64, 1, 4, 6000, dir.path, kEvery);
    RunResult full = runOnce(k1);
    EXPECT_FALSE(full.restored);
    auto ckpts = listCheckpoints(dir.path);
    ASSERT_GE(ckpts.size(), 1u);

    // K=4 resume of the K=1 snapshot: hub ordering, reorder stash,
    // and per-hub sharing-tracker state all travel in the snapshot.
    SystemParams cross = ckptParams(64, 4, 4, 6000, dir.path, kEvery);
    cross.checkpoint.restore = true;
    cross.checkpoint.restorePath = ckpts.front().second;
    RunResult crossed = runOnce(cross);
    EXPECT_TRUE(crossed.restored);
    expectFigureEqual(crossed.stats, full.stats);
}

// ---- oracle-armed round-trip ----------------------------------------------

TEST(Checkpoint, OracleArmedRoundtrip)
{
    TempDir dir;
    SystemParams params = ckptParams(16, 1, 1, 15000, dir.path, kEvery);
    params.verify.oracle = true;
    RunResult full = runOnce(params);
    ASSERT_GE(listCheckpoints(dir.path).size(), 1u);

    auto ckpts = listCheckpoints(dir.path);
    SystemParams resume = ckptParams(16, 4, 1, 15000, dir.path, kEvery);
    resume.verify.oracle = true;
    resume.checkpoint.restore = true;
    resume.checkpoint.restorePath = ckpts.front().second;

    auto workload = makeWorkload("barnes", 16, 1, 0.25);
    System system(*workload, resume);
    SystemStats stats = system.run();
    EXPECT_TRUE(system.restoredFromCheckpoint());
    expectFigureEqual(stats, full.stats);
    // The oracle genuinely shadowed the resumed suffix.
    ASSERT_NE(system.oracle(), nullptr);
    EXPECT_GT(system.oracle()->checksPerformed(), 0u);
}

// ---- snapshot file format -------------------------------------------------

TEST(CheckpointFile, CorruptAndTruncatedRejectedAndQuarantined)
{
    TempDir dir;
    std::string payload(4096, '\x7e');
    payload += "tail";
    std::string older = ckpt::checkpointPath(dir.path, 100);
    std::string newer = ckpt::checkpointPath(dir.path, 200);
    ASSERT_TRUE(ckpt::writeCheckpointFile(older, payload));
    ASSERT_TRUE(ckpt::writeCheckpointFile(newer, payload));

    // Round-trip is exact.
    std::string back;
    ASSERT_TRUE(ckpt::readCheckpointFile(newer, back));
    EXPECT_EQ(back, payload);
    EXPECT_EQ(ckpt::newestValidCheckpoint(dir.path), newer);

    // A flipped byte fails the CRC and quarantines the file; the
    // older snapshot becomes the newest valid one.
    corruptFile(newer);
    EXPECT_FALSE(ckpt::readCheckpointFile(newer, back));
    EXPECT_EQ(ckpt::newestValidCheckpoint(dir.path), older);
    struct stat st;
    EXPECT_EQ(::stat((newer + ".corrupt").c_str(), &st), 0);

    // A truncated file (torn write without the atomic rename) is
    // rejected too; with nothing valid left the scan reports none.
    ASSERT_EQ(::truncate(older.c_str(), 12), 0);
    EXPECT_FALSE(ckpt::readCheckpointFile(older, back));
    EXPECT_EQ(ckpt::newestValidCheckpoint(dir.path), std::string());
}

TEST(CheckpointFile, PreviousFormatVersionRejectedAndQuarantined)
{
    // A snapshot written by the previous format is intact (its CRC
    // still holds) but must never be read with the current layout.
    TempDir dir;
    std::string path = ckpt::checkpointPath(dir.path, 100);
    ASSERT_TRUE(ckpt::writeCheckpointFile(path, std::string(256, 'v')));
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::uint32_t previous = ckpt::formatVersion - 1;
    // The header starts magic, version.
    std::fseek(f, sizeof(ckpt::fileMagic), SEEK_SET);
    ASSERT_EQ(std::fwrite(&previous, sizeof(previous), 1, f), 1u);
    std::fclose(f);

    std::string back;
    EXPECT_FALSE(ckpt::readCheckpointFile(path, back));
    EXPECT_EQ(ckpt::newestValidCheckpoint(dir.path), std::string());
    struct stat st;
    EXPECT_EQ(::stat((path + ".corrupt").c_str(), &st), 0);
}

TEST(CheckpointFile, PruneKeepsNewestAndNeverCountsCorrupt)
{
    TempDir dir;
    std::string payload(2048, '\x3c');
    std::vector<std::string> paths;
    for (std::uint64_t tick = 100; tick <= 500; tick += 100) {
        paths.push_back(ckpt::checkpointPath(dir.path, tick));
        ASSERT_TRUE(ckpt::writeCheckpointFile(paths.back(), payload));
    }

    // keep == 0 means unlimited: a no-op.
    EXPECT_EQ(ckpt::pruneCheckpoints(dir.path, 0), 0u);
    EXPECT_EQ(listCheckpoints(dir.path).size(), 5u);

    // Corrupt the newest snapshot. Pruning to 2 must quarantine it
    // (it is *not* one of the two kept), keep the newest two valid
    // ones (400, 300), and delete the other two (200, 100) -- a torn
    // newest file can never push the last good snapshots out.
    corruptFile(paths[4]);
    EXPECT_EQ(ckpt::pruneCheckpoints(dir.path, 2), 2u);

    auto left = listCheckpoints(dir.path);
    ASSERT_EQ(left.size(), 2u);
    EXPECT_EQ(left[0].first, 300u);
    EXPECT_EQ(left[1].first, 400u);
    EXPECT_EQ(ckpt::newestValidCheckpoint(dir.path), paths[3]);

    // The corrupt file was renamed aside, not deleted.
    struct stat st;
    EXPECT_EQ(::stat((paths[4] + ".corrupt").c_str(), &st), 0);

    // Already within budget: nothing further to remove.
    EXPECT_EQ(ckpt::pruneCheckpoints(dir.path, 2), 0u);
}

TEST(Checkpoint, KeepCompactsAfterEachWriteAndStillRestores)
{
    TempDir dir;
    SystemParams params = ckptParams(16, 1, 1, 20000, dir.path, kEvery);
    RunResult full = runOnce(params);
    auto all = listCheckpoints(dir.path);
    ASSERT_GE(all.size(), 2u)
        << "cadence too coarse: compaction needs multiple snapshots";

    // Same run with keep=1: only the newest snapshot survives each
    // write, and it is the same newest snapshot the unlimited run
    // left behind (pruning changes nothing about what gets written).
    TempDir kept;
    SystemParams compact =
        ckptParams(16, 1, 1, 20000, kept.path, kEvery);
    compact.checkpoint.keep = 1;
    RunResult compacted = runOnce(compact);
    expectFigureEqual(compacted.stats, full.stats);
    auto remaining = listCheckpoints(kept.path);
    ASSERT_EQ(remaining.size(), 1u);
    EXPECT_EQ(remaining.back().first, all.back().first);

    // The surviving snapshot restores to identical figures.
    SystemParams resume = compact;
    resume.checkpoint.restore = true;
    RunResult resumed = runOnce(resume);
    EXPECT_TRUE(resumed.restored);
    expectFigureEqual(resumed.stats, full.stats);
}

TEST(CheckpointFile, AtomicWriteReplacesWholeFile)
{
    TempDir dir;
    std::string path = dir.path + "/table.txt";
    ASSERT_TRUE(ckpt::atomicWriteFile(path, "first contents\n"));
    ASSERT_TRUE(ckpt::atomicWriteFile(path, "x\n"));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[16] = {};
    size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf, n), "x\n");
}

} // namespace
} // namespace dsp
