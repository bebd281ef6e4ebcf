/**
 * @file
 * Tests for the crash-tolerant sweep subsystem: config parsing with
 * substitution/arithmetic/ranges, matrix expansion, the checksummed
 * JSONL journal (truncated tails, corrupt checksums, duplicate rows),
 * the supervised fork pool (retry, watchdog, budget exhaustion, row
 * validation, degradation) driven by the deterministic fault-injection
 * plan, and the headline contract: a fresh sweep and a crash+resumed
 * sweep of the same matrix produce byte-identical aggregate tables.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sweep/config.hh"
#include "sweep/fault_inject.hh"
#include "sweep/journal.hh"
#include "sweep/matrix.hh"
#include "sweep/sim_job.hh"
#include "sweep/supervisor.hh"
#include "verify/violation.hh"

namespace dsp {
namespace sweep {
namespace {

/** Unique scratch path per test (removed by the helper's owner). */
std::string
scratchPath(const std::string &stem)
{
    return testing::TempDir() + "dsp_sweep_" +
           std::to_string(getpid()) + "_" + stem;
}

/** A deterministic fake result row: every figure field is a pure
 *  function of the job id, so resumed reruns reproduce it exactly. */
std::string
fakeRow(const JobSpec &spec)
{
    std::uint64_t h = spec.idHash();
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "{\"job\":\"%s\",\"status\":\"done\",\"instructions\":%llu,"
        "\"misses\":%llu,\"retries\":%llu,\"upgrades\":%llu,"
        "\"cache_to_cache\":%llu,\"traffic_bytes\":%llu,"
        "\"avg_miss_latency_ns\":%.6f,\"runtime_ms\":%.3f,"
        "\"wall_ms\":%.1f}",
        spec.id().c_str(),
        static_cast<unsigned long long>(h % 100000 + 1000),
        static_cast<unsigned long long>(h % 997),
        static_cast<unsigned long long>(h % 31),
        static_cast<unsigned long long>(h % 17),
        static_cast<unsigned long long>(h % 13),
        static_cast<unsigned long long>(h % 65536),
        static_cast<double>(h % 1000) / 7.0,
        static_cast<double>(h % 100) / 3.0, 1.0);
    return row;
}

/** A small four-job matrix over two axes. */
std::vector<JobSpec>
smallMatrix()
{
    SweepConfig config = SweepConfig::fromString("workload = barnes\n"
                                                 "protocol = multicast\n"
                                                 "policy = owner-group\n"
                                                 "nodes = 4\n"
                                                 "seed = 1..2\n"
                                                 "threads = 1, 2\n"
                                                 "warmup_misses = 10\n"
                                                 "warmup_instr = 10\n"
                                                 "measure_instr = 50\n");
    return expandMatrix(config);
}

// ---- config frontend ------------------------------------------------------

TEST(SweepConfig, KeyValueCommentsAndOverride)
{
    SweepConfig c = SweepConfig::fromString("a = 1   # trailing\n"
                                            "# full-line comment\n"
                                            "\n"
                                            "b = hello\n"
                                            "a = 2\n");
    EXPECT_TRUE(c.has("a"));
    EXPECT_FALSE(c.has("missing"));
    EXPECT_EQ(c.value("a"), "2");  // last assignment wins
    EXPECT_EQ(c.value("b"), "hello");
    EXPECT_EQ(c.value("missing", "fallback"), "fallback");
}

TEST(SweepConfig, SubstitutionAndArithmetic)
{
    SweepConfig c = SweepConfig::fromString("nodes = 16\n"
                                            "per_cpu = 2000\n"
                                            "measure = $(per_cpu)*$(nodes)\n"
                                            "half = $(nodes)/2\n"
                                            "nested = $(half)+1\n");
    EXPECT_EQ(c.value("measure"), "32000");
    EXPECT_EQ(c.value("half"), "8");
    EXPECT_EQ(c.valueUnsigned("nested", 0), 9u);
}

TEST(SweepConfig, SubstitutionCycleIsFatal)
{
    PanicGuard guard;
    SweepConfig c = SweepConfig::fromString("a = $(b)\n"
                                            "b = $(a)\n");
    EXPECT_THROW(c.value("a"), std::runtime_error);
}

TEST(SweepConfig, ListsAndRanges)
{
    SweepConfig c = SweepConfig::fromString("seed = 1..4\n"
                                            "mix = a, b , c\n"
                                            "n = 2, 4..6, 9\n");
    EXPECT_EQ(c.values("seed"),
              (std::vector<std::string>{"1", "2", "3", "4"}));
    EXPECT_EQ(c.values("mix"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(c.values("n"),
              (std::vector<std::string>{"2", "4", "5", "6", "9"}));
    PanicGuard guard;
    EXPECT_THROW(c.value("seed"), std::runtime_error);  // not scalar
}

TEST(SweepConfig, ArithmeticRejectsNamesAndDividesByZeroFatally)
{
    double out = 0.0;
    EXPECT_FALSE(evalArithmetic("barnes", out));
    EXPECT_FALSE(evalArithmetic("owner-group", out));
    EXPECT_TRUE(evalArithmetic("3*(2+1)", out));
    EXPECT_DOUBLE_EQ(out, 9.0);
    EXPECT_TRUE(evalArithmetic("-4/2", out));
    EXPECT_DOUBLE_EQ(out, -2.0);
    PanicGuard guard;
    EXPECT_THROW(evalArithmetic("1/0", out), std::runtime_error);
}

TEST(SweepConfig, CanonicalNumbersKeepJobIdsStable)
{
    EXPECT_EQ(canonicalNumber(16.0), "16");
    EXPECT_EQ(canonicalNumber(0.25), "0.25");
    EXPECT_EQ(canonicalNumber(-3.0), "-3");
}

// ---- matrix ---------------------------------------------------------------

TEST(SweepMatrix, ExpandsCrossProductInFixedAxisOrder)
{
    std::vector<JobSpec> jobs = smallMatrix();
    ASSERT_EQ(jobs.size(), 4u);  // 2 seeds x 2 thread counts
    // Axis order is fixed (seed outer, threads inner), independent of
    // key order in the file.
    EXPECT_EQ(jobs[0].seed, 1u);
    EXPECT_EQ(jobs[0].threads, 1u);
    EXPECT_EQ(jobs[1].seed, 1u);
    EXPECT_EQ(jobs[1].threads, 2u);
    EXPECT_EQ(jobs[3].seed, 2u);
    EXPECT_EQ(jobs[3].threads, 2u);
    // Ids are unique, stable and carry every axis.
    EXPECT_NE(jobs[0].id(), jobs[1].id());
    EXPECT_NE(jobs[0].idHash(), jobs[1].idHash());
    EXPECT_NE(jobs[0].id().find("workload=barnes"), std::string::npos);
    EXPECT_NE(jobs[0].id().find("seed=1"), std::string::npos);
}

TEST(SweepMatrix, CheckpointSubdirIsStableAcrossAttempts)
{
    std::vector<JobSpec> jobs = smallMatrix();
    ASSERT_GE(jobs.size(), 2u);

    // A resumed attempt rebuilds its JobSpec from the same matrix and
    // must land in the same subdirectory to find the earlier
    // attempt's snapshots: the path is a pure function of the id.
    JobSpec rebuilt = jobs[0];
    EXPECT_EQ(jobs[0].checkpointSubdir("/tmp/ck"),
              rebuilt.checkpointSubdir("/tmp/ck"));

    // Distinct jobs get distinct directories.
    EXPECT_NE(jobs[0].checkpointSubdir("/tmp/ck"),
              jobs[1].checkpointSubdir("/tmp/ck"));

    // Every non-filename character of the id is flattened to '_':
    // the subdir name itself contains no separators or spaces.
    std::string sub = jobs[0].checkpointSubdir("/tmp/ck");
    ASSERT_EQ(sub.rfind("/tmp/ck/", 0), 0u);
    std::string leaf = sub.substr(std::string("/tmp/ck/").size());
    EXPECT_EQ(leaf.find('/'), std::string::npos);
    EXPECT_EQ(leaf.find('='), std::string::npos);
    EXPECT_EQ(leaf.find(' '), std::string::npos);
    EXPECT_FALSE(leaf.empty());
}

TEST(SweepMatrix, RejectsUnknownProtocol)
{
    PanicGuard guard;
    SweepConfig c = SweepConfig::fromString("protocol = token\n");
    EXPECT_THROW(expandMatrix(c), std::runtime_error);
}

TEST(SweepMatrix, VerifyAxisExpandsAndKeepsOracleOffIdsStable)
{
    SweepConfig c = SweepConfig::fromString("workload = barnes\n"
                                            "verify = off, on\n");
    std::vector<JobSpec> jobs = expandMatrix(c);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].verify, "off");
    EXPECT_EQ(jobs[1].verify, "on");
    // Oracle-off ids predate the verify axis and must stay suffix
    // -free, so pre-existing journals resume and fault-plan hashes
    // keyed on id() are unchanged.
    EXPECT_EQ(jobs[0].id().find("verify"), std::string::npos);
    EXPECT_NE(jobs[1].id().find(" verify=on"), std::string::npos);
    EXPECT_NE(jobs[0].idHash(), jobs[1].idHash());

    // The axis defaults to off when absent.
    SweepConfig plain = SweepConfig::fromString("workload = barnes\n");
    EXPECT_EQ(expandMatrix(plain)[0].verify, "off");

    PanicGuard guard;
    SweepConfig bad = SweepConfig::fromString("verify = maybe\n");
    EXPECT_THROW(expandMatrix(bad), std::runtime_error);
}

// ---- journal --------------------------------------------------------------

TEST(SweepJournal, Crc32KnownVector)
{
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(SweepJournal, FieldExtractionAndRowValidation)
{
    std::string payload =
        "{\"job\":\"j1\",\"status\":\"done\",\"misses\":42}";
    std::string out;
    ASSERT_TRUE(jsonField(payload, "job", out));
    EXPECT_EQ(out, "j1");
    ASSERT_TRUE(jsonField(payload, "misses", out));
    EXPECT_EQ(out, "42");
    EXPECT_FALSE(jsonField(payload, "absent", out));
    EXPECT_TRUE(validRowPayload(payload));
    EXPECT_FALSE(validRowPayload("{\"job\":\"j1\"}"));       // no status
    EXPECT_FALSE(validRowPayload("{\"status\":\"done\"}"));  // no job
    EXPECT_FALSE(validRowPayload("{\"job\":\"j\",\"status\":\"odd\"}"));
    EXPECT_FALSE(validRowPayload("not json"));
}

TEST(SweepJournal, RoundTripAndResumeDedup)
{
    std::string path = scratchPath("roundtrip.jsonl");
    std::remove(path.c_str());
    {
        Journal journal(path, /*fsyncRows=*/false);
        journal.append("{\"job\":\"a\",\"status\":\"failed\"}");
        journal.append("{\"job\":\"b\",\"status\":\"done\",\"misses\":7}");
        journal.append("{\"job\":\"a\",\"status\":\"done\",\"misses\":9}");
    }
    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    EXPECT_EQ(recovery.lines, 3u);
    EXPECT_EQ(recovery.duplicates, 1u);
    EXPECT_EQ(recovery.droppedTail + recovery.droppedCorrupt, 0u);
    ASSERT_EQ(rows.size(), 2u);
    // Job a's later "done" row superseded its "failed" row.
    EXPECT_EQ(rows[0].job, "a");
    EXPECT_EQ(rows[0].status, "done");
    std::string misses;
    ASSERT_TRUE(jsonField(rows[0].payload, "misses", misses));
    EXPECT_EQ(misses, "9");
    std::remove(path.c_str());
}

TEST(SweepJournal, TruncatedTailIsDroppedSilently)
{
    std::string path = scratchPath("truncated.jsonl");
    std::remove(path.c_str());
    {
        Journal journal(path, false);
        journal.append("{\"job\":\"a\",\"status\":\"done\"}");
        journal.append("{\"job\":\"b\",\"status\":\"done\"}");
    }
    // Crash artifact: chop the last line mid-row (newline included).
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size - 12), 0);

    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    EXPECT_EQ(recovery.droppedTail, 1u);
    EXPECT_EQ(recovery.droppedCorrupt, 0u);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].job, "a");
    std::remove(path.c_str());
}

TEST(SweepJournal, CorruptInteriorChecksumIsDropped)
{
    std::string path = scratchPath("corrupt.jsonl");
    std::remove(path.c_str());
    {
        Journal journal(path, false);
        journal.append("{\"job\":\"a\",\"status\":\"done\",\"misses\":1}");
        journal.append("{\"job\":\"b\",\"status\":\"done\",\"misses\":2}");
    }
    // Flip one payload byte of the FIRST line: its crc no longer
    // matches, so the row must be dropped as interior corruption.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 9, SEEK_SET);  // inside "a"
    std::fputc('X', f);
    std::fclose(f);

    PanicGuard guard;  // interior corruption warns; keep it quiet-safe
    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    EXPECT_EQ(recovery.droppedCorrupt, 1u);
    EXPECT_EQ(recovery.droppedTail, 0u);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].job, "b");
    std::remove(path.c_str());
}

TEST(SweepJournal, AggregateTableIsOrderIndependent)
{
    JournalRow r1{"{\"job\":\"b\",\"status\":\"done\",\"misses\":5,"
                  "\"traffic_bytes\":10}",
                  "b", "done"};
    JournalRow r2{"{\"job\":\"a\",\"status\":\"done\",\"misses\":3,"
                  "\"traffic_bytes\":20}",
                  "a", "done"};
    JournalRow r3{"{\"job\":\"c\",\"status\":\"failed\"}", "c",
                  "failed"};
    std::string t1 = aggregateTable({r1, r2, r3});
    std::string t2 = aggregateTable({r3, r2, r1});
    EXPECT_EQ(t1, t2);
    EXPECT_NE(t1.find("done   a misses=3"), std::string::npos);
    EXPECT_NE(t1.find("FAILED c"), std::string::npos);
    EXPECT_NE(t1.find("totals jobs=3 done=2 failed=1 misses=8 "
                      "traffic_bytes=30"),
              std::string::npos);
}

// ---- fault plan -----------------------------------------------------------

TEST(SweepFaults, SpecParsingAndDeterminism)
{
    FaultPlan plan =
        FaultPlan::fromSpec("crash=0.25,hang=0.1,garbage=0.05,seed=9");
    EXPECT_DOUBLE_EQ(plan.crash, 0.25);
    EXPECT_DOUBLE_EQ(plan.hang, 0.1);
    EXPECT_DOUBLE_EQ(plan.garbage, 0.05);
    EXPECT_EQ(plan.seed, 9u);
    EXPECT_TRUE(plan.enabled());
    EXPECT_FALSE(FaultPlan::fromSpec("").enabled());

    // Pure function of (hash, attempt, seed): replays identically.
    for (std::uint64_t h : {1ull, 77ull, 123456789ull}) {
        for (unsigned attempt = 1; attempt <= 4; ++attempt) {
            EXPECT_EQ(plan.decide(h, attempt),
                      plan.decide(h, attempt));
        }
    }
    // And actually mixes across attempts/jobs.
    int kinds[4] = {0, 0, 0, 0};
    for (std::uint64_t h = 0; h < 400; ++h)
        ++kinds[static_cast<int>(plan.decide(h, 1))];
    EXPECT_GT(kinds[0], 0);  // none
    EXPECT_GT(kinds[1], 0);  // crash
    EXPECT_GT(kinds[2], 0);  // hang
    EXPECT_GT(kinds[3], 0);  // garbage

    PanicGuard guard;
    EXPECT_THROW(FaultPlan::fromSpec("crash=1.5"), std::runtime_error);
    EXPECT_THROW(FaultPlan::fromSpec("crash=0.9,hang=0.9"),
                 std::runtime_error);
}

// ---- supervisor -----------------------------------------------------------

SupervisorOptions
fastOptions()
{
    SupervisorOptions opt;
    opt.concurrency = 2;
    opt.timeoutSeconds = 10.0;
    opt.maxAttempts = 3;
    opt.backoffSeconds = 0.01;
    opt.fsyncRows = false;
    return opt;
}

TEST(SweepSupervisor, RunsMatrixAndResumes)
{
    std::string path = scratchPath("pool.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = smallMatrix();

    Supervisor supervisor(path, fastOptions());
    SweepSummary first = supervisor.run(jobs, fakeRow, FaultPlan{});
    EXPECT_TRUE(first.allDone());
    EXPECT_EQ(first.completed, jobs.size());
    EXPECT_EQ(first.skipped, 0u);

    // Second run resumes: everything already journaled, zero forks.
    SweepSummary second = supervisor.run(jobs, fakeRow, FaultPlan{});
    EXPECT_TRUE(second.allDone());
    EXPECT_EQ(second.skipped, jobs.size());
    EXPECT_EQ(second.launched, 0u);

    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    EXPECT_EQ(rows.size(), jobs.size());
    // The parent annotates every successful row with its attempt.
    std::string attempt;
    ASSERT_TRUE(jsonField(rows[0].payload, "attempt", attempt));
    EXPECT_EQ(attempt, "1");
    std::remove(path.c_str());
}

TEST(SweepSupervisor, RetriesCrashThenSucceeds)
{
    std::string path = scratchPath("retry.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = {smallMatrix()[0]};
    std::uint64_t h = jobs[0].idHash();

    // Find a seed whose draw crashes attempt 1 but spares attempt 2 --
    // deterministic thereafter.
    FaultPlan plan;
    plan.crash = 0.5;
    for (plan.seed = 1;; ++plan.seed) {
        if (plan.decide(h, 1) == FaultAction::Crash &&
            plan.decide(h, 2) == FaultAction::None)
            break;
    }

    Supervisor supervisor(path, fastOptions());
    SweepSummary summary = supervisor.run(jobs, fakeRow, plan);
    EXPECT_TRUE(summary.allDone());
    EXPECT_EQ(summary.completed, 1u);
    EXPECT_EQ(summary.retries, 1u);
    EXPECT_EQ(summary.launched, 2u);

    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    ASSERT_EQ(rows.size(), 1u);
    std::string attempt;
    ASSERT_TRUE(jsonField(rows[0].payload, "attempt", attempt));
    EXPECT_EQ(attempt, "2");
    std::remove(path.c_str());
}

TEST(SweepSupervisor, RetryBudgetExhaustionRecordsFailedRow)
{
    std::string path = scratchPath("budget.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = {smallMatrix()[0]};

    FaultPlan plan;
    plan.crash = 1.0;  // every attempt dies by SIGABRT

    SupervisorOptions opt = fastOptions();
    opt.maxAttempts = 2;
    Supervisor supervisor(path, opt);
    SweepSummary summary = supervisor.run(jobs, fakeRow, plan);
    EXPECT_FALSE(summary.allDone());
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.launched, 2u);

    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, "failed");
    std::string field;
    ASSERT_TRUE(jsonField(rows[0].payload, "attempts", field));
    EXPECT_EQ(field, "2");
    ASSERT_TRUE(jsonField(rows[0].payload, "term_signal", field));
    EXPECT_EQ(field, std::to_string(SIGABRT));
    ASSERT_TRUE(jsonField(rows[0].payload, "reason", field));
    EXPECT_EQ(field, "signal");
    std::remove(path.c_str());
}

TEST(SweepSupervisor, ViolationExitJournalsImmediatelyWithoutRetry)
{
    std::string path = scratchPath("violation.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = {smallMatrix()[0]};

    // A coherence violation terminates the worker with the dedicated
    // exit code. It is deterministic, so the supervisor must journal
    // it on the first attempt instead of burning the retry budget.
    auto violate = [](const JobSpec &) -> std::string {
        std::exit(verify::violationExitCode);
    };

    SupervisorOptions opt = fastOptions();
    opt.maxAttempts = 3;
    Supervisor supervisor(path, opt);
    SweepSummary summary = supervisor.run(jobs, violate, FaultPlan{});
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.violations, 1u);
    EXPECT_EQ(summary.launched, 1u);  // no retries burned
    EXPECT_EQ(summary.retries, 0u);

    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, "failed");
    std::string field;
    ASSERT_TRUE(jsonField(rows[0].payload, "reason", field));
    EXPECT_EQ(field, "violation");
    ASSERT_TRUE(jsonField(rows[0].payload, "exit_code", field));
    EXPECT_EQ(field, std::to_string(verify::violationExitCode));
    ASSERT_TRUE(jsonField(rows[0].payload, "attempts", field));
    EXPECT_EQ(field, "1");
    std::remove(path.c_str());
}

TEST(SweepSupervisor, WatchdogKillsHangingWorker)
{
    std::string path = scratchPath("hang.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = {smallMatrix()[0]};

    FaultPlan plan;
    plan.hang = 1.0;

    SupervisorOptions opt = fastOptions();
    opt.maxAttempts = 1;
    opt.timeoutSeconds = 0.2;
    Supervisor supervisor(path, opt);
    SweepSummary summary = supervisor.run(jobs, fakeRow, plan);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.timeouts, 1u);

    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    ASSERT_EQ(rows.size(), 1u);
    std::string field;
    ASSERT_TRUE(jsonField(rows[0].payload, "reason", field));
    EXPECT_EQ(field, "timeout");
    ASSERT_TRUE(jsonField(rows[0].payload, "term_signal", field));
    EXPECT_EQ(field, std::to_string(SIGKILL));
    std::remove(path.c_str());
}

TEST(SweepSupervisor, GarbageRowIsRejectedNotJournaled)
{
    std::string path = scratchPath("garbage.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = {smallMatrix()[0]};

    FaultPlan plan;
    plan.garbage = 1.0;  // torn row, clean exit -- validation's job

    SupervisorOptions opt = fastOptions();
    opt.maxAttempts = 1;
    Supervisor supervisor(path, opt);
    SweepSummary summary = supervisor.run(jobs, fakeRow, plan);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.invalidRows, 1u);

    JournalRecovery recovery;
    std::vector<JournalRow> rows = readJournal(path, recovery);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].status, "failed");
    std::string field;
    ASSERT_TRUE(jsonField(rows[0].payload, "reason", field));
    EXPECT_EQ(field, "invalid-row");
    std::remove(path.c_str());
}

TEST(SweepSupervisor, MismatchedJobIdFailsValidation)
{
    std::string path = scratchPath("mismatch.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = {smallMatrix()[0]};

    SupervisorOptions opt = fastOptions();
    opt.maxAttempts = 1;
    Supervisor supervisor(path, opt);
    SweepSummary summary = supervisor.run(
        jobs,
        [](const JobSpec &) -> std::string {
            return "{\"job\":\"someone-else\",\"status\":\"done\"}";
        },
        FaultPlan{});
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.invalidRows, 1u);
    std::remove(path.c_str());
}

TEST(SweepSupervisor, RepeatedFaultsDegradeThePool)
{
    std::string path = scratchPath("degrade.jsonl");
    std::remove(path.c_str());
    std::vector<JobSpec> jobs = smallMatrix();

    FaultPlan plan;
    plan.crash = 1.0;

    SupervisorOptions opt = fastOptions();
    opt.concurrency = 3;
    opt.maxAttempts = 1;
    opt.degradeStreak = 2;
    Supervisor supervisor(path, opt);
    SweepSummary summary = supervisor.run(jobs, fakeRow, plan);
    EXPECT_EQ(summary.failed, jobs.size());
    EXPECT_LT(summary.finalConcurrency, 3u);
    std::remove(path.c_str());
}

TEST(SweepSupervisor, FreshAndCrashResumedTablesAreBitIdentical)
{
    // The acceptance criterion. Reference: a fault-free sweep.
    std::vector<JobSpec> jobs = smallMatrix();
    std::string fresh_path = scratchPath("fresh.jsonl");
    std::remove(fresh_path.c_str());
    {
        Supervisor supervisor(fresh_path, fastOptions());
        ASSERT_TRUE(
            supervisor.run(jobs, fakeRow, FaultPlan{}).allDone());
    }
    JournalRecovery recovery;
    std::string fresh_table =
        aggregateTable(readJournal(fresh_path, recovery));

    // Faulted first pass: deterministic crashes/hangs/garbage with a
    // single-attempt budget leave failed rows behind.
    std::string crash_path = scratchPath("crashy.jsonl");
    std::remove(crash_path.c_str());
    FaultPlan plan = FaultPlan::fromSpec(
        "crash=0.4,hang=0.15,garbage=0.2,seed=11");
    SupervisorOptions opt = fastOptions();
    opt.maxAttempts = 1;
    opt.timeoutSeconds = 0.2;
    {
        Supervisor supervisor(crash_path, opt);
        SweepSummary faulted = supervisor.run(jobs, fakeRow, plan);
        // The plan must actually bite, or this test tests nothing.
        ASSERT_GT(faulted.failed + faulted.completed, 0u);
        ASSERT_LT(faulted.completed, jobs.size());
    }

    // Simulate a mid-row writer death on top: truncate the tail.
    std::FILE *f = std::fopen(crash_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    if (size > 8) {
        ASSERT_EQ(truncate(crash_path.c_str(), size - 5), 0);
    }

    // Resume fault-free: completes the matrix, superseding failed
    // rows and re-running the truncated one.
    {
        Supervisor supervisor(crash_path, fastOptions());
        SweepSummary resumed =
            supervisor.run(jobs, fakeRow, FaultPlan{});
        ASSERT_TRUE(resumed.allDone());
    }
    std::string resumed_table =
        aggregateTable(readJournal(crash_path, recovery));

    EXPECT_EQ(fresh_table, resumed_table);
    std::remove(fresh_path.c_str());
    std::remove(crash_path.c_str());
}

// ---- end-to-end sim job ---------------------------------------------------

TEST(SweepSimJob, RunsARealSimulationJob)
{
    std::vector<JobSpec> jobs = smallMatrix();
    std::string row = runSimJob(jobs[0]);
    EXPECT_TRUE(validRowPayload(row));
    std::string field;
    ASSERT_TRUE(jsonField(row, "job", field));
    EXPECT_EQ(field, jobs[0].id());
    ASSERT_TRUE(jsonField(row, "status", field));
    EXPECT_EQ(field, "done");
    ASSERT_TRUE(jsonField(row, "instructions", field));
    EXPECT_GT(std::strtoull(field.c_str(), nullptr, 10), 0u);
    ASSERT_TRUE(jsonField(row, "misses", field));

    // Bit-determinism end to end: the row a resumed farm would
    // recompute is byte-for-byte the row the first farm journaled
    // (minus host wall time, which the aggregate excludes).
    std::string again = runSimJob(jobs[0]);
    auto strip = [](std::string s) {
        return s.substr(0, s.find("\"wall_ms\""));
    };
    EXPECT_EQ(strip(row), strip(again));
}

} // namespace
} // namespace sweep
} // namespace dsp
