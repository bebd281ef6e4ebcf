/**
 * @file
 * Simulator-throughput microbench for the hot path.
 *
 * Runs the Figure-7 configuration (16 nodes, simple in-order CPUs)
 * under the event-heaviest protocol (snooping broadcast) and the
 * headline predictor configuration (multicast + owner-group), plus a
 * sharded-kernel run of the multicast config on --threads host
 * threads, and reports wall-clock throughput: kernel events per
 * second and simulated misses per second. Results go to stdout and,
 * as JSON, to BENCH_hotpath.json so every PR leaves a perf trajectory
 * behind. The sharded config's figure statistics are bit-identical to
 * the single-threaded multicast config by the kernel's determinism
 * contract; scripts/check.sh cross-checks exactly that.
 *
 * Also emits the event-pool counters; `slab_allocations` staying flat
 * across configs is the "no per-event heap allocation" invariant made
 * visible (the unit tests assert it, this bench records it).
 *
 * Flags:
 *   --measure N    measured instructions per CPU (default 1000000)
 *   --warmup N     functional warmup misses (default 50000)
 *   --workload W   workload preset (default barnes)
 *   --threads N    shard threads for the parallel config (default 4)
 *   --nodes N      processors (default 16)
 *   --hubs N       address-interleaved ordering hubs (default 1)
 *   --cluster N    nodes per cluster, 0 = flat (default 0)
 *   --switch-ns F  switch<->global interconnect leg in ns (default 0)
 *   --seed S       RNG seed (default 1)
 *   --out FILE     JSON output path (default BENCH_hotpath.json)
 *   --oracle       shadow every run with the coherence oracle
 *   --mutate M     inject protocol mutation M (implies --oracle);
 *                  the run must die with exit 77 and a repro bundle
 *   --stop-at T    stop at the first window boundary at/after tick T
 *                  (replays a repro bundle up to its violation)
 *   --checkpoint-every N   snapshot the run every N simulated ticks
 *                  (requires --config: one simulation per process)
 *   --checkpoint-dir D     directory for ckpt_<tick>.dsp snapshots
 *   --checkpoint-keep N    after each successful snapshot, prune all
 *                  but the newest N valid snapshots in the directory
 *                  (corrupt/quarantined files are never counted or
 *                  deleted); 0 = keep everything (default)
 *   --restore      resume from the newest valid checkpoint in the
 *                  checkpoint dir (fresh start when none validates)
 *   --restore-from FILE    resume from one specific checkpoint file
 *                  (violation replay from the repro bundle's
 *                  "checkpoint" field; combine with --stop-at)
 *
 * Oracle-shadowed runs are slower by design, so without an explicit
 * --out they write BENCH_hotpath.oracle.json: the perf-guarded
 * baseline only ever holds oracle-off numbers.
 *
 * SIGINT/SIGTERM stop the run at the next kernel window boundary; the
 * configs measured so far (plus the partial one, marked "partial")
 * are flushed as JSON -- to <out>.partial unless --out was explicit,
 * so an interrupted run never clobbers the guarded baseline -- and
 * the bench exits with code 75 (interrupted-but-flushed). A second
 * signal kills immediately.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "interconnect/message.hh"
#include "sim/event.hh"
#include "sim/interrupt.hh"
#include "sim/logging.hh"
#include "sim/panic_hooks.hh"
#include "system/system.hh"
#include "verify/violation.hh"
#include "workload/presets.hh"

namespace {

using namespace dsp;

struct HotpathOptions {
    std::uint64_t measureInstr = 1000000;
    std::uint64_t warmupMisses = 50000;
    unsigned repeat = 1;
    std::string workload = "barnes";
    unsigned threads = 4;
    bool hubShard = false;
    NodeId nodes = 16;
    unsigned hubs = 1;
    unsigned cluster = 0;
    double switchNs = 0.0;
    std::uint64_t seed = 1;
    std::string out = "BENCH_hotpath.json";
    bool outExplicit = false;
    std::string onlyConfig;  ///< run just this config (profiling aid)
    bool oracle = false;
    verify::Mutation mutate = verify::Mutation::None;
    std::uint64_t stopAt = 0;
    std::uint64_t ckptEvery = 0;
    std::string ckptDir;
    unsigned ckptKeep = 0;
    bool restore = false;
    std::string restoreFrom;
};

HotpathOptions
parseArgs(int argc, char **argv)
{
    HotpathOptions opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                dsp_fatal("missing value for option '%s'", arg.c_str());
            return argv[++i];
        };
        if (arg == "--measure") {
            opt.measureInstr = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--warmup") {
            opt.warmupMisses = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--workload") {
            opt.workload = next();
        } else if (arg == "--threads") {
            opt.threads = static_cast<unsigned>(std::atoi(next()));
            if (opt.threads == 0)
                opt.threads = 1;
        } else if (arg == "--hub-shard") {
            opt.hubShard = true;
        } else if (arg == "--repeat") {
            opt.repeat = static_cast<unsigned>(std::atoi(next()));
            if (opt.repeat == 0)
                opt.repeat = 1;
        } else if (arg == "--nodes") {
            opt.nodes = static_cast<NodeId>(std::atoi(next()));
        } else if (arg == "--hubs") {
            opt.hubs = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--cluster") {
            opt.cluster = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--switch-ns") {
            opt.switchNs = std::atof(next());
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--out") {
            opt.out = next();
            opt.outExplicit = true;
        } else if (arg == "--config") {
            opt.onlyConfig = next();
        } else if (arg == "--oracle") {
            opt.oracle = true;
        } else if (arg == "--mutate") {
            const char *name = next();
            if (!verify::parseMutation(name, opt.mutate))
                dsp_fatal("unknown mutation '%s'", name);
            opt.oracle = true;
        } else if (arg == "--stop-at") {
            opt.stopAt = std::strtoull(next(), nullptr, 10);
            opt.oracle = true;
        } else if (arg == "--checkpoint-every") {
            opt.ckptEvery = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--checkpoint-dir") {
            opt.ckptDir = next();
        } else if (arg == "--checkpoint-keep") {
            opt.ckptKeep = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--restore") {
            opt.restore = true;
        } else if (arg == "--restore-from") {
            opt.restoreFrom = next();
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "options: --measure N --warmup N --workload W "
                         "--threads N --hub-shard --nodes N --hubs N "
                         "--cluster N --switch-ns F --seed S "
                         "--out FILE --config NAME "
                         "--repeat N "
                         "--oracle --mutate M --stop-at T "
                         "--checkpoint-every N --checkpoint-dir D "
                         "--checkpoint-keep N "
                         "--restore --restore-from FILE\n");
            std::exit(0);
        } else {
            dsp_fatal("unknown option '%s'", arg.c_str());
        }
    }
    // A checkpoint directory holds one simulation's snapshot stream;
    // the default 4-config bench would interleave four. Scope any
    // checkpoint/restore use to a single --config run.
    if ((opt.ckptEvery != 0 || opt.restore ||
         !opt.restoreFrom.empty()) &&
        opt.onlyConfig.empty()) {
        dsp_fatal("--checkpoint-every/--restore require --config "
                  "(one simulation per checkpoint directory)");
    }
    if (opt.ckptEvery != 0 && opt.ckptDir.empty())
        dsp_fatal("--checkpoint-every requires --checkpoint-dir");
    if (opt.restore && opt.ckptDir.empty() && opt.restoreFrom.empty())
        dsp_fatal("--restore requires --checkpoint-dir (or "
                  "--restore-from FILE)");
    if ((opt.restore || !opt.restoreFrom.empty()) && opt.repeat != 1) {
        dsp_warn("--restore forces --repeat 1 (every repetition would "
                 "resume from the same snapshot)");
        opt.repeat = 1;
    }
    return opt;
}

struct ConfigResult {
    std::string name;
    unsigned threads = 1;
    double wallSeconds = 0.0;
    bool partial = false;  ///< interrupted mid-run; stats incomplete
    SystemStats stats;

    double
    barriersPerWindow() const
    {
        return stats.windowsRun > 0
                   ? static_cast<double>(stats.barrierCrossings) /
                         static_cast<double>(stats.windowsRun)
                   : 0.0;
    }

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(stats.eventsExecuted) /
                         wallSeconds
                   : 0.0;
    }

    double
    missesPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(stats.misses) / wallSeconds
                   : 0.0;
    }
};

/** Config currently inside System::run(), for the panic hook: a
 *  violation exits from deep inside the simulator, and the dump
 *  should say which bench config was on the wire. */
std::string activeConfig;

ConfigResult
runConfig(const HotpathOptions &opt, const std::string &name,
          ProtocolKind protocol, PredictorPolicy policy,
          CpuModel cpu_model, unsigned threads)
{
    // Best-of-N (--repeat): fresh workload + System per repetition,
    // identical seeds, keep the fastest wall clock. Every repetition
    // must produce bit-identical simulation statistics -- a free
    // same-process determinism check the bench enforces.
    ConfigResult result;
    for (unsigned rep = 0; rep < opt.repeat; ++rep) {
        auto workload =
            makeWorkload(opt.workload, opt.nodes, opt.seed, 0.25);

        SystemParams params;
        params.nodes = opt.nodes;
        params.protocol = protocol;
        params.policy = policy;
        params.cpuModel = cpu_model;
        params.shards = threads;
        params.hubShard = opt.hubShard;
        params.crossbar.topology.hubs = opt.hubs;
        params.crossbar.topology.cluster_size = opt.cluster;
        params.crossbar.topology.switch_link_ns = opt.switchNs;
        params.functionalWarmupMisses = opt.warmupMisses;
        params.warmupInstrPerCpu = opt.measureInstr / 10;
        params.measureInstrPerCpu = opt.measureInstr;
        params.verify.oracle = opt.oracle;
        params.verify.mutation = opt.mutate;
        params.verify.stopAtTick = opt.stopAt;
        params.checkpoint.every = opt.ckptEvery;
        params.checkpoint.dir = opt.ckptDir;
        params.checkpoint.keep = opt.ckptKeep;
        params.checkpoint.restore = opt.restore;
        params.checkpoint.restorePath = opt.restoreFrom;
        if (!opt.ckptDir.empty())
            ckpt::makeDirs(opt.ckptDir);

        activeConfig = name;
        System system(*workload, params);
        SystemStats stats = system.run();
        activeConfig.clear();

        if (stats.stoppedEarly) {
            // --stop-at halted the run at a window boundary; the
            // stats cover a prefix of the simulation, same contract
            // as an interrupt.
            result.name = name;
            result.threads = threads;
            result.stats = stats;
            result.wallSeconds = stats.wallSeconds;
            result.partial = true;
            return result;
        }

        if (interruptRequested()) {
            // The run stopped at a window boundary with partial
            // stats; they are not comparable against a completed
            // repetition, so skip the divergence check and let main
            // flush what we have.
            if (rep == 0) {
                result.name = name;
                result.threads = threads;
                result.stats = stats;
                result.wallSeconds = stats.wallSeconds;
            }
            result.partial = true;
            return result;
        }

        if (rep == 0) {
            result.name = name;
            result.threads = threads;
            result.stats = stats;
            // Wall time of the measured phase only, so warmup does
            // not dilute the throughput numbers.
            result.wallSeconds = stats.wallSeconds;
            continue;
        }
        if (stats.eventsExecuted != result.stats.eventsExecuted ||
            stats.misses != result.stats.misses ||
            stats.retries != result.stats.retries ||
            stats.trafficBytes != result.stats.trafficBytes ||
            stats.runtimeTicks != result.stats.runtimeTicks ||
            stats.avgMissLatencyNs != result.stats.avgMissLatencyNs ||
            stats.barrierCrossings != result.stats.barrierCrossings ||
            stats.windowsRun != result.stats.windowsRun ||
            stats.cacheAccesses != result.stats.cacheAccesses ||
            stats.l0Hits != result.stats.l0Hits ||
            stats.l0Absorbed != result.stats.l0Absorbed ||
            stats.wordTouches != result.stats.wordTouches) {
            dsp_fatal("repeat %u of config '%s' diverged from repeat "
                      "0 -- same-process nondeterminism",
                      rep, name.c_str());
        }
        if (stats.wallSeconds < result.wallSeconds) {
            result.stats = stats;
            result.wallSeconds = stats.wallSeconds;
        }
    }
    return result;
}

bool
writeJson(const HotpathOptions &opt,
          const std::vector<ConfigResult> &results)
{
    // Compose in memory, then land atomically (temp + fsync +
    // rename): the guarded baseline this refreshes must never exist
    // in a torn state, even across a crash or SIGKILL mid-write.
    char *mem = nullptr;
    std::size_t mem_len = 0;
    std::FILE *f = open_memstream(&mem, &mem_len);
    if (!f) {
        dsp_warn("cannot compose '%s'", opt.out.c_str());
        return false;
    }

    std::uint64_t total_events = 0;
    std::uint64_t total_misses = 0;
    double total_wall = 0.0;
    for (const ConfigResult &r : results) {
        total_events += r.stats.eventsExecuted;
        total_misses += r.stats.misses;
        total_wall += r.wallSeconds;
    }

    EventPoolStats pools = eventPoolStats();

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"perf_hotpath\",\n");
    if (opt.oracle)
        std::fprintf(f, "  \"oracle\": true,\n");
    if (interruptRequested())
        std::fprintf(f, "  \"interrupted\": true,\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n",
                 opt.workload.c_str());
    std::fprintf(f, "  \"nodes\": %u,\n", opt.nodes);
    std::fprintf(f, "  \"measure_instr_per_cpu\": %llu,\n",
                 static_cast<unsigned long long>(opt.measureInstr));
    std::fprintf(f, "  \"configs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ConfigResult &r = results[i];
        std::fprintf(f, "    {\n");
        std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
        if (r.partial)
            std::fprintf(f, "      \"partial\": true,\n");
        std::fprintf(f, "      \"threads\": %u,\n", r.threads);
        std::fprintf(f, "      \"wall_seconds\": %.6f,\n",
                     r.wallSeconds);
        std::fprintf(f, "      \"events\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.stats.eventsExecuted));
        std::fprintf(f, "      \"events_per_sec\": %.0f,\n",
                     r.eventsPerSec());
        std::fprintf(f, "      \"misses\": %llu,\n",
                     static_cast<unsigned long long>(r.stats.misses));
        std::fprintf(f, "      \"misses_per_sec\": %.0f,\n",
                     r.missesPerSec());
        // Deterministic figure statistics: check.sh diffs these
        // between --threads 1 and --threads K runs.
        std::fprintf(f, "      \"retries\": %llu,\n",
                     static_cast<unsigned long long>(r.stats.retries));
        std::fprintf(f, "      \"traffic_bytes\": %llu,\n",
                     static_cast<unsigned long long>(
                         r.stats.trafficBytes));
        std::fprintf(f, "      \"avg_miss_latency_ns\": %.6f,\n",
                     r.stats.avgMissLatencyNs);
        // L0 block-result filter effectiveness: hit rate over all
        // cache accesses, and packed-array words attributed per
        // access (walk-counter based; 0 under NDEBUG). Both are
        // deterministic and shard-count independent, so the
        // determinism cross-check covers them.
        std::fprintf(f, "      \"l0_hit_rate\": %.6f,\n",
                     r.stats.l0HitRate());
        std::fprintf(f, "      \"touched_words_per_access\": %.4f,\n",
                     r.stats.touchedWordsPerAccess());
        std::fprintf(f, "      \"barriers_per_window\": %.4f,\n",
                     r.barriersPerWindow());
        // Host cost counter, not a figure statistic, but deterministic
        // and shard-count independent (one insert and one pop per
        // event), so the determinism cross-check covers it.
        std::fprintf(f, "      \"calendar_ops_per_miss\": %.4f,\n",
                     r.stats.calendarOpsPerMiss());
        std::fprintf(f, "      \"sim_runtime_ms\": %.3f\n",
                     r.stats.runtimeMs());
        std::fprintf(f, "    }%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"totals\": {\n");
    std::fprintf(f, "    \"wall_seconds\": %.6f,\n", total_wall);
    std::fprintf(f, "    \"events_per_sec\": %.0f,\n",
                 total_wall > 0.0
                     ? static_cast<double>(total_events) / total_wall
                     : 0.0);
    std::fprintf(f, "    \"misses_per_sec\": %.0f\n",
                 total_wall > 0.0
                     ? static_cast<double>(total_misses) / total_wall
                     : 0.0);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"event_pools\": {\n");
    std::fprintf(f, "    \"acquires\": %llu,\n",
                 static_cast<unsigned long long>(pools.acquires));
    std::fprintf(f, "    \"releases\": %llu,\n",
                 static_cast<unsigned long long>(pools.releases));
    std::fprintf(f, "    \"live\": %llu,\n",
                 static_cast<unsigned long long>(pools.live()));
    std::fprintf(f, "    \"slab_allocations\": %llu,\n",
                 static_cast<unsigned long long>(
                     pools.slabAllocations));
    std::fprintf(f, "    \"slab_bytes\": %llu\n",
                 static_cast<unsigned long long>(pools.slabBytes));
    std::fprintf(f, "  },\n");

    // Zero-copy multicast accounting: refs_shared counts deliveries
    // that reused a pooled payload instead of copying a Message.
    const MessagePoolStats &msgs = MessageRef::stats();
    std::fprintf(f, "  \"message_pool\": {\n");
    std::fprintf(f, "    \"payloads\": %llu,\n",
                 static_cast<unsigned long long>(msgs.acquires));
    std::fprintf(f, "    \"refs_shared\": %llu,\n",
                 static_cast<unsigned long long>(msgs.refsShared));
    std::fprintf(f, "    \"live\": %llu,\n",
                 static_cast<unsigned long long>(msgs.live()));
    std::fprintf(f, "    \"slab_bytes\": %llu\n",
                 static_cast<unsigned long long>(msgs.slabBytes));
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::string json(mem, mem_len);
    std::free(mem);
    if (!ckpt::atomicWriteFile(opt.out, json)) {
        dsp_warn("cannot write '%s'", opt.out.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    HotpathOptions opt = parseArgs(argc, argv);
    installInterruptHandlers();

    // A violation (or kernel panic) terminates from deep inside
    // System::run(); ride the shared panic-hook chain so the dump
    // also names the bench config that was on the wire.
    addPanicHook("perf-hotpath", [&opt]() {
        std::fprintf(stderr,
                     "perf_hotpath: config '%s' workload=%s seed=%llu "
                     "measure=%llu\n",
                     activeConfig.empty() ? "(none)"
                                          : activeConfig.c_str(),
                     opt.workload.c_str(),
                     static_cast<unsigned long long>(opt.seed),
                     static_cast<unsigned long long>(opt.measureInstr));
    });

    // Oracle-shadowed wall clocks are slower by design; never let
    // them overwrite the perf-guarded oracle-off baseline.
    if (opt.oracle && !opt.outExplicit)
        opt.out = "BENCH_hotpath.oracle.json";

    // The Figure-7 configs (simple CPU) plus the Figure-8 headline
    // config (detailed out-of-order CPU), so the bench covers both
    // processor models' hot paths -- and the Figure-7 multicast
    // config again on the sharded kernel, exercising --threads host
    // threads (its figure statistics are bit-identical to the
    // single-threaded run; only the wall clock moves).
    struct Config {
        const char *name;
        ProtocolKind protocol;
        CpuModel cpuModel;
        bool sharded;
    };
    const Config configs[] = {
        {"snooping", ProtocolKind::Snooping, CpuModel::Simple, false},
        {"multicast-owner-group", ProtocolKind::Multicast,
         CpuModel::Simple, false},
        {"multicast-owner-group-detailed", ProtocolKind::Multicast,
         CpuModel::Detailed, false},
        {"multicast-owner-group-par", ProtocolKind::Multicast,
         CpuModel::Simple, true},
    };

    std::vector<ConfigResult> results;
    for (const Config &config : configs) {
        if (!opt.onlyConfig.empty() && opt.onlyConfig != config.name)
            continue;
        results.push_back(runConfig(opt, config.name, config.protocol,
                                    PredictorPolicy::OwnerGroup,
                                    config.cpuModel,
                                    config.sharded ? opt.threads
                                                   : 1));
        if (interruptRequested())
            break;
    }
    const bool interrupted = interruptRequested();
    if (results.empty() && !interrupted)
        dsp_fatal("no config named '%s'", opt.onlyConfig.c_str());

    std::printf("%-24s %12s %14s %12s %14s\n", "config", "events",
                "events/sec", "misses", "misses/sec");
    for (const ConfigResult &r : results) {
        std::printf("%-24s %12llu %14.0f %12llu %14.0f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(
                        r.stats.eventsExecuted),
                    r.eventsPerSec(),
                    static_cast<unsigned long long>(r.stats.misses),
                    r.missesPerSec());
    }

    EventPoolStats pools = eventPoolStats();
    std::printf("event pools: %llu acquires, %llu slab allocations "
                "(%llu KiB resident)\n",
                static_cast<unsigned long long>(pools.acquires),
                static_cast<unsigned long long>(pools.slabAllocations),
                static_cast<unsigned long long>(pools.slabBytes /
                                                1024));

    // A --config subset run is a profiling aid; never let it clobber
    // the full 4-config baseline JSON (check.sh's perf guard would
    // silently stop guarding the missing configs).
    if (!opt.onlyConfig.empty() && !opt.outExplicit &&
        !interruptRequested()) {
        std::printf("single-config run: skipping JSON (pass --out to "
                    "write one)\n");
        return 0;
    }
    if (interrupted) {
        // Same clobber concern, harder failure mode: a partial run
        // must never replace the guarded baseline by default.
        if (!opt.outExplicit)
            opt.out += ".partial";
        std::printf("interrupted (signal %d): flushing partial "
                    "results to %s\n",
                    interruptSignal(), opt.out.c_str());
    }
    if (!writeJson(opt, results))
        return 1;
    std::printf("wrote %s\n", opt.out.c_str());
    return interrupted ? interruptExitCode : 0;
}
