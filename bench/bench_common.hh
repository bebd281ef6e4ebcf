/**
 * @file
 * Shared command-line handling for the table/figure reproduction
 * benches. Every bench accepts:
 *   --scale F     workload footprint scale (default 1.0)
 *   --warmup N    warmup misses before measuring (default 150k)
 *   --measure N   measured misses (default 400k)
 *   --seed S      RNG seed (default 1)
 *   --workload W  restrict to one workload (default: all six)
 *   --nodes N     processors (default 16)
 *   --hubs N      address-interleaved ordering hubs (default 1)
 *   --cluster N   nodes per cluster, 0 = flat machine (default 0)
 *   --switch-ns F switch<->global interconnect leg in ns (default 0)
 *   --csv         emit CSV instead of aligned tables
 */

#ifndef DSP_BENCH_BENCH_COMMON_HH
#define DSP_BENCH_BENCH_COMMON_HH

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/trace_collector.hh"
#include "sim/flat_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/trace.hh"
#include "workload/presets.hh"

namespace dsp {
namespace bench {

struct Options {
    double scale = 1.0;
    std::uint64_t warmupMisses = 600000;
    std::uint64_t measureMisses = 200000;
    std::uint64_t seed = 1;
    NodeId nodes = 16;
    unsigned hubs = 1;
    unsigned cluster = 0;
    double switchNs = 0.0;
    bool csv = false;
    std::vector<std::string> workloads;  ///< empty = all six

    // Execution-driven (Figures 7/8) knobs. Cache/predictor warmup
    // is functional (trace-style, --warmup misses); the timing warmup
    // only needs to settle in-flight state.
    std::uint64_t cpuWarmupInstr = 100000;
    std::uint64_t cpuMeasureInstr = 1000000;
    unsigned runs = 1;  ///< perturbed runs averaged per data point
};

inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                dsp_fatal("missing value for option '%s'", arg.c_str());
            return argv[++i];
        };
        if (arg == "--scale") {
            opt.scale = std::atof(next());
        } else if (arg == "--warmup") {
            opt.warmupMisses = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--measure") {
            opt.measureMisses = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--nodes") {
            opt.nodes = static_cast<NodeId>(std::atoi(next()));
        } else if (arg == "--hubs") {
            opt.hubs = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--cluster") {
            opt.cluster = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--switch-ns") {
            opt.switchNs = std::atof(next());
        } else if (arg == "--workload") {
            opt.workloads.push_back(next());
        } else if (arg == "--cpu-warmup") {
            opt.cpuWarmupInstr = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--cpu-measure") {
            opt.cpuMeasureInstr = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--runs") {
            opt.runs = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "options: --scale F --warmup N --measure N "
                         "--seed S --nodes N --hubs N --cluster N "
                         "--switch-ns F --workload W --csv\n");
            std::exit(0);
        } else {
            dsp_fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (opt.workloads.empty())
        opt.workloads = workloadNames();
    return opt;
}

/** FNV-1a hash of a C string: the in-process trace-cache key. */
inline std::uint64_t
traceCacheKey(const char *s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (; *s != '\0'; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Load a cached annotated trace for (workload, options) or collect and
 * cache one. Two cache levels, both keyed by every parameter that
 * affects trace contents: a FlatMap memo inside the process (so a
 * bench that revisits a configuration never re-reads, let alone
 * re-collects, and no caller copies the record vector) and ./traces/
 * on disk shared across bench binaries.
 *
 * The returned reference points at the memo-owned trace; it stays
 * valid across further getOrCollectTrace calls (entries are held by
 * pointer, so map growth never moves a Trace).
 */
inline const Trace &
getOrCollectTrace(const Options &opt, const std::string &name)
{
    // The format version is part of the name, so a cache written in
    // another format is never opened (readTrace rejects it).
    char file[512];
    std::snprintf(file, sizeof(file),
                  "traces/%s_n%u_s%llu_sc%.3f_w%llu_m%llu_v%u.dsptrace",
                  name.c_str(), opt.nodes,
                  static_cast<unsigned long long>(opt.seed), opt.scale,
                  static_cast<unsigned long long>(opt.warmupMisses),
                  static_cast<unsigned long long>(opt.measureMisses),
                  traceVersion);

    // The file name encodes the full parameter tuple, so its hash is
    // the memo key. (Cold table; FlatMap to finish the repo-wide
    // flat-map adoption rather than for speed.)
    static FlatMap<std::uint64_t, std::unique_ptr<Trace>> memo;
    const std::uint64_t key = traceCacheKey(file);
    if (auto it = memo.find(key); it != memo.end() &&
                                  it->second->workloadName == name) {
        return *it->second;
    }

    if (std::FILE *f = std::fopen(file, "rb")) {
        std::fclose(f);
        auto trace = std::make_unique<Trace>(readTrace(file));
        if (trace->workloadName == name &&
            trace->numNodes == opt.nodes &&
            trace->warmupRecords == opt.warmupMisses &&
            trace->size() == opt.warmupMisses + opt.measureMisses) {
            return *memo.emplace(key, std::move(trace))
                        .first->second;
        }
        dsp_warn("stale trace cache '%s'; recollecting", file);
    }

    auto workload = makeWorkload(name, opt.nodes, opt.seed, opt.scale);
    TraceCollector collector(*workload);
    auto trace = std::make_unique<Trace>(
        collector.collect(opt.warmupMisses, opt.measureMisses));

    mkdir("traces", 0755);
    if (!writeTrace(*trace, file))
        dsp_warn("could not cache trace to '%s'", file);
    return *memo.emplace(key, std::move(trace)).first->second;
}

} // namespace bench
} // namespace dsp

#endif // DSP_BENCH_BENCH_COMMON_HH
