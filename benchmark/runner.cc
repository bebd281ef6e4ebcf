/**
 * @file
 * The benchmark runner: one workload per process, named on the command
 * line (see README.md for why each workload exists).
 *
 * A run repeats whole reps -- set-up (workload generation, machine
 * construction, warmup) followed by the measured phase -- until the
 * run length (run_seconds in BENCHMARK.json, compiled in) is spent,
 * then reports the median over reps of every end-to-end metric. Every
 * timed interval is scaled to the reference host's speed by a sampler
 * that measures the host's speed on the runner's threads throughout the
 * run (see namespace host). Every rep passes a correctness gate: the
 * run completed with misses, its figure statistics equal rep 0's (and,
 * on the sharded workload, a K=1 run's), and the event and message
 * pools drained. Each workload's figure statistics are hashed (FNV-1a)
 * into a fingerprint.
 *
 * With --trace 1 the timed reps use half the run length; then one more
 * rep runs under the span recorder, followed by the layer probes:
 * isolated replays of the same workload and seed through each layer's
 * public calls. Spans are recorded only around this file's calls into
 * the simulator and written as Chrome trace-event JSON (--trace-out).
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, and the end-to-end metrics (--trace 0) or every
 * per-layer metric (--trace 1; 0 where the layer does not run). --out
 * writes the full result (samples, fingerprints, provenance, the
 * per-layer metrics that apply) for run.sh to merge.
 */

#include <dirent.h>
#include <signal.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/predictor_eval.hh"
#include "analysis/trace_collector.hh"
#include "coherence/sharing_tracker.hh"
#include "core/factory.hh"
#include "cpu/detailed_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "interconnect/crossbar.hh"
#include "interconnect/message.hh"
#include "mem/node_caches.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "system/system.hh"
#include "workload/presets.hh"
#include "workload/region.hh"
#include "workload/workload.hh"

#ifndef DSP_BENCH_RUN_SECONDS
#error "DSP_BENCH_RUN_SECONDS (run_seconds in BENCHMARK.json) not defined"
#endif
#ifndef DSP_BENCH_COMPILER
#define DSP_BENCH_COMPILER "unknown"
#endif
#ifndef DSP_BENCH_FLAGS
#define DSP_BENCH_FLAGS "unknown"
#endif

namespace {

using namespace dsp;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

// ---- host speed -----------------------------------------------------------

/**
 * The host-speed sampler. On a shared host the speed of the runner's
 * cores drifts by tens of percent within seconds as neighbours contend
 * for them, so a gauge run before and after an interval misses most of
 * what happened inside it. Instead every thread of the runner is
 * interrupted after each `samplePeriodNs` of its own CPU time and, in
 * the signal handler, sorts a small fixed array: the sorts' durations
 * say how fast the host ran that thread at that moment. A timed interval
 * is then scaled by the mean duration of the samples taken inside it,
 * relative to `referenceSampleS` and raised to `speedExponent`, and the
 * main thread's samples are taken out of it. (The sharded kernel's
 * worker threads pause for their samples too; that cost is not taken
 * out, and is the same in every run.) The sampled kernel is benchmark
 * code: no change to the simulator moves it.
 */
namespace host {

/** Keys one sample sorts, and the sample time that defines the
 *  reference host's speed (a 4-core Intel Xeon VM measured 0.21-0.32 ms
 *  under varying load; its fastest is the reference). */
constexpr std::size_t sampleKeys = 4096;
constexpr double referenceSampleS = 0.000210;
/** How much more than the samples the simulator slows down. Within a
 *  run its speed went as the samples' to the power ~1 on the reference
 *  host; across runs minutes apart, to a higher power, since its working
 *  set of tens of MB suffers more from neighbours than the samples'
 *  32 KB. 1.25 gave the smallest spread of run medians. */
constexpr double speedExponent = 1.25;
constexpr long samplePeriodNs = 10'000'000;
/** A short interval borrows the main thread's nearest samples up to
 *  this many. */
constexpr std::size_t minSamples = 8;
/** Room for 10 minutes of samples per thread; later ones are dropped. */
constexpr std::size_t maxSamples = 60'000;
/** Threads sampled at most: the main thread plus the sharded kernel's
 *  workers. */
constexpr std::size_t maxLanes = 8;

struct Sample {
    Clock::rep start;
    Clock::rep length;
};

/** One sampled thread; lane 0 is the main thread. */
struct Lane {
    std::atomic<pid_t> tid{0};
    std::atomic<std::size_t> taken{0};
    timer_t timer{};
    std::uint64_t keys[sampleKeys];
    Sample samples[maxSamples];
};

Lane lanes[maxLanes];
std::atomic<std::size_t> laneCount{0};

/** The signal handler: pure computation on the thread's own lane, plus
 *  the clock (no locks, no allocation). */
void
onSample(int)
{
    const int saved_errno = errno;
    const pid_t tid = gettid();
    const std::size_t n = laneCount.load(std::memory_order_acquire);
    for (std::size_t l = 0; l < n; ++l) {
        Lane &lane = lanes[l];
        if (lane.tid.load(std::memory_order_relaxed) != tid)
            continue;
        const Clock::time_point start = Clock::now();
        std::uint64_t x = 5;
        for (std::uint64_t &k : lane.keys) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            k = x;
        }
        std::sort(std::begin(lane.keys), std::end(lane.keys));
        if (lane.keys[0] > lane.keys[sampleKeys - 1])
            std::abort();
        const std::size_t i = lane.taken.load(std::memory_order_relaxed);
        if (i < maxSamples) {
            lane.samples[i] = {start.time_since_epoch().count(),
                               (Clock::now() - start).count()};
            lane.taken.store(i + 1, std::memory_order_release);
        }
        break;
    }
    errno = saved_errno;
}

/** Sample thread `tid` after every samplePeriodNs of its CPU time. A
 *  parked thread burns none, so it takes no samples. */
void
addLane(pid_t tid)
{
    const std::size_t l = laneCount.load(std::memory_order_relaxed);
    if (l == maxLanes)
        return;
    Lane &lane = lanes[l];
    lane.tid.store(tid, std::memory_order_relaxed);
    laneCount.store(l + 1, std::memory_order_release);
    // The thread's CPU-time clock, in the kernel's encoding (the one
    // pthread_getcpuclockid uses; the workers' pthread_t is not ours).
    const clockid_t clock = ((~static_cast<clockid_t>(tid)) << 3) | 6;
    sigevent event{};
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = SIGRTMIN;
    event._sigev_un._tid = tid;
    itimerspec period{};
    period.it_interval.tv_nsec = samplePeriodNs;
    period.it_value = period.it_interval;
    if (timer_create(clock, &event, &lane.timer) != 0 ||
        timer_settime(lane.timer, 0, &period, nullptr) != 0)
        dsp_fatal("host-speed sampler: %s", std::strerror(errno));
}

/** Start sampling the calling thread, the one that runs everything
 *  timed (and shard 0 of the sharded kernel). */
void
start()
{
    struct sigaction action {};
    action.sa_handler = onSample;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGRTMIN, &action, nullptr) != 0)
        dsp_fatal("host-speed sampler: %s", std::strerror(errno));
    addLane(gettid());
}

/** Sample the threads started since the last call (the sharded
 *  kernel's workers, which live as long as the process). */
void
adoptThreads()
{
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return;
    while (const dirent *entry = readdir(dir)) {
        const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
        bool known = tid <= 0;
        for (std::size_t l = 0; l < laneCount.load(); ++l)
            known |= lanes[l].tid.load() == tid;
        if (!known)
            addLane(tid);
    }
    closedir(dir);
}

void
stop()
{
    for (std::size_t l = 0; l < laneCount.load(); ++l)
        timer_delete(lanes[l].timer);
}

/** A timed interval: host seconds without the main thread's samples,
 *  and the host's speed over it relative to the reference host (1 =
 *  reference speed, 0.5 = half as fast). */
struct Interval {
    double seconds = 0.0;
    double speed = 1.0;

    double referenceSeconds() const { return seconds * speed; }
};

Interval
interval(Clock::time_point from, Clock::time_point to)
{
    auto at = [](Clock::time_point t) {
        return [c = t.time_since_epoch().count()](const Sample &s) {
            return s.start < c;
        };
    };
    Interval out;
    out.seconds = seconds(from, to);
    Clock::rep total = 0;
    std::size_t count = 0;
    std::size_t n = laneCount.load(std::memory_order_acquire);
    for (std::size_t l = 0; l < n; ++l) {
        const Lane &lane = lanes[l];
        const Sample *first = lane.samples;
        const Sample *last =
            first + lane.taken.load(std::memory_order_acquire);
        const Sample *lo = std::partition_point(first, last, at(from));
        const Sample *hi = std::partition_point(lo, last, at(to));
        if (l == 0) {
            Clock::duration sampled{0};
            for (const Sample *s = lo; s != hi; ++s)
                sampled += std::min(
                    Clock::duration(s->length),
                    to - Clock::time_point(Clock::duration(s->start)));
            out.seconds -= std::chrono::duration<double>(sampled).count();
            if (static_cast<std::size_t>(hi - lo) < minSamples) {
                while (static_cast<std::size_t>(hi - lo) < minSamples &&
                       (lo != first || hi != last)) {
                    if (lo != first)
                        --lo;
                    if (hi != last &&
                        static_cast<std::size_t>(hi - lo) < minSamples)
                        ++hi;
                }
                n = 1;  // too short for the other threads' samples
            }
        }
        for (const Sample *s = lo; s != hi; ++s)
            total += s->length;
        count += static_cast<std::size_t>(hi - lo);
    }
    if (count == 0)
        return out;
    const double mean = std::chrono::duration<double>(Clock::duration(
                            total / static_cast<Clock::rep>(count)))
                            .count();
    out.speed = std::pow(referenceSampleS / mean, speedExponent);
    return out;
}

double
referenceSeconds(Clock::time_point from, Clock::time_point to)
{
    return interval(from, to).referenceSeconds();
}

} // namespace host

// ---- workloads ------------------------------------------------------------

/** One benchmark workload: a machine, a protocol and a run length. */
struct Spec {
    const char *name;
    const char *preset;  ///< makeWorkload() name
    NodeId nodes;
    ProtocolKind protocol;
    PredictorPolicy policy;
    CpuModel cpu;
    unsigned shards;
    NodeId cluster;  ///< nodes per cluster, 0 = flat crossbar
    unsigned hubs;
    double switchNs;
    /** Functional warmup misses (timing runs) or warmup trace records
     *  (the trace-driven workload). */
    std::uint64_t warmup;
    /** Measured instructions per CPU (timing runs) or measured trace
     *  records (the trace-driven workload). */
    std::uint64_t measure;
    /** Figure 6 replay of an in-memory trace instead of a timing run. */
    bool traceEval;
};

/** How long one run measures, in host seconds. */
constexpr double runSeconds = DSP_BENCH_RUN_SECONDS;

// Sizes give reps of ~1.2-1.8 s on a 4-core Intel Xeon host, so a run
// collects 10-15 set-ups and measured phases: the per-rep spread on
// a shared host is ~10%, and the median of that many reps holds ~2%.
const Spec specs[] = {
    {"mcast16-oltp", "oltp", 16, ProtocolKind::Multicast,
     PredictorPolicy::OwnerGroup, CpuModel::Simple, 1, 0, 1, 0.0, 200000,
     1000000, false},
    {"snoop16-oltp", "oltp", 16, ProtocolKind::Snooping,
     PredictorPolicy::OwnerGroup, CpuModel::Simple, 1, 0, 1, 0.0, 200000,
     1000000, false},
    {"detailed16-barnes", "barnes", 16, ProtocolKind::Multicast,
     PredictorPolicy::OwnerGroup, CpuModel::Detailed, 1, 0, 1, 0.0,
     200000, 4000000, false},
    {"sens16-oltp-trace", "oltp", 16, ProtocolKind::Multicast,
     PredictorPolicy::OwnerGroup, CpuModel::Simple, 1, 0, 1, 0.0, 200000,
     100000, true},
    // Owner, not Owner-Group: the Group predictors alias nodes >= 64
    // onto 0-63, and fixing that must not move this workload.
    {"scale256-oltp-k4", "oltp", 256, ProtocolKind::Multicast,
     PredictorPolicy::Owner, CpuModel::Simple, 4, 16, 4, 15.0, 400000,
     40000, false},
};

/** --smoke divides every run length by this (self-test sizes). */
constexpr std::uint64_t smokeDivisor = 25;

constexpr double workloadScale = 0.25;

/** References the layer probes record after their functional warmup. */
constexpr std::uint64_t probeWindowRefs = 1000000;

SystemParams
systemParams(const Spec &s, unsigned shards)
{
    SystemParams p;
    p.nodes = s.nodes;
    p.protocol = s.protocol;
    p.policy = s.policy;
    p.cpuModel = s.cpu;
    p.shards = shards;
    p.crossbar.topology.cluster_size = s.cluster;
    p.crossbar.topology.hubs = s.hubs;
    p.crossbar.topology.switch_link_ns = s.switchNs;
    p.functionalWarmupMisses = s.warmup;
    p.warmupInstrPerCpu = s.measure / 10;
    p.measureInstrPerCpu = s.measure;
    return p;
}

/** One Figure 6 configuration. */
struct EvalConfig {
    PredictorPolicy policy;
    IndexingMode indexing;
    std::size_t entries;  ///< 0 = unbounded
};

/** The 36 evaluations bench_fig6_sensitivity makes, in its order:
 *  panels (a), (b), (c), then Sticky-Spatial across sizes. */
std::vector<EvalConfig>
figure6Grid()
{
    std::vector<EvalConfig> grid;
    for (PredictorPolicy p : proposedPolicies()) {
        grid.push_back({p, IndexingMode::Block64, 0});
        grid.push_back({p, IndexingMode::ProgramCounter, 0});
    }
    for (PredictorPolicy p : proposedPolicies()) {
        grid.push_back({p, IndexingMode::Block64, 0});
        grid.push_back({p, IndexingMode::Macroblock256, 0});
        grid.push_back({p, IndexingMode::Macroblock1024, 0});
    }
    for (PredictorPolicy p : proposedPolicies()) {
        grid.push_back({p, IndexingMode::Macroblock1024, 0});
        grid.push_back({p, IndexingMode::Macroblock1024, 32768});
        grid.push_back({p, IndexingMode::Macroblock1024, 8192});
    }
    for (std::size_t entries : {4096ul, 8192ul, 32768ul, 0ul})
        grid.push_back({PredictorPolicy::StickySpatial,
                        IndexingMode::Block64, entries});
    return grid;
}

// ---- spans ----------------------------------------------------------------

/**
 * Stopwatch and span recorder in one: begin()/end() always time the
 * interval (the runner's set-up metrics come from them); while
 * recording, each span is also kept in memory -- name, start, end,
 * parent -- and written once, at exit, in Chrome trace-event format.
 */
class Tracer
{
  public:
    explicit Tracer(bool recording)
        : recording_(recording), origin_(Clock::now())
    {
    }

    void setRecording(bool on) { recording_ = on; }

    /** Open a span inside the innermost open one. */
    std::size_t
    begin(const char *name)
    {
        long long slot = -1;
        if (recording_) {
            slot = static_cast<long long>(kept_.size());
            kept_.push_back({name, 0.0, 0.0, parent()});
        }
        open_.push_back({Clock::now(), slot});
        return open_.size() - 1;
    }

    /** Close the innermost span (which `id` must be); returns its
     *  length in reference-host seconds. */
    double
    end(std::size_t id)
    {
        if (id + 1 != open_.size())
            dsp_fatal("span %zu closed out of order", id);
        Open span = open_.back();
        open_.pop_back();
        Clock::time_point now = Clock::now();
        if (span.slot >= 0) {
            kept_[span.slot].startUs = micros(span.start);
            kept_[span.slot].endUs = micros(now);
        }
        return host::referenceSeconds(span.start, now);
    }

    /** Record an already-timed span inside the innermost open one. */
    void
    add(const char *name, Clock::time_point start, Clock::time_point end)
    {
        if (recording_)
            kept_.push_back({name, micros(start), micros(end), parent()});
    }

    /** Write the kept spans; every span carries `run_id`. */
    bool
    write(const std::string &path, const std::string &run_id) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (std::size_t i = 0; i < kept_.size(); ++i) {
            const Kept &k = kept_[i];
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"cat\": \"dsp\", "
                         "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                         "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                         "{\"run\": \"%s\", \"span\": %zu, "
                         "\"parent\": %lld}}",
                         i ? "," : "", k.name, k.startUs,
                         k.endUs - k.startUs, run_id.c_str(), i,
                         k.parent);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Open {
        Clock::time_point start;
        long long slot;  ///< index in kept_, -1 = not recorded
    };

    struct Kept {
        const char *name;
        double startUs;
        double endUs;
        long long parent;  ///< index in kept_, -1 = root
    };

    double
    micros(Clock::time_point t) const
    {
        return seconds(origin_, t) * 1e6;
    }

    long long
    parent() const
    {
        for (auto it = open_.rbegin(); it != open_.rend(); ++it)
            if (it->slot >= 0)
                return it->slot;
        return -1;
    }

    bool recording_;
    Clock::time_point origin_;
    std::vector<Open> open_;
    std::vector<Kept> kept_;
};

// ---- fingerprints ---------------------------------------------------------

/** FNV-1a over the bytes of a sequence of 64-bit values. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** The figure statistics of a timing run. SystemStats::instructions is
 *  left out: System::run sets it to nodes x the configured target
 *  rather than counting retirements, so it cannot differ. */
std::uint64_t
fingerprint(const SystemStats &s)
{
    Fnv f;
    for (std::uint64_t v :
         {s.misses, s.retries, s.upgrades, s.cacheToCache,
          s.trafficBytes, s.runtimeTicks, s.cacheAccesses, s.l0Hits})
        f.add(v);
    f.add(s.avgMissLatencyNs);
    return f.value();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

// ---- reps -----------------------------------------------------------------

/** One set-up plus measured phase, and its gate verdict. */
struct Rep {
    host::Interval setup;    ///< makeWorkload up to the measured phase
    host::Interval measure;  ///< the measured phase
    // Set-up spans, reference-host seconds.
    double workloadS = 0.0;  ///< makeWorkload
    double systemS = 0.0;    ///< System / TraceCollector construction
    double warmupS = 0.0;    ///< functional + timing warmup
    double collectS = 0.0;   ///< in-memory trace collection
    /** Simulated misses completed (timing) or records x configs
     *  evaluated (trace-driven) in the measured phase. */
    std::uint64_t work = 0;
    std::uint64_t fingerprint = 0;
    std::string failure;     ///< empty = passed the gate
    /** Counts toward the end-to-end medians (the warm-up and traced
     *  reps do not). */
    bool sample = true;

    /** Set-up time in host seconds, as measured. */
    double rawSetupS() const { return setup.seconds; }
    double rawMissesPerS() const { return perSecond(measure.seconds); }

    /** Set-up time in reference-host seconds. */
    double setupS() const { return setup.referenceSeconds(); }
    /** Work per reference-host second of the measured phase. */
    double
    missesPerS() const
    {
        return perSecond(measure.referenceSeconds());
    }

  private:
    double
    perSecond(double s) const
    {
        return s > 0.0 ? static_cast<double>(work) / s : 0.0;
    }
};

/** Counters a timing rep leaves behind for the per-layer report. */
struct TimingCounts {
    SystemStats stats;
    std::vector<std::uint64_t> consumed;  ///< per-processor references
    std::uint64_t payloads = 0;    ///< pooled message payloads
    std::uint64_t sharedRefs = 0;  ///< payload refs shared, not copied
};

/** Counters the trace-driven rep leaves behind. */
struct EvalCounts {
    std::vector<std::uint64_t> consumed;
    std::uint64_t records = 0;  ///< trace records, warmup included
    std::uint64_t accesses = 0;
    std::uint64_t l0Hits = 0;
    EvalResult headline;  ///< Owner-Group, 1024 B macroblocks, 8192
};

std::string
poolFailure()
{
    if (eventPoolStats().live() != 0)
        return "event pool live != 0 after teardown";
    if (MessageRef::stats().live() != 0)
        return "message pool live != 0 after teardown";
    return "";
}

/** One timing rep at `shards` host threads (and `measure` instructions
 *  per CPU; 0 = the workload's own). */
Rep
timingRep(const Spec &s, std::uint64_t seed, unsigned shards,
          Tracer &tr, TimingCounts *out = nullptr,
          std::uint64_t measure = 0)
{
    Rep rep;
    SystemParams params = systemParams(s, shards);
    if (measure != 0)
        params.measureInstrPerCpu = measure;
    const MessagePoolStats msgs_before = MessageRef::stats();

    const Clock::time_point setup_start = Clock::now();
    std::size_t span = tr.begin("setup.workload");
    auto workload = makeWorkload(s.preset, s.nodes, seed, workloadScale);
    rep.workloadS = tr.end(span);

    SystemStats stats;
    {
        span = tr.begin("setup.system");
        System system(*workload, params);
        rep.systemS = tr.end(span);

        span = tr.begin("system.run");
        Clock::time_point start = Clock::now();
        stats = system.run();
        Clock::time_point end = Clock::now();
        const Clock::time_point measure_start =
            end - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(stats.wallSeconds));
        tr.add("setup.warmup", start, measure_start);
        tr.add("measure", measure_start, end);
        tr.end(span);
        host::adoptThreads();
        rep.warmupS = host::referenceSeconds(start, measure_start);
        rep.setup = host::interval(setup_start, measure_start);
        rep.measure = host::interval(measure_start, end);
    }

    rep.work = stats.misses;
    rep.fingerprint = fingerprint(stats);
    // No public call reports per-CPU retired instructions, so the
    // instruction count is not checked here.
    // A shortened measured phase (the traced run's one-instruction
    // baseline) may legitimately complete no misses on some seeds.
    if (stats.stoppedEarly)
        rep.failure = "stopped early";
    else if (stats.misses == 0 && measure == 0)
        rep.failure = "no misses";
    else
        rep.failure = poolFailure();

    if (out != nullptr) {
        const MessagePoolStats msgs = MessageRef::stats();
        out->stats = stats;
        out->consumed.assign(s.nodes, 0);
        for (NodeId p = 0; p < s.nodes; ++p)
            out->consumed[p] = workload->consumed(p);
        out->payloads = msgs.acquires - msgs_before.acquires;
        out->sharedRefs = msgs.refsShared - msgs_before.refsShared;
    }
    return rep;
}

/** One trace-driven rep: collect the trace in memory (set-up), then
 *  replay the Figure 6 grid through PredictorEvaluator (measured). */
Rep
evalRep(const Spec &s, std::uint64_t seed, Tracer &tr,
        EvalCounts *out = nullptr)
{
    Rep rep;
    const Clock::time_point setup_start = Clock::now();
    std::size_t span = tr.begin("setup.workload");
    auto workload = makeWorkload(s.preset, s.nodes, seed, workloadScale);
    rep.workloadS = tr.end(span);

    span = tr.begin("setup.system");
    auto collector = std::make_unique<TraceCollector>(*workload);
    rep.systemS = tr.end(span);

    span = tr.begin("setup.collect");
    Trace trace = collector->collect(s.warmup, s.measure);
    rep.collectS = tr.end(span);

    const std::vector<EvalConfig> grid = figure6Grid();
    PredictorEvaluator evaluator(s.nodes);
    std::vector<EvalResult> results;
    const Clock::time_point measure_start = Clock::now();
    span = tr.begin("measure");
    for (const EvalConfig &c : grid) {
        PredictorConfig config;
        config.numNodes = s.nodes;
        config.indexing = c.indexing;
        config.entries = c.entries;
        std::size_t one = tr.begin("evaluatePredictor");
        results.push_back(
            evaluator.evaluatePredictor(trace, c.policy, config));
        tr.end(one);
    }
    tr.end(span);
    rep.setup = host::interval(setup_start, measure_start);
    rep.measure = host::interval(measure_start, Clock::now());
    rep.work = trace.measuredRecords() * grid.size();

    Fnv f;
    f.add(std::uint64_t{trace.size()});
    f.add(trace.totalInstructions);
    for (const EvalResult &r : results) {
        f.add(r.misses);
        for (double v : {r.requestMessagesPerMiss, r.indirectionPct,
                         r.retriesPerMiss, r.trafficBytesPerMiss,
                         r.cacheToCachePct, r.predictedSetSize})
            f.add(v);
    }
    rep.fingerprint = f.value();
    if (trace.size() != s.warmup + s.measure ||
        trace.measuredRecords() == 0)
        rep.failure = "trace shorter than warmup + measure";

    if (out != nullptr) {
        out->consumed.assign(s.nodes, 0);
        for (NodeId p = 0; p < s.nodes; ++p) {
            out->consumed[p] = workload->consumed(p);
            out->accesses += collector->caches(p).accesses();
            out->l0Hits += collector->caches(p).l0Hits();
        }
        out->records = trace.size();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            if (grid[i].policy == PredictorPolicy::OwnerGroup &&
                grid[i].indexing == IndexingMode::Macroblock1024 &&
                grid[i].entries == 8192) {
                out->headline = results[i];
                break;
            }
        }
    }
    return rep;
}

// ---- layer probes ---------------------------------------------------------

/** One L2 miss of the probe window: the serialized transaction, the
 *  requester's prediction, and the eviction its fill caused. */
struct MissRecord {
    Addr addr = 0;
    Addr pc = 0;
    NodeId requester = 0;
    RequestType type = RequestType::GetShared;
    DestinationSet required;
    DestinationSet predicted;
    NodeId responder = invalidNode;
    bool evicted = false;
    bool victimOwned = false;
    BlockId victim = 0;
};

/** One NodeCaches call of the probe window. */
struct CacheOp {
    enum class Kind : std::uint8_t { Access, Fill, Invalidate, Downgrade };
    Kind kind = Kind::Access;
    bool write = false;
    MosiState state = MosiState::Invalid;  ///< Fill: granted state
    CoherenceNeed need = CoherenceNeed::None;  ///< Access: live result
    NodeId node = 0;
    Addr addr = 0;
    /** Access: the processor's next buffered reference (0 = none), the
     *  hint CPU models pass so the next L2 set is warmed early. */
    Addr nextHint = 0;
};

/** The predictor training one miss causes, as System::functionalWarmup
 *  performs it; returns the number of training calls. */
unsigned
trainMiss(std::vector<std::unique_ptr<Predictor>> &preds, Addr addr,
          Addr pc, RequestType type, NodeId p,
          const DestinationSet &required, const DestinationSet &predicted,
          NodeId responder)
{
    unsigned calls = 0;
    if (!predicted.containsAll(required)) {
        preds[p]->trainRetry(addr, pc, required);
        ++calls;
    }
    if (responder != p) {
        preds[p]->trainResponse(addr, pc, responder, !required.empty());
        ++calls;
    }
    (predicted | required).forEach([&](NodeId q) {
        if (q != p) {
            preds[q]->trainExternalRequest(addr, pc, type, p);
            ++calls;
        }
    });
    return calls;
}

/**
 * The probes' input: a functional pass over the workload (the
 * least-advanced-processor interleaving System::functionalWarmup and
 * TraceCollector use) that warms caches, tracker and predictors, then
 * records a window of cache calls and misses. A second ("mirror") set
 * of caches and predictors receives the same calls during the warmup,
 * so each probe replays the window from exactly the warm state the
 * live pass had. The pass keeps its own records rather than running
 * TraceCollector because trace records hold 64-node masks.
 */
class ProbeInput
{
  public:
    ProbeInput(const Spec &s, std::uint64_t seed)
        : spec_(s),
          workload_(makeWorkload(s.preset, s.nodes, seed, workloadScale)),
          tracker_(s.nodes),
          icount_(s.nodes, 0)
    {
        PredictorConfig config;
        config.numNodes = s.nodes;
        live_.reserve(s.nodes);
        mirror.reserve(s.nodes);
        for (NodeId n = 0; n < s.nodes; ++n) {
            live_.emplace_back();
            mirror.emplace_back();
        }
        livePred_ = makePredictorsPerNode(s.policy, config);
        mirrorPred = makePredictorsPerNode(s.policy, config);
    }

    void
    run(std::uint64_t warmup_misses, std::uint64_t window_refs)
    {
        std::uint64_t misses = 0;
        while (misses < warmup_misses)
            misses += step(false);
        trackerAtWindow = tracker_;
        for (std::uint64_t i = 0; i < window_refs; ++i)
            step(true);
    }

    /** Where the probes send a miss: everyone under snooping, else
     *  the prediction. */
    DestinationSet
    dests(const MissRecord &m) const
    {
        return spec_.protocol == ProtocolKind::Snooping
                   ? DestinationSet::all(spec_.nodes)
                   : m.predicted;
    }

    const Workload &workload() const { return *workload_; }

    std::vector<MissRecord> misses;
    std::vector<CacheOp> ops;
    SharingTracker trackerAtWindow{1};
    std::vector<NodeCaches> mirror;
    std::vector<std::unique_ptr<Predictor>> mirrorPred;

  private:
    /** One reference; returns 1 on an L2 miss. Outside the window
     *  every cache and predictor call is made on the mirror too. */
    unsigned
    step(bool window)
    {
        NodeId p = 0;
        for (NodeId n = 1; n < spec_.nodes; ++n)
            if (icount_[n] < icount_[p])
                p = n;
        MemRef ref = workload_->next(p);
        icount_[p] += ref.work + 1;
        const MemRef *upcoming = workload_->peek(p);

        NodeCaches::StagedAccess sa =
            live_[p].probeAccess(ref.addr, ref.write);
        live_[p].commitAccess(sa);
        NodeCaches::FillHandle mirror_handle;
        if (window) {
            ops.push_back({CacheOp::Kind::Access, ref.write,
                           MosiState::Invalid, sa.result.need, p,
                           ref.addr, upcoming ? upcoming->addr : 0});
        } else {
            NodeCaches::StagedAccess msa =
                mirror[p].probeAccess(ref.addr, ref.write);
            mirror[p].commitAccess(msa);
            mirror_handle = msa.fillHandle();
        }
        if (sa.result.need == CoherenceNeed::None)
            return 0;

        RequestType type = sa.result.need == CoherenceNeed::GetExclusive
                               ? RequestType::GetExclusive
                               : RequestType::GetShared;
        BlockId block = blockOf(ref.addr);
        SharingTracker::Transaction txn = tracker_.apply(block, p, type);

        auto peer = [&](CacheOp::Kind kind, NodeId q) {
            for (std::vector<NodeCaches> *set : {&live_, &mirror}) {
                if (set == &mirror && window)
                    break;
                NodeCaches &c = (*set)[q];
                c.l0Invalidate(block);
                if (kind == CacheOp::Kind::Downgrade)
                    c.downgrade(block);
                else
                    c.invalidate(block);
            }
            if (window)
                ops.push_back({kind, false, MosiState::Invalid,
                               CoherenceNeed::None, q, ref.addr, 0});
        };
        if (type == RequestType::GetShared) {
            if (txn.cacheToCache)
                peer(CacheOp::Kind::Downgrade, txn.responder);
        } else {
            txn.required.forEach(
                [&](NodeId q) { peer(CacheOp::Kind::Invalidate, q); });
        }

        NodeCaches::FillHandle handle = sa.fillHandle();
        NodeCaches::FillResult fill =
            live_[p].fill(ref.addr, txn.grantedState, &handle);
        if (window) {
            ops.push_back({CacheOp::Kind::Fill, false, txn.grantedState,
                           CoherenceNeed::None, p, ref.addr, 0});
        } else {
            mirror[p].fill(ref.addr, txn.grantedState, &mirror_handle);
        }
        bool evicted = fill.evicted &&
                       fill.victimState != MosiState::Invalid;
        bool victim_owned = isOwnerState(fill.victimState);
        if (evicted && victim_owned)
            tracker_.evictOwned(fill.victim, p);
        else if (evicted)
            tracker_.evictShared(fill.victim, p);

        NodeId home = homeOf(block, spec_.nodes);
        DestinationSet predicted =
            livePred_[p]->predict(ref.addr, ref.pc, type, p, home);
        for (auto *preds : {&livePred_, &mirrorPred}) {
            if (preds == &mirrorPred && window)
                break;
            if (preds == &mirrorPred)
                (*preds)[p]->predict(ref.addr, ref.pc, type, p, home);
            trainMiss(*preds, ref.addr, ref.pc, type, p, txn.required,
                      predicted, txn.responder);
        }

        if (window) {
            MissRecord m;
            m.addr = ref.addr;
            m.pc = ref.pc;
            m.requester = p;
            m.type = type;
            m.required = txn.required;
            m.predicted = predicted;
            m.responder = txn.responder;
            m.evicted = evicted;
            m.victimOwned = victim_owned;
            m.victim = fill.victim;
            misses.push_back(m);
        }
        return 1;
    }

  private:
    const Spec &spec_;
    std::unique_ptr<Workload> workload_;
    SharingTracker tracker_;
    std::vector<std::uint64_t> icount_;
    std::vector<NodeCaches> live_;
    std::vector<std::unique_ptr<Predictor>> livePred_;
};

/** Probe results, reference-host nanoseconds per operation. */
struct Probes {
    double nsPerEvent = 0.0;
    double nsPerDelivery = 0.0;
    double nsPerAccess = 0.0;
    double nsPerApply = 0.0;
    double nsPerPredict = 0.0;
    double nsPerTrain = 0.0;
    double trainsPerMiss = 0.0;  ///< training calls per miss (count)
    double nsPerInstr = 0.0;
    double nsPerRef = 0.0;
    std::string failure;
};

/** NodeCaches::access + fill (and the peer invalidations between
 *  them) over the recorded window, on the mirror caches, with the
 *  next-reference prefetch hint the cache controller issues. */
double
probeMem(ProbeInput &in, std::string &failure)
{
    std::vector<NodeCaches::FillHandle> handles(in.mirror.size());
    std::uint64_t accesses = 0;
    bool diverged = false;
    Clock::time_point start = Clock::now();
    for (const CacheOp &op : in.ops) {
        NodeCaches &c = in.mirror[op.node];
        BlockId block = blockOf(op.addr);
        switch (op.kind) {
          case CacheOp::Kind::Access: {
            if (op.nextHint != 0)
                c.prefetchSets(blockOf(op.nextHint));
            NodeCaches::StagedAccess sa = c.probeAccess(op.addr, op.write);
            c.commitAccess(sa);
            diverged |= sa.result.need != op.need;
            handles[op.node] = sa.fillHandle();
            ++accesses;
            break;
          }
          case CacheOp::Kind::Fill:
            c.fill(op.addr, op.state, &handles[op.node]);
            break;
          case CacheOp::Kind::Invalidate:
            c.l0Invalidate(block);
            c.invalidate(block);
            break;
          case CacheOp::Kind::Downgrade:
            c.l0Invalidate(block);
            c.downgrade(block);
            break;
        }
    }
    double spent = host::referenceSeconds(start, Clock::now());
    if (diverged)
        failure = "mem probe: replayed accesses diverged from the pass";
    return accesses ? spent * 1e9 / static_cast<double>(accesses) : 0.0;
}

/** SharingTracker::applyIfSufficient over the window's misses with the
 *  workload's destination sets, retrying insufficient ones with the
 *  required set added (as the protocol's retry does). */
double
probeCoherence(ProbeInput &in, std::string &failure)
{
    SharingTracker &tracker = in.trackerAtWindow;
    std::uint64_t applies = 0;
    bool diverged = false;
    Clock::time_point start = Clock::now();
    for (const MissRecord &m : in.misses) {
        BlockId block = blockOf(m.addr);
        DestinationSet dests = in.dests(m);
        bool sufficient = false;
        SharingTracker::Transaction txn = tracker.applyIfSufficient(
            block, m.requester, m.type, dests, sufficient);
        ++applies;
        if (!sufficient) {
            txn = tracker.applyIfSufficient(block, m.requester, m.type,
                                            dests | m.required,
                                            sufficient);
            ++applies;
        }
        diverged |= !sufficient || txn.responder != m.responder;
        if (m.evicted && m.victimOwned)
            tracker.evictOwned(m.victim, m.requester);
        else if (m.evicted)
            tracker.evictShared(m.victim, m.requester);
    }
    double spent = host::referenceSeconds(start, Clock::now());
    if (diverged)
        failure = "coherence probe: replay diverged from the pass";
    return applies ? spent * 1e9 / static_cast<double>(applies) : 0.0;
}

/** Predictor::predict over the window, then the training calls, on
 *  the mirror predictors. */
void
probeCore(ProbeInput &in, NodeId nodes, Probes &out)
{
    std::uint64_t sink = 0;
    Clock::time_point start = Clock::now();
    for (const MissRecord &m : in.misses) {
        sink += in.mirrorPred[m.requester]
                    ->predict(m.addr, m.pc, m.type, m.requester,
                              homeOf(blockOf(m.addr), nodes))
                    .count();
    }
    double predict = host::referenceSeconds(start, Clock::now());

    std::uint64_t calls = 0;
    start = Clock::now();
    for (const MissRecord &m : in.misses) {
        calls += trainMiss(in.mirrorPred, m.addr, m.pc, m.type,
                           m.requester, m.required, m.predicted,
                           m.responder);
    }
    double train = host::referenceSeconds(start, Clock::now());

    double n = static_cast<double>(in.misses.size());
    if (sink == 0 || calls == 0 || n == 0.0)
        out.failure = "core probe: no predictions or training calls";
    out.nsPerPredict = n > 0.0 ? predict * 1e9 / n : 0.0;
    out.nsPerTrain =
        calls ? train * 1e9 / static_cast<double>(calls) : 0.0;
    out.trainsPerMiss = n > 0.0 ? static_cast<double>(calls) / n : 0.0;
}

/** A standalone OrderedCrossbar on one EventQueue: each window miss
 *  sends its ordered request to the workload's destination set and
 *  its data response point to point, one machine's worth of misses in
 *  flight at a time. */
double
probeInterconnect(const ProbeInput &in, const Spec &s)
{
    EventQueue queue;
    CrossbarParams params = systemParams(s, 1).crossbar;
    OrderedCrossbar xbar(queue, s.nodes, params);
    std::uint64_t deliveries = 0;
    xbar.setOrderHandler([](const MessageRef &, Tick) {});
    xbar.setDeliverHandler(
        [&deliveries](const Message &, NodeId, Tick) { ++deliveries; });

    Clock::time_point start = Clock::now();
    std::uint64_t sent = 0;
    for (const MissRecord &m : in.misses) {
        Message req;
        req.kind = MessageKind::Request;
        req.txn = sent;
        req.addr = m.addr;
        req.pc = m.pc;
        req.type = m.type;
        req.src = m.requester;
        req.dests = in.dests(m);
        xbar.sendOrdered(std::move(req));
        if (m.responder != m.requester) {
            Message data;
            data.kind = MessageKind::Data;
            data.txn = sent;
            data.addr = m.addr;
            data.src = m.responder == invalidNode
                           ? homeOf(blockOf(m.addr), s.nodes)
                           : m.responder;
            data.dest = m.requester;
            if (data.src != data.dest)
                xbar.sendDirect(std::move(data));
        }
        if (++sent % s.nodes == 0)
            queue.run();
    }
    queue.run();
    double spent = host::referenceSeconds(start, Clock::now());
    return deliveries ? spent * 1e9 / static_cast<double>(deliveries)
                      : 0.0;
}

/** Self-perpetuating pooled events on a bare EventQueue: one chain per
 *  node, each hop rescheduling the next after a delay drawn in turn
 *  from the machine's hop latencies. */
struct Hop {
    EventQueue *queue;
    const std::vector<Tick> *delays;
    std::uint64_t *left;
    std::size_t turn;

    void
    operator()()
    {
        if (*left == 0)
            return;
        --*left;
        Tick delay = (*delays)[turn % delays->size()];
        queue->schedule(queue->now() + delay,
                        Hop{queue, delays, left, turn + 1},
                        EventPriority::Controller);
    }
};

double
probeKernel(const Spec &s, std::uint64_t events)
{
    SystemParams p = systemParams(s, 1);
    Topology topo(s.nodes, p.crossbar.topology, p.crossbar.traversal_ns);
    NodeId far = s.nodes - 1;
    const std::vector<Tick> delays = {
        topo.hubHop(),         topo.hubHop(),
        nsToTicks(p.latency.l2_ns), topo.directHop(0, far),
        topo.directHop(0, 1),  nsToTicks(p.latency.memory_ns)};
    EventQueue queue;
    std::uint64_t left = events;
    for (NodeId n = 0; n < s.nodes; ++n)
        queue.schedule(Tick{n}, Hop{&queue, &delays, &left, n},
                       EventPriority::Controller);
    Clock::time_point start = Clock::now();
    queue.run();
    double spent = host::referenceSeconds(start, Clock::now());
    return spent * 1e9 / static_cast<double>(queue.executed());
}

/** A memory port that answers every access as an L1 hit. */
class HitPort : public MemoryPort
{
  public:
    AccessReply
    access(Addr, Addr, bool, Tick, const Completion &, Addr) override
    {
        return AccessReply::L1Hit;
    }
};

/** The workload's CPU model on a bare EventQueue behind a port that
 *  always hits, fed by a one-region workload with the same mean work
 *  per reference (the CPU tests' set-up). */
double
probeCpu(const Spec &s, const Workload &real, std::uint64_t seed,
         std::uint64_t instr_per_cpu)
{
    const NodeId cpus = std::min<NodeId>(s.nodes, 16);
    Workload flat("cpu-probe", cpus, real.meanWork(), seed);
    Region::Params region;
    region.name = "flat";
    region.base = 0x1000000;
    region.bytes = 1 << 20;
    region.pcSites = 16;
    flat.addRegion(std::make_unique<ReadMostlyRegion>(
                       region, cpus,
                       ReadMostlyRegion::Config{1024, 1.0, 0.0}),
                   1.0);

    EventQueue queue;
    HitPort port;
    std::vector<std::unique_ptr<Cpu>> models;
    for (NodeId n = 0; n < cpus; ++n) {
        if (s.cpu == CpuModel::Simple)
            models.push_back(
                std::make_unique<SimpleCpu>(queue, flat, n, port));
        else
            models.push_back(
                std::make_unique<DetailedCpu>(queue, flat, n, port));
    }
    Clock::time_point start = Clock::now();
    for (auto &cpu : models)
        cpu->runFor(instr_per_cpu, [] {});
    queue.run();
    double spent = host::referenceSeconds(start, Clock::now());
    std::uint64_t retired = 0;
    for (auto &cpu : models)
        retired += cpu->retired();
    return spent * 1e9 / static_cast<double>(retired);
}

/** Workload::next for the references the traced rep consumed per
 *  processor, from a fresh workload with the same seed (scaled down
 *  proportionally to at most `cap` references in total). */
double
probeWorkload(const Spec &s, std::uint64_t seed,
              const std::vector<std::uint64_t> &consumed,
              std::uint64_t cap)
{
    std::uint64_t total = 0;
    for (std::uint64_t c : consumed)
        total += c;
    double keep = total > cap ? static_cast<double>(cap) /
                                    static_cast<double>(total)
                              : 1.0;
    auto workload = makeWorkload(s.preset, s.nodes, seed, workloadScale);
    std::uint64_t sink = 0;
    std::uint64_t refs = 0;
    Clock::time_point start = Clock::now();
    for (NodeId p = 0; p < s.nodes; ++p) {
        auto n = static_cast<std::uint64_t>(
            static_cast<double>(consumed[p]) * keep);
        for (std::uint64_t i = 0; i < n; ++i)
            sink += workload->next(p).addr;
        refs += n;
    }
    double spent = host::referenceSeconds(start, Clock::now());
    if (sink == 0)
        return 0.0;
    return refs ? spent * 1e9 / static_cast<double>(refs) : 0.0;
}

// ---- reporting ------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
    const char *kind;  ///< "count", "probe" or "span" (per-layer)
    /** False where the metric's layer does not run on the workload: the
     *  results file leaves it out and the result line shows 0. */
    bool applies = true;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

/** JSON string body (the names and messages here are plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The result line's metrics object (every metric, 0 where it does not
 *  apply), or with `results_file` the results file's (only the metrics
 *  that apply, with their kind). */
std::string
metricsObject(const std::vector<Metric> &metrics, bool results_file)
{
    std::string out = "{";
    for (const Metric &m : metrics) {
        if (results_file && !m.applies)
            continue;
        out += (out.size() > 1 ? ", " : "") + quoted(m.name) +
               ": {\"value\": " + number(m.applies ? m.value : 0.0) +
               ", \"unit\": " + quoted(m.unit);
        if (results_file)
            out += std::string(", \"kind\": ") + quoted(m.kind);
        out += "}";
    }
    return out + "}";
}

std::string
numberList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + number(v[i]);
    return out + "]";
}

// ---- the run --------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    unsigned reps = 0;  ///< 0 = as many as fit in runSeconds
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string traceOut = "trace.json";
    std::string expectFingerprint;
    std::string gitRev = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dsp_bench: %s\n"
                 "usage: dsp_bench --workload W [--seed S] "
                 "[--trace 0|1] [--reps N] [--smoke] [--out FILE] "
                 "[--trace-out FILE] [--expect-fingerprint HEX] "
                 "[--git-rev REV] | --list\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = next();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--reps") {
            o.reps = static_cast<unsigned>(std::atoi(next().c_str()));
        } else if (arg == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--out") {
            o.out = next();
        } else if (arg == "--trace-out") {
            o.traceOut = next();
        } else if (arg == "--expect-fingerprint") {
            o.expectFingerprint = next();
        } else if (arg == "--git-rev") {
            o.gitRev = next();
        } else if (arg == "--list") {
            for (const Spec &s : specs)
                std::printf("%s\n", s.name);
            std::exit(0);
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Everything one workload run measured. */
struct Result {
    std::vector<Rep> reps;
    std::vector<std::string> failures;
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    std::string k1Fingerprint;
};

/** A warm-up rep, then timed reps until `budget` seconds are spent (or
 *  exactly `o.reps` of them), at least `min_reps`. The warm-up rep is
 *  gated but not a sample: it takes the process's first page faults and
 *  starts the sharded kernel's threads, which the sampler then adopts. */
std::vector<Rep>
timedReps(const Spec &s, const Options &o, double budget,
          unsigned min_reps, Tracer &tr)
{
    auto one = [&] {
        return s.traceEval ? evalRep(s, o.seed, tr)
                           : timingRep(s, o.seed, s.shards, tr);
    };
    Clock::time_point start = Clock::now();
    std::vector<Rep> reps = {one()};
    reps[0].sample = false;
    const unsigned wanted = o.reps != 0 ? o.reps : min_reps;
    for (;;) {
        reps.push_back(one());
        const std::size_t timed = reps.size() - 1;
        if (o.reps != 0 || timed < wanted) {
            if (timed >= wanted)
                break;
            continue;
        }
        double elapsed = seconds(start, Clock::now());
        double per_rep = elapsed / static_cast<double>(reps.size());
        // Stop when another rep would end (on average) past the budget.
        if (elapsed + per_rep / 2 > budget)
            break;
    }
    return reps;
}

/** Per-layer metrics of the traced rep and the probes. */
std::vector<Metric>
layerMetrics(const Spec &s, const Rep &traced,
             const TimingCounts *timing, const TimingCounts *baseline,
             const EvalCounts *eval, const Probes &pr,
             double shard_speedup, double untraced_mps, double slab_mb)
{
    auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    std::vector<Metric> m;
    double attributed = 0.0;
    double ns_per_record_eval = 0.0;  // trace-driven workload only

    if (timing != nullptr) {
        const SystemStats &st = timing->stats;
        double misses = static_cast<double>(st.misses);
        double payloads = static_cast<double>(timing->payloads -
                                              baseline->payloads);
        double shared = static_cast<double>(timing->sharedRefs -
                                            baseline->sharedRefs);
        double refs = 0.0;
        for (NodeId p = 0; p < s.nodes; ++p)
            refs += static_cast<double>(timing->consumed[p] -
                                        baseline->consumed[p]);
        bool multicast = s.protocol == ProtocolKind::Multicast;
        double events = static_cast<double>(st.eventsExecuted);
        m = {
            {"sim.events_per_miss", per(events, misses), "events/miss",
             "count"},
            {"sim.calendar_ops_per_miss", st.calendarOpsPerMiss(),
             "ops/miss", "count"},
            {"sim.events_per_window",
             per(events, static_cast<double>(st.windowsRun)),
             "events/window", "count"},
            {"sim.crossings_per_window",
             per(static_cast<double>(st.barrierCrossings),
                 static_cast<double>(st.windowsRun)),
             "crossings/window", "count"},
            {"interconnect.payloads_per_miss", per(payloads, misses),
             "payloads/miss", "count"},
            {"interconnect.shared_refs_per_miss", per(shared, misses),
             "refs/miss", "count"},
            {"interconnect.traffic_bytes_per_miss", st.trafficPerMiss(),
             "B/miss", "count"},
            {"mem.accesses_per_miss",
             per(static_cast<double>(st.cacheAccesses), misses),
             "accesses/miss", "count"},
            {"mem.l0_hit_rate", st.l0HitRate(), "frac", "count"},
            {"mem.prefetches_per_miss",
             per(static_cast<double>(st.prefetchIssued), misses),
             "prefetches/miss", "count"},
            {"coherence.retries_per_miss",
             per(static_cast<double>(st.retries), misses),
             "retries/miss", "count"},
            {"core.first_try_rate",
             1.0 - per(static_cast<double>(st.indirections), misses),
             "frac", "count"},
            {"workload.refs_per_miss", per(refs, misses), "refs/miss",
             "count"},
        };
        double ns = events * pr.nsPerEvent +
                    (payloads + shared) * pr.nsPerDelivery +
                    static_cast<double>(st.cacheAccesses) * pr.nsPerAccess +
                    (misses + static_cast<double>(st.retries)) *
                        pr.nsPerApply +
                    static_cast<double>(st.instructions) * pr.nsPerInstr +
                    refs * pr.nsPerRef;
        if (multicast)
            ns += misses * (pr.nsPerPredict +
                            pr.trainsPerMiss * pr.nsPerTrain);
        attributed = per(ns * 1e-9, traced.measure.referenceSeconds());
    } else {
        // The trace-driven workload runs no event kernel, interconnect,
        // prefetcher or CPU model.
        const EvalResult &h = eval->headline;
        double refs = 0.0;
        for (std::uint64_t c : eval->consumed)
            refs += static_cast<double>(c);
        double records = static_cast<double>(eval->records);
        m = {
            {"sim.events_per_miss", 0.0, "events/miss", "count", false},
            {"sim.calendar_ops_per_miss", 0.0, "ops/miss", "count", false},
            {"sim.events_per_window", 0.0, "events/window", "count",
             false},
            {"sim.crossings_per_window", 0.0, "crossings/window", "count",
             false},
            {"interconnect.payloads_per_miss", 0.0, "payloads/miss",
             "count", false},
            {"interconnect.shared_refs_per_miss", 0.0, "refs/miss",
             "count", false},
            {"interconnect.traffic_bytes_per_miss", h.trafficBytesPerMiss,
             "B/miss", "count"},
            {"mem.accesses_per_miss",
             per(static_cast<double>(eval->accesses), records),
             "accesses/miss", "count"},
            {"mem.l0_hit_rate",
             per(static_cast<double>(eval->l0Hits),
                 static_cast<double>(eval->accesses)),
             "frac", "count"},
            {"mem.prefetches_per_miss", 0.0, "prefetches/miss", "count",
             false},
            {"coherence.retries_per_miss", h.retriesPerMiss,
             "retries/miss", "count"},
            {"core.first_try_rate", 1.0 - h.indirectionPct / 100.0, "frac",
             "count"},
            {"workload.refs_per_miss", per(refs, records), "refs/miss",
             "count"},
        };
        // Every evaluation replays the whole trace (its warmup prefix
        // trains the predictors), predicting and training per record.
        double calls = static_cast<double>(figure6Grid().size()) * records;
        double eval_s = traced.measure.referenceSeconds();
        attributed = per(calls *
                             (pr.nsPerPredict +
                              pr.trainsPerMiss * pr.nsPerTrain) *
                             1e-9,
                         eval_s);
        ns_per_record_eval = per(eval_s * 1e9, calls);
    }

    const bool timed = timing != nullptr;
    std::vector<Metric> rest = {
        {"sim.shard_speedup", shard_speedup, "x", "span", s.shards > 1},
        {"sim.ns_per_event", pr.nsPerEvent, "ns/event", "probe", timed},
        {"sim.pool_slab_mb", slab_mb, "MB", "count", timed},
        {"interconnect.ns_per_delivery", pr.nsPerDelivery, "ns/delivery",
         "probe", timed},
        {"mem.ns_per_access", pr.nsPerAccess, "ns/access", "probe"},
        {"coherence.ns_per_apply", pr.nsPerApply, "ns/apply", "probe"},
        {"core.ns_per_predict", pr.nsPerPredict, "ns/predict", "probe"},
        {"core.ns_per_train", pr.nsPerTrain, "ns/train", "probe"},
        {"core.ns_per_record_eval", ns_per_record_eval, "ns/record",
         "span", !timed},
        {"cpu.ns_per_instr", pr.nsPerInstr, "ns/instr", "probe", timed},
        {"workload.ns_per_ref", pr.nsPerRef, "ns/ref", "probe"},
        {"setup.workload_s", traced.workloadS, "s", "span"},
        {"setup.system_s", traced.systemS, "s", "span"},
        {"setup.warmup_s", traced.warmupS, "s", "span", timed},
        {"setup.collect_s", traced.collectS, "s", "span", !timed},
        {"run.attributed_frac", attributed, "frac", "span"},
        {"run.host_speed", traced.measure.speed, "x", "span"},
        {"trace_overhead_frac",
         untraced_mps > 0.0 ? 1.0 - traced.missesPerS() / untraced_mps
                            : 0.0,
         "frac", "span"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

Probes
runProbes(const Spec &s, const Options &o,
          const std::vector<std::uint64_t> &consumed, Tracer &tr)
{
    const std::uint64_t div = o.smoke ? smokeDivisor : 1;
    Probes pr;
    std::size_t span = tr.begin("probe.input");
    ProbeInput in(s, o.seed);
    in.run(s.warmup, probeWindowRefs / div);
    tr.end(span);

    std::string failure;
    span = tr.begin("probe.mem");
    pr.nsPerAccess = probeMem(in, failure);
    tr.end(span);
    span = tr.begin("probe.coherence");
    pr.nsPerApply = probeCoherence(in, failure);
    tr.end(span);
    span = tr.begin("probe.core");
    probeCore(in, s.nodes, pr);
    tr.end(span);
    if (!s.traceEval) {
        // Layers the trace-driven workload does not run.
        span = tr.begin("probe.interconnect");
        pr.nsPerDelivery = probeInterconnect(in, s);
        tr.end(span);
        span = tr.begin("probe.sim");
        pr.nsPerEvent = probeKernel(s, 4000000 / div);
        tr.end(span);
        span = tr.begin("probe.cpu");
        pr.nsPerInstr = probeCpu(s, in.workload(), o.seed, 4000000 / div);
        tr.end(span);
    }
    span = tr.begin("probe.workload");
    pr.nsPerRef = probeWorkload(s, o.seed, consumed, 4000000 / div);
    tr.end(span);
    if (pr.failure.empty())
        pr.failure = failure;
    if (pr.failure.empty() && pr.nsPerRef == 0.0)
        pr.failure = "workload probe generated nothing";
    return pr;
}

Result
runWorkload(const Spec &s, const Options &o, Tracer &tr)
{
    Result r;
    std::size_t root = tr.begin(s.name);

    // Timed reps: tracing stays off, so they are the untraced runs.
    tr.setRecording(false);
    r.reps = timedReps(s, o, o.trace ? runSeconds / 2 : runSeconds,
                       o.trace ? 2 : 3, tr);
    std::vector<double> mps;
    std::vector<double> setup;
    for (const Rep &rep : r.reps) {
        if (rep.sample) {
            mps.push_back(rep.missesPerS());
            setup.push_back(rep.setupS());
        }
    }
    double rss = peakRssMb();
    r.endToEnd = {{"misses_per_s", median(mps), "misses/s", "e2e"},
                  {"setup_s", median(setup), "s", "e2e"},
                  {"peak_rss_mb", rss, "MB", "e2e"}};
    tr.setRecording(o.trace);

    Rep traced;
    TimingCounts timing;
    TimingCounts baseline;
    EvalCounts eval;
    double shard_speedup = 1.0;
    if (o.trace) {
        std::size_t span = tr.begin("rep.traced");
        traced = s.traceEval ? evalRep(s, o.seed, tr, &eval)
                             : timingRep(s, o.seed, s.shards, tr, &timing);
        tr.end(span);
        traced.sample = false;
        r.reps.push_back(traced);
        if (!s.traceEval) {
            // The same warmup with a one-instruction measured phase:
            // subtracting it leaves the measured phase's references
            // and payloads.
            span = tr.begin("rep.baseline");
            Rep base = timingRep(s, o.seed, s.shards, tr, &baseline, 1);
            tr.end(span);
            if (!base.failure.empty())
                r.failures.push_back("baseline: " + base.failure);
        }
    }

    if (s.shards > 1) {
        // K=1 reference: every rep's figure statistics must match it.
        std::size_t span = tr.begin("rep.k1");
        Rep k1 = timingRep(s, o.seed, 1, tr);
        tr.end(span);
        r.k1Fingerprint = hex(k1.fingerprint);
        if (!k1.failure.empty())
            r.failures.push_back("k1: " + k1.failure);
        for (Rep &rep : r.reps)
            if (rep.failure.empty() && rep.fingerprint != k1.fingerprint)
                rep.failure = "statistics differ from the K=1 run";
        std::vector<double> walls;
        for (const Rep &rep : r.reps)
            if (rep.sample)
                walls.push_back(rep.measure.referenceSeconds());
        shard_speedup = k1.measure.referenceSeconds() / median(walls);
    }

    for (std::size_t i = 1; i < r.reps.size(); ++i)
        if (r.reps[i].failure.empty() &&
            r.reps[i].fingerprint != r.reps[0].fingerprint)
            r.reps[i].failure = "statistics differ from rep 0";
    if (!o.expectFingerprint.empty())
        for (Rep &rep : r.reps)
            if (rep.failure.empty() &&
                hex(rep.fingerprint) != o.expectFingerprint)
                rep.failure = "fingerprint differs from the expected " +
                              o.expectFingerprint;

    if (o.trace) {
        // Read before the probes allocate pooled events of their own.
        double slab_mb = static_cast<double>(
                             eventPoolStats().slabBytes +
                             MessageRef::stats().slabBytes) /
                         (1024.0 * 1024.0);
        const std::vector<std::uint64_t> &consumed =
            s.traceEval ? eval.consumed : timing.consumed;
        Probes pr = runProbes(s, o, consumed, tr);
        if (!pr.failure.empty())
            r.failures.push_back(pr.failure);
        r.layers = layerMetrics(
            s, traced, s.traceEval ? nullptr : &timing, &baseline,
            s.traceEval ? &eval : nullptr, pr, shard_speedup,
            r.endToEnd[0].value, slab_mb);
    }
    tr.end(root);
    return r;
}

int
report(const Spec &s, const Options &o, const Result &r)
{
    std::size_t failed = 0;
    for (const Rep &rep : r.reps)
        failed += rep.failure.empty() ? 0 : 1;
    const bool correct = failed == 0 && r.failures.empty();
    const std::vector<Metric> &shown = o.trace ? r.layers : r.endToEnd;

    std::printf("workload %s  seed %llu  reps %zu  failed %zu\n", s.name,
                static_cast<unsigned long long>(o.seed), r.reps.size(),
                failed);
    for (std::size_t i = 0; i < r.reps.size(); ++i) {
        const Rep &rep = r.reps[i];
        std::printf("  rep %zu%s: setup %.3f s at host speed %.3f, "
                    "measured %.3f s at %.3f, %.0f misses/s (%.0f raw), "
                    "fingerprint %s%s%s\n",
                    i, rep.sample ? "" : " (not a sample)",
                    rep.rawSetupS(), rep.setup.speed,
                    rep.measure.seconds, rep.measure.speed,
                    rep.missesPerS(), rep.rawMissesPerS(),
                    hex(rep.fingerprint).c_str(),
                    rep.failure.empty() ? "" : "  FAILED: ",
                    rep.failure.c_str());
    }
    for (const std::string &f : r.failures)
        std::printf("  FAILED: %s\n", f.c_str());
    for (const Metric &m : shown)
        if (m.applies)
            std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());

    char head[96];
    std::snprintf(head, sizeof(head),
                  "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                  correct ? "true" : "false", r.reps.size(),
                  correct ? failed : std::max<std::size_t>(failed, 1));
    const std::string line =
        head + std::string("\"metrics\": ") + metricsObject(shown, false) +
        "}";

    if (!o.out.empty()) {
        std::FILE *f = std::fopen(o.out.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "dsp_bench: cannot write %s\n",
                         o.out.c_str());
            return 1;
        }
        std::vector<double> mps, setup, raw_mps, raw_setup, speed,
            setup_speed;
        std::string failures = "[";
        for (const Rep &rep : r.reps) {
            if (!rep.sample)
                continue;
            mps.push_back(rep.missesPerS());
            setup.push_back(rep.setupS());
            raw_mps.push_back(rep.rawMissesPerS());
            raw_setup.push_back(rep.rawSetupS());
            speed.push_back(rep.measure.speed);
            setup_speed.push_back(rep.setup.speed);
        }
        for (std::size_t i = 0; i < r.reps.size(); ++i)
            if (!r.reps[i].failure.empty())
                failures += std::string(failures.size() > 1 ? ", " : "") +
                            quoted("rep " + std::to_string(i) + ": " +
                                   r.reps[i].failure);
        for (const std::string &fl : r.failures)
            failures +=
                std::string(failures.size() > 1 ? ", " : "") + quoted(fl);
        failures += "]";
        std::fprintf(
            f,
            "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
            "\"trace\": %s, \"smoke\": %s,\n"
            " \"provenance\": {\"git_rev\": %s, \"compiler\": %s, "
            "\"flags\": %s, \"nproc\": %u, \"cpu_model\": %s, "
            "\"seed\": %llu, \"reps\": %zu},\n"
            " \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
            "\"failures\": %s,\n"
            " \"fingerprint\": %s, \"k1_fingerprint\": %s,\n"
            " \"samples\": {\"misses_per_s\": %s, \"setup_s\": %s},\n"
            " \"raw_samples\": {\"misses_per_s\": %s, \"setup_s\": %s, "
            "\"host_speed\": %s, \"setup_host_speed\": %s},\n"
            " \"metrics\": %s,\n \"layers\": %s,\n \"result\": %s}\n",
            quoted(s.name).c_str(),
            static_cast<unsigned long long>(o.seed),
            number(runSeconds).c_str(), o.trace ? "true" : "false",
            o.smoke ? "true" : "false", quoted(o.gitRev).c_str(),
            quoted(DSP_BENCH_COMPILER).c_str(),
            quoted(DSP_BENCH_FLAGS).c_str(),
            std::thread::hardware_concurrency(), quoted(cpuModel()).c_str(),
            static_cast<unsigned long long>(o.seed), r.reps.size(),
            correct ? "true" : "false", r.reps.size(), failed,
            failures.c_str(),
            quoted(r.reps.empty() ? "" : hex(r.reps[0].fingerprint)).c_str(),
            r.k1Fingerprint.empty() ? "null"
                                    : quoted(r.k1Fingerprint).c_str(),
            numberList(mps).c_str(), numberList(setup).c_str(),
            numberList(raw_mps).c_str(), numberList(raw_setup).c_str(),
            numberList(speed).c_str(), numberList(setup_speed).c_str(),
            metricsObject(r.endToEnd, false).c_str(),
            metricsObject(r.layers, true).c_str(), line.c_str());
        if (std::fclose(f) != 0) {
            std::fprintf(stderr, "dsp_bench: cannot write %s\n",
                         o.out.c_str());
            return 1;
        }
    }

    std::printf("%s\n", line.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    const Spec *found = nullptr;
    for (const Spec &s : specs)
        if (o.workload == s.name)
            found = &s;
    if (found == nullptr)
        usage(("unknown workload " + o.workload).c_str());
    Spec spec = *found;
    if (o.smoke) {
        spec.warmup /= smokeDivisor;
        spec.measure /= smokeDivisor;
    }

    Tracer tracer(o.trace);
    host::start();
    Result result = runWorkload(spec, o, tracer);
    host::stop();
    if (o.trace &&
        !tracer.write(o.traceOut, std::string(spec.name) + "/seed" +
                                      std::to_string(o.seed))) {
        std::fprintf(stderr, "dsp_bench: cannot write %s\n",
                     o.traceOut.c_str());
        return 1;
    }
    return report(spec, o, result);
}
