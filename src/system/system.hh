/**
 * @file
 * Execution-driven timing simulation of the full 16-node system
 * (Section 5): CPUs, two-level caches with MSHRs, destination-set
 * predictors, a totally-ordered crossbar, directory/memory
 * controllers, and the three coherence protocols.
 *
 * Functional/timing split: coherence transactions are applied to the
 * global SharingTracker at the crossbar's ordering point (the
 * serialization point all three protocols rely on); message timing,
 * link contention, and data-availability chaining are layered on top.
 * Multicast sufficiency is also evaluated at the ordering point, so
 * the window-of-vulnerability race between a retry's issue and its
 * ordering (Section 4.1) arises naturally and the third attempt falls
 * back to broadcast.
 *
 * Shard discipline (see sim/sharded_kernel.hh): every simulated node
 * is one kernel domain owning its CPU, caches, MSHRs, predictor, and
 * completion statistics; each ordering point plus its slice of the
 * sharing tracker forms one hub domain (block b is ordered at hub
 * b mod H, so per-block functional state never spans hubs). Handlers
 * never read another domain's state -- the ordering point's verdict
 * travels inside the messages (TxnEcho), and cache evictions reach
 * the tracker as hub-bound notices one link hop later. A run with K
 * shards is therefore bit-identical to a single-shard run in every
 * emitted statistic, at every node count and hub count.
 */

#ifndef DSP_SYSTEM_SYSTEM_HH
#define DSP_SYSTEM_SYSTEM_HH

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hh"
#include "coherence/latency.hh"
#include "coherence/sharing_tracker.hh"
#include "core/factory.hh"
#include "cpu/cpu.hh"
#include "interconnect/crossbar.hh"
#include "mem/node_caches.hh"
#include "sim/flat_map.hh"
#include "sim/sharded_kernel.hh"
#include "verify/violation.hh"
#include "workload/workload.hh"

namespace dsp {

class System;

namespace verify {
class Oracle;
}

/** Runtime-verification knobs (see src/verify/ and docs/verify.md). */
struct VerifyParams {
    /** Shadow the run with the coherence oracle. Off by default; the
     *  hooks additionally compile to nothing under DSP_DISABLE_VERIFY
     *  regardless of this flag. */
    bool oracle = false;

    /** Deliberate protocol mutation for the oracle self-tests; only
     *  honoured while the oracle is armed. */
    verify::Mutation mutation = verify::Mutation::None;

    /** Stop the run once the hub reaches this tick (0 = never). Used
     *  by violation repro bundles to halt just past the violation. */
    Tick stopAtTick = 0;
};

/** Checkpoint/restore control (src/checkpoint/, docs/checkpoint.md).
 *  Checkpoints are written at the first quiescent kernel barrier at
 *  or after each `every`-tick boundary, so the snapshot (and the set
 *  of snapshot ticks) is identical at every shard count. */
struct CheckpointControl {
    /** Simulated ticks between checkpoints; 0 disables. */
    std::uint64_t every = 0;
    /** Directory checkpoints are written to / restored from. */
    std::string dir;
    /** Resume from the newest valid checkpoint in `dir` (or from
     *  `restorePath`) instead of starting fresh; falls back to a
     *  fresh run when none validates. */
    bool restore = false;
    /** Explicit checkpoint file to restore (overrides the
     *  newest-in-dir scan); used by violation replay. */
    std::string restorePath;
    /** After each successful write, prune all but the newest `keep`
     *  valid snapshots in the directory (0 = unlimited). Long sweeps
     *  with frequent checkpoints otherwise accumulate gigabytes of
     *  stale restore points that will never be chosen. */
    unsigned keep = 0;
};

/** Which coherence protocol the system runs. */
enum class ProtocolKind : std::uint8_t {
    Snooping,   ///< broadcast snooping (destination set = all)
    Directory,  ///< GS320-style directory (destination set = home)
    Multicast,  ///< multicast snooping with destination-set prediction
};

/** Printable name. */
std::string toString(ProtocolKind kind);

/** Which processor model drives the system. */
enum class CpuModel : std::uint8_t {
    Simple,    ///< in-order blocking (Figure 7)
    Detailed,  ///< ROB-window out-of-order (Figure 8)
};

/** Full system configuration (Table 4 defaults). Larger machines
 *  (up to maxNodes) and hierarchical interconnects are configured
 *  through `crossbar.topology` (see interconnect/topology.hh and
 *  docs/machine_topology.md). */
struct SystemParams {
    NodeId nodes = 16;
    ProtocolKind protocol = ProtocolKind::Multicast;
    PredictorPolicy policy = PredictorPolicy::OwnerGroup;
    PredictorConfig predictor;  ///< numNodes is overridden with nodes
    CacheParams caches;
    LatencyParams latency;
    CrossbarParams crossbar;
    CpuParams cpu;
    CpuModel cpuModel = CpuModel::Simple;

    /**
     * Kernel shards (host threads). The node set is partitioned into
     * contiguous groups, one per shard; the ordering point rides with
     * shard 0. Any value produces bit-identical statistics; values
     * above 1 use host cores. Clamped to [1, nodes].
     */
    unsigned shards = 1;

    /**
     * At shards >= 3, give the ordering-point hub a dedicated shard
     * (shard 0) and spread the nodes over the remaining shards. The
     * hub carries the tracker, the chaining books, and every ordered
     * message, making the default hub-plus-node-group shard 0 the
     * ~10-15% heaviest; a dedicated hub shard lifts that ceiling on
     * hosts with cores to spare. Pure placement: statistics are
     * bit-identical either way (carried-key determinism contract).
     * Ignored below 3 shards.
     */
    bool hubShard = false;

    /**
     * Data-availability chaining: an owner cannot supply a block
     * before its own fill lands, and memory cannot supply before an
     * in-flight writeback arrives. Expected-completion ticks are
     * recorded at the ordering point when the transfer is issued.
     */
    bool dataChaining = true;

    /**
     * Functional (trace-style) warmup misses before any timing: fills
     * caches and trains predictors at trace-replay speed, exactly as
     * the paper warms its timing runs from traces (Section 5.2).
     */
    std::uint64_t functionalWarmupMisses = 0;

    std::uint64_t warmupInstrPerCpu = 1000000;
    std::uint64_t measureInstrPerCpu = 2000000;

    VerifyParams verify;
    CheckpointControl checkpoint;
};

/** Results of one execution-driven run (measured phase only). */
struct SystemStats {
    Tick runtimeTicks = 0;       ///< first measure start to last finish
    std::uint64_t instructions = 0;
    std::uint64_t misses = 0;
    std::uint64_t indirections = 0;  ///< retried / 3-hop misses
    std::uint64_t retries = 0;
    /** Misses retried more than once: the retry itself lost the
     *  window-of-vulnerability race (Section 4.1). */
    std::uint64_t doubleRetries = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t cacheToCache = 0;
    std::uint64_t requestMessages = 0;  ///< requests+retries+fwd+inval
    std::uint64_t writebacks = 0;       ///< dirty evictions to memory
    std::uint64_t trafficBytes = 0;
    /** Kernel events executed during the measured phase (simulator
     *  throughput is events/sec over this count). */
    std::uint64_t eventsExecuted = 0;
    /** Kernel barrier crossings / lookahead windows in the measured
     *  phase. With single-crossing windows their ratio is ~1.0; quiet
     *  -window batching can push it below. */
    std::uint64_t barrierCrossings = 0;
    std::uint64_t windowsRun = 0;
    /** Host wall-clock seconds spent in the measured phase. */
    double wallSeconds = 0.0;
    double avgMissLatencyNs = 0.0;

    /** The run halted before its instruction targets (a stop-at tick
     *  from a repro bundle); figures from it are partial. */
    bool stoppedEarly = false;

    /** Cache accesses issued in the measured phase (all nodes), and
     *  how many the L0 block-result filter resolved without an L1/L2
     *  walk (l0Absorbed additionally touched zero packed words). All
     *  three are deterministic figure-adjacent statistics: identical
     *  at every shard count (covered by the check.sh cross-check). */
    std::uint64_t cacheAccesses = 0;
    std::uint64_t l0Hits = 0;
    std::uint64_t l0Absorbed = 0;
    /** Packed-array words attributed to measured-phase set walks plus
     *  L0 refresh touches (upper bound: a walk may early-exit). From
     *  the debug walk counters: 0 when built with NDEBUG. */
    std::uint64_t wordTouches = 0;

    /** Calendar insertions + pops in the measured phase. Every
     *  scheduled event costs one insert and one pop on whichever
     *  shard holds it, so the count is identical at every shard
     *  count (covered by the check.sh cross-check). A host cost
     *  counter, not a figure statistic. */
    std::uint64_t calendarOps = 0;
    /** Always 0: the send-time host prefetch hints it counted were
     *  deleted. Kept only because the benchmark runner still reports
     *  it as `mem.prefetches_per_miss`; drop it with that metric. */
    std::uint64_t prefetchIssued = 0;

    double
    calendarOpsPerMiss() const
    {
        return misses ? static_cast<double>(calendarOps) /
                            static_cast<double>(misses)
                      : 0.0;
    }

    double
    l0HitRate() const
    {
        return cacheAccesses
                   ? static_cast<double>(l0Hits) /
                         static_cast<double>(cacheAccesses)
                   : 0.0;
    }

    double
    touchedWordsPerAccess() const
    {
        return cacheAccesses
                   ? static_cast<double>(wordTouches) /
                         static_cast<double>(cacheAccesses)
                   : 0.0;
    }

    double
    trafficPerMiss() const
    {
        return misses ? static_cast<double>(trafficBytes) /
                            static_cast<double>(misses)
                      : 0.0;
    }

    double
    runtimeMs() const
    {
        return ticksToNs(runtimeTicks) / 1e6;
    }
};

/**
 * Per-node cache controller: the CPU-facing MemoryPort, the MSHR
 * file, the node's two cache levels, and the snooping-side request /
 * data handlers. Runs entirely in its node's kernel domain.
 */
class CacheController : public MemoryPort
{
  public:
    CacheController(System &system, NodeId node, DomainPort port);

    // MemoryPort
    AccessReply access(Addr addr, Addr pc, bool is_write, Tick when,
                       const Completion &on_complete,
                       Addr next_hint = 0) override;

    /** Ordered request delivered to this node (snoop side); the
     *  ordering point's verdict rides in msg.echo. */
    void onSnoop(const Message &msg, Tick tick);

    /** Directory-protocol forward: supply data to the requester. */
    void onForward(const Message &msg, Tick tick);

    /** Directory-protocol invalidation. */
    void onInvalidate(const Message &msg, Tick tick);

    /** Data response / upgrade grant for this node's own miss. */
    void onData(const Message &msg, Tick tick);

    NodeCaches &caches() { return caches_; }
    std::size_t outstandingMshrs() const { return mshrs_.size(); }

    /** Checkpoint caches, the MSHR file (waiter completions are saved
     *  as tokens and rebuilt through the owning CPU), and the txn-id
     *  generator. In-flight IssueEvents are captured separately by
     *  the kernel's pending-event enumeration. */
    void ckptSave(ckpt::Writer &w) const;
    void ckptLoad(ckpt::Reader &r);

    /** Rebuild one in-flight request-issue event from its saved
     *  payload (tag and node already consumed). */
    Event &ckptRestoreIssue(ckpt::Reader &r);

  private:
    /** Pooled event: issue the coherence request for a freshly opened
     *  miss at its access tick (was an allocating lambda; a named
     *  event checkpoints itself and keeps the hot path heap-free). */
    struct IssueEvent;

    struct Mshr {
        TxnId txn = 0;
        RequestType type = RequestType::GetShared;
        bool invalidateAfterFill = false;
        /** Set-walk handles from the access that opened this miss;
         *  complete() installs the grant through them so the fill
         *  never re-walks the tag planes. */
        NodeCaches::FillHandle handle;
        std::vector<Completion> waiters;
        /** Accesses that arrived while the miss was outstanding. */
        struct Queued {
            Addr addr;
            Addr pc;
            bool write;
            Completion done;
        };
        std::vector<Queued> queued;
    };

    /** Issue the coherence request for a new miss at tick `when`. */
    void issueRequest(BlockId block, Addr addr, Addr pc,
                      RequestType type, Tick when);

    /** Complete the miss: fill, train, wake waiters, replay queue.
     *  Ignores completions whose txn no longer matches the MSHR. */
    void complete(const Message &msg, Tick tick);

    /** Invalidate local state, honouring in-flight misses. */
    void invalidateLocal(BlockId block);

    System &sys_;
    NodeId node_;
    DomainPort port_;
    NodeCaches caches_;
    FlatMap<BlockId, Mshr> mshrs_;
    /** Node-local transaction id generator: ids are (seq << 16) | node
     *  (16 bits comfortably covers maxNodes), so allocation never
     *  crosses a shard boundary. */
    std::uint64_t nextTxnSeq_ = 1;
};

/**
 * Per-node memory/directory controller: home-side duties (memory data
 * responses, directory forwarding, multicast retry re-issue). Runs in
 * its node's kernel domain.
 */
class MemoryController
{
  public:
    MemoryController(System &system, NodeId node, DomainPort port);

    /** Ordered request delivered to (or self-observed at) the home;
     *  the ordering point's verdict rides in msg.echo. */
    void onHomeRequest(const Message &msg, Tick tick);

    /** Rebuild one in-flight home-side event (directory continuation
     *  or retry re-issue) from its saved payload (tag and node
     *  already consumed). The controller itself is stateless, so
     *  these events are its entire checkpoint surface. */
    Event &ckptRestoreEvent(ckpt::EventTag tag, ckpt::Reader &r);

  private:
    /** Pooled event: the directory-access continuation (invalidation
     *  fan-out + data/grant/forward) one memory latency after the
     *  ordered delivery reached the home. */
    struct DirContinueEvent;

    /** Pooled event: hand a home-built Retry to the ordered network
     *  after the directory access that composed it. */
    struct RetryEvent;

    void handleDirectory(const Message &msg, Tick tick);
    void handleMulticastHome(const Message &msg, Tick tick);

    /** Body of the directory continuation (shared by the timed path
     *  and checkpoint-restored events). */
    void directoryContinue(const Message &msg);

    System &sys_;
    NodeId node_;
    DomainPort port_;
};

/**
 * The complete target machine. Owns the sharded kernel, the crossbar,
 * the functional sharing state, predictors, and all per-node
 * components; runs the warmup + measured phases.
 */
class System
{
  public:
    System(Workload &workload, const SystemParams &params);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run warmup then the measured phase; returns measured stats. */
    SystemStats run();

    const SystemParams &params() const { return params_; }

    /** The coherence oracle shadowing this run, or nullptr. Hook call
     *  sites gate on verify::armed(oracle()). */
    verify::Oracle *oracle() { return oracle_.get(); }

    /** True once run() resumed from a checkpoint instead of starting
     *  fresh. Tests gate on this so a silently failed restore (which
     *  would rerun from scratch and still match, by determinism)
     *  cannot masquerade as a restore round-trip. */
    bool restoredFromCheckpoint() const { return restoredFromCkpt_; }

  private:
    friend class CacheController;
    friend class MemoryController;

    /** Pooled event: deliver a shared payload to `dest` without the
     *  network (self-observation of ordered requests, node-local
     *  transfers). Shares the payload instead of copying it. */
    struct LocalDeliverEvent;

    /** Pooled event: hand `msg` to sendOrLocal() at its tick. */
    struct SendEvent;

    /** Pooled event: a cache eviction reaching the hub's sharing
     *  tracker one link hop after it happened at the node. */
    struct EvictEvent;

    /** Per-node completion statistics, single-writer per domain. */
    struct alignas(64) NodeAccum {
        std::uint64_t misses = 0;
        std::uint64_t indirections = 0;
        std::uint64_t retries = 0;
        std::uint64_t doubleRetries = 0;
        std::uint64_t upgrades = 0;
        std::uint64_t cacheToCache = 0;
        Tick latencySum = 0;
    };

    // -- crossbar callbacks
    void onOrder(const MessageRef &msg, Tick tick);
    void onDeliver(const Message &msg, NodeId dest, Tick tick);

    /** ReorderHubGrants mutation: maybe stash this GETX's tracker
     *  apply (or retro-apply a stashed one). True = order handled. */
    bool orderWithReorderMutation(Message &msg, BlockId block,
                                  Tick tick);

    /** The oracle found a violation: publish it, then either throw
     *  (panic-throws-for-test) or print the report + repro bundle and
     *  exit with verify::violationExitCode. */
    [[noreturn]] void raiseOracleViolation();

    /** DSP-REPRO machine line: everything needed to replay this run
     *  deterministically up to just past the violation. */
    void printReproBundle(std::FILE *out) const;

    /** Point-to-point send that short-circuits node-local traffic. */
    void sendOrLocal(Message msg);

    /** Schedule sendOrLocal(msg) at tick `when` (controller action). */
    void sendLater(Message msg, Tick when);

    /** Route an eviction to its block's hub tracker (one hop away). */
    void notifyEviction(BlockId block, bool owned, NodeId node,
                        Tick tick);

    /** Destination set for a new request, per protocol. */
    DestinationSet destinationsFor(BlockId block, Addr addr, Addr pc,
                                   RequestType type, NodeId requester);

    /** Record a completed miss in the requester's statistics. */
    void recordCompletion(const Message &msg, Tick tick);

    /** Train the requester's predictor at completion time. */
    void trainRequester(const Message &msg);

    // -- ordering-point (hub domain) helpers
    /** Fill the echo's supplyEarliest and update the expected
     *  data-arrival books for a freshly resolved transaction. */
    void chainResolved(BlockId block, Message &msg, Tick order);

    /** Earliest tick `responder` can start supplying `block` (0 when
     *  unconstrained); prunes stale book entries. */
    Tick supplyBound(BlockId block, NodeId responder, NodeId requester,
                     Tick order);

    NodeId homeOf_(BlockId block) const
    {
        // Power-of-two node counts (the common case, incl. the
        // paper's 16) take the mask path: this runs per delivery and
        // a hardware divide is ~30 cycles.
        if (homeMask_ != 0)
            return static_cast<NodeId>(block & homeMask_);
        return homeOf(block, params_.nodes);
    }

    DomainPort &nodePort(NodeId n) { return nodePorts_[n]; }

    /** Point-in-time sums of the per-node cache counters; run() diffs
     *  two of these around the measured phase. */
    struct CacheCounters {
        std::uint64_t accesses = 0;
        std::uint64_t l0Hits = 0;
        std::uint64_t l0Absorbed = 0;
        std::uint64_t wordTouches = 0;
    };
    CacheCounters cacheCounters() const;

    // -- run-phase plumbing
    void startPhase(std::uint64_t instructions);

    /** The per-CPU phase-completion callback startPhase installs and
     *  a checkpoint restore re-arms on unfinished CPUs. */
    std::function<void()> cpuDoneCallback();

    /** Enter the measured phase: reset stats, record the measure
     *  baselines, and (unless stopped early) start the phase. */
    void beginMeasure();

    /** Event-free cache/predictor warming (Section 5.2). */
    void functionalWarmup(std::uint64_t misses);

    /** Run kernel windows until all CPUs reached their target,
     *  writing checkpoints at the due barriers along the way. */
    void runUntilPhaseDone(const char *phase);

    // -- checkpoint/restore (src/checkpoint/, docs/checkpoint.md)
    bool ckptEnabled() const
    {
        return params_.checkpoint.every != 0 &&
               !params_.checkpoint.dir.empty();
    }

    /** Serialize/restore the complete quiescent simulation state:
     *  config identity, phase bookkeeping, kernel counters, workload,
     *  per-node controllers + CPUs + predictors, per-hub trackers +
     *  chain books, crossbar, stats accumulators, the oracle (when
     *  armed), and every pending event with its (when, key, domain)
     *  coordinates. */
    void ckptSaveState(ckpt::Writer &w) const;
    void ckptLoadState(ckpt::Reader &r);

    /** Dispatch one saved pending event to its owning subsystem by
     *  tag; returns the reconstructed (pooled or member) event. */
    Event &restoreOneEvent(ckpt::Reader &r);

    /** Write a checkpoint at the current quiescent barrier (advances
     *  the next-due tick first so the schedule is restore-stable),
     *  then honour any DSP_CKPT_KILL_AFTER preemption hook. */
    void writeCheckpoint();

    /** Restore from params_.checkpoint (newest valid in dir, or the
     *  explicit restorePath); false = start fresh. */
    bool restoreIfRequested();

    // -- static construction helpers (domain/shard geometry)
    static unsigned shardCountFor(const SystemParams &params);
    static std::vector<unsigned> domainMapFor(const SystemParams &p);

    /**
     * The resolved machine topology: the single source of truth for
     * both the kernel's lookahead (its minHop) and every hop-latency
     * computation in this class. Every cross-domain interaction is
     * >= minHop, so deriving both from here keeps the conservative-
     * lookahead invariant true by construction (the crossbar computes
     * the same topology from the same parameters).
     */
    static Topology
    topologyFor(const SystemParams &p)
    {
        return Topology(p.nodes, p.crossbar.topology,
                        p.crossbar.traversal_ns);
    }

    Workload &workload_;
    SystemParams params_;
    /** nodes-1 when nodes is a power of two, else 0 (slow path). */
    BlockId homeMask_ = 0;

    ShardedKernel kernel_;
    std::vector<DomainPort> hubPorts_;  ///< one per ordering point
    std::vector<DomainPort> nodePorts_;
    OrderedCrossbar crossbar_;
    /** Resolved geometry + hop latencies (== crossbar_.topology()). */
    Topology topo_;
    /** Functional sharing state, one slice per ordering hub; block b
     *  lives in trackers_[topo_.hubOf(b)] and is only touched from
     *  that hub's domain. */
    std::vector<SharingTracker> trackers_;

    SharingTracker &
    trackerFor(BlockId block)
    {
        return trackers_[topo_.hubOf(block)];
    }

    std::vector<std::unique_ptr<Predictor>> predictors_;
    std::vector<std::unique_ptr<CacheController>> cacheCtrls_;
    std::vector<std::unique_ptr<MemoryController>> memCtrls_;
    std::vector<std::unique_ptr<Cpu>> cpus_;

    /** Coherence oracle (params_.verify.oracle); see src/verify/. */
    std::unique_ptr<verify::Oracle> oracle_;

    /** ReorderHubGrants mutation state (per hub domain): one GETX
     *  whose tracker apply is withheld until the block's next
     *  resolved order. A stash only ever matches its own block, and a
     *  block always orders at one hub, so per-hub stashes partition
     *  the mutation exactly like the tracker slices. */
    struct ReorderStash {
        bool armed = false;
        BlockId block = 0;
        NodeId requester = 0;
        RequestType type = RequestType::GetExclusive;
    };
    std::vector<ReorderStash> reorderStash_;

    // -- data-availability chaining books (one pair per hub domain;
    // block b uses index topo_.hubOf(b)). The maps record
    // *expected-completion* (future) ticks at the instant the
    // transfer is issued at the ordering point; readers prune entries
    // once they fall into the past.
    std::vector<FlatMap<BlockId, Tick>> ownerDataAt_;  ///< owner fill
    std::vector<FlatMap<BlockId, Tick>> memReadyAt_;   ///< in-flight WB

    // -- phase / stats state
    bool measuring_ = false;
    /** A stop predicate fired before the phase targets (verify
     *  stop-at); remaining phases are skipped. Main thread only. */
    bool stopEarly_ = false;
    Tick measureStart_ = 0;
    std::atomic<NodeId> cpusDone_{0};
    std::atomic<bool> phaseDone_{false};

    /** Which phase runUntilPhaseDone is (or will next be) driving.
     *  Members, not run() locals, so a checkpoint can capture and a
     *  restore re-enter mid-phase. */
    static constexpr std::uint8_t phaseWarmup = 0;
    static constexpr std::uint8_t phaseMeasure = 1;
    std::uint8_t phaseIndex_ = phaseWarmup;

    /** Measure baselines (diffed against end-of-run totals); members
     *  for the same reason as phaseIndex_. */
    std::uint64_t eventsBefore_ = 0;
    std::uint64_t crossingsBefore_ = 0;
    std::uint64_t windowsBefore_ = 0;
    std::uint64_t calOpsBefore_ = 0;
    CacheCounters cachesBefore_;

    // -- checkpoint state (main thread only; see docs/checkpoint.md)
    Tick nextCkptTick_ = 0;        ///< next due boundary
    bool ckptStop_ = false;        ///< predicate stopped for a write
    bool finalCkptWritten_ = false;  ///< interrupt checkpoint guard
    unsigned ckptsWritten_ = 0;
    bool restoredFromCkpt_ = false;
    unsigned killAfter_ = 0;       ///< DSP_CKPT_KILL_AFTER hook
    std::string lastCkptPath_;     ///< newest written/restored file
    Tick lastCkptTick_ = 0;

    std::vector<NodeAccum> nodeStats_;
};

} // namespace dsp

#endif // DSP_SYSTEM_SYSTEM_HH
