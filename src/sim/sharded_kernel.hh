/**
 * @file
 * Sharded multi-queue parallel event kernel with conservative
 * lookahead synchronization.
 *
 * The simulator's components are grouped into *domains* -- logical
 * processes that own disjoint state (one per simulated node, plus one
 * for the interconnect ordering point). Domains are partitioned onto
 * *shards*, each with its own calendar/bucket EventQueue, and shards
 * execute on host threads in lock-step windows of width L, the
 * *lookahead*: the minimum latency of any cross-domain interaction
 * (one crossbar link hop). Within a window every shard runs
 * independently; an event scheduled into another shard is posted to a
 * single-writer, double-buffered mailbox and drained right after the
 * next barrier crossing, which is safe because conservative lookahead
 * guarantees it cannot fire before the next window starts. Each
 * window costs exactly one barrier crossing: shards publish their
 * queue summaries and outbound-mail minima before arriving, so the
 * last arriver plans the next window and releases in the same
 * crossing. Stretches where only one shard has pending work inside
 * the horizon are batched -- several windows per crossing -- with
 * K-independent entry and truncation rules (see planNext()).
 *
 * Determinism contract (the non-negotiable invariant): a K-shard run
 * executes *exactly* the same events in *exactly* the same per-domain
 * order as a 1-shard run. Two mechanisms make the total order
 * K-independent:
 *
 *  - every event's tiebreak key is (priority, scheduling domain,
 *    per-domain sequence number) -- assigned by the *sender* and
 *    carried across mailboxes, never re-assigned at insertion. A
 *    domain's sequence counter advances only while that domain's
 *    events execute, so the key stream is a function of the simulation
 *    alone, not of the shard partition;
 *  - window boundaries are derived from the global earliest pending
 *    tick, which is the same for every K.
 *
 * Components interact with the kernel through DomainPort, a small
 * value type that also wraps a bare EventQueue for standalone
 * (non-sharded) use, so unit tests and single-queue tools keep their
 * exact PR 2 behavior.
 */

#ifndef DSP_SIM_SHARDED_KERNEL_HH
#define DSP_SIM_SHARDED_KERNEL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace dsp {

class ShardedKernel;

namespace ckpt {
class Reader;
} // namespace ckpt

/**
 * Scheduling interface handed to simulator components: either a thin
 * wrapper over a standalone EventQueue (implicit conversion keeps
 * existing call sites working) or a (kernel, domain) pair that routes
 * through the sharded kernel's keyed/mailbox path.
 */
class DomainPort
{
  public:
    DomainPort() = default;

    /** Standalone mode: schedule straight into `queue`. */
    DomainPort(EventQueue &queue) : queue_(&queue) {}

    /** Kernel mode (built by ShardedKernel::port()). */
    DomainPort(ShardedKernel &kernel, std::uint16_t domain);

    /**
     * Current simulated time. Inside a kernel run this is the
     * *executing* shard's clock (the running event's tick) -- never
     * the target shard's, whose clock mid-window is both racy to read
     * and partition-dependent. Outside a run every shard's clock sits
     * at the same window boundary, so boot reads are K-independent.
     */
    Tick now() const;

    void schedule(Event &ev, Tick when,
                  EventPriority prio = EventPriority::Default);

    void
    scheduleIn(Event &ev, Tick delay,
               EventPriority prio = EventPriority::Default)
    {
        schedule(ev, now() + delay, prio);
    }

    /** Schedule a callable through a pooled CallbackEvent. */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    schedule(Tick when, F cb,
             EventPriority prio = EventPriority::Default)
    {
        schedule(*CallbackEvent<F>::make(std::move(cb)), when, prio);
    }

    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    scheduleIn(Tick delay, F cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now() + delay, std::move(cb), prio);
    }

    /** Cancel a scheduled event (must target this port's shard, from
     *  its own thread or while the kernel is quiescent). */
    void deschedule(Event &ev);

  private:
    EventQueue *queue_ = nullptr;
    ShardedKernel *kernel_ = nullptr;  ///< null in standalone mode
    std::uint16_t domain_ = 0;
    std::uint8_t shard_ = 0;
};

/**
 * K event queues in conservative lock-step.
 *
 * Lifecycle: construct with a domain->shard map and the lookahead,
 * hand ports to components, schedule initial events (boot context:
 * single-threaded, direct insertion), then run() phases. Between
 * run() calls the kernel is quiescent and boot-context scheduling is
 * allowed again.
 */
class ShardedKernel
{
  public:
    /** Domain ids are 1..numDomains (10 bits in the tiebreak key; 0
     *  is reserved for standalone queues, 1023 for boot-context
     *  scheduling). 1022 usable domains cover a 256-node machine plus
     *  its ordering hubs with ample headroom. */
    static constexpr std::uint16_t maxDomains = 1022;
    static constexpr std::uint16_t bootDomain = 1023;

    /**
     * @param num_shards   host-parallel shards (>= 1)
     * @param domain_shard shard of each domain; index 0 unused,
     *                     size() == numDomains + 1
     * @param lookahead    minimum cross-domain latency in ticks (> 0);
     *                     also the synchronization window width
     */
    ShardedKernel(unsigned num_shards,
                  std::vector<unsigned> domain_shard, Tick lookahead);
    ~ShardedKernel();

    ShardedKernel(const ShardedKernel &) = delete;
    ShardedKernel &operator=(const ShardedKernel &) = delete;

    /** Port for one domain. */
    DomainPort port(std::uint16_t domain);

    Tick lookahead() const { return lookahead_; }
    unsigned numShards() const { return numShards_; }

    /**
     * Run windows until `stop` returns true at a window boundary
     * (finishing the window in progress first -- part of the
     * determinism contract) or until every queue drains. Returns true
     * iff stopped by the predicate. `stop` runs on one (arbitrary)
     * thread per boundary with all shards quiescent.
     */
    bool run(const std::function<bool()> &stop);

    /** Total events executed across all shards. */
    std::uint64_t executed() const;

    /** Calendar insertions + pops across all shards (quiescent state
     *  only): the cost the bench's calendar_ops_per_miss attributes.
     *  Each event is inserted and popped once on whichever shard holds
     *  it, so the total is independent of the partition. */
    std::uint64_t calendarOps() const;

    /** True when no shard has pending events (quiescent state only). */
    bool empty() const;

    /** Per-shard pending event count (quiescent state only). */
    std::size_t pending(unsigned shard) const;

    // ---- checkpoint support (quiescent state only) ------------------------
    //
    // At run() exit every shard clock sits at the same window boundary
    // and all mailboxes are drained, so (clock, pending events, domain
    // sequence counters, kernel counters) is the complete kernel state
    // and is identical for every shard count K.

    /** One pending event with its full scheduling coordinates. */
    struct CkptPending {
        Tick when;
        std::uint64_t key;
        std::uint16_t domain;
        Event *ev;
    };

    /** All pending events across shards, sorted by (when, key) -- the
     *  canonical K-independent order ((when, key) is total: the key
     *  embeds the scheduling domain and its sequence number). */
    std::vector<CkptPending> ckptCollectPending() const;

    /** The common quiescent shard clock. */
    Tick ckptNow() const { return shards_[0]->queue.now(); }

    /** Advance every (fresh) shard queue to the checkpointed clock,
     *  reproducing each queue's calendar-window position. Must run
     *  before any ckptSchedule() call. */
    void ckptAdvanceTo(Tick t);

    /** Re-insert a restored event with its original key; routed to the
     *  owning shard through this kernel's domain map, so any K works.
     *  The re-insert is not counted as calendar work: the restored
     *  calendar-op total already holds the original insert. */
    void ckptSchedule(Event &ev, std::uint16_t domain, Tick when,
                      std::uint64_t key);

    /** Per-domain sequence counters + kernel window/crossing counters
     *  + lifetime executed total. */
    void ckptSaveCounters(ckpt::Writer &w) const;
    void ckptLoadCounters(ckpt::Reader &r);

  private:
    friend class DomainPort;

    /** One cross-shard handoff: the key was already assigned by the
     *  sending domain, so insertion order cannot perturb the total
     *  order. */
    struct MailRec {
        Event *ev;
        Tick when;
        std::uint64_t key;
    };

    /**
     * Single-writer mailbox for one (source, destination) shard pair.
     * Double-buffered: with only one barrier crossing per window, the
     * destination drains the *previous* window's plane while the
     * source already appends to the current one; the planes swap at
     * every crossing, and a plane is always cleared by its drainer a
     * full crossing before its writer touches it again. Each plane
     * also tracks the two earliest mailed ticks so the window planner
     * can account for in-flight events without reading the records.
     */
    struct Plane {
        std::vector<MailRec> recs;
        Tick min1 = maxTick;
        Tick min2 = maxTick;
    };
    struct alignas(64) Mailbox {
        Plane planes[2];
    };

    struct alignas(64) Shard {
        EventQueue queue;
        /** Domain of the event currently executing (EventQueue domain
         *  sink); keys for schedules made during execution come from
         *  this domain's counter. */
        std::uint16_t curDomain = bootDomain;
        /** Mailbox plane this shard currently writes (window parity). */
        unsigned curPlane = 0;
        /** Two earliest pending ticks of this shard's queue,
         *  published before each barrier arrival. */
        Tick e1 = maxTick;
        Tick e2 = maxTick;
        /** Where this shard's window actually ended (batched windows
         *  may truncate early); published before arrival. */
        Tick achievedEnd = 0;
        /** Cross-domain schedules since the batch started; any such
         *  send truncates a batched window at the next sub-boundary
         *  (counted for every K, so truncation is K-independent). */
        std::uint64_t crossDomainSends = 0;
    };

    struct alignas(64) DomainSeq {
        std::uint64_t next = 0;
    };

    /** Centralized sense-reversing spin barrier; the last arriver
     *  runs a callback (window planning) before releasing. */
    class Barrier
    {
      public:
        explicit Barrier(unsigned n) : n_(n) {}

        template <typename F>
        void
        arrive(F on_last)
        {
            unsigned gen = gen_.load(std::memory_order_acquire);
            if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n_) {
                count_.store(0, std::memory_order_relaxed);
                on_last();
                gen_.fetch_add(1, std::memory_order_release);
                return;
            }
            wait(gen);
        }

      private:
        void wait(unsigned gen) const;

        unsigned n_;
        std::atomic<unsigned> count_{0};
        std::atomic<unsigned> gen_{0};
    };

    /** Bits available for the per-domain sequence below the priority
     *  byte and the 10-bit domain field. */
    static constexpr std::uint64_t seqBits = 46;

    static std::uint64_t
    packKey(EventPriority prio, std::uint16_t domain,
            std::uint64_t seq)
    {
        dsp_assert_key_seq(seq);
        return (static_cast<std::uint64_t>(prio) << 56) |
               (static_cast<std::uint64_t>(domain) << seqBits) | seq;
    }

    /** Out-of-line so logging.hh stays out of this header. */
    static void dsp_assert_key_seq(std::uint64_t seq);

    void scheduleOn(std::uint16_t domain, unsigned target_shard,
                    Event &ev, Tick when, EventPriority prio);

    Mailbox &
    mailbox(unsigned src, unsigned dst)
    {
        return mail_[src * numShards_ + dst];
    }

    void workerLoop(unsigned shard);
    void planNext();
    void checkProgress(Tick earliest);
    [[noreturn]] void panicStalled(Tick earliest);
    int panicHookId_ = 0;  ///< "sharded-kernel" diagnostics hook
    void drainInbox(unsigned shard, unsigned plane);
    void runBatch(Shard &mine);
    void startWorkers();

    unsigned numShards_;
    std::vector<unsigned> domainShard_;
    Tick lookahead_;

    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<Mailbox> mail_;
    std::vector<DomainSeq> domainSeq_;  ///< index 0 unused; last = boot

    Barrier barrier_;

    /**
     * Window plan, written by the barrier's last arriver only. One
     * crossing serves a whole window: each shard publishes its queue
     * summary and outbound-mail minima *before* arriving, so the last
     * arriver can plan the next window and release in a single
     * crossing (the second barrier the old design used to separate
     * runs from drains is replaced by the double-buffered mailboxes).
     */
    struct Plan {
        Tick start = 0;   ///< global earliest pending tick
        Tick end = 0;     ///< exclusive window end
        /** Previous window's achieved end: the floor for this
         *  crossing's mailbox drains and clock harmonization. */
        Tick resume = 0;
        bool stop = false;
        /** Solo-shard batch: only `solo` has events before `end`
         *  (everyone else's earliest is at/after it), so it may run
         *  up to maxBatchWindows L-sub-windows in this one crossing,
         *  truncating at the first sub-boundary after a cross-domain
         *  send. */
        bool batch = false;
        unsigned solo = 0;
    };
    Plan plan_;

    /** Most windows a single crossing may cover in a quiet stretch. */
    static constexpr Tick maxBatchWindows = 16;

    bool firstCrossing_ = true;  ///< no window precedes the next plan
    bool stoppedByPredicate_ = false;
    const std::function<bool()> *stopFn_ = nullptr;

    // -- kernel-level counters (written by the planner only; read
    //    while quiescent). barrierCrossings()/windowsRun() feed the
    //    bench's barriers_per_window stat.
    std::uint64_t crossings_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t batchedWindows_ = 0;

    // -- progress watchdog (planner-only state). Every crossing runs
    //    with all shards quiescent, so executed() is exact there; if
    //    it fails to advance across stallCrossingLimit_ consecutive
    //    crossings while events still pend, the kernel is wedged --
    //    dump per-shard diagnostics and panic instead of spinning
    //    silently forever.
    std::uint64_t watchdogExecuted_ = ~std::uint64_t{0};
    unsigned stalledCrossings_ = 0;
    unsigned stallCrossingLimit_ = 64;
    bool stallTestFreeze_ = false;  ///< see injectStallForTest()

  public:
    /** Window/shard diagnostics (plan, per-shard clocks and queue
     *  depths) to stderr. Registered as a panic hook, so every death
     *  path -- watchdog panic, oracle violation, bench abort --
     *  includes this dump. Requires quiescence (or a dying process,
     *  where a torn read beats no dump). */
    void dumpDiagnostics() const;

    /** Barrier crossings over the kernel's lifetime. */
    std::uint64_t barrierCrossings() const { return crossings_; }

    /** Lookahead windows executed (batched sub-windows included). */
    std::uint64_t windowsRun() const { return windows_; }

    /** Windows that rode along in a batch without their own crossing. */
    std::uint64_t batchedWindows() const { return batchedWindows_; }

    /**
     * Test-only fault injection for the progress watchdog: lower the
     * stall threshold to `limit` crossings and freeze the watchdog's
     * executed-events baseline, so an otherwise healthy run presents
     * exactly like a wedged kernel (events pending, barrier crossings
     * advancing, zero observed progress) and the dump+panic path can
     * be exercised deterministically.
     */
    void
    injectStallForTest(unsigned limit)
    {
        setStallLimitForTest(limit);
        stallTestFreeze_ = true;
    }

    /** Test-only: lower the stall threshold without freezing the
     *  progress signal (tests that the watchdog stays quiet on
     *  healthy runs even at an aggressive limit). */
    void
    setStallLimitForTest(unsigned limit)
    {
        stallCrossingLimit_ = limit;
    }

  private:

    /**
     * Persistent worker threads (shards 1..K-1), spawned lazily at
     * the first run() and parked on a condition variable between
     * runs. Reusing threads keeps the per-thread immortal pools --
     * and their slab memory -- bounded per kernel instead of growing
     * with every run() call.
     */
    std::vector<std::thread> workers_;
    std::mutex parkMutex_;
    std::condition_variable parkCv_;
    std::uint64_t runGen_ = 0;   ///< bumped per run(); guarded by mutex
    unsigned activeWorkers_ = 0; ///< workers inside the current run
    bool shutdown_ = false;
};

} // namespace dsp

#endif // DSP_SIM_SHARDED_KERNEL_HH
