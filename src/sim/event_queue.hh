/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A two-level calendar/bucket queue over intrusive events. Coherence
 * traffic is overwhelmingly short-horizon (link hops, controller
 * latencies, CPU quanta -- all well under a microsecond), so the queue
 * keeps a power-of-two ring of tick buckets covering the next ~2 us:
 * schedule and execute are O(1) there, with a two-level occupancy
 * bitmap skipping empty buckets in a handful of bit operations. Events
 * beyond the ring's horizon -- rare -- wait in a small 4-ary overflow
 * heap and migrate into the ring as the window advances past them.
 *
 * Events are intrusive (sim/event.hh): bucket linkage lives inside the
 * Event, events are recycled through slab pools, and the whole
 * schedule/execute path performs zero heap allocations. Ties are
 * broken first by an explicit priority, then by insertion order, so
 * execution is fully deterministic and identical to the total order
 * the previous heap-based kernel produced.
 */

#ifndef DSP_SIM_EVENT_QUEUE_HH
#define DSP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace dsp {

/** Scheduling priority; lower values run first at equal ticks.
 *  Values must fit in a byte (the queue packs them above the 56-bit
 *  insertion sequence to form one 64-bit tiebreak key). */
enum class EventPriority : int {
    NetworkOrder = 0,   ///< interconnect ordering-point events
    Delivery = 10,      ///< message deliveries
    Controller = 20,    ///< cache/memory controller work
    Cpu = 30,           ///< processor model ticks
    Stats = 40,         ///< bookkeeping
    Default = 50,
};

/**
 * Deterministic discrete-event queue.
 *
 * Not thread safe: under the sharded kernel each queue is touched only
 * by its owning shard's thread (other shards hand it events through
 * mailboxes, drained by that thread), and between runs by the single
 * boot thread.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule an intrusive event at absolute tick `when` (>= now). */
    void schedule(Event &ev, Tick when,
                  EventPriority prio = EventPriority::Default);

    /** Schedule an intrusive event `delay` ticks from now. */
    void
    scheduleIn(Event &ev, Tick delay,
               EventPriority prio = EventPriority::Default)
    {
        schedule(ev, now_ + delay, prio);
    }

    /**
     * Schedule a callable at absolute tick `when` (>= now). The
     * callable is moved into a pooled CallbackEvent; its captures live
     * in the slab slot, so no heap allocation occurs.
     */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    schedule(Tick when, F cb,
             EventPriority prio = EventPriority::Default)
    {
        assertSchedulable(when);
        schedule(*CallbackEvent<F>::make(std::move(cb)), when, prio);
    }

    /** Schedule a callable `delay` ticks from now. */
    template <typename F,
              typename = std::enable_if_t<std::is_invocable_v<F &>>>
    void
    scheduleIn(Tick delay, F cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, std::move(cb), prio);
    }

    /**
     * Schedule an intrusive event with a caller-supplied tiebreak key.
     * The queue only requires that keys at equal ticks are unique and
     * that the priority occupies the top byte; the sharded kernel
     * packs (priority << 56 | 10-bit domain << 46 | 46-bit per-domain
     * seq), while this queue's own schedule() packs (priority << 56 |
     * 56-bit per-queue seq) -- the spaces stay disjoint because
     * kernel domain ids are nonzero and a queue-local sequence
     * cannot reach bit 46 in any realistic run (2^46 events on one
     * queue). The key is assigned by the *sending* domain and carried
     * across shard boundaries, so the resulting total order is
     * independent of which shard the event is inserted from -- the
     * foundation of the K-shard == 1-shard determinism contract.
     */
    void scheduleWithKey(Event &ev, Tick when, std::uint64_t key);

    /**
     * Cancel a scheduled event: remove it from the queue and release()
     * it (pooled events are recycled immediately; member events become
     * reschedulable).
     */
    void deschedule(Event &ev);

    /** Calendar work over the queue's lifetime: schedule insertions
     *  plus executed pops. */
    std::uint64_t calendarOps() const { return inserts_ + pops_; }

    /** Restore the lifetime calendar-op counter from a checkpoint. */
    void
    ckptSetCalendarOps(std::uint64_t n)
    {
        inserts_ = n;
        pops_ = 0;
    }

    /** True if no events remain. */
    bool
    empty() const
    {
        return ringLive_ == 0 && heap_.empty();
    }

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick
    earliestTick() const
    {
        return empty() ? maxTick : peekEarliest()->when_;
    }

    /**
     * Ticks of the two earliest pending events, as a multiset (two
     * events at one tick report it twice); maxTick fills absent
     * slots. The sharded kernel merges these across shards to decide
     * whether a quiet stretch can be batched into one wide window.
     */
    void earliestTwo(Tick &first, Tick &second) const;

    /**
     * Advance the clock to `t` without executing anything; all
     * pending events must lie strictly after `t`. Equivalent to the
     * trailing clock advance of run(t), for shards that provably had
     * nothing to run in a window (batched windows skip their run()).
     */
    void advanceTo(Tick t);

    /**
     * Route the domain id of every executed event into `sink`
     * (before its process() runs). The sharded kernel points this at
     * the shard's current-domain latch so schedules made *during* an
     * event execution are keyed by the executing domain.
     */
    void
    setDomainSink(std::uint16_t *sink)
    {
        domainSink_ = sink != nullptr ? sink : &dummyDomain_;
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return ringLive_ + heap_.size();
    }

    /** Execute the single earliest event, advancing time. */
    void step();

    /**
     * Run until the queue drains or `limit` ticks is reached (events at
     * tick > limit remain queued). Returns number of events executed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /** Restore the lifetime executed counter from a checkpoint. */
    void ckptSetExecuted(std::uint64_t n) { executed_ = n; }

    /**
     * Visit every pending event (both planes, no particular order)
     * with its scheduling coordinates: fn(ev, when, key, domain).
     * Checkpointing uses this to enumerate in-flight events at a
     * quiescent barrier; callers sort by (when, key) themselves to
     * get the shard-count-independent canonical order.
     */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (const Bucket &bucket : buckets_) {
            for (Event *ev = bucket.head; ev != nullptr;
                 ev = ev->next_) {
                fn(*ev, ev->when_, ev->key_, ev->domain_);
            }
        }
        for (const HeapEntry &entry : heap_)
            fn(*entry.ev, entry.when, entry.key, entry.ev->domain_);
    }

    // ---- calendar geometry (public so tests can straddle it) -------------

    /** log2 of the tick width of one calendar bucket. */
    static constexpr std::size_t bucketShift = 9;

    /** Number of ring buckets (power of two). */
    static constexpr std::size_t bucketCount = 4096;

    /** Tick span of one bucket (512 ticks ~ half a nanosecond). */
    static constexpr Tick bucketWidth = Tick{1} << bucketShift;

    /**
     * Tick span the ring covers ahead of the window start (~2.1 us).
     * Events scheduled farther out go to the overflow heap first.
     */
    static constexpr Tick ringHorizon = bucketWidth * bucketCount;

  private:
    static constexpr std::size_t bucketMask = bucketCount - 1;

    /** Bitmap words covering the ring (64 buckets per word). */
    static constexpr std::size_t bitmapWords = bucketCount / 64;

    /** One calendar bucket: a (when, key)-sorted doubly-linked list
     *  threaded through the events themselves. */
    struct Bucket {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    /**
     * One overflow-heap slot: the full ordering key plus the event.
     * Priority (one byte) is packed above a 56-bit insertion sequence,
     * so the (tick, priority, sequence) contract is two integer
     * compares.
     */
    struct HeapEntry {
        Tick when;
        std::uint64_t key;
        Event *ev;
    };

    /** 4-ary heap: half the depth of a binary heap, and the four
     *  children of a node share one or two cache lines. */
    static constexpr std::size_t heapArity = 4;

    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    void assertSchedulable(Tick when) const;

    // ---- ring plane -------------------------------------------------------

    static std::size_t
    bucketOf(Tick when)
    {
        return static_cast<std::size_t>(when >> bucketShift) &
               bucketMask;
    }

    /** Index of the bucket the window starts at (== bucketOf of the
     *  window start, which aliases bucketOf(ringLimit_)). */
    std::size_t cursor() const { return bucketOf(ringLimit_); }

    void setOccupied(std::size_t b);
    void clearOccupied(std::size_t b);

    /** First occupied bucket in window order from the cursor; the
     *  ring must be non-empty. */
    std::size_t firstOccupiedBucket() const;

    /** Next occupied bucket strictly after `b` in window order, or
     *  bucketCount if none. */
    std::size_t nextOccupiedAfter(std::size_t b) const;

    /** Insert a prepared event (when_/key_/scheduled_ set) into its
     *  plane, counting the insert. */
    void insertPrepared(Event &ev);

    /** Insert a prepared event (when_/key_ set) into its bucket's
     *  sorted list. */
    void ringInsert(Event &ev);

    /** Unlink a ring event from its bucket. */
    void ringRemove(Event &ev);

    /**
     * Grow the ring window so `upTo` lies strictly below ringLimit_,
     * migrating overflow events that fall inside the new window.
     */
    void advanceWindow(Tick upTo);

    /** Earliest pending event, whichever plane holds it; no side
     *  effects. The queue must be non-empty. */
    Event *peekEarliest() const;

    /** Detach and run one event (the current minimum, from either
     *  plane). */
    void execute(Event *ev);

    // ---- overflow plane ---------------------------------------------------

    void heapPush(Event &ev);
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Detach the event at heap slot `i`, restoring the heap. */
    Event *heapRemoveAt(std::size_t i);

    void
    place(std::size_t i, const HeapEntry &entry)
    {
        heap_[i] = entry;
        entry.ev->heapIndex_ = i;
    }

    std::vector<Bucket> buckets_;
    std::vector<std::uint64_t> occupied_;  ///< per-word bucket bitmap
    std::uint64_t occupiedSummary_ = 0;    ///< bit per bitmap word
    std::size_t ringLive_ = 0;
    Tick ringLimit_ = ringHorizon;  ///< exclusive upper ring coverage

    std::vector<HeapEntry> heap_;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t inserts_ = 0;
    std::uint64_t pops_ = 0;

    /** Where execute() publishes the running event's domain id.
     *  Defaults to an internal dummy so the store is unconditional. */
    std::uint16_t dummyDomain_ = 0;
    std::uint16_t *domainSink_ = &dummyDomain_;
};

} // namespace dsp

#endif // DSP_SIM_EVENT_QUEUE_HH
