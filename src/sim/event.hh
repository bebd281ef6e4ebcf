/**
 * @file
 * Intrusive events and slab/free-list event pools.
 *
 * The discrete-event kernel schedules hundreds of events per simulated
 * miss; with the original std::function design every one of them cost
 * a heap allocation. Here an event is an intrusive object: its queue
 * linkage (tick, priority, sequence number, heap slot) lives inside the
 * Event itself, and short-lived events are recycled through per-type
 * slab pools, so the steady-state schedule/execute path performs no
 * heap allocation at all.
 *
 * Two usage styles:
 *
 *  - Member events: a component owns the Event as a field and
 *    reschedules it (at most one outstanding). release() is a no-op;
 *    the owner must deschedule() it before destruction.
 *  - Pooled events: acquired from an EventPool, automatically returned
 *    to the pool after process() (or on deschedule). CallbackEvent
 *    wraps any callable this way, giving each distinct callable type
 *    its own pool; EventQueue's template schedule() uses it.
 */

#ifndef DSP_SIM_EVENT_HH
#define DSP_SIM_EVENT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/pool_registry.hh"
#include "sim/slab_pool.hh"
#include "sim/types.hh"

#include <typeinfo>

namespace dsp {

class EventQueue;
class ShardedKernel;

namespace ckpt {
class Writer;
} // namespace ckpt

/**
 * Base class of everything the EventQueue can schedule.
 *
 * An Event may be in at most one queue at a time. process() runs at
 * the scheduled tick; release() is called by the queue once the event
 * leaves it (after process(), on deschedule, or at queue destruction)
 * and returns pooled events to their pool. process() may re-insert
 * the event itself (a CPU resume slice re-inserting at its next
 * quantum); the queue skips release() while the event is scheduled,
 * so pooled self-rescheduling events are safe.
 */
class Event
{
  public:
    Event() = default;
    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Execute the event at its scheduled tick. */
    virtual void process() = 0;

    /**
     * Hand the event back to its allocator once it has left the queue.
     * Default: no-op (member / statically-owned events).
     */
    virtual void release() {}

    /**
     * Serialize this in-flight event (tag byte + payload) into a
     * checkpoint. Every event type that can be pending at a quiescent
     * kernel barrier must override this; the default panics naming the
     * concrete type so an unserializable event (e.g. a raw lambda via
     * CallbackEvent) fails the checkpoint loudly instead of being
     * silently dropped.
     */
    virtual void
    ckptSave(ckpt::Writer &) const
    {
        dsp_panic("event type %s is not checkpoint-serializable",
                  typeid(*this).name());
    }

    /** True while the event sits in a queue. */
    bool scheduled() const { return scheduled_; }

    /** Scheduled tick (meaningful only while scheduled). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;
    friend class ShardedKernel;

    static constexpr std::size_t invalidHeapIndex =
        std::numeric_limits<std::size_t>::max();

    /**
     * Queue linkage. A scheduled event lives in exactly one of the
     * queue's two planes:
     *
     *  - the calendar ring (short horizon): a per-bucket doubly-linked
     *    list sorted by (when, key), threaded through prev_/next_;
     *  - the overflow heap (far future): heapIndex_ records its slot.
     *
     * heapIndex_ == invalidHeapIndex distinguishes the two. The full
     * ordering key (priority byte above a 56-bit insertion sequence)
     * is cached in key_ so list insertion never recomputes it.
     */
    Tick when_ = 0;
    std::uint64_t key_ = 0;
    Event *prev_ = nullptr;
    Event *next_ = nullptr;
    std::size_t heapIndex_ = invalidHeapIndex;
    bool scheduled_ = false;
    /** Logical domain the event executes in (sharded kernel only;
     *  0 for events scheduled on a standalone queue). Fits in the
     *  padding after scheduled_. */
    std::uint16_t domain_ = 0;
};

/** Aggregate counters for one pool (or, summed, for all pools). */
struct EventPoolStats {
    std::uint64_t acquires = 0;         ///< events handed out
    std::uint64_t releases = 0;         ///< events returned
    std::uint64_t slabAllocations = 0;  ///< backing-store mallocs
    std::uint64_t slabBytes = 0;        ///< backing-store footprint

    /** Events currently live (scheduled or executing). */
    std::uint64_t live() const { return acquires - releases; }
};

EventPoolStats eventPoolStats();

/**
 * Registry node so aggregate statistics can walk every pool.
 *
 * Pools are per thread (see EventPool::instance()) and are immortal
 * (see sim/pool_registry.hh): a pool's slabs must outlive its owning
 * thread because pooled events allocated on one shard thread may be
 * executed -- and their slots recycled -- on another. When the owning
 * thread exits, its pools pass to the next thread that needs them.
 */
class EventPoolBase
{
  public:
    const EventPoolStats &stats() const { return stats_; }

  protected:
    EventPoolBase() = default;
    ~EventPoolBase() = default;

    EventPoolStats stats_;
};

/**
 * Total pool activity across the process (all threads' pools). The
 * hot-path invariant the tests pin down: once pools are warm,
 * slabAllocations stays constant while acquires keeps growing -- i.e.
 * zero heap allocations per event. Only call while no shard workers
 * are running.
 */
inline EventPoolStats
eventPoolStats()
{
    EventPoolStats total;
    PoolRegistry<EventPoolBase>::forEach(
        [&](const EventPoolBase &pool) {
            total.acquires += pool.stats().acquires;
            total.releases += pool.stats().releases;
            total.slabAllocations += pool.stats().slabAllocations;
            total.slabBytes += pool.stats().slabBytes;
        });
    return total;
}

/**
 * Slab allocator with an intrusive free list for one concrete event
 * type. Slots are carved out of fixed-size slabs (one malloc per
 * `slabSlots` events, kept for the lifetime of the process); the free
 * list threads through the slots themselves, so acquire/release touch
 * no allocator.
 *
 * instance() returns a *per-thread* pool, so the common same-thread
 * acquire/release path is lock-free and allocator-free under the
 * sharded kernel; cross-thread recycling (a cross-shard event:
 * acquired at the sender, executed at the destination) goes through
 * the shared SlabArena machinery (sim/slab_pool.hh), which bounds
 * slab memory by the peak number of live events, not the event
 * count. Pool objects (and their slabs) are never freed; a thread
 * that exits retires its pools and later threads adopt them (see
 * sim/pool_registry.hh), so that bound holds across Systems too.
 * Cache-line aligned: an adopted pool may sit next to one that
 * another thread now owns, and the two must not share a line.
 */
template <typename T>
class alignas(64) EventPool : public EventPoolBase
{
    static_assert(std::is_base_of_v<Event, T>,
                  "EventPool manages Event subclasses");

  public:
    static EventPool &
    instance()
    {
        // Constant-initialized thread_local: no init-guard call on
        // the (very hot) common path, just a TLS load and null test.
        static thread_local EventPool *pool;
        EventPool *p = pool;
        if (__builtin_expect(p == nullptr, false)) {
            p = PoolRegistry<EventPoolBase>::claim<EventPool>();
            pool = p;
        }
        return *p;
    }

    /** Construct a T in a recycled (or fresh) slot. */
    template <typename... Args>
    T *
    acquire(Args &&...args)
    {
        ++stats_.acquires;
        return new (static_cast<void *>(&arena_.acquire()->storage))
            T(std::forward<Args>(args)...);
    }

    /** Destroy a T and recycle its slot (from any thread). */
    void
    release(T *event)
    {
        event->~T();
        ++stats_.releases;
        // The storage array is the Slot's first member, so the event
        // pointer is the slot pointer.
        arena_.release(reinterpret_cast<Slot *>(event));
    }

  private:
    friend class PoolRegistry<EventPoolBase>;

    struct Slot {
        /** Object storage; first member so T* == Slot*. */
        alignas(T) unsigned char storage[sizeof(T)];
        Slot *next = nullptr;   ///< arena free-list linkage
        void *home = nullptr;   ///< arena owning the slab
    };

    EventPool()
        : arena_(&stats_.slabAllocations, &stats_.slabBytes)
    {
    }

    SlabArena<Slot> arena_;
};

/**
 * Pooled event wrapping an arbitrary callable. Each distinct callable
 * type (in practice: each lambda at each call site) gets its own slab
 * pool, and the captures live inside the slot -- scheduling a lambda
 * through this path is heap-allocation free.
 */
template <typename F>
class CallbackEvent final : public Event
{
  public:
    explicit CallbackEvent(F &&fn) : fn_(std::move(fn)) {}

    static CallbackEvent *
    make(F fn)
    {
        return EventPool<CallbackEvent>::instance().acquire(
            std::move(fn));
    }

    void process() override { fn_(); }

    void
    release() override
    {
        EventPool<CallbackEvent>::instance().release(this);
    }

  private:
    F fn_;
};

} // namespace dsp

#endif // DSP_SIM_EVENT_HH
