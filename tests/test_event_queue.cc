/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace dsp {
namespace {

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByPriorityThenInsertion)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(2); },
               EventPriority::Controller);
    q.schedule(5, [&]() { order.push_back(1); },
               EventPriority::NetworkOrder);
    q.schedule(5, [&]() { order.push_back(3); },
               EventPriority::Controller);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&q, &seen]() {
        q.scheduleIn(50, [&q, &seen]() { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 5)
            q.scheduleIn(10, chain);
    };
    q.scheduleIn(10, chain);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesClock)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() { ++fired; });
    q.schedule(100, [&]() { ++fired; });
    std::uint64_t n = q.run(50);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, []() {});
    q.run();
    PanicGuard guard;
    EXPECT_THROW(q.schedule(50, []() {}), std::runtime_error);
}

TEST(EventQueue, StepOnEmptyPanics)
{
    EventQueue q;
    PanicGuard guard;
    EXPECT_THROW(q.step(), std::runtime_error);
}

TEST(EventQueue, SameTickSchedulingAllowed)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&]() {
        q.schedule(10, [&]() { ++fired; });  // same tick, runs after
    });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue q;
    for (int i = 0; i < 10; ++i)
        q.schedule(static_cast<Tick>(i), []() {});
    q.run();
    EXPECT_EQ(q.executed(), 10u);
}

TEST(EventQueue, DeterministicAcrossIdenticalRuns)
{
    auto run_once = []() {
        EventQueue q;
        std::vector<int> order;
        for (int i = 0; i < 100; ++i) {
            q.schedule(static_cast<Tick>(i % 7),
                       [&order, i]() { order.push_back(i); });
        }
        q.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(TickConversion, NsRoundTrip)
{
    EXPECT_EQ(nsToTicks(50.0), 50u * ticksPerNs);
    EXPECT_DOUBLE_EQ(ticksToNs(nsToTicks(112.0)), 112.0);
    EXPECT_EQ(nsToTicks(0.5), ticksPerNs / 2);
}

// ---- intrusive events and pools ------------------------------------------

/** Member-style event: records its execution; never pooled. */
struct RecordingEvent final : Event {
    void process() override { log->push_back(id); }
    std::vector<int> *log = nullptr;
    int id = 0;
};

/** Pool-style event, as the interconnect/system message events use. */
struct PooledTestEvent final : Event {
    PooledTestEvent(std::vector<int> *l, int i) : log(l), id(i) {}

    void process() override { log->push_back(id); }

    void
    release() override
    {
        EventPool<PooledTestEvent>::instance().release(this);
    }

    std::vector<int> *log;
    int id;
};

TEST(EventQueueIntrusive, MemberEventRunsAndReschedules)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent ev;
    ev.log = &log;
    ev.id = 1;

    q.schedule(ev, 10);
    EXPECT_TRUE(ev.scheduled());
    q.run();
    EXPECT_FALSE(ev.scheduled());

    // A member event is reusable after it executed.
    ev.id = 2;
    q.schedule(ev, 20);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueueIntrusive, SameTickSamePriorityRunsInInsertionOrder)
{
    EventQueue q;
    std::vector<int> log;
    // Mix pooled, member, and lambda events at one (tick, priority):
    // execution must follow insertion order exactly.
    auto &pool = EventPool<PooledTestEvent>::instance();
    RecordingEvent member;
    member.log = &log;
    member.id = 2;

    q.schedule(*pool.acquire(&log, 1), 5, EventPriority::Controller);
    q.schedule(member, 5, EventPriority::Controller);
    q.schedule(5, [&log]() { log.push_back(3); },
               EventPriority::Controller);
    q.schedule(*pool.acquire(&log, 4), 5, EventPriority::Controller);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueIntrusive, DescheduleCancelsAndRecyclesPooledEvent)
{
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    PooledTestEvent *cancelled = pool.acquire(&log, 99);
    q.schedule(*cancelled, 10);
    q.schedule(*pool.acquire(&log, 1), 20);

    EventPoolStats before = pool.stats();
    q.deschedule(*cancelled);
    EXPECT_EQ(pool.stats().releases, before.releases + 1);

    // The free list is LIFO: the cancelled slot is reused immediately,
    // proving the cancellation returned it to the pool.
    PooledTestEvent *recycled = pool.acquire(&log, 2);
    EXPECT_EQ(static_cast<void *>(recycled),
              static_cast<void *>(cancelled));
    q.schedule(*recycled, 5);

    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));  // 99 never ran
}

TEST(EventQueueIntrusive, DescheduleMiddleOfHeapKeepsOrdering)
{
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    std::vector<PooledTestEvent *> events;
    for (int i = 0; i < 16; ++i) {
        events.push_back(pool.acquire(&log, i));
        q.schedule(*events.back(), static_cast<Tick>(10 * (i + 1)));
    }
    // Cancel the odd ones, in arbitrary order.
    for (int i = 15; i >= 1; i -= 2)
        q.deschedule(*events[static_cast<std::size_t>(i)]);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{0, 2, 4, 6, 8, 10, 12, 14}));
}

TEST(EventPool, SteadyStateSchedulingAllocatesNoSlabs)
{
    EventQueue q;
    // A function pointer gives every schedule below the same pooled
    // event type (lambdas would each get their own pool).
    using Fn = void (*)();
    Fn noop = +[]() {};

    // Warm the pool past the largest wave used below.
    for (Tick t = 0; t < 600; ++t)
        q.schedule(t, noop);
    q.run();

    EventPoolStats before = eventPoolStats();
    constexpr std::uint64_t waves = 100;
    constexpr std::uint64_t perWave = 500;
    for (std::uint64_t w = 0; w < waves; ++w) {
        for (Tick t = 0; t < perWave; ++t)
            q.schedule(q.now() + t, noop);
        q.run();
    }
    EventPoolStats after = eventPoolStats();

    // The acceptance invariant: once pools are warm, the schedule /
    // execute path performs zero heap allocations -- slab count and
    // footprint stay exactly flat while tens of thousands of events
    // cycle through.
    EXPECT_EQ(after.slabAllocations, before.slabAllocations);
    EXPECT_EQ(after.slabBytes, before.slabBytes);
    EXPECT_EQ(after.acquires - before.acquires, waves * perWave);
    EXPECT_EQ(after.live(), before.live());
}

TEST(EventQueueIntrusive, PendingPooledEventsReleasedOnQueueDestruction)
{
    auto &pool = EventPool<PooledTestEvent>::instance();
    std::vector<int> log;
    EventPoolStats before = pool.stats();
    {
        EventQueue q;
        q.schedule(*pool.acquire(&log, 1), 100);
        q.schedule(*pool.acquire(&log, 2), 200);
        // Destroyed with events pending.
    }
    EventPoolStats after = pool.stats();
    EXPECT_EQ(after.acquires - before.acquires, 2u);
    EXPECT_EQ(after.releases - before.releases, 2u);
    EXPECT_TRUE(log.empty());
}

/** Pooled event that re-inserts *itself* (same queue, future tick)
 *  until its hop budget runs out -- the shape of SimpleCpu's resume
 *  slice. The queue's execute() must skip release() while the event
 *  is scheduled, and deschedule() must recycle it exactly once. */
struct SelfChain final : Event {
    EventQueue *q = nullptr;
    int hopsLeft = 0;
    int executed = 0;

    SelfChain(EventQueue &queue, int hops) : q(&queue), hopsLeft(hops)
    {
    }

    void
    process() override
    {
        ++executed;
        if (--hopsLeft > 0)
            q->schedule(*this, q->now() + 10, EventPriority::Delivery);
    }

    void
    release() override
    {
        EventPool<SelfChain>::instance().release(this);
    }
};

TEST(EventQueueIntrusive, DescheduleMidChainRecyclesThePooledEvent)
{
    EventPoolStats before = eventPoolStats();
    EventQueue q;
    SelfChain &chain =
        *EventPool<SelfChain>::instance().acquire(q, 4);
    q.schedule(chain, 10, EventPriority::Delivery);

    // Two hops execute (10, 20); the third insertion at 30 sits
    // beyond the window and stays pending.
    q.run(25);
    EXPECT_EQ(chain.executed, 2);
    EXPECT_EQ(q.pending(), 1u);

    // Cancel mid-chain: the event leaves the queue and goes back to
    // its pool exactly once (live count returns to the baseline).
    q.deschedule(chain);
    EXPECT_TRUE(q.empty());
    EventPoolStats after = eventPoolStats();
    EXPECT_EQ(after.live(), before.live());
    EXPECT_EQ(after.acquires - before.acquires, 1u);
    EXPECT_EQ(after.releases - before.releases, 1u);
}

TEST(EventQueueIntrusive, SelfRescheduleSurvivesTheReleaseSkipAndDrains)
{
    EventPoolStats before = eventPoolStats();
    EventQueue q;
    SelfChain &chain =
        *EventPool<SelfChain>::instance().acquire(q, 3);
    q.schedule(chain, 10, EventPriority::Delivery);

    // Run to completion: the final hop does not re-insert, so the
    // queue's execute() releases the event normally.
    q.run();
    EXPECT_TRUE(q.empty());
    EventPoolStats after = eventPoolStats();
    EXPECT_EQ(after.live(), before.live());
    EXPECT_EQ(after.releases - before.releases, 1u);
}

// ---- calendar-queue specifics --------------------------------------------
//
// The queue is a two-level calendar: a ring of per-tick-range buckets
// covering EventQueue::ringHorizon ticks ahead, plus an overflow heap
// for events farther out. These tests straddle that boundary.

constexpr Tick kHorizon = EventQueue::ringHorizon;

TEST(EventQueueCalendar, SameTickOrderAcrossRingAndOverflow)
{
    // Events at one far-future tick land in the overflow heap, migrate
    // into the ring as time advances, and must still run in (priority,
    // insertion) order -- including against an event scheduled at the
    // same tick later, directly into the ring.
    EventQueue q;
    std::vector<int> log;
    const Tick far = 3 * kHorizon + 17;

    q.schedule(far, [&log]() { log.push_back(2); },
               EventPriority::Controller);
    q.schedule(far, [&log]() { log.push_back(3); },
               EventPriority::Controller);
    q.schedule(far, [&log]() { log.push_back(1); },
               EventPriority::NetworkOrder);
    // A stepping stone inside the first window, so the window advances
    // (and the far events migrate) before `far` executes.
    q.schedule(kHorizon / 2, [&q, &log, far]() {
        q.schedule(far, [&log]() { log.push_back(4); },
                   EventPriority::Controller);
    });

    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.now(), far);
}

TEST(EventQueueCalendar, DescheduleInsideAndOutsideHorizon)
{
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    // Near events sit in ring buckets, far events in the overflow
    // heap; deschedule must find and release both.
    PooledTestEvent *near_keep = pool.acquire(&log, 1);
    PooledTestEvent *near_cancel = pool.acquire(&log, 90);
    PooledTestEvent *far_keep = pool.acquire(&log, 2);
    PooledTestEvent *far_cancel = pool.acquire(&log, 91);

    q.schedule(*near_keep, 100);
    q.schedule(*near_cancel, 200);
    q.schedule(*far_cancel, 5 * kHorizon);
    q.schedule(*far_keep, 5 * kHorizon + 1);
    ASSERT_EQ(q.pending(), 4u);

    EventPoolStats before = pool.stats();
    q.deschedule(*near_cancel);
    q.deschedule(*far_cancel);
    EXPECT_EQ(pool.stats().releases, before.releases + 2);
    EXPECT_EQ(q.pending(), 2u);

    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueueCalendar, RingWrapKeepsTimeOrder)
{
    // March time across many ring laps; each event schedules the next
    // one most of a horizon ahead, so the cursor wraps the bucket
    // array repeatedly and buckets are reused lap after lap.
    EventQueue q;
    std::vector<Tick> fired;
    const Tick stride = kHorizon - 3 * EventQueue::bucketWidth;

    std::function<void()> hop = [&]() {
        fired.push_back(q.now());
        if (fired.size() < 40)
            q.scheduleIn(stride, hop);
    };
    q.scheduleIn(stride, hop);
    q.run();

    ASSERT_EQ(fired.size(), 40u);
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], (i + 1) * stride);
}

TEST(EventQueueCalendar, OverflowMigrationPreservesInterleaving)
{
    // Far events one-or-more horizons out interleave with near events
    // exactly by tick, regardless of which plane they started in.
    EventQueue q;
    std::vector<int> log;
    for (int lap = 0; lap < 4; ++lap) {
        Tick base = static_cast<Tick>(lap) * kHorizon;
        q.schedule(base + 7, [&log, lap]() { log.push_back(lap * 2); });
        q.schedule(base + kHorizon / 2,
                   [&log, lap]() { log.push_back(lap * 2 + 1); });
    }
    q.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueCalendar, RunWithLimitLeavesWindowSaneForLaterNearEvents)
{
    // Regression test: run(limit) peeking a far-future overflow event
    // (without executing it) must not advance the calendar window --
    // otherwise events scheduled afterwards at near ticks would land
    // in aliased buckets and execute after the far event, running
    // simulated time backwards.
    EventQueue q;
    std::vector<std::pair<int, Tick>> log;

    q.schedule(10 * kHorizon, [&]() { log.push_back({2, q.now()}); });
    EXPECT_EQ(q.run(1000), 0u);  // peeks the far event, runs nothing
    EXPECT_EQ(q.now(), 1000u);

    q.schedule(2000, [&]() { log.push_back({1, q.now()}); });
    q.run();

    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], (std::pair<int, Tick>{1, 2000}));
    EXPECT_EQ(log[1], (std::pair<int, Tick>{2, 10 * kHorizon}));
}

TEST(EventQueueCalendar, PendingOverflowEventsReleasedOnDestruction)
{
    auto &pool = EventPool<PooledTestEvent>::instance();
    std::vector<int> log;
    EventPoolStats before = pool.stats();
    {
        EventQueue q;
        q.schedule(*pool.acquire(&log, 1), 10);            // ring
        q.schedule(*pool.acquire(&log, 2), 7 * kHorizon);  // overflow
    }
    EventPoolStats after = pool.stats();
    EXPECT_EQ(after.acquires - before.acquires, 2u);
    EXPECT_EQ(after.releases - before.releases, 2u);
    EXPECT_TRUE(log.empty());
}

// ---- handler-scheduled events ---------------------------------------------

TEST(EventQueueCalendar, HandlerScheduledChainCostsOneInsertAndOnePopEach)
{
    // A ladder of events, each scheduled from the previous one's
    // handler, goes through the calendar like any other: after a
    // drained run with no deschedules, every executed event has cost
    // exactly one insert and one pop.
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&]() {
        if (++fired < 6)
            q.scheduleIn(5, chain);
    };
    q.schedule(10, chain);
    const std::uint64_t before = q.calendarOps();
    EXPECT_EQ(before, 1u);  // the seed's insert
    q.run();
    EXPECT_EQ(fired, 6);
    EXPECT_EQ(q.executed(), 6u);
    EXPECT_EQ(q.calendarOps(), 2 * q.executed());
}

TEST(EventQueueCalendar, HandlerScheduledEventsRunInExactTickOrder)
{
    // Events scheduled by a handler interleave with events scheduled
    // before the run in strict tick order.
    EventQueue q;
    std::vector<int> log;
    q.schedule(30, [&]() { log.push_back(30); });
    q.schedule(10, [&]() {
        q.schedule(40, [&]() { log.push_back(40); });
        q.schedule(20, [&]() { log.push_back(20); });
        log.push_back(10);
    });
    q.run();
    EXPECT_EQ(log, (std::vector<int>{10, 20, 30, 40}));
}

TEST(EventQueueCalendar, ManyDescendingInsertsFromOneHandlerKeepOrder)
{
    // Forty events scheduled from one handler in descending tick
    // order: every insert lands before the events already queued, and
    // the total order must still come out ascending.
    EventQueue q;
    std::vector<int> log;
    q.schedule(5, [&]() {
        for (int i = 40; i >= 1; --i) {
            q.schedule(static_cast<Tick>(10 * i),
                       [&log, i]() { log.push_back(i); });
        }
    });
    q.run();
    ASSERT_EQ(log.size(), 40u);
    for (int i = 1; i <= 40; ++i)
        EXPECT_EQ(log[static_cast<std::size_t>(i - 1)], i);
}

TEST(EventQueueCalendar, HandlerScheduledEventsSurviveRunBoundaries)
{
    // Events scheduled during one run() stay queued across the window
    // boundary: pending counts, earliest queries, forEachPending, and
    // a later run() all see them.
    EventQueue q;
    std::vector<int> log;
    q.schedule(10, [&]() {
        q.schedule(100, [&]() { log.push_back(100); });
        q.schedule(200, [&]() { log.push_back(200); });
    });
    EXPECT_EQ(q.run(50), 1u);
    EXPECT_EQ(q.pending(), 2u);

    Tick e1 = 0;
    Tick e2 = 0;
    q.earliestTwo(e1, e2);
    EXPECT_EQ(e1, 100u);
    EXPECT_EQ(e2, 200u);

    std::vector<Tick> seen;
    q.forEachPending([&](const Event &, Tick when, std::uint64_t,
                         std::uint16_t) { seen.push_back(when); });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<Tick>{100, 200}));

    q.run();
    EXPECT_EQ(log, (std::vector<int>{100, 200}));
}

TEST(EventQueueIntrusive, DescheduleOfHandlerScheduledEventRecyclesIt)
{
    // A pooled event scheduled by a handler and cancelled between
    // runs is released back to its pool, and the remaining events
    // keep their order.
    EventQueue q;
    std::vector<int> log;
    auto &pool = EventPool<PooledTestEvent>::instance();

    PooledTestEvent *cancelled = pool.acquire(&log, 99);
    q.schedule(10, [&]() {
        q.schedule(*pool.acquire(&log, 1), 20);
        q.schedule(*cancelled, 30);
        q.schedule(*pool.acquire(&log, 2), 40);
    });
    EXPECT_EQ(q.run(15), 1u);
    EXPECT_EQ(q.pending(), 3u);

    EventPoolStats before = pool.stats();
    q.deschedule(*cancelled);
    EXPECT_EQ(pool.stats().releases, before.releases + 1);
    EXPECT_EQ(q.pending(), 2u);

    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));  // 99 never ran
}

TEST(EventQueueIntrusive, PendingHandlerScheduledEventsReleasedOnDestruction)
{
    auto &pool = EventPool<PooledTestEvent>::instance();
    std::vector<int> log;
    EventPoolStats before = pool.stats();
    {
        EventQueue q;
        q.schedule(5, [&q, &pool, &log]() {
            q.schedule(*pool.acquire(&log, 1), 50);  // still pending
        });
        q.run(10);
    }
    EventPoolStats after = pool.stats();
    EXPECT_EQ(after.acquires - before.acquires, 1u);
    EXPECT_EQ(after.releases - before.releases, 1u);
    EXPECT_TRUE(log.empty());
}

/**
 * Randomized equivalence check: the calendar queue must produce
 * exactly the total order of a reference model that sorts stably by
 * (tick, priority, schedule order) -- the contract the previous
 * heap-based kernel implemented directly. Exercises ring scheduling,
 * overflow scheduling, migration, partial runs, and deschedules in
 * both planes.
 */
TEST(EventQueueCalendar, RandomizedHeapEquivalence)
{
    struct Ref {
        Tick when;
        int prio;
        std::size_t order;
        int id;
    };

    std::mt19937_64 rng(12345);
    const EventPriority prios[] = {
        EventPriority::NetworkOrder, EventPriority::Delivery,
        EventPriority::Controller, EventPriority::Cpu,
        EventPriority::Default,
    };

    EventQueue q;
    std::vector<int> executed;
    std::vector<Ref> refs;
    std::vector<bool> cancelled;
    auto &pool = EventPool<PooledTestEvent>::instance();
    std::vector<std::pair<int, PooledTestEvent *>> live;

    int next_id = 0;
    std::size_t order = 0;
    for (int round = 0; round < 30; ++round) {
        // Schedule a batch: mostly short-horizon, some far beyond it.
        std::uniform_int_distribution<Tick> near_d(0, kHorizon / 2);
        std::uniform_int_distribution<Tick> far_d(kHorizon,
                                                  4 * kHorizon);
        std::uniform_int_distribution<int> prio_d(0, 4);
        std::uniform_int_distribution<int> coin(0, 3);
        for (int i = 0; i < 60; ++i) {
            Tick when =
                q.now() + (coin(rng) == 0 ? far_d(rng) : near_d(rng));
            EventPriority prio =
                prios[static_cast<std::size_t>(prio_d(rng))];
            int id = next_id++;
            auto *ev = pool.acquire(&executed, id);
            q.schedule(*ev, when, prio);
            refs.push_back(
                Ref{when, static_cast<int>(prio), order++, id});
            cancelled.push_back(false);
            live.emplace_back(id, ev);
        }

        // Cancel a random quarter of whatever is still scheduled.
        for (std::size_t i = 0; i < live.size();) {
            if (live[i].second->scheduled() && coin(rng) == 0) {
                q.deschedule(*live[i].second);
                cancelled[static_cast<std::size_t>(live[i].first)] =
                    true;
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }

        // Run partway, so later rounds schedule into a mid-lap ring.
        // Events that executed were released back to the pool (their
        // slots may already be recycled), so prune by executed id --
        // poking ev->scheduled() on a released slot would be
        // use-after-free.
        q.run(q.now() + kHorizon / 3 + round * 911);
        std::vector<char> ran(static_cast<std::size_t>(next_id), 0);
        for (int id : executed)
            ran[static_cast<std::size_t>(id)] = 1;
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](const auto &e) {
                                      return ran[static_cast<
                                          std::size_t>(e.first)] != 0;
                                  }),
                   live.end());
    }
    q.run();

    std::vector<Ref> expected;
    for (const Ref &r : refs)
        if (!cancelled[static_cast<std::size_t>(r.id)])
            expected.push_back(r);
    std::sort(expected.begin(), expected.end(),
              [](const Ref &a, const Ref &b) {
                  return std::tie(a.when, a.prio, a.order) <
                         std::tie(b.when, b.prio, b.order);
              });

    ASSERT_EQ(executed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(executed[i], expected[i].id) << "at position " << i;
}

TEST(EventQueueIntrusive, DeterministicAcrossIdenticalRunsUnderPool)
{
    auto run_once = []() {
        EventQueue q;
        std::vector<int> order;
        auto &pool = EventPool<PooledTestEvent>::instance();
        for (int i = 0; i < 200; ++i) {
            if (i % 3 == 0) {
                q.schedule(*pool.acquire(&order, i),
                           static_cast<Tick>(i % 11),
                           EventPriority::Delivery);
            } else {
                q.schedule(static_cast<Tick>(i % 11),
                           [&order, i]() { order.push_back(i); },
                           EventPriority::Delivery);
            }
        }
        q.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace dsp
