/**
 * @file
 * Tests for the sharded multi-queue kernel: conservative-lookahead
 * cross-shard scheduling, carried-key merge ordering, the K-shard ==
 * 1-shard determinism contract (kernel-level and full-System), and
 * pool hygiene across shard threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/event.hh"
#include "sim/sharded_kernel.hh"
#include "system/system.hh"
#include "workload/presets.hh"

namespace dsp {
namespace {

constexpr Tick kLookahead = 1000;

std::vector<unsigned>
twoDomainMap(unsigned shard_of_1, unsigned shard_of_2)
{
    return {0, shard_of_1, shard_of_2};
}

TEST(ShardedKernel, CrossShardMessageAtExactlyTheLookaheadHorizon)
{
    // Domain 1 on shard 0, domain 2 on shard 1. An event executing in
    // domain 1 schedules into domain 2 with a delay of *exactly* the
    // lookahead: the tightest legal cross-shard message. It must be
    // drained at the window boundary and execute at its exact tick.
    ShardedKernel kernel(2, twoDomainMap(0, 1), kLookahead);
    DomainPort p1 = kernel.port(1);
    DomainPort p2 = kernel.port(2);

    Tick fired_at = 0;
    p1.schedule(Tick{500}, [&]() {
        p2.scheduleIn(kLookahead, [&]() { fired_at = p2.now(); });
    });

    bool stopped = kernel.run([] { return false; });
    EXPECT_FALSE(stopped);  // drained, not stopped
    EXPECT_EQ(fired_at, Tick{500} + kLookahead);
    EXPECT_TRUE(kernel.empty());
}

TEST(ShardedKernel, MailboxDrainOrderingVsSameTickLocalEvents)
{
    // Two events land in domain 2 at the same tick and priority: one
    // scheduled locally (by domain 2 itself), one arriving through the
    // cross-shard mailbox from domain 1. The carried key -- (priority,
    // scheduling domain, per-domain sequence) -- must decide the
    // order, not the insertion path: domain 1's key sorts before
    // domain 2's, so the mailbox event runs first even though it was
    // inserted at the window boundary, long after the local one.
    ShardedKernel kernel(2, twoDomainMap(0, 1), kLookahead);
    DomainPort p1 = kernel.port(1);
    DomainPort p2 = kernel.port(2);

    std::vector<int> order;
    const Tick target = 2 * kLookahead;
    p2.schedule(Tick{0}, [&]() {
        p2.schedule(target, [&]() { order.push_back(2); },
                    EventPriority::Delivery);
    });
    p1.schedule(Tick{0}, [&]() {
        p2.schedule(target, [&]() { order.push_back(1); },
                    EventPriority::Delivery);
    });

    kernel.run([] { return false; });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);

    // Priority still dominates the domain byte: a cross-shard
    // NetworkOrder event beats a local Delivery event at the same
    // tick even when its scheduling domain is higher.
    ShardedKernel kernel2(2, twoDomainMap(1, 0), kLookahead);
    DomainPort q1 = kernel2.port(1);  // shard 1
    DomainPort q2 = kernel2.port(2);  // shard 0

    order.clear();
    q2.schedule(Tick{0}, [&]() {
        q2.schedule(target, [&]() { order.push_back(2); },
                    EventPriority::Delivery);
    });
    q1.schedule(Tick{0}, [&]() {
        // Domain 1 runs on shard 1 here; this is a mailbox crossing.
        q2.schedule(target, [&]() { order.push_back(1); },
                    EventPriority::NetworkOrder);
    });
    kernel2.run([] { return false; });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
}

/**
 * A deterministic multi-domain ping-pong network: every domain, when
 * it executes, forwards a token to the next domain with a
 * domain-dependent delay (always >= lookahead) and logs (tick,
 * domain). The log must be identical for every shard partition.
 */
std::vector<std::vector<std::pair<Tick, int>>>
runTokenNetwork(unsigned shards)
{
    constexpr int kDomains = 6;
    std::vector<unsigned> map(kDomains + 1, 0);
    for (int d = 1; d <= kDomains; ++d)
        map[d] = (d - 1) % shards;
    ShardedKernel kernel(shards, map, kLookahead);

    std::vector<DomainPort> ports;
    for (int d = 1; d <= kDomains; ++d)
        ports.push_back(kernel.port(static_cast<std::uint8_t>(d)));

    // Shard discipline, like the real System: each domain logs only
    // into its own vector (single writer), and a token's state (its
    // id and hop count) travels inside the event captures.
    std::vector<std::vector<std::pair<Tick, int>>> logs(kDomains);

    std::function<void(int, int, int)> hop = [&](int d, int token,
                                                 int count) {
        logs[d].emplace_back(ports[d].now(), token);
        if (count >= 60)
            return;
        int next = (d + token) % kDomains;
        // Delay depends on the token's own path: exercises both
        // same-shard and cross-shard edges, horizon-exact and beyond.
        Tick delay =
            kLookahead + ((count + d) % 3) * (kLookahead / 2);
        ports[next].scheduleIn(delay, [&hop, next, token, count]() {
            hop(next, token, count + 1);
        });
    };

    for (int t = 1; t <= 3; ++t) {
        int d = t - 1;
        ports[d].schedule(Tick{100} * t,
                          [&hop, d, t]() { hop(d, t, 0); });
    }

    kernel.run([] { return false; });
    EXPECT_TRUE(kernel.empty());
    return logs;
}

TEST(ShardedKernel, TokenNetworkIsPartitionIndependent)
{
    auto one = runTokenNetwork(1);
    auto two = runTokenNetwork(2);
    auto three = runTokenNetwork(3);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, three);
}

TEST(ShardedKernel, StopPredicateFinishesTheWindow)
{
    // The stop predicate is only sampled at window boundaries, so all
    // same-window events run even when the flag flips mid-window --
    // the rule that makes the stopping point partition-independent.
    ShardedKernel kernel(2, twoDomainMap(0, 1), kLookahead);
    DomainPort p1 = kernel.port(1);
    DomainPort p2 = kernel.port(2);

    // Touched from two shard threads inside one window: atomics, per
    // the same discipline System uses for its phase flags.
    std::atomic<bool> done{false};
    std::atomic<int> ran{0};
    p1.schedule(Tick{10}, [&]() {
        done.store(true);
        ++ran;
    });
    p2.schedule(Tick{20}, [&]() { ++ran; });  // same window as tick 10
    bool stopped = kernel.run([&] { return done.load(); });
    EXPECT_TRUE(stopped);
    EXPECT_EQ(ran.load(), 2);
}

TEST(ShardedKernel, PoolsDrainToZeroPerShard)
{
    const std::uint64_t live_before = eventPoolStats().live();
    {
        ShardedKernel kernel(4, {0, 0, 1, 2, 3}, kLookahead);
        std::vector<DomainPort> ports;
        for (std::uint8_t d = 1; d <= 4; ++d)
            ports.push_back(kernel.port(d));

        // Fan events across every shard pair; all CallbackEvents are
        // pool-backed, many are allocated on one shard thread and
        // executed (hence recycled) on another.
        std::atomic<int> executions{0};
        for (std::uint8_t d = 0; d < 4; ++d) {
            ports[d].schedule(Tick{100} + d, [&, d]() {
                for (std::uint8_t to = 0; to < 4; ++to) {
                    ports[to].scheduleIn(kLookahead,
                                         [&]() { ++executions; });
                }
            });
        }
        kernel.run([] { return false; });
        EXPECT_EQ(executions.load(), 16);
        EXPECT_TRUE(kernel.empty());
        for (unsigned s = 0; s < kernel.numShards(); ++s)
            EXPECT_EQ(kernel.pending(s), 0u);
    }
    // Every pooled event left every shard's queue and went back to a
    // free list: zero live events across all threads' pools.
    EXPECT_EQ(eventPoolStats().live(), live_before);
}

/**
 * A sparse self-scheduling chain: mostly quiet simulated time with
 * one active domain, every seventh hop poking a second domain. This
 * is the shape quiet-window batching exists for; the run must be
 * bit-identical (event order, window count, crossing count) for
 * every shard partition, with batching collapsing many windows into
 * single crossings.
 */
struct BatchProbe {
    std::vector<std::pair<Tick, int>> log1, log2;
    std::uint64_t windows = 0;
    std::uint64_t crossings = 0;
    std::uint64_t batched = 0;

    bool
    operator==(const BatchProbe &o) const
    {
        return log1 == o.log1 && log2 == o.log2 &&
               windows == o.windows && crossings == o.crossings &&
               batched == o.batched;
    }
};

BatchProbe
runSparseChain(unsigned shards)
{
    ShardedKernel kernel(shards, twoDomainMap(0, shards - 1),
                         kLookahead);
    DomainPort p1 = kernel.port(1);
    DomainPort p2 = kernel.port(2);

    BatchProbe probe;
    std::function<void(int)> hop = [&](int count) {
        probe.log1.emplace_back(p1.now(), count);
        if (count >= 40)
            return;
        if (count % 7 == 6) {
            // Cross-domain poke: truncates any batch in flight at the
            // next sub-boundary, identically for every K.
            int c = count;
            p2.scheduleIn(kLookahead, [&probe, &p2, c]() {
                probe.log2.emplace_back(p2.now(), c);
            });
        }
        p1.scheduleIn(5 * kLookahead,
                      [&hop, count]() { hop(count + 1); });
    };
    p1.schedule(Tick{100}, [&hop]() { hop(0); });

    kernel.run([] { return false; });
    EXPECT_TRUE(kernel.empty());
    probe.windows = kernel.windowsRun();
    probe.crossings = kernel.barrierCrossings();
    probe.batched = kernel.batchedWindows();
    return probe;
}

TEST(ShardedKernel, QuietWindowBatchingIsPartitionIndependent)
{
    BatchProbe one = runSparseChain(1);
    BatchProbe two = runSparseChain(2);
    EXPECT_TRUE(one == two);
    ASSERT_EQ(one.log1.size(), 41u);
    ASSERT_EQ(one.log2.size(), 5u);
    // The chain spans ~200 lookahead windows; batching must have
    // collapsed most of them into far fewer crossings.
    EXPECT_GT(one.batched, 0u);
    EXPECT_LT(one.crossings, one.windows);
}

TEST(ShardedKernel, SingleBarrierCrossingPerBusyWindow)
{
    // A dense two-domain ping-pong (every window has work on both
    // shards) can never batch: crossings ~= windows, i.e. one
    // crossing per window, half of the old kernel's two.
    ShardedKernel kernel(2, twoDomainMap(0, 1), kLookahead);
    DomainPort p1 = kernel.port(1);
    DomainPort p2 = kernel.port(2);

    std::function<void(int)> ping = [&](int n) {
        if (n >= 50)
            return;
        DomainPort &next = (n % 2 == 0) ? p2 : p1;
        next.scheduleIn(kLookahead, [&ping, n]() { ping(n + 1); });
    };
    p1.schedule(Tick{0}, [&ping]() { ping(0); });
    kernel.run([] { return false; });

    EXPECT_GE(kernel.windowsRun(), 50u);
    EXPECT_LE(kernel.barrierCrossings(), kernel.windowsRun() + 2);
}

/** Full-System determinism: the headline invariant of the sharded
 *  kernel. Every emitted figure statistic must be bit-identical
 *  between a 1-shard and a 4-shard run of the same seeded config. */
SystemStats
runMini(unsigned shards, ProtocolKind protocol, bool hub_shard = false)
{
    auto workload = makeWorkload("barnes", 16, /* seed */ 7, 0.25);
    SystemParams params;
    params.nodes = 16;
    params.protocol = protocol;
    params.policy = PredictorPolicy::OwnerGroup;
    params.shards = shards;
    params.hubShard = hub_shard;
    params.functionalWarmupMisses = 2000;
    params.warmupInstrPerCpu = 2000;
    params.measureInstrPerCpu = 6000;
    System system(*workload, params);
    return system.run();
}

void
expectBitIdentical(const SystemStats &a, const SystemStats &b)
{
    EXPECT_EQ(a.runtimeTicks, b.runtimeTicks);
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
    // Integer tick arithmetic end to end: even the derived double
    // must match exactly.
    EXPECT_EQ(a.avgMissLatencyNs, b.avgMissLatencyNs);
    // Window planning is K-independent too: the same global earliest
    // ticks and batch rules yield the same windows and crossings.
    EXPECT_EQ(a.windowsRun, b.windowsRun);
    EXPECT_EQ(a.barrierCrossings, b.barrierCrossings);
    // Every event costs one calendar insert and one pop on whichever
    // shard holds it, so the host cost counter is K-independent too.
    EXPECT_EQ(a.calendarOps, b.calendarOps);
}

TEST(ShardedKernel, SystemK4BitIdenticalToK1Multicast)
{
    SystemStats k1 = runMini(1, ProtocolKind::Multicast);
    SystemStats k4 = runMini(4, ProtocolKind::Multicast);
    ASSERT_GT(k1.misses, 100u);
    expectBitIdentical(k1, k4);
}

TEST(ShardedKernel, SystemK4BitIdenticalToK1Snooping)
{
    SystemStats k1 = runMini(1, ProtocolKind::Snooping);
    SystemStats k4 = runMini(4, ProtocolKind::Snooping);
    ASSERT_GT(k1.misses, 100u);
    expectBitIdentical(k1, k4);
}

TEST(ShardedKernel, SystemOddShardCountsAreIdenticalToo)
{
    SystemStats k1 = runMini(1, ProtocolKind::Multicast);
    SystemStats k3 = runMini(3, ProtocolKind::Multicast);
    expectBitIdentical(k1, k3);
}

TEST(ShardedKernel, SystemHubShardPlacementIsIdentical)
{
    // A dedicated hub shard is pure placement: the carried-key
    // contract makes its statistics bit-identical to the default
    // partition at every K (including K < 3, where the flag is
    // ignored).
    SystemStats k1 = runMini(1, ProtocolKind::Multicast);
    SystemStats k4hub = runMini(4, ProtocolKind::Multicast, true);
    SystemStats k3hub = runMini(3, ProtocolKind::Multicast, true);
    expectBitIdentical(k1, k4hub);
    expectBitIdentical(k1, k3hub);
}

TEST(ShardedKernel, SystemRunLeavesNoLiveEvents)
{
    const std::uint64_t live_before = eventPoolStats().live();
    const std::uint64_t msg_live_before = MessageRef::stats().live();
    runMini(4, ProtocolKind::Multicast);
    EXPECT_EQ(eventPoolStats().live(), live_before);
    EXPECT_EQ(MessageRef::stats().live(), msg_live_before);
}

TEST(ShardedKernel, SequentialSystemsReuseWorkerPools)
{
    // Every K>1 System starts fresh worker threads. When they exit,
    // their event and message pools must pass to the next System's
    // workers: slab memory is bounded by the peak number of
    // concurrent threads, not by the number of Systems a process
    // runs. The first two Systems let every pool reach its size.
    runMini(4, ProtocolKind::Multicast);
    runMini(4, ProtocolKind::Multicast);
    const std::uint64_t event_bytes = eventPoolStats().slabBytes;
    const std::uint64_t msg_bytes = MessageRef::stats().slabBytes;
    runMini(4, ProtocolKind::Multicast);
    runMini(4, ProtocolKind::Multicast);
    EXPECT_EQ(eventPoolStats().slabBytes, event_bytes);
    EXPECT_EQ(MessageRef::stats().slabBytes, msg_bytes);
}

TEST(ShardedKernel, ProgressWatchdogPanicsOnStalledCrossings)
{
    // injectStallForTest freezes the watchdog's executed-events
    // baseline, so a run with plenty of pending work presents exactly
    // like a wedged kernel: crossings advance, observed progress does
    // not. After the (lowered) crossing limit the planner must dump
    // diagnostics and panic instead of spinning forever.
    PanicGuard guard;
    ShardedKernel kernel(1, twoDomainMap(0, 0), kLookahead);
    kernel.injectStallForTest(3);
    DomainPort p1 = kernel.port(1);

    // Enough events, one lookahead apart, that the queue stays
    // nonempty past the watchdog limit even with window batching
    // (<= 16 windows per crossing).
    int fired = 0;
    for (Tick t = 100; t < 100 + 100 * kLookahead; t += kLookahead)
        p1.schedule(t, [&]() { ++fired; });

    try {
        kernel.run([] { return false; });
        FAIL() << "stalled kernel did not panic";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("sharded kernel stalled"),
                  std::string::npos);
        EXPECT_NE(what.find("3 barrier crossings"),
                  std::string::npos);
    }
    EXPECT_GT(fired, 0);  // the kernel really was executing work
}

TEST(ShardedKernel, ProgressWatchdogStaysQuietOnHealthyRuns)
{
    // The real watchdog (no freeze) must never fire on a healthy
    // workload, even with a threshold of a single crossing --
    // every crossing with work pending executes at least one event.
    ShardedKernel kernel(1, twoDomainMap(0, 0), kLookahead);
    kernel.setStallLimitForTest(1);
    DomainPort p1 = kernel.port(1);
    int fired = 0;
    for (Tick t = 100; t < 100 + 40 * kLookahead; t += kLookahead)
        p1.schedule(t, [&]() { ++fired; });
    EXPECT_FALSE(kernel.run([] { return false; }));
    EXPECT_EQ(fired, 40);
}

} // namespace
} // namespace dsp
