#include "system/system.hh"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <stdexcept>

#include "cpu/detailed_cpu.hh"
#include "cpu/simple_cpu.hh"
#include "sim/interrupt.hh"
#include "sim/logging.hh"
#include "sim/panic_hooks.hh"
#include "verify/oracle.hh"
#include "workload/issue_order.hh"

namespace dsp {

std::string
toString(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Snooping:
        return "snooping";
      case ProtocolKind::Directory:
        return "directory";
      case ProtocolKind::Multicast:
        return "multicast";
    }
    return "?";
}

unsigned
System::shardCountFor(const SystemParams &params)
{
    unsigned shards = params.shards == 0 ? 1 : params.shards;
    if (shards > params.nodes)
        shards = params.nodes;
    return shards;
}

std::vector<unsigned>
System::domainMapFor(const SystemParams &params)
{
    // Domains: node n -> n + 1, ordering hub h -> nodes + 1 + h.
    // Contiguous node groups, one per shard. By default the hubs ride
    // with shard 0 (the calling thread); with hubShard (and >= 3
    // shards) they get shard 0 to themselves and the nodes spread
    // over the rest. The partition is free to change: the determinism
    // contract makes every choice produce identical statistics.
    unsigned shards = shardCountFor(params);
    unsigned hubs = params.crossbar.topology.hubs;
    std::vector<unsigned> map(params.nodes + 1 + hubs, 0);
    bool dedicated = params.hubShard && shards >= 3;
    unsigned node_shards = dedicated ? shards - 1 : shards;
    unsigned first = dedicated ? 1 : 0;
    for (NodeId n = 0; n < params.nodes; ++n)
        map[n + 1] = first + static_cast<unsigned>(
            (static_cast<std::uint64_t>(n) * node_shards) /
            params.nodes);
    // Hub domains stay on shard 0 (already zero-initialized).
    return map;
}

namespace {

std::vector<DomainPort>
nodePortsFor(ShardedKernel &kernel, NodeId nodes)
{
    std::vector<DomainPort> ports;
    ports.reserve(nodes);
    for (NodeId n = 0; n < nodes; ++n)
        ports.push_back(
            kernel.port(static_cast<std::uint16_t>(n + 1)));
    return ports;
}

std::vector<DomainPort>
hubPortsFor(ShardedKernel &kernel, const SystemParams &params)
{
    std::vector<DomainPort> ports;
    unsigned hubs = params.crossbar.topology.hubs;
    ports.reserve(hubs);
    for (unsigned h = 0; h < hubs; ++h)
        ports.push_back(kernel.port(
            static_cast<std::uint16_t>(params.nodes + 1 + h)));
    return ports;
}

} // namespace

System::System(Workload &workload, const SystemParams &params)
    : workload_(workload),
      params_(params),
      kernel_(shardCountFor(params), domainMapFor(params),
              topologyFor(params).minHop()),
      hubPorts_(hubPortsFor(kernel_, params)),
      nodePorts_(nodePortsFor(kernel_, params.nodes)),
      crossbar_(hubPorts_, nodePorts_, params.crossbar),
      topo_(crossbar_.topology()),
      reorderStash_(topo_.hubs()),
      ownerDataAt_(topo_.hubs()),
      memReadyAt_(topo_.hubs()),
      nodeStats_(params.nodes)
{
    dsp_assert(workload.numNodes() == params.nodes,
               "workload built for %u nodes, system has %u",
               workload.numNodes(), params.nodes);

    if ((params_.nodes & (params_.nodes - 1)) == 0)
        homeMask_ = params_.nodes - 1;

    // Each hub's tracker slice holds the blocks interleaved onto it
    // (Topology::hubOf) and indexes them hub-locally. Pre-size the
    // chaining books: they can hold at most one entry per footprint
    // block, spread over the hubs by the same interleaving.
    std::size_t blocks = static_cast<std::size_t>(
        workload_.totalFootprint() / blockBytes);
    std::size_t blocks_per_hub = blocks / topo_.hubs() + 1;
    trackers_.reserve(topo_.hubs());
    for (unsigned h = 0; h < topo_.hubs(); ++h) {
        trackers_.emplace_back(params_.nodes, topo_.hubs());
        ownerDataAt_[h].reserve(blocks_per_hub / 4);
        memReadyAt_[h].reserve(blocks_per_hub / 4);
    }

    params_.predictor.numNodes = params_.nodes;
    params_.cpu.l1_ns = params_.latency.l1_ns;
    params_.cpu.l2_ns = params_.latency.l2_ns;

    if (params_.protocol == ProtocolKind::Multicast) {
        predictors_ =
            makePredictorsPerNode(params_.policy, params_.predictor);
    }

    if (params_.verify.oracle) {
        if (verify::compiledIn) {
            verify::Oracle::Config cfg;
            cfg.nodes = params_.nodes;
            cfg.directory =
                params_.protocol == ProtocolKind::Directory;
            cfg.dataChaining = params_.dataChaining;
            cfg.topo = topo_;
            cfg.l2_ns = params_.latency.l2_ns;
            cfg.memory_ns = params_.latency.memory_ns;
            oracle_ = std::make_unique<verify::Oracle>(cfg);
        } else {
            dsp_warn("verify.oracle requested but the library was "
                     "built with DSP_DISABLE_VERIFY; running "
                     "unchecked");
        }
    }

    for (NodeId n = 0; n < params_.nodes; ++n) {
        cacheCtrls_.push_back(std::make_unique<CacheController>(
            *this, n, nodePorts_[n]));
        memCtrls_.push_back(std::make_unique<MemoryController>(
            *this, n, nodePorts_[n]));
        if (params_.cpuModel == CpuModel::Simple) {
            cpus_.push_back(std::make_unique<SimpleCpu>(
                nodePorts_[n], workload_, n, *cacheCtrls_[n],
                params_.cpu));
        } else {
            cpus_.push_back(std::make_unique<DetailedCpu>(
                nodePorts_[n], workload_, n, *cacheCtrls_[n],
                params_.cpu));
        }
    }

    crossbar_.setOrderHandler(
        [this](const MessageRef &msg, Tick tick) {
            onOrder(msg, tick);
        });
    crossbar_.setDeliverHandler(
        [this](const Message &msg, NodeId dest, Tick tick) {
            onDeliver(msg, dest, tick);
        });
}

System::~System() = default;

struct System::LocalDeliverEvent final : Event {
    LocalDeliverEvent(System &s, MessageRef m, NodeId d, Tick t)
        : sys(s), msg(std::move(m)), dest(d), at(t)
    {
    }

    void process() override { sys.onDeliver(*msg, dest, at); }

    void
    release() override
    {
        EventPool<LocalDeliverEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(
            ckpt::EventTag::SysLocalDeliver));
        w.pod(*msg);
        w.u32(dest);
        w.u64(at);
    }

    System &sys;
    MessageRef msg;
    NodeId dest;
    Tick at;
};

struct System::SendEvent final : Event {
    SendEvent(System &s, Message m) : sys(s), msg(std::move(m)) {}

    void process() override { sys.sendOrLocal(std::move(msg)); }

    void
    release() override
    {
        EventPool<SendEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::SysSend));
        w.pod(msg);
    }

    System &sys;
    Message msg;
};

struct System::EvictEvent final : Event {
    EvictEvent(System &s, BlockId b, NodeId n, bool o, Tick evict,
               Tick wb)
        : sys(s), block(b), node(n), owned(o), evictTick(evict),
          wbArrive(wb)
    {
    }

    void
    process() override
    {
        // Hub domain: the tracker learns of the eviction one link hop
        // after it happened, exactly like a real ordering point would.
        // A request for the victim ordered during that flight (at or
        // after the eviction instant) supersedes the notice: applying
        // it anyway would clear a just-granted ownership (tripping
        // evictOwned's owner assertion when the grant went elsewhere)
        // or delete a just-re-established sharer registration.
        // Hardware drops a writeback that lost this race the same
        // way. The guard is conservative -- an unrelated request in
        // the window also drops the notice -- but every error it can
        // make leaves a *stale registration* (spurious snoops or
        // invalidations of an absent line, no-ops at the node) and
        // heals at the block's next ownership transfer; it is
        // deterministic and shard-count independent either way.
        SharingTracker &tracker = sys.trackerFor(block);
        unsigned hub = sys.topo_.hubOf(block);
        if (tracker.lastOrderedAt(block) >= evictTick)
            return;
        if (owned) {
            if (tracker.ownerOf(block) != node)
                return;  // ownership moved before the notice landed
            tracker.evictOwned(block, node);
            if (sys.params_.dataChaining) {
                // The dirty data is on the wire: memory cannot supply
                // this block before the writeback lands at the home.
                sys.ownerDataAt_[hub].erase(block);
                sys.memReadyAt_[hub][block] = wbArrive;
            }
        } else {
            tracker.evictShared(block, node);
        }
        // Post-guard: only accepted notices reach the oracle, so its
        // shadow books replay the tracker's exact update sequence.
        if (verify::armed(sys.oracle_.get())) {
            sys.oracle_->recordEvict(block, node, owned, wbArrive,
                                     sys.hubPorts_[hub].now());
        }
    }

    void
    release() override
    {
        EventPool<EvictEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::SysEvict));
        w.u64(block);
        w.u32(node);
        w.b(owned);
        w.u64(evictTick);
        w.u64(wbArrive);
    }

    System &sys;
    BlockId block;
    NodeId node;
    bool owned;
    Tick evictTick;
    Tick wbArrive;
};

void
System::sendLater(Message msg, Tick when)
{
    nodePort(msg.src).schedule(
        *EventPool<SendEvent>::instance().acquire(*this,
                                                  std::move(msg)),
        when, EventPriority::Controller);
}

void
System::notifyEviction(BlockId block, bool owned, NodeId node,
                       Tick tick)
{
    // Uncontended estimate of the writeback's arrival at the home;
    // the chaining bound needs only a deterministic expected tick.
    Tick wb_arrive = tick + topo_.directHop(node, homeOf_(block));
    hubPorts_[topo_.hubOf(block)].schedule(
        *EventPool<EvictEvent>::instance().acquire(
            *this, block, node, owned, tick, wb_arrive),
        tick + topo_.hubHop(), EventPriority::Controller);
}

DestinationSet
System::destinationsFor(BlockId block, Addr addr, Addr pc,
                        RequestType type, NodeId requester)
{
    switch (params_.protocol) {
      case ProtocolKind::Snooping:
        return DestinationSet::all(params_.nodes);
      case ProtocolKind::Directory:
        return DestinationSet::of(homeOf_(block));
      case ProtocolKind::Multicast: {
        DestinationSet predicted = predictors_[requester]->predict(
            addr, pc, type, requester, homeOf_(block));
        dsp_assert(predicted.contains(requester) &&
                       predicted.contains(homeOf_(block)),
                   "prediction violates the minimal-set contract");
        return predicted;
      }
    }
    return DestinationSet::all(params_.nodes);
}

Tick
System::supplyBound(BlockId block, NodeId responder, NodeId requester,
                    Tick order)
{
    if (!params_.dataChaining || responder == requester)
        return 0;  // upgrade: the requester already holds the data
    unsigned hub = topo_.hubOf(block);
    FlatMap<BlockId, Tick> &book = responder == invalidNode
                                       ? memReadyAt_[hub]
                                       : ownerDataAt_[hub];
    auto it = book.find(block);
    if (it == book.end())
        return 0;
    if (it->second <= order) {
        book.erase(it);  // already landed; prune the book
        return 0;
    }
    return it->second;
}

void
System::chainResolved(BlockId block, Message &msg, Tick order)
{
    TxnEcho &echo = msg.echo;
    echo.supplyEarliest =
        supplyBound(block, echo.responder, echo.requester, order);
    if (!params_.dataChaining || msg.type != RequestType::GetExclusive)
        return;

    // Ownership moves to the requester: record when its data is
    // expected to land, so a back-to-back request that picks it as
    // responder cannot be served before the fill exists.
    unsigned hub = topo_.hubOf(block);
    if (echo.responder == echo.requester) {
        ownerDataAt_[hub].erase(block);  // upgrade: data present
        return;
    }
    Tick deliver = order + topo_.hubHop();
    Tick start = std::max(deliver, echo.supplyEarliest);
    NodeId supplier = echo.responder == invalidNode
                          ? homeOf_(block)
                          : echo.responder;
    Tick supply_ns = echo.responder == invalidNode
                         ? params_.latency.memory_ns
                         : params_.latency.l2_ns;
    Tick arrive = start + nsToTicks(supply_ns) +
                  topo_.directHop(supplier, echo.requester);
    if (params_.protocol == ProtocolKind::Directory &&
        echo.responder != invalidNode) {
        // 3-hop: home directory access plus the forward hop precede
        // the owner's L2 read.
        arrive += nsToTicks(params_.latency.memory_ns) +
                  topo_.directHop(homeOf_(block), echo.responder);
    }
    ownerDataAt_[hub][block] = arrive;
    // Memory is no longer the owner; any writeback bound is obsolete.
    memReadyAt_[hub].erase(block);
}

void
System::onOrder(const MessageRef &msgref, Tick tick)
{
    // The payload is still exclusively ours (fan-out happens after the
    // order handler), so the serialization verdict is stamped straight
    // into it and every delivery sees it without sharing any state.
    Message &msg = msgref.exclusive();
    TxnEcho &echo = msg.echo;
    BlockId block = msg.block();

    if (params_.protocol == ProtocolKind::Directory) {
        auto result = trackerFor(block).apply(block, echo.requester,
                                              msg.type, tick);
        echo.resolved = true;
        echo.resolvedAttempt = msg.attempt;
        echo.responder = result.responder;
        echo.required = result.required;
        echo.granted = result.grantedState;
        chainResolved(block, msg, tick);
    } else if (verify::armed(oracle_.get()) &&
               params_.verify.mutation ==
                   verify::Mutation::ReorderHubGrants &&
               orderWithReorderMutation(msg, block, tick)) {
        // Mutation handled the tracker interaction (a GETX's apply is
        // stashed or retro-applied out of order).
    } else {
        bool sufficient = false;
        auto result = trackerFor(block).applyIfSufficient(
            block, echo.requester, msg.type, msg.dests, sufficient,
            tick);
        echo.responder = result.responder;
        echo.required = result.required;
        if (sufficient) {
            // Mutation: the tracker applied the request, but the
            // verdict is never stamped into the echo -- the requester
            // retries a transaction that actually succeeded.
            bool skip_stamp =
                verify::armed(oracle_.get()) &&
                params_.verify.mutation ==
                    verify::Mutation::SkipVerdictStamp;
            if (!skip_stamp) {
                echo.resolved = true;
                echo.resolvedAttempt = msg.attempt;
                echo.granted = result.grantedState;
                chainResolved(block, msg, tick);
            }
        }
        // Insufficient requests change no state: the home re-issues
        // them with an improved destination set (Section 4.1). The
        // echoed `required` set -- as of *this* ordering -- seeds that
        // set, preserving the window of vulnerability until the
        // retry's own ordering.
    }

    // Mutation: silently drop one required destination from the
    // resolved fan-out -- that sharer keeps a stale readable copy.
    if (verify::armed(oracle_.get()) &&
        params_.verify.mutation == verify::Mutation::SubsetDelivery &&
        params_.protocol != ProtocolKind::Directory &&
        msg.type == RequestType::GetExclusive && echo.resolved &&
        echo.resolvedAttempt == msg.attempt) {
        NodeId victim = invalidNode;
        NodeId home = homeOf_(block);
        echo.required.forEach([&](NodeId q) {
            if (q != echo.responder && q != echo.requester &&
                q != home) {
                victim = q;  // ascending iteration: keeps the highest
            }
        });
        if (victim != invalidNode)
            msg.dests.remove(victim);
    }

    // Oracle witness of the verdict (post-mutation, pre-fan-out).
    if (verify::armed(oracle_.get()))
        oracle_->recordOrder(msg, tick);

    // The crossbar does not deliver to the source; when the source is
    // a destination (snooping/multicast requester, or a request whose
    // requester is the home), observe it via a free self-delivery
    // that shares the ordered message's pooled payload.
    if (msg.dests.contains(msg.src)) {
        Tick when = tick + topo_.hubHop();
        nodePort(msg.src).schedule(
            *EventPool<LocalDeliverEvent>::instance().acquire(
                *this, msgref, msg.src, when),
            when, EventPriority::Delivery);
    }
}

bool
System::orderWithReorderMutation(Message &msg, BlockId block,
                                 Tick tick)
{
    TxnEcho &echo = msg.echo;
    SharingTracker &tracker = trackerFor(block);
    ReorderStash &stash = reorderStash_[topo_.hubOf(block)];
    if (!stash.armed) {
        // Stash the first eligible GETX: stamp its verdict from a
        // peek (so its data path proceeds normally) but withhold the
        // tracker apply until the block's next resolved order -- the
        // two grants swap places in the serialized history.
        auto probe = tracker.inspect(block, echo.requester, msg.type);
        if (msg.type == RequestType::GetExclusive &&
            !probe.required.empty() &&
            msg.dests.containsAll(probe.required)) {
            echo.resolved = true;
            echo.resolvedAttempt = msg.attempt;
            echo.responder = probe.responder;
            echo.required = probe.required;
            echo.granted = probe.grantedState;
            chainResolved(block, msg, tick);
            stash.armed = true;
            stash.block = block;
            stash.requester = echo.requester;
            stash.type = msg.type;
            return true;
        }
        return false;  // not eligible: normal ordering path
    }
    if (block != stash.block)
        return false;  // unrelated block: normal ordering path

    // Same block: order this request against the pre-stash state,
    // then retro-apply the stashed grant behind it.
    bool sufficient = false;
    auto result = tracker.applyIfSufficient(
        block, echo.requester, msg.type, msg.dests, sufficient, tick);
    echo.responder = result.responder;
    echo.required = result.required;
    if (sufficient) {
        echo.resolved = true;
        echo.resolvedAttempt = msg.attempt;
        echo.granted = result.grantedState;
        chainResolved(block, msg, tick);
        tracker.apply(block, stash.requester, stash.type, tick);
        stash.armed = false;
    }
    return true;
}

void
System::onDeliver(const Message &msg, NodeId dest, Tick tick)
{
    switch (msg.kind) {
      case MessageKind::Request:
      case MessageKind::Retry: {
        const TxnEcho &echo = msg.echo;

        // Oracle witness: this delivery obliges `dest` to invalidate
        // (resolved GETX snoop naming it in the required set).
        // Recorded at the dispatcher -- independent of the controller
        // that must act -- so a controller that drops the
        // invalidation is caught, not believed.
        if (verify::armed(oracle_.get()) &&
            params_.protocol != ProtocolKind::Directory &&
            msg.type == RequestType::GetExclusive && echo.resolved &&
            echo.resolvedAttempt == msg.attempt &&
            echo.required.contains(dest) && dest != echo.requester) {
            oracle_->recordInvalDue(dest, msg.block(), msg.txn, tick);
        }

        // External requests are a predictor training cue (Sec. 3.2).
        if (params_.protocol == ProtocolKind::Multicast &&
            dest != echo.requester) {
            predictors_[dest]->trainExternalRequest(
                msg.addr, msg.pc, msg.type, echo.requester);
        }

        if (dest == homeOf_(msg.block()))
            memCtrls_[dest]->onHomeRequest(msg, tick);

        if (params_.protocol != ProtocolKind::Directory)
            cacheCtrls_[dest]->onSnoop(msg, tick);

        // Upgrades complete when the requester observes its own
        // ordered request.
        if (dest == echo.requester && echo.resolved &&
            echo.resolvedAttempt == msg.attempt &&
            echo.responder == echo.requester) {
            cacheCtrls_[dest]->onData(msg, tick);
        }
        break;
      }
      case MessageKind::Forward:
        if (verify::armed(oracle_.get()) &&
            msg.type == RequestType::GetExclusive) {
            oracle_->recordInvalDue(dest, msg.block(), msg.txn, tick);
        }
        cacheCtrls_[dest]->onForward(msg, tick);
        break;
      case MessageKind::Invalidate:
        if (verify::armed(oracle_.get()))
            oracle_->recordInvalDue(dest, msg.block(), msg.txn, tick);
        cacheCtrls_[dest]->onInvalidate(msg, tick);
        break;
      case MessageKind::Data:
      case MessageKind::Grant:
        cacheCtrls_[dest]->onData(msg, tick);
        break;
      case MessageKind::Writeback:
        // Functional state already moved to memory at the eviction;
        // the message only models link traffic and delivery timing.
        break;
    }
}

void
System::sendOrLocal(Message msg)
{
    if (msg.dest == msg.src) {
        // Node-local transfer: no network traversal, no traffic.
        NodeId dest = msg.dest;
        DomainPort &port = nodePort(dest);
        Tick now = port.now();
        port.schedule(
            *EventPool<LocalDeliverEvent>::instance().acquire(
                *this, MessageRef(std::move(msg)), dest, now),
            now, EventPriority::Delivery);
        return;
    }
    crossbar_.sendDirect(std::move(msg));
}

void
System::trainRequester(const Message &msg)
{
    if (params_.protocol != ProtocolKind::Multicast)
        return;
    const TxnEcho &echo = msg.echo;
    Predictor &pred = *predictors_[echo.requester];
    if (echo.resolvedAttempt > 0)
        pred.trainRetry(msg.addr, msg.pc, echo.required);
    if (echo.responder != echo.requester) {
        pred.trainResponse(msg.addr, msg.pc, echo.responder,
                           !echo.required.empty());
    }
}

void
System::recordCompletion(const Message &msg, Tick tick)
{
    if (!measuring_)
        return;
    const TxnEcho &echo = msg.echo;
    NodeAccum &acc = nodeStats_[echo.requester];
    ++acc.misses;
    acc.latencySum += tick > echo.issued ? tick - echo.issued : 0;
    acc.retries += echo.resolvedAttempt;
    if (echo.resolvedAttempt >= 2)
        ++acc.doubleRetries;
    if (echo.responder == echo.requester)
        ++acc.upgrades;
    if (echo.responder != invalidNode &&
        echo.responder != echo.requester) {
        ++acc.cacheToCache;
    }
    const bool indirect = params_.protocol == ProtocolKind::Directory
                              ? !echo.required.empty()
                              : echo.resolvedAttempt > 0;
    if (indirect)
        ++acc.indirections;
}

std::function<void()>
System::cpuDoneCallback()
{
    return [this]() {
        // Counting-only: the final value (and hence the window in
        // which the flag flips) is independent of thread timing.
        if (cpusDone_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            params_.nodes) {
            phaseDone_.store(true, std::memory_order_release);
        }
    };
}

void
System::startPhase(std::uint64_t instructions)
{
    phaseDone_.store(false, std::memory_order_relaxed);
    cpusDone_.store(0, std::memory_order_relaxed);
    for (auto &cpu : cpus_)
        cpu->runFor(instructions, cpuDoneCallback());
}

void
System::runUntilPhaseDone(const char *phase)
{
    // interruptRequested() unwinds a SIGINT/SIGTERM'd run at the next
    // window boundary: the caller sees partial (but well-formed)
    // statistics and is responsible for flushing them as partial
    // output. The flag is never set in normal runs, so checking it
    // here cannot perturb the determinism contract.
    //
    // The predicate runs with every shard quiescent at a barrier, so
    // it is also where the oracle reconciles its staged records: the
    // merge consumes only ticks every domain has advanced past, and
    // the stop-at tick from a repro bundle halts the run here.
    for (;;) {
        ckptStop_ = false;
        bool stopped = kernel_.run([this] {
            if (phaseDone_.load(std::memory_order_acquire) ||
                interruptRequested()) {
                return true;
            }
            if (params_.verify.stopAtTick != 0 &&
                hubPorts_[0].now() >= params_.verify.stopAtTick) {
                stopEarly_ = true;
                return true;
            }
            if (verify::armed(oracle_.get())) {
                Tick safe = hubPorts_[0].now();
                for (const DomainPort &p : hubPorts_)
                    safe = std::min(safe, p.now());
                for (const DomainPort &p : nodePorts_)
                    safe = std::min(safe, p.now());
                if (oracle_->reconcile(safe))
                    return true;
            }
            // Checkpoint leg last: a violation found at the same
            // barrier wins over the snapshot (checkpoints only ever
            // capture a violation-free prefix).
            if (ckptEnabled() &&
                hubPorts_[0].now() >= nextCkptTick_) {
                ckptStop_ = true;
                return true;
            }
            return false;
        });
        dsp_assert(stopped,
                   "%s wedged: event queues drained with CPUs still "
                   "running",
                   phase);
        if (!ckptStop_)
            break;
        // Quiescent barrier at (or just past) a due boundary: snap
        // the whole machine, then keep running the same phase.
        writeCheckpoint();
    }

    // A preempted run (SIGTERM/SIGINT) leaves one final checkpoint so
    // a resumed attempt loses no progress; guarded so the phases
    // unwinding behind this one do not each write another.
    if (interruptRequested() && ckptEnabled() && !finalCkptWritten_) {
        finalCkptWritten_ = true;
        writeCheckpoint();
    }

    // Phase boundary: every appended record is final (events executed
    // so far all precede the barrier tick), so the merge can drain
    // the buffers completely and flush unacknowledged invalidations.
    if (verify::armed(oracle_.get()) && oracle_->reconcile(maxTick))
        raiseOracleViolation();
}

void
System::functionalWarmup(std::uint64_t misses)
{
    // Same interleaving as the trace collector.
    IssueOrder order(params_.nodes);
    std::uint64_t done = 0;

    while (done < misses) {
        NodeId p = order.next();
        MemRef ref = workload_.next(p);
        order.advance(p, ref.work + 1);

        NodeCaches &caches = cacheCtrls_[p]->caches();
        NodeCaches::StagedAccess staged =
            caches.probeAccess(ref.addr, ref.write);
        caches.commitAccess(staged);
        if (staged.result.need == CoherenceNeed::None)
            continue;

        RequestType type =
            staged.result.need == CoherenceNeed::GetExclusive
                ? RequestType::GetExclusive
                : RequestType::GetShared;
        BlockId block = blockOf(ref.addr);
        auto txn = trackerFor(block).apply(block, p, type);
        // Shadow the warmup synchronously: same states, same write
        // seqnos, no checks (there is no timed history to check).
        if (verify::armed(oracle_.get()))
            oracle_->warmupApply(block, p, type, txn.required,
                                 txn.responder);

        // Coherence fan-in (warmup flavour): peer-cache downgrades
        // and invalidations pair with their l0Invalidate() hooks
        // exactly like the timed paths in CacheController.
        if (type == RequestType::GetShared) {
            if (txn.cacheToCache) {
                NodeCaches &owner = cacheCtrls_[txn.responder]->caches();
                owner.l0Invalidate(block);
                owner.downgrade(block);
            }
        } else {
            txn.required.forEach([&](NodeId q) {
                NodeCaches &peer = cacheCtrls_[q]->caches();
                peer.l0Invalidate(block);
                peer.invalidate(block);
            });
        }

        // The staged result carries this miss's fill cursors; no
        // mutable-latch re-fetch that a peer access could clobber.
        NodeCaches::FillHandle handle = staged.fillHandle();
        auto fill = caches.fill(ref.addr, txn.grantedState, &handle);
        if (fill.evicted) {
            if (isOwnerState(fill.victimState)) {
                trackerFor(fill.victim).evictOwned(fill.victim, p);
                if (verify::armed(oracle_.get()))
                    oracle_->warmupEvict(fill.victim, p, true);
            } else if (fill.victimState == MosiState::Shared) {
                trackerFor(fill.victim).evictShared(fill.victim, p);
                if (verify::armed(oracle_.get()))
                    oracle_->warmupEvict(fill.victim, p, false);
            }
        }
        ++done;

        if (params_.protocol != ProtocolKind::Multicast)
            continue;

        // Train predictors exactly as a trace replay would.
        NodeId home = homeOf_(block);
        DestinationSet predicted = predictors_[p]->predict(
            ref.addr, ref.pc, type, p, home);
        if (!predicted.containsAll(txn.required))
            predictors_[p]->trainRetry(ref.addr, ref.pc,
                                       txn.required);
        if (txn.responder != p) {
            predictors_[p]->trainResponse(ref.addr, ref.pc,
                                          txn.responder,
                                          !txn.required.empty());
        }
        DestinationSet observers = predicted | txn.required;
        observers.forEach([&](NodeId q) {
            if (q != p) {
                predictors_[q]->trainExternalRequest(
                    ref.addr, ref.pc, type, p);
            }
        });
    }
}

System::CacheCounters
System::cacheCounters() const
{
    CacheCounters sums;
    for (const auto &ctrl : cacheCtrls_) {
        const NodeCaches &caches = ctrl->caches();
        sums.accesses += caches.accesses();
        sums.l0Hits += caches.l0Hits();
        sums.l0Absorbed += caches.l0Absorbed();
        // Word attribution: a set walk reads up to `ways` words (it
        // may early-exit at a match), an L0 refresh touches exactly
        // one. Upper bound, from the debug walk counters (0 under
        // NDEBUG); deterministic and shard-count independent.
        sums.wordTouches +=
            caches.l1TagWalks() * params_.caches.l1.ways +
            caches.l2TagWalks() * params_.caches.l2.ways +
            (caches.l0Hits() - caches.l0Absorbed());
    }
    return sums;
}

void
System::beginMeasure()
{
    crossbar_.resetStats();
    for (NodeAccum &acc : nodeStats_)
        acc = NodeAccum{};
    measuring_ = true;
    // Every shard's clock sits at the same window boundary between
    // phases, so this read is identical for every shard count.
    measureStart_ = hubPorts_[0].now();
    eventsBefore_ = kernel_.executed();
    crossingsBefore_ = kernel_.barrierCrossings();
    windowsBefore_ = kernel_.windowsRun();
    calOpsBefore_ = kernel_.calendarOps();
    cachesBefore_ = cacheCounters();
    phaseIndex_ = phaseMeasure;
    if (!stopEarly_)
        startPhase(params_.measureInstrPerCpu);
}

SystemStats
System::run()
{
    killAfter_ = ckpt::killAfterFromEnv();
    restoredFromCkpt_ = restoreIfRequested();

    if (!restoredFromCkpt_) {
        nextCkptTick_ = params_.checkpoint.every;

        if (params_.functionalWarmupMisses > 0)
            functionalWarmup(params_.functionalWarmupMisses);

        // Timing warmup: fill caches and train predictors, stats
        // discarded.
        if (params_.warmupInstrPerCpu > 0 && !stopEarly_) {
            phaseIndex_ = phaseWarmup;
            startPhase(params_.warmupInstrPerCpu);
        } else {
            beginMeasure();
        }
    }

    if (phaseIndex_ == phaseWarmup) {
        runUntilPhaseDone("warmup");
        beginMeasure();
    }

    auto wall_start = std::chrono::steady_clock::now();

    if (!stopEarly_ &&
        !phaseDone_.load(std::memory_order_acquire)) {
        runUntilPhaseDone("measured phase");
    }

    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    Tick last_finish = measureStart_;
    for (const auto &cpu : cpus_)
        last_finish = std::max(last_finish, cpu->finishTick());

    SystemStats stats;
    stats.runtimeTicks = last_finish - measureStart_;
    stats.instructions =
        std::uint64_t{params_.measureInstrPerCpu} * params_.nodes;
    for (const NodeAccum &acc : nodeStats_) {
        stats.misses += acc.misses;
        stats.indirections += acc.indirections;
        stats.retries += acc.retries;
        stats.doubleRetries += acc.doubleRetries;
        stats.upgrades += acc.upgrades;
        stats.cacheToCache += acc.cacheToCache;
    }
    stats.requestMessages =
        crossbar_.traffic(MessageKind::Request).messages +
        crossbar_.traffic(MessageKind::Retry).messages +
        crossbar_.traffic(MessageKind::Forward).messages +
        crossbar_.traffic(MessageKind::Invalidate).messages;
    stats.writebacks =
        crossbar_.traffic(MessageKind::Writeback).messages;
    stats.trafficBytes = crossbar_.totalBytes();
    stats.eventsExecuted = kernel_.executed() - eventsBefore_;
    stats.barrierCrossings =
        kernel_.barrierCrossings() - crossingsBefore_;
    stats.windowsRun = kernel_.windowsRun() - windowsBefore_;
    stats.calendarOps = kernel_.calendarOps() - calOpsBefore_;
    CacheCounters caches_after = cacheCounters();
    stats.cacheAccesses =
        caches_after.accesses - cachesBefore_.accesses;
    stats.l0Hits = caches_after.l0Hits - cachesBefore_.l0Hits;
    stats.l0Absorbed =
        caches_after.l0Absorbed - cachesBefore_.l0Absorbed;
    stats.wordTouches =
        caches_after.wordTouches - cachesBefore_.wordTouches;
    stats.wallSeconds = wall_seconds;
    stats.stoppedEarly = stopEarly_;
    Tick latency_sum = 0;
    for (const NodeAccum &acc : nodeStats_)
        latency_sum += acc.latencySum;
    stats.avgMissLatencyNs =
        stats.misses ? ticksToNs(latency_sum) /
                           static_cast<double>(stats.misses)
                     : 0.0;
    return stats;
}

void
System::ckptSaveState(ckpt::Writer &w) const
{
    // META: config identity (restore asserts an identical machine)
    // plus the run-phase bookkeeping.
    w.section(0x4d455441u);  // "META"
    w.str(workload_.name());
    w.u32(params_.nodes);
    w.u8(static_cast<std::uint8_t>(params_.protocol));
    w.u8(static_cast<std::uint8_t>(params_.policy));
    w.u8(static_cast<std::uint8_t>(params_.cpuModel));
    w.u32(topo_.hubs());
    w.b(params_.dataChaining);
    w.u64(params_.functionalWarmupMisses);
    w.u64(params_.warmupInstrPerCpu);
    w.u64(params_.measureInstrPerCpu);
    w.b(verify::armed(oracle_.get()));
    w.u64(kernel_.ckptNow());
    w.u8(phaseIndex_);
    w.b(measuring_);
    w.b(stopEarly_);
    w.u64(measureStart_);
    w.u32(cpusDone_.load(std::memory_order_acquire));
    w.u64(eventsBefore_);
    w.u64(crossingsBefore_);
    w.u64(windowsBefore_);
    w.u64(calOpsBefore_);
    w.pod(cachesBefore_);
    w.u64(nextCkptTick_);

    kernel_.ckptSaveCounters(w);
    workload_.ckptSave(w);

    w.section(0x4e4f4445u);  // "NODE"
    for (NodeId n = 0; n < params_.nodes; ++n) {
        cacheCtrls_[n]->ckptSave(w);
        cpus_[n]->ckptSave(w);
        if (params_.protocol == ProtocolKind::Multicast)
            predictors_[n]->ckptSave(w);
    }

    w.section(0x48554253u);  // "HUBS"
    for (unsigned h = 0; h < topo_.hubs(); ++h) {
        trackers_[h].ckptSave(w);
        ownerDataAt_[h].ckptSave(w);
        memReadyAt_[h].ckptSave(w);
        w.pod(reorderStash_[h]);
    }

    crossbar_.ckptSave(w);

    w.section(0x53544154u);  // "STAT"
    w.podVec(nodeStats_);

    if (verify::armed(oracle_.get()))
        oracle_->ckptSave(w);

    // Every in-flight event, in the canonical (when, key) order the
    // kernel exposes -- identical at every shard count.
    w.section(0x45565453u);  // "EVTS"
    std::vector<ShardedKernel::CkptPending> pending =
        kernel_.ckptCollectPending();
    w.u64(pending.size());
    for (const ShardedKernel::CkptPending &p : pending) {
        w.u64(p.when);
        w.u64(p.key);
        w.u16(p.domain);
        p.ev->ckptSave(w);
    }
}

void
System::ckptLoadState(ckpt::Reader &r)
{
    r.section(0x4d455441u);  // "META"
    std::string wl = r.str();
    std::uint32_t nodes = r.u32();
    auto protocol = static_cast<ProtocolKind>(r.u8());
    auto policy = static_cast<PredictorPolicy>(r.u8());
    auto cpu_model = static_cast<CpuModel>(r.u8());
    std::uint32_t hubs = r.u32();
    bool chaining = r.b();
    std::uint64_t fw_misses = r.u64();
    std::uint64_t warmup_instr = r.u64();
    std::uint64_t measure_instr = r.u64();
    bool armed = r.b();
    dsp_assert(wl == workload_.name(),
               "checkpoint taken of workload '%s', this run drives "
               "'%s'",
               wl.c_str(), workload_.name().c_str());
    dsp_assert(nodes == params_.nodes && hubs == topo_.hubs(),
               "checkpoint machine is %u nodes / %u hubs, this run "
               "is %u / %u",
               nodes, hubs, params_.nodes, topo_.hubs());
    dsp_assert(protocol == params_.protocol &&
                   policy == params_.policy &&
                   cpu_model == params_.cpuModel &&
                   chaining == params_.dataChaining,
               "checkpoint protocol/policy/cpu/chaining configuration "
               "differs from this run's");
    dsp_assert(fw_misses == params_.functionalWarmupMisses &&
                   warmup_instr == params_.warmupInstrPerCpu &&
                   measure_instr == params_.measureInstrPerCpu,
               "checkpoint warmup/measure lengths differ from this "
               "run's");
    dsp_assert(armed == verify::armed(oracle_.get()),
               "checkpoint %s the oracle armed, this run %s",
               armed ? "had" : "did not have",
               verify::armed(oracle_.get()) ? "does" : "does not");

    Tick now = r.u64();
    phaseIndex_ = r.u8();
    measuring_ = r.b();
    stopEarly_ = r.b();
    measureStart_ = r.u64();
    std::uint32_t cpus_done = r.u32();
    eventsBefore_ = r.u64();
    crossingsBefore_ = r.u64();
    windowsBefore_ = r.u64();
    calOpsBefore_ = r.u64();
    cachesBefore_ = r.pod<CacheCounters>();
    nextCkptTick_ = r.u64();

    // Queues must sit at the checkpointed clock before any event is
    // re-inserted (calendar-window positioning).
    kernel_.ckptAdvanceTo(now);
    kernel_.ckptLoadCounters(r);
    workload_.ckptLoad(r);

    r.section(0x4e4f4445u);  // "NODE"
    for (NodeId n = 0; n < params_.nodes; ++n) {
        cacheCtrls_[n]->ckptLoad(r);
        cpus_[n]->ckptLoad(r);
        if (params_.protocol == ProtocolKind::Multicast)
            predictors_[n]->ckptLoad(r);
    }

    r.section(0x48554253u);  // "HUBS"
    for (unsigned h = 0; h < topo_.hubs(); ++h) {
        trackers_[h].ckptLoad(r);
        ownerDataAt_[h].ckptLoad(r);
        memReadyAt_[h].ckptLoad(r);
        reorderStash_[h] = r.pod<ReorderStash>();
    }

    crossbar_.ckptLoad(r);

    r.section(0x53544154u);  // "STAT"
    nodeStats_ = r.podVec<NodeAccum>();
    dsp_assert(nodeStats_.size() == params_.nodes,
               "checkpoint carries %zu node accumulators for %u nodes",
               nodeStats_.size(), params_.nodes);

    if (verify::armed(oracle_.get()))
        oracle_->ckptLoad(r);

    r.section(0x45565453u);  // "EVTS"
    std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
        Tick when = r.u64();
        std::uint64_t key = r.u64();
        std::uint16_t domain = r.u16();
        kernel_.ckptSchedule(restoreOneEvent(r), domain, when, key);
    }

    cpusDone_.store(cpus_done, std::memory_order_relaxed);
    phaseDone_.store(cpus_done == params_.nodes,
                     std::memory_order_relaxed);
    // runFor() ran in the original process (its counters were just
    // restored); only the end-of-phase callback needs re-supplying,
    // and only on CPUs that had not finished the phase.
    for (auto &cpu : cpus_) {
        if (!cpu->targetReached())
            cpu->ckptRearm(cpuDoneCallback());
    }
}

Event &
System::restoreOneEvent(ckpt::Reader &r)
{
    auto tag = static_cast<ckpt::EventTag>(r.u8());
    switch (tag) {
      case ckpt::EventTag::SysLocalDeliver: {
        Message m = r.pod<Message>();
        NodeId dest = r.u32();
        Tick at = r.u64();
        return *EventPool<LocalDeliverEvent>::instance().acquire(
            *this, MessageRef(std::move(m)), dest, at);
      }
      case ckpt::EventTag::SysSend: {
        Message m = r.pod<Message>();
        return *EventPool<SendEvent>::instance().acquire(
            *this, std::move(m));
      }
      case ckpt::EventTag::SysEvict: {
        BlockId block = r.u64();
        NodeId node = r.u32();
        bool owned = r.b();
        Tick evict_tick = r.u64();
        Tick wb_arrive = r.u64();
        return *EventPool<EvictEvent>::instance().acquire(
            *this, block, node, owned, evict_tick, wb_arrive);
      }
      case ckpt::EventTag::XbarOrder:
        return crossbar_.ckptRestoreOrder(r);
      case ckpt::EventTag::XbarDeliver:
        return crossbar_.ckptRestoreDeliver(r);
      case ckpt::EventTag::CacheIssue: {
        NodeId n = r.u16();
        return cacheCtrls_[n]->ckptRestoreIssue(r);
      }
      case ckpt::EventTag::MemDirContinue:
      case ckpt::EventTag::MemRetry: {
        NodeId n = r.u16();
        return memCtrls_[n]->ckptRestoreEvent(tag, r);
      }
      case ckpt::EventTag::CpuResume:
      case ckpt::EventTag::CpuFetch: {
        NodeId n = r.u16();
        return cpus_[n]->ckptRestoreEvent(tag, r);
      }
    }
    dsp_panic("checkpoint event tag %u unknown",
              static_cast<unsigned>(tag));
}

void
System::writeCheckpoint()
{
    Tick now = kernel_.ckptNow();
    // Advance the due boundary past `now` before serializing: the
    // snapshot then carries the same forward schedule an
    // uninterrupted run would follow, so a restored run writes its
    // later checkpoints at exactly the same ticks.
    while (nextCkptTick_ <= now)
        nextCkptTick_ += params_.checkpoint.every;

    ckpt::Writer w;
    ckptSaveState(w);
    std::string path =
        ckpt::checkpointPath(params_.checkpoint.dir, now);
    if (ckpt::writeCheckpointFile(path, w.buffer())) {
        lastCkptPath_ = path;
        lastCkptTick_ = now;
        ++ckptsWritten_;
        std::fprintf(stderr,
                     "DSP-CKPT {\"op\":\"write\",\"tick\":%llu,"
                     "\"path\":\"%s\"}\n",
                     static_cast<unsigned long long>(now),
                     path.c_str());
        // Compact only after a *successful* write: a failed write
        // must never shrink the set of restore points.
        ckpt::pruneCheckpoints(params_.checkpoint.dir,
                               params_.checkpoint.keep);
    }

    if (killAfter_ != 0 && !restoredFromCkpt_ &&
        ckptsWritten_ >= killAfter_) {
        // Deterministic preemption: die exactly after the Nth write,
        // like a batch job SIGKILL'd mid-flight (killAfterFromEnv()).
        std::fflush(nullptr);
        std::raise(SIGKILL);
    }
}

bool
System::restoreIfRequested()
{
    const CheckpointControl &ctl = params_.checkpoint;
    if (!ctl.restore && ctl.restorePath.empty())
        return false;
    std::string path = ctl.restorePath;
    if (path.empty() && !ctl.dir.empty())
        path = ckpt::newestValidCheckpoint(ctl.dir);
    if (path.empty())
        return false;
    std::string payload;
    if (!ckpt::readCheckpointFile(path, payload)) {
        dsp_warn("checkpoint %s failed validation; starting fresh",
                 path.c_str());
        return false;
    }
    ckpt::Reader r(payload);
    ckptLoadState(r);
    dsp_assert(r.atEnd(),
               "checkpoint %s has trailing bytes past the event list",
               path.c_str());
    lastCkptPath_ = path;
    lastCkptTick_ = kernel_.ckptNow();
    std::fprintf(stderr,
                 "DSP-CKPT {\"op\":\"restore\",\"tick\":%llu,"
                 "\"path\":\"%s\"}\n",
                 static_cast<unsigned long long>(lastCkptTick_),
                 path.c_str());
    return true;
}

void
System::printReproBundle(std::FILE *out) const
{
    const verify::Violation &v = oracle_->violation();
    std::fprintf(
        out,
        "DSP-REPRO {\"workload\":\"%s\",\"nodes\":%u,"
        "\"protocol\":\"%s\",\"policy\":\"%s\",\"cpu\":\"%s\","
        "\"shards\":%u,\"hubs\":%u,\"cluster\":%u,"
        "\"hub_shard\":%s,\"data_chaining\":%s,"
        "\"functional_warmup\":%llu,\"warmup_instr\":%llu,"
        "\"measure_instr\":%llu,\"mutation\":\"%s\","
        "\"stop_at\":%llu,\"checkpoint\":\"%s\","
        "\"checkpoint_tick\":%llu,\"violation_tick\":%llu,"
        "\"violation_kind\":\"%s\",\"draws\":[",
        workload_.name().c_str(), params_.nodes,
        toString(params_.protocol).c_str(),
        toString(params_.policy).c_str(),
        params_.cpuModel == CpuModel::Simple ? "simple" : "detailed",
        params_.shards, params_.crossbar.topology.hubs,
        params_.crossbar.topology.cluster_size,
        params_.hubShard ? "true" : "false",
        params_.dataChaining ? "true" : "false",
        static_cast<unsigned long long>(
            params_.functionalWarmupMisses),
        static_cast<unsigned long long>(params_.warmupInstrPerCpu),
        static_cast<unsigned long long>(params_.measureInstrPerCpu),
        verify::toString(params_.verify.mutation).c_str(),
        static_cast<unsigned long long>(v.tick + 1),
        lastCkptPath_.c_str(),
        static_cast<unsigned long long>(lastCkptTick_),
        static_cast<unsigned long long>(v.tick),
        verify::toString(v.kind).c_str());
    for (NodeId p = 0; p < params_.nodes; ++p) {
        std::fprintf(out, "%s%llu", p == 0 ? "" : ",",
                     static_cast<unsigned long long>(
                         workload_.consumed(p)));
    }
    std::fprintf(out, "]}\n");
}

void
System::raiseOracleViolation()
{
    const verify::Violation &v = oracle_->violation();
    // Publish before any unwind path: death-style tests catch the
    // throw and assert on lastViolation()'s (kind, block, tick).
    verify::setLastViolation(v);
    if (panicThrowsForTest()) {
        throw std::runtime_error("coherence violation: " +
                                 verify::toString(v.kind));
    }
    oracle_->printReport(stderr);
    printReproBundle(stderr);
    runPanicHooks();
    std::exit(verify::violationExitCode);
}

} // namespace dsp
