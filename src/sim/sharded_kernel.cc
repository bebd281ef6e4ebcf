#include "sim/sharded_kernel.hh"

#include <algorithm>

#include "checkpoint/checkpoint.hh"
#include "sim/logging.hh"
#include "sim/panic_hooks.hh"

namespace dsp {

namespace {

/**
 * Which kernel shard (if any) the current thread is executing. Boot
 * context -- the single-threaded state between run() calls -- is
 * `kernel == nullptr` (or a different kernel), and is allowed to
 * insert directly into any shard's queue.
 */
struct ExecContext {
    ShardedKernel *kernel = nullptr;
    unsigned shard = 0;
};

ExecContext &
execContext()
{
    static thread_local ExecContext ctx;
    return ctx;
}

} // namespace

DomainPort::DomainPort(ShardedKernel &kernel, std::uint16_t domain)
    : kernel_(&kernel), domain_(domain)
{
    dsp_assert(domain >= 1 && domain < ShardedKernel::bootDomain &&
                   domain < kernel.domainShard_.size(),
               "bad domain id %u", domain);
    shard_ = static_cast<std::uint8_t>(kernel.domainShard_[domain]);
    queue_ = &kernel.shards_[shard_]->queue;
}

Tick
DomainPort::now() const
{
    if (kernel_ != nullptr) {
        const ExecContext &ctx = execContext();
        if (ctx.kernel == kernel_)
            return kernel_->shards_[ctx.shard]->queue.now();
    }
    return queue_->now();
}

void
DomainPort::schedule(Event &ev, Tick when, EventPriority prio)
{
    if (kernel_ == nullptr) {
        queue_->schedule(ev, when, prio);
        return;
    }
    kernel_->scheduleOn(domain_, shard_, ev, when, prio);
}

void
DomainPort::deschedule(Event &ev)
{
    if (kernel_ != nullptr) {
        const ExecContext &ctx = execContext();
        dsp_assert(ctx.kernel != kernel_ || ctx.shard == shard_,
                   "cross-shard deschedule of domain %u from shard %u",
                   domain_, ctx.shard);
    }
    queue_->deschedule(ev);
}

ShardedKernel::ShardedKernel(unsigned num_shards,
                             std::vector<unsigned> domain_shard,
                             Tick lookahead)
    : numShards_(num_shards),
      domainShard_(std::move(domain_shard)),
      lookahead_(lookahead),
      barrier_(num_shards)
{
    dsp_assert(numShards_ >= 1 && numShards_ <= 64,
               "bad shard count %u", numShards_);
    dsp_assert(lookahead_ > 0, "lookahead must be positive");
    dsp_assert(domainShard_.size() >= 2 &&
                   domainShard_.size() <= maxDomains + std::size_t{1},
               "bad domain map size %zu", domainShard_.size());

    shards_.reserve(numShards_);
    for (unsigned s = 0; s < numShards_; ++s) {
        shards_.push_back(std::make_unique<Shard>());
        shards_[s]->queue.setDomainSink(&shards_[s]->curDomain);
    }
    for (std::size_t d = 1; d < domainShard_.size(); ++d) {
        dsp_assert(domainShard_[d] < numShards_,
                   "domain %zu mapped to bad shard %u", d,
                   domainShard_[d]);
    }
    mail_.resize(static_cast<std::size_t>(numShards_) * numShards_);
    // One sequence counter per domain plus one for the boot context
    // (index bootDomain): counters advance only on the owning domain's
    // thread, so the key stream is partition-independent.
    domainSeq_.resize(bootDomain + std::size_t{1});

    // Any death path (watchdog panic, oracle violation, driver abort)
    // gets this kernel's window/shard diagnostics in its dump.
    panicHookId_ = addPanicHook("sharded-kernel",
                                [this]() { dumpDiagnostics(); });
}

ShardedKernel::~ShardedKernel()
{
    removePanicHook(panicHookId_);
    {
        std::unique_lock<std::mutex> lock(parkMutex_);
        shutdown_ = true;
    }
    parkCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();

    // Queues release their pending events; mailboxes are always
    // drained at run() exit, but guard against aborted runs anyway.
    for (Mailbox &box : mail_) {
        for (Plane &plane : box.planes) {
            for (MailRec &rec : plane.recs)
                rec.ev->release();
            plane.recs.clear();
        }
    }
}

void
ShardedKernel::dsp_assert_key_seq(std::uint64_t seq)
{
    dsp_assert(seq < (std::uint64_t{1} << seqBits),
               "per-domain sequence overflowed its %u key bits",
               static_cast<unsigned>(seqBits));
}

DomainPort
ShardedKernel::port(std::uint16_t domain)
{
    return DomainPort(*this, domain);
}

void
ShardedKernel::scheduleOn(std::uint16_t domain, unsigned target_shard,
                          Event &ev, Tick when, EventPriority prio)
{
    ev.domain_ = domain;
    const ExecContext &ctx = execContext();
    if (ctx.kernel != this) {
        // Boot context: single-threaded between windows; insert
        // directly wherever the event belongs. The dedicated boot
        // counter keeps these keys identical for every K.
        std::uint64_t key =
            packKey(prio, bootDomain, domainSeq_[bootDomain].next++);
        shards_[target_shard]->queue.scheduleWithKey(ev, when, key);
        return;
    }

    Shard &from = *shards_[ctx.shard];
    std::uint16_t sender = from.curDomain;
    // Any cross-domain schedule -- same shard or not -- truncates a
    // batched window at the next sub-boundary. Counting by *domain*
    // keeps the truncation decision identical for every shard count.
    from.crossDomainSends += sender != domain ? 1 : 0;
    std::uint64_t key =
        packKey(prio, sender, domainSeq_[sender].next++);
    if (ctx.shard == target_shard) {
        from.queue.scheduleWithKey(ev, when, key);
    } else {
        Plane &plane =
            mailbox(ctx.shard, target_shard).planes[from.curPlane];
        plane.recs.push_back(MailRec{&ev, when, key});
        if (when < plane.min1) {
            plane.min2 = plane.min1;
            plane.min1 = when;
        } else if (when < plane.min2) {
            plane.min2 = when;
        }
    }
}

void
ShardedKernel::Barrier::wait(unsigned gen) const
{
    for (int spins = 0;
         gen_.load(std::memory_order_acquire) == gen; ++spins) {
        if (spins >= 256)
            std::this_thread::yield();
    }
}

void
ShardedKernel::planNext()
{
    ++crossings_;

    // Settle the window the shards just finished. A batched window's
    // achieved end is whatever its solo shard reached before a
    // cross-domain send (or the plan end) stopped it; the solo shard
    // published it before arriving here.
    Tick resume = 0;
    if (firstCrossing_) {
        firstCrossing_ = false;
    } else if (plan_.batch) {
        resume = shards_[plan_.solo]->achievedEnd;
        Tick sub = (resume - plan_.start) / lookahead_;
        windows_ += sub;
        batchedWindows_ += sub - 1;
    } else {
        resume = plan_.end;
        windows_ += 1;
    }
    plan_.resume = resume;
    plan_.batch = false;

    if ((*stopFn_)()) {
        plan_.stop = true;
        stoppedByPredicate_ = true;
        return;
    }

    // Global two earliest pending ticks (as a multiset) and each
    // shard's effective earliest, from the shards' pre-arrival queue
    // summaries plus the minima of every undrained mailbox plane
    // (attributed to the *destination* shard, where the events will
    // execute).
    Tick e1 = maxTick;
    Tick e2 = maxTick;
    unsigned solo = 0;
    auto consider = [&](Tick t, unsigned dest_shard) {
        if (t < e1) {
            e2 = e1;
            e1 = t;
            solo = dest_shard;
        } else if (t < e2) {
            e2 = t;
        }
    };
    // The plane every sender wrote during the window just finished;
    // it is drained right after this crossing (all shards flip their
    // curPlane in lockstep, so shard 0's value speaks for all).
    unsigned plane = shards_[0]->curPlane;
    for (unsigned s = 0; s < numShards_; ++s) {
        consider(shards_[s]->e1, s);
        consider(shards_[s]->e2, s);
        for (unsigned src = 0; src < numShards_; ++src) {
            const Plane &p = mailbox(src, s).planes[plane];
            consider(p.min1, s);
            consider(p.min2, s);
        }
    }

    if (e1 == maxTick) {
        plan_.stop = true;  // drained without satisfying the predicate
        return;
    }
    checkProgress(e1);
    dsp_assert(e1 < maxTick - maxBatchWindows * lookahead_,
               "window end would overflow the tick range");
    plan_.start = e1;
    plan_.end = e1 + lookahead_;

    // Quiet-window batching: when the *second* earliest pending event
    // anywhere lies two or more windows out, only `solo`'s events can
    // fire before it -- every other shard is provably idle through
    // the horizon -- so one crossing may cover several windows. The
    // decision depends only on (e1, e2), which are partition
    // -independent, so a K-shard run batches exactly like K=1.
    if (e2 != maxTick && e2 - e1 >= 2 * lookahead_) {
        Tick span = std::min((e2 - e1) / lookahead_, maxBatchWindows);
        plan_.end = e1 + span * lookahead_;
        plan_.batch = true;
        plan_.solo = solo;
    } else if (e2 == maxTick) {
        plan_.end = e1 + maxBatchWindows * lookahead_;
        plan_.batch = true;
        plan_.solo = solo;
    }
}

void
ShardedKernel::checkProgress(Tick earliest)
{
    // Runs on the planner (last barrier arriver) with every shard
    // quiescent, so executed() is exact. A healthy kernel executes at
    // least the globally earliest event every window; crossing
    // stallCrossingLimit_ times with work pending and zero executed
    // events means a wedge (a queue that stopped delivering, a
    // lookahead/plan bug) -- diagnose loudly instead of spinning.
    std::uint64_t exec = stallTestFreeze_ ? watchdogExecuted_
                                          : executed();
    if (exec != watchdogExecuted_) {
        watchdogExecuted_ = exec;
        stalledCrossings_ = 0;
        return;
    }
    if (++stalledCrossings_ >= stallCrossingLimit_)
        panicStalled(earliest);
}

void
ShardedKernel::dumpDiagnostics() const
{
    dsp_warn("sharded kernel dump: crossings=%llu windows=%llu "
             "plan=[%llu,%llu) resume=%llu batch=%d solo=%u "
             "lookahead=%llu",
             static_cast<unsigned long long>(crossings_),
             static_cast<unsigned long long>(windows_),
             static_cast<unsigned long long>(plan_.start),
             static_cast<unsigned long long>(plan_.end),
             static_cast<unsigned long long>(plan_.resume),
             plan_.batch ? 1 : 0, plan_.solo,
             static_cast<unsigned long long>(lookahead_));
    for (unsigned s = 0; s < numShards_; ++s) {
        const Shard &shard = *shards_[s];
        dsp_warn("  shard %u: now=%llu pending=%zu executed=%llu "
                 "e1=%llu e2=%llu achieved_end=%llu",
                 s, static_cast<unsigned long long>(shard.queue.now()),
                 shard.queue.pending(),
                 static_cast<unsigned long long>(
                     shard.queue.executed()),
                 static_cast<unsigned long long>(shard.e1),
                 static_cast<unsigned long long>(shard.e2),
                 static_cast<unsigned long long>(shard.achievedEnd));
    }
}

void
ShardedKernel::panicStalled(Tick earliest)
{
    // The window/shard dump rides the panic-hook registry (registered
    // in the constructor), so it composes with other subsystems'
    // dumps instead of printing only its own.
    dsp_panic("sharded kernel stalled: no events executed across %u "
              "barrier crossings with work pending (earliest tick "
              "%llu)",
              stalledCrossings_,
              static_cast<unsigned long long>(earliest));
}

void
ShardedKernel::drainInbox(unsigned shard, unsigned plane)
{
    Shard &to = *shards_[shard];
    for (unsigned src = 0; src < numShards_; ++src) {
        Plane &box = mailbox(src, shard).planes[plane];
        for (const MailRec &rec : box.recs) {
            // Conservative-lookahead invariant: anything sent during
            // window [W, end) was scheduled at least L ahead of the
            // sender's clock, so it cannot land inside that window.
            dsp_assert(rec.when >= plan_.resume,
                       "lookahead violation: cross-shard event at "
                       "%llu inside window ending %llu",
                       static_cast<unsigned long long>(rec.when),
                       static_cast<unsigned long long>(plan_.resume));
            to.queue.scheduleWithKey(*rec.ev, rec.when, rec.key);
        }
        box.recs.clear();
        box.min1 = maxTick;
        box.min2 = maxTick;
    }
}

void
ShardedKernel::runBatch(Shard &mine)
{
    // Run L-wide sub-windows back to back without any crossing; stop
    // at the first sub-boundary after a cross-domain schedule (its
    // target -- possibly another shard's mailbox -- is guaranteed to
    // be at or after that boundary by the lookahead invariant, and
    // the next crossing's drain hands it over).
    mine.crossDomainSends = 0;
    Tick sub_end = plan_.start + lookahead_;
    while (true) {
        mine.queue.run(sub_end - 1);
        if (mine.crossDomainSends != 0 || sub_end >= plan_.end)
            break;
        sub_end += lookahead_;
    }
    mine.achievedEnd = sub_end;
}

void
ShardedKernel::workerLoop(unsigned shard)
{
    ExecContext &ctx = execContext();
    ctx.kernel = this;
    ctx.shard = shard;

    Shard &mine = *shards_[shard];
    while (true) {
        barrier_.arrive([this] { planNext(); });
        // Window parity flips at every crossing: drains empty the
        // plane senders filled last window, writes go to the other.
        unsigned write_plane = 1 - mine.curPlane;
        mine.curPlane = write_plane;
        // Shards that sat out a batched window lag; bring every clock
        // to the last window's end (before draining, so drained
        // schedules can never be in a lagging shard's past).
        if (plan_.resume > 0)
            mine.queue.advanceTo(plan_.resume - 1);
        drainInbox(shard, 1 - write_plane);
        if (plan_.stop)
            break;
        if (plan_.batch) {
            if (shard == plan_.solo) {
                runBatch(mine);
            }
            // Everyone else is provably idle until plan_.end and just
            // returns to the barrier; their clocks catch up above.
        } else {
            mine.queue.run(plan_.end - 1);
            mine.achievedEnd = plan_.end;
        }
        mine.queue.earliestTwo(mine.e1, mine.e2);
    }

    ctx.kernel = nullptr;
}

void
ShardedKernel::startWorkers()
{
    workers_.reserve(numShards_ - 1);
    for (unsigned s = 1; s < numShards_; ++s) {
        workers_.emplace_back([this, s] {
            std::uint64_t seen = 0;
            while (true) {
                {
                    std::unique_lock<std::mutex> lock(parkMutex_);
                    parkCv_.wait(lock, [&] {
                        return shutdown_ || runGen_ != seen;
                    });
                    if (shutdown_)
                        return;
                    seen = runGen_;
                }
                workerLoop(s);
                {
                    std::unique_lock<std::mutex> lock(parkMutex_);
                    --activeWorkers_;
                }
                parkCv_.notify_all();
            }
        });
    }
}

bool
ShardedKernel::run(const std::function<bool()> &stop)
{
    stopFn_ = &stop;
    stoppedByPredicate_ = false;
    plan_ = Plan{};
    firstCrossing_ = true;
    watchdogExecuted_ = ~std::uint64_t{0};
    stalledCrossings_ = 0;
    for (auto &shard : shards_) {
        shard->queue.earliestTwo(shard->e1, shard->e2);
        shard->achievedEnd = 0;
    }

    if (numShards_ > 1 && workers_.empty())
        startWorkers();

    // Release the parked workers into this run (the mutex publishes
    // the boot-context state written above), run shard 0 ourselves,
    // then wait for every worker to park again before returning the
    // kernel to quiescent (boot) state.
    {
        std::unique_lock<std::mutex> lock(parkMutex_);
        activeWorkers_ = numShards_ - 1;
        ++runGen_;
    }
    parkCv_.notify_all();
    workerLoop(0);
    {
        std::unique_lock<std::mutex> lock(parkMutex_);
        parkCv_.wait(lock, [&] { return activeWorkers_ == 0; });
    }

    stopFn_ = nullptr;
    return stoppedByPredicate_;
}

std::uint64_t
ShardedKernel::executed() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->queue.executed();
    return total;
}

std::uint64_t
ShardedKernel::calendarOps() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_)
        total += shard->queue.calendarOps();
    return total;
}

bool
ShardedKernel::empty() const
{
    for (const auto &shard : shards_) {
        if (!shard->queue.empty())
            return false;
    }
    return true;
}

std::size_t
ShardedKernel::pending(unsigned shard) const
{
    return shards_[shard]->queue.pending();
}

std::vector<ShardedKernel::CkptPending>
ShardedKernel::ckptCollectPending() const
{
    std::vector<CkptPending> pend;
    for (const auto &shard : shards_) {
        shard->queue.forEachPending(
            [&](Event &ev, Tick when, std::uint64_t key,
                std::uint16_t domain) {
                pend.push_back(CkptPending{when, key, domain, &ev});
            });
    }
    std::sort(pend.begin(), pend.end(),
              [](const CkptPending &a, const CkptPending &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.key < b.key;
              });
    return pend;
}

void
ShardedKernel::ckptAdvanceTo(Tick t)
{
    for (auto &shard : shards_)
        shard->queue.advanceTo(t);
}

void
ShardedKernel::ckptSchedule(Event &ev, std::uint16_t domain, Tick when,
                            std::uint64_t key)
{
    dsp_assert(domain >= 1 && domain < domainShard_.size(),
               "checkpointed event has bad domain %u", domain);
    ev.domain_ = domain;
    EventQueue &queue = shards_[domainShard_[domain]]->queue;
    queue.scheduleWithKey(ev, when, key);
    // The saved calendar-op total already counts this event's insert.
    queue.ckptSetCalendarOps(queue.calendarOps() - 1);
}

void
ShardedKernel::ckptSaveCounters(ckpt::Writer &w) const
{
    w.section(0x4b524e4cu);  // "KRNL"
    w.u64(domainSeq_.size());
    for (const DomainSeq &seq : domainSeq_)
        w.u64(seq.next);
    w.u64(crossings_);
    w.u64(windows_);
    w.u64(batchedWindows_);
    w.u64(executed());
    w.u64(calendarOps());
}

void
ShardedKernel::ckptLoadCounters(ckpt::Reader &r)
{
    r.section(0x4b524e4cu);
    std::uint64_t n = r.u64();
    dsp_assert(n == domainSeq_.size(),
               "checkpoint domain count %llu != machine's %zu",
               static_cast<unsigned long long>(n), domainSeq_.size());
    for (DomainSeq &seq : domainSeq_)
        seq.next = r.u64();
    crossings_ = r.u64();
    windows_ = r.u64();
    batchedWindows_ = r.u64();
    // The per-shard split of the executed count is partition-dependent;
    // the lifetime total is not. Park it all on shard 0. Same for the
    // calendar-op total.
    shards_[0]->queue.ckptSetExecuted(r.u64());
    shards_[0]->queue.ckptSetCalendarOps(r.u64());
}

} // namespace dsp
