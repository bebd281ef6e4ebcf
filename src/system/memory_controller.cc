#include "sim/logging.hh"
#include "system/system.hh"
#include "verify/oracle.hh"

namespace dsp {

MemoryController::MemoryController(System &system, NodeId node,
                                   DomainPort port)
    : sys_(system), node_(node), port_(port)
{
}

struct MemoryController::DirContinueEvent final : Event {
    DirContinueEvent(MemoryController &c, Message m)
        : ctrl(c), msg(std::move(m))
    {
    }

    void process() override { ctrl.directoryContinue(msg); }

    void
    release() override
    {
        EventPool<DirContinueEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(
            ckpt::EventTag::MemDirContinue));
        w.u16(static_cast<std::uint16_t>(ctrl.node_));
        w.pod(msg);
    }

    MemoryController &ctrl;
    Message msg;
};

struct MemoryController::RetryEvent final : Event {
    RetryEvent(MemoryController &c, Message m)
        : ctrl(c), msg(std::move(m))
    {
    }

    void
    process() override
    {
        ctrl.sys_.crossbar_.sendOrdered(std::move(msg));
    }

    void
    release() override
    {
        EventPool<RetryEvent>::instance().release(this);
    }

    void
    ckptSave(ckpt::Writer &w) const override
    {
        w.u8(static_cast<std::uint8_t>(ckpt::EventTag::MemRetry));
        w.u16(static_cast<std::uint16_t>(ctrl.node_));
        w.pod(msg);
    }

    MemoryController &ctrl;
    Message msg;
};

Event &
MemoryController::ckptRestoreEvent(ckpt::EventTag tag,
                                   ckpt::Reader &r)
{
    Message m = r.pod<Message>();
    if (tag == ckpt::EventTag::MemDirContinue) {
        return *EventPool<DirContinueEvent>::instance().acquire(
            *this, std::move(m));
    }
    dsp_assert(tag == ckpt::EventTag::MemRetry,
               "memory controller %u asked to restore event tag %u",
               node_, static_cast<unsigned>(tag));
    return *EventPool<RetryEvent>::instance().acquire(*this,
                                                      std::move(m));
}

void
MemoryController::onHomeRequest(const Message &msg, Tick tick)
{
    if (sys_.params().protocol == ProtocolKind::Directory)
        handleDirectory(msg, tick);
    else
        handleMulticastHome(msg, tick);
}

void
MemoryController::handleDirectory(const Message &msg, Tick tick)
{
    Tick memory = nsToTicks(sys_.params().latency.memory_ns);

    // Directory access (co-located with memory, 80 ns) precedes any
    // response or forward. The echo carries everything the response
    // needs, so the scheduled continuation copies only the message.
    Tick done = tick + memory;

    port_.schedule(
        *EventPool<DirContinueEvent>::instance().acquire(*this, msg),
        done, EventPriority::Controller);
}

void
MemoryController::directoryContinue(const Message &msg)
{
    Tick memory = nsToTicks(sys_.params().latency.memory_ns);
    const TxnEcho &echo = msg.echo;
    // Invalidate every sharer (GS320: the totally-ordered
    // interconnect removes the need for acks).
    if (msg.type == RequestType::GetExclusive) {
        echo.required.forEach([&](NodeId q) {
            if (q == echo.responder)
                return;  // the owner learns via the forward
            Message inval;
            inval.kind = MessageKind::Invalidate;
            inval.txn = msg.txn;
            inval.addr = msg.addr;
            inval.type = msg.type;
            inval.src = node_;
            inval.dest = q;
            inval.echo = echo;
            sys_.sendOrLocal(inval);
        });
    }

    if (echo.responder == invalidNode) {
        // Memory supplies the data -- the read itself (one memory
        // latency, already elapsed since the delivery) cannot *start*
        // before an in-flight writeback for the block has landed,
        // same as the multicast home's chaining below.
        Tick now = port_.now();
        Tick start = std::max(now, echo.supplyEarliest + memory);
        // Read-start semantics: the memory read ran over the
        // directory-access latency that just elapsed (or is
        // re-issued at the chained bound).
        if (verify::armed(sys_.oracle())) {
            sys_.oracle()->recordSupply(
                node_, invalidNode, msg.block(), msg.txn,
                std::max(now - memory, echo.supplyEarliest), now);
        }
        Message data;
        data.kind = MessageKind::Data;
        data.txn = msg.txn;
        data.addr = msg.addr;
        data.pc = msg.pc;
        data.type = msg.type;
        data.src = node_;
        data.dest = echo.requester;
        data.echo = echo;
        if (start > now)
            sys_.sendLater(std::move(data), start);
        else
            sys_.sendOrLocal(std::move(data));
    } else if (echo.responder == echo.requester) {
        // Upgrade: dataless grant back to the requester.
        Message grant;
        grant.kind = MessageKind::Grant;
        grant.txn = msg.txn;
        grant.addr = msg.addr;
        grant.type = msg.type;
        grant.src = node_;
        grant.dest = echo.requester;
        grant.echo = echo;
        sys_.sendOrLocal(std::move(grant));
    } else {
        // 3-hop: forward to the owner.
        Message fwd;
        fwd.kind = MessageKind::Forward;
        fwd.txn = msg.txn;
        fwd.addr = msg.addr;
        fwd.pc = msg.pc;
        fwd.type = msg.type;
        fwd.src = node_;
        fwd.dest = echo.responder;
        fwd.echo = echo;
        sys_.sendOrLocal(std::move(fwd));
    }
}

void
MemoryController::handleMulticastHome(const Message &msg, Tick tick)
{
    const TxnEcho &echo = msg.echo;
    Tick memory = nsToTicks(sys_.params().latency.memory_ns);

    if (!echo.resolved) {
        // Insufficient destination set: the directory re-issues the
        // request with an improved set after its access latency.
        // Attempts are strictly sequential -- the home only issues
        // attempt a+1 from attempt a's own delivery, and a resolved
        // attempt never reaches this branch -- so this unresolved
        // echo is necessarily the transaction's latest ordering and
        // exactly one retry is issued per failed attempt. (The old
        // shared transaction table re-checked this against a live
        // attempts counter; the echo design makes the check
        // unexpressible, and the invariant holds structurally.)
        std::uint8_t next_attempt =
            static_cast<std::uint8_t>(msg.attempt + 1);

        // Mutation: the home re-issues the retry with the *same*
        // attempt number -- the predictor-learning invariant (retries
        // must make monotone forward progress) breaks and the oracle
        // flags a retry-regression at the next window boundary.
        if (verify::armed(sys_.oracle()) &&
            sys_.params().verify.mutation ==
                verify::Mutation::DuplicateRetry) {
            next_attempt = msg.attempt;
        }

        Message retry;
        retry.kind = MessageKind::Retry;
        retry.txn = msg.txn;
        retry.addr = msg.addr;
        retry.pc = msg.pc;
        retry.type = msg.type;
        retry.src = node_;
        retry.attempt = next_attempt;
        retry.echo.issued = echo.issued;
        retry.echo.requester = echo.requester;

        if (next_attempt >= 2) {
            // Third attempt: broadcast, guaranteed to succeed
            // (Section 4.1).
            retry.dests = DestinationSet::all(sys_.params().nodes);
        } else {
            // Improved set: the observers the ordering point saw this
            // attempt miss, plus the requester and the home. A racing
            // request can still invalidate this between that ordering
            // and the retry's own ordering (the window of
            // vulnerability).
            retry.dests = echo.required;
            retry.dests.add(echo.requester);
            retry.dests.add(node_);
        }
        port_.schedule(*EventPool<RetryEvent>::instance().acquire(
                           *this, std::move(retry)),
                       tick + memory, EventPriority::Controller);
        return;
    }

    // Resolved transaction: the home only acts when memory is the
    // responder (and only for the resolving attempt).
    if (echo.resolvedAttempt != msg.attempt)
        return;
    if (echo.responder != invalidNode) {
        // Mutation: the home supplies from memory although a cache
        // owns the block -- the requester fills with data that misses
        // every write since the owner's. Recorded honestly (the data
        // really does come from memory).
        if (verify::armed(sys_.oracle()) &&
            sys_.params().verify.mutation ==
                verify::Mutation::StaleOwnerSupply &&
            echo.responder != echo.requester) {
            Tick start = std::max(tick, echo.supplyEarliest);
            sys_.oracle()->recordSupply(node_, invalidNode,
                                        msg.block(), msg.txn, start,
                                        tick);
            Message data;
            data.kind = MessageKind::Data;
            data.txn = msg.txn;
            data.addr = msg.addr;
            data.pc = msg.pc;
            data.type = msg.type;
            data.src = node_;
            data.dest = echo.requester;
            data.echo = echo;
            sys_.sendLater(std::move(data), start + memory);
        }
        return;
    }

    // Memory read -- chained behind an in-flight writeback when the
    // ordering point recorded one.
    Tick start = std::max(tick, echo.supplyEarliest);
    if (verify::armed(sys_.oracle())) {
        sys_.oracle()->recordSupply(node_, invalidNode, msg.block(),
                                    msg.txn, start, tick);
    }
    Message data;
    data.kind = MessageKind::Data;
    data.txn = msg.txn;
    data.addr = msg.addr;
    data.pc = msg.pc;
    data.type = msg.type;
    data.src = node_;
    data.dest = echo.requester;
    data.echo = echo;
    sys_.sendLater(std::move(data), start + memory);
}

} // namespace dsp
