/**
 * @file
 * Network message taxonomy for the timing-level simulator.
 *
 * Sizes follow Section 5.1: requests, forwards, retries, invalidations
 * and grants are 8-byte control messages; data responses and
 * writebacks carry 64 B of data plus an 8 B header (72 B).
 */

#ifndef DSP_INTERCONNECT_MESSAGE_HH
#define DSP_INTERCONNECT_MESSAGE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/destination_set.hh"
#include "mem/mosi.hh"
#include "mem/types.hh"
#include "sim/logging.hh"
#include "sim/pool_registry.hh"
#include "sim/slab_pool.hh"
#include "sim/types.hh"

namespace dsp {

/** Unique id of one coherence transaction (miss). */
using TxnId = std::uint64_t;

/** Kinds of messages that cross the interconnect. */
enum class MessageKind : std::uint8_t {
    Request,     ///< coherence request (multicast via ordering point)
    Retry,       ///< directory-reissued request (ordered multicast)
    Forward,     ///< directory-protocol forward to the owner
    Invalidate,  ///< directory-protocol invalidation to a sharer
    Data,        ///< data response (72 B)
    Grant,       ///< dataless upgrade grant (directory protocol)
    Writeback,   ///< dirty eviction to the home (72 B)
};

/** True for kinds that flow through the total-order point. */
constexpr bool
isOrdered(MessageKind kind)
{
    return kind == MessageKind::Request || kind == MessageKind::Retry;
}

/** Wire size in bytes. */
constexpr std::uint32_t
messageBytes(MessageKind kind)
{
    switch (kind) {
      case MessageKind::Data:
      case MessageKind::Writeback:
        return static_cast<std::uint32_t>(dataMessageBytes);
      default:
        return static_cast<std::uint32_t>(requestMessageBytes);
    }
}

/**
 * Transaction state echoed through the network instead of shared in
 * memory.
 *
 * Under the sharded kernel, per-node handlers run on different host
 * threads than the ordering point, so they can no longer peek at a
 * live transaction table. Instead the ordering point stamps its
 * serialization verdict into the ordered payload before fan-out
 * (while it still holds the only reference), and responses copy the
 * echo forward, making every delivery self-contained -- the same way
 * real coherence messages carry their outcome on the wire.
 */
struct TxnEcho {
    /** Tick the original request issued at (latency accounting). */
    Tick issued = 0;

    /**
     * Data-availability chaining: the earliest tick the responder can
     * start supplying data. Non-zero when the ordering point knows the
     * responder's own fill (or the in-flight writeback that made
     * memory the owner) has not landed yet.
     */
    Tick supplyEarliest = 0;

    /** Observers the request needed (resolving attempt) or would have
     *  needed (insufficient attempt; seeds the retry's set). */
    DestinationSet required;

    NodeId requester = 0;
    NodeId responder = invalidNode;
    MosiState granted = MosiState::Invalid;

    std::uint8_t resolvedAttempt = 0;
    bool resolved = false;
};

/** One network message. */
struct Message {
    MessageKind kind = MessageKind::Request;
    TxnId txn = 0;
    Addr addr = 0;
    Addr pc = 0;
    RequestType type = RequestType::GetShared;
    NodeId src = 0;

    /** Ordered multicasts use `dests`; point-to-point uses `dest`. */
    DestinationSet dests;
    NodeId dest = 0;

    /** Retry attempt (0 = original request). */
    std::uint8_t attempt = 0;

    /** Ordering-point verdict carried with the message (see TxnEcho).
     *  Bookkeeping only -- not part of the modeled wire size. */
    TxnEcho echo;

    std::uint32_t
    bytes() const
    {
        return messageBytes(kind);
    }

    BlockId
    block() const
    {
        return blockOf(addr);
    }
};

/** Aggregate counters for the shared-payload pool. */
struct MessagePoolStats {
    std::uint64_t acquires = 0;    ///< payloads moved into the pool
    std::uint64_t releases = 0;    ///< payloads whose last ref dropped
    std::uint64_t refsShared = 0;  ///< extra refs taken (copies avoided)
    std::uint64_t slabAllocations = 0;  ///< backing-store mallocs
    std::uint64_t slabBytes = 0;        ///< backing-store footprint

    /** Payloads currently alive (some handle still references them). */
    std::uint64_t live() const { return acquires - releases; }
};

/**
 * Refcounted handle to an immutable pooled Message payload.
 *
 * A multicast fan-out used to copy the full Message into every
 * per-destination delivery event; with MessageRef the payload is moved
 * into a slab-pooled slot exactly once and every delivery shares it,
 * carrying only (handle, destination, tick). Handles give const-only
 * access, so sharing is safe by construction. Under the sharded
 * kernel one payload's deliveries execute on several shard threads,
 * so the refcount is atomic and slots are recycled through per-thread
 * free lists (a slot may be released on a different thread than the
 * one whose slab produced it; pools are never freed, so slabs
 * outlive every thread, and pass to a new thread when theirs exits).
 */
class MessageRef
{
  public:
    MessageRef() = default;

    /** Move a message into a pooled slot; the handle owns one ref. */
    explicit MessageRef(Message &&msg) : slot_(acquireSlot())
    {
        slot_->msg = std::move(msg);
        slot_->refs.store(1, std::memory_order_relaxed);
        ++localPool().stats.acquires;
    }

    MessageRef(const MessageRef &other) : slot_(other.slot_)
    {
        if (slot_ != nullptr) {
            slot_->refs.fetch_add(1, std::memory_order_relaxed);
            ++localPool().stats.refsShared;
        }
    }

    MessageRef(MessageRef &&other) noexcept : slot_(other.slot_)
    {
        other.slot_ = nullptr;
    }

    MessageRef &
    operator=(const MessageRef &other)
    {
        MessageRef copy(other);
        std::swap(slot_, copy.slot_);
        return *this;
    }

    MessageRef &
    operator=(MessageRef &&other) noexcept
    {
        std::swap(slot_, other.slot_);
        return *this;
    }

    ~MessageRef() { reset(); }

    /** Drop this handle's reference. */
    void
    reset()
    {
        if (slot_ != nullptr &&
            slot_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            releaseSlot(slot_);
        }
        slot_ = nullptr;
    }

    explicit operator bool() const { return slot_ != nullptr; }

    const Message &operator*() const { return slot_->msg; }
    const Message *operator->() const { return &slot_->msg; }
    const Message *get() const { return slot_ ? &slot_->msg : nullptr; }

    /**
     * Mutable access while this handle is the payload's only owner --
     * the ordering point uses it to stamp the TxnEcho into an ordered
     * payload *before* fan-out shares it.
     */
    Message &
    exclusive() const
    {
        dsp_assert(refCount() == 1,
                   "exclusive() on a shared payload (%u refs)",
                   refCount());
        return slot_->msg;
    }

    /** Number of handles sharing this payload (0 for empty handles). */
    std::uint32_t
    refCount() const
    {
        return slot_ ? slot_->refs.load(std::memory_order_relaxed) : 0;
    }

    /** Process-wide pool counters, summed over all threads' pools
     *  (tests assert copy-freedom here). Only meaningful while shard
     *  workers are quiescent. */
    static MessagePoolStats stats();

  private:
    /** A pooled payload slot; `next`/`home` serve the arena while
     *  the slot is vacant (sim/slab_pool.hh). */
    struct Slot {
        Message msg;
        std::atomic<std::uint32_t> refs{0};
        Slot *next = nullptr;
        void *home = nullptr;
    };

    /** Cache-line aligned for the same reason as EventPool. */
    struct alignas(64) Pool {
        MessagePoolStats stats;
        SlabArena<Slot> arena{&stats.slabAllocations,
                              &stats.slabBytes};
    };

    /**
     * This thread's pool. Immortal and registered (see
     * sim/pool_registry.hh) so slabs survive shard-thread exit (slots
     * migrate between threads) and stats() can aggregate after
     * workers are joined; recycled to the next thread that needs one
     * when its owner exits.
     */
    static Pool &
    localPool()
    {
        // Constant-initialized thread_local: no init-guard call on
        // the hot path (this runs on every ref copy/acquire/release).
        static thread_local Pool *pool;
        Pool *p = pool;
        if (__builtin_expect(p == nullptr, false)) {
            p = PoolRegistry<Pool>::claim<Pool>();
            pool = p;
        }
        return *p;
    }

    static Slot *
    acquireSlot()
    {
        return localPool().arena.acquire();
    }

    static void
    releaseSlot(Slot *slot)
    {
        Pool &p = localPool();
        ++p.stats.releases;
        p.arena.release(slot);
    }

    Slot *slot_ = nullptr;
};

inline MessagePoolStats
MessageRef::stats()
{
    MessagePoolStats total;
    PoolRegistry<Pool>::forEach([&](const Pool &pool) {
        total.acquires += pool.stats.acquires;
        total.releases += pool.stats.releases;
        total.refsShared += pool.stats.refsShared;
        total.slabAllocations += pool.stats.slabAllocations;
        total.slabBytes += pool.stats.slabBytes;
    });
    return total;
}

} // namespace dsp

#endif // DSP_INTERCONNECT_MESSAGE_HH
