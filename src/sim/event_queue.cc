#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace dsp {

namespace {

/** 56 bits of insertion sequence below one byte of priority. */
constexpr std::uint64_t seqBits = 56;
constexpr std::uint64_t seqMask = (std::uint64_t{1} << seqBits) - 1;

/** Ticks at/above this would overflow the window arithmetic; events
 *  there are served straight from the overflow heap. */
constexpr Tick calendarCeiling = maxTick - EventQueue::ringHorizon;

constexpr std::size_t
lowestBit(std::uint64_t word)
{
    return static_cast<std::size_t>(std::countr_zero(word));
}

} // namespace

EventQueue::EventQueue()
    : buckets_(bucketCount), occupied_(bitmapWords, 0)
{
}

EventQueue::~EventQueue()
{
    // Events still pending go back to their pools; member events are
    // simply detached.
    for (Bucket &bucket : buckets_) {
        for (Event *ev = bucket.head; ev != nullptr;) {
            Event *next = ev->next_;
            ev->scheduled_ = false;
            ev->prev_ = ev->next_ = nullptr;
            ev->release();
            ev = next;
        }
    }
    for (HeapEntry &entry : heap_) {
        entry.ev->scheduled_ = false;
        entry.ev->heapIndex_ = Event::invalidHeapIndex;
        entry.ev->release();
    }
}

void
EventQueue::assertSchedulable(Tick when) const
{
    dsp_assert(when >= now_,
               "cannot schedule in the past (when=%llu now=%llu)",
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(now_));
}

void
EventQueue::schedule(Event &ev, Tick when, EventPriority prio)
{
    assertSchedulable(when);
    dsp_assert(!ev.scheduled_, "event already scheduled (when=%llu)",
               static_cast<unsigned long long>(ev.when_));
    const auto prio_bits = static_cast<std::uint64_t>(prio);
    dsp_assert(prio_bits < 256, "priority %d does not fit the packed "
                                "tiebreak key",
               static_cast<int>(prio));
    dsp_assert(nextSeq_ <= seqMask, "insertion sequence overflow");

    ev.when_ = when;
    ev.key_ = (prio_bits << seqBits) | nextSeq_++;
    ev.scheduled_ = true;
    insertPrepared(ev);
}

void
EventQueue::scheduleWithKey(Event &ev, Tick when, std::uint64_t key)
{
    assertSchedulable(when);
    dsp_assert(!ev.scheduled_, "event already scheduled (when=%llu)",
               static_cast<unsigned long long>(ev.when_));

    ev.when_ = when;
    ev.key_ = key;
    ev.scheduled_ = true;
    insertPrepared(ev);
}

void
EventQueue::insertPrepared(Event &ev)
{
    ++inserts_;
    if (ev.when_ < ringLimit_)
        ringInsert(ev);
    else
        heapPush(ev);
}

void
EventQueue::deschedule(Event &ev)
{
    dsp_assert(ev.scheduled_, "deschedule of unscheduled event");
    if (ev.heapIndex_ != Event::invalidHeapIndex) {
        dsp_assert(ev.heapIndex_ < heap_.size() &&
                       heap_[ev.heapIndex_].ev == &ev,
                   "event/queue mismatch in deschedule");
        heapRemoveAt(ev.heapIndex_);
    } else {
        // A list head must be this queue's bucket head; catches an
        // event descheduled on the wrong queue before its unlink can
        // corrupt this queue's bucket lists.
        dsp_assert(ev.prev_ != nullptr ||
                       buckets_[bucketOf(ev.when_)].head == &ev,
                   "event/queue mismatch in deschedule");
        ringRemove(ev);
    }
    ev.scheduled_ = false;
    ev.release();
}

// ---- ring plane -----------------------------------------------------------

void
EventQueue::setOccupied(std::size_t b)
{
    occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    occupiedSummary_ |= std::uint64_t{1} << (b >> 6);
}

void
EventQueue::clearOccupied(std::size_t b)
{
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    if (occupied_[b >> 6] == 0)
        occupiedSummary_ &= ~(std::uint64_t{1} << (b >> 6));
}

std::size_t
EventQueue::firstOccupiedBucket() const
{
    // Circular scan from the cursor: bits at/after it in its word,
    // then later words, then the wrapped-around words, and finally the
    // cursor word's bits before the cursor (one whole lap).
    const std::size_t c = cursor();
    const std::size_t cw = c >> 6;

    if (std::uint64_t bits = occupied_[cw] >> (c & 63))
        return c + lowestBit(bits);

    std::uint64_t above =
        cw + 1 < bitmapWords
            ? occupiedSummary_ & (~std::uint64_t{0} << (cw + 1))
            : 0;
    if (above) {
        std::size_t w = lowestBit(above);
        return (w << 6) + lowestBit(occupied_[w]);
    }

    if (std::uint64_t below =
            occupiedSummary_ & ((std::uint64_t{1} << cw) - 1)) {
        std::size_t w = lowestBit(below);
        return (w << 6) + lowestBit(occupied_[w]);
    }

    std::uint64_t tail =
        (c & 63) ? occupied_[cw] & ((std::uint64_t{1} << (c & 63)) - 1)
                 : 0;
    dsp_assert(tail != 0, "ring bitmap inconsistent");
    return (cw << 6) + lowestBit(tail);
}

void
EventQueue::ringInsert(Event &ev)
{
    std::size_t b = bucketOf(ev.when_);
    Bucket &bucket = buckets_[b];

    // Sorted insert scanned from the tail: the simulator schedules
    // overwhelmingly in ascending (when, key) order, so this is an
    // O(1) append in the steady state.
    Event *after = bucket.tail;
    while (after != nullptr &&
           (after->when_ > ev.when_ ||
            (after->when_ == ev.when_ && after->key_ > ev.key_))) {
        after = after->prev_;
    }

    ev.prev_ = after;
    if (after != nullptr) {
        ev.next_ = after->next_;
        after->next_ = &ev;
    } else {
        ev.next_ = bucket.head;
        bucket.head = &ev;
    }
    if (ev.next_ != nullptr)
        ev.next_->prev_ = &ev;
    else
        bucket.tail = &ev;

    setOccupied(b);
    ++ringLive_;
}

void
EventQueue::ringRemove(Event &ev)
{
    std::size_t b = bucketOf(ev.when_);
    Bucket &bucket = buckets_[b];

    if (ev.prev_ != nullptr)
        ev.prev_->next_ = ev.next_;
    else
        bucket.head = ev.next_;
    if (ev.next_ != nullptr)
        ev.next_->prev_ = ev.prev_;
    else
        bucket.tail = ev.prev_;

    if (bucket.head == nullptr)
        clearOccupied(b);
    ev.prev_ = ev.next_ = nullptr;
    --ringLive_;
}

void
EventQueue::advanceWindow(Tick upTo)
{
    if (upTo >= calendarCeiling)
        return;  // stay put; the heap serves the top of the tick range
    Tick target = ((upTo >> bucketShift) << bucketShift) + ringHorizon;
    if (target <= ringLimit_)
        return;
    ringLimit_ = target;
    // Overflow events now inside the window migrate to their buckets
    // (which the advancing cursor has just freed).
    while (!heap_.empty() && heap_.front().when < ringLimit_)
        ringInsert(*heapRemoveAt(0));
}

std::size_t
EventQueue::nextOccupiedAfter(std::size_t b) const
{
    // Window order is circular from the cursor; a bucket's position
    // in that order is its circular distance from the cursor. Scan
    // every occupied bucket (windows hold tens of events, so this is
    // a handful of word operations once per window) and keep the one
    // closest behind `b`.
    const std::size_t c = cursor();
    const std::size_t b_pos = (b - c) & bucketMask;
    std::size_t best = bucketCount;
    std::size_t best_pos = bucketCount;
    std::uint64_t summary = occupiedSummary_;
    while (summary != 0) {
        std::size_t w = lowestBit(summary);
        summary &= summary - 1;
        std::uint64_t bits = occupied_[w];
        while (bits != 0) {
            std::size_t bucket = (w << 6) + lowestBit(bits);
            bits &= bits - 1;
            std::size_t pos = (bucket - c) & bucketMask;
            if (pos > b_pos && pos < best_pos) {
                best = bucket;
                best_pos = pos;
            }
        }
    }
    return best;
}

void
EventQueue::earliestTwo(Tick &first, Tick &second) const
{
    first = maxTick;
    second = maxTick;
    if (ringLive_ == 0) {
        // Both minima come from the overflow heap: the root, then the
        // smallest of its (up to four) children.
        if (heap_.empty())
            return;
        first = heap_.front().when;
        std::size_t last = std::min(heapArity + 1, heap_.size());
        for (std::size_t c = 1; c < last; ++c)
            second = std::min(second, heap_[c].when);
        return;
    }

    // Ring events always precede heap events (the heap only holds
    // when >= ringLimit_). Within the ring, bucket window order is
    // tick order and each bucket's list is sorted.
    std::size_t b1 = firstOccupiedBucket();
    const Event *head = buckets_[b1].head;
    first = head->when_;
    if (head->next_ != nullptr)
        second = head->next_->when_;
    if (ringLive_ > 1) {
        std::size_t b2 = nextOccupiedAfter(b1);
        if (b2 != bucketCount)
            second = std::min(second, buckets_[b2].head->when_);
    } else if (!heap_.empty()) {
        second = heap_.front().when;
    }
}

void
EventQueue::advanceTo(Tick t)
{
    if (t <= now_ || t == maxTick)
        return;
    dsp_assert(empty() || peekEarliest()->when_ > t,
               "advanceTo(%llu) would skip a pending event at %llu",
               static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(
                   peekEarliest()->when_));
    now_ = t;
    advanceWindow(now_);
}

Event *
EventQueue::peekEarliest() const
{
    // Ring events always precede overflow events (the heap only holds
    // when >= ringLimit_), so the ring wins whenever it is non-empty;
    // otherwise the heap front is the plane minimum directly. No
    // side effects: peeking must never advance the calendar window,
    // or a run(limit) that peeks a far-future event without executing
    // it would leave later near-tick schedules in aliased buckets.
    if (ringLive_ != 0)
        return buckets_[firstOccupiedBucket()].head;
    return heap_.front().ev;
}

// ---- overflow plane -------------------------------------------------------

void
EventQueue::heapPush(Event &ev)
{
    ev.heapIndex_ = heap_.size();
    heap_.push_back(HeapEntry{ev.when_, ev.key_, &ev});
    siftUp(heap_.size() - 1);
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapEntry entry = heap_[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / heapArity;
        if (!earlier(entry, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, entry);
}

void
EventQueue::siftDown(std::size_t i)
{
    HeapEntry entry = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t first = heapArity * i + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + heapArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], entry))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, entry);
}

Event *
EventQueue::heapRemoveAt(std::size_t i)
{
    Event *ev = heap_[i].ev;
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        place(i, last);
        // The displaced entry may need to move either way; siftUp from
        // wherever siftDown left it is a no-op if it already sank.
        siftDown(i);
        siftUp(last.ev->heapIndex_);
    }
    ev->heapIndex_ = Event::invalidHeapIndex;
    return ev;
}

// ---- execution ------------------------------------------------------------

void
EventQueue::execute(Event *ev)
{
    if (ev->heapIndex_ != Event::invalidHeapIndex)
        heapRemoveAt(ev->heapIndex_);
    else
        ringRemove(*ev);
    ++pops_;
    ev->scheduled_ = false;
    now_ = ev->when_;
    advanceWindow(now_);
    ++executed_;
    *domainSink_ = ev->domain_;
    ev->process();
    // A process() that rescheduled the event itself (a CPU resume
    // slice re-inserting at its next quantum) still owns its slot.
    if (!ev->scheduled_)
        ev->release();
}

void
EventQueue::step()
{
    dsp_assert(!empty(), "step() on empty event queue");
    execute(peekEarliest());
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (!empty()) {
        Event *ev = peekEarliest();
        if (ev->when_ > limit)
            break;
        execute(ev);
        ++n;
    }
    if (now_ < limit && limit != maxTick) {
        now_ = limit;
        advanceWindow(now_);
    }
    return n;
}

} // namespace dsp
