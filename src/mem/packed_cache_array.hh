/**
 * @file
 * Packed set-associative cache array: one 64-bit word per line.
 *
 * The simulated L1/L2 planes hold 1-2 bits of permission state per
 * line, and the compressed tag fits easily beside a 32-bit LRU stamp.
 * Packing
 *
 *     [ stamp:32 | tag:(32-PayloadBits) | payload:PayloadBits ]
 *
 * into a single word puts an entire 4-way set into one 32-byte,
 * line-aligned run: a probe, a hit, or a fill touches exactly one
 * host cache line where separate tag, stamp and payload planes
 * would touch two or three. The simulated L2s are far larger than
 * the host's caches, so those line touches -- not the walk
 * instructions -- dominate the access+fill profile; measured on the
 * Figure-7 configs this layout is the difference the
 * probe-combining rework was after.
 *
 * The probe()/fillAt() handle carries a snapshot of the set's words.
 * Freshness is self-evident: no operation can change a set's outcome
 * (tag match, validity, LRU order) without changing some word, and if
 * the words are bit-identical to the snapshot then a fresh walk would
 * return this exact handle, so using it is correct by construction --
 * no epochs, no invalidation hooks, nothing on the fast paths. The
 * comparison reads only the line fillAt() is about to write anyway.
 *
 * Replacement is true LRU per set: a miss fills the first free way,
 * else the way with the smallest stamp, and the stamps are
 * renormalized, order-preserving, every ~4 billion touches so the
 * 32-bit clock can wrap without disturbing LRU order.
 */

#ifndef DSP_MEM_PACKED_CACHE_ARRAY_HH
#define DSP_MEM_PACKED_CACHE_ARRAY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "sim/logging.hh"

namespace dsp {

/** Result of an insert that displaced a line: its key and payload. */
struct PackedEviction {
    std::uint64_t key;
    std::uint32_t payload;
};

/**
 * Set-associative key -> small-payload store with per-set true LRU,
 * one 64-bit word per line.
 *
 * @tparam PayloadBits width of the payload field (1..8)
 */
template <unsigned PayloadBits>
class PackedCacheArray
{
    static_assert(PayloadBits >= 1 && PayloadBits <= 8,
                  "packed payloads are a few permission bits");

  public:
    using Entry = std::uint64_t;

    static constexpr unsigned tagBits = 32 - PayloadBits;
    static constexpr Entry payloadMask = (Entry{1} << PayloadBits) - 1;
    static constexpr Entry tagMask = (Entry{1} << tagBits) - 1;
    /** The tag field shifted into place -- the bits a way compare
     *  actually examines. */
    static constexpr Entry tagFieldMask = tagMask << PayloadBits;

    /**
     * Tag-plane walks are counted in debug builds only (the counter
     * bump is nothing, but the hot loops stay branch-identical to the
     * release build); tests gate their exact-count assertions on this.
     */
#ifndef NDEBUG
    static constexpr bool walkCounting = true;
#else
    static constexpr bool walkCounting = false;
#endif

    /**
     * One set walk's result. `snapshot` holds the set's words at walk
     * time; fillAt() re-walks iff the live words differ (then a fresh
     * walk could choose differently). Associativity above maxWays
     * always re-walks at fill -- the L1/L2 geometries this class
     * exists for are 4-way.
     */
    struct Handle {
        static constexpr std::uint32_t wayNpos =
            std::numeric_limits<std::uint32_t>::max();
        /** 4 covers every real geometry (the Table 4 caches); wider
         *  sets re-walk at fill. */
        static constexpr std::size_t maxWays = 4;

        std::uint64_t key = 0;
        std::uint32_t set = 0;
        std::uint32_t way = wayNpos;
        std::uint32_t victimWay = wayNpos;
        /** Deliberately uninitialized: probe() writes slots up to and
         *  including the matched way (all min(ways, maxWays) slots on
         *  a miss) and revalidation reads no more. */
        std::array<Entry, maxWays> snapshot;
        bool probed = false;

        bool hit() const { return way != wayNpos; }
        bool valid() const { return probed; }
    };

    /**
     * entries_ points into raw_, so the default copy/move would alias
     * (or dangle into) the source's storage: copies are forbidden and
     * moves re-derive the aligned view from the moved buffer.
     */
    PackedCacheArray(const PackedCacheArray &) = delete;
    PackedCacheArray &operator=(const PackedCacheArray &) = delete;

    PackedCacheArray(PackedCacheArray &&other) noexcept
        : sets_(other.sets_),
          ways_(other.ways_),
          setMask_(other.setMask_),
          log2Sets_(other.log2Sets_),
          valid_(other.valid_),
          useClock_(other.useClock_),
          renormEpochs_(other.renormEpochs_),
          walks_(other.walks_),
          rewalks_(other.rewalks_)
    {
        std::size_t offset = static_cast<std::size_t>(
            other.entries_ - other.raw_.data());
        raw_ = std::move(other.raw_);
        entries_ = raw_.data() + offset;
        other.entries_ = nullptr;
    }

    PackedCacheArray &operator=(PackedCacheArray &&) = delete;

    PackedCacheArray(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways)
    {
        dsp_assert(sets > 0 && ways > 0,
                   "cache geometry %zux%zu invalid", sets, ways);
        if ((sets & (sets - 1)) == 0) {
            setMask_ = sets - 1;
            while ((std::size_t{1} << log2Sets_) < sets)
                ++log2Sets_;
        }
        // 64-byte-aligned storage so a power-of-two set never
        // straddles a host cache line (4-way = 32 B = half a line).
        std::size_t lines = sets * ways;
        raw_.resize(lines + 7);
        auto addr = reinterpret_cast<std::uintptr_t>(raw_.data());
        entries_ = reinterpret_cast<Entry *>((addr + 63) & ~std::uintptr_t{63});
        std::fill(entries_, entries_ + lines, Entry{0});
    }

    std::size_t sets() const { return sets_; }
    std::size_t ways() const { return ways_; }
    std::size_t capacity() const { return sets_ * ways_; }
    std::size_t size() const { return valid_; }

    static std::uint32_t
    payloadOf(Entry entry)
    {
        return static_cast<std::uint32_t>(entry & payloadMask);
    }

    /** Replace the payload bits of a line word in place (no LRU
     *  effect beyond the find() that produced the pointer). */
    static void
    setPayload(Entry &entry, std::uint32_t payload)
    {
        entry = (entry & ~payloadMask) | payload;
    }

    /**
     * Look up a key; returns the line word (read payloadOf(), mutate
     * via setPayload()) and refreshes LRU on a hit, nullptr on a miss.
     */
    Entry *
    find(std::uint64_t key)
    {
        countWalk();
        Entry *set_base = entries_ + setOf(key) * ways_;
        std::size_t w = matchWay(set_base, tagFieldOf(key));
        if (w == ways_)
            return nullptr;
        touch(set_base[w]);
        return set_base + w;
    }

    /** Issue a host prefetch for the key's set (a 4-way set is one
     *  32-byte aligned run). Semantically a no-op. */
    void
    prefetchSet(std::uint64_t key) const
    {
        __builtin_prefetch(entries_ + setOf(key) * ways_, 1, 3);
    }

    /** Sentinel for scanLine(): no line holds the key. */
    static constexpr std::size_t lineNpos =
        std::numeric_limits<std::size_t>::max();

    /**
     * Position-of-match lookup with no LRU effect and no handle
     * machinery: the line index holding `key`, or lineNpos. This is
     * the staged pipeline's hit-path walk -- the commit stage touches
     * the returned line directly (touchLine), so the common L1 hit
     * never pays for a snapshot it will not use.
     */
    std::size_t
    scanLine(std::uint64_t key) const
    {
        countWalk();
        std::size_t set = setOf(key);
        const Entry *set_base = entries_ + set * ways_;
        std::size_t w = matchWay(set_base, tagFieldOf(key));
        return w == ways_ ? lineNpos : set * ways_ + w;
    }

    /** Look up without disturbing LRU state; 0-stamp lines are
     *  invalid. Returns the payload, or nullopt on miss. */
    std::optional<std::uint32_t>
    peek(std::uint64_t key) const
    {
        const Entry *set_base = entries_ + setOf(key) * ways_;
        std::size_t w = matchWay(set_base, tagFieldOf(key));
        if (w == ways_)
            return std::nullopt;
        return payloadOf(set_base[w]);
    }

    /**
     * Walk the key's set once, recording the match (if any), the
     * victim insert() would pick, and the set's words. No LRU effect;
     * pair with touchAt()/fillAt().
     */
    Handle
    probe(std::uint64_t key) const
    {
        countWalk();
        Handle h;
        h.key = key;
        std::size_t set = setOf(key);
        h.set = static_cast<std::uint32_t>(set);
        h.probed = true;

        const Entry *set_base = entries_ + set * ways_;
        std::size_t match = matchWay(set_base, tagFieldOf(key));
        if (match != ways_) {
            // Snapshot up to and including the match: exactly what
            // the per-way walk recorded before stopping, and all
            // revalidation reads on a hit.
            for (std::size_t w = 0; w <= match && w < Handle::maxWays;
                 ++w)
                h.snapshot[w] = set_base[w];
            h.way = static_cast<std::uint32_t>(match);
            return h;
        }
        std::uint32_t victim_use = 0;
        for (std::size_t w = 0; w < ways_; ++w) {
            Entry entry = set_base[w];
            if (w < Handle::maxWays)
                h.snapshot[w] = entry;
            std::uint32_t use = static_cast<std::uint32_t>(entry >> 32);
            // First way seeds the victim unconditionally (a stamp can
            // legitimately be UINT32_MAX right before renormalization);
            // free ways (use 0) always win thereafter.
            if (h.victimWay == Handle::wayNpos || use < victim_use) {
                h.victimWay = static_cast<std::uint32_t>(w);
                victim_use = use;
            }
        }
        return h;
    }

    /** Payload of a hit handle's line (no LRU refresh, no walk). */
    std::uint32_t
    at(const Handle &h) const
    {
        dsp_assert(h.valid() && h.hit(), "at() needs a hit handle");
        return payloadOf(entries_[h.set * ways_ + h.way]);
    }

    /**
     * LRU-refresh a hit handle's line, exactly like a find() hit.
     * Contract: call only while the handle is fresh (every call site
     * touches immediately after probing); debug builds verify.
     */
    void
    touchAt(Handle &h)
    {
        dsp_assert(h.valid() && h.hit(),
                   "touchAt() needs a hit handle");
        Entry &entry = entries_[h.set * ways_ + h.way];
        if constexpr (walkCounting) {
            dsp_assert(h.way >= Handle::maxWays ||
                           entry == h.snapshot[h.way],
                       "touchAt() on a stale handle");
        }
        touch(entry);
        if (h.way < Handle::maxWays)
            h.snapshot[h.way] = entry;  // our own touch; stay fresh
    }

    /**
     * Install (or overwrite) the handle's key exactly as
     * insert(h.key, payload) would, with zero walks when the set is
     * unchanged since the probe. The freshness proof is the snapshot:
     * if the set's words are bit-identical, a fresh probe would
     * return this very handle. Stale handles transparently re-walk.
     */
    std::optional<PackedEviction>
    fillAt(Handle &h, std::uint32_t payload)
    {
        dsp_assert(h.valid(), "fillAt() on an unprobed handle");
        revalidate(h);

        std::optional<PackedEviction> evicted;
        Entry *set_base = entries_ + h.set * ways_;
        std::size_t way;
        if (h.hit()) {
            way = h.way;
        } else {
            way = h.victimWay;
            Entry old = set_base[way];
            if ((old >> 32) != 0) {
                evicted = PackedEviction{keyAt(h.set, old),
                                         payloadOf(old)};
            } else {
                ++valid_;
            }
            h.way = h.victimWay;
        }
        Entry entry = tagFieldOf(h.key) | payload;
        touch(entry);
        set_base[way] = entry;
        if (way < Handle::maxWays)
            h.snapshot[way] = entry;  // fresh after our own mutation
        return evicted;
    }

    /**
     * Insert (or overwrite) key -> payload; evicts the set's LRU line
     * if the set is full. One fused walk: the fill follows the walk
     * immediately, so the handle's snapshot bookkeeping would be pure
     * overhead here.
     */
    std::optional<PackedEviction>
    insert(std::uint64_t key, std::uint32_t payload)
    {
        std::optional<PackedEviction> evicted;
        insertLine(key, payload, evicted);
        return evicted;
    }

    /**
     * insert() with the written line's index reported back: the
     * staged pipeline's L1 install on an L2 hit, where the caller
     * records the line in its L0 filter. Identical walk, LRU, and
     * eviction behaviour to insert().
     */
    std::size_t
    insertLine(std::uint64_t key, std::uint32_t payload,
               std::optional<PackedEviction> &evicted)
    {
        countWalk();
        std::size_t set = setOf(key);
        Entry *set_base = entries_ + set * ways_;
        std::size_t match = matchWay(set_base, tagFieldOf(key));
        std::size_t victim = ways_;
        std::uint32_t victim_use = 0;
        if (match == ways_) {
            for (std::size_t w = 0; w < ways_; ++w) {
                std::uint32_t use =
                    static_cast<std::uint32_t>(set_base[w] >> 32);
                if (victim == ways_ || use < victim_use) {
                    victim = w;
                    victim_use = use;
                }
            }
        }

        std::size_t way;
        if (match != ways_) {
            way = match;
        } else {
            way = victim;
            if (victim_use != 0) {
                evicted = PackedEviction{keyAt(set, set_base[way]),
                                         payloadOf(set_base[way])};
            } else {
                ++valid_;
            }
        }
        Entry entry = tagFieldOf(key) | payload;
        touch(entry);
        set_base[way] = entry;
        return set * ways_ + way;
    }

    /** Remove a key if present; returns its payload. */
    std::optional<std::uint32_t>
    erase(std::uint64_t key)
    {
        countWalk();
        Entry *set_base = entries_ + setOf(key) * ways_;
        std::size_t w = matchWay(set_base, tagFieldOf(key));
        if (w == ways_)
            return std::nullopt;
        std::uint32_t payload = payloadOf(set_base[w]);
        set_base[w] = 0;
        --valid_;
        return payload;
    }

    /** Drop all lines. */
    void
    clear()
    {
        std::fill(entries_, entries_ + sets_ * ways_, Entry{0});
        valid_ = 0;
    }

    /**
     * The line index (set * ways + way) of a hit handle: a direct
     * cursor to the line's word that callers may retain across
     * operations that provably leave the line in place (see
     * NodeCaches' L0 filter for the staleness discipline).
     */
    std::size_t
    lineOf(const Handle &h) const
    {
        dsp_assert(h.valid() && h.hit(), "lineOf() needs a hit handle");
        return static_cast<std::size_t>(h.set) * ways_ + h.way;
    }

    /** The raw word of a line (debug cross-checks; no LRU effect). */
    Entry wordAt(std::size_t line) const { return entries_[line]; }

    /** Does `line` currently hold `key`? (debug cross-checks; kept
     *  division-free -- it runs on every L0 hit in assert builds) */
    bool
    lineHolds(std::size_t line, std::uint64_t key) const
    {
        std::size_t base = setOf(key) * ways_;
        if (line < base || line >= base + ways_)
            return false;
        Entry entry = entries_[line];
        return (entry >> 32) != 0 &&
               ((entry ^ tagFieldOf(key)) &
                (tagMask << PayloadBits)) == 0;
    }

    /**
     * LRU-refresh a line by its index, touching exactly one word and
     * walking nothing. The caller must know the line still holds the
     * key it cached the index for (the L0 filter's invalidation hooks
     * provide that proof); debug builds verify via lineHolds().
     */
    void
    touchLine(std::size_t line)
    {
        dsp_assert(line < sets_ * ways_, "touchLine out of range");
        dsp_assert((entries_[line] >> 32) != 0,
                   "touchLine() on an invalid line");
        touch(entries_[line]);
    }

    /**
     * The LRU clock's current value: the stamp most recently written
     * into any line. A line whose stamp equals this (same renorm
     * epoch) is provably the globally most-recently-used line, so a
     * re-touch cannot change any set's LRU order.
     */
    std::uint32_t useClock() const { return useClock_; }

    /** Times the stamp plane has been renormalized. Stamps from a
     *  different epoch are incomparable with the current clock. */
    std::uint32_t renormEpochs() const { return renormEpochs_; }

    /** Tag-plane walks performed (debug builds only; 0 in release). */
    std::uint64_t walks() const { return walks_; }

    /** fillAt() revalidations that had to re-walk. */
    std::uint64_t rewalks() const { return rewalks_; }

    /**
     * Largest key this geometry can store: the compressed tag
     * (key / sets) must fit the word's 32-PayloadBits tag field, and
     * tagFieldOf() panics (always-on) beyond it. Callers sizing a
     * simulated address space check against this ceiling -- the
     * Table-4 L1/L2 geometries clear every workload's top block by
     * orders of magnitude at any supported node count (pinned by
     * test_cache_array's tag-ceiling regression).
     */
    std::uint64_t
    maxKey() const
    {
        if (setMask_ != 0 || sets_ == 1)
            return ((static_cast<std::uint64_t>(tagMask) + 1)
                    << log2Sets_) - 1;
        return tagMask * sets_ + (sets_ - 1);
    }

    /** Test hook: advance the LRU clock toward renormalization. */
    void
    debugSetUseClock(std::uint32_t value)
    {
        dsp_assert(value >= useClock_,
                   "use clock may only move forward");
        useClock_ = value;
    }

    /**
     * Checkpoint the raw line words plus the LRU clock/epoch and the
     * debug walk counters; geometry is rebuilt from parameters, so the
     * loader's array must already have this array's sets x ways.
     */
    template <typename W>
    void
    ckptSave(W &w) const
    {
        std::size_t lines = sets_ * ways_;
        w.u64(lines);
        w.bytes(entries_, lines * sizeof(Entry));
        w.u64(valid_);
        w.u32(useClock_);
        w.u32(renormEpochs_);
        w.u64(walks_);
        w.u64(rewalks_);
    }

    template <typename R>
    void
    ckptLoad(R &r)
    {
        std::size_t lines = sets_ * ways_;
        std::uint64_t saved = r.u64();
        dsp_assert(saved == lines,
                   "checkpointed cache plane has %llu lines, machine "
                   "has %zu (configuration mismatch)",
                   static_cast<unsigned long long>(saved), lines);
        r.bytes(entries_, lines * sizeof(Entry));
        valid_ = r.u64();
        useClock_ = r.u32();
        renormEpochs_ = r.u32();
        walks_ = r.u64();
        rewalks_ = r.u64();
    }

  private:
    /**
     * The way of `set_base` holding `tag_probe`, or ways() if none --
     * the one tag walk every lookup shape shares. A live line always
     * has a nonzero stamp, so `(entry >> 32) != 0` rejects invalid
     * (all-zero) ways even for an all-zero probe.
     */
    std::size_t
    matchWay(const Entry *set_base, Entry tag_probe) const
    {
        for (std::size_t w = 0; w < ways_; ++w) {
            Entry entry = set_base[w];
            if (((entry ^ tag_probe) & tagFieldMask) == 0 &&
                (entry >> 32) != 0) {
                return w;
            }
        }
        return ways_;
    }

    std::size_t
    setOf(std::uint64_t key) const
    {
        if (setMask_ != 0 || sets_ == 1)
            return static_cast<std::size_t>(key) & setMask_;
        return static_cast<std::size_t>(key % sets_);
    }

    /** The key's compressed tag, already shifted into its field. */
    Entry
    tagFieldOf(std::uint64_t key) const
    {
        std::uint64_t quotient =
            setMask_ != 0 || sets_ == 1 ? key >> log2Sets_
                                        : key / sets_;
        dsp_assert(quotient <= tagMask,
                   "key %llu exceeds this array's %u tag bits",
                   static_cast<unsigned long long>(key), tagBits);
        return quotient << PayloadBits;
    }

    /** Reconstruct a line's key from its word and set index. */
    std::uint64_t
    keyAt(std::size_t set, Entry entry) const
    {
        std::uint64_t quotient = (entry >> PayloadBits) & tagMask;
        if (setMask_ != 0 || sets_ == 1)
            return (quotient << log2Sets_) | set;
        return quotient * sets_ + set;
    }

    void
    countWalk() const
    {
        if constexpr (walkCounting)
            ++walks_;
    }

    /**
     * Re-walk a handle whose set changed since the probe. Word-exact
     * snapshot comparison: if the words match, a fresh probe would
     * reproduce this handle, so it is fresh by construction (this
     * subsumes tag changes, validity changes, LRU touches, and even
     * stamp renormalization). A hit handle needs only its own way's
     * word -- the overwrite-in-place outcome depends on nothing else,
     * and probe() stops recording at the match -- while a miss handle
     * needs the whole vector (an erase elsewhere frees a way the fill
     * must prefer; an install may consume the victim).
     */
    void
    revalidate(Handle &h) const
    {
        bool fresh;
        const Entry *set_base = entries_ + h.set * ways_;
        if (h.hit()) {
            fresh = h.way < Handle::maxWays &&
                    set_base[h.way] == h.snapshot[h.way];
        } else if (ways_ <= Handle::maxWays) {
            fresh = true;
            for (std::size_t w = 0; w < ways_; ++w)
                fresh &= set_base[w] == h.snapshot[w];
        } else {
            fresh = false;  // wide sets always re-walk
        }
        if (!fresh) {
            ++rewalks_;
            h = probe(h.key);
        }
    }

    /** Write a fresh LRU stamp into a line word. */
    void
    touch(Entry &entry)
    {
        if (useClock_ == std::numeric_limits<std::uint32_t>::max())
            renormalizeUse();
        entry = (entry & 0xffffffffull) |
                (static_cast<Entry>(++useClock_) << 32);
    }

    /**
     * Compress all stamps into [1, lines] preserving order so the
     * 32-bit clock can wrap without disturbing LRU. Runs once every
     * ~4 billion touches.
     */
    void
    renormalizeUse()
    {
        std::vector<std::size_t> valid_lines;
        valid_lines.reserve(valid_);
        std::size_t lines = sets_ * ways_;
        for (std::size_t line = 0; line < lines; ++line)
            if ((entries_[line] >> 32) != 0)
                valid_lines.push_back(line);
        std::sort(valid_lines.begin(), valid_lines.end(),
                  [this](std::size_t a, std::size_t b) {
                      return (entries_[a] >> 32) < (entries_[b] >> 32);
                  });
        std::uint32_t next = 0;
        for (std::size_t line : valid_lines) {
            entries_[line] = (entries_[line] & 0xffffffffull) |
                             (static_cast<Entry>(++next) << 32);
        }
        useClock_ = next;
        // The compressed clock can coincide with a stale recorded
        // stamp; the epoch makes cross-renormalization comparisons
        // fail safe instead of falsely proving MRU-ness.
        ++renormEpochs_;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::size_t setMask_ = 0;
    std::size_t log2Sets_ = 0;

    /** Backing store; entries_ is its 64-byte-aligned view. */
    std::vector<Entry> raw_;
    Entry *entries_ = nullptr;

    std::size_t valid_ = 0;
    std::uint32_t useClock_ = 0;
    std::uint32_t renormEpochs_ = 0;

    mutable std::uint64_t walks_ = 0;    ///< debug builds only
    mutable std::uint64_t rewalks_ = 0;  ///< stale-handle re-walks
};

} // namespace dsp

#endif // DSP_MEM_PACKED_CACHE_ARRAY_HH
