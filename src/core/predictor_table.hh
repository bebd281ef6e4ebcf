/**
 * @file
 * Backing store for predictor entries: a tagged set-associative table
 * with LRU replacement (the paper's finite predictors) or an unbounded
 * hash map (the paper's "unbounded" sensitivity points, Figure 6c).
 *
 * The finite table is three planes indexed by set * ways + way:
 *
 *  - a 32-bit compressed tag plane: tag = key / sets (a shift when the
 *    set count is a power of two), which with the set index
 *    reconstructs the key exactly. Predictor keys are block numbers,
 *    macroblock numbers, or PCs (the synthetic text segment sits just
 *    above 4 GB), so key / sets stays far below 2^32; an always-on
 *    assert refuses a key whose tag would not fit rather than alias it;
 *  - a 32-bit LRU stamp plane: 0 marks a free way, and the stamps are
 *    renormalized, order-preserving, when the use clock reaches
 *    UINT32_MAX (once every ~4 billion touches);
 *  - the entry plane, read and written only on a hit or a fill.
 *
 * The widths are fixed for host speed and memory: an 8192-entry table
 * keeps a 32 kB tag plane and a 32 kB stamp plane per node. Full 64-bit
 * keys and stamps measured 6% fewer simulated misses/s and 5.5% more
 * peak RSS on the Figure 6 sensitivity grid.
 */

#ifndef DSP_CORE_PREDICTOR_TABLE_HH
#define DSP_CORE_PREDICTOR_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/flat_map.hh"
#include "sim/logging.hh"

namespace dsp {

/**
 * key -> Entry store. entries == 0 selects the unbounded variant.
 *
 * find() never allocates: per Section 3.1 predictors return the
 * minimal destination set on a table miss, and allocation is filtered
 * (only blocks whose minimal set proved insufficient get entries).
 */
template <typename Entry>
class PredictorTable
{
  public:
    PredictorTable(std::size_t entries, std::size_t ways)
    {
        if (entries == 0)
            return;
        if (ways == 0 || ways > entries)
            ways = entries;
        // Round the set count up: flooring would silently build a
        // smaller table than requested whenever entries % ways != 0
        // (e.g. 10 entries 4-way used to yield capacity 8).
        sets_ = (entries + ways - 1) / ways;
        ways_ = ways;
        if ((sets_ & (sets_ - 1)) == 0) {
            setMask_ = sets_ - 1;
            while ((std::size_t{1} << log2Sets_) < sets_)
                ++log2Sets_;
        }
        tags_.assign(sets_ * ways_, 0);
        stamps_.assign(sets_ * ways_, 0);
        entries_.resize(sets_ * ways_);
    }

    /** Look up without allocating; nullptr on miss. A hit refreshes
     *  LRU. The walk reads the stamp plane only on a tag match. */
    Entry *
    find(std::uint64_t key)
    {
        ++lookups_;
        Entry *entry = nullptr;
        if (!unbounded()) {
            std::uint32_t tag = tagOf(key);
            std::size_t base = setOf(key) * ways_;
            for (std::size_t line = base; line < base + ways_; ++line) {
                if (tags_[line] == tag && stamps_[line] != 0) {
                    touch(line);
                    entry = &entries_[line];
                    break;
                }
            }
        } else {
            auto it = unbounded_.find(key);
            entry = it == unbounded_.end() ? nullptr : &it->second;
        }
        if (entry)
            ++hits_;
        return entry;
    }

    /** Look up, allocating a default entry (evicting LRU) on miss. */
    Entry &
    findOrAllocate(std::uint64_t key)
    {
        if (!unbounded()) {
            bool hit = false;
            std::size_t line = walk(key, hit);
            return hit ? entries_[line] : install(line, key);
        }
        auto [it, inserted] = unbounded_.try_emplace(key);
        if (inserted)
            ++allocations_;
        return it->second;
    }

    /**
     * The predictors' training probe: find(key), and on a miss
     * allocate only when `allocate` holds (the Section 3.1 allocation
     * filter decides). One set walk, with the counter trajectory of a
     * find() followed by a findOrAllocate() on an allocating miss.
     * Returns nullptr on a non-allocating miss.
     */
    Entry *
    probeOrInsert(std::uint64_t key, bool allocate)
    {
        ++lookups_;
        if (!unbounded()) {
            bool hit = false;
            std::size_t line = walk(key, hit);
            if (hit) {
                ++hits_;
                return &entries_[line];
            }
            return allocate ? &install(line, key) : nullptr;
        }
        if (auto it = unbounded_.find(key); it != unbounded_.end()) {
            ++hits_;
            return &it->second;
        }
        if (!allocate)
            return nullptr;
        ++allocations_;
        return &unbounded_.try_emplace(key).first->second;
    }

    /** Host-prefetch the planes a lookup of `key` will walk (the
     *  finite table's tag and stamp runs, or the hash map's home
     *  slot). Semantically a no-op. */
    void
    prefetch(std::uint64_t key) const
    {
        if (!unbounded()) {
            std::size_t base = setOf(key) * ways_;
            __builtin_prefetch(tags_.data() + base, 0, 3);
            __builtin_prefetch(stamps_.data() + base, 0, 3);
        } else {
            unbounded_.prefetch(key);
        }
    }

    /** Number of live entries. */
    std::size_t
    size() const
    {
        return unbounded() ? unbounded_.size() : valid_;
    }

    bool unbounded() const { return ways_ == 0; }

    /** Constructed capacity (>= requested entries); 0 if unbounded. */
    std::size_t capacity() const { return sets_ * ways_; }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t evictions() const { return evictions_; }

    /**
     * Test hook: advance the finite table's use clock to `value`, so
     * the ~4e9 touches to its renormalization point need not be paid
     * for real. The next touch at UINT32_MAX renormalizes.
     */
    void
    debugSetUseClock(std::uint32_t value)
    {
        dsp_assert(value >= useClock_, "use clock may only move forward");
        useClock_ = value;
    }

    /**
     * Checkpoint the backing store (whichever variant) + counters.
     * Entries must be trivially copyable; the finite geometry is
     * rebuilt from parameters and verified by the plane size.
     */
    template <typename W>
    void
    ckptSave(W &w) const
    {
        if (!unbounded()) {
            w.podVec(tags_);
            w.podVec(stamps_);
            w.podVec(entries_);
            w.u64(valid_);
            w.u32(useClock_);
        } else {
            unbounded_.ckptSave(w);
        }
        w.u64(lookups_);
        w.u64(hits_);
        w.u64(allocations_);
        w.u64(evictions_);
    }

    template <typename R>
    void
    ckptLoad(R &r)
    {
        if (!unbounded()) {
            auto tags = r.template podVec<std::uint32_t>();
            dsp_assert(tags.size() == tags_.size(),
                       "checkpointed predictor table has %zu lines, "
                       "machine has %zu (configuration mismatch)",
                       tags.size(), tags_.size());
            tags_ = std::move(tags);
            stamps_ = r.template podVec<std::uint32_t>();
            entries_ = r.template podVec<Entry>();
            valid_ = r.u64();
            useClock_ = r.u32();
        } else {
            unbounded_.ckptLoad(r);
        }
        lookups_ = r.u64();
        hits_ = r.u64();
        allocations_ = r.u64();
        evictions_ = r.u64();
    }

  private:
    std::size_t
    setOf(std::uint64_t key) const
    {
        if (setMask_ != 0 || sets_ == 1)
            return static_cast<std::size_t>(key) & setMask_;
        return static_cast<std::size_t>(key % sets_);
    }

    /** Compressed tag: with setOf it reconstructs the key exactly. */
    std::uint32_t
    tagOf(std::uint64_t key) const
    {
        std::uint64_t quotient = setMask_ != 0 || sets_ == 1
                                     ? key >> log2Sets_
                                     : key / sets_;
        dsp_assert(quotient <= std::numeric_limits<std::uint32_t>::max(),
                   "key %llu exceeds the predictor table's 32-bit tags",
                   static_cast<unsigned long long>(key));
        return static_cast<std::uint32_t>(quotient);
    }

    /**
     * Walk `key`'s set once. On a hit (`hit` set) the matched line is
     * LRU-refreshed and returned; on a miss the victim line is
     * returned: the first free way, else the least recently used.
     */
    std::size_t
    walk(std::uint64_t key, bool &hit)
    {
        std::uint32_t tag = tagOf(key);
        std::size_t base = setOf(key) * ways_;
        std::size_t victim = base;
        std::uint32_t victim_use = stamps_[base];
        for (std::size_t line = base; line < base + ways_; ++line) {
            std::uint32_t use = stamps_[line];
            if (use != 0 && tags_[line] == tag) {
                touch(line);
                hit = true;
                return line;
            }
            // Strictly smaller: ties keep the earlier way, and a free
            // way (0) is never displaced by a later one.
            if (use < victim_use) {
                victim = line;
                victim_use = use;
            }
        }
        hit = false;
        return victim;
    }

    /** Fill a miss's victim line with a default entry for `key`. */
    Entry &
    install(std::size_t line, std::uint64_t key)
    {
        ++allocations_;
        if (stamps_[line] != 0)
            ++evictions_;
        else
            ++valid_;
        tags_[line] = tagOf(key);
        entries_[line] = Entry{};
        touch(line);
        return entries_[line];
    }

    void
    touch(std::size_t line)
    {
        if (useClock_ == std::numeric_limits<std::uint32_t>::max())
            renormalizeUse();
        stamps_[line] = ++useClock_;
    }

    /** Compress all stamps into [1, valid lines] preserving order, so
     *  the 32-bit use clock can wrap without disturbing LRU. */
    void
    renormalizeUse()
    {
        std::vector<std::size_t> valid_lines;
        valid_lines.reserve(valid_);
        for (std::size_t line = 0; line < stamps_.size(); ++line)
            if (stamps_[line] != 0)
                valid_lines.push_back(line);
        std::sort(valid_lines.begin(), valid_lines.end(),
                  [this](std::size_t a, std::size_t b) {
                      return stamps_[a] < stamps_[b];
                  });
        std::uint32_t next = 0;
        for (std::size_t line : valid_lines)
            stamps_[line] = ++next;
        useClock_ = next;
    }

    std::size_t sets_ = 0;
    std::size_t ways_ = 0;      ///< 0 selects the unbounded variant
    std::size_t setMask_ = 0;   ///< sets-1 when sets is a power of two
    std::size_t log2Sets_ = 0;  ///< log2(sets) when sets is a power of two

    std::vector<std::uint32_t> tags_;
    std::vector<std::uint32_t> stamps_;
    std::vector<Entry> entries_;
    std::size_t valid_ = 0;
    std::uint32_t useClock_ = 0;

    FlatMap<std::uint64_t, Entry> unbounded_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t allocations_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace dsp

#endif // DSP_CORE_PREDICTOR_TABLE_HH
