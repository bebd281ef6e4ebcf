/**
 * @file
 * Open-addressing flat hash containers for the simulation hot path.
 *
 * std::unordered_map's node-per-element design costs an allocation and
 * a pointer chase per entry; the simulator's hot tables (sharing
 * state, MSHRs, in-flight transactions, unbounded predictor tables,
 * analysis accumulators) are all keyed by small integers and live in
 * inner loops. FlatMap stores entries inline in a power-of-two slot
 * array with linear probing, a strong integer mixer (so sequential
 * block numbers do not cluster), and tombstone deletion.
 *
 * API is the familiar subset of std::unordered_map used in this code
 * base: find / operator[] / try_emplace / emplace / erase / size /
 * clear / range-for. Differences to be aware of:
 *
 *  - any insertion may rehash, invalidating iterators AND references
 *    (unordered_map keeps references stable; do not hold a reference
 *    across an insertion into the same map);
 *  - erase() never rehashes, so iterators to other elements survive;
 *  - value_type is std::pair<K, V> (non-const key) and V must be
 *    default-constructible.
 */

#ifndef DSP_SIM_FLAT_MAP_HH
#define DSP_SIM_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace dsp {

/** splitmix64 finalizer: cheap, and decorrelates sequential keys. */
constexpr std::uint64_t
flatHashMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Open-addressing hash map from an integral key to V.
 */
template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                  "FlatMap keys are small integers");

    enum : std::uint8_t { slotEmpty = 0, slotFull = 1, slotTomb = 2 };

  public:
    using value_type = std::pair<K, V>;

    template <bool Const>
    class Iterator
    {
        using MapPtr = std::conditional_t<Const, const FlatMap *,
                                          FlatMap *>;
        using Value = std::conditional_t<Const, const value_type,
                                         value_type>;

      public:
        Iterator() = default;

        Iterator(MapPtr map, std::size_t idx) : map_(map), idx_(idx)
        {
            skipToFull();
        }

        /** Conversion iterator -> const_iterator. */
        template <bool WasConst,
                  typename = std::enable_if_t<Const && !WasConst>>
        Iterator(const Iterator<WasConst> &other)
            : map_(other.map_), idx_(other.idx_)
        {
        }

        Value &operator*() const { return map_->slots_[idx_]; }
        Value *operator->() const { return &map_->slots_[idx_]; }

        Iterator &
        operator++()
        {
            ++idx_;
            skipToFull();
            return *this;
        }

        friend bool
        operator==(const Iterator &a, const Iterator &b)
        {
            return a.idx_ == b.idx_;
        }

        friend bool
        operator!=(const Iterator &a, const Iterator &b)
        {
            return a.idx_ != b.idx_;
        }

      private:
        friend class FlatMap;
        template <bool> friend class Iterator;

        void
        skipToFull()
        {
            while (idx_ < map_->ctrl_.size() &&
                   map_->ctrl_[idx_] != slotFull) {
                ++idx_;
            }
        }

        MapPtr map_ = nullptr;
        std::size_t idx_ = 0;
    };

    using iterator = Iterator<false>;
    using const_iterator = Iterator<true>;

    FlatMap() = default;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, ctrl_.size()); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, ctrl_.size()); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots currently allocated (0 until the first insertion). */
    std::size_t capacity() const { return ctrl_.size(); }

    iterator
    find(K key)
    {
        return iterator(this, findIndex(key));
    }

    const_iterator
    find(K key) const
    {
        return const_iterator(this, findIndex(key));
    }

    bool
    contains(K key) const
    {
        return findIndex(key) != ctrl_.size();
    }

    V &
    operator[](K key)
    {
        return tryEmplaceIndex(key).first->second;
    }

    /** Insert a default-constructed V if `key` is absent. */
    std::pair<iterator, bool>
    try_emplace(K key)
    {
        return tryEmplaceIndex(key);
    }

    /** Insert (key, value) if `key` is absent. */
    template <typename U>
    std::pair<iterator, bool>
    emplace(K key, U &&value)
    {
        auto result = tryEmplaceIndex(key);
        if (result.second)
            result.first->second = std::forward<U>(value);
        return result;
    }

    /**
     * Remove the element at `it`. Never rehashes: iterators and
     * references to other elements stay valid (unlike insertion).
     */
    void
    erase(iterator it)
    {
        dsp_assert(it.idx_ < ctrl_.size() &&
                       ctrl_[it.idx_] == slotFull,
                   "FlatMap::erase of invalid iterator");
        ctrl_[it.idx_] = slotTomb;
        // Reset the slot so held resources (vectors etc.) are freed.
        slots_[it.idx_] = value_type{};
        --size_;
    }

    /** Remove `key` if present; true if an element was removed. */
    bool
    erase(K key)
    {
        std::size_t idx = findIndex(key);
        if (idx == ctrl_.size())
            return false;
        erase(iterator(this, idx));
        return true;
    }

    void
    clear()
    {
        ctrl_.assign(ctrl_.size(), slotEmpty);
        for (value_type &slot : slots_)
            slot = value_type{};
        size_ = 0;
        used_ = 0;
    }

    /** Grow so that `n` elements fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t needed = minCapacity;
        while (n > loadLimit(needed))
            needed *= 2;
        if (needed > ctrl_.size())
            rehash(needed);
    }

    /**
     * Checkpoint the exact physical layout -- control bytes (including
     * tombstones), live/used counts, and each full slot in index order
     * -- so a restored map reproduces probe chains, iteration order,
     * and future rehash points bit-for-bit. `saveValue(w, v)` writes
     * one mapped value; keys are written as raw pod bytes.
     */
    template <typename W, typename SaveValue>
    void
    ckptSave(W &w, SaveValue &&saveValue) const
    {
        w.podVec(ctrl_);
        w.u64(size_);
        w.u64(used_);
        for (std::size_t i = 0; i < ctrl_.size(); ++i) {
            if (ctrl_[i] != slotFull)
                continue;
            w.pod(slots_[i].first);
            saveValue(w, slots_[i].second);
        }
    }

    /** Layout save for trivially copyable mapped values. */
    template <typename W>
    void
    ckptSave(W &w) const
    {
        ckptSave(w, [](W &out, const V &v) { out.pod(v); });
    }

    /** Inverse of ckptSave: `loadValue(r, v)` fills one mapped value. */
    template <typename R, typename LoadValue>
    void
    ckptLoad(R &r, LoadValue &&loadValue)
    {
        ctrl_ = r.template podVec<std::uint8_t>();
        size_ = r.u64();
        used_ = r.u64();
        slots_ = std::vector<value_type>(ctrl_.size());
        for (std::size_t i = 0; i < ctrl_.size(); ++i) {
            if (ctrl_[i] != slotFull)
                continue;
            slots_[i].first = r.template pod<K>();
            loadValue(r, slots_[i].second);
        }
    }

    /** Layout load for trivially copyable mapped values. */
    template <typename R>
    void
    ckptLoad(R &r)
    {
        ckptLoad(r, [](R &in, V &v) { v = in.template pod<V>(); });
    }

  private:
    static constexpr std::size_t minCapacity = 16;

    /** Max live+tombstone slots before growing: 7/8 load. */
    static constexpr std::size_t
    loadLimit(std::size_t capacity)
    {
        return capacity - capacity / 8;
    }

    std::size_t
    indexOf(K key) const
    {
        return static_cast<std::size_t>(
                   flatHashMix(static_cast<std::uint64_t>(key))) &
               (ctrl_.size() - 1);
    }

    /** Index of `key`'s slot, or ctrl_.size() when absent. */
    std::size_t
    findIndex(K key) const
    {
        if (ctrl_.empty())
            return 0;  // == ctrl_.size(): the end sentinel
        std::size_t mask = ctrl_.size() - 1;
        for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
            if (ctrl_[i] == slotEmpty)
                return ctrl_.size();
            if (ctrl_[i] == slotFull && slots_[i].first == key)
                return i;
        }
    }

    std::pair<iterator, bool>
    tryEmplaceIndex(K key)
    {
        if (ctrl_.empty())
            rehash(minCapacity);

        // Probe first: a hit on an existing key is a pure lookup and
        // must never rehash (the documented contract is that only
        // insertion invalidates references).
        std::size_t mask = ctrl_.size() - 1;
        std::size_t insert_at = ctrl_.size();
        for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
            if (ctrl_[i] == slotFull) {
                if (slots_[i].first == key)
                    return {iterator(this, i), false};
                continue;
            }
            if (ctrl_[i] == slotTomb) {
                // Remember the first reusable slot but keep probing:
                // the key may still exist further along the chain.
                if (insert_at == ctrl_.size())
                    insert_at = i;
                continue;
            }
            // Empty: the key is definitely absent.
            if (insert_at == ctrl_.size())
                insert_at = i;
            break;
        }

        // The key is absent, so this is a real insertion. When the
        // load limit trips, rebuild at a capacity sized for the *live*
        // count: a churn-heavy map (insert+erase steady state) hits
        // the limit through tombstones and must rebuild in place, not
        // double forever. Rebuilding drops all tombstones, so the slot
        // is re-found on a clean chain.
        if (used_ + 1 > loadLimit(ctrl_.size())) {
            rehash(ctrl_.size());
            mask = ctrl_.size() - 1;
            std::size_t i = indexOf(key);
            while (ctrl_[i] == slotFull)
                i = (i + 1) & mask;
            insert_at = i;
        }

        if (ctrl_[insert_at] == slotEmpty)
            ++used_;  // consuming a fresh slot, not a tombstone
        ctrl_[insert_at] = slotFull;
        slots_[insert_at].first = key;
        ++size_;
        return {iterator(this, insert_at), true};
    }

    void
    rehash(std::size_t new_capacity)
    {
        // Leave headroom so a tombstone-heavy table does not rebuild
        // again almost immediately; genuinely growing tables double.
        while ((size_ + 1) * 2 > new_capacity)
            new_capacity *= 2;

        std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
        std::vector<value_type> old_slots = std::move(slots_);
        ctrl_.assign(new_capacity, slotEmpty);
        // Default-construct (not copy-fill) the new slots so move-only
        // values (e.g. unique_ptr payloads) work.
        slots_ = std::vector<value_type>(new_capacity);
        used_ = size_;

        std::size_t mask = new_capacity - 1;
        for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
            if (old_ctrl[i] != slotFull)
                continue;
            std::size_t j = indexOf(old_slots[i].first);
            while (ctrl_[j] == slotFull)
                j = (j + 1) & mask;
            ctrl_[j] = slotFull;
            slots_[j] = std::move(old_slots[i]);
        }
    }

    std::vector<std::uint8_t> ctrl_;
    std::vector<value_type> slots_;
    std::size_t size_ = 0;  ///< live elements
    std::size_t used_ = 0;  ///< live + tombstones
};

/**
 * Open-addressing hash set over an integral key; the thin wrapper the
 * analysis collectors need (insert / contains / size).
 */
template <typename K>
class FlatSet
{
    struct Empty {};

  public:
    /** Insert `key`; true if it was newly added. */
    bool
    insert(K key)
    {
        return map_.try_emplace(key).second;
    }

    bool contains(K key) const { return map_.contains(key); }
    std::size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    void clear() { map_.clear(); }

  private:
    FlatMap<K, Empty> map_;
};

} // namespace dsp

#endif // DSP_SIM_FLAT_MAP_HH
