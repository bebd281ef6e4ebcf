/**
 * @file
 * Naive true-LRU set-associative reference model for the cache-array
 * tests: per set, a list of (key, last use) pairs. It knows nothing of
 * tag compression, stamp planes, or renormalization, so it checks the
 * optimized arrays' replacement decisions from first principles.
 */

#ifndef DSP_TESTS_LRU_MODEL_HH
#define DSP_TESTS_LRU_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace dsp {

class LruModel
{
  public:
    LruModel(std::size_t sets, std::size_t ways) : ways_(ways), sets_(sets)
    {
    }

    /** Is `key` held? A hit refreshes its LRU position iff `touch`. */
    bool
    find(std::uint64_t key, bool touch = true)
    {
        for (auto &[k, use] : set(key)) {
            if (k == key) {
                if (touch)
                    use = ++clock_;
                return true;
            }
        }
        return false;
    }

    /** Install `key` (or refresh it if held); returns the key evicted
     *  to make room, if any. */
    std::optional<std::uint64_t>
    insert(std::uint64_t key)
    {
        if (find(key))
            return std::nullopt;
        auto &lines = set(key);
        std::optional<std::uint64_t> evicted;
        if (lines.size() == ways_) {
            auto lru = std::min_element(
                lines.begin(), lines.end(), [](const auto &a, const auto &b) {
                    return a.second < b.second;
                });
            evicted = lru->first;
            lines.erase(lru);
        }
        lines.emplace_back(key, ++clock_);
        return evicted;
    }

    /** Drop `key`; returns whether it was held. */
    bool
    erase(std::uint64_t key)
    {
        auto &lines = set(key);
        auto it = std::find_if(
            lines.begin(), lines.end(),
            [key](const auto &l) { return l.first == key; });
        if (it == lines.end())
            return false;
        lines.erase(it);
        return true;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &lines : sets_)
            n += lines.size();
        return n;
    }

  private:
    std::vector<std::pair<std::uint64_t, std::uint64_t>> &
    set(std::uint64_t key)
    {
        return sets_[key % sets_.size()];
    }

    std::size_t ways_;
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> sets_;
    std::uint64_t clock_ = 0;
};

} // namespace dsp

#endif // DSP_TESTS_LRU_MODEL_HH
