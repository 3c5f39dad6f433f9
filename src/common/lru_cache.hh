/**
 * @file
 * Bounded LRU map: the memory tier of isa::Memo, the one memo behind
 * every memoizing layer (bounded for the DSE evaluation memo,
 * unbounded elsewhere).
 *
 * The bound keeps a long-lived driver sweeping a 100k-point design
 * space from growing without limit: LruMap keeps the most-recently-
 * used @p capacity entries and counts evictions so the owner can
 * report cache pressure.
 *
 * Not thread-safe: its owner serializes access with its own mutex, so
 * the container stays lock-free and cheap to reason about.
 */

#ifndef RTOC_COMMON_LRU_CACHE_HH
#define RTOC_COMMON_LRU_CACHE_HH

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace rtoc {

/** Capacity-bounded map with least-recently-used eviction. */
template <typename K, typename V>
class LruMap
{
  public:
    /** @p capacity 0 means unbounded (no eviction ever). */
    explicit LruMap(size_t capacity = 0) : cap_(capacity) {}

    /**
     * Pointer to the value stored under @p key (nullptr on miss).
     * A hit refreshes the entry's recency. The pointer is valid until
     * the next put()/setCapacity() call.
     */
    V *
    get(const K &key)
    {
        auto it = idx_.find(key);
        if (it == idx_.end())
            return nullptr;
        order_.splice(order_.begin(), order_, it->second);
        return &it->second->second;
    }

    /** Insert (or overwrite) @p key, evicting LRU entries over cap. */
    void
    put(const K &key, V value)
    {
        auto it = idx_.find(key);
        if (it != idx_.end()) {
            it->second->second = std::move(value);
            order_.splice(order_.begin(), order_, it->second);
            return;
        }
        order_.emplace_front(key, std::move(value));
        idx_.emplace(key, order_.begin());
        shrink();
    }

    size_t size() const { return order_.size(); }
    size_t capacity() const { return cap_; }
    uint64_t evictions() const { return evictions_; }

    /** Retarget the bound; an over-full map evicts immediately. */
    void
    setCapacity(size_t capacity)
    {
        cap_ = capacity;
        shrink();
    }

    /** Call @p visit(key, value) on every entry, most recent first. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const auto &kv : order_)
            visit(kv.first, kv.second);
    }

    /** Drop everything (eviction counter is preserved). */
    void
    clear()
    {
        order_.clear();
        idx_.clear();
    }

  private:
    void
    shrink()
    {
        while (cap_ != 0 && order_.size() > cap_) {
            idx_.erase(order_.back().first);
            order_.pop_back();
            ++evictions_;
        }
    }

    size_t cap_;
    uint64_t evictions_ = 0;
    std::list<std::pair<K, V>> order_; ///< front = most recent
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator>
        idx_;
};

} // namespace rtoc

#endif // RTOC_COMMON_LRU_CACHE_HH
