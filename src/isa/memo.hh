/**
 * @file
 * Compute-once memo: the one cache discipline behind every memoizing
 * layer of rtoc — emitted streams (ProgramCache), schedule-search
 * winners, timing calibrations and the DSE explorer's replay cells.
 * Each layer keys on what its result depends on: the backend's stream
 * key (mapping and element width, see Backend::cacheKey), the timing
 * model's key and the problem shape, never a numeric format, a dt or
 * a plant parameter. The solve stream has one key, built in one place
 * (hil::solveStreamKey), which calibrations, DSE cells and benches
 * all fetch it by.
 *
 * get(key, compute) returns the value stored under @p key, computing
 * it on the key's first request. Each key owns a lock held across its
 * one-time fill, so racing first requests of one key compute once
 * while distinct keys fill in parallel; the memo's own lock guards
 * only lookup, insertion and the counters. A compute may fan out over
 * the ThreadPool while it holds its key (a nested parallelFor from a
 * pool worker runs inline), but must not request its own key.
 *
 * Two tiers sit behind the key:
 *  - memory, a plain map whose entries stay until clear();
 *  - an optional disk tier, a DiskCache namespace plus the layer's
 *    codec, read before computing and written after. The DiskCache is
 *    passed per call (nullptr skips the tier) because layers choose
 *    it per caller. loadOrCompute() is the disk tier alone, for
 *    callers that persist without keeping values in memory.
 *
 * Counting (MemoStats): a key's first request is its miss, whether the
 * disk or a compute serves it, and every later request is a hit,
 * including one that waited for the first. A memo constructed with a
 * name mirrors its MemoStats into the obs::Registry as <name>.hits,
 * .misses, .disk_hits, .computes and .entries from construction on,
 * so a process-wide memo registers on first use.
 */

#ifndef RTOC_ISA_MEMO_HH
#define RTOC_ISA_MEMO_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/disk_cache.hh"
#include "obs/registry.hh"

namespace rtoc::isa {

/** Counters of one Memo (see file comment). */
struct MemoStats
{
    uint64_t hits = 0;      ///< requests after a key's first
    uint64_t misses = 0;    ///< first requests, whichever tier served
    uint64_t diskHits = 0;  ///< values read from the disk tier
    uint64_t computes = 0;  ///< values computed (no tier held them)
    size_t entries = 0;
};

/** Disk tier of a Memo: a DiskCache namespace and its value codec. */
template <typename V>
struct DiskTier
{
    const char *ns = nullptr; ///< nullptr = no disk tier
    std::string (*encode)(const V &) = nullptr;
    /** nullopt rejects the payload: the key is computed again and
     *  its entry overwritten. */
    std::optional<V> (*decode)(const std::string &) = nullptr;

    /** Value of @p key in @p disk; nullopt when absent or rejected. */
    std::optional<V>
    load(const DiskCache *disk, const std::string &key) const
    {
        if (!ns || !disk)
            return std::nullopt;
        std::optional<std::string> payload = disk->get(ns, key);
        if (!payload)
            return std::nullopt;
        return decode(*payload);
    }

    void
    store(const DiskCache *disk, const std::string &key,
          const V &value) const
    {
        if (ns && disk && disk->enabled())
            disk->put(ns, key, encode(value));
    }
};

/** Keyed compute-once store (see file comment). */
template <typename V>
class Memo
{
  public:
    /** @p name non-empty publishes stats() in the obs::Registry. */
    explicit Memo(const std::string &name = "", DiskTier<V> tier = {})
        : tier_(tier)
    {
        if (!name.empty())
            publish(name);
    }

    Memo(const Memo &) = delete;
    Memo &operator=(const Memo &) = delete;

    /**
     * The value of @p key: memory, else @p disk's tier, else
     * @p compute() (a V), kept in memory and written to @p disk.
     */
    template <typename Compute>
    V
    get(const std::string &key, Compute &&compute,
        const DiskCache *disk = nullptr)
    {
        std::shared_ptr<Slot> slot = claim(key, true);
        std::lock_guard<std::mutex> lk(slot->mu);
        if (!slot->value)
            slot->value = loadOrCompute(key, compute, disk);
        return *slot->value;
    }

    /**
     * The disk tier alone: @p key from @p disk, else @p compute()
     * written to @p disk. Counts a disk hit or a compute; the value
     * is not kept in memory.
     */
    template <typename Compute>
    V
    loadOrCompute(const std::string &key, Compute &&compute,
                  const DiskCache *disk)
    {
        if (std::optional<V> v = tier_.load(disk, key)) {
            count(&MemoStats::diskHits);
            return std::move(*v);
        }
        V v = compute();
        count(&MemoStats::computes);
        tier_.store(disk, key, v);
        return v;
    }

    /**
     * get() split for batch callers that compute many keys at once:
     * the value of @p key from memory or @p disk (then kept in
     * memory), nullopt when the caller must compute it and put() it.
     * @p from_disk, when given, tells which tier served. Unlike get(),
     * two finds of one absent key both miss.
     */
    std::optional<V>
    find(const std::string &key, const DiskCache *disk = nullptr,
         bool *from_disk = nullptr)
    {
        if (from_disk)
            *from_disk = false;
        if (std::shared_ptr<Slot> slot = claim(key, false)) {
            std::lock_guard<std::mutex> lk(slot->mu);
            return slot->value;
        }
        std::optional<V> v = tier_.load(disk, key);
        if (v) {
            count(&MemoStats::diskHits);
            insert(key, *v);
            if (from_disk)
                *from_disk = true;
        }
        return v;
    }

    /** Store @p value, computed after find() missed, in memory and
     *  @p disk. */
    void
    put(const std::string &key, V value, const DiskCache *disk = nullptr)
    {
        tier_.store(disk, key, value);
        count(&MemoStats::computes);
        insert(key, std::move(value));
    }

    MemoStats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        MemoStats s = counts_;
        s.entries = slots_.size();
        return s;
    }

    /** Drop every entry; the counters keep counting. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lk(mu_);
        slots_.clear();
    }

    /** Call @p visit on every value held in memory. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        std::vector<std::shared_ptr<Slot>> slots;
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (const auto &kv : slots_)
                slots.push_back(kv.second);
        }
        for (const std::shared_ptr<Slot> &s : slots) {
            std::lock_guard<std::mutex> lk(s->mu);
            if (s->value)
                visit(*s->value);
        }
    }

  private:
    /** One key: its lock, held across the one-time fill, and value. */
    struct Slot
    {
        std::mutex mu;
        std::optional<V> value;
    };

    /** The slot of @p key, counting the request as a hit or a miss;
     *  a miss creates the slot when @p create. */
    std::shared_ptr<Slot>
    claim(const std::string &key, bool create)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = slots_.find(key);
        if (it != slots_.end()) {
            ++counts_.hits;
            return it->second;
        }
        ++counts_.misses;
        if (!create)
            return nullptr;
        auto slot = std::make_shared<Slot>();
        slots_[key] = slot;
        return slot;
    }

    void
    count(uint64_t MemoStats::*field)
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++(counts_.*field);
    }

    void
    insert(const std::string &key, V value)
    {
        auto slot = std::make_shared<Slot>();
        slot->value = std::move(value);
        std::lock_guard<std::mutex> lk(mu_);
        slots_[key] = std::move(slot);
    }

    void
    publish(const std::string &name)
    {
        obs::Registry &reg = obs::Registry::global();
        const std::pair<const char *, uint64_t MemoStats::*> fields[] = {
            {"hits", &MemoStats::hits},
            {"misses", &MemoStats::misses},
            {"disk_hits", &MemoStats::diskHits},
            {"computes", &MemoStats::computes}};
        for (const auto &[suffix, field] : fields)
            reg.gauge(name + "." + suffix,
                      [this, f = field] { return stats().*f; });
        reg.gauge(name + ".entries",
                  [this] { return uint64_t(stats().entries); });
    }

    mutable std::mutex mu_; ///< guards slots_ and counts_
    std::unordered_map<std::string, std::shared_ptr<Slot>> slots_;
    MemoStats counts_; ///< hits..computes; entries read from slots_
    DiskTier<V> tier_;
};

} // namespace rtoc::isa

#endif // RTOC_ISA_MEMO_HH
