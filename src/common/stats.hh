/**
 * @file
 * Lightweight named-counter statistics, in the spirit of gem5's stats
 * package but reduced to what the rtoc timing models need: scalar
 * counters, cycle accumulators, and distributions with summary
 * statistics (median / quartiles) for solve-time reporting.
 *
 * Counter names are interned into small integer ids (StatId,
 * mirroring isa::KernelId): the hot increment path indexes a dense
 * vector instead of hashing a std::string, and the string is looked
 * up only when a table or dump is printed. The interner is
 * process-wide and shared with the obs::Registry, so a name means the
 * same id everywhere in the process.
 */

#ifndef RTOC_COMMON_STATS_HH
#define RTOC_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rtoc {

/** Monotonic cycle count used by all timing models. */
using Cycles = uint64_t;

/** Interned id of a statistic/counter name. */
using StatId = uint32_t;

/**
 * Intern @p name into a process-wide id (thread-safe). Repeated calls
 * with the same name return the same id; ids are dense from 0.
 */
StatId internStat(std::string_view name);

/** The string a StatId was interned from (stable reference). */
const std::string &statName(StatId id);

/**
 * A group of named uint64 counters. Models register their event counts
 * (instructions issued, stall cycles, fences, ...) here so tests and
 * benches can introspect why a configuration is slow.
 *
 * Two access paths share one store: the interned-id path (inc/set/get
 * by StatId — a vector index, no string hashing; per-uop and
 * per-episode increments use this) and the historical string path,
 * which interns the name once and forwards. counters()/dump() render
 * the name-sorted view on demand.
 */
class StatGroup
{
  public:
    /** Add @p delta to counter @p id, creating it at zero if absent. */
    void
    inc(StatId id, uint64_t delta = 1)
    {
        touch(id) += delta;
    }

    /** Add @p delta to counter @p name (interned string path). */
    void inc(const std::string &name, uint64_t delta = 1)
    {
        inc(internStat(name), delta);
    }

    /** Set counter @p id to @p value. */
    void
    set(StatId id, uint64_t value)
    {
        touch(id) = value;
    }

    /** Set counter @p name to @p value. */
    void set(const std::string &name, uint64_t value)
    {
        set(internStat(name), value);
    }

    /** Read counter @p id; returns 0 when never touched. */
    uint64_t
    get(StatId id) const
    {
        return id < vals_.size() ? vals_[id] : 0;
    }

    /** Read counter @p name; returns 0 when never touched. */
    uint64_t get(const std::string &name) const;

    /** True when counter @p id exists in this group. */
    bool
    has(StatId id) const
    {
        return id < touched_.size() && touched_[id];
    }

    /** True when counter @p name exists in this group. */
    bool has(const std::string &name) const;

    /** Reset all counters to zero (keeps names). */
    void reset();

    /** All counters in name order, for dumping. */
    const std::map<std::string, uint64_t> &counters() const;

    /** Render a "name = value" listing. */
    std::string dump(const std::string &prefix = "") const;

  private:
    /** Grow-and-mark slot access shared by inc/set. */
    uint64_t &
    touch(StatId id)
    {
        if (id >= vals_.size()) {
            vals_.resize(id + 1, 0);
            touched_.resize(id + 1, 0);
        }
        touched_[id] = 1;
        view_dirty_ = true;
        return vals_[id];
    }

    std::vector<uint64_t> vals_;   ///< dense by StatId
    std::vector<uint8_t> touched_; ///< slot ever inc'd/set in this group
    /** Name-sorted view materialized for counters()/dump(). */
    mutable std::map<std::string, uint64_t> view_;
    mutable bool view_dirty_ = true;
};

/**
 * Summary of a sample distribution. The HIL evaluation reports median
 * solve time with interquartile ranges (paper Fig. 16), which this
 * reproduces.
 */
struct DistSummary
{
    size_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
};

/** Accumulates samples and computes a DistSummary on demand. */
class Distribution
{
  public:
    /** Record one sample. */
    void add(double sample) { samples_.push_back(sample); }

    /** Number of recorded samples. */
    size_t size() const { return samples_.size(); }

    /** Drop all samples. */
    void reset() { samples_.clear(); }

    /** Compute count/mean/min/max/quartiles; zeroes when empty. */
    DistSummary summarize() const;

    /** Raw sample access (for tests). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
};

} // namespace rtoc

#endif // RTOC_COMMON_STATS_HH
