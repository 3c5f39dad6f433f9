/**
 * @file
 * Process-wide metrics registry: one home for the runtime's own
 * counters (pool steals, schedule searches, ...) and for the
 * isa::MemoStats of every process-wide memo (ProgramCache, schedule
 * winners, calibrations and DSE cells), which the memos publish here
 * instead of keeping stats structs of their own.
 *
 * Counters are identified by interned StatId (common/stats.hh) and
 * stored in per-thread shards of relaxed atomics, so hot-path
 * increments are a vector index + one uncontended atomic add — safe
 * under the work-stealing pool without a lock. snapshot() sums across
 * shards (including shards of exited threads, which are kept alive
 * for the life of the process); Snapshot::diff supports
 * before/after-style accounting in tests and benches.
 *
 * Counters flagged *unstable* (scheduling-dependent, e.g. pool
 * steals) are reported by snapshot() but excluded from
 * writeMetricsJson, so bench `--json` artifacts stay byte-identical
 * run-to-run. Gauges are polled at snapshot time (for values owned by
 * a mutex-guarded structure, e.g. a memo's MemoStats).
 *
 * The registry also renders the run manifest — build fingerprint,
 * RTOC_* knob values, thread count, cache mode — written into every
 * bench `--json` artifact so the file records how it was produced.
 * RTOC_TRACE and RTOC_LOG are deliberately excluded: both are
 * output-neutral by contract (golden artifacts must be byte-identical
 * with tracing off and on), so they must not leak into the artifact.
 */

#ifndef RTOC_OBS_REGISTRY_HH
#define RTOC_OBS_REGISTRY_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "common/stats.hh"

namespace rtoc::obs {

/** A summed point-in-time view of every registry counter and gauge. */
class Snapshot
{
  public:
    /** Value of @p name (0 when absent). */
    uint64_t get(const std::string &name) const;

    /** All values, name-sorted (includes unstable counters). */
    const std::map<std::string, uint64_t> &values() const
    {
        return vals_;
    }

    /**
     * Per-counter difference `this - base` (counters are monotonic, so
     * this is the activity between the two snapshots; names absent
     * from @p base count from zero, and zero deltas are kept so
     * round-trip tests can see every registered name).
     */
    std::map<std::string, uint64_t> diff(const Snapshot &base) const;

  private:
    friend class Registry;
    std::map<std::string, uint64_t> vals_;
};

/** Process-wide counter registry (see file comment). */
class Registry
{
  public:
    static Registry &global();

    /**
     * Register (or look up) counter @p name. Idempotent; the returned
     * StatId is the handle for inc(). @p unstable marks
     * scheduling-dependent counters excluded from metrics JSON.
     */
    StatId counter(const std::string &name, bool unstable = false);

    /** Add @p delta to counter @p id on this thread's shard. */
    void inc(StatId id, uint64_t delta = 1);

    /**
     * Register gauge @p name, polled at snapshot time. Re-registering
     * replaces the callback (callers own any referenced state).
     */
    void gauge(const std::string &name, std::function<uint64_t()> fn);

    /** Summed view of all counters + polled gauges. */
    Snapshot snapshot() const;

    /** Summed value of one counter (0 when never incremented). */
    uint64_t value(StatId id) const;

    /**
     * Append the unified `"metrics"` + `"manifest"` sections emitted
     * into every bench `--json` artifact, e.g.:
     *
     *   "metrics": { "prog_cache.hits": 12, ... },
     *   "manifest": { "build": "...", "threads": 4,
     *                 "cache_mode": "auto",
     *                 "env": { "RTOC_THREADS": "4", ... } },
     *
     * Caller is mid-object: the text ends with a trailing comma so it
     * can be inserted right after the artifact's opening `{`.
     * Unstable counters and zero-valued counters whose name was only
     * registered (never incremented) are included — the section must
     * be deterministic, not minimal.
     */
    void writeJsonSections(FILE *f) const;

  private:
    Registry() = default;
};

/** Convenience: one-line counter bump via the global registry. */
inline void
count(StatId id, uint64_t delta = 1)
{
    Registry::global().inc(id, delta);
}

/**
 * Render the run manifest by itself (tests): build fingerprint,
 * thread count, cache mode, and the RTOC_* env knobs (minus
 * RTOC_TRACE / RTOC_LOG — see file comment).
 */
std::string manifestJson();

} // namespace rtoc::obs

#endif // RTOC_OBS_REGISTRY_HH
