/**
 * @file
 * Schedule search: the timing models as their own autotuning cost
 * model.
 *
 * For one (model cacheKey, program key) pair, the searcher scores the
 * candidate recipes of enumerateSchedSpecs() — plus greedy
 * per-region-name refinement — by replaying the transformed stream on
 * the very model that will consume it, and keeps the cheapest. The
 * winning recipe (not the transformed program) is memoized in
 * schedMemo(), an isa::Memo whose disk tier is the DiskCache "sched"
 * namespace, versioned and fingerprinted exactly like program blobs:
 * a warm process decodes the recipe and re-applies it, a corrupt or
 * stale blob is deleted and re-searched. Transformed programs
 * themselves materialize through the ProgramCache under
 * `progKey + "|sched:" + digest`, so scheduled and baseline streams
 * never alias in memory or on disk.
 *
 * Everything here is opt-in: with RTOC_SCHED unset (or 0) the
 * schedule layer is inert — scheduledStream returns the baseline
 * pointer untouched and schedKeySuffix() is empty, so every golden
 * output stays byte-identical by default.
 *
 * RTOC_SCHED=1 enables schedule search and scheduled replay. Each
 * search scores at most kSchedCap candidates.
 */

#ifndef RTOC_ISA_SCHED_SEARCH_HH
#define RTOC_ISA_SCHED_SEARCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "isa/memo.hh"
#include "isa/schedule.hh"

namespace rtoc::isa {

class ProgramCache;

/** True when RTOC_SCHED enables the schedule layer (read once). */
bool schedEnabled();

/** Candidate budget per search. */
inline constexpr int kSchedCap = 24;

/**
 * Cache-key suffix for results computed over scheduled streams:
 * "|sched:v1:cap<N>" when enabled, "" otherwise. Appended to
 * calibration and DSE cell keys so sched-on cycle results never alias
 * the baseline entries (and off-mode keys stay untouched).
 */
const std::string &schedKeySuffix();

/** Replay cost of one candidate program (typically model.run().cycles). */
using SchedCostFn = std::function<uint64_t(const Program &)>;

/** Outcome of one schedule search (searchSchedule / tests / bench). */
struct SchedSearchResult
{
    SchedSpec spec;            ///< winning recipe (empty = baseline)
    uint64_t baseCycles = 0;   ///< cost of the identity schedule
    uint64_t bestCycles = 0;   ///< cost of the winner (<= baseCycles)
    int candidatesScored = 0;  ///< replays spent (excl. baseline)
};

/**
 * Search the schedule space of @p baseline under @p cost, capped at
 * @p cap scored candidates: global recipes first, then greedy
 * per-region-name refinement of the winner. Deterministic — fixed
 * candidate order, strict-improvement acceptance. Does not consult
 * caches; scheduledStream wraps this with memo + disk persistence.
 */
SchedSearchResult searchSchedule(const Program &baseline,
                                 const SchedCostFn &cost, int cap);

/**
 * The schedule layer's main entry: the stream model @p modelKey
 * should replay for @p progKey. Returns @p baseline unchanged when
 * RTOC_SCHED is off or the search finds no improvement; otherwise the
 * scheduled program, materialized through @p cache under the
 * digest-suffixed key. Winners are memoized per (modelKey, progKey,
 * cap) in schedMemo() (racing threads search a key exactly once) and
 * persisted in @p disk (nullable) under the "sched" namespace.
 */
std::shared_ptr<const Program>
scheduledStream(const std::string &modelKey, const std::string &progKey,
                const std::shared_ptr<const Program> &baseline,
                const SchedCostFn &cost, ProgramCache &cache,
                const DiskCache *disk);

/** Global-cache convenience overload (ProgramCache/DiskCache::global). */
std::shared_ptr<const Program>
scheduledStream(const std::string &modelKey, const std::string &progKey,
                const std::shared_ptr<const Program> &baseline,
                const SchedCostFn &cost);

/**
 * Process-wide memo of search winners, keyed per (modelKey, progKey,
 * cap). Its counters register as "sched.memo.*" on the first
 * schedule-layer use, so sched-off runs never register them.
 */
Memo<SchedSpec> &schedMemo();

} // namespace rtoc::isa

#endif // RTOC_ISA_SCHED_SEARCH_HH
