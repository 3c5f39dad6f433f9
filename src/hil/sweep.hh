/**
 * @file
 * Parallel scenario sweep engine.
 *
 * Every figure regeneration is a fan-out over independent tasks:
 * seeded HIL episodes, disturbance trials, frequency/difficulty grid
 * cells, Pareto design points. SweepRunner distributes those tasks
 * over the process thread pool (work-stealing: a worker that drains
 * its block migrates to the slowest peer's remaining work) with two
 * determinism guarantees:
 *
 *  1. per-task seeding — a task's randomness derives only from its
 *     index (makeScenario(d, i), disturbance axis, ...), never from
 *     execution order;
 *  2. index-ordered aggregation — results land in a slot array and
 *     every reduction walks it in index order, so parallel runs are
 *     bit-identical to serial runs.
 *
 * Tiny per-episode tasks (1-tick smoke runs) are chunked: the grain
 * knob groups consecutive episodes into one pool task so claim/wake
 * overhead does not dominate. grain 0 (default) picks a heuristic
 * from the task count and pool width; setGrain forces a value for one
 * SweepRunner. The grain never changes results, only scheduling.
 *
 * Set RTOC_THREADS=1 to force the serial path (used by the equality
 * tests and by the microbench's serial baseline).
 */

#ifndef RTOC_HIL_SWEEP_HH
#define RTOC_HIL_SWEEP_HH

#include <functional>
#include <vector>

#include "common/thread_pool.hh"
#include "hil/episode.hh"

namespace rtoc::hil {

/** Deterministic fan-out of independent sweep tasks over a pool. */
class SweepRunner
{
  public:
    explicit SweepRunner(ThreadPool &pool = ThreadPool::global())
        : pool_(pool)
    {}

    /** Parallelism of the underlying pool. */
    int threads() const { return pool_.threads(); }

    /**
     * Episodes grouped per pool task. 0 = auto (defaultGrain).
     * Scheduling-only: results are independent of the grain.
     */
    SweepRunner &
    setGrain(int grain)
    {
        grain_ = grain < 0 ? 0 : grain;
        return *this;
    }

    /** Grain actually used for an @p n-task fan-out. */
    size_t effectiveGrain(size_t n) const;

    /**
     * Auto heuristic: enough tasks to keep every participant busy
     * with slack for stealing (~4 chunks per thread), capped so one
     * chunk never serializes a large fraction of the range.
     */
    static size_t defaultGrain(size_t n, int threads);

    /**
     * Evaluate fn(0..n-1) across the pool and return results in index
     * order. R must be default-constructible and movable.
     */
    template <typename R>
    std::vector<R>
    map(size_t n, const std::function<R(size_t)> &fn) const
    {
        std::vector<R> out(n);
        pool_.parallelFor(
            n, [&](size_t i) { out[i] = fn(i); }, effectiveGrain(n));
        return out;
    }

    /**
     * Run the @p n seeded scenarios of difficulty @p d on clones of
     * @p proto (scenario i is proto.makeScenario(d, i), exactly as
     * the serial loops did).
     */
    std::vector<EpisodeResult>
    runEpisodes(const plant::Plant &proto, plant::Difficulty d, int n,
                const HilConfig &cfg,
                const plant::DisturbanceProfile &disturbance = {}) const;

  private:
    ThreadPool &pool_;
    int grain_ = 0; ///< 0 = auto
};

} // namespace rtoc::hil

#endif // RTOC_HIL_SWEEP_HH
