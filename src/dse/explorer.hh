/**
 * @file
 * Explorer: batch design-point evaluation and frontier search over a
 * DesignSpace, sitting on the cached replay substrate.
 *
 * submit(points) is the long-lived service entry: queries are mapped
 * to replay cells, deduplicated, served from evalMemo() — the
 * process-wide isa::Memo of replay cells, whose disk tier is the
 * shared isa::DiskCache "dsecell" namespace — and only the remainder
 * is replayed: same-stream candidates go to one runStreamBatch call,
 * which groups them by timing family (one column pass per family), and
 * the per-stream calls fan out over the work-stealing SweepRunner; the
 * results are then stored in both tiers. Repeated processes pointing
 * at one RTOC_CACHE_DIR therefore behave like many clients against one
 * hot cache: a second run of the same exploration replays nothing.
 *
 * Two search strategies drive exploreGrid()'s exhaustive baseline
 * down to a fraction of its cells:
 *
 *  - successive halving: every configuration is first scored at
 *    Fidelity::Low (a 1-iteration solve stream, a fraction of the
 *    full replay cost); only configurations within kShBand of the
 *    cheap frontier are promoted to full fidelity;
 *  - local surrogate: per surviving configuration, a low-order model
 *    of log(cycles) over (latScale, widthScale) is fitted to the
 *    cells replayed so far; each round expands only the unevaluated
 *    cells the surrogate predicts within its trust band of the
 *    current frontier, until no candidate qualifies or kMaxRounds
 *    rounds have run.
 *
 * Frequency is an analytic axis (solves/s = freq / cycles): explore()
 * serves every frequency point of an evaluated (config, lat, width)
 * cell for free, which is why cells — not points — are the cost unit
 * reported in EvalStats and gated in bench_dse.
 */

#ifndef RTOC_DSE_EXPLORER_HH
#define RTOC_DSE_EXPLORER_HH

#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "dse/design_space.hh"
#include "hil/sweep.hh"
#include "isa/memo.hh"

namespace rtoc::dse {

/** Raw cost of one replay cell (cycles exclude config extraCycles). */
struct CellCost
{
    uint64_t cycles = 0;
    uint64_t uops = 0;
};

/**
 * Process-wide (model, stream) -> CellCost memo shared by Explorers
 * (counters as "eval_memo.*"). It keeps every cell it is asked for:
 * the full bench_dse run holds about a thousand.
 */
isa::Memo<CellCost> &evalMemo();

/** One evaluated design point. */
struct EvalOutcome
{
    PointSpec point;
    std::string config;  ///< display name (scale-suffixed)
    std::string cellKey; ///< replay cell this point mapped to
    Fidelity fidelity = Fidelity::Full;
    uint64_t cycles = 0; ///< replayed cycles + config extraCycles
    uint64_t uops = 0;   ///< stream length behind the cell
    double solvesPerS = 0.0;
    double areaMm2 = 0.0;
    double freqHz = 0.0;
};

/** Cost counters of one Explorer (the bench gates live on these). */
struct EvalStats
{
    uint64_t cellsRequested = 0; ///< distinct cells ever asked of us
    uint64_t cellsLowFi = 0;     ///< Low-fidelity subset of the above
    uint64_t replays = 0;        ///< cells actually replayed here
    uint64_t memoHits = 0;       ///< served from the process memo
    uint64_t diskHits = 0;       ///< served from the shared DiskCache
    uint64_t uopsReplayed = 0;   ///< stream uops x replayed lanes
    uint64_t pointsServed = 0;   ///< query points answered
};

/** Batch evaluator + frontier search driver (see file comment). */
class Explorer
{
  public:
    struct Options
    {
        bool useMemo = true; ///< serve and store cells in evalMemo()
        bool useDisk = true; ///< ... in isa::DiskCache::global()
        ThreadPool *pool = nullptr; ///< nullptr = ThreadPool::global()
    };

    explicit Explorer(const DesignSpace &space);
    Explorer(const DesignSpace &space, Options opt);

    /**
     * Evaluate @p points at @p f and return outcomes in query order.
     * The batch is deduplicated to distinct cells before any replay.
     */
    std::vector<EvalOutcome> submit(const std::vector<PointSpec> &points,
                                    Fidelity f = Fidelity::Full);

    struct Result
    {
        std::vector<EvalOutcome> evaluated; ///< full-fidelity outcomes
        std::vector<EvalOutcome> frontier;  ///< Pareto subset
        EvalStats stats;
        /** Distinct full-fidelity cells an exhaustive grid would
         *  replay (the denominator of the cells-saved headline). */
        uint64_t gridCells = 0;
    };

    /** Exhaustive baseline: every point of the space, full fidelity. */
    Result exploreGrid();

    /** SH + surrogate search (see file comment). */
    Result explore();

    const EvalStats &stats() const { return stats_; }
    const DesignSpace &space() const { return space_; }

  private:
    const DesignSpace &space_;
    Options opt_;
    hil::SweepRunner sweep_;
    const isa::DiskCache *disk_ = nullptr; ///< null when disabled
    EvalStats stats_;
    std::set<std::string> seen_; ///< cells counted in cellsRequested
};

/** Pareto-optimal subset of @p outcomes (area up, solves/s up). */
std::vector<EvalOutcome>
paretoFrontier(const std::vector<EvalOutcome> &outcomes);

/**
 * Best frontier performance at area budget @p area_mm2 (0 when the
 * frontier has no point that cheap).
 */
double frontierPerfAt(const std::vector<EvalOutcome> &frontier,
                      double area_mm2);

/**
 * Dominated hypervolume of @p frontier against the reference point
 * (@p ref_area_mm2, 0 solves/s): the area-x-performance region the
 * frontier dominates. Two searches recovering the same frontier have
 * equal hypervolume, so |HV_search - HV_grid| / HV_grid is the
 * frontier error bench_dse reports.
 */
double hypervolume(const std::vector<EvalOutcome> &frontier,
                   double ref_area_mm2);

} // namespace rtoc::dse

#endif // RTOC_DSE_EXPLORER_HH
