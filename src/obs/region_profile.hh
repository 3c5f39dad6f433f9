/**
 * @file
 * RegionProfile: aggregates the per-kernel-region cycle attribution
 * that every TimingResult already carries (TimingResult::regionCycles)
 * into region × backend × plant distributions across a sweep, and
 * renders the paper-Fig-12-style "where do the cycles go" breakdown
 * table. Surfaced by `--profile` on bench_cross_plant / bench_relin
 * and exported into the trace as counter tracks.
 *
 * Determinism: a profile is pure aggregation over deterministic
 * TimingResults, so the table is byte-identical run to run (and is
 * printed after the golden tables so their bytes never move).
 */

#ifndef RTOC_OBS_REGION_PROFILE_HH
#define RTOC_OBS_REGION_PROFILE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "isa/program.hh"

namespace rtoc::obs {

/** Aggregated cycles for one kernel region on one backend. */
struct RegionRow
{
    std::string backend;
    std::string region;
    uint64_t cycles = 0;      ///< total attributed cycles, all plants
    uint64_t invocations = 0; ///< region entries, all plants
    double share = 0.0;       ///< of the backend's attributed total
    DistSummary perPlant;     ///< per-plant cycle distribution
};

/** Region × backend × plant cycle aggregation (see file comment). */
class RegionProfile
{
  public:
    /**
     * Fold one plant's per-name kernel breakdown (e.g.
     * TimingResult::kernelBreakdown) for @p backend into the profile.
     */
    void add(const std::string &backend, const std::string &plant,
             const std::vector<isa::KernelCycles> &kernels);

    /** True when nothing has been added. */
    bool empty() const { return cells_.empty(); }

    /** Total attributed cycles across every backend and plant. */
    uint64_t totalCycles() const;

    /** Total attributed cycles for one backend. */
    uint64_t backendCycles(const std::string &backend) const;

    /**
     * All rows: backends in first-add order, regions within a backend
     * by descending cycle total (name-ordered on ties).
     */
    std::vector<RegionRow> rows() const;

    /**
     * Render the Fig-12-style breakdown table: one block per backend,
     * one row per region with total cycles, share of the backend, and
     * the per-plant distribution (median / IQR).
     */
    std::string table() const;

    /**
     * Emit one trace counter sample per (backend, region) named
     * "region/<backend>/<region>" carrying the total cycles. No-op
     * when tracing is disabled.
     */
    void exportTraceCounters() const;

  private:
    struct Cell
    {
        uint64_t cycles = 0;
        uint64_t invocations = 0;
        Distribution perPlant; ///< one sample per plant
    };

    /** (backend, region) -> aggregate. */
    std::map<std::pair<std::string, std::string>, Cell> cells_;
    std::vector<std::string> backend_order_; ///< first-add order
};

} // namespace rtoc::obs

#endif // RTOC_OBS_REGION_PROFILE_HH
