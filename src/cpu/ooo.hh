/**
 * @file
 * Greedy-dataflow out-of-order core model for the BOOM family.
 *
 * Mirrors the configuration axes the paper sweeps in §5.1.1: front-end
 * width (fetch/decode), per-pipeline issue queues (MEM / INT / FP),
 * ROB capacity, and FPU count (Mega BOOM has two FPUs). Scheduling is
 * idealized (perfect branch prediction, full renaming): each uop
 * issues at the earliest cycle allowed by its operands, its pipeline's
 * issue width, the front-end supply rate and ROB occupancy. This is
 * the standard first-order OoO model and upper-bounds the RTL, which
 * is the right fidelity for the paper's "more OoO is not worth the
 * area for this workload" conclusion.
 */

#ifndef RTOC_CPU_OOO_HH
#define RTOC_CPU_OOO_HH

#include <string>

#include "cpu/core_model.hh"

namespace rtoc::cpu {

/** Microarchitectural parameters of a BOOM-like OoO core. */
struct OooConfig
{
    std::string name = "boom-small";
    int frontWidth = 1;  ///< sustained decode/rename per cycle
    int robSize = 64;
    int intIssue = 1;    ///< INT pipeline issue width
    int memIssue = 1;    ///< MEM pipeline issue width
    int fpIssue = 1;     ///< FP pipeline issue width (== FPU count)
    int loadLatency = 3;
    int fpLatency = 4;
    int fpDivLatency = 16;
    int intMulLatency = 3;

    /** Latency of pipelined FPU ops at sub-32-bit element width
     *  (LatClass::FpNarrow): half-width FMAs shave a stage. */
    int
    narrowFpLatency() const
    {
        return fpLatency > 1 ? fpLatency - 1 : 1;
    }

    static OooConfig boomSmall();
    static OooConfig boomMedium();
    static OooConfig boomLarge();
    static OooConfig boomMega();
};

/** Greedy-dataflow timing model of an OoO scalar core. */
class OooCore : public TimingModel
{
  public:
    /** Panics unless widths and ROB size are >= 1, issue widths fit
     *  the per-cycle slot count (<= 255) and latencies are >= 0 (a uop
     *  never completes before it issues). */
    explicit OooCore(OooConfig cfg);

    TimingResult runAos(const isa::Program &prog) const override;

    std::string name() const override { return cfg_.name; }

    std::string cacheKey() const override;

    const OooConfig &config() const { return cfg_; }

  protected:
    /**
     * Runs replayLane once per lane, one lane after another: lanes
     * that share only the column loads gain nothing from one
     * interleaved pass.
     */
    void runLanes(const isa::UopStreamView &view,
                  const TimingModel *const *models, size_t n,
                  TimingResult *out) const override;

  private:
    /**
     * The engine: one pass with the scoreboard in locals. The ROB is a
     * power-of-two commit ring indexed by uop number, the ready file
     * zeroes only the rows the program reads unwritten, and issue
     * slots are reserved ahead of each stretch of claims, so no claim
     * checks a bound.
     */
    TimingResult replayLane(const isa::UopStreamView &v) const;

    OooConfig cfg_;
};

} // namespace rtoc::cpu

#endif // RTOC_CPU_OOO_HH
