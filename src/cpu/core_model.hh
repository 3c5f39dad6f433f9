/**
 * @file
 * TimingModel: the timing-simulation interface shared by all four
 * architecture families (in-order scalar, OoO scalar, Saturn vector,
 * Gemmini systolic).
 *
 * A model consumes a micro-op stream and returns the cycle count plus
 * per-kernel-region attribution. Each family prices uops in one
 * columnar engine over UopStreamView, a view whose decoded class
 * column was computed once for the owning Program, so N models (or N
 * replays) over one cached stream share a single decode pass. A family
 * implements one engine hook, runLanes, over models of its own type:
 * in-order, Saturn and Gemmini advance every lane in one pass; OoO runs
 * its one-lane pass once per lane, since lanes that share only the
 * column loads gain nothing from one interleaved pass. The replay
 * calls are the base class's: runStream is a one-lane runLanes, and
 * runStreamBatch takes models of any family, groups them by family and
 * runs each group through one runLanes call. runAos() keeps each
 * family's cost rules written plainly, walking one Uop record at a
 * time through Program::uop(i): it is the independent reference every
 * engine lane must match (pinned by tests) and the reference loop the
 * replay benches compare against.
 *
 * Models are deterministic and purely analytical over the stream:
 * running the same Program twice gives identical results, which the
 * property tests rely on.
 *
 * Models keep no mutable state across run() calls. Each pass sets up
 * its own scratch before the per-uop loop, so the per-uop simulation
 * loop performs no heap allocation, distinct sweep threads never share
 * scratch, and models are safe to run concurrently. An engine sets up
 * only what its uops read: it allocates its register ready files
 * without filling them and zeroes only the rows of the registers the
 * program reads before writing (Program::unwrittenReads), and the OoO
 * engine, which keeps its scratch per thread with capacity retained,
 * clears only the issue-slot words its last run claimed. The AoS
 * loops keep zero-filled files.
 */

#ifndef RTOC_CPU_CORE_MODEL_HH
#define RTOC_CPU_CORE_MODEL_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "isa/program.hh"

namespace rtoc::cpu {

/** Growable map from virtual register id to ready cycle, zero-filled:
 *  the AoS reference loops' register file. */
class RegReadyFile
{
  public:
    uint64_t
    readyTime(uint32_t reg) const
    {
        uint32_t idx = reg & 0x7fffffffu;
        if (reg == isa::kNoReg || idx >= ready_.size())
            return 0;
        return ready_[idx];
    }

    void
    setReady(uint32_t reg, uint64_t t)
    {
        if (reg == isa::kNoReg)
            return;
        uint32_t idx = reg & 0x7fffffffu;
        if (idx >= ready_.size())
            ready_.resize(static_cast<size_t>(idx) * 2 + 16, 0);
        ready_[idx] = t;
    }

    /** Zero all entries, keeping capacity (no allocation). */
    void
    reset()
    {
        std::fill(ready_.begin(), ready_.end(), 0);
    }

  private:
    std::vector<uint64_t> ready_;
};

/** Outcome of timing one Program on one model. */
struct TimingResult
{
    /** Total cycles from first fetch to last completion. */
    Cycles cycles = 0;

    /** Cycles attributed to each kernel region (parallel to
     *  Program::kernels()). */
    std::vector<uint64_t> regionCycles;

    /** Model-specific event counters (stalls, fences, ...). */
    StatGroup stats;

    /** Per-name kernel accumulation helper. */
    std::vector<isa::KernelCycles>
    kernelBreakdown(const isa::Program &prog) const
    {
        return isa::accumulateKernelCycles(prog.kernels(), regionCycles);
    }
};

/** Abstract architecture timing model. */
class TimingModel
{
  public:
    virtual ~TimingModel() = default;

    /**
     * Simulate the columnar stream (hot path): the family engine's
     * one-lane pass. The view must come from Program::stream() —
     * region attribution follows view.program back to the kernel
     * markers.
     */
    TimingResult runStream(const isa::UopStreamView &view) const;

    /**
     * AoS reference loop, one Uop record at a time (Program::uop):
     * the family's cost rules written plainly, one config at a time.
     * Results are bit-identical to every lane of runStream and
     * runStreamBatch; kept as the reference the tests hold the engine
     * to and as the reference loop of the replay-throughput bench.
     */
    virtual TimingResult runAos(const isa::Program &prog) const = 0;

    /** Configuration name for tables ("rocket", "boom-small", ...). */
    virtual std::string name() const = 0;

    /**
     * Key identifying the cycle results: every configuration knob
     * that changes timing must be encoded here (the on-disk
     * calibration cache is keyed on it). Models whose name() already
     * captures the whole configuration may rely on this default.
     */
    virtual std::string cacheKey() const { return name(); }

    /** Simulate @p prog through its (decode-once) columnar view. */
    TimingResult
    run(const isa::Program &prog) const
    {
        return runStream(prog.stream());
    }

    /**
     * Batched replay: one result per model in @p models, returned in
     * @p models order, each bit-identical to models[i]->runStream(view)
     * and to models[i]->runAos (pinned by tests). The models may belong
     * to any family: they are grouped by dynamic type, in order of
     * first appearance, and each group runs through its first model's
     * runLanes. `this` only names the call; it is not simulated unless
     * it appears in @p models itself.
     */
    std::vector<TimingResult>
    runStreamBatch(const isa::UopStreamView &view,
                   const std::vector<const TimingModel *> &models) const;

  protected:
    /**
     * The family's engine: simulate lane l, configured by models[l],
     * over @p view and write its result to out[l], for each of the
     * @p n >= 1 lanes. Every models[l] has this model's dynamic type
     * (runStream and runStreamBatch guarantee it), so the hook may
     * downcast them without a check.
     */
    virtual void runLanes(const isa::UopStreamView &view,
                          const TimingModel *const *models, size_t n,
                          TimingResult *out) const = 0;
};

/**
 * Shared region-attribution helper: given the completion cycle of each
 * uop, a region's cost is the increase of the running max completion
 * across the region. Monotone and exact for in-order models; for OoO
 * models it attributes overlap to the earlier region, which matches
 * how RTL-level kernel timers (rdcycle around calls) behave.
 *
 * Panics when @p prog still has an open kernel region: timing such a
 * stream would silently drop the open region's cycles.
 */
std::vector<uint64_t>
attributeRegions(const isa::Program &prog,
                 const std::vector<uint64_t> &finish);

} // namespace rtoc::cpu

#endif // RTOC_CPU_CORE_MODEL_HH
