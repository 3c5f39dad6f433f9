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
 * replays) over one cached stream share a single decode pass.
 * runStream is the engine's one-lane pass and runStreamBatch its
 * N-lane pass. runAos() keeps each family's cost rules written
 * plainly over the AoS Program::uops(): it is the independent
 * reference every engine lane must match (pinned by tests) and the
 * layout-comparison baseline.
 *
 * Models are deterministic and purely analytical over the stream:
 * running the same Program twice gives identical results, which the
 * property tests rely on.
 *
 * Models keep no mutable state across run() calls. Each pass sets up
 * its own scratch before the per-uop loop (the AoS loops and OoO's
 * one-lane pass reuse thread-local scratch, capacity retained), so the
 * per-uop simulation loop performs no heap allocation, distinct sweep
 * threads never share scratch, and models are safe to run
 * concurrently.
 */

#ifndef RTOC_CPU_CORE_MODEL_HH
#define RTOC_CPU_CORE_MODEL_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "isa/program.hh"

namespace rtoc::cpu {

/** Growable map from virtual register id to ready cycle. */
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

    /**
     * Pre-size for register ids < @p n (entries stay zero). Batched
     * replay lanes size their files from the program's register
     * counts up front so the per-uop loop never pays the
     * growth-doubling copy a fresh file would.
     */
    void
    ensure(uint32_t n)
    {
        if (n > ready_.size())
            ready_.resize(n, 0);
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
     * Simulate the columnar stream (hot path). The view must come
     * from Program::stream() — region attribution follows
     * view.program back to the kernel markers.
     */
    virtual TimingResult runStream(const isa::UopStreamView &view)
        const = 0;

    /**
     * AoS reference loop over Program::uops(): the family's cost rules
     * written plainly, one config at a time. Results are bit-identical
     * to every lane of runStream and runStreamBatch; kept as the
     * reference the tests hold the engine to and for the SoA-vs-AoS
     * replay-throughput bench.
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
     * Batched replay (one pass, N scoreboards): simulate the stream
     * once while advancing an independent scoreboard per model in
     * @p models, amortizing column loads and class decode across a
     * design sweep. Every model in @p models must belong to this
     * model's family (same dynamic type); each family overrides this
     * with its engine, whose one-lane pass is runStream, so lane i is
     * bit-identical to models[i]->runStream(view) and to
     * models[i]->runAos (pinned by tests). The base implementation —
     * also the fallback overrides take when a foreign model appears in
     * the group — is the sequential runStream loop. Results are
     * returned in @p models order;
     * `this` only dispatches and is not simulated unless it appears in
     * @p models itself.
     */
    virtual std::vector<TimingResult>
    runStreamBatch(const isa::UopStreamView &view,
                   const std::vector<const TimingModel *> &models) const;
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

/**
 * Streaming equivalent of attributeRegions for the columnar loops:
 * regions are ordered and non-overlapping, so the attribution walks
 * them alongside the uop loop instead of buffering every finish time.
 * Feed completion cycles in program order via step(); the costs are
 * identical to the buffered helper (pinned by the SoA-vs-AoS tests).
 */
class RegionAttributor
{
  public:
    /** Panics (like attributeRegions) when a region is still open. */
    explicit RegionAttributor(const isa::Program &prog);

    /** Record uop @p i completing at cycle @p done. */
    void
    step(size_t i, uint64_t done)
    {
        closeUpTo(i);
        if (done > running_max_)
            running_max_ = done;
    }

    /** Close remaining regions and take the per-region costs. */
    std::vector<uint64_t> finish(size_t n_uops);

    /** Max completion cycle seen so far (program total after finish). */
    uint64_t maxCompletion() const { return running_max_; }

  private:
    /** Handle region boundaries at uop index @p i (before its
     *  completion merges into the running max). */
    void
    closeUpTo(size_t i)
    {
        const std::vector<isa::KernelRegion> &regions = *regions_;
        while (true) {
            if (open_) {
                if (regions[next_].end > i)
                    return;
                out_.push_back(running_max_ - open_before_);
                open_ = false;
                ++next_;
            } else {
                if (next_ >= regions.size() ||
                    regions[next_].begin > i) {
                    return;
                }
                open_before_ = running_max_;
                open_ = true;
            }
        }
    }

    /** Pointer (not reference) so batch-lane state stays copyable. */
    const std::vector<isa::KernelRegion> *regions_;
    std::vector<uint64_t> out_;
    size_t next_ = 0;            ///< first region not yet closed
    uint64_t running_max_ = 0;   ///< max completion over uops [0, i)
    uint64_t open_before_ = 0;   ///< running max at the open begin
    bool open_ = false;
};

} // namespace rtoc::cpu

#endif // RTOC_CPU_CORE_MODEL_HH
