/**
 * @file
 * ReplayBatch: run many timing models over one cached uop stream in
 * as few column passes as possible.
 *
 * Design sweeps (Pareto fronts, ablations, multi-model calibration)
 * evaluate N knob settings of the same architecture family against
 * one cached Program. A ReplayBatch groups the added models by family
 * (dynamic type) and hands each group to that family's
 * runStreamBatch. In-order, Saturn and Gemmini advance all of the
 * group's scoreboards in a single pass over the columns, which beats
 * N sequential runStream calls; OoO runs the group's lanes in turn,
 * since one interleaved pass does not beat them. A one-model group
 * runs the engine's one-lane pass, which is runStream itself. A group
 * the family driver rejects falls back to sequential runStream inside
 * the base runStreamBatch.
 *
 * Results are bit-identical to calling model.runStream(view) for each
 * added model (pinned by tests), and are returned in add() order.
 */

#ifndef RTOC_CPU_REPLAY_BATCH_HH
#define RTOC_CPU_REPLAY_BATCH_HH

#include <vector>

#include "cpu/core_model.hh"

namespace rtoc::cpu {

/** Order-preserving multi-model replay over one stream. */
class ReplayBatch
{
  public:
    /**
     * Add @p model to the batch; the caller keeps ownership and must
     * keep it alive until run() returns. Returns the result slot.
     */
    size_t
    add(const TimingModel &model)
    {
        models_.push_back(&model);
        return models_.size() - 1;
    }

    /** Added model count. */
    size_t size() const { return models_.size(); }

    /** Drop all added models (result slots restart at 0). */
    void clear() { models_.clear(); }

    /**
     * Replay @p view once per family group; results are indexed by
     * the slots add() returned.
     */
    std::vector<TimingResult> run(const isa::UopStreamView &view) const;

    /** Convenience: replay @p prog through its columnar view. */
    std::vector<TimingResult>
    run(const isa::Program &prog) const
    {
        return run(prog.stream());
    }

  private:
    std::vector<const TimingModel *> models_;
};

} // namespace rtoc::cpu

#endif // RTOC_CPU_REPLAY_BATCH_HH
