#include "core_model.hh"

#include <typeinfo>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace rtoc::cpu {

std::vector<uint64_t>
attributeRegions(const isa::Program &prog,
                 const std::vector<uint64_t> &finish)
{
    const size_t n = prog.size();
    if (finish.size() != n)
        rtoc_panic("attributeRegions: finish array size mismatch");
    if (prog.kernelOpen()) {
        rtoc_panic("attributeRegions: kernel region '%s' still open — "
                   "close it (endKernel) before timing the program",
                   prog.kernels().back().name().c_str());
    }

    // Running max completion up to and including index i; the prefix
    // array is thread-local so repeated replays of cached programs do
    // not reallocate it.
    static thread_local std::vector<uint64_t> prefix_max;
    prefix_max.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i)
        prefix_max[i + 1] = std::max(prefix_max[i], finish[i]);

    std::vector<uint64_t> out;
    out.reserve(prog.kernels().size());
    for (const auto &region : prog.kernels()) {
        uint64_t before = prefix_max[region.begin];
        uint64_t after = prefix_max[region.end];
        out.push_back(after - before);
    }
    return out;
}

TimingResult
TimingModel::runStream(const isa::UopStreamView &view) const
{
    const TimingModel *self = this;
    TimingResult out;
    runLanes(view, &self, 1, &out);
    return out;
}

std::vector<TimingResult>
TimingModel::runStreamBatch(
    const isa::UopStreamView &view,
    const std::vector<const TimingModel *> &models) const
{
    RTOC_SPAN_NAMED(span, "cpu.replay_batch", "cpu");
    span.arg("models", models.size());
    span.arg("uops", view.n);
    // One runLanes call per family, groups in order of first
    // appearance; each group's results go back to its input slots.
    std::vector<TimingResult> out(models.size());
    std::vector<bool> taken(models.size(), false);
    for (size_t first = 0; first < models.size(); ++first) {
        if (taken[first])
            continue;
        std::vector<const TimingModel *> group;
        std::vector<size_t> slots;
        for (size_t s = first; s < models.size(); ++s) {
            if (!taken[s] && typeid(*models[s]) == typeid(*models[first])) {
                taken[s] = true;
                group.push_back(models[s]);
                slots.push_back(s);
            }
        }
        std::vector<TimingResult> res(group.size());
        group.front()->runLanes(view, group.data(), group.size(),
                                res.data());
        for (size_t k = 0; k < slots.size(); ++k)
            out[slots[k]] = std::move(res[k]);
    }
    return out;
}

} // namespace rtoc::cpu
