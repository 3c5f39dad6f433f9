#include "core_model.hh"

#include "common/logging.hh"

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

std::vector<TimingResult>
TimingModel::runStreamBatch(
    const isa::UopStreamView &view,
    const std::vector<const TimingModel *> &models) const
{
    std::vector<TimingResult> out;
    out.reserve(models.size());
    for (const TimingModel *m : models)
        out.push_back(m->runStream(view));
    return out;
}

} // namespace rtoc::cpu
