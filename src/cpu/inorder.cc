#include "inorder.hh"

#include "common/logging.hh"

namespace rtoc::cpu {

InOrderConfig
InOrderConfig::rocket()
{
    InOrderConfig c;
    c.name = "rocket";
    c.issueWidth = 1;
    c.fpuCount = 1;
    c.memPorts = 1;
    return c;
}

InOrderConfig
InOrderConfig::shuttle()
{
    InOrderConfig c;
    c.name = "shuttle";
    c.issueWidth = 2;
    c.fpuCount = 1;
    c.memPorts = 1;
    return c;
}

void
InOrderConfig::check() const
{
    auto width_ok = [](int w) { return w >= 1 && w <= kMaxWidth; };
    if (!width_ok(issueWidth) || !width_ok(fpuCount) ||
        !width_ok(memPorts)) {
        rtoc_panic("in-order core '%s': issue, FPU and memory-port "
                   "widths must be in [1, %d]",
                   name.c_str(), kMaxWidth);
    }
}

InOrderCore::InOrderCore(InOrderConfig cfg) : cfg_(std::move(cfg))
{
    cfg_.check();
}

TimingResult
InOrderCore::runAos(const isa::Program &prog) const
{
    return runWithCoproc(
        prog,
        [this](const isa::Uop &u, uint64_t, RegReadyFile &,
               RegReadyFile &) -> std::pair<uint64_t, uint64_t> {
            rtoc_panic("scalar core '%s' given coprocessor uop %s",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        });
}

void
InOrderCore::runLanes(const isa::UopStreamView &view,
                      const TimingModel *const *models, size_t n,
                      TimingResult *out) const
{
    std::vector<const InOrderConfig *> cfgs(n);
    for (size_t l = 0; l < n; ++l)
        cfgs[l] = &static_cast<const InOrderCore *>(models[l])->cfg_;
    NoCoproc unit{cfg_.name.c_str()};
    if (n == 1)
        replayInOrder<1>(view, cfgs.data(), 1, unit, out);
    else
        replayInOrder<0>(view, cfgs.data(), n, unit, out);
}

std::string
InOrderCore::cacheKey() const
{
    return csprintf("inorder:%s:iw%d:fpu%d:mp%d:ld%d:fp%d:div%d:"
                    "imul%d:bb%d",
                    cfg_.name.c_str(), cfg_.issueWidth, cfg_.fpuCount,
                    cfg_.memPorts, cfg_.loadLatency, cfg_.fpLatency,
                    cfg_.fpDivLatency, cfg_.intMulLatency,
                    cfg_.branchBubble);
}

} // namespace rtoc::cpu
