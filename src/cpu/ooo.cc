#include "ooo.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "cpu/slot_map.hh"

namespace rtoc::cpu {

namespace {

/** Interned "uops" stat id (one-time; per-run sets index by id). */
StatId
oooUopsId()
{
    static const StatId id = internStat("uops");
    return id;
}

} // namespace

OooConfig
OooConfig::boomSmall()
{
    OooConfig c;
    c.name = "boom-small";
    c.frontWidth = 1;
    c.robSize = 64;
    c.intIssue = 1;
    c.memIssue = 1;
    c.fpIssue = 1;
    return c;
}

OooConfig
OooConfig::boomMedium()
{
    OooConfig c;
    c.name = "boom-medium";
    c.frontWidth = 2;
    c.robSize = 96;
    c.intIssue = 2;
    c.memIssue = 1;
    c.fpIssue = 1;
    return c;
}

OooConfig
OooConfig::boomLarge()
{
    OooConfig c;
    c.name = "boom-large";
    c.frontWidth = 3;
    c.robSize = 128;
    c.intIssue = 3;
    c.memIssue = 2;
    c.fpIssue = 1;
    return c;
}

OooConfig
OooConfig::boomMega()
{
    OooConfig c;
    c.name = "boom-mega";
    c.frontWidth = 4;
    c.robSize = 192;
    c.intIssue = 4;
    c.memIssue = 2;
    c.fpIssue = 2;
    return c;
}

namespace {

enum class PipeClass : uint8_t { Int, Mem, Fp };

PipeClass
classOf(isa::UopKind k)
{
    using isa::UopKind;
    switch (k) {
      case UopKind::Load:
      case UopKind::Store:
        return PipeClass::Mem;
      case UopKind::FpAdd:
      case UopKind::FpMul:
      case UopKind::FpFma:
      case UopKind::FpDiv:
      case UopKind::FpMinMax:
      case UopKind::FpAbs:
      case UopKind::FpCmp:
      case UopKind::FpMove:
        return PipeClass::Fp;
      default:
        return PipeClass::Int;
    }
}

/** Issue pipe of each LatClass: the partition classOf() draws. */
constexpr PipeClass kPipeOf[isa::kNumLatClasses] = {
    PipeClass::Int, // IntAlu
    PipeClass::Int, // IntMul
    PipeClass::Fp,  // Fp
    PipeClass::Fp,  // FpDiv
    PipeClass::Fp,  // FpCmp
    PipeClass::Fp,  // FpMove
    PipeClass::Mem, // Load
    PipeClass::Mem, // Store
    PipeClass::Int, // Branch
    PipeClass::Int, // Coproc (rejected before issue)
    PipeClass::Fp,  // FpNarrow
};

/** Reusable replay state of one thread: both loops reset it per run
 *  and keep its capacity. */
struct OooScratch
{
    std::vector<uint64_t> finish; ///< per-uop completion (runAos only)
    RegReadyFile regs;            ///< register ready times
    std::vector<uint64_t> commit; ///< in-order commit ring (the ROB)
    SlotMap slots[3];             ///< issue slots, indexed by PipeClass

    void
    reset(const OooConfig &cfg)
    {
        regs.reset();
        commit.assign(static_cast<size_t>(cfg.robSize), 0);
        slots[static_cast<size_t>(PipeClass::Int)].reset(cfg.intIssue);
        slots[static_cast<size_t>(PipeClass::Mem)].reset(cfg.memIssue);
        slots[static_cast<size_t>(PipeClass::Fp)].reset(cfg.fpIssue);
    }
};

OooScratch &
threadScratch()
{
    static thread_local OooScratch scratch;
    return scratch;
}

} // namespace

OooCore::OooCore(OooConfig cfg) : cfg_(std::move(cfg))
{
    auto width_ok = [](int w) { return w >= 1 && w <= 255; };
    if (cfg_.frontWidth < 1 || cfg_.robSize < 1 ||
        !width_ok(cfg_.intIssue) || !width_ok(cfg_.memIssue) ||
        !width_ok(cfg_.fpIssue)) {
        rtoc_panic("OoO core '%s': front width and ROB size must be "
                   ">= 1 and issue widths in [1, 255]",
                   cfg_.name.c_str());
    }
}

/*
 * The OoO engine: one pass over the stream's columns with the
 * scoreboard in locals. Like replayInOrder, the pass runs in segments
 * between kernel-region boundaries: a region opens before its begin
 * uop and closes before its end uop, and no uop tests for one. The
 * running max completion a region is priced by is last_commit.
 *
 * Issue slots come from SlotMap: each pipe keeps one bit per simulated
 * cycle, set exactly when all of that cycle's slots are taken. The
 * earliest free cycle >= t is then the earliest clear bit >= t, found
 * 64 cycles per word; it is the cycle a one-at-a-time probe returns,
 * so the cycle counts are bit-identical to that probe's (runAos keeps
 * the plain i / frontWidth and i % robSize the counters here replace).
 */
TimingResult
OooCore::replayLane(const isa::UopStreamView &v) const
{
    using isa::LatClass;

    if (!v.program)
        rtoc_panic("OoO replay: view has no owning program");
    const isa::Program &prog = *v.program;
    if (prog.kernelOpen()) {
        rtoc_panic("OoO replay: kernel region '%s' still open — close "
                   "it (endKernel) before timing the program",
                   prog.kernels().back().name().c_str());
    }

    uint64_t lat[isa::kNumLatClasses] = {};
    auto set = [&](LatClass c, int cycles) {
        lat[static_cast<size_t>(c)] = static_cast<uint64_t>(cycles);
    };
    set(LatClass::IntAlu, 1);
    set(LatClass::IntMul, cfg_.intMulLatency);
    set(LatClass::Fp, cfg_.fpLatency);
    set(LatClass::FpDiv, cfg_.fpDivLatency);
    set(LatClass::FpCmp, 2);
    set(LatClass::FpMove, 2);
    set(LatClass::Load, cfg_.loadLatency);
    set(LatClass::Store, 1);
    set(LatClass::Branch, 1);
    set(LatClass::FpNarrow, cfg_.narrowFpLatency());

    OooScratch &scratch = threadScratch();
    scratch.reset(cfg_);
    SlotMap *const slots = scratch.slots;
    uint64_t *const commit = scratch.commit.data();
    const size_t rob_size = scratch.commit.size();
    const uint64_t front_width = static_cast<uint64_t>(cfg_.frontWidth);

    const uint8_t *const cls_col = v.cls;
    const uint32_t *const dst_col = v.dst;
    const uint32_t *const src0_col = v.src0;
    const uint32_t *const src1_col = v.src1;
    const uint32_t *const src2_col = v.src2;

    // The ready file in locals, which SlotMap's byte stores cannot
    // alias. Program::push keeps every id below its file's counter, so
    // the file covers each id the stream names; kNoReg masks to
    // 0x7fffffff, past any file, so it reads 0 and its writes drop.
    RegReadyFile &regs = scratch.regs;
    regs.ensure(std::max(prog.scalarRegCount(), prog.vectorRegCount()));
    uint64_t *const ready = regs.data();
    const size_t n_ready = regs.size();
    auto ready_time = [&](uint32_t reg) -> uint64_t {
        const uint32_t idx = reg & 0x7fffffffu;
        return idx < n_ready ? ready[idx] : 0;
    };

    uint64_t fetch = 0;                // fetch cycle of uop i: i / width
    uint64_t fetch_left = front_width; // uops left in that fetch group
    size_t rob_slot = 0;               // commit-ring slot: i % robSize
    uint64_t last_commit = 0;          // max completion over [0, i)
    uint64_t open_before = 0;          // last_commit at the open begin

    TimingResult out;
    const std::vector<isa::KernelRegion> &regions = prog.kernels();
    out.regionCycles.reserve(regions.size());
    size_t next_region = 0;
    bool open = false;
    for (size_t i = 0;;) {
        const size_t stop = next_region == regions.size() ? v.n
                            : open ? regions[next_region].end
                                   : regions[next_region].begin;
        for (; i < stop; ++i) {
            const uint8_t cls = cls_col[i];
            if (!(cls & isa::kClsScalar)) {
                rtoc_panic("OoO core '%s' given coprocessor uop %s "
                           "(BOOM cores are evaluated scalar-only)",
                           cfg_.name.c_str(), isa::uopName(v.kind[i]));
            }
            const size_t c = cls & isa::kClsLatMask;

            const uint64_t operands = std::max(
                {ready_time(src0_col[i]), ready_time(src1_col[i]),
                 ready_time(src2_col[i])});
            const uint64_t t =
                std::max({fetch, commit[rob_slot], operands});
            const uint64_t done =
                slots[static_cast<size_t>(kPipeOf[c])].claimFrom(t) +
                lat[c];
            const uint32_t dst = dst_col[i] & 0x7fffffffu;
            if (dst < n_ready)
                ready[dst] = done;

            last_commit = std::max(last_commit, done);
            commit[rob_slot] = last_commit;
            if (++rob_slot == rob_size)
                rob_slot = 0;
            if (--fetch_left == 0) {
                ++fetch;
                fetch_left = front_width;
            }
        }
        if (next_region == regions.size())
            break;
        if (open)
            out.regionCycles.push_back(last_commit - open_before);
        else
            open_before = last_commit;
        next_region += open;
        open = !open;
    }

    out.cycles = last_commit;
    out.stats.set(oooUopsId(), v.n);
    return out;
}

void
OooCore::runLanes(const isa::UopStreamView &view,
                  const TimingModel *const *models, size_t n,
                  TimingResult *out) const
{
    for (size_t l = 0; l < n; ++l)
        out[l] = static_cast<const OooCore *>(models[l])->replayLane(view);
}

std::string
OooCore::cacheKey() const
{
    return csprintf("ooo:%s:fw%d:rob%d:ii%d:mi%d:fi%d:ld%d:fp%d:"
                    "div%d:imul%d",
                    cfg_.name.c_str(), cfg_.frontWidth, cfg_.robSize,
                    cfg_.intIssue, cfg_.memIssue, cfg_.fpIssue,
                    cfg_.loadLatency, cfg_.fpLatency, cfg_.fpDivLatency,
                    cfg_.intMulLatency);
}

TimingResult
OooCore::runAos(const isa::Program &prog) const
{
    using isa::Uop;
    using isa::UopKind;

    const size_t n = prog.size();
    TimingResult result;

    OooScratch &scratch = threadScratch();
    scratch.reset(cfg_);
    scratch.finish.assign(n, 0);

    std::vector<uint64_t> &finish = scratch.finish;
    RegReadyFile &regs = scratch.regs;

    auto latency_of = [&](const Uop &u) -> uint64_t {
        const UopKind k = u.kind;
        switch (k) {
          case UopKind::IntAlu: return 1;
          case UopKind::IntMul:
            return static_cast<uint64_t>(cfg_.intMulLatency);
          case UopKind::FpAdd:
          case UopKind::FpMul:
          case UopKind::FpFma:
          case UopKind::FpMinMax:
          case UopKind::FpAbs:
            return static_cast<uint64_t>(
                u.sew < 32 ? cfg_.narrowFpLatency()
                           : cfg_.fpLatency);
          case UopKind::FpDiv:
            return static_cast<uint64_t>(cfg_.fpDivLatency);
          case UopKind::FpCmp:
          case UopKind::FpMove: return 2;
          case UopKind::Load:
            return static_cast<uint64_t>(cfg_.loadLatency);
          case UopKind::Store: return 1;
          case UopKind::Branch: return 1;
          default:
            rtoc_panic("OoO core '%s': non-scalar uop %s",
                       cfg_.name.c_str(), isa::uopName(k));
        }
    };

    // In-order commit ring for the ROB-occupancy constraint.
    std::vector<uint64_t> &commit = scratch.commit;
    uint64_t last_commit = 0;

    for (size_t i = 0; i < n; ++i) {
        const Uop u = prog.uop(i);
        if (!isa::isScalar(u.kind)) {
            rtoc_panic("OoO core '%s' given coprocessor uop %s "
                       "(BOOM cores are evaluated scalar-only)",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        }

        uint64_t fetch =
            static_cast<uint64_t>(i) /
            static_cast<uint64_t>(cfg_.frontWidth);
        uint64_t rob_free = commit[i % cfg_.robSize];
        uint64_t operands = std::max(
            {regs.readyTime(u.src0), regs.readyTime(u.src1),
             regs.readyTime(u.src2)});
        uint64_t t = std::max({fetch, rob_free, operands});

        SlotMap &slots =
            scratch.slots[static_cast<size_t>(classOf(u.kind))];
        uint64_t issue = slots.claimFrom(t);
        uint64_t done = issue + latency_of(u);
        finish[i] = done;
        regs.setReady(u.dst, done);

        last_commit = std::max(last_commit, done);
        commit[i % cfg_.robSize] = last_commit;
    }

    uint64_t total = 0;
    for (uint64_t f : finish)
        total = std::max(total, f);

    result.cycles = total;
    result.regionCycles = attributeRegions(prog, finish);
    result.stats.set(oooUopsId(), n);
    return result;
}

} // namespace rtoc::cpu
