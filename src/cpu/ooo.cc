#include "ooo.hh"

#include <algorithm>
#include <optional>
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

/** One greedy-dataflow scoreboard: one lane of a replay. */
struct OooLane
{
    uint64_t lat[isa::kNumLatClasses] = {};
    SlotMap slots[3]; ///< indexed by PipeClass
    RegReadyFile regs;
    std::vector<uint64_t> commit; ///< in-order commit ring (the ROB)
    std::optional<RegionAttributor> attr;
    uint64_t lastCommit = 0;
    uint64_t frontWidth = 1;
    uint64_t fetch = 0;     ///< fetch cycle of the next uop: i / frontWidth
    uint64_t fetchLeft = 0; ///< uops left in that fetch group
    size_t robSlot = 0;     ///< commit-ring slot of the next uop: i % robSize

    void
    reset(const isa::Program &prog, const OooConfig &cfg)
    {
        using isa::LatClass;
        auto set = [&](LatClass c, int cycles) {
            lat[static_cast<size_t>(c)] = static_cast<uint64_t>(cycles);
        };
        set(LatClass::IntAlu, 1);
        set(LatClass::IntMul, cfg.intMulLatency);
        set(LatClass::Fp, cfg.fpLatency);
        set(LatClass::FpDiv, cfg.fpDivLatency);
        set(LatClass::FpCmp, 2);
        set(LatClass::FpMove, 2);
        set(LatClass::Load, cfg.loadLatency);
        set(LatClass::Store, 1);
        set(LatClass::Branch, 1);
        set(LatClass::FpNarrow, cfg.narrowFpLatency());

        slots[static_cast<size_t>(PipeClass::Int)].reset(cfg.intIssue);
        slots[static_cast<size_t>(PipeClass::Mem)].reset(cfg.memIssue);
        slots[static_cast<size_t>(PipeClass::Fp)].reset(cfg.fpIssue);
        regs.reset();
        regs.ensure(prog.scalarRegCount());
        commit.assign(static_cast<size_t>(cfg.robSize), 0);
        attr.emplace(prog);
        lastCommit = 0;
        frontWidth = static_cast<uint64_t>(cfg.frontWidth);
        fetch = 0;
        fetchLeft = frontWidth;
        robSlot = 0;
    }
};

/**
 * The OoO engine: one blocked pass over the stream's columns advances
 * @p lanes[L], reset to @p cfgs[L], and writes its result to
 * @p out[L]. Single-config replay is the one-lane call. Each lane runs
 * the same statement sequence over the same uops, so a lane's result
 * does not depend on which other lanes share the pass.
 *
 * Issue slots come from SlotMap: each pipe keeps one bit per simulated
 * cycle, set exactly when all of that cycle's slots are taken. The
 * earliest free cycle >= t is then the earliest clear bit >= t, found
 * 64 cycles per word; it is the cycle a one-at-a-time probe returns,
 * so the cycle counts are bit-identical to that probe's (runAos keeps
 * the plain i / frontWidth and i % robSize the counters here replace).
 */
void
replayLanes(const isa::UopStreamView &v, const OooConfig *const *cfgs,
            OooLane *lanes, size_t n_lanes, TimingResult *out)
{
    if (!v.program)
        rtoc_panic("OoO replay: view has no owning program");

    for (size_t L = 0; L < n_lanes; ++L)
        lanes[L].reset(*v.program, *cfgs[L]);

    const uint8_t *const cls_col = v.cls;
    const uint32_t *const dst_col = v.dst;
    const uint32_t *const src0_col = v.src0;
    const uint32_t *const src1_col = v.src1;
    const uint32_t *const src2_col = v.src2;

    // Blocked lane-major walk: a block's columns are loaded once and
    // every lane's scoreboard advances over them.
    constexpr size_t kBlock = 2048;
    for (size_t b0 = 0; b0 < v.n; b0 += kBlock) {
        const size_t b1 = std::min(v.n, b0 + kBlock);
        for (size_t L = 0; L < n_lanes; ++L) {
            // Register-resident copies; the lane carries them between
            // blocks.
            OooLane &ln = lanes[L];
            const uint64_t *const lat = ln.lat;
            SlotMap *const slots = ln.slots;
            RegReadyFile &regs = ln.regs;
            RegionAttributor &attr = *ln.attr;
            uint64_t *const commit = ln.commit.data();
            const size_t rob_size = ln.commit.size();
            const uint64_t front_width = ln.frontWidth;
            uint64_t fetch = ln.fetch;
            uint64_t fetch_left = ln.fetchLeft;
            size_t rob_slot = ln.robSlot;
            uint64_t last_commit = ln.lastCommit;

            for (size_t i = b0; i < b1; ++i) {
                const uint8_t cls = cls_col[i];
                if (!(cls & isa::kClsScalar)) {
                    rtoc_panic("OoO core '%s' given coprocessor uop %s "
                               "(BOOM cores are evaluated scalar-only)",
                               cfgs[L]->name.c_str(),
                               isa::uopName(v.kind[i]));
                }
                const size_t c = cls & isa::kClsLatMask;

                uint64_t operands =
                    std::max({regs.readyTime(src0_col[i]),
                              regs.readyTime(src1_col[i]),
                              regs.readyTime(src2_col[i])});
                uint64_t t = std::max({fetch, commit[rob_slot], operands});

                uint64_t issue =
                    slots[static_cast<size_t>(kPipeOf[c])].claimFrom(t);
                uint64_t done = issue + lat[c];
                attr.step(i, done);
                regs.setReady(dst_col[i], done);

                last_commit = std::max(last_commit, done);
                commit[rob_slot] = last_commit;
                if (++rob_slot == rob_size)
                    rob_slot = 0;
                if (--fetch_left == 0) {
                    ++fetch;
                    fetch_left = front_width;
                }
            }

            ln.fetch = fetch;
            ln.fetchLeft = fetch_left;
            ln.robSlot = rob_slot;
            ln.lastCommit = last_commit;
        }
    }

    for (size_t L = 0; L < n_lanes; ++L) {
        RegionAttributor &attr = *lanes[L].attr;
        out[L].regionCycles = attr.finish(v.n);
        out[L].cycles = attr.maxCompletion();
        out[L].stats.set(oooUopsId(), v.n);
    }
}

/** Reusable state of the AoS reference loop for one thread. */
struct OooScratch
{
    std::vector<uint64_t> finish;
    RegReadyFile regs;            ///< register ready times
    std::vector<uint64_t> commit; ///< in-order commit ring
    SlotMap intSlots, memSlots, fpSlots;
};

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

TimingResult
OooCore::runStream(const isa::UopStreamView &v) const
{
    // Single replays reuse one thread-local lane, capacity retained,
    // so its scoreboard is not reallocated run after run.
    static thread_local OooLane lane;
    const OooConfig *cfg = &cfg_;
    TimingResult out;
    replayLanes(v, &cfg, &lane, 1, &out);
    return out;
}

std::vector<TimingResult>
OooCore::runStreamBatch(
    const isa::UopStreamView &v,
    const std::vector<const TimingModel *> &models) const
{
    std::vector<const OooConfig *> cfgs;
    cfgs.reserve(models.size());
    for (const TimingModel *m : models) {
        const auto *core = dynamic_cast<const OooCore *>(m);
        if (!core)
            return TimingModel::runStreamBatch(v, models);
        cfgs.push_back(&core->config());
    }
    // Batch lanes are freed on return: pooling them would keep eight
    // scoreboards resident per sweep thread for the whole process.
    std::vector<OooLane> lanes(cfgs.size());
    std::vector<TimingResult> out(cfgs.size());
    replayLanes(v, cfgs.data(), lanes.data(), lanes.size(), out.data());
    return out;
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

    const auto &uops = prog.uops();
    TimingResult result;

    static thread_local OooScratch scratch;
    scratch.finish.assign(uops.size(), 0);
    scratch.regs.reset();
    scratch.commit.assign(static_cast<size_t>(cfg_.robSize), 0);
    scratch.intSlots.reset(cfg_.intIssue);
    scratch.memSlots.reset(cfg_.memIssue);
    scratch.fpSlots.reset(cfg_.fpIssue);

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

    SlotMap &int_slots = scratch.intSlots;
    SlotMap &mem_slots = scratch.memSlots;
    SlotMap &fp_slots = scratch.fpSlots;

    // In-order commit ring for the ROB-occupancy constraint.
    std::vector<uint64_t> &commit = scratch.commit;
    uint64_t last_commit = 0;

    for (size_t i = 0; i < uops.size(); ++i) {
        const Uop &u = uops[i];
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

        SlotMap &slots = classOf(u.kind) == PipeClass::Int ? int_slots
                         : classOf(u.kind) == PipeClass::Mem
                             ? mem_slots
                             : fp_slots;
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
    result.stats.set(oooUopsId(), uops.size());
    return result;
}

} // namespace rtoc::cpu
