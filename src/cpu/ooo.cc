#include "ooo.hh"

#include <algorithm>
#include <memory>
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

/** Cycles past last_commit the engine reserves issue slots for at once
 *  (more when one uop's latency alone is longer). */
constexpr uint64_t kReserveAhead = uint64_t{1} << 16;

/**
 * Reusable replay state of one thread. The engine's buffers are sized
 * by the largest stream the thread has replayed, but each run sets up
 * only what it reads: the ready rows of its unwritten reads, its
 * commit ring, and the slot words the last run claimed. runAos keeps
 * its own zero-filled files.
 */
struct OooScratch
{
    SlotMap slots[3];             ///< issue slots, indexed by PipeClass
    std::vector<uint64_t> commit; ///< in-order commit ring (the ROB)
    std::unique_ptr<uint64_t[]> ready; ///< engine ready file
    size_t readyCap = 0;

    std::vector<uint64_t> finish; ///< per-uop completion (runAos only)
    RegReadyFile regs;            ///< register ready times (runAos only)

    void
    resetSlots(const OooConfig &cfg)
    {
        slots[static_cast<size_t>(PipeClass::Int)].reset(cfg.intIssue);
        slots[static_cast<size_t>(PipeClass::Mem)].reset(cfg.memIssue);
        slots[static_cast<size_t>(PipeClass::Fp)].reset(cfg.fpIssue);
    }

    /** The engine's ready file of at least @p n entries, holding
     *  whatever the last run left. */
    uint64_t *
    readyFile(size_t n)
    {
        if (n > readyCap) {
            ready.reset(new uint64_t[n]);
            readyCap = n;
        }
        return ready.get();
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
    if (std::min({cfg_.loadLatency, cfg_.fpLatency, cfg_.fpDivLatency,
                  cfg_.intMulLatency}) < 0) {
        rtoc_panic("OoO core '%s': latencies must be >= 0",
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
 *
 * Everything the loop writes is reached through locals: each latency
 * class's pipe cursor, the ready file and the commit ring, which the
 * claim counts' byte stores cannot alias. The ROB is a power-of-two ring
 * indexed by uop number: uop i reads the commit bound uop i - robSize
 * wrote, at slot (i - robSize) & mask, and writes its own at i & mask;
 * the ring starts at 0, so the first robSize uops read 0.
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
    scratch.resetSlots(cfg_);
    SlotMap *const slots = scratch.slots;
    SlotMap::Cursor by_cls[isa::kNumLatClasses]; // its pipe's cursor
    const uint64_t max_lat =
        *std::max_element(lat, lat + isa::kNumLatClasses);
    const size_t chunk = static_cast<size_t>(
        std::max<uint64_t>(1, kReserveAhead / (max_lat + 1)));

    const size_t rob_size = static_cast<size_t>(cfg_.robSize);
    size_t ring_cap = 1;
    while (ring_cap < rob_size)
        ring_cap *= 2;
    scratch.commit.assign(ring_cap, 0);
    uint64_t *const ring = scratch.commit.data();
    const size_t ring_mask = ring_cap - 1;
    const size_t ring_lag = ring_cap - rob_size; // i - robSize, mod cap

    // The ready file: one row per register id, shared by the two
    // register files as in runAos. Program::push keeps every id but
    // kNoReg (masked: 0x7fffffff) below its file's counter, so the
    // rows past them hold only kNoReg, which reads 0 and whose writes
    // drop; of the rest, only the ids the program reads unwritten are
    // read before they are written.
    const uint32_t n_regs =
        std::max(prog.scalarRegCount(), prog.vectorRegCount());
    uint64_t *const ready = scratch.readyFile(n_regs);
    for (uint32_t reg : prog.unwrittenReads()) {
        if ((reg & 0x7fffffffu) < n_regs)
            ready[reg & 0x7fffffffu] = 0;
    }

    const uint64_t front_width = static_cast<uint64_t>(cfg_.frontWidth);
    const uint8_t *const cls_col = v.cls;
    const uint32_t *const dst_col = v.dst;
    const uint32_t *const src0_col = v.src0;
    const uint32_t *const src1_col = v.src1;
    const uint32_t *const src2_col = v.src2;

    uint64_t fetch = 0;                // fetch cycle of uop i: i / width
    uint64_t fetch_left = front_width; // uops left in that fetch group
    uint64_t last_commit = 0;          // max completion over [0, i)
    uint64_t open_before = 0;          // last_commit at the open begin

    TimingResult out;
    const std::vector<isa::KernelRegion> &regions = prog.kernels();
    out.regionCycles.resize(regions.size());
    uint64_t *const region_cycles = out.regionCycles.data();
    size_t next_region = 0;
    bool open = false;
    for (size_t i = 0;;) {
        const size_t seg_end = next_region == regions.size() ? v.n
                               : open ? regions[next_region].end
                                      : regions[next_region].begin;
        while (i < seg_end) {
            // A uop's operands and ROB bound are ready by last_commit
            // and its fetch cycle by last_commit + 1, and no claim lies
            // past last_commit, so the uop issues by last_commit + 1
            // and raises last_commit by at most max_lat + 1: a chunk's
            // claims stay below last_commit + chunk * (max_lat + 1) + 1.
            const size_t stop = std::min(seg_end, i + chunk);
            const uint64_t reach =
                last_commit + (stop - i) * (max_lat + 1) + 1;
            for (size_t c = 0; c < isa::kNumLatClasses; ++c)
                by_cls[c] =
                    slots[static_cast<size_t>(kPipeOf[c])].reserve(reach);
            for (; i < stop; ++i) {
                const uint8_t cls = cls_col[i];
                if (!(cls & isa::kClsScalar)) {
                    rtoc_panic("OoO core '%s' given coprocessor uop %s "
                               "(BOOM cores are evaluated scalar-only)",
                               cfg_.name.c_str(),
                               isa::uopName(v.kind[i]));
                }
                const size_t c = cls & isa::kClsLatMask;

                const uint32_t s0 = src0_col[i] & 0x7fffffffu;
                const uint32_t s1 = src1_col[i] & 0x7fffffffu;
                const uint32_t s2 = src2_col[i] & 0x7fffffffu;
                uint64_t t =
                    std::max(fetch, ring[(i + ring_lag) & ring_mask]);
                if (s0 < n_regs)
                    t = std::max(t, ready[s0]);
                if (s1 < n_regs)
                    t = std::max(t, ready[s1]);
                if (s2 < n_regs)
                    t = std::max(t, ready[s2]);
                const uint64_t done = SlotMap::claim(by_cls[c], t) + lat[c];
                const uint32_t dst = dst_col[i] & 0x7fffffffu;
                if (dst < n_regs)
                    ready[dst] = done;

                last_commit = std::max(last_commit, done);
                ring[i & ring_mask] = last_commit;
                if (--fetch_left == 0) {
                    ++fetch;
                    fetch_left = front_width;
                }
            }
        }
        if (next_region == regions.size())
            break;
        if (open)
            region_cycles[next_region] = last_commit - open_before;
        else
            open_before = last_commit;
        next_region += open;
        open = !open;
    }

    // No uop completes before it issues, so no claim lies past
    // last_commit.
    for (size_t p = 0; p < 3; ++p)
        slots[p].claimedBelow(last_commit + 1);
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
    scratch.resetSlots(cfg_);
    scratch.regs.reset();
    scratch.commit.assign(static_cast<size_t>(cfg_.robSize), 0);
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
