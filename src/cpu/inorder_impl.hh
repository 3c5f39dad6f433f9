/**
 * @file
 * The in-order cost engine, and the AoS reference loop beside it.
 *
 * replayInOrder is the one columnar cost loop of the in-order family,
 * and the frontend of the Saturn and Gemmini models. One lane-major
 * pass over a stream's columns advances one scoreboard per lane: each
 * uop's columns are loaded, its class decoded and its register rows
 * resolved once, then every lane steps over it. It is the engine
 * behind the runLanes hook of all three families, which picks the lane
 * count, a template argument: one lane (every runStream, and a batch
 * group of one model) instantiates it at 1, which keeps the lane's
 * state in registers for the whole pass, and any other group at 0,
 * sized at run time.
 *
 * InOrderCore::runWithCoproc is the AoS reference: the same cost rules
 * written plainly over one Uop record at a time (Program::uop), one
 * config at a time, with a thread-local scratch reset per run. The
 * runAos entry points of all three families run it, and the tests hold
 * every engine lane to it.
 */

#ifndef RTOC_CPU_INORDER_IMPL_HH
#define RTOC_CPU_INORDER_IMPL_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace rtoc::cpu {

namespace inorder_detail {

/** Interned stat ids for the in-order loops (one-time interning; the
 *  per-run stats.set calls index by id instead of hashing a string). */
struct Ids
{
    StatId uops = internStat("uops");
    StatId stall_data = internStat("stall_data");
    StatId stall_struct = internStat("stall_struct");
};

inline const Ids &
statIds()
{
    static const Ids ids;
    return ids;
}

} // namespace inorder_detail

/**
 * Zero-initialized per-lane values of an engine pass: a fixed array
 * when the lane count @p N is known at compile time, a heap array
 * sized at run time when N is 0.
 */
template <typename T, size_t N>
class LaneArray
{
  public:
    explicit LaneArray(size_t) {}

    T &operator[](size_t l) { return v_[l]; }
    const T &operator[](size_t l) const { return v_[l]; }
    T *data() { return v_; }

  private:
    T v_[N] = {};
};

template <typename T>
class LaneArray<T, 0>
{
  public:
    explicit LaneArray(size_t n) : v_(n) {}

    T &operator[](size_t l) { return v_[l]; }
    const T &operator[](size_t l) const { return v_[l]; }
    T *data() { return v_.data(); }

  private:
    std::vector<T> v_;
};

/**
 * One bounded in-flight queue per lane, holding completion cycles in
 * issue order: the Saturn vector queue and the Gemmini command ROB.
 * Lane l's ring is lane-interleaved (slot s at buf[s * lanes + l]),
 * with a power-of-two capacity of at least the deepest lane's depth.
 * admit() drains a full queue by one entry before each push, so no
 * lane ever holds more than its depth.
 */
template <size_t N>
class LaneQueues
{
  public:
    /** @p depth(l) is lane l's queue depth (>= 1). */
    template <typename DepthFn>
    LaneQueues(size_t lanes, DepthFn &&depth)
        : lanes_(N ? N : lanes), depth_(lanes), head_(lanes),
          count_(lanes), stall_(lanes)
    {
        uint64_t cap = 1;
        for (size_t l = 0; l < lanes_; ++l) {
            depth_[l] = static_cast<uint64_t>(depth(l));
            while (cap < depth_[l])
                cap *= 2;
        }
        mask_ = cap - 1;
        buf_.assign(cap * lanes_, 0);
    }

    /**
     * Make room in lane @p l for an entry presented at cycle
     * @p present: retire the entries complete by then and, if the
     * queue is still full, wait for the oldest to complete. Returns
     * the cycle the entry is accepted; the wait adds to stall(l).
     */
    uint64_t
    admit(size_t l, uint64_t present)
    {
        uint64_t h = head_[l];
        uint64_t n = count_[l];
        while (n != 0 && buf_[h * lanes_ + l] <= present) {
            h = (h + 1) & mask_;
            --n;
        }
        uint64_t accept = present;
        if (n >= depth_[l]) {
            accept = buf_[h * lanes_ + l];
            stall_[l] += accept - present;
            h = (h + 1) & mask_;
            --n;
        }
        head_[l] = h;
        count_[l] = n;
        return accept;
    }

    /** Append completion cycle @p t to lane @p l (after admit). */
    void
    push(size_t l, uint64_t t)
    {
        buf_[((head_[l] + count_[l]) & mask_) * lanes_ + l] = t;
        ++count_[l];
    }

    /** Empty lane @p l's queue. */
    void clear(size_t l) { count_[l] = 0; }

    /** Cycles lane @p l's entries waited for a full queue. */
    uint64_t stall(size_t l) const { return stall_[l]; }

  private:
    const size_t lanes_;
    LaneArray<uint64_t, N> depth_, head_, count_, stall_;
    std::vector<uint64_t> buf_;
    uint64_t mask_ = 0;
};

/**
 * The engine's register ready files as a coprocessor unit sees them:
 * lane-interleaved, entry (reg, lane) at base[idx * lanes + lane], so
 * a unit resolves a register once per uop and its lane loop reads one
 * contiguous row. The files are sized from the program's register
 * counters, which Program::push keeps above every id a uop accesses
 * in each file (a scalar uop naming a vector id included), so the
 * only id past them is kNoReg (it masks to 0x7fffffff): its reads
 * get the always-zero row (RegReadyFile semantics) and its writes land
 * in the sink row, with one bound check. Only the zero row and the
 * rows of the program's unwrittenReads() start at 0; every other row
 * is written before any uop reads it, so the engine leaves it
 * uninitialized.
 */
struct LaneRegFiles
{
    uint64_t *sready = nullptr;
    uint64_t *vready = nullptr;
    const uint64_t *zero_row = nullptr;
    uint64_t *sink_row = nullptr;
    uint32_t nsreg = 0;
    uint32_t nvreg = 0;
    size_t lanes = 0;

    const uint64_t *
    srow(uint32_t reg) const
    {
        const uint32_t idx = reg & 0x7fffffffu;
        return idx < nsreg ? sready + static_cast<size_t>(idx) * lanes
                           : zero_row;
    }

    uint64_t *
    srowW(uint32_t reg) const
    {
        const uint32_t idx = reg & 0x7fffffffu;
        rtoc_assert(reg == isa::kNoReg || idx < nsreg);
        return idx < nsreg ? sready + static_cast<size_t>(idx) * lanes
                           : sink_row;
    }

    const uint64_t *
    vrow(uint32_t reg) const
    {
        const uint32_t idx = reg & 0x7fffffffu;
        return idx < nvreg ? vready + static_cast<size_t>(idx) * lanes
                           : zero_row;
    }

    uint64_t *
    vrowW(uint32_t reg) const
    {
        const uint32_t idx = reg & 0x7fffffffu;
        rtoc_assert(reg == isa::kNoReg || idx < nvreg);
        return idx < nvreg ? vready + static_cast<size_t>(idx) * lanes
                           : sink_row;
    }
};

/** Coprocessor unit of a scalar-only core: any coprocessor uop is a
 *  programming error. */
struct NoCoproc
{
    const char *core;

    void
    operator()(const isa::UopStreamView &v, size_t i, const uint64_t *,
               uint64_t *, uint64_t *, const LaneRegFiles &) const
    {
        rtoc_panic("scalar core '%s' given coprocessor uop %s", core,
                   isa::uopName(v.kind[i]));
    }
};

/**
 * The in-order engine: one pass over @p v advances one scoreboard per
 * lane, lane l configured by @p cfgs[l], and writes lane l's result to
 * @p out[l]. @p N is the lane count when known at compile time (0:
 * @p lanes, at run time). Every lane runs the same statements over the
 * same uops, so a lane's result does not depend on the other lanes.
 *
 * The scalar pipeline is priced here. A non-scalar uop takes an issue
 * slot and waits for its scalar operands in every lane, then goes to
 * @p unit once for all lanes:
 *
 *     unit(v, i, present, release, done, regs)
 *
 * present[l] is the cycle at which lane l's frontend presents uop i;
 * the unit fills release[l] (when that frontend may continue) and
 * done[l] (when the uop completes), keeps its own per-lane state, and
 * reads and writes the register files through regs.
 *
 * Lane-invariant work is done once per uop, not once per lane: the
 * column loads, the class decode and the register-row resolution. The
 * pass runs region by region, so kernel-region attribution costs each
 * lane one running max per uop.
 */
template <size_t N, typename Unit>
void
replayInOrder(const isa::UopStreamView &v,
              const InOrderConfig *const *cfgs, size_t lanes, Unit &unit,
              TimingResult *out)
{
    using isa::LatClass;

    if (!v.program) {
        rtoc_panic("in-order replay: view has no owning program "
                   "(region attribution needs Program::stream())");
    }
    if (v.program->kernelOpen()) {
        rtoc_panic("in-order replay: kernel region '%s' still open — "
                   "close it (endKernel) before timing the program",
                   v.program->kernels().back().name().c_str());
    }

    const size_t L = N ? N : lanes;

    // The three per-cycle issue counters of a lane (issue slots, FPUs,
    // memory ports) share one word, in 16-bit fields at bits 0/16/32.
    // A uop's gate g (bit 0: it takes an FPU, bit 1: a memory port)
    // selects comp[g * L + l], which holds 0x8000 - limit in each field
    // the uop needs, so occ + comp sets a field's bit 15 exactly when
    // that counter has reached its limit. Limits are in [1, 0x7fff]
    // (checked by the constructors): counters never pass them, so the
    // fields never carry into each other, and a uop always fits a
    // fresh cycle, so one test per uop suffices.
    static_assert(isa::kClsFp == 0x10 && isa::kClsMem == 0x20,
                  "gate = (cls >> 4) & 3");
    constexpr uint64_t kOccHi = 0x0000800080008000ull;
    static constexpr uint64_t kOccInc[4] = {
        1, 1 | 1ull << 16, 1 | 1ull << 32, 1 | 1ull << 16 | 1ull << 32};
    LaneArray<uint64_t, N> cycle(L), occ(L), stall_data(L),
        stall_struct(L), running_max(L), open_before(L), bubble(L);
    LaneArray<uint64_t, N> present(L), release(L), done(L);
    LaneArray<uint64_t, 4 * N> comp(4 * L);
    LaneArray<uint64_t, isa::kNumLatClasses * N> lat(
        isa::kNumLatClasses * L);
    for (size_t l = 0; l < L; ++l) {
        const InOrderConfig &c = *cfgs[l];
        const uint64_t cs = 0x8000ull - static_cast<uint64_t>(c.issueWidth);
        const uint64_t cf = 0x8000ull - static_cast<uint64_t>(c.fpuCount);
        const uint64_t cm = 0x8000ull - static_cast<uint64_t>(c.memPorts);
        comp[0 * L + l] = cs;
        comp[1 * L + l] = cs | cf << 16;
        comp[2 * L + l] = cs | cm << 32;
        comp[3 * L + l] = cs | cf << 16 | cm << 32;
        bubble[l] = static_cast<uint64_t>(c.branchBubble);
        // Class-major, so a uop's lane loop reads one contiguous row.
        auto set = [&](LatClass k, int cycles) {
            lat[static_cast<size_t>(k) * L + l] =
                static_cast<uint64_t>(cycles);
        };
        set(LatClass::IntAlu, 1);
        set(LatClass::IntMul, c.intMulLatency);
        set(LatClass::Fp, c.fpLatency);
        set(LatClass::FpDiv, c.fpDivLatency);
        set(LatClass::FpCmp, 2);
        set(LatClass::FpMove, 2);
        set(LatClass::Load, c.loadLatency);
        set(LatClass::Store, 1);
        set(LatClass::Branch, 1);
        set(LatClass::FpNarrow, c.narrowFpLatency());
    }

    // Scalar rows, vector rows, then the zero and sink rows, in one
    // store allocated per pass and left uninitialized: a row is read
    // before it is written only when its register is one of the
    // program's unwrittenReads(), so those rows and the zero row are
    // zeroed (zero == never written, as in RegReadyFile) and every
    // other row is written before any read.
    const uint32_t nsreg = v.program->scalarRegCount();
    const uint32_t nvreg = v.program->vectorRegCount();
    const size_t rows = static_cast<size_t>(nsreg) + nvreg;
    const std::unique_ptr<uint64_t[]> store(new uint64_t[(rows + 2) * L]);
    const LaneRegFiles regs{store.get(),
                            store.get() + static_cast<size_t>(nsreg) * L,
                            store.get() + rows * L,
                            store.get() + (rows + 1) * L,
                            nsreg,
                            nvreg,
                            L};
    for (uint32_t reg : v.program->unwrittenReads()) {
        const uint32_t idx = reg & 0x7fffffffu;
        if (isa::Program::isVReg(reg) ? idx < nvreg : idx < nsreg) {
            std::fill_n(isa::Program::isVReg(reg) ? regs.vrowW(reg)
                                                  : regs.srowW(reg),
                        L, uint64_t{0});
        }
    }
    std::fill_n(store.get() + rows * L, L, uint64_t{0});

    constexpr uint8_t kBranchCls = static_cast<uint8_t>(LatClass::Branch);
    const uint8_t *const cls_col = v.cls;
    const uint32_t *const dst_col = v.dst;
    const uint32_t *const src0_col = v.src0;
    const uint32_t *const src1_col = v.src1;
    const uint32_t *const src2_col = v.src2;
    const uint8_t *const taken_col = v.taken;
    // A coprocessor uop's vector operands are the unit's business: the
    // frontend interlocks on its scalar operands only.
    auto scalar_only = [](uint32_t reg) {
        return isa::Program::isVReg(reg) ? isa::kNoReg : reg;
    };

    // Kernel regions are ordered and disjoint, so the pass runs in
    // segments between region boundaries: a region opens before its
    // begin uop and closes before its end uop, where attributeRegions
    // reads its running max, and no uop tests for one.
    const std::vector<isa::KernelRegion> &regions = v.program->kernels();
    for (size_t l = 0; l < L; ++l)
        out[l].regionCycles.reserve(regions.size());
    size_t next_region = 0;
    bool open = false;
    for (size_t i = 0;;) {
        const size_t stop = next_region == regions.size() ? v.n
                            : open ? regions[next_region].end
                                   : regions[next_region].begin;
        for (; i < stop; ++i) {
            const uint8_t cls = cls_col[i];

            if (!(cls & isa::kClsScalar)) {
                // The frontend presents the coprocessor uop: one issue
                // slot (gate 0 checks only the slot field), then its
                // scalar operands (vfmacc.vf reads an f-register).
                const uint64_t *p0 = regs.srow(scalar_only(src0_col[i]));
                const uint64_t *p1 = regs.srow(scalar_only(src1_col[i]));
                const uint64_t *p2 = regs.srow(scalar_only(src2_col[i]));
                for (size_t l = 0; l < L; ++l) {
                    uint64_t c = cycle[l];
                    uint64_t oc = occ[l];
                    if ((oc + comp[l]) & kOccHi) {
                        c += 1;
                        oc = 0;
                    }
                    const uint64_t ready =
                        std::max(std::max(p0[l], p1[l]), p2[l]);
                    if (ready > c) {
                        stall_data[l] += ready - c;
                        c = ready;
                        oc = 0;
                    }
                    cycle[l] = c;
                    occ[l] = oc + 1;
                    present[l] = c;
                }
                unit(v, i, present.data(), release.data(), done.data(),
                     regs);
                for (size_t l = 0; l < L; ++l) {
                    running_max[l] = std::max(running_max[l], done[l]);
                    if (release[l] > cycle[l]) {
                        cycle[l] = release[l];
                        occ[l] = 0;
                    }
                }
                continue;
            }

            // Scalar uop: operand rows, latency row, gate and the
            // taken-branch predicate are lane-invariant.
            const uint64_t *p0 = regs.srow(src0_col[i]);
            const uint64_t *p1 = regs.srow(src1_col[i]);
            const uint64_t *p2 = regs.srow(src2_col[i]);
            uint64_t *pd = regs.srowW(dst_col[i]);
            const size_t lc = cls & isa::kClsLatMask;
            const uint64_t *lat_row = lat.data() + lc * L;
            const size_t gate = (cls >> 4) & 3;
            const uint64_t *comp_row = comp.data() + gate * L;
            const uint64_t inc = kOccInc[gate];
            const bool br_taken = lc == kBranchCls && taken_col[i];
            for (size_t l = 0; l < L; ++l) {
                uint64_t c = cycle[l];
                uint64_t oc = occ[l];
                const uint64_t ready =
                    std::max(std::max(p0[l], p1[l]), p2[l]);
                if (ready > c) {
                    stall_data[l] += ready - c;
                    c = ready;
                    oc = 0;
                }
                if ((oc + comp_row[l]) & kOccHi) {
                    ++stall_struct[l];
                    c += 1;
                    oc = 0;
                }
                const uint64_t t = c + lat_row[l];
                running_max[l] = std::max(running_max[l], t);
                pd[l] = t;
                oc += inc;
                if (br_taken) {
                    c += 1 + bubble[l];
                    oc = 0;
                }
                cycle[l] = c;
                occ[l] = oc;
            }
        }
        if (next_region == regions.size())
            break;
        for (size_t l = 0; l < L; ++l) {
            if (open)
                out[l].regionCycles.push_back(running_max[l] -
                                              open_before[l]);
            else
                open_before[l] = running_max[l];
        }
        next_region += open;
        open = !open;
    }

    const inorder_detail::Ids &ids = inorder_detail::statIds();
    for (size_t l = 0; l < L; ++l) {
        out[l].cycles = std::max(cycle[l], running_max[l]);
        out[l].stats.set(ids.uops, v.n);
        out[l].stats.set(ids.stall_data, stall_data[l]);
        out[l].stats.set(ids.stall_struct, stall_struct[l]);
    }
}

/** Reusable scoreboard state of the AoS reference loop, per thread. */
struct InOrderScratch
{
    std::vector<uint64_t> finish;
    RegReadyFile sregs; ///< scalar registers
    RegReadyFile vregs; ///< vector registers (only coproc uses these)

    void
    reset(size_t n_uops)
    {
        finish.assign(n_uops, 0);
        sregs.reset();
        vregs.reset();
    }
};

template <typename CoprocFn>
TimingResult
InOrderCore::runWithCoproc(const isa::Program &prog,
                           CoprocFn &&coproc) const
{
    using isa::Uop;
    using isa::UopKind;

    TimingResult result;
    const size_t n = prog.size();

    static thread_local InOrderScratch scratch;
    scratch.reset(n);
    std::vector<uint64_t> &finish = scratch.finish;
    RegReadyFile &sregs = scratch.sregs;
    RegReadyFile &vregs = scratch.vregs;

    uint64_t cycle = 0;
    int slots = 0;
    int fp_used = 0;
    int mem_used = 0;
    uint64_t stall_data = 0;
    uint64_t stall_struct = 0;

    auto advance_to = [&](uint64_t c) {
        if (c > cycle) {
            cycle = c;
            slots = 0;
            fp_used = 0;
            mem_used = 0;
        }
    };

    auto latency_of = [&](const Uop &u) -> int {
        const UopKind k = u.kind;
        switch (k) {
          case UopKind::IntAlu: return 1;
          case UopKind::IntMul: return cfg_.intMulLatency;
          case UopKind::FpAdd:
          case UopKind::FpMul:
          case UopKind::FpFma:
          case UopKind::FpMinMax:
          case UopKind::FpAbs:
            return u.sew < 32 ? cfg_.narrowFpLatency()
                              : cfg_.fpLatency;
          case UopKind::FpDiv: return cfg_.fpDivLatency;
          case UopKind::FpCmp:
          case UopKind::FpMove: return 2;
          case UopKind::Load: return cfg_.loadLatency;
          case UopKind::Store: return 1;
          case UopKind::Branch: return 1;
          default:
            rtoc_panic("in-order core '%s': non-scalar uop %s",
                       cfg_.name.c_str(), isa::uopName(k));
        }
    };

    auto is_fp = [](UopKind k) {
        return k == UopKind::FpAdd || k == UopKind::FpMul ||
               k == UopKind::FpFma || k == UopKind::FpDiv ||
               k == UopKind::FpMinMax || k == UopKind::FpAbs ||
               k == UopKind::FpCmp;
    };
    auto is_mem = [](UopKind k) {
        return k == UopKind::Load || k == UopKind::Store;
    };

    for (size_t i = 0; i < n; ++i) {
        const Uop u = prog.uop(i);

        if (!isa::isScalar(u.kind)) {
            // Frontend presents the coprocessor instruction: it costs
            // one issue slot, then the coprocessor decides when the
            // frontend may continue (back-pressure, fences).
            while (slots >= cfg_.issueWidth)
                advance_to(cycle + 1);
            // Scalar operand of the coprocessor op must be ready
            // (e.g. vfmacc.vf reads a scalar f-register).
            uint64_t ready = std::max(
                {sregs.readyTime(isa::Program::isVReg(u.src0)
                                     ? isa::kNoReg : u.src0),
                 sregs.readyTime(isa::Program::isVReg(u.src1)
                                     ? isa::kNoReg : u.src1),
                 sregs.readyTime(isa::Program::isVReg(u.src2)
                                     ? isa::kNoReg : u.src2)});
            if (ready > cycle) {
                stall_data += ready - cycle;
                advance_to(ready);
            }
            ++slots;
            auto [release, done] = coproc(u, cycle, sregs, vregs);
            finish[i] = done;
            if (release > cycle)
                advance_to(release);
            continue;
        }

        uint64_t ready =
            std::max({sregs.readyTime(u.src0), sregs.readyTime(u.src1),
                      sregs.readyTime(u.src2)});
        if (ready > cycle) {
            stall_data += ready - cycle;
            advance_to(ready);
        }
        while (slots >= cfg_.issueWidth ||
               (is_fp(u.kind) && fp_used >= cfg_.fpuCount) ||
               (is_mem(u.kind) && mem_used >= cfg_.memPorts)) {
            ++stall_struct;
            advance_to(cycle + 1);
        }
        ++slots;
        if (is_fp(u.kind))
            ++fp_used;
        if (is_mem(u.kind))
            ++mem_used;

        uint64_t done = cycle + static_cast<uint64_t>(latency_of(u));
        finish[i] = done;
        sregs.setReady(u.dst, done);

        if (u.kind == UopKind::Branch && u.taken)
            advance_to(cycle + 1 + static_cast<uint64_t>(cfg_.branchBubble));
    }

    uint64_t total = cycle;
    for (uint64_t f : finish)
        total = std::max(total, f);

    result.cycles = total;
    result.regionCycles = attributeRegions(prog, finish);
    result.stats.set(inorder_detail::statIds().uops, n);
    result.stats.set(inorder_detail::statIds().stall_data, stall_data);
    result.stats.set(inorder_detail::statIds().stall_struct, stall_struct);
    return result;
}

} // namespace rtoc::cpu

#endif // RTOC_CPU_INORDER_IMPL_HH
