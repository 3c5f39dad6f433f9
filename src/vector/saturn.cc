#include "saturn.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "common/ring_fifo.hh"

namespace rtoc::vector {

namespace {

/** Interned stat ids (one-time; per-run sets index by id). */
struct SaturnIds
{
    StatId vinstrs = internStat("vector_instrs");
    StatId stall_vq = internStat("stall_vq_full");
};

const SaturnIds &
saturnIds()
{
    static const SaturnIds ids;
    return ids;
}

} // namespace

SaturnConfig
SaturnConfig::make(int vlen, int dlen, bool shuttle_frontend)
{
    SaturnConfig c;
    c.vlen = vlen;
    c.dlen = dlen;
    c.frontend = shuttle_frontend ? cpu::InOrderConfig::shuttle()
                                  : cpu::InOrderConfig::rocket();
    c.name = "saturn-v" + std::to_string(vlen) + "d" +
             std::to_string(dlen) + "-" + c.frontend.name;
    return c;
}

namespace {

/** Mutable vector-unit state threaded through the frontend loop. */
struct VectorUnitState
{
    uint64_t vxuFree = 0; ///< arithmetic pipe next-free cycle
    uint64_t vluFree = 0; ///< load pipe
    uint64_t vsuFree = 0; ///< store pipe
    RingFifo inFlight;             ///< completion times, FIFO
    cpu::RegReadyFile chainReady;  ///< first-element availability
    uint64_t vinstrs = 0;
    uint64_t stallQueueFull = 0;

    /** Rearm for a new run; buffers keep their capacity. */
    void
    reset()
    {
        vxuFree = vluFree = vsuFree = 0;
        inFlight.clear();
        chainReady.reset();
        vinstrs = 0;
        stallQueueFull = 0;
    }
};

/**
 * The Saturn vector unit behind the in-order engine, for N lanes (0:
 * sized at run time). Each lane keeps the next-free cycle of its
 * arithmetic, load and store pipes, its in-flight queue and its
 * chaining file. One call prices one vector uop in every lane: the kind
 * switch and the operand rows are resolved once, the per-lane work runs
 * in lane loops over contiguous rows. The cost rules are those of the
 * AoS coproc in runAos, which the tests hold every lane to.
 */
template <size_t N>
class SaturnUnit
{
  public:
    SaturnUnit(const isa::UopStreamView &v, const SaturnConfig *const *cfgs,
               size_t lanes)
        : L_(N ? N : lanes), name_(cfgs[0]->name.c_str()),
          nvreg_(v.program->vectorRegCount()), pipe_lat_(L_),
          chain_lat_(L_), mem_lat_(L_), sm_lat_(L_), dlen_(L_), vlen_(L_),
          dlen_shift_(L_), dlen_pow2_(L_), vxu_free_(L_), vlu_free_(L_),
          vsu_free_(L_),
          queue_(L_, [cfgs](size_t l) { return cfgs[l]->vqDepth; }),
          beats_(L_), start_(L_)
    {
        for (size_t l = 0; l < L_; ++l) {
            const SaturnConfig &c = *cfgs[l];
            pipe_lat_[l] = static_cast<uint64_t>(c.pipeLat);
            chain_lat_[l] = static_cast<uint64_t>(c.chainLat);
            mem_lat_[l] = static_cast<uint64_t>(c.memLat);
            sm_lat_[l] = static_cast<uint64_t>(c.scalarMoveLat);
            dlen_[l] = static_cast<uint64_t>(c.dlen);
            vlen_[l] = static_cast<uint64_t>(c.vlen);
            // Datapath widths are powers of two on every real
            // configuration: the beat count's ceil-divide is then a
            // shift (a non-power-of-two width keeps the division).
            dlen_pow2_[l] = (dlen_[l] & (dlen_[l] - 1)) == 0;
            dlen_shift_[l] = __builtin_ctzll(dlen_[l]);
        }
        // Chaining rows, then the zero and sink rows (LaneRegFiles),
        // uninitialized but for the rows of vector registers read
        // unwritten and the zero row: the chaining file is written
        // with the vector file, so every other row is written first.
        chain_.reset(new uint64_t[(static_cast<size_t>(nvreg_) + 2) * L_]);
        for (uint32_t reg : v.program->unwrittenReads()) {
            if (isa::Program::isVReg(reg) && (reg & 0x7fffffffu) < nvreg_)
                std::fill_n(chainRowW(reg), L_, uint64_t{0});
        }
        std::fill_n(chain_.get() + static_cast<size_t>(nvreg_) * L_, L_,
                    uint64_t{0});
    }

    void
    operator()(const isa::UopStreamView &v, size_t i,
               const uint64_t *present, uint64_t *release, uint64_t *done,
               const cpu::LaneRegFiles &rf)
    {
        using isa::UopKind;
        const size_t L = N ? N : L_;
        const UopKind kind = v.kind[i];
        const uint32_t dst = v.dst[i];

        if (kind == UopKind::VSetVl) {
            // Decode-stage handling with a short interlock before the
            // new VL takes effect for the following vector ops.
            uint64_t *sd = rf.srowW(dst);
            for (size_t l = 0; l < L; ++l) {
                sd[l] = present[l] + 2;
                release[l] = present[l] + 1;
                done[l] = present[l] + 2;
            }
            return;
        }

        const uint32_t src0 = v.src0[i];
        const uint32_t src1 = v.src1[i];
        const uint32_t src2 = v.src2[i];
        const bool v0 = isa::Program::isVReg(src0);
        const bool v1 = isa::Program::isVReg(src1);
        const bool v2 = isa::Program::isVReg(src2);
        const uint64_t *zero = rf.zero_row;
        const uint64_t *c0 = v0 ? chainRow(src0) : zero;
        const uint64_t *c1 = v1 ? chainRow(src1) : zero;
        const uint64_t *c2 = v2 ? chainRow(src2) : zero;

        // Queue back-pressure: the frontend blocks while the unit
        // already holds vqDepth undrained instructions. Then chaining:
        // wait for the first elements of the vector operands.
        for (size_t l = 0; l < L; ++l) {
            release[l] = queue_.admit(l, present[l]);
            start_[l] = std::max(std::max(release[l], c0[l]),
                                 std::max(c1[l], c2[l]));
        }

        // Beats: a grouped instruction sequences the whole register
        // group, an ungrouped one only the live elements. VMove never
        // sequences beats.
        const uint16_t lmul8 = v.lmul8[i];
        if (kind != UopKind::VMove) {
            const uint64_t live_bits = static_cast<uint64_t>(v.vl[i]) *
                                       static_cast<uint64_t>(v.sew[i]);
            for (size_t l = 0; l < L; ++l) {
                const uint64_t bits =
                    lmul8 > 8 ? static_cast<uint64_t>(lmul8) * vlen_[l] / 8
                              : live_bits;
                const uint64_t x = bits + dlen_[l] - 1;
                beats_[l] = std::max<uint64_t>(
                    1, dlen_pow2_[l] ? x >> dlen_shift_[l] : x / dlen_[l]);
            }
        }

        switch (kind) {
          case UopKind::VLoad:
          case UopKind::VLoadStrided: {
            uint64_t *ch_d = chainRowW(dst);
            uint64_t *vr_d = rf.vrowW(dst);
            const bool strided = kind == UopKind::VLoadStrided;
            // A strided load moves one element per cycle.
            const uint64_t strided_occ = std::max<uint64_t>(v.vl[i], 1);
            for (size_t l = 0; l < L; ++l) {
                const uint64_t start = std::max(start_[l], vlu_free_[l]);
                const uint64_t occ = strided ? strided_occ : beats_[l];
                vlu_free_[l] = start + occ;
                ch_d[l] = start + mem_lat_[l] + 1;
                done[l] = vr_d[l] = start + mem_lat_[l] + occ;
            }
            break;
          }
          case UopKind::VStore: {
            // Stores need full operand data, not just the head.
            const uint64_t *r0 = v0 ? rf.vrow(src0) : zero;
            const uint64_t *r1 = v1 ? rf.vrow(src1) : zero;
            for (size_t l = 0; l < L; ++l) {
                const uint64_t start = std::max(
                    std::max(start_[l], vsu_free_[l]),
                    std::max(r0[l], r1[l]));
                vsu_free_[l] = start + beats_[l];
                done[l] = start + beats_[l] + 1;
            }
            break;
          }
          case UopKind::VArith:
          case UopKind::VFma: {
            uint64_t *ch_d = chainRowW(dst);
            uint64_t *vr_d = rf.vrowW(dst);
            for (size_t l = 0; l < L; ++l) {
                const uint64_t start = std::max(start_[l], vxu_free_[l]);
                vxu_free_[l] = start + beats_[l];
                ch_d[l] = start + pipe_lat_[l] + chain_lat_[l];
                done[l] = vr_d[l] = start + pipe_lat_[l] + beats_[l];
            }
            break;
          }
          case UopKind::VRed: {
            // Reductions cannot chain out: full tree latency. Ordered
            // FP reductions are slow on short-vector machines: a
            // multi-pass lane tree plus pipeline drain.
            const uint64_t *r0 = v0 ? rf.vrow(src0) : zero;
            const uint64_t *r1 = v1 ? rf.vrow(src1) : zero;
            uint64_t *sd = rf.srowW(dst);
            constexpr uint64_t tree = 12;
            for (size_t l = 0; l < L; ++l) {
                const uint64_t start = std::max(
                    std::max(start_[l], vxu_free_[l]),
                    std::max(r0[l], r1[l]));
                vxu_free_[l] = start + beats_[l] + tree;
                done[l] = sd[l] = start + pipe_lat_[l] + beats_[l] + tree +
                                  sm_lat_[l];
            }
            break;
          }
          case UopKind::VMove: {
            // vfmv.f.s: scalar destination, waits for the full vreg.
            const uint64_t *r0 = v0 ? rf.vrow(src0) : zero;
            const bool vdst = isa::Program::isVReg(dst);
            uint64_t *d0 = vdst ? rf.vrowW(dst) : rf.srowW(dst);
            uint64_t *d1 = chainRowW(vdst ? dst : isa::kNoReg);
            for (size_t l = 0; l < L; ++l)
                done[l] = d0[l] = d1[l] =
                    std::max(start_[l], r0[l]) + sm_lat_[l];
            break;
          }
          default:
            rtoc_panic("saturn '%s': unsupported coprocessor uop %s",
                       name_, isa::uopName(kind));
        }

        for (size_t l = 0; l < L; ++l)
            queue_.push(l, done[l]);
        ++vinstrs_;
    }

    /** Add the unit's counters to the lanes' results. */
    void
    addStats(cpu::TimingResult *out) const
    {
        for (size_t l = 0; l < L_; ++l) {
            out[l].stats.set(saturnIds().vinstrs, vinstrs_);
            out[l].stats.set(saturnIds().stall_vq, queue_.stall(l));
        }
    }

  private:
    /** Chaining row of vector register @p reg (zero row if unset). */
    const uint64_t *
    chainRow(uint32_t reg) const
    {
        const uint32_t idx = reg & 0x7fffffffu;
        const size_t row = idx < nvreg_ ? idx : nvreg_;
        return chain_.get() + row * (N ? N : L_);
    }

    /** Writable chaining row of @p reg (the sink row for kNoReg). */
    uint64_t *
    chainRowW(uint32_t reg)
    {
        const uint32_t idx = reg & 0x7fffffffu;
        const size_t row = idx < nvreg_ ? idx : nvreg_ + 1;
        return chain_.get() + row * (N ? N : L_);
    }

    const size_t L_;
    const char *name_;
    const uint32_t nvreg_;
    cpu::LaneArray<uint64_t, N> pipe_lat_, chain_lat_, mem_lat_, sm_lat_,
        dlen_, vlen_, dlen_shift_, dlen_pow2_;
    cpu::LaneArray<uint64_t, N> vxu_free_, vlu_free_, vsu_free_;
    cpu::LaneQueues<N> queue_; ///< in-flight vector instructions
    /** Chaining file: first-element availability per vector register. */
    std::unique_ptr<uint64_t[]> chain_;
    cpu::LaneArray<uint64_t, N> beats_, start_; ///< per-uop scratch
    uint64_t vinstrs_ = 0; ///< lane-invariant: every lane sees each op
};

/** Replay @p v on the Saturn models @p cfgs[0 .. lanes). */
template <size_t N>
void
replaySaturn(const isa::UopStreamView &v, const SaturnConfig *const *cfgs,
             size_t lanes, cpu::TimingResult *out)
{
    if (!v.program)
        rtoc_panic("saturn replay: view has no owning program");
    std::vector<const cpu::InOrderConfig *> frontends(lanes);
    for (size_t l = 0; l < lanes; ++l)
        frontends[l] = &cfgs[l]->frontend;
    SaturnUnit<N> unit(v, cfgs, lanes);
    cpu::replayInOrder<N>(v, frontends.data(), lanes, unit, out);
    unit.addStats(out);
}

} // namespace

SaturnModel::SaturnModel(SaturnConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.dlen < 1 || cfg_.vqDepth < 1) {
        rtoc_panic("saturn '%s': dlen and vqDepth must be >= 1",
                   cfg_.name.c_str());
    }
    cfg_.frontend.check();
}

void
SaturnModel::runLanes(const isa::UopStreamView &view,
                      const cpu::TimingModel *const *models, size_t n,
                      cpu::TimingResult *out) const
{
    std::vector<const SaturnConfig *> cfgs(n);
    for (size_t l = 0; l < n; ++l)
        cfgs[l] = &static_cast<const SaturnModel *>(models[l])->cfg_;
    if (n == 1)
        replaySaturn<1>(view, cfgs.data(), 1, out);
    else
        replaySaturn<0>(view, cfgs.data(), n, out);
}

std::string
SaturnModel::cacheKey() const
{
    return csprintf("saturn:%s:v%d:d%d:vq%d:pl%d:cl%d:ml%d:sm%d|%s",
                    cfg_.name.c_str(), cfg_.vlen, cfg_.dlen,
                    cfg_.vqDepth, cfg_.pipeLat, cfg_.chainLat,
                    cfg_.memLat, cfg_.scalarMoveLat,
                    cpu::InOrderCore(cfg_.frontend).cacheKey().c_str());
}

cpu::TimingResult
SaturnModel::runAos(const isa::Program &prog) const
{
    using isa::Uop;
    using isa::UopKind;

    static thread_local VectorUnitState st;
    st.reset();
    cpu::InOrderCore frontend(cfg_.frontend);

    auto beats_of = [&](const Uop &u) -> uint64_t {
        // A grouped instruction sequences the whole register group;
        // an ungrouped one only the live elements.
        uint64_t dlen = static_cast<uint64_t>(cfg_.dlen);
        if (u.lmul8 > 8) {
            uint64_t group_bits = static_cast<uint64_t>(u.lmul8) *
                                  static_cast<uint64_t>(cfg_.vlen) / 8;
            return std::max<uint64_t>(1, (group_bits + dlen - 1) / dlen);
        }
        uint64_t live_bits =
            static_cast<uint64_t>(u.vl) * static_cast<uint64_t>(u.sew);
        return std::max<uint64_t>(1, (live_bits + dlen - 1) / dlen);
    };

    auto coproc = [&](const Uop &u, uint64_t present,
                      cpu::RegReadyFile &sregs, cpu::RegReadyFile &vregs)
        -> std::pair<uint64_t, uint64_t> {
        uint64_t release = present;

        if (u.kind == UopKind::VSetVl) {
            // Decode-stage handling with a short interlock before the
            // new VL takes effect for the following vector ops.
            sregs.setReady(u.dst, present + 2);
            return {present + 1, present + 2};
        }

        // Queue back-pressure: frontend blocks when the vector unit
        // already holds vqDepth undrained instructions.
        while (!st.inFlight.empty() && st.inFlight.front() <= present)
            st.inFlight.popFront();
        if (static_cast<int>(st.inFlight.size()) >= cfg_.vqDepth) {
            uint64_t drain = st.inFlight.front();
            st.stallQueueFull += drain - present;
            release = drain;
            st.inFlight.popFront();
        }

        uint64_t start = std::max(present, release);
        // Chaining: wait for the first elements of vector operands.
        for (uint32_t src : {u.src0, u.src1, u.src2}) {
            if (src != isa::kNoReg && isa::Program::isVReg(src))
                start = std::max(start, st.chainReady.readyTime(src));
        }

        uint64_t beats = beats_of(u);
        uint64_t completion = 0;

        switch (u.kind) {
          case UopKind::VLoad:
          case UopKind::VLoadStrided: {
            start = std::max(start, st.vluFree);
            uint64_t lat = static_cast<uint64_t>(cfg_.memLat);
            uint64_t occ = u.kind == UopKind::VLoadStrided
                               ? std::max<uint64_t>(u.vl, 1) // 1 elem/cyc
                               : beats;
            st.vluFree = start + occ;
            completion = start + lat + occ;
            st.chainReady.setReady(u.dst, start + lat + 1);
            vregs.setReady(u.dst, completion);
            break;
          }
          case UopKind::VStore: {
            start = std::max(start, st.vsuFree);
            // Stores need full operand data, not just the head.
            for (uint32_t src : {u.src0, u.src1}) {
                if (src != isa::kNoReg && isa::Program::isVReg(src))
                    start = std::max(start, vregs.readyTime(src));
            }
            st.vsuFree = start + beats;
            completion = start + beats + 1;
            break;
          }
          case UopKind::VArith:
          case UopKind::VFma: {
            start = std::max(start, st.vxuFree);
            st.vxuFree = start + beats;
            completion =
                start + static_cast<uint64_t>(cfg_.pipeLat) + beats;
            st.chainReady.setReady(u.dst,
                                   start + cfg_.pipeLat + cfg_.chainLat);
            vregs.setReady(u.dst, completion);
            break;
          }
          case UopKind::VRed: {
            start = std::max(start, st.vxuFree);
            // Reductions cannot chain out: full tree latency.
            for (uint32_t src : {u.src0, u.src1}) {
                if (src != isa::kNoReg && isa::Program::isVReg(src))
                    start = std::max(start, vregs.readyTime(src));
            }
            // Ordered FP reductions are slow on short-vector
            // machines: a multi-pass lane tree plus pipeline drain.
            uint64_t tree = 12;
            st.vxuFree = start + beats + tree;
            completion = start + cfg_.pipeLat + beats + tree +
                         static_cast<uint64_t>(cfg_.scalarMoveLat);
            sregs.setReady(u.dst, completion);
            break;
          }
          case UopKind::VMove: {
            // vfmv.f.s: scalar destination, waits for full vreg.
            uint64_t src_ready = 0;
            if (u.src0 != isa::kNoReg && isa::Program::isVReg(u.src0))
                src_ready = vregs.readyTime(u.src0);
            start = std::max(start, src_ready);
            completion =
                start + static_cast<uint64_t>(cfg_.scalarMoveLat);
            if (isa::Program::isVReg(u.dst)) {
                vregs.setReady(u.dst, completion);
                st.chainReady.setReady(u.dst, completion);
            } else {
                sregs.setReady(u.dst, completion);
            }
            break;
          }
          default:
            rtoc_panic("saturn '%s': unsupported coprocessor uop %s",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        }

        st.inFlight.pushBack(completion);
        ++st.vinstrs;
        return {release, completion};
    };

    cpu::TimingResult result = frontend.runWithCoproc(prog, coproc);
    result.stats.set(saturnIds().vinstrs, st.vinstrs);
    result.stats.set(saturnIds().stall_vq, st.stallQueueFull);
    return result;
}

} // namespace rtoc::vector
