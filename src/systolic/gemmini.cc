#include "gemmini.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/ring_fifo.hh"

namespace rtoc::systolic {

namespace {

/** Interned stat ids (one-time; per-run sets index by id). */
struct GemminiIds
{
    StatId cmds = internStat("rocc_cmds");
    StatId fences = internStat("rocc_fences");
    StatId fence_stall = internStat("fence_stall_cycles");
    StatId stall_rob = internStat("stall_rob_full");
};

const GemminiIds &
gemminiIds()
{
    static const GemminiIds ids;
    return ids;
}

} // namespace

GemminiConfig
GemminiConfig::os4x4(int spad_kb)
{
    GemminiConfig c;
    c.meshDim = 4;
    c.dataflow = Dataflow::OutputStationary;
    c.spadKb = spad_kb;
    c.accKb = 0;
    c.name = "gemmini-os4x4-spad" + std::to_string(spad_kb) + "k";
    return c;
}

GemminiConfig
GemminiConfig::ws4x4(int spad_kb)
{
    GemminiConfig c;
    c.meshDim = 4;
    c.dataflow = Dataflow::WeightStationary;
    c.spadKb = spad_kb;
    c.accKb = 1;
    c.name = "gemmini-ws4x4-spad" + std::to_string(spad_kb) + "k";
    return c;
}

GemminiConfig
GemminiConfig::os4x4HwGemv(int spad_kb)
{
    GemminiConfig c = os4x4(spad_kb);
    c.hardwareGemv = true;
    c.name = "gemmini-os4x4hwgemv-spad" + std::to_string(spad_kb) + "k";
    return c;
}

namespace {

/** Accelerator-side state threaded through the frontend loop. */
struct AccelState
{
    uint64_t lastCompletion = 0;   ///< in-order execution tail
    RingFifo inFlight;             ///< per-command completion times
    bool mvoutSinceFence = false;  ///< store pending -> fence penalty
    uint64_t cmds = 0;
    uint64_t fences = 0;
    uint64_t fenceStall = 0;
    uint64_t stallQueueFull = 0;

    /** Rearm for a new run; the ring keeps its capacity. */
    void
    reset()
    {
        lastCompletion = 0;
        inFlight.clear();
        mvoutSinceFence = false;
        cmds = 0;
        fences = 0;
        fenceStall = 0;
        stallQueueFull = 0;
    }
};

/**
 * The Gemmini accelerator behind the in-order engine, for N lanes (0:
 * sized at run time). Each lane keeps its in-order execution tail, its
 * command queue (ROB) and whether an mvout is pending a fence. One call
 * prices one RoCC command in every lane: the kind switch and the
 * command's fields are read once, the per-lane work runs in lane loops.
 * The cost rules are those of the AoS coproc in runAos, which the tests
 * hold every lane to.
 */
template <size_t N>
class GemminiUnit
{
  public:
    GemminiUnit(const GemminiConfig *const *cfgs, size_t lanes)
        : L_(N ? N : lanes), name_(cfgs[0]->name.c_str()), issue_lat_(L_),
          config_lat_(L_), dma_fixed_(L_), mesh_dim_(L_), bus_(L_),
          bus_shift_(L_), bus_pow2_(L_), hw_gemv_(L_), fence_base_(L_),
          fence_mem_(L_), last_comp_(L_), fence_stall_(L_),
          mvout_pending_(L_),
          queue_(L_, [cfgs](size_t l) { return cfgs[l]->robDepth; }),
          lat_(L_)
    {
        for (size_t l = 0; l < L_; ++l) {
            const GemminiConfig &c = *cfgs[l];
            issue_lat_[l] = static_cast<uint64_t>(c.issueLat);
            config_lat_[l] = static_cast<uint64_t>(c.configLat);
            dma_fixed_[l] = static_cast<uint64_t>(c.dmaFixed);
            mesh_dim_[l] = static_cast<uint64_t>(c.meshDim);
            bus_[l] = static_cast<uint64_t>(c.busBytes);
            // The DMA bus width is a power of two on every real
            // configuration: the ceil-divide is then a shift (a
            // non-power-of-two width keeps the division).
            bus_pow2_[l] = (bus_[l] & (bus_[l] - 1)) == 0;
            bus_shift_[l] = __builtin_ctzll(bus_[l]);
            hw_gemv_[l] = c.hardwareGemv;
            fence_base_[l] = static_cast<uint64_t>(c.fenceBase);
            fence_mem_[l] = static_cast<uint64_t>(c.fenceMemPenalty);
        }
    }

    void
    operator()(const isa::UopStreamView &v, size_t i,
               const uint64_t *present, uint64_t *release, uint64_t *done,
               const cpu::LaneRegFiles &)
    {
        using isa::UopKind;
        const size_t L = N ? N : L_;
        const UopKind kind = v.kind[i];

        if (kind == UopKind::RoccFence) {
            // The frontend blocks until the accelerator drains; with an
            // mvout outstanding the memory system must also be ordered,
            // costing the paper's measured several-hundred-cycle stall.
            for (size_t l = 0; l < L; ++l) {
                uint64_t d = std::max(present[l], last_comp_[l]) +
                             fence_base_[l];
                if (mvout_pending_[l])
                    d += fence_mem_[l];
                mvout_pending_[l] = 0;
                queue_.clear(l);
                fence_stall_[l] += d - present[l];
                release[l] = d;
                done[l] = d;
            }
            ++fences_;
            return;
        }

        switch (kind) {
          case UopKind::RoccConfig:
            for (size_t l = 0; l < L; ++l)
                lat_[l] = config_lat_[l];
            break;
          case UopKind::RoccMvin:
          case UopKind::RoccMvout: {
            // A column vector moves one 4-byte scratchpad entry per
            // cycle (§4.2.4 inefficiency): one element at fp32, two at
            // 16-bit formats. The hardware-GEMV extension packs vectors
            // across rows and moves them at full bandwidth instead.
            const uint16_t rows = v.rows[i];
            const uint64_t bytes = v.bytes[i];
            const bool colvec = v.cols[i] == 1 && rows > 1;
            // Pool window > 1 adds a comparator pass per output row.
            const uint64_t pool =
                kind == UopKind::RoccMvout && v.taken[i] ? rows : 0;
            for (size_t l = 0; l < L; ++l) {
                const uint64_t x = bytes + bus_[l] - 1;
                const uint64_t move =
                    colvec && !hw_gemv_[l]
                        ? (bytes + 3) / 4
                        : bus_pow2_[l] ? x >> bus_shift_[l] : x / bus_[l];
                lat_[l] = dma_fixed_[l] + move + pool;
            }
            break;
          }
          case UopKind::RoccPreload:
            for (size_t l = 0; l < L; ++l)
                lat_[l] = mesh_dim_[l];
            break;
          case UopKind::RoccCompute: {
            // Physical rows flow through a meshDim-deep pipeline: a
            // narrow tile packs 32/sew elements per fp32 PE, so a
            // sew-bit tile of r rows occupies ceil(r*sew/32) physical
            // rows (exactly r at sew=32).
            const uint64_t prows =
                (static_cast<uint64_t>(v.rows[i]) * v.sew[i] + 31) / 32;
            for (size_t l = 0; l < L; ++l)
                lat_[l] = prows + 2 * mesh_dim_[l];
            break;
          }
          default:
            rtoc_panic("gemmini '%s': unsupported uop %s", name_,
                       isa::uopName(kind));
        }

        // Command-queue back-pressure, then in-order execution.
        for (size_t l = 0; l < L; ++l) {
            release[l] = queue_.admit(l, present[l]);
            const uint64_t start =
                std::max(release[l] + issue_lat_[l], last_comp_[l]);
            done[l] = last_comp_[l] = start + lat_[l];
            queue_.push(l, done[l]);
        }
        ++cmds_;
        if (kind == UopKind::RoccMvout)
            for (size_t l = 0; l < L; ++l)
                mvout_pending_[l] = 1;
    }

    /** Add the unit's counters to the lanes' results. */
    void
    addStats(cpu::TimingResult *out) const
    {
        for (size_t l = 0; l < L_; ++l) {
            out[l].stats.set(gemminiIds().cmds, cmds_);
            out[l].stats.set(gemminiIds().fences, fences_);
            out[l].stats.set(gemminiIds().fence_stall, fence_stall_[l]);
            out[l].stats.set(gemminiIds().stall_rob, queue_.stall(l));
        }
    }

  private:
    const size_t L_;
    const char *name_;
    cpu::LaneArray<uint64_t, N> issue_lat_, config_lat_, dma_fixed_,
        mesh_dim_, bus_, bus_shift_, bus_pow2_, hw_gemv_, fence_base_,
        fence_mem_;
    cpu::LaneArray<uint64_t, N> last_comp_, fence_stall_, mvout_pending_;
    cpu::LaneQueues<N> queue_; ///< queued RoCC commands (the ROB)
    cpu::LaneArray<uint64_t, N> lat_; ///< per-command scratch
    uint64_t cmds_ = 0, fences_ = 0;  ///< lane-invariant counts
};

/** Replay @p v on the Gemmini models @p cfgs[0 .. lanes). */
template <size_t N>
void
replayGemmini(const isa::UopStreamView &v, const GemminiConfig *const *cfgs,
              size_t lanes, cpu::TimingResult *out)
{
    std::vector<const cpu::InOrderConfig *> frontends(lanes);
    for (size_t l = 0; l < lanes; ++l)
        frontends[l] = &cfgs[l]->frontend;
    GemminiUnit<N> unit(cfgs, lanes);
    cpu::replayInOrder<N>(v, frontends.data(), lanes, unit, out);
    unit.addStats(out);
}

} // namespace

GemminiModel::GemminiModel(GemminiConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.busBytes < 1 || cfg_.robDepth < 1) {
        rtoc_panic("gemmini '%s': busBytes and robDepth must be >= 1",
                   cfg_.name.c_str());
    }
    cfg_.frontend.check();
}

void
GemminiModel::runLanes(const isa::UopStreamView &view,
                       const cpu::TimingModel *const *models, size_t n,
                       cpu::TimingResult *out) const
{
    std::vector<const GemminiConfig *> cfgs(n);
    for (size_t l = 0; l < n; ++l)
        cfgs[l] = &static_cast<const GemminiModel *>(models[l])->cfg_;
    if (n == 1)
        replayGemmini<1>(view, cfgs.data(), 1, out);
    else
        replayGemmini<0>(view, cfgs.data(), n, out);
}

std::string
GemminiModel::cacheKey() const
{
    return csprintf(
        "gemmini:%s:m%d:df%d:spad%d:acc%d:rob%d:il%d:cl%d:dma%d:"
        "bus%d:fb%d:fmp%d:hwgemv%d|%s",
        cfg_.name.c_str(), cfg_.meshDim,
        static_cast<int>(cfg_.dataflow), cfg_.spadKb, cfg_.accKb,
        cfg_.robDepth, cfg_.issueLat, cfg_.configLat, cfg_.dmaFixed,
        cfg_.busBytes, cfg_.fenceBase, cfg_.fenceMemPenalty,
        cfg_.hardwareGemv ? 1 : 0,
        cpu::InOrderCore(cfg_.frontend).cacheKey().c_str());
}

cpu::TimingResult
GemminiModel::runAos(const isa::Program &prog) const
{
    using isa::Uop;
    using isa::UopKind;

    static thread_local AccelState st;
    st.reset();
    cpu::InOrderCore frontend(cfg_.frontend);

    auto exec_latency = [&](const Uop &u) -> uint64_t {
        switch (u.kind) {
          case UopKind::RoccConfig:
            return static_cast<uint64_t>(cfg_.configLat);
          case UopKind::RoccMvin:
          case UopKind::RoccMvout: {
            uint64_t move;
            if (u.cols == 1 && u.rows > 1 && !cfg_.hardwareGemv) {
                // Column vector: one scratchpad entry per cycle
                // (§4.2.4 inefficiency) — a 4-byte entry, so fp32
                // moves one element per cycle (bytes/4 == rows,
                // unchanged) while 16-bit formats pack two. The
                // hardware-GEMV extension packs vectors across rows
                // and moves them at full bandwidth instead.
                move = (static_cast<uint64_t>(u.bytes) + 3) / 4;
            } else {
                move = (static_cast<uint64_t>(u.bytes) +
                        cfg_.busBytes - 1) /
                       static_cast<uint64_t>(cfg_.busBytes);
            }
            // Pool window > 1 adds a comparator pass per output row.
            if (u.kind == UopKind::RoccMvout && u.taken)
                move += u.rows;
            return static_cast<uint64_t>(cfg_.dmaFixed) + move;
          }
          case UopKind::RoccPreload:
            return static_cast<uint64_t>(cfg_.meshDim);
          case UopKind::RoccCompute: {
            // Physical rows flow through a meshDim-deep pipeline: a
            // narrow tile packs 32/sew elements per fp32 PE, so a
            // sew-bit tile of r rows occupies ceil(r*sew/32) physical
            // rows. At sew=32 this is exactly r — unchanged.
            const uint64_t prows =
                (static_cast<uint64_t>(u.rows) * u.sew + 31) / 32;
            return prows + 2 * static_cast<uint64_t>(cfg_.meshDim);
          }
          default:
            rtoc_panic("gemmini '%s': unsupported uop %s",
                       cfg_.name.c_str(), isa::uopName(u.kind));
        }
    };

    auto coproc = [&](const Uop &u, uint64_t present,
                      cpu::RegReadyFile &sregs, cpu::RegReadyFile &vregs)
        -> std::pair<uint64_t, uint64_t> {
        (void)sregs;
        (void)vregs;
        uint64_t release = present;

        if (u.kind == UopKind::RoccFence) {
            // Frontend blocks until the accelerator drains; when an
            // mvout is outstanding the memory system must also be
            // ordered, costing the paper's measured several-hundred-
            // cycle stall.
            uint64_t done = std::max(present, st.lastCompletion) +
                            static_cast<uint64_t>(cfg_.fenceBase);
            if (st.mvoutSinceFence)
                done += static_cast<uint64_t>(cfg_.fenceMemPenalty);
            st.mvoutSinceFence = false;
            st.inFlight.clear();
            ++st.fences;
            st.fenceStall += done - present;
            return {done, done};
        }

        // Command-queue back-pressure.
        while (!st.inFlight.empty() && st.inFlight.front() <= present)
            st.inFlight.popFront();
        if (static_cast<int>(st.inFlight.size()) >= cfg_.robDepth) {
            uint64_t drain = st.inFlight.front();
            st.stallQueueFull += drain - present;
            release = drain;
            st.inFlight.popFront();
        }

        uint64_t start = std::max(std::max(present, release) +
                                      static_cast<uint64_t>(cfg_.issueLat),
                                  st.lastCompletion);
        uint64_t completion = start + exec_latency(u);
        st.lastCompletion = completion;
        st.inFlight.pushBack(completion);
        ++st.cmds;
        if (u.kind == UopKind::RoccMvout)
            st.mvoutSinceFence = true;
        return {release, completion};
    };

    cpu::TimingResult result = frontend.runWithCoproc(prog, coproc);
    result.stats.set(gemminiIds().cmds, st.cmds);
    result.stats.set(gemminiIds().fences, st.fences);
    result.stats.set(gemminiIds().fence_stall, st.fenceStall);
    result.stats.set(gemminiIds().stall_rob, st.stallQueueFull);
    return result;
}

} // namespace rtoc::systolic
