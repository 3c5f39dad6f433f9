/**
 * @file
 * Gemmini backend: maps matlib operations onto RoCC command streams.
 *
 * Mapping knobs correspond to the optimizations of §4.2:
 *  - staticSchedule: addresses/tiling computed at compile time, so a
 *    RoCC command costs one immediate materialization instead of a
 *    run of shifts/ors/multiplies on the scalar core (§4.2.1, Fig. 6);
 *  - unroll: command loops software-unrolled (no per-command loop
 *    bookkeeping on the CPU);
 *  - fineGrained: individual mvin/preload/compute commands instead of
 *    CISC tiled-matmul macros; CISC pays multi-command configuration
 *    and forbids scratchpad-resident operands (§4.2.3);
 *  - spadResident: the whole TinyMPC workspace lives in scratchpad
 *    bank 0 with utility matrices (identity, -identity, rho-scaled
 *    identities); intermediate results are written to the scratchpad
 *    and reused without mvout/mvin round trips or fences (§4.2.4,
 *    Fig. 7/8);
 *  - useElementwise: abs/clip computed on the mesh via ReLU identities
 *    (Equations 1-3) and scalar multiples via preloaded s*I, instead
 *    of falling back to the CPU (§4.2.6);
 *  - usePooling: residual max-reductions use the max-pool engine on
 *    mvout, cutting the CPU-side reduction by the pool factor
 *    (§4.2.6).
 */

#ifndef RTOC_MATLIB_GEMMINI_BACKEND_HH
#define RTOC_MATLIB_GEMMINI_BACKEND_HH

#include <set>

#include "matlib/backend.hh"

namespace rtoc::matlib {

/** Software-mapping configuration for the Gemmini backend. */
struct GemminiMapping
{
    bool staticSchedule = false;
    bool unroll = false;
    bool fineGrained = true;
    bool spadResident = false;
    bool useElementwise = false;
    bool usePooling = false;
    int meshDim = 4;

    /** Naive dynamic mapping (library-style). */
    static GemminiMapping baseline();

    /** Static scheduling + unrolling (Fig. 6 end point). */
    static GemminiMapping staticMapped();

    /** Full §4.2 optimization stack (Fig. 12 "pool" series). */
    static GemminiMapping fullyOptimized();
};

/** Gemmini backend emitting RoCC command streams. */
class GemminiBackend : public Backend
{
  public:
    explicit GemminiBackend(GemminiMapping mapping);

    std::string name() const override;

    /**
     * Declare workspace buffers scratchpad-resident and emit the
     * one-time mvin of matrices + utility identities (solver setup).
     */
    void initResident(std::initializer_list<const Mat *> mats);

    /**
     * The Gemmini backend does not support MappingStyle::Fused
     * emission: CISC configuration overhead and the scratchpad
     * staging discipline make the hand-optimized per-step fusion
     * structure unrealizable on the RoCC command stream (ROADMAP open
     * item, resolved as an explicit rejection — the solver fatals
     * when asked to *emit* a Fused-style solve on this backend;
     * purely functional fused solves remain legal).
     */
    bool supportsFusedEmission() const override { return false; }

    const GemminiMapping &mapping() const { return mapping_; }

  protected:
    std::string mappingKey() const override;

    void emitGemv(Mat y, const Mat &a, Mat x, float alpha,
                  float beta) override;
    void emitGemvT(Mat y, const Mat &a, Mat x, float alpha,
                   float beta) override;
    void emitGemm(Mat c, const Mat &a, const Mat &b) override;
    void emitSaxpby(Mat out, float sa, const Mat &a, float sb,
                    const Mat &b) override;
    void emitScale(Mat out, const Mat &a, float s) override;
    void emitAccumDiff(Mat acc, const Mat &a, const Mat &b) override;
    void emitAxpyDiff(Mat acc, float s, const Mat &a,
                      const Mat &b) override;
    void emitRowScaleNeg(Mat out, const Mat &a, const Mat &diag) override;
    void emitClampVec(Mat out, const Mat &a, const Mat &lo,
                      const Mat &hi) override;
    void emitClampConst(Mat out, const Mat &a, float lo,
                        float hi) override;
    void emitAbsMaxDiff(const Mat &a, const Mat &b) override;
    void emitCopy(Mat out, const Mat &a) override;
    void emitFill(Mat out, float s) override;
    void emitSync() override;

  private:
    /** CPU-side cost of constructing one RoCC command. */
    void emitCmdConstruction();

    /** Loop bookkeeping between commands when not unrolled. */
    void emitLoopOverhead();

    /** Emit one RoCC command with construction cost. */
    void emitCmd(isa::UopKind kind, int rows, int cols, int bytes = 0,
                 bool pooled = false);

    /** Ensure operand @p m is in the scratchpad; mvin if not. */
    void stage(const Mat &m);

    /** Result handling: stays in scratchpad or mvout+fence. */
    void retire(const Mat &m);

    /** Number of mesh tiles covering r x c. */
    int tiles(int r, int c) const;

    /** Mesh dimension at the current element width: each fp32 PE
     *  processes two 16-bit lanes per cycle (real Gemmini runs narrow
     *  precisions at proportionally higher throughput), so 16-bit
     *  tiles cover twice the rows/cols. float32 (and int32) keep
     *  meshDim — and the emitted stream — exactly as before. */
    int effMeshDim() const { return mapping_.meshDim * 32 / sewBits(); }

    /** Elementwise mesh pass over @p n elements (ReLU/scale). */
    void emitMeshEwise(int n, int passes);

    /** CPU fallback elementwise (mvout, fence, scalar loop, mvin). */
    void emitCpuFallback(int n, int fp_per_elem);

    GemminiMapping mapping_;
    std::set<const float *> resident_;
    bool config_valid_ = false; ///< redundant-config elimination
    int last_cfg_rows_ = -1;
    int last_cfg_cols_ = -1;
};

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_GEMMINI_BACKEND_HH
