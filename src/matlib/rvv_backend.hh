/**
 * @file
 * RVV backend for Saturn-like vector machines.
 *
 * The mapping knobs correspond one-to-one to the optimizations of
 * §4.1:
 *  - lmul: register grouping (Fig. 4). Elementwise strips grow to
 *    lmul x VLEN/32 elements per instruction; short GEMV operands gain
 *    nothing and pay whole-group sequencing.
 *  - unroll: software loop unrolling of the GEMV column loop into two
 *    independent accumulator chains (§4.1.1's "aggressive software
 *    loop unrolling better exploits scalar variation").
 *  - fuse: operator fusion (§4.1.2). Inside beginFuse()/endFuse(),
 *    small vectors live in vector registers: repeated store/load round
 *    trips between library calls disappear.
 *  - transposedLayout: cache matrices stored column-contiguous so GEMV
 *    columns are unit-stride vloads instead of element-per-cycle
 *    strided loads (the data-layout optimization the paper applies in
 *    its hand-tuned kernels).
 */

#ifndef RTOC_MATLIB_RVV_BACKEND_HH
#define RTOC_MATLIB_RVV_BACKEND_HH

#include <cstdint>
#include <map>
#include <vector>

#include "matlib/backend.hh"

namespace rtoc::matlib {

/** Software-mapping configuration for the RVV backend. */
struct RvvMapping
{
    int lmul = 1;                 ///< register grouping (1,2,4,8)
    bool unroll = false;          ///< GEMV dual accumulator chains
    bool fuse = false;            ///< operator fusion across calls
    bool transposedLayout = false;///< column-contiguous cache matrices

    /** Out-of-box vectorized matlib (library mode). */
    static RvvMapping library(int lmul = 1);

    /** Final hand-optimized mapping. */
    static RvvMapping handOptimized(int lmul = 1);
};

/** RVV backend emitting Saturn vector instruction streams. */
class RvvBackend : public Backend
{
  public:
    /** @param vlen architectural VLEN in bits (for strip sizing). */
    RvvBackend(int vlen, RvvMapping mapping);

    std::string name() const override;

    const RvvMapping &mapping() const { return mapping_; }

    /** Reconfigure the mapping (used by the codegen emitter to apply
     *  per-statement schedule attributes). Must not be called inside
     *  an open fusion region with a different fuse setting. */
    void
    setMapping(const RvvMapping &m)
    {
        mapping_ = m;
    }

    /** Elements per strip for elementwise kernels: narrower elements
     *  pack more lanes into one vector register group. */
    int stripElems() const { return vlen_ / sewBits() * mapping_.lmul; }

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
    void emitBeginFuse() override;
    void emitEndFuse() override;

  private:
    struct FusedVec
    {
        uint32_t vreg = 0;
        int len = 0;
        bool dirty = false;
    };

    /** LMUL in eighths for emitted uops. */
    uint16_t lmul8() const
    {
        return static_cast<uint16_t>(8 * mapping_.lmul);
    }

    /** Emit vsetvli. */
    void emitVsetvl(int vl);

    /** Obtain a vreg holding vector @p v (load unless fused-resident).
     *  Vector must fit a single strip to be fusion-eligible. */
    uint32_t loadVec(const Mat &v);

    /** Bind @p vreg as the current value of @p v; stores immediately
     *  unless inside a fusion region. */
    void storeVec(const Mat &v, uint32_t vreg);

    /** Write back a fused vector if dirty (needed before scalar
     *  access to its memory, e.g. GEMV scalar-operand loads). */
    void flushVec(const float *key);

    /** Shared elementwise skeleton: emits strip loops calling
     *  @p emit_body(vl) per strip with loads/stores handled. */
    template <typename BodyFn>
    void ewise(const Mat &out, std::initializer_list<const Mat *> ins,
               BodyFn &&body);

    /** GEMV stream shared by gemv/gemvT/gemm. */
    void emitGemvStream(int m, int n, bool accumulate, bool scaled,
                        const float *y_key);

    /** Per-library-call overhead (argument setup + call). */
    void emitLibCallOverhead();

    int vlen_;
    RvvMapping mapping_;
    bool fusing_ = false;
    std::map<const float *, FusedVec> fused_;
    std::vector<const float *> fuse_order_; ///< insertion order
};

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_RVV_BACKEND_HH
