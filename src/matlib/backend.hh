/**
 * @file
 * Backend interface: functional compute plus micro-op emission.
 *
 * A Backend is handed to the TinyMPC solver (and to the code
 * generator). Each operation computes the reference float32 result
 * *and* appends the micro-op stream of its software mapping to the
 * attached Program. Passing a null Program turns a backend into a
 * pure functional library (used to cross-check results).
 *
 * Fusion scopes model §4.1.2: between beginFuse()/endFuse(), backends
 * that support register-resident temporaries (the RVV backend, and
 * the Gemmini backend's scratchpad residency) skip the store/load
 * round trips that separate library calls would require.
 */

#ifndef RTOC_MATLIB_BACKEND_HH
#define RTOC_MATLIB_BACKEND_HH

#include <string>

#include "isa/program.hh"
#include "matlib/fixed.hh"
#include "matlib/mat.hh"

namespace rtoc::matlib {

/** Abstract compute+emit backend. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Short name for tables. */
    virtual std::string name() const = 0;

    /**
     * Key identifying the emitted stream: every knob that changes the
     * micro-op sequence (flavor, vlen, mapping options, ...) must be
     * encoded here. Backends whose name() already captures the whole
     * configuration can rely on this default. Used by the
     * ProgramCache: two backends with equal cacheKey() emit
     * bit-identical streams for the same solve shape.
     */
    virtual std::string cacheKey() const
    {
        return name() + matlib::formatKeySuffix(fmt_);
    }

    /**
     * Attach/detach the emission target. The program inherits the
     * backend's element width: pushed uops carry the format's sew and
     * width-scaled byte counts, so narrow-format streams are distinct
     * (and distinctly priced) programs.
     */
    void
    setProgram(isa::Program *prog)
    {
        prog_ = prog;
        if (prog_)
            prog_->setEmitWidth(static_cast<uint16_t>(sewBits()));
    }
    isa::Program *program() const { return prog_; }

    // --- numeric-format axis (default F32: bit-identical baseline) ---

    /** Datapath element format of the MAC kernels. */
    NumericFormat format() const { return fmt_; }

    /** Select the datapath format (F32 restores the exact baseline). */
    void setFormat(NumericFormat f) { fmt_ = f; }

    /** Per-kernel fixed-point shift schedule (I16/I32 only). */
    void setFixedScaling(const fx::Scaling &s) { scaling_ = s; }
    const fx::Scaling &fixedScaling() const { return scaling_; }

    /** Element width in bits of emitted uops for this format. */
    int sewBits() const { return formatSewBits(fmt_); }

    /** Element width in bytes (payload/DMA sizing). */
    int elemBytes() const { return formatElemBytes(fmt_); }

    /** Saturation telemetry accumulated by the fx kernels. */
    const fx::Counters &fxCounters() const { return fxCounters_; }
    void resetFxCounters() { fxCounters_ = fx::Counters(); }

    /**
     * Quantized matrix operands of the fx kernels. Self-validating: a
     * refreshed matrix, a new scaling or a new format re-quantizes on
     * the next call without any invalidation by the caller.
     */
    const fx::OperandCache &fxCache() const { return fxCache_; }

    // --- operations (see ref:: for semantics) ---
    virtual void gemv(Mat y, const Mat &a, Mat x, float alpha = 1.0f,
                      float beta = 0.0f) = 0;
    virtual void gemvT(Mat y, const Mat &a, Mat x, float alpha = 1.0f,
                       float beta = 0.0f) = 0;
    virtual void gemm(Mat c, const Mat &a, const Mat &b) = 0;
    virtual void saxpby(Mat out, float sa, const Mat &a, float sb,
                        const Mat &b) = 0;
    virtual void scale(Mat out, const Mat &a, float s) = 0;
    virtual void accumDiff(Mat acc, const Mat &a, const Mat &b) = 0;
    virtual void axpyDiff(Mat acc, float s, const Mat &a,
                          const Mat &b) = 0;
    virtual void rowScaleNeg(Mat out, const Mat &a, const Mat &diag) = 0;
    virtual void clampVec(Mat out, const Mat &a, const Mat &lo,
                          const Mat &hi) = 0;
    virtual void clampConst(Mat out, const Mat &a, float lo,
                            float hi) = 0;
    virtual float absMaxDiff(const Mat &a, const Mat &b) = 0;
    virtual void copy(Mat out, const Mat &a) = 0;
    virtual void fill(Mat out, float s) = 0;

    /** Convenience wrappers expressed via the primitives above. */
    void add(Mat out, const Mat &a, const Mat &b)
    {
        saxpby(out, 1.0f, a, 1.0f, b);
    }
    void sub(Mat out, const Mat &a, const Mat &b)
    {
        saxpby(out, 1.0f, a, -1.0f, b);
    }

    /**
     * Fused gemv→saxpby pair (y = sa·(alpha·A x + beta·y) + sb·b),
     * the shape of the solver's forward/backward passes. While
     * emitting, this is EXACTLY the historical two-call sequence —
     * the micro-op stream (and every cache key derived from it) is
     * unchanged. On the non-emitting per-tick hot path it runs the
     * one-pass fused reference kernel, which is bit-identical to the
     * pair (see ref::gemvSaxpby).
     */
    void
    gemvSaxpby(Mat y, const Mat &a, Mat x, float alpha, float beta,
               float sa, float sb, const Mat &b)
    {
        if (emitting()) {
            gemv(y, a, x, alpha, beta);
            saxpby(y, sa, y, sb, b);
        } else if (fmt_ == NumericFormat::F32) {
            ref::gemvSaxpby(y, a, x, alpha, beta, sa, sb, b);
        } else {
            fx::gemvSaxpby(fmt_, scaling_, fxCounters_, fxCache_, y, a, x,
                           alpha, beta, sa, sb, b);
        }
    }

    /**
     * Whether the backend can *emit* the hand-optimized Fused mapping
     * structure (§4.1.2). Backends whose ISA cannot realize
     * register-resident per-step fusion (Gemmini's CISC/RoCC
     * constraints) return false, and the solver rejects Fused-style
     * emission on them with a fatal error.
     */
    virtual bool supportsFusedEmission() const { return true; }

    /** Open a fusion region (default: no effect). */
    virtual void beginFuse() {}

    /** Close a fusion region, writing back dirty temporaries. */
    virtual void endFuse() {}

    /** Make all results CPU-visible (Gemmini: fence; others: no-op). */
    virtual void sync() {}

  protected:
    /** True when emission is active. */
    bool emitting() const { return prog_ != nullptr; }

    /**
     * Format-dispatched MAC kernels for the concrete backends' compute
     * halves: exact ref:: float32 at the default, fx:: quantized
     * datapaths otherwise. Emission is unaffected — only the computed
     * values (and the saturation counters) change with the format.
     */
    void
    computeGemv(Mat y, const Mat &a, Mat x, float alpha, float beta)
    {
        if (fmt_ == NumericFormat::F32)
            ref::gemv(y, a, x, alpha, beta);
        else
            fx::gemv(fmt_, scaling_, fxCounters_, fxCache_, y, a, x, alpha,
                     beta);
    }

    void
    computeGemvT(Mat y, const Mat &a, Mat x, float alpha, float beta)
    {
        if (fmt_ == NumericFormat::F32)
            ref::gemvT(y, a, x, alpha, beta);
        else
            fx::gemvT(fmt_, scaling_, fxCounters_, fxCache_, y, a, x,
                      alpha, beta);
    }

    void
    computeSaxpby(Mat out, float sa, const Mat &a, float sb, const Mat &b)
    {
        if (fmt_ == NumericFormat::F32)
            ref::saxpby(out, sa, a, sb, b);
        else
            fx::saxpby(fmt_, scaling_, fxCounters_, out, sa, a, sb, b);
    }

    isa::Program *prog_ = nullptr;
    NumericFormat fmt_ = NumericFormat::F32;
    fx::Scaling scaling_;
    fx::Counters fxCounters_;
    fx::OperandCache fxCache_; ///< quantized gemv/gemvT matrices
};

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_BACKEND_HH
