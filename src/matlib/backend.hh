/**
 * @file
 * Backend interface: functional compute plus micro-op emission.
 *
 * A Backend is handed to the TinyMPC solver (and to the code
 * generator). Each operation computes its result and, when a Program
 * is attached, appends the micro-op stream of the backend's software
 * mapping to it. With no Program a backend is a pure functional
 * library: the per-tick host solve.
 *
 * Compute once, emit in hooks. The operations are non-virtual and
 * compute in this class, the same way for every backend: the ref::
 * float32 kernels (packed:: for gemvT and for gemv operands that carry
 * a packed copy) at F32, and the fx:: kernels for gemv/gemvT/saxpby at
 * narrow formats. Only then, and only when a Program is attached, does
 * an operation call its protected emitX() hook. The concrete backends
 * implement nothing but those hooks, so a software mapping can change
 * timing, never values, and a host solve makes no virtual call. A hook
 * receives exactly the operation's operands and reads only their
 * shapes, addresses and scalar factors, never the float values, so the
 * order of compute and emission cannot change a stream.
 *
 * Fixed shapes: gemv, gemvSaxpby and gemvT are templates on the
 * matrix shape. gemv<M, N> runs packed::gemv<M, N>, whose trip counts
 * are compile-time constants, and the default <0, 0> takes the shape
 * from the operand. The shape selects only the kernel's code, never
 * its values or the emitted stream.
 *
 * Format dispatch: gemv and gemvSaxpby also take the Datapath they are
 * compiled for. The default, Dynamic, reads the backend's format on
 * every call: packed:: at F32, the out-of-line fx:: kernels at the
 * narrow formats. Bf16 compiles only fx::gemvBf16<M, N> and I16 only
 * fx::gemvI16<M, N>, inline; each computes the Dynamic call's values
 * and counters, and hands aliased operands to the out-of-line kernel.
 * The solver picks one instantiation of its passes per solve from the
 * format, so its host bf16 and int16 passes inline their kernels while
 * its f32 passes compile exactly as the Dynamic ones always have (see
 * Solver::solve). gemvT and the i32 format stay Dynamic.
 *
 * Narrow matrix operands: an fx:: kernel reads the quantized copy of
 * its matrix from the backend's OperandCache, looked up and checked on
 * every call, or, when the PackedMat operand carries one
 * (fxOperand), read as it is: Solver::solve checks each of its eight
 * matrix operands once per solve and passes them on that way.
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

/** The datapath a gemv call site is compiled for (see the file comment). */
enum class Datapath : uint8_t {
    Dynamic, ///< the backend's format, read at run time
    Bf16,    ///< bfloat16 only, inline (the backend must be BF16)
    I16,     ///< int16 only, inline (the backend must be I16)
};

/** Compute front plus emission hooks (see the file comment). */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Short name for tables. */
    virtual std::string name() const = 0;

    /**
     * Key identifying the emitted stream: mappingKey() plus the element
     * width, which is appended here and nowhere else ("|sew16"; nothing
     * at 32 bits). Two backends with equal cacheKey() emit bit-identical
     * streams for the same solve shape, so the ProgramCache, the
     * calibrations and the DSE cells key on it. The format is not part
     * of it: emission reads shapes and the width only, so i32 shares
     * the f32 streams and i16 the bf16 ones.
     */
    std::string
    cacheKey() const
    {
        const int sew = sewBits();
        return sew == 32 ? mappingKey()
                         : mappingKey() + "|sew" + std::to_string(sew);
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

    /** Saturation telemetry accumulated by the fx kernels. */
    const fx::Counters &fxCounters() const { return fxCounters_; }

    /**
     * Quantized matrix operands of the fx kernels. Self-validating: a
     * refreshed matrix, a new scaling or a new format re-quantizes on
     * the next call or solve without any invalidation by the caller.
     */
    const fx::OperandCache &fxCache() const { return fxCache_; }

    /**
     * The quantized copy of gemv operand @p a (gemvT's when
     * @p transposed) on this backend's narrow format and scaling,
     * looked up and checked now. A PackedMat carrying it in
     * @c quantized runs gemv, gemvSaxpby or gemvT without a lookup, so
     * the caller must not write @p a, nor change the format or the
     * scaling, while it passes the copy (Solver::solve resolves its
     * eight operands this way once per solve).
     */
    const fx::QuantizedMat &
    fxOperand(const Mat &a, bool transposed)
    {
        return fx::matrixOperand(fmt_, scaling_, fxCache_, a, transposed);
    }

    // --- operations (see ref:: for semantics) ---

    void
    gemv(Mat y, const Mat &a, Mat x, float alpha = 1.0f, float beta = 0.0f)
    {
        gemv(y, PackedMat{a}, x, alpha, beta);
    }

    /**
     * gemv whose operand may carry a packed copy (PackedMat). <M, N>
     * fixes A's shape for the inline kernels (packed::gemv<M, N>,
     * fx::gemvBf16<M, N>, fx::gemvI16<M, N>); the default <0, 0> takes
     * it from the operand. P is the datapath compiled in (see the file
     * comment).
     */
    template <int M = 0, int N = 0, Datapath P = Datapath::Dynamic>
    void
    gemv(Mat y, const PackedMat &a, Mat x, float alpha = 1.0f,
         float beta = 0.0f)
    {
        if constexpr (P == Datapath::Bf16) {
            rtoc_assert(fmt_ == NumericFormat::BF16);
            fx::gemvBf16<M, N>(fxCache_, y, a.mat, x, alpha, beta,
                               a.quantized);
        } else if constexpr (P == Datapath::I16) {
            rtoc_assert(fmt_ == NumericFormat::I16);
            fx::gemvI16<M, N>(scaling_, fxCounters_, fxCache_, y, a.mat, x,
                              alpha, beta, a.quantized);
        } else if (fmt_ == NumericFormat::F32) {
            packed::gemv<M, N>(y, a, x, alpha, beta);
        } else {
            fx::gemv(fmt_, scaling_, fxCounters_, fxCache_, y, a.mat, x,
                     alpha, beta, a.quantized);
        }
        if (prog_)
            emitGemv(y, a.mat, x, alpha, beta);
    }

    /** y = alpha·Aᵀ x + beta·y; <M, N> fixes A's shape as for gemv. */
    template <int M = 0, int N = 0>
    void
    gemvT(Mat y, const Mat &a, Mat x, float alpha = 1.0f, float beta = 0.0f)
    {
        gemvT<M, N>(y, PackedMat{a}, x, alpha, beta);
    }

    /**
     * gemvT over the row-major a.mat (it reads no packed copy), or at a
     * narrow format over a.quantized when set.
     */
    template <int M = 0, int N = 0>
    void
    gemvT(Mat y, const PackedMat &a, Mat x, float alpha = 1.0f,
          float beta = 0.0f)
    {
        if (fmt_ == NumericFormat::F32)
            packed::gemvT<M, N>(y, a.mat, x, alpha, beta);
        else
            fx::gemvT(fmt_, scaling_, fxCounters_, fxCache_, y, a.mat, x,
                      alpha, beta, a.quantized);
        if (prog_)
            emitGemvT(y, a.mat, x, alpha, beta);
    }

    void
    gemm(Mat c, const Mat &a, const Mat &b)
    {
        ref::gemm(c, a, b);
        if (prog_)
            emitGemm(c, a, b);
    }

    void
    saxpby(Mat out, float sa, const Mat &a, float sb, const Mat &b)
    {
        if (fmt_ == NumericFormat::F32)
            ref::saxpby(out, sa, a, sb, b);
        else
            fx::saxpby(fmt_, scaling_, fxCounters_, out, sa, a, sb, b);
        if (prog_)
            emitSaxpby(out, sa, a, sb, b);
    }

    void
    scale(Mat out, const Mat &a, float s)
    {
        ref::scale(out, a, s);
        if (prog_)
            emitScale(out, a, s);
    }

    void
    accumDiff(Mat acc, const Mat &a, const Mat &b)
    {
        ref::accumDiff(acc, a, b);
        if (prog_)
            emitAccumDiff(acc, a, b);
    }

    void
    axpyDiff(Mat acc, float s, const Mat &a, const Mat &b)
    {
        ref::axpyDiff(acc, s, a, b);
        if (prog_)
            emitAxpyDiff(acc, s, a, b);
    }

    void
    rowScaleNeg(Mat out, const Mat &a, const Mat &diag)
    {
        ref::rowScaleNeg(out, a, diag);
        if (prog_)
            emitRowScaleNeg(out, a, diag);
    }

    void
    clampVec(Mat out, const Mat &a, const Mat &lo, const Mat &hi)
    {
        ref::clampVec(out, a, lo, hi);
        if (prog_)
            emitClampVec(out, a, lo, hi);
    }

    void
    clampConst(Mat out, const Mat &a, float lo, float hi)
    {
        ref::clampConst(out, a, lo, hi);
        if (prog_)
            emitClampConst(out, a, lo, hi);
    }

    float
    absMaxDiff(const Mat &a, const Mat &b)
    {
        const float r = ref::absMaxDiff(a, b);
        if (prog_)
            emitAbsMaxDiff(a, b);
        return r;
    }

    void
    copy(Mat out, const Mat &a)
    {
        ref::copy(out, a);
        if (prog_)
            emitCopy(out, a);
    }

    void
    fill(Mat out, float s)
    {
        ref::fill(out, s);
        if (prog_)
            emitFill(out, s);
    }

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
     * the shape of the solver's forward/backward passes. Computes in
     * one pass, bit-identical to gemv then saxpby(y, sa, y, sb, b),
     * and emits exactly that historical two-call sequence, so the
     * micro-op stream (and every cache key derived from it) is
     * unchanged. <M, N> and P as for gemv.
     */
    template <int M = 0, int N = 0, Datapath P = Datapath::Dynamic>
    void
    gemvSaxpby(Mat y, const PackedMat &a, Mat x, float alpha, float beta,
               float sa, float sb, const Mat &b)
    {
        if constexpr (P == Datapath::Bf16) {
            rtoc_assert(fmt_ == NumericFormat::BF16);
            fx::gemvSaxpbyBf16<M, N>(fxCache_, y, a.mat, x, alpha, beta, sa,
                                     sb, b, a.quantized);
        } else if constexpr (P == Datapath::I16) {
            rtoc_assert(fmt_ == NumericFormat::I16);
            fx::gemvSaxpbyI16<M, N>(scaling_, fxCounters_, fxCache_, y, a.mat,
                                    x, alpha, beta, sa, sb, b, a.quantized);
        } else if (fmt_ == NumericFormat::F32) {
            packed::gemvSaxpby<M, N>(y, a, x, alpha, beta, sa, sb, b);
        } else {
            fx::gemvSaxpby(fmt_, scaling_, fxCounters_, fxCache_, y, a.mat,
                           x, alpha, beta, sa, sb, b, a.quantized);
        }
        if (prog_) {
            emitGemv(y, a.mat, x, alpha, beta);
            emitSaxpby(y, sa, y, sb, b);
        }
    }

    void
    gemvSaxpby(Mat y, const Mat &a, Mat x, float alpha, float beta,
               float sa, float sb, const Mat &b)
    {
        gemvSaxpby(y, PackedMat{a}, x, alpha, beta, sa, sb, b);
    }

    /**
     * Whether the backend can *emit* the hand-optimized Fused mapping
     * structure (§4.1.2). Backends whose ISA cannot realize
     * register-resident per-step fusion (Gemmini's CISC/RoCC
     * constraints) return false, and the solver rejects Fused-style
     * emission on them with a fatal error.
     */
    virtual bool supportsFusedEmission() const { return true; }

    /** Open a fusion region (emission-only state). */
    void
    beginFuse()
    {
        if (prog_)
            emitBeginFuse();
    }

    /** Close a fusion region, writing back dirty temporaries. */
    void
    endFuse()
    {
        if (prog_)
            emitEndFuse();
    }

    /** Make all results CPU-visible (Gemmini: fence; others: no-op). */
    void
    sync()
    {
        if (prog_)
            emitSync();
    }

  protected:
    /**
     * Every knob but the element width that changes the micro-op
     * sequence (flavor, vlen, mapping options, ...). Backends whose
     * name() already captures the whole configuration keep the default.
     */
    virtual std::string mappingKey() const { return name(); }

    /** True when emission is active. */
    bool emitting() const { return prog_ != nullptr; }

    // --- emission hooks: called only with a Program attached ---
    virtual void emitGemv(Mat y, const Mat &a, Mat x, float alpha,
                          float beta) = 0;
    virtual void emitGemvT(Mat y, const Mat &a, Mat x, float alpha,
                           float beta) = 0;
    virtual void emitGemm(Mat c, const Mat &a, const Mat &b) = 0;
    virtual void emitSaxpby(Mat out, float sa, const Mat &a, float sb,
                            const Mat &b) = 0;
    virtual void emitScale(Mat out, const Mat &a, float s) = 0;
    virtual void emitAccumDiff(Mat acc, const Mat &a, const Mat &b) = 0;
    virtual void emitAxpyDiff(Mat acc, float s, const Mat &a,
                              const Mat &b) = 0;
    virtual void emitRowScaleNeg(Mat out, const Mat &a,
                                 const Mat &diag) = 0;
    virtual void emitClampVec(Mat out, const Mat &a, const Mat &lo,
                              const Mat &hi) = 0;
    virtual void emitClampConst(Mat out, const Mat &a, float lo,
                                float hi) = 0;
    virtual void emitAbsMaxDiff(const Mat &a, const Mat &b) = 0;
    virtual void emitCopy(Mat out, const Mat &a) = 0;
    virtual void emitFill(Mat out, float s) = 0;
    virtual void emitBeginFuse() {}
    virtual void emitEndFuse() {}
    virtual void emitSync() {}

    isa::Program *prog_ = nullptr;

  private:
    NumericFormat fmt_ = NumericFormat::F32;
    fx::Scaling scaling_;
    fx::Counters fxCounters_;
    fx::OperandCache fxCache_; ///< quantized gemv/gemvT matrices
};

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_BACKEND_HH
