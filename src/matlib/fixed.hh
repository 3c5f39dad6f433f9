/**
 * @file
 * Numeric-format axis of the matlib backends: float32 (the paper's
 * datapath), int16/int32 fixed-point with per-kernel static scaling
 * (Jerez et al., "Embedded Online Optimization for MPC at Megahertz
 * Rates": certified fixed-point ADMM datapaths), and bfloat16.
 *
 * Storage stays float32 — the workspace, the solver and every backend
 * view are unchanged. A non-float format changes what the MAC kernels
 * *compute*: operands are quantized onto the format's grid, the dot
 * products run as integer MACs with a saturating accumulator (int32
 * accumulator for int16 elements, int64 for int32) and a per-kernel
 * shift schedule, and results are rounded back onto the output grid
 * before being dequantized into the float storage. The emitted uop
 * streams carry the element width (Program::setEmitWidth), and only
 * the width: their replay prices the narrower datapath (wider
 * effective Saturn lanes, cheaper Gemmini DMA, faster scalar FPU ops),
 * and formats of one width emit identical streams. So every cache
 * keys on the width (Backend::cacheKey), not the format: i32 shares
 * the f32 streams and fits, i16 the bf16 ones.
 *
 * Saturation events are counted per backend (quantizer clamps and
 * accumulator clamps separately) — the telemetry the precision Pareto
 * bench reports next to divergence rates.
 *
 * Each operand is quantized once: the vector operand once per call
 * (its clamps counted once per output row, as if re-quantized for
 * every dot product), the matrix operand once per content change via
 * the backend's OperandCache (its clamps replayed on every use). The
 * values and both counters are exactly those of quantizing every
 * operand at every MAC, one output after another. A matrix operand is
 * checked against its cached copy once per call, except inside
 * Solver::solve, which checks each of its eight once per solve and
 * hands the copies to the kernels (the QuantizedMat argument).
 *
 * Layout and lanes. An OperandCache entry holds its grid values in the
 * layout of the float32 packed:: kernels (packColumns): zero-padded
 * and column-major, kPackLanes outputs per vector. The dots then run
 * on packed::detail::rowsOf, four outputs per vector register:
 *  - bf16: each float lane runs its output's reference chain (acc = 0,
 *    then acc += a·x in column order), so it rounds exactly like the
 *    one-output loop. toBf16 has a four-lane twin (bit operations, the
 *    same quiet-NaN rule) for x, the output stage and the fused
 *    saxpby. Standalone saxpby stays a plain loop: GCC -O3 vectorizes
 *    it already.
 *  - int16: the reference accumulates in int32 and clamps each partial
 *    sum. An entry keeps its largest per-output sum of |q|; when that
 *    sum times the call's largest |xq| is at most INT32_MAX, no partial
 *    sum of any output can reach a clamp, and the exact integer sum
 *    does not depend on order, so the dots run on int32 lanes. When
 *    the bound fails, the saturating serial chain reads the same copy
 *    with a stride.
 *  - int16 quantize and snap run on four float lanes. The grid scale
 *    is 2^frac with 0 <= frac <= 126 (forRanges floors frac at 0), so
 *    scaling is exact until it overflows to ±Inf, which clamps and
 *    counts as the double reference does; grid values fit 16 bits, so
 *    trunc, the ±0.5 compare and the dequantize are exact too. Every
 *    lane is clamped before it is converted to int.
 *  - int32 keeps the scalar double path and the serial saturating
 *    chain: its 31-bit grid values are not exact in float.
 * When y overlaps A, x or b, the kernels re-read their operands after
 * every store, in the reference order. int16 saxpby runs its lanes
 * only where out is disjoint from each input or identical to it.
 *
 * gemvBf16 and gemvSaxpbyBf16 are the bf16 kernels as header templates
 * on the operand shape, like packed::gemv<M, N>: the solver's bf16
 * passes inline them at the registry shapes (see Backend::gemv).
 */

#ifndef RTOC_MATLIB_FIXED_HH
#define RTOC_MATLIB_FIXED_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "matlib/mat.hh"

namespace rtoc::matlib {

/** Element format of a backend's datapath. */
enum class NumericFormat : uint8_t {
    F32,  ///< float32 (default; bit-identical historical path)
    I16,  ///< Q-format int16 fixed point (16-bit datapath)
    I32,  ///< Q-format int32 fixed point (32-bit datapath)
    BF16, ///< bfloat16 storage/operands, float32 accumulate
};

/** Short name: "f32", "i16", "i32", "bf16". */
const char *formatName(NumericFormat f);

/** Element width in bits as carried by emitted uops (32 or 16). */
int formatSewBits(NumericFormat f);

/** Element width in bytes (UART payloads, DMA traffic). */
int formatElemBytes(NumericFormat f);

/** Parse "f32"/"i16"/"i32"/"bf16" (fatal on anything else). */
NumericFormat parseFormat(const std::string &name);

/** Process default: RTOC_FORMAT when set, else F32 (read once). */
NumericFormat defaultFormat();

namespace fx {

/** Truncate @p v to bfloat16 (round-to-nearest-even). */
inline float
toBf16(float v)
{
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    // Round to nearest even on the truncated 16 mantissa bits; NaN
    // payloads are forced to a quiet pattern instead of rounding.
    if ((bits & 0x7f800000u) == 0x7f800000u && (bits & 0x007fffffu)) {
        bits = (bits & 0xffff0000u) | 0x00400000u;
    } else {
        bits += 0x7fffu + ((bits >> 16) & 1u);
        bits &= 0xffff0000u;
    }
    float out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

/** toBf16 on four lanes, bit for bit. */
inline packed::detail::Vec
toBf16(packed::detail::Vec v)
{
    typedef uint32_t UVec __attribute__((vector_size(sizeof v)));
    UVec bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const UVec nan = (UVec)(((bits & 0x7f800000u) == 0x7f800000u) &
                            ((bits & 0x007fffffu) != 0u));
    const UVec quiet = (bits & 0xffff0000u) | 0x00400000u;
    const UVec rounded =
        (bits + 0x7fffu + ((bits >> 16) & 1u)) & 0xffff0000u;
    bits = (nan & quiet) | (~nan & rounded);
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Per-kernel Q-format schedule: fraction bits of the matrix operand,
 * the vector operand and the stored result. The accumulator runs at
 * aFrac + xFrac and the output shift is (aFrac + xFrac - outFrac).
 */
struct KernelSpec
{
    int aFrac = 10;   ///< matrix / first-operand fraction bits
    int xFrac = 10;   ///< vector / second-operand fraction bits
    int outFrac = 10; ///< result fraction bits
};

/**
 * Static per-kernel scaling derived from calibrated ranges (the gain
 * matrices are known offline; trajectory ranges come from the bound
 * boxes and references with headroom). One schedule per MAC kernel.
 */
struct Scaling
{
    KernelSpec gemv;
    KernelSpec gemvT;
    KernelSpec saxpby;

    /**
     * Derive a schedule from the calibrated operand ranges: fraction
     * bits = (format bits - 1) - integer bits needed for
     * (range * headroom), floored at 0. @p mat_range bounds the gain/
     * dynamics matrix entries, @p vec_range the trajectory/slack
     * vectors, @p acc_range the dot-product magnitudes.
     */
    static Scaling forRanges(NumericFormat f, double mat_range,
                             double vec_range, double acc_range);
};

/** Saturation telemetry of one backend's fixed-point datapath. */
struct Counters
{
    uint64_t quantSats = 0; ///< operand/result quantizer clamps
    uint64_t accSats = 0;   ///< saturating-accumulator clamps
};

/**
 * One matrix operand on one grid: an OperandCache entry. The outputs
 * are the rows of A, or its columns for gemvT; element (o, k) of
 * output o's dot is at k * packedRows(outputs) + o, and the padding
 * outputs are zero.
 */
struct QuantizedMat
{
    const float *src = nullptr; ///< operand storage it was read from
    int rows = 0;               ///< operand shape
    int cols = 0;
    bool transposed = false;    ///< laid out for gemvT
    NumericFormat fmt = NumericFormat::F32;
    int frac = 0;               ///< grid fraction bits (I16/I32)
    std::vector<float> snapshot; ///< operand bits when quantized
    std::vector<int32_t> fixed;  ///< grid values (I16/I32)
    std::vector<float> bf16;     ///< rounded values (BF16)
    int64_t absSum = 0;          ///< largest per-output sum of |q|
    uint64_t sats = 0;           ///< quantizer clamps of one pass
};

/**
 * Quantized copies of the matrix operands of gemv/gemvT. The solver's
 * gain and dynamics matrices change only at a model refresh, so their
 * grid values are computed once and reused on every tick. Each copy is
 * in the packed layout (see the file comment).
 *
 * Every lookup validates the entry against a bitwise snapshot of the
 * operand and against the format and fraction bits it was quantized
 * for, so no caller has to invalidate anything: an in-place refresh
 * (Workspace::refreshModel), a new Scaling or a new format
 * re-quantizes at the next lookup, and a stale copy is never served.
 * A kernel call looks its matrix up once, unless its caller passes the
 * entry: Solver::solve looks up each of its eight matrix operands once
 * per solve, before its first kernel, and passes the entries on. The
 * entry also keeps the number of quantizer clamps its pass cost, which
 * the kernels add to Counters::quantSats on every use.
 *
 * Slot lifetime: the 16 slots are allocated with the cache and never
 * move, and a full cache evicts the least recently looked-up entry. So
 * none of the 15 lookups that follow a lookup can evict its entry, and
 * eight lookups in a row cannot evict one another's entries.
 *
 * The cache also owns the per-call scratch of the vector operand, so
 * the kernels never allocate once warm.
 */
class OperandCache
{
  public:
    /**
     * The entry for @p a on the (@p f, @p frac) grid, laid out for
     * gemvT when @p transposed. Re-quantized when anything changed.
     */
    const QuantizedMat &lookup(NumericFormat f, const Mat &a, int frac,
                               bool transposed);

    /** Number of (re-)quantizations performed by lookup(). */
    uint64_t fills() const { return fills_; }

    /** Per-call scratch for the vector operand and an aliased row, of
     *  at least @p n elements. */
    int32_t *fixedScratch(int n);
    float *bf16Scratch(int n);

  private:
    /** Distinct operands kept; the solver uses eight. */
    static constexpr size_t kCapacity = 16;

    std::array<QuantizedMat, kCapacity> entries_;
    std::array<uint64_t, kCapacity> lastUse_{}; ///< lookup clock stamps
    size_t used_ = 0;                          ///< slots filled so far
    uint64_t clock_ = 0;
    uint64_t fills_ = 0;
    std::vector<int32_t> fixedScratch_;
    std::vector<float> bf16Scratch_;
};

/**
 * The entry of @p a that gemv and gemvSaxpby (gemvT when
 * @p transposed) read on the (@p f, @p s) datapath: OperandCache::lookup
 * on the grid of the kernel's matrix operand (gemv.aFrac or
 * gemvT.aFrac; fraction bits 0 at BF16). @p f is not F32.
 */
const QuantizedMat &matrixOperand(NumericFormat f, const Scaling &s,
                                  OperandCache &cache, const Mat &a,
                                  bool transposed);

/*
 * The matrix kernels below take an optional @p q: @p a's entry as
 * matrixOperand returned it, which the call then reads without a
 * lookup. The caller guarantees that @p a has not been written since,
 * that the format and scaling are the ones it was resolved for, and
 * that fewer than 16 lookups have followed (see OperandCache). With q
 * null the call looks @p a up itself.
 */

/** y = alpha * A x + beta * y on the @p f datapath. */
void gemv(NumericFormat f, const Scaling &s, Counters &c,
          OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
          float beta, const QuantizedMat *q = nullptr);

/** y = alpha * A^T x + beta * y on the @p f datapath. */
void gemvT(NumericFormat f, const Scaling &s, Counters &c,
           OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
           float beta, const QuantizedMat *q = nullptr);

/** out = sa * a + sb * b on the @p f datapath. */
void saxpby(NumericFormat f, const Scaling &s, Counters &c, Mat out,
            float sa, const Mat &a, float sb, const Mat &b);

/**
 * Fused gemv -> saxpby pair (the solver's pass shape): one pass over
 * the rows, bit-identical to gemv followed by saxpby(y, sa, y, sb, b).
 * Falls back to that exact two-call sequence when y overlaps an input.
 */
void gemvSaxpby(NumericFormat f, const Scaling &s, Counters &c,
                OperandCache &cache, Mat y, const Mat &a, Mat x,
                float alpha, float beta, float sa, float sb,
                const Mat &b, const QuantizedMat *q = nullptr);

namespace detail {

/** True when y overlaps A or x: rows must re-read both operands. */
inline bool
aliasesInput(Mat y, const Mat &a, Mat x)
{
    return !disjoint(y.data, y.cols, a.data, a.size()) ||
           !disjoint(y.data, y.cols, x.data, x.cols);
}

/**
 * The bf16 output stage of gemv, y = toBf16(alpha·dot +
 * beta·toBf16(y)), followed when Fused by gemvSaxpby's
 * y = toBf16(sa·toBf16(y) + sb·toBf16(b)); on one output or four.
 */
template <bool Fused>
struct Bf16Out
{
    float *y;
    const float *b;
    float alpha, beta, sa, sb;

    template <typename T>
    T
    value(T dot, T yv, T bv) const
    {
        const T v = toBf16(alpha * dot + beta * toBf16(yv));
        if constexpr (Fused)
            return toBf16(sa * toBf16(v) + sb * toBf16(bv));
        else
            return v;
    }

    void
    lanes(int i, packed::detail::Vec acc)
    {
        using packed::detail::load;
        packed::detail::store(
            y + i, value(acc, load(y + i),
                         Fused ? load(b + i) : packed::detail::Vec{}));
    }

    void
    one(int i, float acc)
    {
        y[i] = value(acc, y[i], Fused ? b[i] : 0.0f);
    }
};

/** Fraction bits of the matrix grid of gemv (gemvT when
 *  @p transposed); bf16 has none. */
inline int
matrixFrac(NumericFormat f, const Scaling &s, bool transposed)
{
    if (f == NumericFormat::BF16)
        return 0;
    return transposed ? s.gemvT.aFrac : s.gemv.aFrac;
}

/**
 * @p q, checked against the call it serves, or else @p a's entry now
 * (matrixOperand).
 */
inline const QuantizedMat &
entryOf(NumericFormat f, const Scaling &s, OperandCache &cache,
        const Mat &a, bool transposed, const QuantizedMat *q)
{
    if (!q)
        return matrixOperand(f, s, cache, a, transposed);
    rtoc_assert(q->src == a.data && q->rows == a.rows &&
                q->cols == a.cols && q->transposed == transposed &&
                q->fmt == f && q->frac == matrixFrac(f, s, transposed));
    return *q;
}

/**
 * The bf16 dots of every output of A (A^T when @p transposed), from
 * its packed copy @p e and x rounded on four lanes, written through
 * @p out. <M, N> fixes A's shape (gemv only); <0, 0> reads it.
 */
template <int M, int N, typename Out>
inline void
bf16Rows(OperandCache &cache, const QuantizedMat &e, const Mat &a, Mat x,
         bool transposed, Out &out)
{
    static_assert(M >= 0 && N >= 0 && (M == 0) == (N == 0),
                  "fix both dimensions or neither");
    rtoc_assert(M == 0 || (!transposed && a.rows == M && a.cols == N));
    const int m = M ? M : (transposed ? a.cols : a.rows);
    const int n = N ? N : x.cols;
    float stack[N > 0 ? N : 1];
    float *xb = N > 0 ? stack : cache.bf16Scratch(n);
    int j = 0;
    for (; j + kPackLanes <= n; j += kPackLanes)
        packed::detail::store(xb + j,
                              toBf16(packed::detail::load(x.data + j)));
    for (; j < n; ++j)
        xb[j] = toBf16(x.data[j]);
    packed::detail::rowsOf(e.bf16.data(), packedRows(m), m, n,
                           static_cast<const float *>(xb), out);
}

} // namespace detail

/**
 * gemv on the bf16 datapath, A M x N (any shape at <0, 0>): inline,
 * with constant trip counts at a fixed shape, and bit-identical to
 * gemv(NumericFormat::BF16, ...); @p q as for gemv.
 */
template <int M = 0, int N = 0>
inline void
gemvBf16(OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
         float beta, const QuantizedMat *q = nullptr)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    if (detail::aliasesInput(y, a, x)) {
        Counters none; // bf16 counts no saturation
        gemv(NumericFormat::BF16, Scaling(), none, cache, y, a, x, alpha,
             beta);
        return;
    }
    detail::Bf16Out<false> out{y.data, nullptr, alpha, beta, 0.0f, 0.0f};
    detail::bf16Rows<M, N>(
        cache,
        detail::entryOf(NumericFormat::BF16, Scaling(), cache, a, false, q),
        a, x, false, out);
}

/** gemvSaxpby on the bf16 datapath; shapes and @p q as gemvBf16. */
template <int M = 0, int N = 0>
inline void
gemvSaxpbyBf16(OperandCache &cache, Mat y, const Mat &a, Mat x,
               float alpha, float beta, float sa, float sb, const Mat &b,
               const QuantizedMat *q = nullptr)
{
    rtoc_assert(b.isVec() && b.cols == y.cols);
    if (detail::aliasesInput(y, a, x) ||
        !disjoint(y.data, y.cols, b.data, b.cols)) {
        Counters none; // bf16 counts no saturation
        gemvSaxpby(NumericFormat::BF16, Scaling(), none, cache, y, a, x,
                   alpha, beta, sa, sb, b, q);
        return;
    }
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    detail::Bf16Out<true> out{y.data, b.data, alpha, beta, sa, sb};
    detail::bf16Rows<M, N>(
        cache,
        detail::entryOf(NumericFormat::BF16, Scaling(), cache, a, false, q),
        a, x, false, out);
}

} // namespace fx

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_FIXED_HH
