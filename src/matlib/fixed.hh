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
 *    with a stride. (The registry plants' calibrated int16 solves stay
 *    inside the bound; the FxOracle tests are what drive that chain.)
 *  - int16 quantize and snap run on four float lanes. The grid scale
 *    is 2^frac with 0 <= frac <= 126 (forRanges floors frac at 0), so
 *    scaling is exact until it overflows to ±Inf, which clamps and
 *    counts as the double reference does; grid values fit 16 bits, so
 *    trunc, the ±0.5 compare and the dequantize are exact too. Every
 *    lane is clamped before it is converted to int. Each lane counts
 *    its own clamps in an int32 vector, summed once per call.
 *  - int32 keeps the scalar double path and the serial saturating
 *    chain: its 31-bit grid values are not exact in float.
 * When y overlaps A, x or b, the kernels re-read their operands after
 * every store, in the reference order. int16 saxpby runs its lanes
 * only where out is disjoint from each input or identical to it.
 *
 * Shapes and dispatch. The rows are header templates on the operand
 * shape, like packed::gemv<M, N>: detail::bf16Rows for bf16 and
 * detail::fixedRows for int16 and int32, with the grids, the
 * saturating accumulator and the output stage beside them.
 * gemvBf16/gemvSaxpbyBf16 and gemvI16/gemvSaxpbyI16 inline them at a
 * fixed <M, N>, and the solver's bf16 and int16 passes call those at
 * the registry shapes (see Backend::gemv). The out-of-line gemv, gemvT
 * and gemvSaxpby serve every other call (run-time shapes, int32, gemvT,
 * aliased operands) and dispatch on the format to the same rows at
 * <0, 0>, so each format's row code exists once.
 */

#ifndef RTOC_MATLIB_FIXED_HH
#define RTOC_MATLIB_FIXED_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
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

/*
 * The fixed-point rows and their parts (see "Shapes and dispatch" in
 * the file comment).
 */

using packed::detail::IVec;
using packed::detail::load;
using packed::detail::store;
using packed::detail::Vec;

/** Raw element bits available below the sign bit. */
constexpr int
magnitudeBits(NumericFormat f)
{
    return f == NumericFormat::I16 ? 15 : 31;
}

/** Exact 2^e, built from its IEEE bit pattern (normal range only). */
inline double
pow2(int e)
{
    rtoc_assert(e >= -1022 && e <= 1023);
    const uint64_t bits = static_cast<uint64_t>(e + 1023) << 52;
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

/**
 * Round half away from zero (std::llround's rule). Exact for |v| < 2^62:
 * the fractional part v - trunc(v) of a double is representable.
 */
inline int64_t
roundHalfAway(double v)
{
    const int64_t t = static_cast<int64_t>(v);
    const double r = v - static_cast<double>(t);
    return r >= 0.5 ? t + 1 : (r <= -0.5 ? t - 1 : t);
}

/**
 * One Q-format operand grid: steps of 2^-frac, clamped to the element
 * range. Scaling a float by an exact power of two is exact in double,
 * so the only rounding is the explicit round-half-away.
 */
struct Grid
{
    double scale; ///< 2^frac
    double inv;   ///< 2^-frac
    int64_t lim;  ///< largest element; the smallest is -lim - 1

    Grid(NumericFormat f, int frac)
        : scale(pow2(frac)), inv(pow2(-frac)),
          lim((int64_t{1} << magnitudeBits(f)) - 1)
    {
    }

    /** Quantize @p v, counting a clamp of anything out of range. */
    int64_t
    quantize(float v, uint64_t &sat_count) const
    {
        const double scaled = static_cast<double>(v) * scale;
        if (!std::isfinite(scaled)) {
            ++sat_count;
            return scaled > 0 ? lim : -lim - 1;
        }
        if (scaled >= static_cast<double>(lim)) {
            if (scaled > static_cast<double>(lim))
                ++sat_count;
            return lim;
        }
        if (scaled <= static_cast<double>(-lim - 1)) {
            if (scaled < static_cast<double>(-lim - 1))
                ++sat_count;
            return -lim - 1;
        }
        // |scaled| < 2^31 here: inside roundHalfAway's exact range.
        return roundHalfAway(scaled);
    }

    float
    dequantize(int64_t q) const
    {
        return static_cast<float>(static_cast<double>(q) * inv);
    }

    /** Round-trip @p v through the grid (result stores, saxpby). */
    float
    snap(float v, uint64_t &sat_count) const
    {
        return dequantize(quantize(v, sat_count));
    }
};

/** The saxpby schedule: out = snap(sa * snap(a) + sb * snap(b)). */
struct SaxpbyGrids
{
    Grid a, b, out;

    SaxpbyGrids(NumericFormat f, const KernelSpec &s)
        : a(f, s.aFrac), b(f, s.xFrac), out(f, s.outFrac)
    {
    }

    float
    apply(float sa, float av, float sb, float bv,
          uint64_t &sat_count) const
    {
        return out.snap(sa * a.snap(av, sat_count) +
                            sb * b.snap(bv, sat_count),
                        sat_count);
    }
};

/** The total of per-lane clamp counts (see LaneGrid::quantize). */
inline uint64_t
countLanes(IVec clamps)
{
    return static_cast<uint64_t>(int64_t{clamps[0]} + clamps[1] +
                                 clamps[2] + clamps[3]);
}

/** Lanes of @p a where @p mask is set, else of @p b. */
inline Vec
select(IVec mask, Vec a, Vec b)
{
    IVec ab, bb;
    std::memcpy(&ab, &a, sizeof ab);
    std::memcpy(&bb, &b, sizeof bb);
    ab = (mask & ab) | (~mask & bb);
    std::memcpy(&a, &ab, sizeof a);
    return a;
}

/**
 * An int16 Grid on four float lanes, equal to Grid lane by lane,
 * counts included, where exact() holds (see the file comment). Clamps
 * are counted per lane in an int32 vector, which the caller sums once
 * with countLanes: a call counts at most three clamps per element, far
 * below INT32_MAX per lane.
 */
struct LaneGrid
{
    float scale, inv;
    static constexpr float kHi = 32767.0f, kLo = -32768.0f;

    /** Used only where exact(frac) holds; other grids get 2^0. */
    explicit LaneGrid(int frac)
        : scale(static_cast<float>(pow2(exact(frac) ? frac : 0))),
          inv(static_cast<float>(pow2(exact(frac) ? -frac : 0)))
    {
    }

    /** 2^frac and 2^-frac are normal floats: scaling is exact. */
    static bool exact(int frac) { return frac >= 0 && frac <= 126; }

    /** Grid::quantize on four lanes: NaN to kLo, ±Inf and out-of-range
     *  values clamped and counted into @p clamps when strictly outside,
     *  in-range values rounded half away from zero. */
    IVec
    quantize(Vec v, IVec &clamps) const
    {
        const Vec s = v * scale;
        const IVec nan = s != s;
        clamps -= nan | (s > kHi) | (s < kLo); // a set lane is -1
        // Clamp first: converting an out-of-range float is undefined.
        const Vec c = select(s >= kHi, Vec{} + kHi,
                             select((s <= kLo) | nan, Vec{} + kLo, s));
        const IVec t = __builtin_convertvector(c, IVec);
        const Vec r = c - __builtin_convertvector(t, Vec);
        return t - (r >= 0.5f) + (r <= -0.5f);
    }

    Vec
    dequantize(IVec q) const
    {
        return __builtin_convertvector(q, Vec) * inv;
    }

    Vec
    snap(Vec v, IVec &clamps) const
    {
        return dequantize(quantize(v, clamps));
    }
};

/** SaxpbyGrids on four lanes (int16, exact grids only). */
struct SaxpbyLanes
{
    LaneGrid a, b, out;

    explicit SaxpbyLanes(const KernelSpec &s)
        : a(s.aFrac), b(s.xFrac), out(s.outFrac)
    {
    }

    static bool
    exact(NumericFormat f, const KernelSpec &s)
    {
        return f == NumericFormat::I16 && LaneGrid::exact(s.aFrac) &&
               LaneGrid::exact(s.xFrac) && LaneGrid::exact(s.outFrac);
    }

    Vec
    apply(float sa, Vec av, float sb, Vec bv, IVec &clamps) const
    {
        return out.snap(sa * a.snap(av, clamps) + sb * b.snap(bv, clamps),
                        clamps);
    }
};

/**
 * Saturating accumulator add: i16 datapaths accumulate in int32
 * (products are 16x16 -> 32 bit, sums clamp at int32), i32 datapaths
 * in int64 with overflow clamping.
 */
template <NumericFormat F>
inline int64_t
accAddSat(int64_t acc, int64_t prod, uint64_t &sat_count)
{
    if constexpr (F == NumericFormat::I16) {
        const int64_t lim = INT32_MAX;
        int64_t sum = acc + prod;
        if (sum > lim) {
            ++sat_count;
            return lim;
        }
        if (sum < -lim - 1) {
            ++sat_count;
            return -lim - 1;
        }
        return sum;
    } else {
        int64_t sum;
        if (__builtin_add_overflow(acc, prod, &sum)) {
            ++sat_count;
            return acc > 0 ? INT64_MAX : INT64_MIN;
        }
        return sum;
    }
}

/**
 * Round-shift a double-width accumulator (at a_frac + x_frac) onto the
 * @p out_frac output grid with saturation — the per-kernel shift
 * schedule of the fixed-point MAC.
 */
inline int64_t
shiftRoundSat(NumericFormat f, int64_t acc, int shift, uint64_t &sat_count)
{
    const int bits = magnitudeBits(f);
    const int64_t lim = (int64_t{1} << bits) - 1;
    int64_t v = acc;
    if (shift > 0) {
        // Round half away from zero, matching the quantizer. The
        // magnitude is rounded in uint64, so an accumulator saturated
        // at INT64_MIN/MAX cannot overflow and keeps its sign.
        const uint64_t half = uint64_t{1} << (shift - 1);
        const uint64_t mag = v >= 0 ? static_cast<uint64_t>(v)
                                    : uint64_t{0} - static_cast<uint64_t>(v);
        const auto r = static_cast<int64_t>((mag + half) >> shift);
        v = v >= 0 ? r : -r;
    } else if (shift < 0) {
        // Finer output grid than the accumulator: clamp before the
        // shift, so it neither overflows nor shifts a negative value.
        // Past the element width only zero stays in range.
        const int up = -shift;
        const int64_t hi = up > bits ? 0 : lim >> up;
        const int64_t lo = up > bits ? 0 : -hi - 1;
        if (v > hi) {
            ++sat_count;
            return lim;
        }
        if (v < lo) {
            ++sat_count;
            return -lim - 1;
        }
        return v == 0 ? 0 : v * (int64_t{1} << up);
    }
    if (v > lim) {
        ++sat_count;
        return lim;
    }
    if (v < -lim - 1) {
        ++sat_count;
        return -lim - 1;
    }
    return v;
}

/** Largest |q| of @p n grid values. */
inline int64_t
maxAbs(const int32_t *q, int n)
{
    int64_t m = 0;
    for (int j = 0; j < n; ++j)
        m = std::max(m, std::abs(int64_t{q[j]}));
    return m;
}

/** gemv's own store (one output or four). */
struct PlainStore
{
    bool lanesExact() const { return true; }
    float one(int, float v) { return v; }
    Vec lanes(int, Vec v) { return v; }
};

/** gemvSaxpby's store: out = snap(sa * snap(y) + sb * snap(b)). */
struct SaxpbyStore
{
    SaxpbyGrids g;
    SaxpbyLanes l;
    bool exact;
    float sa, sb;
    const float *b;
    uint64_t sats = 0;
    IVec laneSats{};

    SaxpbyStore(NumericFormat f, const KernelSpec &s, float sa_,
                float sb_, const float *b_)
        : g(f, s), l(s), exact(SaxpbyLanes::exact(f, s)), sa(sa_),
          sb(sb_), b(b_)
    {
    }

    bool lanesExact() const { return exact; }
    float one(int i, float v) { return g.apply(sa, v, sb, b[i], sats); }

    Vec
    lanes(int i, Vec v)
    {
        return l.apply(sa, v, sb, load(b + i), laneSats);
    }

    /** Quantizer clamps of every store so far. */
    uint64_t total() const { return sats + countLanes(laneSats); }
};

/**
 * The output stage of the fixed-point rows: each accumulator shifted
 * onto the output grid, scaled, snapped and stored through @p st
 * (four lanes only on exact int16 grids).
 */
template <NumericFormat F, typename Store>
struct FixedOut
{
    Grid gout;
    LaneGrid lout;
    int shift;
    float alpha, beta;
    float *y;
    Store &st;
    uint64_t qsats = 0, asats = 0;
    IVec qlanes{}; ///< clamps of the four-lane snaps

    float
    dot(int64_t acc)
    {
        return gout.dequantize(shiftRoundSat(F, acc, shift, asats));
    }

    void
    one(int i, int64_t acc)
    {
        y[i] = st.one(i, gout.snap(alpha * dot(acc) + beta * y[i], qsats));
    }

    void
    lanes(int i, IVec acc)
    {
        const Vec d{dot(acc[0]), dot(acc[1]), dot(acc[2]), dot(acc[3])};
        store(y + i, st.lanes(i, lout.snap(alpha * d + beta * load(y + i),
                                           qlanes)));
    }
};

/**
 * Fixed-point gemv rows (gemvT's at <0, 0>) over disjoint operands.
 * Each output element is the saturating integer dot of its packed grid
 * column against the grid vector, shifted onto the output grid, scaled
 * and stored through @p st (the plain store, or the fused saxpby of
 * gemvSaxpby). <M, N> fixes A's shape; <0, 0> reads it.
 *
 * A is its cache entry @p e (its clamps added once, as every element
 * is read once), x is quantized into scratch (its clamps added once per
 * row, as every row reads all of x). The int16 dots run on int32 lanes
 * when the entry's bound allows it (see the file comment), else on the
 * serial saturating chain.
 */
template <NumericFormat F, int M, int N, typename Store>
inline void
fixedRows(const KernelSpec &s, Counters &c, OperandCache &cache,
          const QuantizedMat &e, Mat y, Mat x, float alpha, float beta,
          Store &st)
{
    static_assert(M >= 0 && N >= 0 && (M == 0) == (N == 0),
                  "fix both dimensions or neither");
    rtoc_assert(M == 0 || (y.cols == M && x.cols == N));
    const int m = M ? M : y.cols;
    const int n = N ? N : x.cols;
    const int ld = packedRows(m);
    const Grid gx(F, s.xFrac);
    const bool lanes = F == NumericFormat::I16 && st.lanesExact() &&
                       LaneGrid::exact(s.xFrac) &&
                       LaneGrid::exact(s.outFrac);
    int32_t stack[N > 0 ? N : 1];
    int32_t *xq = N > 0 ? stack : cache.fixedScratch(n);
    uint64_t xsats = 0;
    IVec xlanes{};
    int j = 0;
    if (lanes) {
        const LaneGrid lx(s.xFrac);
        for (; j + kPackLanes <= n; j += kPackLanes) {
            const IVec q = lx.quantize(load(x.data + j), xlanes);
            std::memcpy(xq + j, &q, sizeof q);
        }
    }
    for (; j < n; ++j)
        xq[j] = static_cast<int32_t>(gx.quantize(x.data[j], xsats));
    xsats += countLanes(xlanes);

    FixedOut<F, Store> out{Grid(F, s.outFrac), LaneGrid(s.outFrac),
                           s.aFrac + s.xFrac - s.outFrac,
                           alpha, beta, y.data, st};
    if (lanes && e.absSum * maxAbs(xq, n) <= INT32_MAX) {
        packed::detail::rowsOf(e.fixed.data(), ld, m, n,
                               static_cast<const int32_t *>(xq), out);
    } else {
        for (int i = 0; i < m; ++i) {
            const int32_t *col = e.fixed.data() + i;
            int64_t acc = 0;
            for (j = 0; j < n; ++j, col += ld)
                acc = accAddSat<F>(acc, int64_t{*col} * xq[j], out.asats);
            out.one(i, acc);
        }
    }
    c.quantSats += e.sats + xsats * static_cast<uint64_t>(m) + out.qsats +
                   countLanes(out.qlanes);
    c.accSats += out.asats;
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

/**
 * gemv on the int16 datapath, A M x N (any shape at <0, 0>): inline,
 * with constant trip counts at a fixed shape, and bit-identical to
 * gemv(NumericFormat::I16, ...), counters included; @p q as for gemv.
 */
template <int M = 0, int N = 0>
inline void
gemvI16(const Scaling &s, Counters &c, OperandCache &cache, Mat y,
        const Mat &a, Mat x, float alpha, float beta,
        const QuantizedMat *q = nullptr)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    if (detail::aliasesInput(y, a, x)) {
        gemv(NumericFormat::I16, s, c, cache, y, a, x, alpha, beta);
        return;
    }
    detail::PlainStore plain;
    detail::fixedRows<NumericFormat::I16, M, N>(
        s.gemv, c, cache,
        detail::entryOf(NumericFormat::I16, s, cache, a, false, q), y, x,
        alpha, beta, plain);
}

/** gemvSaxpby on the int16 datapath; shapes and @p q as gemvI16. */
template <int M = 0, int N = 0>
inline void
gemvSaxpbyI16(const Scaling &s, Counters &c, OperandCache &cache, Mat y,
              const Mat &a, Mat x, float alpha, float beta, float sa,
              float sb, const Mat &b, const QuantizedMat *q = nullptr)
{
    rtoc_assert(b.isVec() && b.cols == y.cols);
    if (detail::aliasesInput(y, a, x) ||
        !disjoint(y.data, y.cols, b.data, b.cols)) {
        gemvSaxpby(NumericFormat::I16, s, c, cache, y, a, x, alpha, beta,
                   sa, sb, b, q);
        return;
    }
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    detail::SaxpbyStore st(NumericFormat::I16, s.saxpby, sa, sb, b.data);
    detail::fixedRows<NumericFormat::I16, M, N>(
        s.gemv, c, cache,
        detail::entryOf(NumericFormat::I16, s, cache, a, false, q), y, x,
        alpha, beta, st);
    c.quantSats += st.total();
}

} // namespace fx

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_FIXED_HH
