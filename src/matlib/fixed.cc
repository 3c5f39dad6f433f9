#include "matlib/fixed.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace rtoc::matlib {

const char *
formatName(NumericFormat f)
{
    switch (f) {
      case NumericFormat::F32: return "f32";
      case NumericFormat::I16: return "i16";
      case NumericFormat::I32: return "i32";
      case NumericFormat::BF16: return "bf16";
    }
    rtoc_panic("formatName: bad format %d", static_cast<int>(f));
}

int
formatSewBits(NumericFormat f)
{
    switch (f) {
      case NumericFormat::F32: return 32;
      case NumericFormat::I16: return 16;
      case NumericFormat::I32: return 32;
      case NumericFormat::BF16: return 16;
    }
    rtoc_panic("formatSewBits: bad format %d", static_cast<int>(f));
}

int
formatElemBytes(NumericFormat f)
{
    return formatSewBits(f) / 8;
}

NumericFormat
parseFormat(const std::string &name)
{
    if (name == "f32")
        return NumericFormat::F32;
    if (name == "i16")
        return NumericFormat::I16;
    if (name == "i32")
        return NumericFormat::I32;
    if (name == "bf16")
        return NumericFormat::BF16;
    rtoc_fatal("unknown numeric format '%s' (want f32|i16|i32|bf16)",
               name.c_str());
}

NumericFormat
defaultFormat()
{
    static NumericFormat cached = [] {
        const char *env = std::getenv("RTOC_FORMAT");
        if (!env || !*env)
            return NumericFormat::F32;
        return parseFormat(env);
    }();
    return cached;
}

namespace fx {

namespace {

using packed::detail::IVec;
using packed::detail::load;
using packed::detail::store;
using packed::detail::Vec;

/** Raw element bits available below the sign bit. */
int
magnitudeBits(NumericFormat f)
{
    return f == NumericFormat::I16 ? 15 : 31;
}

/** Fraction bits that keep |v| <= range representable. */
int
fracBitsFor(NumericFormat f, double range)
{
    // Headroom of 2x over the calibrated range before the quantizer
    // clamps; the saturating datapath absorbs (and counts) the rest.
    double bound = std::max(range, 1e-6) * 2.0;
    int int_bits = std::max(0, static_cast<int>(
        std::ceil(std::log2(bound))));
    return std::max(0, std::min(magnitudeBits(f) - 1 - int_bits,
                                magnitudeBits(f) - 1));
}

/** Exact 2^e, built from its IEEE bit pattern (normal range only). */
double
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

/** Clamps flagged in a lane mask (each flagged lane is -1). */
inline uint64_t
countLanes(IVec mask)
{
    return static_cast<uint64_t>(-(mask[0] + mask[1] + mask[2] + mask[3]));
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
 * counts included, where exact() holds (see the file comment).
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
     *  values clamped and counted when strictly outside, in-range
     *  values rounded half away from zero. */
    IVec
    quantize(Vec v, uint64_t &sat_count) const
    {
        const Vec s = v * scale;
        const IVec nan = s != s;
        sat_count += countLanes(nan | (s > kHi) | (s < kLo));
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
    snap(Vec v, uint64_t &sat_count) const
    {
        return dequantize(quantize(v, sat_count));
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
    apply(float sa, Vec av, float sb, Vec bv, uint64_t &sat_count) const
    {
        return out.snap(sa * a.snap(av, sat_count) +
                            sb * b.snap(bv, sat_count),
                        sat_count);
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
int64_t
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

/** Element @p k of output row @p o of A, or of A^T. */
inline float
opElem(const Mat &a, bool transposed, int o, int k)
{
    return transposed ? a.data[static_cast<size_t>(k) * a.cols + o]
                      : a.data[static_cast<size_t>(o) * a.cols + k];
}

/** True when @p p and @p q (n floats each) are the same or disjoint:
 *  elementwise lanes then read each input before any store to it. */
bool
sameOrDisjoint(const float *p, const float *q, int n)
{
    return p == q || disjoint(p, n, q, n);
}

/** Largest |q| of @p n grid values. */
int64_t
maxAbs(const int32_t *q, int n)
{
    int64_t m = 0;
    for (int j = 0; j < n; ++j)
        m = std::max(m, std::abs(int64_t{q[j]}));
    return m;
}

void
checkNarrow(NumericFormat f)
{
    if (f == NumericFormat::F32)
        rtoc_panic("fx kernels: f32 runs on the ref:: kernels");
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
        return l.apply(sa, v, sb, load(b + i), sats);
    }
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
                                           qsats)));
    }
};

/**
 * Fixed-point gemv/gemvT rows when y overlaps A or x: each row
 * re-quantizes both operands after the previous row's store (the
 * reference order).
 */
template <NumericFormat F>
__attribute__((noinline)) void
fixedAliased(const KernelSpec &s, Counters &c, OperandCache &cache, Mat y,
             const Mat &a, Mat x, float alpha, float beta, bool transposed)
{
    const int m = y.cols;
    const int n = x.cols;
    const Grid ga(F, s.aFrac), gx(F, s.xFrac);
    int32_t *xq = cache.fixedScratch(2 * n);
    int32_t *rowq = xq + n;
    PlainStore plain;
    FixedOut<F, PlainStore> out{Grid(F, s.outFrac), LaneGrid(s.outFrac),
                                s.aFrac + s.xFrac - s.outFrac,
                                alpha, beta, y.data, plain};
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            rowq[j] = static_cast<int32_t>(
                ga.quantize(opElem(a, transposed, i, j), out.qsats));
            xq[j] = static_cast<int32_t>(gx.quantize(x.data[j], out.qsats));
        }
        int64_t acc = 0;
        for (int j = 0; j < n; ++j)
            acc = accAddSat<F>(acc, int64_t{rowq[j]} * xq[j], out.asats);
        out.one(i, acc);
    }
    c.quantSats += out.qsats;
    c.accSats += out.asats;
}

/**
 * Fixed-point gemv/gemvT rows over disjoint operands. Each output
 * element is the saturating integer dot of its packed grid column
 * against the grid vector, shifted onto the output grid, scaled and
 * stored through @p st (the plain store, or the fused saxpby of
 * gemvSaxpby).
 *
 * A is its cache entry @p e (its clamps added once, as every element
 * is read once), x is quantized into scratch (its clamps added once per
 * row, as every row reads all of x). The int16 dots run on int32 lanes
 * when the entry's bound allows it (see the file comment), else on the
 * serial saturating chain.
 */
template <NumericFormat F, typename Store>
__attribute__((noinline)) void
fixedRows(const KernelSpec &s, Counters &c, OperandCache &cache,
          const QuantizedMat &e, Mat y, Mat x, float alpha, float beta,
          Store &st)
{
    const int m = y.cols;
    const int n = x.cols;
    const int ld = packedRows(m);
    const Grid gx(F, s.xFrac);
    const bool lanes = F == NumericFormat::I16 && st.lanesExact() &&
                       LaneGrid::exact(s.xFrac) &&
                       LaneGrid::exact(s.outFrac);
    int32_t *xq = cache.fixedScratch(n);
    uint64_t xsats = 0;
    int j = 0;
    if (lanes) {
        const LaneGrid lx(s.xFrac);
        for (; j + kPackLanes <= n; j += kPackLanes) {
            const IVec q = lx.quantize(load(x.data + j), xsats);
            std::memcpy(xq + j, &q, sizeof q);
        }
    }
    for (; j < n; ++j)
        xq[j] = static_cast<int32_t>(gx.quantize(x.data[j], xsats));

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
    c.quantSats += e.sats + xsats * static_cast<uint64_t>(m) + out.qsats;
    c.accSats += out.asats;
}

/** bf16 gemv/gemvT rows when y overlaps A or x: each row re-rounds
 *  both operands after the previous row's store (the reference order). */
__attribute__((noinline)) void
bf16Aliased(OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
            float beta, bool transposed)
{
    const int m = y.cols;
    const int n = x.cols;
    float *xb = cache.bf16Scratch(2 * n);
    float *rowb = xb + n;
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            rowb[j] = toBf16(opElem(a, transposed, i, j));
            xb[j] = toBf16(x.data[j]);
        }
        float dot = 0.0f;
        for (int j = 0; j < n; ++j)
            dot += rowb[j] * xb[j];
        y.data[i] = toBf16(alpha * dot + beta * toBf16(y.data[i]));
    }
}

/** The bf16 rows at run-time shape (detail::bf16Rows<0, 0>). */
template <typename Out>
__attribute__((noinline)) void
bf16RowsAnyShape(OperandCache &cache, const QuantizedMat &e, const Mat &a,
                 Mat x, bool transposed, Out out)
{
    detail::bf16Rows<0, 0>(cache, e, a, x, transposed, out);
}

/*
 * The dispatchers below call every format's rows as a function of its
 * own (the noinline attributes above): inlined together into one
 * dispatcher, they made each small call 10-20 ns slower on the
 * portable build, which set up all of them before branching.
 */

/** gemv/gemvT on any narrow format. */
void
gemvAny(NumericFormat f, const Scaling &sc, Counters &c,
        OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
        float beta, bool transposed, const QuantizedMat *q)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(transposed ? a.cols == y.cols && a.rows == x.cols
                           : a.rows == y.cols && a.cols == x.cols);
    checkNarrow(f);
    const KernelSpec &s = transposed ? sc.gemvT : sc.gemv;
    if (detail::aliasesInput(y, a, x)) {
        if (f == NumericFormat::BF16)
            bf16Aliased(cache, y, a, x, alpha, beta, transposed);
        else if (f == NumericFormat::I16)
            fixedAliased<NumericFormat::I16>(s, c, cache, y, a, x, alpha,
                                             beta, transposed);
        else
            fixedAliased<NumericFormat::I32>(s, c, cache, y, a, x, alpha,
                                             beta, transposed);
        return;
    }
    const QuantizedMat &e =
        detail::entryOf(f, sc, cache, a, transposed, q);
    PlainStore plain;
    if (f == NumericFormat::BF16) {
        bf16RowsAnyShape(cache, e, a, x, transposed,
                         detail::Bf16Out<false>{y.data, nullptr, alpha,
                                                beta, 0.0f, 0.0f});
    } else if (f == NumericFormat::I16) {
        fixedRows<NumericFormat::I16>(s, c, cache, e, y, x, alpha, beta,
                                      plain);
    } else {
        fixedRows<NumericFormat::I32>(s, c, cache, e, y, x, alpha, beta,
                                      plain);
    }
}

} // namespace

const QuantizedMat &
OperandCache::lookup(NumericFormat f, const Mat &a, int frac,
                     bool transposed)
{
    const size_t n = static_cast<size_t>(a.size());
    size_t slot = 0;
    for (; slot < used_; ++slot) {
        const QuantizedMat &cand = entries_[slot];
        if (cand.src == a.data && cand.rows == a.rows &&
            cand.cols == a.cols && cand.transposed == transposed)
            break;
    }
    QuantizedMat *e = slot < used_ ? &entries_[slot] : nullptr;
    // Bitwise comparison: bf16 keeps the sign of zero and NaN bits,
    // and NaN never compares equal, so value equality is not enough.
    if (e && e->fmt == f && e->frac == frac &&
        (n == 0 || std::memcmp(e->snapshot.data(), a.data,
                               n * sizeof(float)) == 0)) {
        lastUse_[slot] = ++clock_;
        return *e;
    }
    if (!e) {
        // A new operand: the next free slot, else the least recently
        // looked-up one (see the class comment).
        slot = used_ < kCapacity
                   ? used_++
                   : static_cast<size_t>(std::min_element(lastUse_.begin(),
                                                          lastUse_.end()) -
                                         lastUse_.begin());
        e = &entries_[slot];
    }
    lastUse_[slot] = ++clock_;

    e->src = a.data;
    e->rows = a.rows;
    e->cols = a.cols;
    e->transposed = transposed;
    e->fmt = f;
    e->frac = frac;
    e->snapshot.assign(a.data, a.data + n);
    e->sats = 0;
    e->absSum = 0;
    const int outs = transposed ? a.cols : a.rows;
    const int inner = transposed ? a.rows : a.cols;
    const size_t ld = static_cast<size_t>(packedRows(outs));
    if (f == NumericFormat::BF16) {
        e->fixed.clear();
        e->bf16.assign(ld * inner, 0.0f);
        for (int o = 0; o < outs; ++o)
            for (int k = 0; k < inner; ++k)
                e->bf16[k * ld + o] = toBf16(opElem(a, transposed, o, k));
    } else {
        const Grid g(f, frac);
        e->bf16.clear();
        e->fixed.assign(ld * inner, 0);
        for (int o = 0; o < outs; ++o) {
            int64_t sum = 0;
            for (int k = 0; k < inner; ++k) {
                const int64_t q =
                    g.quantize(opElem(a, transposed, o, k), e->sats);
                e->fixed[k * ld + o] = static_cast<int32_t>(q);
                sum += q < 0 ? -q : q;
            }
            e->absSum = std::max(e->absSum, sum);
        }
    }
    ++fills_;
    return *e;
}

int32_t *
OperandCache::fixedScratch(int n)
{
    if (fixedScratch_.size() < static_cast<size_t>(n))
        fixedScratch_.resize(static_cast<size_t>(n));
    return fixedScratch_.data();
}

float *
OperandCache::bf16Scratch(int n)
{
    if (bf16Scratch_.size() < static_cast<size_t>(n))
        bf16Scratch_.resize(static_cast<size_t>(n));
    return bf16Scratch_.data();
}

Scaling
Scaling::forRanges(NumericFormat f, double mat_range, double vec_range,
                   double acc_range)
{
    Scaling sc;
    if (f == NumericFormat::F32 || f == NumericFormat::BF16)
        return sc; // bf16 carries its own exponent; no shift schedule
    int a_frac = fracBitsFor(f, mat_range);
    int x_frac = fracBitsFor(f, vec_range);
    int out_frac = fracBitsFor(f, acc_range);
    sc.gemv = {a_frac, x_frac, out_frac};
    sc.gemvT = {a_frac, x_frac, out_frac};
    // saxpby combines two vector-range operands onto the vector grid.
    sc.saxpby = {x_frac, x_frac, out_frac};
    return sc;
}

const QuantizedMat &
matrixOperand(NumericFormat f, const Scaling &s, OperandCache &cache,
              const Mat &a, bool transposed)
{
    checkNarrow(f);
    return cache.lookup(f, a, detail::matrixFrac(f, s, transposed),
                        transposed);
}

void
gemv(NumericFormat f, const Scaling &s, Counters &c, OperandCache &cache,
     Mat y, const Mat &a, Mat x, float alpha, float beta,
     const QuantizedMat *q)
{
    gemvAny(f, s, c, cache, y, a, x, alpha, beta, false, q);
}

void
gemvT(NumericFormat f, const Scaling &s, Counters &c, OperandCache &cache,
      Mat y, const Mat &a, Mat x, float alpha, float beta,
      const QuantizedMat *q)
{
    gemvAny(f, s, c, cache, y, a, x, alpha, beta, true, q);
}

void
saxpby(NumericFormat f, const Scaling &s, Counters &c, Mat out, float sa,
       const Mat &a, float sb, const Mat &b)
{
    checkNarrow(f);
    const int n = out.size();
    if (f == NumericFormat::BF16) {
        // GCC -O3 vectorizes this loop itself, behind its own overlap
        // check; hand-written lanes measured no faster.
        for (int i = 0; i < n; ++i) {
            out.data[i] = toBf16(sa * toBf16(a.data[i]) +
                                 sb * toBf16(b.data[i]));
        }
        return;
    }
    const SaxpbyGrids g(f, s.saxpby);
    uint64_t sats = 0;
    int i = 0;
    if (SaxpbyLanes::exact(f, s.saxpby) &&
        sameOrDisjoint(out.data, a.data, n) &&
        sameOrDisjoint(out.data, b.data, n)) {
        const SaxpbyLanes l(s.saxpby);
        for (; i + kPackLanes <= n; i += kPackLanes) {
            store(out.data + i, l.apply(sa, load(a.data + i), sb,
                                        load(b.data + i), sats));
        }
    }
    for (; i < n; ++i)
        out.data[i] = g.apply(sa, a.data[i], sb, b.data[i], sats);
    c.quantSats += sats;
}

void
gemvSaxpby(NumericFormat f, const Scaling &s, Counters &c,
           OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
           float beta, float sa, float sb, const Mat &b,
           const QuantizedMat *q)
{
    checkNarrow(f);
    rtoc_assert(b.isVec() && b.cols == y.cols);
    if (detail::aliasesInput(y, a, x) ||
        !disjoint(y.data, y.cols, b.data, b.cols)) {
        // Aliased operands: the exact two-call sequence.
        gemv(f, s, c, cache, y, a, x, alpha, beta, q);
        saxpby(f, s, c, y, sa, y, sb, b);
        return;
    }
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    const QuantizedMat &e = detail::entryOf(f, s, cache, a, false, q);
    if (f == NumericFormat::BF16) {
        bf16RowsAnyShape(cache, e, a, x, false,
                         detail::Bf16Out<true>{y.data, b.data, alpha, beta,
                                               sa, sb});
        return;
    }
    SaxpbyStore st(f, s.saxpby, sa, sb, b.data);
    if (f == NumericFormat::I16)
        fixedRows<NumericFormat::I16>(s.gemv, c, cache, e, y, x, alpha,
                                      beta, st);
    else
        fixedRows<NumericFormat::I32>(s.gemv, c, cache, e, y, x, alpha,
                                      beta, st);
    c.quantSats += st.sats;
}

} // namespace fx

} // namespace rtoc::matlib
