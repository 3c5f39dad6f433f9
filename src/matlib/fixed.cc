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

std::string
formatKeySuffix(NumericFormat f)
{
    if (f == NumericFormat::F32)
        return "";
    return std::string("|fmt:") + formatName(f);
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

float
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

namespace {

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

/** True when y overlaps A or x: rows must re-read both operands. */
bool
aliasesInput(Mat y, const Mat &a, Mat x)
{
    return !disjoint(y.data, y.cols, a.data, a.size()) ||
           !disjoint(y.data, y.cols, x.data, x.cols);
}

/**
 * Fixed-point gemv/gemvT rows. Each output element is the saturating
 * integer dot of its grid row against the grid vector, shifted onto
 * the output grid, scaled and stored through @p store(i, v) (the plain
 * store, or the fused saxpby of gemvSaxpby).
 *
 * Disjoint operands are quantized once per call: A from the cache
 * (its clamps added once, as every element is read once), x into
 * scratch (its clamps added once per row, as every row reads all of
 * x). When y overlaps an input, each row re-quantizes both operands
 * after the previous row's store — the reference order.
 */
template <NumericFormat F, typename Store>
void
fixedRows(const KernelSpec &s, Counters &c, OperandCache &cache, Mat y,
          const Mat &a, Mat x, float alpha, float beta, bool transposed,
          Store store)
{
    const int m = y.cols;
    const int n = x.cols;
    const Grid ga(F, s.aFrac), gx(F, s.xFrac), gout(F, s.outFrac);
    const int shift = s.aFrac + s.xFrac - s.outFrac;
    int32_t *xq = cache.fixedScratch(2 * n);
    int32_t *rowq = xq + n;
    uint64_t qsats = 0, asats = 0;

    const bool aliased = aliasesInput(y, a, x);
    const int32_t *qa = nullptr;
    if (!aliased) {
        const OperandCache::Entry &e =
            cache.lookup(F, a, s.aFrac, transposed);
        qa = e.fixed.data();
        qsats += e.sats;
        uint64_t xsats = 0;
        for (int j = 0; j < n; ++j)
            xq[j] = static_cast<int32_t>(gx.quantize(x.data[j], xsats));
        qsats += xsats * static_cast<uint64_t>(m);
    }
    for (int i = 0; i < m; ++i) {
        const int32_t *row =
            aliased ? rowq : qa + static_cast<size_t>(i) * n;
        if (aliased) {
            for (int j = 0; j < n; ++j) {
                rowq[j] = static_cast<int32_t>(
                    ga.quantize(opElem(a, transposed, i, j), qsats));
                xq[j] = static_cast<int32_t>(gx.quantize(x.data[j], qsats));
            }
        }
        int64_t acc = 0;
        for (int j = 0; j < n; ++j)
            acc = accAddSat<F>(acc, int64_t{row[j]} * xq[j], asats);
        const float dot =
            gout.dequantize(shiftRoundSat(F, acc, shift, asats));
        y.data[i] =
            store(i, gout.snap(alpha * dot + beta * y.data[i], qsats));
    }
    c.quantSats += qsats;
    c.accSats += asats;
}

/** bfloat16 gemv/gemvT rows: bf16 operands, float32 accumulate. */
template <typename Store>
void
bf16Rows(OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
         float beta, bool transposed, Store store)
{
    const int m = y.cols;
    const int n = x.cols;
    float *xb = cache.bf16Scratch(2 * n);
    float *rowb = xb + n;

    const bool aliased = aliasesInput(y, a, x);
    const float *ba = nullptr;
    if (!aliased) {
        ba = cache.lookup(NumericFormat::BF16, a, 0, transposed)
                 .bf16.data();
        for (int j = 0; j < n; ++j)
            xb[j] = toBf16(x.data[j]);
    }
    for (int i = 0; i < m; ++i) {
        const float *row =
            aliased ? rowb : ba + static_cast<size_t>(i) * n;
        if (aliased) {
            for (int j = 0; j < n; ++j) {
                rowb[j] = toBf16(opElem(a, transposed, i, j));
                xb[j] = toBf16(x.data[j]);
            }
        }
        float dot = 0.0f;
        for (int j = 0; j < n; ++j)
            dot += row[j] * xb[j];
        y.data[i] =
            store(i, toBf16(alpha * dot + beta * toBf16(y.data[i])));
    }
}

void
checkNarrow(NumericFormat f)
{
    if (f == NumericFormat::F32)
        rtoc_panic("fx kernels: f32 runs on the ref:: kernels");
}

template <typename Store>
void
gemvAny(NumericFormat f, const Scaling &sc, Counters &c,
        OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
        float beta, bool transposed, Store store)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(transposed ? a.cols == y.cols && a.rows == x.cols
                           : a.rows == y.cols && a.cols == x.cols);
    checkNarrow(f);
    const KernelSpec &s = transposed ? sc.gemvT : sc.gemv;
    if (f == NumericFormat::BF16)
        bf16Rows(cache, y, a, x, alpha, beta, transposed, store);
    else if (f == NumericFormat::I16)
        fixedRows<NumericFormat::I16>(s, c, cache, y, a, x, alpha, beta,
                                      transposed, store);
    else
        fixedRows<NumericFormat::I32>(s, c, cache, y, a, x, alpha, beta,
                                      transposed, store);
}

/** The unfused output store. */
float
plainStore(int, float v)
{
    return v;
}

} // namespace

const OperandCache::Entry &
OperandCache::lookup(NumericFormat f, const Mat &a, int frac,
                     bool transposed)
{
    const size_t n = static_cast<size_t>(a.size());
    Entry *e = nullptr;
    for (Entry &cand : entries_) {
        if (cand.src == a.data && cand.rows == a.rows &&
            cand.cols == a.cols && cand.transposed == transposed) {
            e = &cand;
            break;
        }
    }
    // Bitwise comparison: bf16 keeps the sign of zero and NaN bits,
    // and NaN never compares equal, so value equality is not enough.
    if (e && e->fmt == f && e->frac == frac &&
        (n == 0 || std::memcmp(e->snapshot.data(), a.data,
                               n * sizeof(float)) == 0)) {
        return *e;
    }
    if (!e) {
        if (entries_.size() < kCapacity) {
            e = &entries_.emplace_back();
        } else {
            e = &entries_[nextEvict_];
            nextEvict_ = (nextEvict_ + 1) % kCapacity;
        }
    }

    e->src = a.data;
    e->rows = a.rows;
    e->cols = a.cols;
    e->transposed = transposed;
    e->fmt = f;
    e->frac = frac;
    e->snapshot.assign(a.data, a.data + n);
    e->sats = 0;
    const int outs = transposed ? a.cols : a.rows;
    const int inner = transposed ? a.rows : a.cols;
    if (f == NumericFormat::BF16) {
        e->fixed.clear();
        e->bf16.resize(n);
        for (int o = 0; o < outs; ++o)
            for (int k = 0; k < inner; ++k)
                e->bf16[static_cast<size_t>(o) * inner + k] =
                    toBf16(opElem(a, transposed, o, k));
    } else {
        const Grid g(f, frac);
        e->bf16.clear();
        e->fixed.resize(n);
        for (int o = 0; o < outs; ++o)
            for (int k = 0; k < inner; ++k)
                e->fixed[static_cast<size_t>(o) * inner + k] =
                    static_cast<int32_t>(
                        g.quantize(opElem(a, transposed, o, k), e->sats));
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

void
gemv(NumericFormat f, const Scaling &s, Counters &c, OperandCache &cache,
     Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    gemvAny(f, s, c, cache, y, a, x, alpha, beta, false, plainStore);
}

void
gemvT(NumericFormat f, const Scaling &s, Counters &c, OperandCache &cache,
      Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    gemvAny(f, s, c, cache, y, a, x, alpha, beta, true, plainStore);
}

void
saxpby(NumericFormat f, const Scaling &s, Counters &c, Mat out, float sa,
       const Mat &a, float sb, const Mat &b)
{
    checkNarrow(f);
    const int n = out.size();
    if (f == NumericFormat::BF16) {
        for (int i = 0; i < n; ++i) {
            out.data[i] = toBf16(sa * toBf16(a.data[i]) +
                                 sb * toBf16(b.data[i]));
        }
        return;
    }
    const SaxpbyGrids g(f, s.saxpby);
    uint64_t sats = 0;
    for (int i = 0; i < n; ++i)
        out.data[i] = g.apply(sa, a.data[i], sb, b.data[i], sats);
    c.quantSats += sats;
}

void
gemvSaxpby(NumericFormat f, const Scaling &s, Counters &c,
           OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
           float beta, float sa, float sb, const Mat &b)
{
    rtoc_assert(b.isVec() && b.cols == y.cols);
    if (aliasesInput(y, a, x) ||
        !disjoint(y.data, y.cols, b.data, b.cols)) {
        // Aliased operands: the exact two-call sequence.
        gemv(f, s, c, cache, y, a, x, alpha, beta);
        saxpby(f, s, c, y, sa, y, sb, b);
        return;
    }
    if (f == NumericFormat::BF16) {
        gemvAny(f, s, c, cache, y, a, x, alpha, beta, false,
                [&](int i, float v) {
                    return toBf16(sa * toBf16(v) + sb * toBf16(b.data[i]));
                });
        return;
    }
    const SaxpbyGrids g(f, s.saxpby);
    uint64_t sats = 0;
    gemvAny(f, s, c, cache, y, a, x, alpha, beta, false,
            [&](int i, float v) {
                return g.apply(sa, v, sb, b.data[i], sats);
            });
    c.quantSats += sats;
}

} // namespace fx

} // namespace rtoc::matlib
