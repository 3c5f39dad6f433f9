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

using detail::accAddSat;
using detail::FixedOut;
using detail::Grid;
using detail::IVec;
using detail::LaneGrid;
using detail::load;
using detail::magnitudeBits;
using detail::PlainStore;
using detail::SaxpbyGrids;
using detail::SaxpbyLanes;
using detail::SaxpbyStore;
using detail::store;

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

void
checkNarrow(NumericFormat f)
{
    if (f == NumericFormat::F32)
        rtoc_panic("fx kernels: f32 runs on the ref:: kernels");
}

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

/** The fixed-point rows at run-time shape (detail::fixedRows<F, 0, 0>). */
template <NumericFormat F, typename Store>
__attribute__((noinline)) void
fixedRowsAnyShape(const KernelSpec &s, Counters &c, OperandCache &cache,
                  const QuantizedMat &e, Mat y, Mat x, float alpha,
                  float beta, Store &st)
{
    detail::fixedRows<F, 0, 0>(s, c, cache, e, y, x, alpha, beta, st);
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
 * The dispatchers below serve every call at run-time format and shape
 * (the fixed-shape bf16 and int16 calls inline the same rows; see the
 * header). They call every format's rows as a function of its own (the
 * noinline attributes above): inlined together into one dispatcher,
 * they made each small call 10-20 ns slower on the portable build,
 * which set up all of them before branching.
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
        fixedRowsAnyShape<NumericFormat::I16>(s, c, cache, e, y, x, alpha,
                                              beta, plain);
    } else {
        fixedRowsAnyShape<NumericFormat::I32>(s, c, cache, e, y, x, alpha,
                                              beta, plain);
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
    IVec lanes{};
    int i = 0;
    if (SaxpbyLanes::exact(f, s.saxpby) &&
        sameOrDisjoint(out.data, a.data, n) &&
        sameOrDisjoint(out.data, b.data, n)) {
        const SaxpbyLanes l(s.saxpby);
        for (; i + kPackLanes <= n; i += kPackLanes) {
            store(out.data + i, l.apply(sa, load(a.data + i), sb,
                                        load(b.data + i), lanes));
        }
    }
    for (; i < n; ++i)
        out.data[i] = g.apply(sa, a.data[i], sb, b.data[i], sats);
    c.quantSats += sats + detail::countLanes(lanes);
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
        fixedRowsAnyShape<NumericFormat::I16>(s.gemv, c, cache, e, y, x,
                                              alpha, beta, st);
    else
        fixedRowsAnyShape<NumericFormat::I32>(s.gemv, c, cache, e, y, x,
                                              alpha, beta, st);
    c.quantSats += st.total();
}

} // namespace fx

} // namespace rtoc::matlib
