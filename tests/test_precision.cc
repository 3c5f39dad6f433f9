/**
 * @file
 * Numeric-format axis tests: fixed-point kernels stay within the
 * error bounds their Q-format schedules imply, saturation telemetry
 * fires on engineered overflow, the quantize-once kernels reproduce
 * the per-MAC reference bit for bit (counters included) and their
 * operand cache never serves a stale matrix, narrow-format episodes
 * reproduce pinned results, the float32 path is bit-identical
 * whether the format is defaulted or set explicitly, narrow streams
 * survive schedule search and batched replay bit-exactly, formats
 * round-trip through the program codec / disk cache under distinct
 * keys, the DSE format axis enumerates without disturbing the
 * single-format default, and format names parse back while anything
 * else is rejected.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hh"
#include "common/random.hh"
#include "cpu/inorder.hh"
#include "dse/design_space.hh"
#include "hil/episode.hh"
#include "hil/timing.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "isa/sched_search.hh"
#include "isa/schedule.hh"
#include "matlib/fixed.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "plant/registry.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

using matlib::Mat;
using matlib::NumericFormat;
namespace fx = matlib::fx;

/** Owned random-filled matrix with entries in [-scale, scale]. */
struct TestMat
{
    std::vector<float> data;
    int rows, cols;

    TestMat(int r, int c, Rng &rng, float scale = 1.0f)
        : data(static_cast<size_t>(r) * c), rows(r), cols(c)
    {
        for (auto &v : data)
            v = static_cast<float>(rng.uniform(-1.0, 1.0)) * scale;
    }

    Mat view() { return {data.data(), rows, cols}; }
};

bool
samePrograms(const isa::Program &a, const isa::Program &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a.uop(i) != b.uop(i))
            return false;
    return true;
}

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/rtoc-precision-test-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp/rtoc-precision-test-fallback";
}

// --- fixed-point kernel error bounds ---

/**
 * Worst-case gemv error the Q-format schedule implies: operand
 * rounding (half an LSB each) amplified through an n-term dot
 * product, plus output-grid rounding. Saturation-free by
 * construction (asserted), so the bound is purely quantization.
 */
double
gemvErrorBound(const fx::KernelSpec &s, int n, double a_max,
               double x_max, double alpha, double beta)
{
    double ea = std::ldexp(0.5, -s.aFrac); // operand LSB/2
    double ex = std::ldexp(0.5, -s.xFrac);
    double eo = std::ldexp(0.5, -s.outFrac);
    double dot = n * (a_max * ex + x_max * ea + ea * ex);
    // beta*y is quantized onto the x grid before the accumulate.
    return std::abs(alpha) * dot + std::abs(beta) * ex + 2.0 * eo;
}

TEST(FxKernels, GemvWithinDerivedBound)
{
    for (NumericFormat f : {NumericFormat::I16, NumericFormat::I32}) {
        Rng rng(7);
        const int n = 12;
        TestMat a(n, n, rng), x(1, n, rng), y(1, n, rng);
        TestMat y_ref = y;

        fx::Scaling s = fx::Scaling::forRanges(f, 1.0, 1.0,
                                               static_cast<double>(n));
        fx::Counters c;
        fx::OperandCache cache;
        fx::gemv(f, s, c, cache, y.view(), a.view(), x.view(), 1.0f,
                 0.5f);
        matlib::ref::gemv(y_ref.view(), a.view(), x.view(), 1.0f, 0.5f);

        EXPECT_EQ(c.quantSats, 0u) << matlib::formatName(f);
        EXPECT_EQ(c.accSats, 0u) << matlib::formatName(f);
        double bound = gemvErrorBound(s.gemv, n, 1.0, 1.0, 1.0, 0.5);
        // The float32 reference rounds too: when the fixed-point grid
        // is finer than float ulps (int32), its own accumulation
        // error shows up in the comparison.
        double f32_slack = 2.0 * n * std::ldexp(double(n), -23);
        for (int i = 0; i < n; ++i) {
            EXPECT_NEAR(y.view()[i], y_ref.view()[i], bound + f32_slack)
                << matlib::formatName(f) << " elem " << i;
        }
        // int32 must be far tighter than int16 would allow.
        if (f == NumericFormat::I32) {
            EXPECT_LT(bound, 1e-5);
        }
    }
}

TEST(FxKernels, GemvTAndSaxpbyWithinDerivedBound)
{
    Rng rng(11);
    const int n = 10;
    TestMat a(n, n, rng), x(1, n, rng), y(1, n, rng);
    TestMat y_ref = y;
    fx::Scaling s = fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0,
                                           static_cast<double>(n));
    fx::Counters c;
    fx::OperandCache cache;
    fx::gemvT(NumericFormat::I16, s, c, cache, y.view(), a.view(),
              x.view(), 0.7f, 1.0f);
    matlib::ref::gemvT(y_ref.view(), a.view(), x.view(), 0.7f, 1.0f);
    EXPECT_EQ(c.accSats, 0u);
    double bound = gemvErrorBound(s.gemvT, n, 1.0, 1.0, 0.7, 1.0);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(y.view()[i], y_ref.view()[i], bound) << i;

    TestMat u(1, n, rng), v(1, n, rng), out(1, n, rng);
    TestMat out_ref = out;
    fx::saxpby(NumericFormat::I16, s, c, out.view(), 0.5f, u.view(),
               -0.25f, v.view());
    matlib::ref::saxpby(out_ref.view(), 0.5f, u.view(), -0.25f,
                        v.view());
    double sb = gemvErrorBound(s.saxpby, 1, 1.0, 1.0, 0.5, 0.25);
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(out.view()[i], out_ref.view()[i], sb) << i;
}

TEST(FxKernels, Bf16TracksFloatAtHalfMantissa)
{
    Rng rng(3);
    const int n = 12;
    TestMat a(n, n, rng), x(1, n, rng), y(1, n, rng);
    TestMat y_ref = y;
    fx::Scaling s; // unused by bf16
    fx::Counters c;
    fx::OperandCache cache;
    fx::gemv(NumericFormat::BF16, s, c, cache, y.view(), a.view(),
             x.view(), 1.0f, 0.0f);
    matlib::ref::gemv(y_ref.view(), a.view(), x.view(), 1.0f, 0.0f);
    EXPECT_EQ(c.quantSats + c.accSats, 0u); // bf16 never saturates
    // 8-bit mantissa: relative 2^-8 per operand through an n-term dot.
    double bound = n * 2.0 * std::ldexp(1.0, -8) * 1.0 * 1.0 + 1e-6;
    for (int i = 0; i < n; ++i)
        EXPECT_NEAR(y.view()[i], y_ref.view()[i], bound) << i;
}

TEST(FxKernels, SaturationCountersFireOnEngineeredOverflow)
{
    Rng rng(5);
    const int n = 8;
    // Declare ranges of 1.0 but feed operands of magnitude ~100: the
    // quantizer must clamp onto the declared grid.
    TestMat a(n, n, rng, 100.0f), x(1, n, rng), y(1, n, rng);
    fx::Scaling s = fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0,
                                           static_cast<double>(n));
    fx::Counters c;
    fx::OperandCache cache;
    fx::gemv(NumericFormat::I16, s, c, cache, y.view(), a.view(),
             x.view(), 1.0f, 0.0f);
    EXPECT_GT(c.quantSats, 0u);
    for (int i = 0; i < n; ++i)
        EXPECT_TRUE(std::isfinite(y.view()[i])) << i; // clamped, not NaN

    // Same-sign products against a tiny declared accumulator range:
    // the saturating accumulate must clamp (and count).
    TestMat ap(1, 64, rng), xp(1, 64, rng), yp(1, 1, rng);
    for (int i = 0; i < 64; ++i) {
        ap.view()[i] = 0.9f;
        xp.view()[i] = 0.9f;
    }
    fx::Scaling tight =
        fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0, 1.0);
    fx::Counters c2;
    fx::gemv(NumericFormat::I16, tight, c2, cache, yp.view(),
             Mat(ap.data.data(), 1, 64), xp.view(), 1.0f, 0.0f);
    EXPECT_GT(c2.accSats, 0u);
}

// --- quantize-once datapath vs the per-MAC oracle ---

/**
 * Verbatim copy of the per-MAC fixed-point kernels the quantize-once
 * datapath replaced: both operands are re-quantized through double
 * ldexp/llround at every MAC, and the fused pair runs as two calls.
 * The production kernels must match it bit for bit, counters included,
 * wherever it is well defined. It is not for left-shift schedules
 * (outFrac > aFrac + xFrac) or for an int64 accumulator saturated at
 * INT64_MIN/MAX, where its shifts overflow; those cases have their own
 * tests below.
 */
namespace oracle {

using fx::Counters;
using fx::KernelSpec;
using fx::Scaling;
using fx::toBf16;

int
magnitudeBits(NumericFormat f)
{
    return f == NumericFormat::I16 ? 15 : 31;
}

int64_t
quantizeSat(NumericFormat f, float v, int frac, uint64_t &sat_count)
{
    const int64_t lim = (int64_t{1} << magnitudeBits(f)) - 1;
    double scaled = static_cast<double>(v) * std::ldexp(1.0, frac);
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
    return std::llround(scaled);
}

float
dequantize(int64_t q, int frac)
{
    return static_cast<float>(std::ldexp(static_cast<double>(q), -frac));
}

int64_t
accAddSat(NumericFormat f, int64_t acc, int64_t prod, uint64_t &sat_count)
{
    if (f == NumericFormat::I16) {
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
    }
    int64_t sum;
    if (__builtin_add_overflow(acc, prod, &sum)) {
        ++sat_count;
        return acc > 0 ? INT64_MAX : INT64_MIN;
    }
    return sum;
}

int64_t
shiftRoundSat(NumericFormat f, int64_t acc, int shift, uint64_t &sat_count)
{
    int64_t v = acc;
    if (shift > 0) {
        const int64_t half = int64_t{1} << (shift - 1);
        // Round half away from zero, matching llround in the quantizer.
        v = v >= 0 ? (v + half) >> shift : -((-v + half) >> shift);
    } else if (shift < 0) {
        v <<= -shift;
    }
    const int64_t lim = (int64_t{1} << magnitudeBits(f)) - 1;
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

float
fxDot(NumericFormat f, const KernelSpec &s, Counters &c, const Mat &a,
      int row, Mat x, bool transposed)
{
    const int n = x.cols;
    int64_t acc = 0;
    for (int j = 0; j < n; ++j) {
        float av = transposed ? a.at(j, row) : a.at(row, j);
        int64_t qa = quantizeSat(f, av, s.aFrac, c.quantSats);
        int64_t qx = quantizeSat(f, x[j], s.xFrac, c.quantSats);
        acc = accAddSat(f, acc, qa * qx, c.accSats);
    }
    int64_t q = shiftRoundSat(f, acc, s.aFrac + s.xFrac - s.outFrac,
                              c.accSats);
    return dequantize(q, s.outFrac);
}

float
fxStore(NumericFormat f, const KernelSpec &s, Counters &c, float v)
{
    return dequantize(quantizeSat(f, v, s.outFrac, c.quantSats),
                      s.outFrac);
}

float
bfDot(const Mat &a, int row, Mat x, bool transposed)
{
    const int n = x.cols;
    float acc = 0.0f;
    for (int j = 0; j < n; ++j) {
        float av = transposed ? a.at(j, row) : a.at(row, j);
        acc += toBf16(av) * toBf16(x[j]);
    }
    return acc;
}

void
gemvAny(NumericFormat f, const Scaling &sc, Counters &c, Mat y,
        const Mat &a, Mat x, float alpha, float beta, bool transposed)
{
    const KernelSpec &s = transposed ? sc.gemvT : sc.gemv;
    const int m = y.cols;
    for (int i = 0; i < m; ++i) {
        if (f == NumericFormat::BF16) {
            float dot = bfDot(a, i, x, transposed);
            y[i] = toBf16(alpha * dot + beta * toBf16(y[i]));
        } else {
            float dot = fxDot(f, s, c, a, i, x, transposed);
            y[i] = fxStore(f, s, c, alpha * dot + beta * y[i]);
        }
    }
}

void
saxpby(NumericFormat f, const Scaling &s, Counters &c, Mat out, float sa,
       const Mat &a, float sb, const Mat &b)
{
    const int n = out.size();
    Mat af(a.data, 1, n), bf(b.data, 1, n), of(out.data, 1, n);
    for (int i = 0; i < n; ++i) {
        if (f == NumericFormat::BF16) {
            of[i] = toBf16(sa * toBf16(af[i]) + sb * toBf16(bf[i]));
        } else {
            float av = dequantize(
                quantizeSat(f, af[i], s.saxpby.aFrac, c.quantSats),
                s.saxpby.aFrac);
            float bv = dequantize(
                quantizeSat(f, bf[i], s.saxpby.xFrac, c.quantSats),
                s.saxpby.xFrac);
            of[i] = fxStore(f, s.saxpby, c, sa * av + sb * bv);
        }
    }
}

void
gemvSaxpby(NumericFormat f, const Scaling &s, Counters &c, Mat y,
           const Mat &a, Mat x, float alpha, float beta, float sa,
           float sb, const Mat &b)
{
    oracle::gemvAny(f, s, c, y, a, x, alpha, beta, false);
    oracle::saxpby(f, s, c, y, sa, y, sb, b);
}

} // namespace oracle

enum class Kernel { Gemv, GemvT, Saxpby, GemvSaxpby };

const char *
kernelName(Kernel k)
{
    switch (k) {
      case Kernel::Gemv: return "gemv";
      case Kernel::GemvT: return "gemvT";
      case Kernel::Saxpby: return "saxpby";
      case Kernel::GemvSaxpby: return "gemvSaxpby";
    }
    return "?";
}

/**
 * One fx kernel call with every operand in one buffer, so tests can
 * lay operands out disjoint or overlapping. A is rows x cols (saxpby
 * uses vectors of length cols as a, b and the output).
 */
struct FxCall
{
    Kernel kernel = Kernel::Gemv;
    NumericFormat fmt = NumericFormat::I16;
    fx::Scaling scaling;
    int rows = 1;
    int cols = 1;
    float alpha = 1.0f, beta = 0.0f, sa = 1.0f, sb = 1.0f;
    std::vector<float> mem;
    size_t aOff = 0, xOff = 0, yOff = 0, bOff = 0;

    bool saxpbyOnly() const { return kernel == Kernel::Saxpby; }
    int aLen() const { return saxpbyOnly() ? cols : rows * cols; }
    int xLen() const
    {
        return saxpbyOnly() ? 0 : (kernel == Kernel::GemvT ? rows : cols);
    }
    int yLen() const
    {
        return kernel == Kernel::GemvT || saxpbyOnly() ? cols : rows;
    }

    Mat aMat(float *base) const
    {
        return saxpbyOnly() ? Mat(base + aOff, 1, cols)
                            : Mat(base + aOff, rows, cols);
    }
    Mat xMat(float *base) const { return {base + xOff, 1, xLen()}; }
    Mat yMat(float *base) const { return {base + yOff, 1, yLen()}; }
    Mat bMat(float *base) const { return {base + bOff, 1, yLen()}; }

    /** The kernel's grid schedule (gemvSaxpby's gemv half). */
    const fx::KernelSpec &spec() const
    {
        return kernel == Kernel::GemvT ? scaling.gemvT : scaling.gemv;
    }
};

/** A call with a, x, y and b laid out back to back (all zero). */
FxCall
disjointCall(Kernel k, NumericFormat f, const fx::Scaling &s, int rows,
             int cols)
{
    FxCall c;
    c.kernel = k;
    c.fmt = f;
    c.scaling = s;
    c.rows = rows;
    c.cols = cols;
    c.aOff = 0;
    c.xOff = c.aOff + static_cast<size_t>(c.aLen());
    c.yOff = c.xOff + static_cast<size_t>(c.xLen());
    c.bOff = c.yOff + static_cast<size_t>(c.yLen());
    c.mem.assign(c.bOff + static_cast<size_t>(c.yLen()), 0.0f);
    return c;
}

/** Buffer and counters after each of two back-to-back calls. */
struct FxRun
{
    std::vector<std::vector<float>> mem;
    std::vector<fx::Counters> counters;
};

/**
 * Run @p k twice in a row (the second call sees the first's output as
 * y), on the oracle or on the production kernels with one cache — so
 * the second production call is a cache hit.
 */
FxRun
runTwice(const FxCall &k, bool use_oracle)
{
    std::vector<float> mem = k.mem;
    float *base = mem.data();
    Mat a = k.aMat(base), x = k.xMat(base), y = k.yMat(base),
        b = k.bMat(base);
    fx::Counters c;
    fx::OperandCache cache;
    FxRun run;
    for (int rep = 0; rep < 2; ++rep) {
        switch (k.kernel) {
          case Kernel::Gemv:
            if (use_oracle)
                oracle::gemvAny(k.fmt, k.scaling, c, y, a, x, k.alpha,
                                k.beta, false);
            else
                fx::gemv(k.fmt, k.scaling, c, cache, y, a, x, k.alpha,
                         k.beta);
            break;
          case Kernel::GemvT:
            if (use_oracle)
                oracle::gemvAny(k.fmt, k.scaling, c, y, a, x, k.alpha,
                                k.beta, true);
            else
                fx::gemvT(k.fmt, k.scaling, c, cache, y, a, x, k.alpha,
                          k.beta);
            break;
          case Kernel::Saxpby:
            if (use_oracle)
                oracle::saxpby(k.fmt, k.scaling, c, y, k.sa, a, k.sb, b);
            else
                fx::saxpby(k.fmt, k.scaling, c, y, k.sa, a, k.sb, b);
            break;
          case Kernel::GemvSaxpby:
            if (use_oracle)
                oracle::gemvSaxpby(k.fmt, k.scaling, c, y, a, x, k.alpha,
                                   k.beta, k.sa, k.sb, b);
            else
                fx::gemvSaxpby(k.fmt, k.scaling, c, cache, y, a, x,
                               k.alpha, k.beta, k.sa, k.sb, b);
            break;
        }
        run.mem.push_back(mem);
        run.counters.push_back(c);
    }
    return run;
}

/**
 * Bitwise equality, signed zeros included. NaNs compare equal to each
 * other: C++ leaves NaN signs and payloads unspecified, and the
 * compiler may commute the operands of an add or multiply, so which
 * of two NaN operands propagates is not a property of the source.
 */
bool
sameBits(const std::vector<float> &got, const std::vector<float> &want)
{
    if (got.size() != want.size())
        return false;
    for (size_t i = 0; i < want.size(); ++i) {
        if (std::isnan(got[i]) && std::isnan(want[i]))
            continue;
        if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0)
            return false;
    }
    return true;
}

/**
 * Whether the oracle is well defined on @p k: a non-negative shift and,
 * on i32, an int64 accumulator that provably never saturates (every
 * product at most the clamped operand magnitudes).
 */
bool
oracleDefined(const FxCall &k)
{
    if (k.fmt == NumericFormat::BF16)
        return true;
    const fx::KernelSpec &s = k.spec();
    if (s.outFrac > s.aFrac + s.xFrac)
        return false;
    if (k.fmt != NumericFormat::I32 || k.saxpbyOnly())
        return true;
    auto q_max = [&](size_t off, int len, int frac) {
        double m = 0.0;
        for (int i = 0; i < len; ++i) {
            const float v = k.mem[off + static_cast<size_t>(i)];
            const double q = std::isfinite(v)
                                 ? std::fabs(std::ldexp(double(v), frac))
                                 : 0x1p31;
            m = std::max(m, std::min(q, 0x1p31));
        }
        return m;
    };
    const int inner = k.kernel == Kernel::GemvT ? k.rows : k.cols;
    return inner * q_max(k.aOff, k.aLen(), s.aFrac) *
               q_max(k.xOff, k.xLen(), s.xFrac) <
           0x1p62;
}

/** A narrow-format scalar backend with a calibrated schedule. */
std::unique_ptr<matlib::Backend>
narrowBackend(NumericFormat f, const fx::Scaling &s)
{
    auto b = std::make_unique<matlib::ScalarBackend>(
        matlib::ScalarFlavor::Optimized);
    b->setFormat(f);
    b->setFixedScaling(s);
    return b;
}

/**
 * runTwice through the fixed-shape entry points of a narrow backend, as
 * the solver's passes call them: gemv and gemvSaxpby at <M, N> on the
 * bf16 datapath (Datapath::Bf16), the int16 one (Datapath::I16) or, at
 * i32, the run-time one, and gemvT<M, N>.
 */
template <int M, int N>
FxRun
runTwiceFixed(const FxCall &k)
{
    using matlib::Datapath;
    std::vector<float> mem = k.mem;
    float *base = mem.data();
    Mat a = k.aMat(base), x = k.xMat(base), y = k.yMat(base),
        b = k.bMat(base);
    const matlib::PackedMat pa{a};
    auto backend = narrowBackend(k.fmt, k.scaling);
    FxRun run;
    for (int rep = 0; rep < 2; ++rep) {
        switch (k.kernel) {
          case Kernel::Gemv:
            if (k.fmt == NumericFormat::BF16)
                backend->gemv<M, N, Datapath::Bf16>(y, pa, x, k.alpha,
                                                    k.beta);
            else if (k.fmt == NumericFormat::I16)
                backend->gemv<M, N, Datapath::I16>(y, pa, x, k.alpha,
                                                   k.beta);
            else
                backend->gemv<M, N>(y, pa, x, k.alpha, k.beta);
            break;
          case Kernel::GemvT:
            backend->gemvT<M, N>(y, a, x, k.alpha, k.beta);
            break;
          case Kernel::GemvSaxpby:
            if (k.fmt == NumericFormat::BF16) {
                backend->gemvSaxpby<M, N, Datapath::Bf16>(
                    y, pa, x, k.alpha, k.beta, k.sa, k.sb, b);
            } else if (k.fmt == NumericFormat::I16) {
                backend->gemvSaxpby<M, N, Datapath::I16>(
                    y, pa, x, k.alpha, k.beta, k.sa, k.sb, b);
            } else {
                backend->gemvSaxpby<M, N>(y, pa, x, k.alpha, k.beta, k.sa,
                                          k.sb, b);
            }
            break;
          case Kernel::Saxpby:
            ADD_FAILURE() << "saxpby has no fixed shape";
            break;
        }
        run.mem.push_back(mem);
        run.counters.push_back(backend->fxCounters());
    }
    return run;
}

/** A fixed-shape runner (runTwiceFixed<M, N>) for an M x N operand. */
struct FixedShape
{
    int rows, cols;
    FxRun (*run)(const FxCall &);
};

/** Every gemv operand shape of the registry plants' solver passes. */
const FixedShape kFixedShapes[] = {
    {12, 12, &runTwiceFixed<12, 12>}, {4, 12, &runTwiceFixed<4, 12>},
    {12, 4, &runTwiceFixed<12, 4>},   {4, 4, &runTwiceFixed<4, 4>},
    {6, 6, &runTwiceFixed<6, 6>},     {3, 6, &runTwiceFixed<3, 6>},
    {6, 3, &runTwiceFixed<6, 3>},     {3, 3, &runTwiceFixed<3, 3>},
    {5, 5, &runTwiceFixed<5, 5>},     {2, 5, &runTwiceFixed<2, 5>},
    {5, 2, &runTwiceFixed<5, 2>},     {2, 2, &runTwiceFixed<2, 2>},
    {1, 4, &runTwiceFixed<1, 4>},     {4, 1, &runTwiceFixed<4, 1>},
    {1, 1, &runTwiceFixed<1, 1>},
};

/** The fixed-shape runner for a rows x cols operand, else null. */
const FixedShape *
fixedShapeOf(int rows, int cols)
{
    for (const FixedShape &fs : kFixedShapes) {
        if (fs.rows == rows && fs.cols == cols)
            return &fs;
    }
    return nullptr;
}

/**
 * Expect the production kernels to reproduce the oracle on @p k: every
 * buffer bit (see sameBits) and both counters, after each of two calls.
 * The production side is the fx:: kernels, or @p fixed when given.
 * Returns false (checking nothing) where the oracle is undefined.
 */
bool
expectMatchesOracle(const FxCall &k, const std::string &what,
                    const FixedShape *fixed = nullptr)
{
    if (!oracleDefined(k))
        return false;
    const FxRun want = runTwice(k, true);
    const FxRun got = fixed ? fixed->run(k) : runTwice(k, false);
    const std::string tag = what + " " + kernelName(k.kernel) + " " +
                            matlib::formatName(k.fmt);
    for (size_t r = 0; r < want.mem.size(); ++r) {
        EXPECT_TRUE(sameBits(got.mem[r], want.mem[r]))
            << tag << " call " << r;
        EXPECT_EQ(got.counters[r].quantSats, want.counters[r].quantSats)
            << tag << " call " << r;
        EXPECT_EQ(got.counters[r].accSats, want.counters[r].accSats)
            << tag << " call " << r;
    }
    return true;
}

/**
 * expectMatchesOracle on the fx:: kernels and, when @p k's operand has
 * a registry shape, on the fixed-shape entry points too.
 */
bool
expectBothMatchOracle(const FxCall &k, const std::string &what)
{
    const bool checked = expectMatchesOracle(k, what);
    if (const FixedShape *fs = fixedShapeOf(k.rows, k.cols);
        fs && !k.saxpbyOnly())
        expectMatchesOracle(k, what + " fixed", fs);
    return checked;
}

/** Schedules that leave the operands unclamped, saturate the
 *  accumulator/output, and clamp unit-scale operands. */
std::vector<fx::Scaling>
oracleScalings(NumericFormat f, int inner)
{
    if (f == NumericFormat::BF16)
        return {fx::Scaling()};
    return {fx::Scaling::forRanges(f, 4.0, 4.0, 4.0 * inner),
            fx::Scaling::forRanges(f, 4.0, 4.0, 0.5),
            fx::Scaling::forRanges(f, 0.25, 0.25, 2.0)};
}

struct Scalars
{
    float alpha, beta, sa, sb;
};

constexpr Scalars kScalars[] = {
    {1.0f, 0.0f, 1.0f, -1.0f},
    {-1.0f, 1.0f, 1.0f, 1.0f},
    {0.7f, -0.3f, -5.3f, 5.3f},
};

constexpr NumericFormat kNarrow[] = {NumericFormat::I16,
                                     NumericFormat::I32,
                                     NumericFormat::BF16};

constexpr Kernel kKernels[] = {Kernel::Gemv, Kernel::GemvT,
                               Kernel::Saxpby, Kernel::GemvSaxpby};

TEST(FxOracle, RandomShapesMatchPerMacKernelsBitForBit)
{
    // Every registry (nx, nu) shape and the wide nx=100 one: the
    // solver's nx x nx, nu x nx, nx x nu and nu x nu operands. The
    // registry shapes also run through the fixed-shape entry points.
    std::vector<std::pair<int, int>> shapes;
    for (auto [nx, nu] : std::vector<std::pair<int, int>>{
             {12, 4}, {6, 3}, {5, 2}, {4, 1}, {100, 4}}) {
        shapes.insert(shapes.end(),
                      {{nx, nx}, {nu, nx}, {nx, nu}, {nu, nu}});
    }
    Rng shape_rng(2024);
    for (int i = 0; i < 8; ++i) {
        shapes.emplace_back(1 + static_cast<int>(shape_rng.next() % 20),
                            1 + static_cast<int>(shape_rng.next() % 20));
    }

    Rng rng(99), wide(7);
    std::map<NumericFormat, int> compared, fixed;
    for (NumericFormat f : kNarrow) {
        for (auto [rows, cols] : shapes) {
            for (const fx::Scaling &s : oracleScalings(f, rows + cols)) {
                // Unit and 3x magnitudes, and (scale 0) ±2^-12, ±1 and
                // ±2^12: their products ±2^24 cancel and absorb the
                // ±1 products between them, so a float sum in any other
                // order lands on a different bf16 value.
                for (float scale : {1.0f, 3.0f, 0.0f}) {
                    for (const Scalars &sc : kScalars) {
                        for (Kernel k : kKernels) {
                            FxCall c = disjointCall(k, f, s, rows, cols);
                            for (float &v : c.mem) {
                                if (scale > 0.0f) {
                                    v = scale * static_cast<float>(
                                                    rng.uniform(-1.0, 1.0));
                                    continue;
                                }
                                const int binade =
                                    static_cast<int>(wide.next() % 3) - 1;
                                v = std::ldexp(wide.next() % 2 ? -1.0f : 1.0f,
                                               12 * binade);
                            }
                            c.alpha = sc.alpha;
                            c.beta = sc.beta;
                            c.sa = sc.sa;
                            c.sb = sc.sb;
                            std::string what =
                                std::to_string(rows) + "x" +
                                std::to_string(cols);
                            compared[f] += expectMatchesOracle(c, what);
                            if (const FixedShape *fs =
                                    fixedShapeOf(rows, cols);
                                fs && k != Kernel::Saxpby) {
                                fixed[f] += expectMatchesOracle(
                                    c, what + " fixed", fs);
                            }
                        }
                    }
                }
            }
        }
    }
    // The i32 overflow guard must leave most of the sweep compared.
    for (NumericFormat f : kNarrow) {
        EXPECT_GT(compared[f], 500) << matlib::formatName(f);
        EXPECT_GT(fixed[f], 250) << matlib::formatName(f);
    }
}

TEST(FxOracle, EngineeredOperandsMatchPerMacKernels)
{
    for (NumericFormat f : kNarrow) {
        const fx::Scaling s = fx::Scaling::forRanges(f, 1.0, 1.0, 8.0);
        const int frac = s.gemv.aFrac;
        const double lim = f == NumericFormat::I16 ? 32767.0
                                                   : 2147483647.0;
        auto grid = [&](double q) {
            return static_cast<float>(std::ldexp(q, -frac));
        };
        // Exact element bounds (in range, not counted) and one step
        // past them (clamped, counted), .5 ties of both signs, signed
        // zeros, subnormals, NaN and the infinities.
        const std::vector<float> special = {
            grid(lim), grid(lim + 1), grid(-lim - 1), grid(-lim - 2),
            grid(0.5), grid(-0.5), grid(2.5), grid(-2.5), grid(7.5),
            grid(-7.5), 0.0f, -0.0f, 1e-40f, -1e-40f,
            std::numeric_limits<float>::quiet_NaN(),
            std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity(),
            std::numeric_limits<float>::max()};
        Rng rng(17);
        auto moderate = [&] {
            return static_cast<float>(rng.uniform(-1.0, 1.0));
        };
        size_t pick = 0;
        auto engineered = [&] { return special[pick++ % special.size()]; };

        for (Kernel k : kKernels) {
            // 9 x 10 puts special values in whole four-lane vectors and
            // in the tail lanes of every operand and output. The
            // registry shapes run the fixed-shape entry points too: whole
            // lanes only (12 x 12, 4 x 12), tails only (5 x 2), both
            // (6 x 6, 5 x 5).
            for (auto [rows, cols] :
                 {std::pair{6, 7}, std::pair{9, 10}, std::pair{12, 12},
                  std::pair{4, 12}, std::pair{5, 2}, std::pair{6, 6},
                  std::pair{5, 5}}) {
                for (int layout = 0; layout < 3; ++layout) {
                    // Special values in A only, in x only, or everywhere.
                    FxCall c = disjointCall(k, f, s, rows, cols);
                    for (size_t i = 0; i < c.mem.size(); ++i) {
                        const bool in_a =
                            i >= c.aOff &&
                            i < c.aOff + static_cast<size_t>(c.aLen());
                        const bool special_here =
                            layout == 2 || (layout == 0) == in_a;
                        c.mem[i] = special_here ? engineered() : moderate();
                    }
                    c.alpha = 0.75f;
                    c.beta = -1.5f;
                    c.sa = 1.25f;
                    c.sb = -0.5f;
                    expectBothMatchOracle(
                        c, std::to_string(rows) + "x" + std::to_string(cols) +
                               " special layout " + std::to_string(layout));
                }
            }

            // The int16 lane bound (see matlib/fixed.hh): a k x k block of
            // 32767-grid products. Two per dot sum to 2 * 32767^2 <=
            // INT32_MAX, inside the bound, so the int32 lanes run; three
            // make the reference chain clamp, so the saturating chain
            // runs.
            for (auto [rows, cols] :
                 {std::pair{5, 9}, std::pair{12, 12}, std::pair{4, 12},
                  std::pair{5, 5}}) {
                if (k == Kernel::Saxpby)
                    break;
                for (int kprod : {2, 3}) {
                    FxCall c = disjointCall(k, f, s, rows, cols);
                    const float top = grid(lim);
                    for (int i = 0; i < kprod; ++i) {
                        c.mem[c.xOff + static_cast<size_t>(i)] = top;
                        for (int j = 0; j < kprod; ++j)
                            c.mem[c.aOff +
                                  static_cast<size_t>(i * c.cols + j)] = top;
                    }
                    const bool checked = expectBothMatchOracle(
                        c, std::to_string(rows) + "x" + std::to_string(cols) +
                               " " + std::to_string(kprod) + " lim products");
                    EXPECT_TRUE(checked || f == NumericFormat::I32);
                    if (f == NumericFormat::I16 && k == Kernel::Gemv) {
                        // The accumulator clamps only at three products.
                        const fx::Counters oc = runTwice(c, true).counters[0];
                        EXPECT_EQ(oc.accSats > 0, kprod == 3) << kprod;
                    }
                }
            }

            // Accumulator saturation: long same-sign (and mixed-sign)
            // dot products against a tight accumulator range. At the
            // registry shapes' 12 columns, operands near the top of the
            // grid make the int16 accumulator clamp.
            const fx::Scaling tight = fx::Scaling::forRanges(f, 1.0, 1.0, 1.0);
            struct Sat
            {
                int rows, cols;
                float big, small;
            };
            for (const Sat &sat : {Sat{3, 64, 0.9f, -0.3f},
                                   Sat{12, 12, 3.6f, -1.2f},
                                   Sat{4, 12, 3.6f, -1.2f}}) {
                for (float sign : {1.0f, -1.0f}) {
                    FxCall c = disjointCall(k, f, tight, sat.rows, sat.cols);
                    for (size_t i = 0; i < c.mem.size(); ++i)
                        c.mem[i] = (i % 5 == 4 ? sat.small : sat.big) * sign;
                    const bool checked = expectBothMatchOracle(
                        c, std::to_string(sat.rows) + "x" +
                               std::to_string(sat.cols) + " acc saturation");
                    EXPECT_TRUE(checked || f == NumericFormat::I32);
                    if (f == NumericFormat::I16 && k != Kernel::GemvT &&
                        k != Kernel::Saxpby) {
                        EXPECT_GT(runTwice(c, true).counters[0].accSats, 0u)
                            << sat.rows << "x" << sat.cols;
                    }
                }
            }
        }
    }
}

TEST(FxOracle, OverlappingOperandsKeepReferenceOrder)
{
    // y overlapping x, overlapping A, and (fused) overlapping b: every
    // row must see the previous rows' stores, as the oracle does.
    // Registry shapes: the fixed-shape entry points must fall back to
    // the reference order too.
    for (NumericFormat f : kNarrow) {
        const fx::Scaling s = fx::Scaling::forRanges(f, 4.0, 4.0, 32.0);
        Rng rng(41);
        for (Kernel k : kKernels) {
            for (auto [rows, cols] :
                 {std::pair{6, 6}, std::pair{12, 12}, std::pair{4, 12},
                  std::pair{12, 4}, std::pair{5, 2}}) {
                if (k == Kernel::Saxpby && rows != 6)
                    break; // no fixed shape; and y would leave the buffer
                for (int layout = 0; layout < 4; ++layout) {
                    FxCall c = disjointCall(k, f, s, rows, cols);
                    switch (layout) {
                      case 0: c.yOff = c.xOff; break;     // y == x
                      case 1: // y shifted on x (a two-element x by one)
                        c.yOff = c.xOff + (c.xLen() == 2 ? 1 : 2);
                        break;
                      case 2: c.yOff = c.aOff + 9; break; // y inside A
                      case 3: c.bOff = c.yOff + 1; break; // b shifted on y
                    }
                    for (float &v : c.mem)
                        v = static_cast<float>(rng.uniform(-1.0, 1.0));
                    c.alpha = 0.5f;
                    c.beta = 0.25f;
                    c.sa = 1.0f;
                    c.sb = -1.0f;
                    EXPECT_TRUE(expectBothMatchOracle(
                        c, std::to_string(rows) + "x" + std::to_string(cols) +
                               " overlap layout " + std::to_string(layout)));
                }
            }
        }

        // Standalone saxpby with out one element after or before a or
        // b: each element reads what the previous store wrote (or is
        // about to overwrite). n = 9 spans whole vectors and a tail.
        for (int shift : {1, -1}) {
            for (bool onto_a : {true, false}) {
                FxCall c = disjointCall(Kernel::Saxpby, f, s, 1, 9);
                c.aOff = 1;                 // room for a - 1
                c.bOff = c.aOff + 9 + 2;    // room between a and b
                c.mem.assign(c.bOff + 9 + 1, 0.0f);
                c.yOff = (onto_a ? c.aOff : c.bOff) + shift;
                for (float &v : c.mem)
                    v = static_cast<float>(rng.uniform(-1.0, 1.0));
                c.sa = 0.75f;
                c.sb = -1.25f;
                EXPECT_TRUE(expectMatchesOracle(
                    c, std::string("saxpby out ") + (onto_a ? "a" : "b") +
                           (shift > 0 ? "+1" : "-1")));
            }
        }
    }
}

TEST(FxKernels, Int64AccumulatorSaturationKeepsSign)
{
    // Two products of ~2^62 overflow the i32 datapath's int64
    // accumulator; the rounding shift must clamp the saturated
    // accumulator with its own sign (and count both clamps).
    const fx::Scaling s =
        fx::Scaling::forRanges(NumericFormat::I32, 1.0, 1.0, 1.0);
    for (float sign : {1.0f, -1.0f}) {
        std::vector<float> a(8, 8.0f * sign), x(8, 8.0f), y(1, 0.0f);
        fx::Counters c;
        fx::OperandCache cache;
        fx::gemv(NumericFormat::I32, s, c, cache, Mat(y.data(), 1, 1),
                 Mat(a.data(), 1, 8), Mat(x.data(), 1, 8), 1.0f, 0.0f);
        const float top = static_cast<float>(
            std::ldexp(2147483647.0, -s.gemv.outFrac));
        EXPECT_EQ(y[0], sign > 0 ? top : -top) << sign;
        EXPECT_GE(c.accSats, 2u) << sign;
    }
}

TEST(FxKernels, LeftShiftScheduleSaturatesAndCounts)
{
    // outFrac > aFrac + xFrac: the accumulator shifts left onto the
    // finer output grid. Values that leave the element range clamp
    // and count like every other arm; zero and in-range values shift
    // exactly.
    struct Case
    {
        NumericFormat f;
        fx::KernelSpec spec;
        float a, x;
        double want; ///< grid value of the result
        uint64_t accSats;
    };
    const double lim16 = 32767.0, lim32 = 2147483647.0;
    const Case cases[] = {
        // i16, shift -8: 16 << 8 = 4096 fits.
        {NumericFormat::I16, {2, 2, 12}, 1.0f, 1.0f, 4096.0, 0},
        // 256 << 8 = 65536 > lim: clamps high; negated clamps low.
        {NumericFormat::I16, {2, 2, 12}, 4.0f, 4.0f, lim16, 1},
        {NumericFormat::I16, {2, 2, 12}, -4.0f, 4.0f, -lim16 - 1, 1},
        // A shift past the element width: only zero survives.
        {NumericFormat::I16, {0, 0, 40}, 1.0f, 1.0f, lim16, 1},
        {NumericFormat::I16, {0, 0, 40}, -1.0f, 1.0f, -lim16 - 1, 1},
        {NumericFormat::I16, {0, 0, 40}, 0.0f, 1.0f, 0.0, 0},
        {NumericFormat::I32, {0, 0, 70}, 3.0f, -2.0f, -lim32 - 1, 1},
        {NumericFormat::I32, {4, 4, 20}, 1.0f, 1.0f, 1048576.0, 0},
    };
    for (const Case &tc : cases) {
        fx::Scaling s;
        s.gemv = tc.spec;
        float a = tc.a, x = tc.x, y = 0.0f;
        fx::Counters c;
        fx::OperandCache cache;
        fx::gemv(tc.f, s, c, cache, Mat(&y, 1, 1), Mat(&a, 1, 1),
                 Mat(&x, 1, 1), 1.0f, 0.0f);
        EXPECT_EQ(y, static_cast<float>(
                         std::ldexp(tc.want, -tc.spec.outFrac)))
            << matlib::formatName(tc.f) << " " << tc.a << "*" << tc.x;
        EXPECT_EQ(c.accSats, tc.accSats) << tc.a << "*" << tc.x;
        EXPECT_EQ(c.quantSats, 0u) << tc.a << "*" << tc.x;
    }
}

// --- operand cache: refresh, rescale, reformat ---

/** Run @p k's kernel once through @p b on @p mem, in place (no
 *  emission); returns the counter increments of the call. */
fx::Counters
backendCall(matlib::Backend &b, const FxCall &k, std::vector<float> &mem)
{
    float *base = mem.data();
    const fx::Counters before = b.fxCounters();
    Mat a = k.aMat(base), x = k.xMat(base), y = k.yMat(base),
        bv = k.bMat(base);
    switch (k.kernel) {
      case Kernel::Gemv: b.gemv(y, a, x, k.alpha, k.beta); break;
      case Kernel::GemvT: b.gemvT(y, a, x, k.alpha, k.beta); break;
      case Kernel::Saxpby: b.saxpby(y, k.sa, a, k.sb, bv); break;
      case Kernel::GemvSaxpby:
        b.gemvSaxpby(y, a, x, k.alpha, k.beta, k.sa, k.sb, bv);
        break;
    }
    fx::Counters d;
    d.quantSats = b.fxCounters().quantSats - before.quantSats;
    d.accSats = b.fxCounters().accSats - before.accSats;
    return d;
}

/**
 * Run @p k on the live buffer @p mem through @p warm (so its cache sees
 * the same operand storage on every call) and expect the buffer and
 * the counter increments a fresh backend produces on a copy.
 */
void
expectMatchesFresh(matlib::Backend &warm, const FxCall &k,
                   std::vector<float> &mem, const std::string &what)
{
    std::vector<float> fresh_mem = mem;
    auto fresh = narrowBackend(warm.format(), warm.fixedScaling());
    const fx::Counters want = backendCall(*fresh, k, fresh_mem);
    const fx::Counters got = backendCall(warm, k, mem);
    const std::string tag = what + " " + kernelName(k.kernel) + " " +
                            matlib::formatName(warm.format());
    EXPECT_TRUE(sameBits(mem, fresh_mem)) << tag;
    EXPECT_EQ(got.quantSats, want.quantSats) << tag;
    EXPECT_EQ(got.accSats, want.accSats) << tag;
}

TEST(FxOperandCache, InPlaceRefreshIsRequantized)
{
    for (NumericFormat f : kNarrow) {
        for (Kernel k : {Kernel::Gemv, Kernel::GemvT,
                         Kernel::GemvSaxpby}) {
            const fx::Scaling s =
                fx::Scaling::forRanges(f, 1.0, 1.0, 12.0);
            FxCall c = disjointCall(k, f, s, 12, 12);
            Rng rng(5);
            for (float &v : c.mem)
                v = static_cast<float>(rng.uniform(-1.5, 1.5));
            std::vector<float> &mem = c.mem;
            float *a = mem.data() + c.aOff;
            auto warm = narrowBackend(f, s);

            expectMatchesFresh(*warm, c, mem, "first");
            const uint64_t fills = warm->fxCache().fills();
            expectMatchesFresh(*warm, c, mem, "unchanged");
            EXPECT_EQ(warm->fxCache().fills(), fills)
                << "an unchanged matrix is served from the cache";

            // Mutate the matrix in place between calls, as
            // Workspace::refreshModel does.
            a[7] += 0.125f;
            expectMatchesFresh(*warm, c, mem, "one element refreshed");
            a[3] = -a[3];
            a[0] = 50.0f; // now clamps
            expectMatchesFresh(*warm, c, mem, "sign flip + new clamp");
            a[5] = 0.0f;
            expectMatchesFresh(*warm, c, mem, "zero");
            a[5] = -0.0f;
            expectMatchesFresh(*warm, c, mem, "signed zero");
            EXPECT_EQ(warm->fxCache().fills(), fills + 4)
                << "every change re-quantizes";
        }
    }
}

TEST(FxOperandCache, ScalingAndFormatChangesRequantize)
{
    for (Kernel k : {Kernel::Gemv, Kernel::GemvT, Kernel::GemvSaxpby}) {
        const fx::Scaling s1 =
            fx::Scaling::forRanges(NumericFormat::I16, 1.0, 1.0, 12.0);
        const fx::Scaling s2 =
            fx::Scaling::forRanges(NumericFormat::I16, 8.0, 1.0, 12.0);
        ASSERT_NE(s1.gemv.aFrac, s2.gemv.aFrac);
        FxCall c = disjointCall(k, NumericFormat::I16, s1, 12, 4);
        Rng rng(8);
        for (float &v : c.mem)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
        std::vector<float> &mem = c.mem;
        auto warm = narrowBackend(NumericFormat::I16, s1);

        expectMatchesFresh(*warm, c, mem, "s1");
        uint64_t fills = warm->fxCache().fills();
        warm->setFixedScaling(s2); // e.g. after a refresh
        expectMatchesFresh(*warm, c, mem, "s2");
        EXPECT_EQ(warm->fxCache().fills(), ++fills);
        warm->setFixedScaling(s1);
        expectMatchesFresh(*warm, c, mem, "back to s1");
        EXPECT_EQ(warm->fxCache().fills(), ++fills);
        warm->setFormat(NumericFormat::I32);
        expectMatchesFresh(*warm, c, mem, "i32, same schedule");
        EXPECT_EQ(warm->fxCache().fills(), ++fills);
        warm->setFixedScaling(fx::Scaling::forRanges(
            NumericFormat::I32, 1.0, 1.0, 12.0));
        expectMatchesFresh(*warm, c, mem, "i32 schedule");
        warm->setFormat(NumericFormat::BF16);
        expectMatchesFresh(*warm, c, mem, "bf16");
        warm->setFormat(NumericFormat::I16);
        warm->setFixedScaling(s1);
        expectMatchesFresh(*warm, c, mem, "i16 again");

        // y overlapping x on the primed backend: no cached operand is
        // used, and the result is the fresh backend's.
        FxCall alias = c;
        alias.yOff = alias.xOff + 1;
        expectMatchesFresh(*warm, alias, mem, "y overlaps x");
        alias.yOff = alias.xOff;
        expectMatchesFresh(*warm, alias, mem, "y == x");
    }
}

// --- narrow-format episode pins ---

/** FNV-1a over the bit patterns of a sample series. */
uint64_t
sampleDigest(const std::vector<double> &v)
{
    uint64_t h = 1469598103934665603ull;
    for (double d : v) {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Every EpisodeResult field of one narrow-format episode. */
struct EpisodePin
{
    const char *spec;
    NumericFormat fmt;
    int success, crashed, waypointsReached;
    double missionTimeS;
    size_t solves;
    uint64_t solveTimesDigest;
    size_t iterSamples;
    uint64_t iterationsDigest;
    double rotorEnergyJ, avgRotorPowerW, socEnergyJ, avgSocPowerW,
        computeUtilization;
    int modelRefreshes, refreshFailures;
    double refreshTimeS, trackingErrM;
    int divergedSolves;
    uint64_t quantSats, accSats;
};

TEST(FormatEpisodePins, NarrowEpisodesReproducePinnedResults)
{
    // One bf16 and one i16 episode per registry plant (the gusty
    // medium spec, relinearized every 5 ticks so the gain matrices
    // are refreshed in place mid-episode), on the vector timing.
    // Recorded with the per-MAC quantizer; doubles are exact hex
    // literals, per-solve series are pinned by count and digest.
    const EpisodePin pins[] = {
        {"quad-crazyflie/medium+gusty", NumericFormat::BF16, 0, 0, 0,
         0x1.1333333333389p+2, 205, 0xaacead6f1da72303ull, 205,
         0x1c154943dfef1a47ull, 0x1.409ebf6b439a9p+2, 0x1.2a4052cef1782p+0,
         0x1.3b1932e41e34ap-5, 0x1.251d64ec04431p-7, 0x1.57757b852b7dp-5, 40,
         0, 0x1.18c1170c0b267p-7, 0x1.c0104a8c75f31p-1, 0, 0ull, 0ull},
        {"quad-crazyflie/medium+gusty", NumericFormat::I16, 0, 1, 0,
         0x1.81111111110ffp+0, 72, 0x07e25224f2936643ull, 72,
         0x813b253cb4951203ull, 0x1.7ce8fbdb8c37fp+0, 0x1.fa79272b02c74p-1,
         0x1.bb09fd999cde3p-7, 0x1.268a8ad07efc2p-7, 0x1.6a81a1cb188f3p-5, 14,
         0, 0x1.8e1e3b5469e5p-8, 0x1.3bb5f3268d129p+0, 0, 2564991ull, 0ull},
        {"rocket-lander/medium+gusty", NumericFormat::BF16, 1, 0, 0,
         0x1.e7fffffffff81p+2, 363, 0x80deb31e2285f891ull, 363,
         0x8ec1f2a82f9f0682ull, 0x1.26d2623c7f12cp+12, 0x1.35523d19b381ap+9,
         0x1.1ed51f2492eb6p-4, 0x1.2cf063d270326p-7, 0x1.bff148930ad9ap-5, 72,
         0, 0x1.7910d18975091p-3, 0x1.eacd1cfa4f02dp+0, 0, 0ull, 0ull},
        {"rocket-lander/medium+gusty", NumericFormat::I16, 0, 1, 0,
         0x1.00888888888f1p+2, 191, 0xc535df085536cd79ull, 191,
         0x809558bc35d861c2ull, 0x1.fd905c7f7b46p+10, 0x1.fc8128ae0d541p+8,
         0x1.2dd209a85b24dp-5, 0x1.2d3166c6dffbp-7, 0x1.c35570e6b6246p-5, 38,
         0, 0x1.92c3fcef7f543p-4, 0x1.2019754b86421p+2, 0, 1644785ull, 0ull},
        {"rover-rover/medium+gusty", NumericFormat::BF16, 1, 0, 7,
         0x1.2d11111111099p+3, 448, 0x7973e44534961220ull, 448,
         0xd318f38c56574e46ull, 0x1.33b92de9fe552p+7, 0x1.05a906299a626p+4,
         0x1.5f53591eb4c11p-4, 0x1.2abc53f14b7f6p-7, 0x1.a284db439f57ep-5, 89,
         0, 0x1.c903de5beb632p-3, 0x1.2ce4258d1604cp+0, 0, 0ull, 0ull},
        {"rover-rover/medium+gusty", NumericFormat::I16, 0, 0, 0,
         0x1.63555555554a7p+3, 530, 0xdb9bc58638daa045ull, 530,
         0x303a861b8f946516ull, 0x1.11dbb54d07118p+5, 0x1.8a9a3c789866ap+1,
         0x1.8d445993dd842p-4, 0x1.1e360bb404022p-7, 0x1.f688faf693045p-6, 105,
         0, 0x1.1cd7f7a33a2bdp-5, 0x1.a14fdb4a9ce2ep+2, 0, 1579500ull,
         14050ull},
        {"cartpole-cartpole/medium+gusty", NumericFormat::BF16, 1, 0, 0,
         0x1.f1ddddddddd55p+2, 372, 0x01ab4e8b94103b4eull, 372,
         0x9aa613fe3cb9d399ull, 0x1.0e81d6ad04205p+3, 0x1.162fb034e0333p+0,
         0x1.150b691e571p-4, 0x1.1ce8c4f48ec15p-7, 0x1.d3c3e73139795p-6, 74, 0,
         0x1.f344704765c57p-6, 0x1.f3c5c1c0f6bffp-2, 0, 0ull, 0ull},
        {"cartpole-cartpole/medium+gusty", NumericFormat::I16, 0, 0, 0,
         0x1.2688888888817p+3, 442, 0x938f5cea406d86abull, 442,
         0x433165b651ad0dc3ull, 0x1.2688888888817p+2, 0x1p-1,
         0x1.377775431db89p-4, 0x1.0eb7cb17af3d6p-7, 0x1.62fc78e47a228p-8, 88,
         0, 0x1.5e44d9cebde96p-9, 0x1.a3167b742763ap-1, 0, 172510ull, 0ull},
    };
    const std::vector<plant::ScenarioSpec> specs =
        plant::ScenarioRegistry::global().specs();
    for (const EpisodePin &pin : pins) {
        const plant::ScenarioSpec *spec = nullptr;
        for (const plant::ScenarioSpec &s : specs) {
            if (s.id == pin.spec)
                spec = &s;
        }
        ASSERT_NE(spec, nullptr) << pin.spec;
        hil::HilConfig cfg;
        cfg.socFreqHz = 100e6;
        cfg.relin.everyK = 5;
        cfg.format = pin.fmt;
        cfg.timing = hil::namedControllerTiming(
            "vector", *spec->prototype, cfg.controlPeriodS, cfg.horizon,
            true, pin.fmt);
        std::unique_ptr<plant::Plant> p = spec->prototype->clone();
        const hil::EpisodeResult r =
            hil::runEpisode(*p, spec->makeScenario(0), cfg);

        const std::string tag =
            std::string(pin.spec) + " " + matlib::formatName(pin.fmt);
        EXPECT_EQ(r.success, pin.success != 0) << tag;
        EXPECT_EQ(r.crashed, pin.crashed != 0) << tag;
        EXPECT_EQ(r.waypointsReached, pin.waypointsReached) << tag;
        EXPECT_EQ(r.missionTimeS, pin.missionTimeS) << tag;
        EXPECT_EQ(r.solveTimesS.size(), pin.solves) << tag;
        EXPECT_EQ(sampleDigest(r.solveTimesS.samples()),
                  pin.solveTimesDigest)
            << tag;
        EXPECT_EQ(r.iterations.size(), pin.iterSamples) << tag;
        EXPECT_EQ(sampleDigest(r.iterations.samples()),
                  pin.iterationsDigest)
            << tag;
        EXPECT_EQ(r.rotorEnergyJ, pin.rotorEnergyJ) << tag;
        EXPECT_EQ(r.avgRotorPowerW, pin.avgRotorPowerW) << tag;
        EXPECT_EQ(r.socEnergyJ, pin.socEnergyJ) << tag;
        EXPECT_EQ(r.avgSocPowerW, pin.avgSocPowerW) << tag;
        EXPECT_EQ(r.computeUtilization, pin.computeUtilization) << tag;
        EXPECT_EQ(r.modelRefreshes, pin.modelRefreshes) << tag;
        EXPECT_EQ(r.refreshFailures, pin.refreshFailures) << tag;
        EXPECT_EQ(r.refreshTimeS, pin.refreshTimeS) << tag;
        EXPECT_EQ(r.trackingErrM, pin.trackingErrM) << tag;
        EXPECT_EQ(r.divergedSolves, pin.divergedSolves) << tag;
        EXPECT_EQ(r.quantSats, pin.quantSats) << tag;
        EXPECT_EQ(r.accSats, pin.accSats) << tag;
    }
}

// --- float32 byte-identity ---

TEST(FormatParse, NamesRoundTripAndHostileInputDies)
{
    for (NumericFormat f : {NumericFormat::F32, NumericFormat::I16,
                            NumericFormat::I32, NumericFormat::BF16})
        EXPECT_EQ(matlib::parseFormat(matlib::formatName(f)), f);
    // parseFormat, not defaultFormat(): the latter latches its first
    // read for the whole process, so a death test through it would
    // depend on test order.
    for (const char *bad : {"", "F32", "i8", "f32 ", "bf16x"}) {
        EXPECT_DEATH(matlib::parseFormat(bad), "unknown numeric format")
            << "'" << bad << "'";
    }
}

TEST(FormatIdentity, ExplicitF32MatchesDefaultEverywhere)
{
    auto check = [](matlib::Backend &plain, matlib::Backend &touched) {
        touched.setFormat(NumericFormat::F32);
        EXPECT_EQ(plain.cacheKey(), touched.cacheKey());
        isa::Program a = bench::emitQuadSolve(
            plain, tinympc::MappingStyle::Library, 2);
        isa::Program b = bench::emitQuadSolve(
            touched, tinympc::MappingStyle::Library, 2);
        EXPECT_TRUE(samePrograms(a, b)) << plain.name();
        const isa::UopStreamView v = a.stream();
        for (size_t i = 0; i < v.n; ++i)
            EXPECT_EQ(v.sew[i], 32) << plain.name();
    };
    matlib::ScalarBackend s1(matlib::ScalarFlavor::Optimized);
    matlib::ScalarBackend s2(matlib::ScalarFlavor::Optimized);
    check(s1, s2);
    matlib::RvvBackend v1(512, matlib::RvvMapping::handOptimized());
    matlib::RvvBackend v2(512, matlib::RvvMapping::handOptimized());
    check(v1, v2);
    matlib::GemminiBackend g1(matlib::GemminiMapping::fullyOptimized());
    matlib::GemminiBackend g2(matlib::GemminiMapping::fullyOptimized());
    check(g1, g2);
}

TEST(FormatIdentity, F32EpisodeBitExactPerPlant)
{
    // Every registered plant: an episode flown with the format left
    // at its default must be bit-identical to one flown with F32 set
    // explicitly (the format axis is purely additive at float32).
    for (const plant::ScenarioSpec &spec :
         plant::ScenarioRegistry::global().specs()) {
        if (spec.difficulty != plant::Difficulty::Easy ||
            spec.disturbance.cmdNoiseSigma != 0.0) {
            continue; // one clean cell per plant is enough
        }
        hil::HilConfig base;
        base.socFreqHz = 100e6;
        base.relin = spec.relin;
        base.timing = hil::namedControllerTiming(
            "vector", *spec.prototype, 0.02, 10, false);

        hil::HilConfig explicit_f32 = base;
        explicit_f32.format = NumericFormat::F32;

        std::unique_ptr<plant::Plant> p1 = spec.prototype->clone();
        std::unique_ptr<plant::Plant> p2 = spec.prototype->clone();
        plant::Scenario sc = spec.makeScenario(0);
        hil::EpisodeResult a = hil::runEpisode(*p1, sc, base);
        hil::EpisodeResult b = hil::runEpisode(*p2, sc, explicit_f32);
        EXPECT_EQ(a.success, b.success) << spec.id;
        EXPECT_EQ(a.waypointsReached, b.waypointsReached) << spec.id;
        EXPECT_EQ(a.trackingErrM, b.trackingErrM) << spec.id;
        EXPECT_EQ(a.missionTimeS, b.missionTimeS) << spec.id;
        EXPECT_EQ(a.rotorEnergyJ, b.rotorEnergyJ) << spec.id;
        EXPECT_EQ(a.divergedSolves, 0) << spec.id;
        EXPECT_EQ(a.quantSats, 0u) << spec.id;
    }
}

TEST(FormatIdentity, OneWidthSharesOneCalibration)
{
    // The fit depends on the stream, and the stream on the element
    // width only: the second format of each width is served the first
    // one's fit, bit for bit, without a compute. Horizon 6 is
    // calibrated by no other test here, so each first call misses.
    const std::unique_ptr<plant::Plant> cp =
        plant::ScenarioRegistry::global().makePlant("cartpole-cartpole");
    const std::pair<NumericFormat, NumericFormat> widths[] = {
        {NumericFormat::BF16, NumericFormat::I16},
        {NumericFormat::F32, NumericFormat::I32}};
    for (const char *model : {"scalar", "vector", "gemmini"}) {
        std::string fits[2];
        for (int w = 0; w < 2; ++w) {
            const auto [first, second] = widths[w];
            const std::string tag = std::string(model) + " " +
                                    matlib::formatName(first) + "/" +
                                    matlib::formatName(second);
            const isa::MemoStats before = hil::calibMemo().stats();
            fits[w] = hil::encodeTiming(hil::namedControllerTiming(
                model, *cp, 0.02, 6, true, first));
            const isa::MemoStats mid = hil::calibMemo().stats();
            const std::string again = hil::encodeTiming(
                hil::namedControllerTiming(model, *cp, 0.02, 6, true,
                                           second));
            const isa::MemoStats after = hil::calibMemo().stats();
            EXPECT_EQ(mid.misses, before.misses + 1) << tag;
            EXPECT_EQ(after.misses, mid.misses) << tag;
            EXPECT_EQ(after.computes, mid.computes) << tag;
            EXPECT_EQ(again, fits[w]) << tag;
        }
        // The two widths are distinct fits.
        EXPECT_NE(fits[0], fits[1]) << model;
    }
}

// --- narrow streams: emission, schedule search, batched replay ---

TEST(NarrowStreams, CarryElementWidthAndDistinctKeys)
{
    matlib::GemminiBackend g(matlib::GemminiMapping::fullyOptimized());
    std::string key_f32 = g.cacheKey();
    g.setFormat(NumericFormat::I16);
    EXPECT_NE(g.cacheKey(), key_f32);
    isa::Program narrow =
        bench::emitQuadSolve(g, tinympc::MappingStyle::Library, 2);
    bool saw_sew16 = false;
    const isa::UopStreamView v = narrow.stream();
    for (size_t i = 0; i < v.n; ++i) {
        if (v.sew[i] == 16)
            saw_sew16 = true;
        EXPECT_TRUE(v.sew[i] == 16 || v.sew[i] == 32);
    }
    EXPECT_TRUE(saw_sew16);

    // int32 keeps the 32-bit stream byte-identical to float32 (the
    // values differ, the uops do not), so it keeps the float32 key.
    matlib::GemminiBackend g32(matlib::GemminiMapping::fullyOptimized());
    g32.setFormat(NumericFormat::I32);
    EXPECT_EQ(g32.cacheKey(), key_f32);
    isa::Program i32 =
        bench::emitQuadSolve(g32, tinympc::MappingStyle::Library, 2);
    matlib::GemminiBackend gf(matlib::GemminiMapping::fullyOptimized());
    isa::Program f32 =
        bench::emitQuadSolve(gf, tinympc::MappingStyle::Library, 2);
    EXPECT_TRUE(samePrograms(i32, f32));
}

TEST(NarrowStreams, NarrowReplayCheaperOnWideBackends)
{
    matlib::GemminiBackend gf(matlib::GemminiMapping::fullyOptimized());
    isa::Program f32 =
        bench::emitQuadSolve(gf, tinympc::MappingStyle::Library, 2);
    matlib::GemminiBackend gn(matlib::GemminiMapping::fullyOptimized());
    gn.setFormat(NumericFormat::I16);
    isa::Program i16 =
        bench::emitQuadSolve(gn, tinympc::MappingStyle::Library, 2);
    systolic::GemminiModel m(systolic::GemminiConfig::os4x4());
    uint64_t cf = m.run(f32).cycles;
    uint64_t cn = m.run(i16).cycles;
    // The acceptance bar for the precision bench: >= 1.5x on Gemmini.
    EXPECT_GE(static_cast<double>(cf),
              1.5 * static_cast<double>(cn));
}

TEST(NarrowStreams, ScheduleSearchAndBatchedReplayBitExact)
{
    matlib::GemminiBackend g(matlib::GemminiMapping::fullyOptimized());
    g.setFormat(NumericFormat::I16);
    isa::Program narrow =
        bench::emitQuadSolve(g, tinympc::MappingStyle::Library, 2);

    // Schedule search on the narrow stream: any found schedule must
    // verify and reproduce its claimed cost.
    systolic::GemminiModel m(systolic::GemminiConfig::os4x4());
    auto cost = [&](const isa::Program &p) { return m.run(p).cycles; };
    isa::SchedSearchResult res = isa::searchSchedule(narrow, cost, 24);
    isa::ScheduleResult r = isa::applySchedule(narrow, res.spec);
    std::string why;
    EXPECT_TRUE(isa::verifySchedule(narrow, r.prog, r.perm, &why))
        << why;
    EXPECT_EQ(cost(r.prog), res.bestCycles);

    // Batched replay of the narrow stream across a design sweep must
    // be bit-identical to sequential replay (same contract the f32
    // streams are pinned to).
    systolic::GemminiModel m2(systolic::GemminiConfig::os4x4HwGemv());
    std::vector<const cpu::TimingModel *> models = {&m, &m2};
    std::vector<cpu::TimingResult> batch =
        m.runStreamBatch(narrow.stream(), models);
    ASSERT_EQ(batch.size(), models.size());
    for (size_t i = 0; i < models.size(); ++i) {
        cpu::TimingResult seq = models[i]->runStream(narrow.stream());
        EXPECT_EQ(batch[i].cycles, seq.cycles) << i;
        EXPECT_EQ(batch[i].stats.counters(), seq.stats.counters()) << i;
    }

    // Saturn, same contract.
    matlib::RvvBackend v(512, matlib::RvvMapping::handOptimized());
    v.setFormat(NumericFormat::I16);
    isa::Program vec =
        bench::emitQuadSolve(v, tinympc::MappingStyle::Fused, 2);
    vector::SaturnModel s1(vector::SaturnConfig::make(512, 256, true));
    vector::SaturnModel s2(vector::SaturnConfig::make(512, 128, true));
    std::vector<const cpu::TimingModel *> sm = {&s1, &s2};
    std::vector<cpu::TimingResult> vb = s1.runStreamBatch(vec.stream(), sm);
    for (size_t i = 0; i < sm.size(); ++i)
        EXPECT_EQ(vb[i].cycles, sm[i]->runStream(vec.stream()).cycles)
            << i;
}

// --- persistence ---

TEST(FormatPersistence, NarrowProgramRoundTripsThroughCodecAndDisk)
{
    matlib::GemminiBackend g(matlib::GemminiMapping::fullyOptimized());
    g.setFormat(NumericFormat::I16);
    isa::Program narrow =
        bench::emitQuadSolve(g, tinympc::MappingStyle::Library, 2);

    // Codec round trip preserves the element widths.
    auto back = isa::decodeProgram(isa::encodeProgram(narrow));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(samePrograms(narrow, *back));

    // Disk cache: per-width keys produce independently cached blobs
    // that warm-read back bit-identical with zero re-emissions.
    const std::string dir = makeTempDir();
    auto key = [](NumericFormat f) {
        matlib::GemminiBackend b(matlib::GemminiMapping::fullyOptimized());
        b.setFormat(f);
        return "quad-solve:" + b.cacheKey();
    };
    {
        isa::DiskCache disk(dir, "test-fp");
        isa::ProgramCache cold(&disk);
        cold.getOrEmit(key(NumericFormat::I16),
                       [&](isa::Program &p) { p = narrow; });
        matlib::GemminiBackend gf(
            matlib::GemminiMapping::fullyOptimized());
        cold.getOrEmit(key(NumericFormat::F32), [&](isa::Program &p) {
            p = bench::emitQuadSolve(gf, tinympc::MappingStyle::Library,
                                     2);
        });
        EXPECT_EQ(cold.stats().computes, 2u);
    }
    isa::DiskCache disk2(dir, "test-fp");
    isa::ProgramCache warm(&disk2);
    auto warm_narrow =
        warm.getOrEmit(key(NumericFormat::I16), [&](isa::Program &) {
            ADD_FAILURE() << "warm read must not re-emit";
        });
    ASSERT_TRUE(warm_narrow != nullptr);
    EXPECT_TRUE(samePrograms(narrow, *warm_narrow));
    auto warm_f32 =
        warm.getOrEmit(key(NumericFormat::F32), [&](isa::Program &) {
            ADD_FAILURE() << "warm read must not re-emit";
        });
    ASSERT_TRUE(warm_f32 != nullptr);
    EXPECT_FALSE(samePrograms(*warm_narrow, *warm_f32));
}

// --- DSE format axis ---

TEST(DseFormatAxis, EnumeratesWithoutDisturbingDefault)
{
    auto make_space = [](dse::DesignSpace &space) {
        dse::ConfigEntry e;
        e.name = "gem";
        e.model = [](double, double) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<systolic::GemminiModel>(
                systolic::GemminiConfig::os4x4());
        };
        e.emit = [](dse::Fidelity, matlib::NumericFormat fmt)
            -> std::shared_ptr<const isa::Program> {
            matlib::GemminiBackend b(
                matlib::GemminiMapping::fullyOptimized());
            b.setFormat(fmt);
            return std::make_shared<const isa::Program>(
                bench::emitQuadSolve(b, tinympc::MappingStyle::Library,
                                     2));
        };
        e.progKey = [](dse::Fidelity, matlib::NumericFormat fmt) {
            matlib::GemminiBackend b(
                matlib::GemminiMapping::fullyOptimized());
            b.setFormat(fmt);
            return "dse-fmt-test:" + b.cacheKey();
        };
        space.addConfig(std::move(e));
    };

    // Single-format default: one point, fmt decodes to 0 everywhere.
    dse::DesignSpace plain("fmt-default");
    make_space(plain);
    ASSERT_EQ(plain.size(), 1u);
    EXPECT_EQ(plain.point(0).fmt, 0);

    dse::DesignSpace space("fmt-axis");
    make_space(space);
    space.setFormats({NumericFormat::F32, NumericFormat::I16});
    ASSERT_EQ(space.size(), 2u);
    for (size_t flat = 0; flat < space.size(); ++flat)
        EXPECT_EQ(space.flatIndex(space.point(flat)), flat);

    dse::Candidate f32 =
        space.materialize(space.point(0), dse::Fidelity::Low);
    dse::Candidate i16 =
        space.materialize(space.point(1), dse::Fidelity::Low);
    EXPECT_EQ(f32.name.find("@"), std::string::npos);
    EXPECT_NE(i16.name.find("@i16"), std::string::npos);
    EXPECT_NE(f32.cellKey, i16.cellKey);
    EXPECT_NE(f32.progKey, i16.progKey);
    ASSERT_TRUE(f32.prog && i16.prog);
    EXPECT_FALSE(samePrograms(*f32.prog, *i16.prog));
}

} // namespace
} // namespace rtoc
