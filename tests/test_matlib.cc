/**
 * @file
 * matlib tests: reference-kernel correctness, bit-exact functional
 * equivalence across all four backends (the paper's invariant that
 * software mappings change timing, never semantics), and emission
 * properties (fusion removes loads/stores, static scheduling shrinks
 * command construction, optimized scalar beats naive).
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "cpu/inorder.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"

namespace rtoc::matlib {
namespace {

/** Owned random-filled matrix for tests. */
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

TEST(Ref, GemvKnownValues)
{
    float a_data[] = {1, 2, 3, 4};
    float x_data[] = {1, 1};
    float y_data[] = {0, 0};
    Mat a(a_data, 2, 2), x(x_data, 1, 2), y(y_data, 1, 2);
    ref::gemv(y, a, x, 1.0f, 0.0f);
    EXPECT_FLOAT_EQ(y[0], 3.0f);
    EXPECT_FLOAT_EQ(y[1], 7.0f);
}

TEST(Ref, GemvAlphaBeta)
{
    float a_data[] = {1, 0, 0, 1};
    float x_data[] = {2, 3};
    float y_data[] = {10, 20};
    Mat a(a_data, 2, 2), x(x_data, 1, 2), y(y_data, 1, 2);
    ref::gemv(y, a, x, 2.0f, 1.0f);
    EXPECT_FLOAT_EQ(y[0], 14.0f);
    EXPECT_FLOAT_EQ(y[1], 26.0f);
}

TEST(Ref, GemvTMatchesExplicitTranspose)
{
    Rng rng(5);
    TestMat a(4, 6, rng);
    TestMat x(1, 4, rng);
    TestMat y1(1, 6, rng), y2(1, 6, rng);
    ref::gemvT(y1.view(), a.view(), x.view(), 1.0f, 0.0f);
    // Explicit transpose.
    std::vector<float> at_data(24);
    for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 6; ++j)
            at_data[static_cast<size_t>(j) * 4 + i] = a.view().at(i, j);
    Mat at(at_data.data(), 6, 4);
    ref::gemv(y2.view(), at, x.view(), 1.0f, 0.0f);
    for (int j = 0; j < 6; ++j)
        EXPECT_FLOAT_EQ(y1.view()[j], y2.view()[j]);
}

TEST(Ref, ClampOrdering)
{
    float a_data[] = {-5, 0, 5};
    float out_data[3];
    Mat a(a_data, 1, 3), out(out_data, 1, 3);
    ref::clampConst(out, a, -1.0f, 1.0f);
    EXPECT_FLOAT_EQ(out[0], -1.0f);
    EXPECT_FLOAT_EQ(out[1], 0.0f);
    EXPECT_FLOAT_EQ(out[2], 1.0f);
}

TEST(Ref, AbsMaxDiff)
{
    float a_data[] = {1, -2, 3};
    float b_data[] = {1, 2, 2};
    Mat a(a_data, 1, 3), b(b_data, 1, 3);
    EXPECT_FLOAT_EQ(ref::absMaxDiff(a, b), 4.0f);
}

/** The documented clamp: fmin(fmax(v, lo), hi) where that is
 *  defined, v on a ±0 tie, the bound when both operands are NaN. */
float
clampSpec(float v, float lo, float hi)
{
    float w = v;
    if (std::isnan(v))
        w = lo;
    else if (!std::isnan(lo) && lo > v)
        w = lo;
    if (std::isnan(w))
        return hi;
    if (!std::isnan(hi) && hi < w)
        return hi;
    return w;
}

uint32_t
bitsOf(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

TEST(Ref, ClampsAndResidualOnSpecialValues)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::nanf("");
    const float vals[] = {0.0f,  -0.0f, 1.0f, -1.0f, 0.5f, -2.5f, inf,
                          -inf,  nan,   -nan, 1e-40f, -1e-40f,
                          std::numeric_limits<float>::max()};
    std::vector<float> a, lo, hi;
    for (float x : vals)
        for (float l : vals)
            for (float h : vals) {
                a.push_back(x);
                lo.push_back(l);
                hi.push_back(h);
            }
    const int n = static_cast<int>(a.size());

    std::vector<float> got(a.size());
    ref::clampVec(Mat(got.data(), 1, n), Mat(a.data(), 1, n),
                  Mat(lo.data(), 1, n), Mat(hi.data(), 1, n));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(bitsOf(got[i]), bitsOf(clampSpec(a[i], lo[i], hi[i])))
            << a[i] << " " << lo[i] << " " << hi[i];
        // Where fmax/fmin are unambiguous the clamp is exactly theirs.
        if (!std::isnan(a[i]) && a[i] != lo[i] && a[i] != hi[i] &&
            std::fmax(a[i], lo[i]) != hi[i]) {
            EXPECT_EQ(bitsOf(got[i]),
                      bitsOf(std::fmin(std::fmax(a[i], lo[i]), hi[i])));
        }
    }
    for (float l : vals) {
        for (float h : vals) {
            ref::clampConst(Mat(got.data(), 1, n), Mat(a.data(), 1, n), l,
                            h);
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(bitsOf(got[i]), bitsOf(clampSpec(a[i], l, h)));
        }
    }

    // Ties and NaN cases pinned to the solver's established results.
    const struct
    {
        float v, lo, hi, want;
    } pinned[] = {{0.0f, -0.0f, 1.0f, 0.0f},   {-0.0f, 0.0f, 1.0f, -0.0f},
                  {0.0f, 0.0f, -0.0f, 0.0f},   {-0.0f, -1.0f, 0.0f, -0.0f},
                  {nan, -0.0f, 1.0f, -0.0f},   {nan, nan, -0.0f, -0.0f},
                  {1.0f, nan, -0.0f, -0.0f},   {-1.0f, nan, nan, -1.0f}};
    for (const auto &c : pinned) {
        float v = c.v, l = c.lo, h = c.hi, out = 0.0f;
        ref::clampVec(Mat(&out, 1, 1), Mat(&v, 1, 1), Mat(&l, 1, 1),
                      Mat(&h, 1, 1));
        EXPECT_EQ(bitsOf(out), bitsOf(c.want))
            << c.v << " " << c.lo << " " << c.hi;
    }

    // absMaxDiff: m = fmax(m, |a - b|) from +0, in order; exact for any
    // libm, since m is never -0 or NaN.
    float (*volatile fmax_fn)(float, float) =
        static_cast<float (*)(float, float)>(std::fmax);
    for (int start = 0; start + 16 <= n; start += 7) {
        float m = 0.0f;
        for (int i = start; i < start + 16; ++i)
            m = fmax_fn(m, std::fabs(a[i] - lo[i]));
        const float r = ref::absMaxDiff(Mat(a.data() + start, 1, 16),
                                        Mat(lo.data() + start, 1, 16));
        EXPECT_EQ(bitsOf(r), bitsOf(m)) << start;
    }
}

TEST(Ref, RowScaleNeg)
{
    float a_data[] = {1, 2, 3, 4};
    float d_data[] = {10, 100};
    float out_data[4];
    Mat a(a_data, 2, 2), d(d_data, 1, 2), out(out_data, 2, 2);
    ref::rowScaleNeg(out, a, d);
    EXPECT_FLOAT_EQ(out.at(0, 0), -10.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), -200.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), -30.0f);
    EXPECT_FLOAT_EQ(out.at(1, 1), -400.0f);
}

/** Build every backend for the equivalence suite. */
std::vector<std::unique_ptr<Backend>>
allBackends()
{
    std::vector<std::unique_ptr<Backend>> v;
    v.push_back(
        std::make_unique<ScalarBackend>(ScalarFlavor::Naive));
    v.push_back(
        std::make_unique<ScalarBackend>(ScalarFlavor::Optimized));
    v.push_back(std::make_unique<RvvBackend>(512, RvvMapping::library()));
    v.push_back(
        std::make_unique<RvvBackend>(512, RvvMapping::handOptimized()));
    v.push_back(
        std::make_unique<GemminiBackend>(GemminiMapping::baseline()));
    v.push_back(std::make_unique<GemminiBackend>(
        GemminiMapping::fullyOptimized()));
    return v;
}

/** Parameterized over (m, n) operand shapes. */
class BackendEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(BackendEquivalence, AllOpsBitExactAcrossBackends)
{
    auto [m, n] = GetParam();
    Rng rng(42 + m * 131 + n);
    TestMat a(m, n, rng);
    TestMat x(1, n, rng);
    TestMat b_vec(1, m, rng);
    TestMat lo(1, m, rng, 0.1f);
    TestMat hi(1, m, rng, 0.1f);
    for (int i = 0; i < m; ++i) {
        float l = lo.view()[i], h = hi.view()[i];
        lo.view()[i] = std::fmin(l, h) - 0.5f;
        hi.view()[i] = std::fmax(l, h) + 0.5f;
    }

    // Golden results via the reference backend (naive scalar).
    auto backends = allBackends();
    std::vector<std::vector<float>> gemv_results;
    std::vector<std::vector<float>> clamp_results;
    std::vector<float> red_results;

    for (auto &backend : backends) {
        std::vector<float> y(static_cast<size_t>(m), 0.5f);
        Mat ym(y.data(), 1, m);
        backend->gemv(ym, a.view(), x.view(), -1.0f, 1.0f);
        gemv_results.push_back(y);

        std::vector<float> c(static_cast<size_t>(m));
        Mat cm(c.data(), 1, m);
        backend->clampVec(cm, b_vec.view(), lo.view(), hi.view());
        clamp_results.push_back(c);

        red_results.push_back(
            backend->absMaxDiff(b_vec.view(), cm));
    }
    for (size_t k = 1; k < backends.size(); ++k) {
        EXPECT_EQ(gemv_results[k], gemv_results[0])
            << backends[k]->name();
        EXPECT_EQ(clamp_results[k], clamp_results[0])
            << backends[k]->name();
        EXPECT_EQ(red_results[k], red_results[0])
            << backends[k]->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackendEquivalence,
    ::testing::Values(std::pair{4, 4}, std::pair{4, 12},
                      std::pair{12, 4}, std::pair{12, 12},
                      std::pair{1, 16}, std::pair{17, 3},
                      std::pair{32, 32}));

TEST(Emission, NoProgramMeansNoEmission)
{
    Rng rng(1);
    TestMat a(4, 4, rng), x(1, 4, rng), y(1, 4, rng);
    ScalarBackend b(ScalarFlavor::Optimized);
    b.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f); // must not crash
    EXPECT_EQ(b.program(), nullptr);
}

TEST(Emission, OptimizedScalarFewerUopsThanNaive)
{
    Rng rng(2);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    isa::Program pn, po;
    ScalarBackend naive(ScalarFlavor::Naive);
    ScalarBackend opt(ScalarFlavor::Optimized);
    naive.setProgram(&pn);
    opt.setProgram(&po);
    naive.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    opt.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    EXPECT_LT(po.size(), pn.size());
}

TEST(Emission, OptimizedScalarFasterOnRocket)
{
    Rng rng(3);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    isa::Program pn, po;
    ScalarBackend naive(ScalarFlavor::Naive);
    ScalarBackend opt(ScalarFlavor::Optimized);
    naive.setProgram(&pn);
    opt.setProgram(&po);
    for (int rep = 0; rep < 5; ++rep) {
        naive.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
        opt.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    }
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    EXPECT_LT(rocket.run(po).cycles, rocket.run(pn).cycles);
}

TEST(Emission, FusionRemovesIntermediateTraffic)
{
    Rng rng(4);
    TestMat a(1, 12, rng), b(1, 12, rng), c(1, 12, rng);
    TestMat t1(1, 12, rng), t2(1, 12, rng);

    auto count_mem = [](const isa::Program &p) {
        const isa::UopStreamView v = p.stream();
        size_t n = 0;
        for (size_t i = 0; i < v.n; ++i)
            if (v.kind[i] == isa::UopKind::VLoad ||
                v.kind[i] == isa::UopKind::VStore)
                ++n;
        return n;
    };

    // Chain: t1 = a+b; t2 = t1+c; t1 consumed immediately.
    isa::Program plib, pfused;
    RvvBackend lib(512, RvvMapping::library());
    RvvBackend fused(512, RvvMapping::handOptimized());
    lib.setProgram(&plib);
    fused.setProgram(&pfused);

    lib.add(t1.view(), a.view(), b.view());
    lib.add(t2.view(), t1.view(), c.view());

    fused.beginFuse();
    fused.add(t1.view(), a.view(), b.view());
    fused.add(t2.view(), t1.view(), c.view());
    fused.endFuse();

    EXPECT_LT(count_mem(pfused), count_mem(plib));
}

TEST(Emission, FusionWritebackPreservesResults)
{
    // Fused path must still produce the same memory contents after
    // endFuse (the writeback of dirty registers).
    Rng rng(6);
    TestMat a(1, 8, rng), b(1, 8, rng);
    TestMat out_lib(1, 8, rng), out_fused(1, 8, rng);

    isa::Program p1, p2;
    RvvBackend lib(512, RvvMapping::library());
    RvvBackend fused(512, RvvMapping::handOptimized());
    lib.setProgram(&p1);
    fused.setProgram(&p2);

    lib.add(out_lib.view(), a.view(), b.view());
    fused.beginFuse();
    fused.add(out_fused.view(), a.view(), b.view());
    fused.endFuse();
    EXPECT_EQ(out_lib.data, out_fused.data);
}

TEST(Emission, RvvLibraryEmitsStripLoops)
{
    Rng rng(7);
    TestMat a(1, 100, rng), b(1, 100, rng), out(1, 100, rng);
    isa::Program p;
    RvvBackend lib(512, RvvMapping::library());
    lib.setProgram(&p);
    lib.add(out.view(), a.view(), b.view());
    // 100 elements / 16-lane strips -> 7 strips: >= 7 vsetvls.
    const isa::UopStreamView v = p.stream();
    EXPECT_GE(std::count(v.kind, v.kind + v.n, isa::UopKind::VSetVl), 7);
}

TEST(Emission, LmulShrinksInstructionCount)
{
    Rng rng(8);
    TestMat a(1, 128, rng), b(1, 128, rng), out(1, 128, rng);
    isa::Program p1, p4;
    RvvBackend m1(512, RvvMapping::library(1));
    RvvBackend m4(512, RvvMapping::library(4));
    m1.setProgram(&p1);
    m4.setProgram(&p4);
    m1.add(out.view(), a.view(), b.view());
    m4.add(out.view(), a.view(), b.view());
    EXPECT_LT(p4.countVector(), p1.countVector());
}

TEST(Emission, GemminiStaticScheduleShrinksScalarWork)
{
    Rng rng(9);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    isa::Program pd, ps;
    GemminiBackend dyn(GemminiMapping::baseline());
    GemminiMapping sm = GemminiMapping::staticMapped();
    GemminiBackend stat(sm);
    dyn.setProgram(&pd);
    stat.setProgram(&ps);
    dyn.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    stat.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    EXPECT_LT(ps.countScalar(), pd.countScalar());
    // Same accelerator commands either way.
    EXPECT_EQ(ps.countRocc(), pd.countRocc());
}

TEST(Emission, GemminiSpadResidencyDropsFences)
{
    Rng rng(10);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);

    auto fences = [](const isa::Program &p) {
        const isa::UopStreamView v = p.stream();
        return std::count(v.kind, v.kind + v.n, isa::UopKind::RoccFence);
    };

    isa::Program plib, pres;
    GemminiBackend lib(GemminiMapping::staticMapped());
    GemminiBackend res(GemminiMapping::fullyOptimized());
    lib.setProgram(&plib);
    res.setProgram(&pres);
    for (int rep = 0; rep < 4; ++rep) {
        lib.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
        res.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    }
    EXPECT_GT(fences(plib), fences(pres));
}

TEST(Emission, GemminiCiscEmitsMoreConfigTraffic)
{
    Rng rng(11);
    TestMat a(12, 12, rng), x(1, 12, rng), y(1, 12, rng);
    GemminiMapping cisc;
    cisc.fineGrained = false;
    GemminiMapping fine;
    fine.fineGrained = true;
    isa::Program pc, pf;
    GemminiBackend bc(cisc), bf(fine);
    bc.setProgram(&pc);
    bf.setProgram(&pf);
    bc.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    bf.gemv(y.view(), a.view(), x.view(), 1.0f, 0.0f);
    auto configs = [](const isa::Program &p) {
        const isa::UopStreamView v = p.stream();
        return std::count(v.kind, v.kind + v.n, isa::UopKind::RoccConfig);
    };
    // CISC needs multiple RoCC configuration commands per macro-op
    // (§4.2.3); the fine-grained path reuses one configuration.
    EXPECT_GT(configs(pc), configs(pf));
}

TEST(Emission, EmissionIsDataIndependent)
{
    // The same operation on different data must emit the same stream
    // (timing depends on shapes/mappings only) - required for the
    // HIL calibration approach.
    Rng rng1(1), rng2(999);
    TestMat a1(12, 12, rng1), x1(1, 12, rng1), y1(1, 12, rng1);
    TestMat a2(12, 12, rng2), x2(1, 12, rng2), y2(1, 12, rng2);
    isa::Program p1, p2;
    RvvBackend b1(512, RvvMapping::handOptimized());
    RvvBackend b2(512, RvvMapping::handOptimized());
    b1.setProgram(&p1);
    b2.setProgram(&p2);
    b1.gemv(y1.view(), a1.view(), x1.view(), 1.0f, 0.0f);
    b2.gemv(y2.view(), a2.view(), x2.view(), 1.0f, 0.0f);
    ASSERT_EQ(p1.size(), p2.size());
    for (size_t i = 0; i < p1.size(); ++i)
        EXPECT_EQ(static_cast<int>(p1.uop(i).kind),
                  static_cast<int>(p2.uop(i).kind));
}

/** Elementwise op sweep: every backend agrees on every size. */
class EwiseSizeSweep : public ::testing::TestWithParam<int>
{};

TEST_P(EwiseSizeSweep, SaxpbyAgreesEverywhere)
{
    int n = GetParam();
    Rng rng(n * 17 + 3);
    TestMat a(1, n, rng), b_in(1, n, rng);
    auto backends = allBackends();
    std::vector<float> golden;
    for (auto &backend : backends) {
        std::vector<float> out(static_cast<size_t>(n));
        Mat om(out.data(), 1, n);
        backend->saxpby(om, -2.5f, a.view(), 0.5f, b_in.view());
        if (golden.empty())
            golden = out;
        else
            EXPECT_EQ(out, golden) << backend->name() << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EwiseSizeSweep,
                         ::testing::Values(1, 3, 4, 12, 16, 17, 48, 100,
                                           120, 129));

// --- packed (output-vectorized) gemv kernels vs the dot form ---

/** Bitwise equality of two float vectors; any two NaNs match (the
 *  compiler may commute an add, and with it the NaN it propagates). */
::testing::AssertionResult
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size differs";
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0 &&
            !(std::isnan(a[i]) && std::isnan(b[i]))) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** A row-major matrix with its packed copy. */
struct PackedTestMat
{
    std::vector<float> data, cols;
    int rows, cols_n;

    PackedTestMat(std::vector<float> d, int r, int c)
        : data(std::move(d)), cols(packedSize(r, c), -7.0f), rows(r),
          cols_n(c)
    {
        packColumns(mat(), cols.data());
    }

    Mat mat() { return {data.data(), rows, cols_n}; }
    PackedMat packed() { return {mat(), cols.data()}; }
};

/** Values drawn from normals plus, with @p specials, NaN, ±Inf, ±0,
 *  subnormals and FLT_MAX. */
std::vector<float>
kernelValues(Rng &rng, size_t n, bool specials)
{
    const float odd[] = {std::nanf(""), -std::nanf(""),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(),
                         0.0f, -0.0f, 1e-40f, -3e-42f,
                         std::numeric_limits<float>::denorm_min(),
                         std::numeric_limits<float>::max()};
    std::vector<float> v(n);
    for (float &f : v) {
        if (specials && rng.uniform(0.0, 1.0) < 0.3)
            f = odd[static_cast<size_t>(rng.uniform(0.0, 10.0)) % 10];
        else
            f = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    return v;
}

/** One instantiation of the packed:: kernels. */
struct PackedKernels
{
    void (*gemv)(Mat, const PackedMat &, Mat, float, float);
    void (*gemvSaxpby)(Mat, const PackedMat &, Mat, float, float, float,
                       float, const Mat &);
    void (*gemvT)(Mat, const Mat &, Mat, float, float);
};

/** The kernels at shape <M, N>; <0, 0> takes the shape at run time. */
template <int M, int N>
PackedKernels
kernelsAt()
{
    return {&packed::gemv<M, N>, &packed::gemvSaxpby<M, N>,
            &packed::gemvT<M, N>};
}

/** A fixed-shape instantiation and the only shape it accepts. */
struct FixedShape
{
    int m, n;
    PackedKernels k;
};

/** Every operand shape the registry plants' solves instantiate: (nx,
 *  nu) = (12, 4), (6, 3), (5, 2), (4, 1); rows below a multiple of 4
 *  end in a partial vector. */
const FixedShape kFixedShapes[] = {
    {4, 12, kernelsAt<4, 12>()}, {12, 12, kernelsAt<12, 12>()},
    {12, 4, kernelsAt<12, 4>()}, {4, 4, kernelsAt<4, 4>()},
    {3, 6, kernelsAt<3, 6>()},   {6, 6, kernelsAt<6, 6>()},
    {6, 3, kernelsAt<6, 3>()},   {3, 3, kernelsAt<3, 3>()},
    {2, 5, kernelsAt<2, 5>()},   {5, 5, kernelsAt<5, 5>()},
    {5, 2, kernelsAt<5, 2>()},   {2, 2, kernelsAt<2, 2>()},
    {1, 4, kernelsAt<1, 4>()},   {4, 1, kernelsAt<4, 1>()},
    {1, 1, kernelsAt<1, 1>()}};

/**
 * packed::gemv, packed::gemvSaxpby and packed::gemvT against ref:: on
 * one m x n shape, through the kernels @p k (run-time shape by
 * default).
 */
void
checkPackedShape(int m, int n, Rng &rng, bool specials,
                 const PackedKernels &k = kernelsAt<0, 0>())
{
    const float factors[] = {1.0f, 0.0f, -1.0f, 0.37f};
    PackedTestMat a(kernelValues(rng, static_cast<size_t>(m) * n, specials),
                    m, n);
    std::vector<float> x = kernelValues(rng, n, specials);
    std::vector<float> y0 = kernelValues(rng, m, specials);
    std::vector<float> b = kernelValues(rng, m, specials);
    std::vector<float> xt = kernelValues(rng, m, specials);
    std::vector<float> yt0 = kernelValues(rng, n, specials);
    for (float alpha : factors) {
        for (float beta : factors) {
            std::vector<float> want = y0, got = y0;
            ref::gemv(Mat(want.data(), 1, m), a.mat(), Mat(x.data(), 1, n),
                      alpha, beta);
            k.gemv(Mat(got.data(), 1, m), a.packed(), Mat(x.data(), 1, n),
                   alpha, beta);
            EXPECT_TRUE(sameBits(got, want))
                << "gemv " << m << "x" << n << " a=" << alpha
                << " b=" << beta;

            const float sa = factors[(m + n) % 4], sb = factors[m % 4];
            want = y0;
            got = y0;
            ref::gemv(Mat(want.data(), 1, m), a.mat(), Mat(x.data(), 1, n),
                      alpha, beta);
            ref::saxpby(Mat(want.data(), 1, m), sa, Mat(want.data(), 1, m),
                        sb, Mat(b.data(), 1, m));
            k.gemvSaxpby(Mat(got.data(), 1, m), a.packed(),
                         Mat(x.data(), 1, n), alpha, beta, sa, sb,
                         Mat(b.data(), 1, m));
            EXPECT_TRUE(sameBits(got, want))
                << "gemvSaxpby " << m << "x" << n << " a=" << alpha
                << " b=" << beta;

            // Aᵀ: x has m entries and y (here yt0) has n.
            want = yt0;
            got = yt0;
            ref::gemvT(Mat(want.data(), 1, n), a.mat(),
                       Mat(xt.data(), 1, m), alpha, beta);
            k.gemvT(Mat(got.data(), 1, n), a.mat(), Mat(xt.data(), 1, m),
                    alpha, beta);
            EXPECT_TRUE(sameBits(got, want))
                << "gemvT " << m << "x" << n << " a=" << alpha
                << " b=" << beta;
        }
    }
}

TEST(Packed, CopyIsColumnMajorZeroPadded)
{
    Rng rng(31);
    TestMat a(5, 3, rng);
    std::vector<float> cols(packedSize(5, 3), 9.0f);
    packColumns(a.view(), cols.data());
    ASSERT_EQ(packedRows(5), 8);
    for (int j = 0; j < 3; ++j) {
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ(cols[static_cast<size_t>(j) * 8 + i],
                      i < 5 ? a.view().at(i, j) : 0.0f);
        }
    }
}

TEST(Packed, GemvBitIdenticalToDotFormOnEveryShape)
{
    Rng rng(77);
    for (int m = 1; m <= 16; ++m)
        for (int n = 1; n <= 16; ++n)
            checkPackedShape(m, n, rng, false);
    checkPackedShape(100, 100, rng, false);
    checkPackedShape(100, 4, rng, false);
    checkPackedShape(4, 100, rng, false);
    for (const FixedShape &f : kFixedShapes) {
        for (int rep = 0; rep < 4; ++rep)
            checkPackedShape(f.m, f.n, rng, false, f.k);
    }
}

TEST(Packed, GemvBitIdenticalOnSpecialValues)
{
    // NaN, ±Inf, -0 and subnormal operands: every lane must round,
    // overflow and propagate exactly like its scalar chain.
    Rng rng(78);
    for (auto [m, n] : {std::pair{1, 1}, std::pair{3, 5}, std::pair{4, 4},
                        std::pair{7, 2}, std::pair{12, 12},
                        std::pair{17, 9}, std::pair{100, 12}}) {
        for (int rep = 0; rep < 8; ++rep)
            checkPackedShape(m, n, rng, true);
    }
    for (const FixedShape &f : kFixedShapes) {
        for (int rep = 0; rep < 8; ++rep)
            checkPackedShape(f.m, f.n, rng, true, f.k);
    }
}

TEST(Packed, AliasedOperandsRunTheReferenceSequence)
{
    // Square shapes through the run-time kernels and through every
    // square fixed-shape instantiation.
    Rng rng(79);
    std::vector<std::pair<int, PackedKernels>> cases;
    for (int n : {1, 4, 6, 12})
        cases.emplace_back(n, kernelsAt<0, 0>());
    for (const FixedShape &f : kFixedShapes) {
        if (f.m == f.n)
            cases.emplace_back(f.n, f.k);
    }
    for (const auto &[n, k] : cases) {
        PackedTestMat a(kernelValues(rng, static_cast<size_t>(n) * n, false),
                        n, n);
        const std::vector<float> v0 = kernelValues(rng, n, false);
        const std::vector<float> b0 = kernelValues(rng, n, false);

        // y == x.
        std::vector<float> want = v0, got = v0;
        ref::gemv(Mat(want.data(), 1, n), a.mat(), Mat(want.data(), 1, n),
                  0.37f, -1.0f);
        k.gemv(Mat(got.data(), 1, n), a.packed(), Mat(got.data(), 1, n),
               0.37f, -1.0f);
        EXPECT_TRUE(sameBits(got, want)) << "gemv y==x n=" << n;

        want = v0;
        got = v0;
        ref::gemvT(Mat(want.data(), 1, n), a.mat(), Mat(want.data(), 1, n),
                   0.37f, -1.0f);
        k.gemvT(Mat(got.data(), 1, n), a.mat(), Mat(got.data(), 1, n),
                0.37f, -1.0f);
        EXPECT_TRUE(sameBits(got, want)) << "gemvT y==x n=" << n;

        want = v0;
        got = v0;
        std::vector<float> bw = b0, bg = b0;
        ref::gemv(Mat(want.data(), 1, n), a.mat(), Mat(want.data(), 1, n),
                  1.0f, 1.0f);
        ref::saxpby(Mat(want.data(), 1, n), -1.0f, Mat(want.data(), 1, n),
                    0.37f, Mat(bw.data(), 1, n));
        k.gemvSaxpby(Mat(got.data(), 1, n), a.packed(),
                     Mat(got.data(), 1, n), 1.0f, 1.0f, -1.0f, 0.37f,
                     Mat(bg.data(), 1, n));
        EXPECT_TRUE(sameBits(got, want)) << "gemvSaxpby y==x n=" << n;

        // b == y.
        std::vector<float> x = kernelValues(rng, n, false);
        want = v0;
        got = v0;
        ref::gemv(Mat(want.data(), 1, n), a.mat(), Mat(x.data(), 1, n),
                  -1.0f, 0.37f);
        ref::saxpby(Mat(want.data(), 1, n), 0.37f, Mat(want.data(), 1, n),
                    1.0f, Mat(want.data(), 1, n));
        k.gemvSaxpby(Mat(got.data(), 1, n), a.packed(), Mat(x.data(), 1, n),
                     -1.0f, 0.37f, 0.37f, 1.0f, Mat(got.data(), 1, n));
        EXPECT_TRUE(sameBits(got, want)) << "gemvSaxpby b==y n=" << n;

        // y inside A (first row), x elsewhere.
        PackedTestMat aw = a, ag = a;
        ref::gemv(Mat(aw.data.data(), 1, n), aw.mat(), Mat(x.data(), 1, n),
                  1.0f, 0.0f);
        k.gemv(Mat(ag.data.data(), 1, n), ag.packed(), Mat(x.data(), 1, n),
               1.0f, 0.0f);
        EXPECT_TRUE(sameBits(ag.data, aw.data)) << "gemv y in A n=" << n;

        aw = a;
        ag = a;
        ref::gemvT(Mat(aw.data.data(), 1, n), aw.mat(), Mat(x.data(), 1, n),
                   1.0f, 0.0f);
        k.gemvT(Mat(ag.data.data(), 1, n), ag.mat(), Mat(x.data(), 1, n),
                1.0f, 0.0f);
        EXPECT_TRUE(sameBits(ag.data, aw.data)) << "gemvT y in A n=" << n;
    }
}

TEST(Packed, MissingCopyRunsTheDotForm)
{
    Rng rng(80);
    PackedTestMat a(kernelValues(rng, 6 * 5, false), 6, 5);
    std::vector<float> x = kernelValues(rng, 5, false);
    std::vector<float> want(6, 0.5f), got(6, 0.5f);
    ref::gemv(Mat(want.data(), 1, 6), a.mat(), Mat(x.data(), 1, 5), 1.0f,
              1.0f);
    packed::gemv(Mat(got.data(), 1, 6), PackedMat{a.mat()},
                 Mat(x.data(), 1, 5), 1.0f, 1.0f);
    EXPECT_TRUE(sameBits(got, want));
}

TEST(Emission, GemminiCiscRequiresMemoryOperands)
{
    GemminiMapping bad = GemminiMapping::fullyOptimized();
    bad.fineGrained = false;
    EXPECT_EXIT({ GemminiBackend b(bad); (void)b; },
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace rtoc::matlib
