/**
 * @file
 * Unit and property tests for the offline numerics: dense matrix
 * algebra, LU solve, Cholesky, matrix exponential, ZOH discretization
 * and the discrete Riccati solver, whose fixed-shape recursion is
 * pinned bit for bit to the allocating DMatrix form at every registry
 * plant's shape.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numerics/dare.hh"
#include "numerics/dmatrix.hh"
#include "plant/registry.hh"

namespace rtoc::numerics {
namespace {

TEST(DMatrix, IdentityMultiplication)
{
    DMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
    DMatrix r = DMatrix::identity(2) * a;
    EXPECT_NEAR(r.maxAbsDiff(a), 0.0, 1e-15);
}

TEST(DMatrix, MultiplyKnownValues)
{
    DMatrix a(2, 2, {1, 2, 3, 4});
    DMatrix b(2, 2, {5, 6, 7, 8});
    DMatrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19);
    EXPECT_DOUBLE_EQ(c(0, 1), 22);
    EXPECT_DOUBLE_EQ(c(1, 0), 43);
    EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(DMatrix, TransposeInvolution)
{
    DMatrix a(3, 2, {1, 2, 3, 4, 5, 6});
    EXPECT_NEAR(a.transpose().transpose().maxAbsDiff(a), 0.0, 0.0);
}

TEST(DMatrix, AddSubScale)
{
    DMatrix a(2, 2, {1, 2, 3, 4});
    DMatrix b(2, 2, {4, 3, 2, 1});
    DMatrix sum = a + b;
    EXPECT_DOUBLE_EQ(sum(0, 0), 5);
    DMatrix diff = sum - b;
    EXPECT_NEAR(diff.maxAbsDiff(a), 0.0, 0.0);
    DMatrix scaled = a * 2.0;
    EXPECT_DOUBLE_EQ(scaled(1, 1), 8);
}

TEST(LuSolve, SolvesKnownSystem)
{
    DMatrix a(2, 2, {2, 1, 1, 3});
    DMatrix b(2, 1, {3, 5});
    DMatrix x = luSolve(a, b);
    EXPECT_NEAR(x(0, 0), 0.8, 1e-12);
    EXPECT_NEAR(x(1, 0), 1.4, 1e-12);
}

TEST(LuSolve, InverseRoundTrip)
{
    DMatrix a(4, 4,
              {4, 1, 0, 0, 1, 5, 2, 0, 0, 2, 6, 1, 0, 0, 1, 7});
    DMatrix inv = inverse(a);
    DMatrix eye = a * inv;
    EXPECT_NEAR(eye.maxAbsDiff(DMatrix::identity(4)), 0.0, 1e-10);
}

TEST(LuSolve, PermutedSystemNeedsPivoting)
{
    // Zero on the leading diagonal forces a row swap.
    DMatrix a(2, 2, {0, 1, 1, 0});
    DMatrix b(2, 1, {2, 3});
    DMatrix x = luSolve(a, b);
    EXPECT_NEAR(x(0, 0), 3.0, 1e-12);
    EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(Cholesky, FactorReconstructs)
{
    DMatrix a(3, 3, {4, 2, 1, 2, 5, 2, 1, 2, 6});
    DMatrix l = cholesky(a);
    DMatrix recon = l * l.transpose();
    EXPECT_NEAR(recon.maxAbsDiff(a), 0.0, 1e-12);
    // L is lower-triangular.
    EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(l(0, 2), 0.0);
    EXPECT_DOUBLE_EQ(l(1, 2), 0.0);
}

TEST(Expm, ZeroMatrixGivesIdentity)
{
    DMatrix z(3, 3);
    EXPECT_NEAR(expm(z).maxAbsDiff(DMatrix::identity(3)), 0.0, 1e-14);
}

TEST(Expm, DiagonalMatchesScalarExp)
{
    DMatrix a = DMatrix::diag({0.5, -1.0, 2.0});
    DMatrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::exp(0.5), 1e-10);
    EXPECT_NEAR(e(1, 1), std::exp(-1.0), 1e-10);
    EXPECT_NEAR(e(2, 2), std::exp(2.0), 1e-10);
    EXPECT_NEAR(e(0, 1), 0.0, 1e-12);
}

TEST(Expm, RotationBlock)
{
    // exp([[0,-t],[t,0]]) = [[cos t, -sin t],[sin t, cos t]].
    double t = 0.7;
    DMatrix a(2, 2, {0, -t, t, 0});
    DMatrix e = expm(a);
    EXPECT_NEAR(e(0, 0), std::cos(t), 1e-10);
    EXPECT_NEAR(e(0, 1), -std::sin(t), 1e-10);
    EXPECT_NEAR(e(1, 0), std::sin(t), 1e-10);
}

TEST(Zoh, DoubleIntegratorKnownForm)
{
    // xdot = [[0,1],[0,0]] x + [0,1]^T u -> Ad = [[1,dt],[0,1]],
    // Bd = [dt^2/2, dt]^T.
    DMatrix ac(2, 2, {0, 1, 0, 0});
    DMatrix bc(2, 1, {0, 1});
    double dt = 0.05;
    DMatrix adbd = zohDiscretize(ac, bc, dt);
    EXPECT_NEAR(adbd(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(adbd(0, 1), dt, 1e-12);
    EXPECT_NEAR(adbd(1, 1), 1.0, 1e-12);
    EXPECT_NEAR(adbd(0, 2), dt * dt / 2, 1e-12);
    EXPECT_NEAR(adbd(1, 2), dt, 1e-12);
}

class DareTest : public ::testing::TestWithParam<double>
{};

TEST_P(DareTest, RiccatiFixedPointHolds)
{
    // Double integrator with varying rho: the returned Pinf must
    // satisfy the rho-augmented DARE.
    double rho = GetParam();
    DMatrix a(2, 2, {1, 0.05, 0, 1});
    DMatrix b(2, 1, {0.00125, 0.05});
    DMatrix q = DMatrix::diag({10.0, 1.0});
    DMatrix r = DMatrix::diag({0.1});
    LqrCache c = solveDare(a, b, q, r, rho);

    DMatrix q_rho = q + DMatrix::identity(2) * rho;
    DMatrix r_rho = r + DMatrix::identity(1) * rho;
    DMatrix at = a.transpose();
    DMatrix bt = b.transpose();
    DMatrix rhs = q_rho + at * c.pinf * (a - b * c.kinf);
    EXPECT_NEAR(rhs.maxAbsDiff(c.pinf), 0.0, 1e-6);

    // Kinf consistency: (R + B'PB) K = B'PA.
    DMatrix lhs = (r_rho + bt * c.pinf * b) * c.kinf;
    DMatrix rhs2 = bt * c.pinf * a;
    EXPECT_NEAR(lhs.maxAbsDiff(rhs2), 0.0, 1e-8);

    // QuuInv really is the inverse.
    DMatrix eye = c.quuInv * (r_rho + bt * c.pinf * b);
    EXPECT_NEAR(eye.maxAbsDiff(DMatrix::identity(1)), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, DareTest,
                         ::testing::Values(0.1, 1.0, 5.0, 25.0));

TEST(Dare, ClosedLoopIsStable)
{
    DMatrix a(2, 2, {1, 0.05, 0, 1});
    DMatrix b(2, 1, {0.00125, 0.05});
    LqrCache c = solveDare(a, b, DMatrix::diag({10.0, 1.0}),
                           DMatrix::diag({0.1}), 1.0);
    // Simulate x+ = (A - B K) x: must contract to zero.
    DMatrix acl = a - b * c.kinf;
    DMatrix x(2, 1, {1.0, -2.0});
    for (int i = 0; i < 400; ++i)
        x = acl * x;
    EXPECT_LT(x.maxAbs(), 1e-6);
}

TEST(Dare, AmBKtIsTransposedClosedLoop)
{
    DMatrix a(2, 2, {1, 0.05, 0, 1});
    DMatrix b(2, 1, {0.00125, 0.05});
    LqrCache c = solveDare(a, b, DMatrix::diag({10.0, 1.0}),
                           DMatrix::diag({0.1}), 1.0);
    DMatrix expect = (a - b * c.kinf).transpose();
    EXPECT_NEAR(c.amBKt.maxAbsDiff(expect), 0.0, 1e-12);
}

// --- the dense:: kernels and the fixed-shape Riccati recursion ---

/** Same shape and the same bits in every element (memcmp). */
::testing::AssertionResult
sameBits(const DMatrix &got, const DMatrix &want)
{
    if (got.rows() != want.rows() || got.cols() != want.cols()) {
        return ::testing::AssertionFailure()
               << got.rows() << "x" << got.cols() << " vs " << want.rows()
               << "x" << want.cols();
    }
    if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)))
        return ::testing::AssertionFailure() << "\n" << got.str(17)
                                             << "vs\n" << want.str(17);
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameBits(double got, double want)
{
    if (std::memcmp(&got, &want, sizeof got))
        return ::testing::AssertionFailure() << got << " vs " << want;
    return ::testing::AssertionSuccess();
}

TEST(DenseGemm, FixedShapeMatchesRunTimeShapeAndSkipsZeros)
{
    // Row 0 of a is sparse and b's row 1, which it skips, holds an Inf
    // and a NaN: the zero skip keeps c's row 0 finite.
    const double inf = std::numeric_limits<double>::infinity();
    DMatrix a(3, 3, {0, 0, 0.5, 1, -0.0, 2, -0.25, 3, 0});
    DMatrix b(3, 4, {1.5, -2, 0.125, 7, inf, std::nan(""), 1, -1, 3, 0.5,
                     -4, 1e-300});
    DMatrix got(3, 4);
    dense::gemm<3, 3, 4>(got.data(), a.data(), b.data(), 3, 3, 4);
    EXPECT_TRUE(sameBits(got, a * b));
    for (int j = 0; j < 4; ++j)
        EXPECT_TRUE(std::isfinite(got(0, j))) << j;

    // Against an independent i-k-j loop with the skip, on dense operands.
    uint64_t seed = 7;
    auto next = [&seed] {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(static_cast<int64_t>(seed >> 20)) /
               (1ll << 40);
    };
    DMatrix x(4, 12), y(12, 12);
    for (DMatrix *m : {&x, &y})
        for (size_t i = 0; i < m->size(); ++i)
            m->data()[i] = i % 5 == 3 ? 0.0 : next();
    DMatrix want(4, 12);
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 12; ++k)
            if (x(i, k) != 0.0)
                for (int j = 0; j < 12; ++j)
                    want(i, j) += x(i, k) * y(k, j);
    DMatrix fixed(4, 12), dynamic(4, 12);
    dense::gemm<4, 12, 12>(fixed.data(), x.data(), y.data(), 4, 12, 12);
    dense::gemm<0, 0, 0>(dynamic.data(), x.data(), y.data(), 4, 12, 12);
    EXPECT_TRUE(sameBits(fixed, want));
    EXPECT_TRUE(sameBits(dynamic, want));
    EXPECT_TRUE(sameBits(x * y, want));
}

/**
 * The allocating DARE iteration, kept verbatim as the reference: the
 * fixed-shape recursion in trySolveDare must reproduce every output
 * bit for bit.
 */
std::optional<LqrCache>
referenceDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
              const DMatrix &r, double rho, const DMatrix *p_warm,
              double tol, int max_iters)
{
    int nx = a.rows();
    DMatrix q_rho = q + DMatrix::identity(nx) * rho;
    DMatrix r_rho = r + DMatrix::identity(b.cols()) * rho;
    DMatrix at = a.transpose();
    DMatrix bt = b.transpose();
    DMatrix p = p_warm != nullptr ? *p_warm : q_rho;
    DMatrix kinf(b.cols(), nx);
    LqrCache cache;
    for (int it = 0; it < max_iters; ++it) {
        DMatrix btp = bt * p;
        DMatrix quu = r_rho + btp * b;
        DMatrix k_new = luSolve(quu, btp * a);
        DMatrix p_new = q_rho + at * p * (a - b * k_new);
        double dk = k_new.maxAbsDiff(kinf);
        kinf = k_new;
        double dp = p_new.maxAbsDiff(p);
        p = p_new;
        cache.iterations = it + 1;
        cache.residual = dp;
        if (dk < tol && it > 1) {
            DMatrix quu_final = r_rho + bt * p * b;
            cache.kinf = kinf;
            cache.pinf = p;
            cache.quuInv = inverse(quu_final);
            cache.amBKt = (a - b * kinf).transpose();
            return cache;
        }
    }
    return std::nullopt;
}

/** trySolveDare against referenceDare: both nullopt, or every output
 *  bit-equal. */
void
expectSameDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
               const DMatrix &r, double rho, const DMatrix *p_warm,
               double tol, int max_iters, const std::string &what)
{
    const auto want =
        referenceDare(a, b, q, r, rho, p_warm, tol, max_iters);
    const auto got = trySolveDare(a, b, q, r, rho, p_warm, tol, max_iters);
    ASSERT_EQ(got.has_value(), want.has_value()) << what;
    if (!want)
        return;
    EXPECT_EQ(got->iterations, want->iterations) << what;
    EXPECT_TRUE(sameBits(got->residual, want->residual)) << what;
    EXPECT_TRUE(sameBits(got->pinf, want->pinf)) << what;
    EXPECT_TRUE(sameBits(got->kinf, want->kinf)) << what;
    EXPECT_TRUE(sameBits(got->quuInv, want->quuInv)) << what;
    EXPECT_TRUE(sameBits(got->amBKt, want->amBKt)) << what;
}

TEST(Dare, InPlaceIterationBitIdenticalToAllocatingReference)
{
    // Run-time shapes: a double integrator and a 3-state system, cold
    // and warm started.
    DMatrix a2(2, 2, {1, 0.05, 0, 1});
    DMatrix b2(2, 1, {0.00125, 0.05});
    DMatrix q2 = DMatrix::diag({10.0, 1.0});
    DMatrix r2 = DMatrix::diag({0.1});

    DMatrix a3(3, 3, {1, 0.05, 0.001, 0, 0.98, 0.05, 0.01, 0, 0.95});
    DMatrix b3(3, 2, {0.002, 0, 0.05, 0.01, 0, 0.04});
    DMatrix q3 = DMatrix::diag({5.0, 2.0, 1.0});
    DMatrix r3 = DMatrix::diag({0.2, 0.3});

    struct Case
    {
        const DMatrix *a, *b, *q, *r;
        double rho;
    };
    for (const Case &c :
         {Case{&a2, &b2, &q2, &r2, 1.0}, Case{&a2, &b2, &q2, &r2, 5.0},
          Case{&a3, &b3, &q3, &r3, 1.0}}) {
        const std::string what = std::to_string(c.a->rows()) + "x" +
                                 std::to_string(c.b->cols()) + " rho " +
                                 std::to_string(c.rho);
        expectSameDare(*c.a, *c.b, *c.q, *c.r, c.rho, nullptr, 1e-10, 10000,
                       what + " cold");
        auto cold = trySolveDare(*c.a, *c.b, *c.q, *c.r, c.rho, nullptr,
                                 1e-10, 10000);
        ASSERT_TRUE(cold.has_value());
        // Warm start from the converged Pinf: the session-refresh
        // path. Must also match bit-for-bit and converge faster.
        expectSameDare(*c.a, *c.b, *c.q, *c.r, c.rho, &cold->pinf, 1e-10,
                       10000, what + " warm");
        auto warm = trySolveDare(*c.a, *c.b, *c.q, *c.r, c.rho,
                                 &cold->pinf, 1e-10, 10000);
        ASSERT_TRUE(warm.has_value());
        EXPECT_LE(warm->iterations, cold->iterations);
    }

    // Every registry shape, called as the HIL stack calls it: the cold
    // trim solve of buildWorkspace, a warm refresh of an off-trim model
    // from the trim Pinf, and a call whose cap stops it early.
    for (const std::string &name :
         plant::ScenarioRegistry::global().plantNames()) {
        std::unique_ptr<plant::Plant> p =
            plant::ScenarioRegistry::global().makePlant(name);
        const plant::Weights w = p->mpcWeights();
        const DMatrix q = DMatrix::diag(w.qDiag);
        const DMatrix r = DMatrix::diag(w.rDiag);
        const plant::LinearModel trim = p->linearize(0.02);
        expectSameDare(trim.ad, trim.bd, q, r, w.rho, nullptr, 1e-10, 10000,
                       name + " cold trim");
        const auto cold = trySolveDare(trim.ad, trim.bd, q, r, w.rho,
                                       nullptr, 1e-10, 10000);
        ASSERT_TRUE(cold.has_value()) << name;

        std::vector<double> x = p->trimState();
        for (size_t j = 0; j < x.size(); ++j)
            x[j] += 0.03 * static_cast<double>(j + 1);
        const std::vector<double> du(static_cast<size_t>(p->nu()), 0.1);
        const plant::LinearModel off =
            p->linearizeAt(x.data(), du.data(), 0.02);
        expectSameDare(off.ad, off.bd, q, r, w.rho, &cold->pinf, 1e-6, 500,
                       name + " warm off-trim");

        ASSERT_GT(cold->iterations, 3) << name;
        EXPECT_FALSE(trySolveDare(trim.ad, trim.bd, q, r, w.rho, nullptr,
                                  1e-10, cold->iterations - 1))
            << name;
        expectSameDare(trim.ad, trim.bd, q, r, w.rho, nullptr, 1e-10,
                       cold->iterations - 1, name + " capped");
    }
}

TEST(Dare, StopsOnTheKinfStepAloneEvenWhilePGrows)
{
    // The documented stopping test (dare.hh): an uncontrollable
    // unstable mode, on which K settles while P diverges.
    DMatrix a(2, 2, {1.2, 0, 0.3, 0.9});
    DMatrix b(2, 1, {0, 1});
    auto c = trySolveDare(a, b, DMatrix::identity(2), DMatrix::diag({0.1}),
                          1.0, nullptr, 1e-6, 10000);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->iterations, 12);
    EXPECT_NEAR(c->residual, 163.83, 0.01);
}

} // namespace
} // namespace rtoc::numerics
