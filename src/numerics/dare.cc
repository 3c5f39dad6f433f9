#include "dare.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/plant_shapes.hh"

namespace rtoc::numerics {

namespace {

/** N doubles of scratch on the stack, or @p n on the heap at N = 0. */
template <int N> struct Scratch
{
    explicit Scratch(int) {}
    double *data() { return v; }
    double v[N];
};

template <> struct Scratch<0>
{
    explicit Scratch(int n) : v(static_cast<size_t>(n)) {}
    double *data() { return v.data(); }
    std::vector<double> v;
};

/** A rows x cols DMatrix holding the row-major @p src. */
DMatrix
fromRows(int rows, int cols, const double *src)
{
    DMatrix m(rows, cols);
    std::copy(src, src + m.size(), m.data());
    return m;
}

/**
 * trySolveDare at shape <NX, NU> (<0, 0>: the operands' run-time
 * shape). Each step computes, element for element, what the allocating
 * DMatrix expression in its comment computes: the products run
 * dense::gemm in operator*'s order, and the adds keep their operand
 * order. The k and p buffers swap roles each iteration instead of
 * being copied.
 */
template <int NX, int NU>
std::optional<LqrCache>
riccati(const DMatrix &a, const DMatrix &b, const DMatrix &q_rho,
        const DMatrix &r_rho, const DMatrix &p0, double tol, int max_iters)
{
    const int nx = dense::dim<NX>(a.rows());
    const int nu = dense::dim<NU>(b.cols());
    const int xx = nx * nx, ux = nu * nx, uu = nu * nu;
    const DMatrix at = a.transpose();
    const DMatrix bt = b.transpose();

    Scratch<NX * NX> p_buf(xx), p_new_buf(xx), abk_buf(xx), atp_buf(xx);
    Scratch<NU * NX> k_buf(ux), k_new_buf(ux), btp_buf(ux);
    Scratch<NU * NU> quu_buf(uu);
    double *p = p_buf.data(), *p_new = p_new_buf.data();
    double *k = k_buf.data(), *k_new = k_new_buf.data();
    double *abk = abk_buf.data(), *atp = atp_buf.data();
    double *btp = btp_buf.data(), *quu = quu_buf.data();
    std::copy(p0.data(), p0.data() + xx, p);
    std::fill(k, k + ux, 0.0);

    LqrCache cache;
    for (int it = 0; it < max_iters; ++it) {
        // k_new = luSolve(r_rho + btp·b, btp·a), btp = bt·p
        dense::gemm<NU, NX, NX>(btp, bt.data(), p, nu, nx, nx);
        dense::gemm<NU, NX, NU>(quu, btp, b.data(), nu, nx, nu);
        for (int i = 0; i < uu; ++i)
            quu[i] += r_rho.data()[i];
        dense::gemm<NU, NX, NX>(k_new, btp, a.data(), nu, nx, nx);
        dense::luSolve<NU, NX>(quu, k_new, nu, nx);
        // Joseph-free update p_new = q_rho + at·p·(a - b·k_new).
        dense::gemm<NX, NU, NX>(abk, b.data(), k_new, nx, nu, nx);
        for (int i = 0; i < xx; ++i)
            abk[i] = a.data()[i] - abk[i];
        dense::gemm<NX, NX, NX>(atp, at.data(), p, nx, nx, nx);
        dense::gemm<NX, NX, NX>(p_new, atp, abk, nx, nx, nx);
        for (int i = 0; i < xx; ++i)
            p_new[i] += q_rho.data()[i];

        const double dk = dense::maxAbsDiff<NU * NX>(k_new, k, ux);
        std::swap(k, k_new);
        const double dp = dense::maxAbsDiff<NX * NX>(p_new, p, xx);
        std::swap(p, p_new);
        cache.iterations = it + 1;
        cache.residual = dp;
        if (dk < tol && it > 1) {
            cache.kinf = fromRows(nu, nx, k);
            cache.pinf = fromRows(nx, nx, p);
            DMatrix quu_final = r_rho + bt * cache.pinf * b;
            cache.quuInv = inverse(quu_final);
            cache.amBKt = (a - b * cache.kinf).transpose();
            return cache;
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<LqrCache>
trySolveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
             const DMatrix &r, double rho, const DMatrix *p_warm,
             double tol, int max_iters)
{
    int nx = a.rows();
    int nu = b.cols();
    rtoc_assert(a.cols() == nx && b.rows() == nx);
    rtoc_assert(q.rows() == nx && q.cols() == nx);
    rtoc_assert(r.rows() == nu && r.cols() == nu);

    // rho-augmented costs (TinyMPC folds the ADMM penalty in here).
    DMatrix q_rho = q + DMatrix::identity(nx) * rho;
    DMatrix r_rho = r + DMatrix::identity(nu) * rho;
    const DMatrix &p0 = p_warm != nullptr ? *p_warm : q_rho;
    rtoc_assert(p0.rows() == nx && p0.cols() == nx);
    return atPlantShape(nx, nu, [&](auto NX, auto NU) {
        return riccati<NX, NU>(a, b, q_rho, r_rho, p0, tol, max_iters);
    });
}

LqrCache
solveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
          const DMatrix &r, double rho, double tol, int max_iters)
{
    std::optional<LqrCache> cache =
        trySolveDare(a, b, q, r, rho, nullptr, tol, max_iters);
    if (!cache) {
        rtoc_fatal("solveDare: no convergence after %d iterations",
                   max_iters);
    }
    return *cache;
}

} // namespace rtoc::numerics
