/**
 * @file
 * Small dense double-precision matrix type for *offline* computation:
 * model linearization, discretization, and Riccati recursion that
 * produce the TinyMPC cache. This deliberately mirrors the split in the
 * paper's artifact: the solver itself runs in float32 on the embedded
 * target, while the cache (Kinf, Pinf, Quu_inv, AmBKt) is computed
 * ahead of time on the host in double precision.
 *
 * Row-major storage; dimensions are runtime values because the state
 * dimension differs between kernels (nx=12, nu=4, horizon slices).
 *
 * The product, the LU solve and the max-abs difference run the
 * row-major kernels of namespace dense, which are templates on the
 * operand shape: the DMatrix operations run them at <0, ...> (shape
 * read at run time), and the Riccati recursion (dare.cc) at the
 * registry plants' shapes, with constant trip counts and stack
 * scratch. Both compute the same bits.
 */

#ifndef RTOC_NUMERICS_DMATRIX_HH
#define RTOC_NUMERICS_DMATRIX_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace rtoc::numerics {

/** Dense row-major double matrix with value semantics. */
class DMatrix
{
  public:
    /** Empty 0x0 matrix. */
    DMatrix() = default;

    /** rows x cols matrix initialized to zero. */
    DMatrix(int rows, int cols);

    /** rows x cols matrix filled from row-major initializer data. */
    DMatrix(int rows, int cols, std::initializer_list<double> vals);

    /** Identity matrix of size n. */
    static DMatrix identity(int n);

    /** Diagonal matrix from a vector of diagonal entries. */
    static DMatrix diag(const std::vector<double> &d);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    size_t size() const { return data_.size(); }

    /** Element access (bounds-checked via assert in debug paths). */
    double &operator()(int r, int c);
    double operator()(int r, int c) const;

    /** Raw row-major data. */
    const double *data() const { return data_.data(); }
    double *data() { return data_.data(); }

    DMatrix operator+(const DMatrix &o) const;
    DMatrix operator-(const DMatrix &o) const;
    DMatrix operator*(const DMatrix &o) const;
    DMatrix operator*(double s) const;
    DMatrix operator-() const;

    DMatrix &operator+=(const DMatrix &o);
    DMatrix &operator-=(const DMatrix &o);
    DMatrix &operator*=(double s);

    /** Transpose copy. */
    DMatrix transpose() const;

    /** Max |a_ij - b_ij|; matrices must be the same shape. */
    double maxAbsDiff(const DMatrix &o) const;

    /** Max |a_ij|. */
    double maxAbs() const;

    /** Human-readable dump for debugging. */
    std::string str(int precision = 4) const;

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<double> data_;
};

/**
 * Row-major double kernels behind DMatrix's product, LU solve and
 * max-abs difference. Each is a template on its operand shape: fix
 * every dimension, and the trip counts are compile-time constants (the
 * Riccati recursion's registry shapes), or fix none (0), and the shape
 * comes from the run-time arguments. Both run the same arithmetic in
 * the same order, so they compute the same bits.
 */
namespace dense {

/** Dimension D, or the run-time @p d when D is 0. */
template <int D>
constexpr int
dim(int d)
{
    return D ? D : d;
}

/**
 * c = a·b for row-major a (m x k) and b (k x n), in i-k-j order: each
 * c(i,j) is a chain from +0 that skips every a(i,l) == 0.0, so a zero
 * of a never multiplies an Inf or NaN of b. At a fixed shape the output
 * row stays in registers across l; each element's chain is unchanged.
 * c must not alias a or b.
 */
template <int M, int K, int N>
inline void
gemm(double *c, const double *a, const double *b, int m, int k, int n)
{
    static_assert(M >= 0 && K >= 0 && N >= 0 &&
                      (M == 0) == (K == 0) && (K == 0) == (N == 0),
                  "fix every dimension or none");
    m = dim<M>(m);
    k = dim<K>(k);
    n = dim<N>(n);
    for (int i = 0; i < m; ++i) {
        const double *ai = a + static_cast<size_t>(i) * k;
        double *ci = c + static_cast<size_t>(i) * n;
        if constexpr (N > 0) {
            double acc[N] = {};
            for (int l = 0; l < K; ++l) {
                const double s = ai[l];
                if (s == 0.0)
                    continue;
                for (int j = 0; j < N; ++j)
                    acc[j] += s * b[l * N + j];
            }
            std::copy(acc, acc + N, ci);
        } else {
            std::fill(ci, ci + n, 0.0);
            for (int l = 0; l < k; ++l) {
                const double s = ai[l];
                if (s == 0.0)
                    continue;
                const double *bl = b + static_cast<size_t>(l) * n;
                for (int j = 0; j < n; ++j)
                    ci[j] += s * bl[j];
            }
        }
    }
}

/**
 * x = lu⁻¹·x for a square lu (n x n) and x (n x m), overwriting both:
 * LU decomposition with partial pivoting (rtoc_fatal when the best
 * pivot is below 1e-14), then back substitution.
 */
template <int N, int M>
inline void
luSolve(double *lu, double *x, int n, int m)
{
    static_assert(N >= 0 && M >= 0 && (N == 0) == (M == 0),
                  "fix both dimensions or neither");
    n = dim<N>(n);
    m = dim<M>(m);
    auto at = [](double *p, int ld, int r, int c) -> double & {
        return p[static_cast<size_t>(r) * ld + c];
    };
    for (int k = 0; k < n; ++k) {
        // Partial pivot.
        int p = k;
        double best = std::fabs(at(lu, n, k, k));
        for (int i = k + 1; i < n; ++i) {
            const double v = std::fabs(at(lu, n, i, k));
            if (v > best) {
                best = v;
                p = i;
            }
        }
        if (best < 1e-14)
            rtoc_fatal("luSolve: singular %dx%d matrix (pivot %g)", n, n,
                       best);
        if (p != k) {
            for (int j = 0; j < n; ++j)
                std::swap(at(lu, n, k, j), at(lu, n, p, j));
            for (int j = 0; j < m; ++j)
                std::swap(at(x, m, k, j), at(x, m, p, j));
        }
        for (int i = k + 1; i < n; ++i) {
            const double f = at(lu, n, i, k) / at(lu, n, k, k);
            at(lu, n, i, k) = f;
            for (int j = k + 1; j < n; ++j)
                at(lu, n, i, j) -= f * at(lu, n, k, j);
            for (int j = 0; j < m; ++j)
                at(x, m, i, j) -= f * at(x, m, k, j);
        }
    }
    // Back substitution.
    for (int k = n - 1; k >= 0; --k) {
        for (int j = 0; j < m; ++j) {
            double s = at(x, m, k, j);
            for (int i = k + 1; i < n; ++i)
                s -= at(lu, n, k, i) * at(x, m, i, j);
            at(x, m, k, j) = s / at(lu, n, k, k);
        }
    }
}

/**
 * max_i |a_i - b_i| over @p n elements, as a std::max chain from +0:
 * a NaN difference never replaces the running maximum.
 */
template <int N>
inline double
maxAbsDiff(const double *a, const double *b, int n)
{
    n = dim<N>(n);
    double m = 0.0;
    for (int i = 0; i < n; ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

} // namespace dense

/**
 * Solve A·X = B by LU decomposition with partial pivoting
 * (dense::luSolve on copies of the operands).
 * @param a square, non-singular matrix
 * @param b right-hand side (may have multiple columns)
 * @return X such that A·X = B; fatal() on singular A
 */
DMatrix luSolve(const DMatrix &a, const DMatrix &b);

/** Matrix inverse via luSolve against the identity. */
DMatrix inverse(const DMatrix &a);

/**
 * Cholesky factor L of a symmetric positive-definite matrix
 * (A = L·Lᵀ, L lower-triangular). Used both offline and as the model
 * for the solver's Cholesky flops. fatal() when A is not SPD.
 */
DMatrix cholesky(const DMatrix &a);

/**
 * Matrix exponential by scaling-and-squaring with a Taylor series,
 * adequate for the small, well-conditioned A·dt blocks used in
 * zero-order-hold discretization of the drone dynamics.
 */
DMatrix expm(const DMatrix &a);

/**
 * Zero-order-hold discretization of a continuous-time LTI system
 * (Ac, Bc) with step dt, via the augmented-matrix exponential trick.
 * @return pair stored as {Ad | Bd} horizontally concatenated in one
 *         matrix of shape nx x (nx + nu).
 */
DMatrix zohDiscretize(const DMatrix &ac, const DMatrix &bc, double dt);

} // namespace rtoc::numerics

#endif // RTOC_NUMERICS_DMATRIX_HH
