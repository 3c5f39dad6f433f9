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
 */

#ifndef RTOC_NUMERICS_DMATRIX_HH
#define RTOC_NUMERICS_DMATRIX_HH

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

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

    /**
     * Allocation-free elementwise update: this += o / this -= o.
     * Identical arithmetic to `x = x + o` (FP addition is
     * commutative), so hot loops can drop the temporary without
     * moving a bit — the warm-DARE iteration relies on this (pinned
     * by tests).
     */
    DMatrix &addInPlace(const DMatrix &o);
    DMatrix &subInPlace(const DMatrix &o);

    /**
     * this = a·b, reusing this matrix's storage when the shape
     * already matches (no allocation after the first iteration of a
     * fixed-shape loop). Accumulation order is identical to
     * operator* — including its zero-row skip — so results are
     * bit-identical. this must not alias a or b.
     */
    DMatrix &gemmInto(const DMatrix &a, const DMatrix &b);

    /** Transpose copy. */
    DMatrix transpose() const;

    /** Max |a_ij - b_ij|; matrices must be the same shape. */
    double maxAbsDiff(const DMatrix &o) const;

    /** Max |a_ij|. */
    double maxAbs() const;

    /** Frobenius norm. */
    double frobenius() const;

    /** Human-readable dump for debugging. */
    std::string str(int precision = 4) const;

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<double> data_;
};

/**
 * Solve A·X = B by LU decomposition with partial pivoting.
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
