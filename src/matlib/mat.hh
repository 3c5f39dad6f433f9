/**
 * @file
 * Float32 matrix/vector views and functional reference kernels.
 *
 * This reproduces the paper's `matlib`: a lightweight C-style linear
 * algebra interface for embedded optimization (§3.2). A Mat is a
 * non-owning view over row-major float32 storage; TinyMPC's workspace
 * owns the buffers. The `ref` namespace holds the *functional*
 * implementations — every backend computes identical float32 results
 * and differs only in the micro-op stream it emits, so software-
 * mapping optimizations can never change solver semantics (a property
 * the test suite checks bit-exactly).
 */

#ifndef RTOC_MATLIB_MAT_HH
#define RTOC_MATLIB_MAT_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace rtoc::matlib {

/** True when [p, p+n) and [q, q+m) do not overlap. */
inline bool
disjoint(const float *p, int n, const float *q, int m)
{
    auto pb = reinterpret_cast<uintptr_t>(p);
    auto qb = reinterpret_cast<uintptr_t>(q);
    return pb + static_cast<uintptr_t>(n) * sizeof(float) <= qb ||
           qb + static_cast<uintptr_t>(m) * sizeof(float) <= pb;
}

/** Non-owning row-major float32 matrix view. */
struct Mat
{
    float *data = nullptr;
    int rows = 0;
    int cols = 0;

    Mat() = default;

    Mat(float *d, int r, int c) : data(d), rows(r), cols(c) {}

    /** Element access. */
    float &
    at(int r, int c) const
    {
        rtoc_assert(r >= 0 && r < rows && c >= 0 && c < cols);
        return data[static_cast<size_t>(r) * cols + c];
    }

    /** Contiguous row view (length == cols). */
    Mat
    row(int r) const
    {
        rtoc_assert(r >= 0 && r < rows);
        return Mat(data + static_cast<size_t>(r) * cols, 1, cols);
    }

    /** Total elements. */
    int size() const { return rows * cols; }

    /** True for 1 x n views used as vectors. */
    bool isVec() const { return rows == 1; }

    /** Vector element access. */
    float &
    operator[](int i) const
    {
        rtoc_assert(rows == 1 && i >= 0 && i < cols);
        return data[i];
    }
};

/** Functional float32 kernels shared by all backends. */
namespace ref {

/** y = alpha * A x + beta * y; A is m x n, x len n, y len m. */
void gemv(Mat y, const Mat &a, Mat x, float alpha, float beta);

/** y = alpha * Aᵀ x + beta * y; A is m x n, x len m, y len n. */
void gemvT(Mat y, const Mat &a, Mat x, float alpha, float beta);

/**
 * Fused forward/backward-pass pair: y = sa·(alpha·A x + beta·y) +
 * sb·b in one pass over the rows. Bit-identical to gemv(y, a, x,
 * alpha, beta) followed by saxpby(y, sa, y, sb, b) — the per-element
 * operation sequence is unchanged, only the memory round trip of the
 * intermediate y is removed. Falls back to the exact two-call
 * sequence when operands alias.
 */
void gemvSaxpby(Mat y, const Mat &a, Mat x, float alpha, float beta,
                float sa, float sb, const Mat &b);

/** C = A B. */
void gemm(Mat c, const Mat &a, const Mat &b);

/** out = sa * a + sb * b (elementwise; covers add/sub/axpy). */
void saxpby(Mat out, float sa, const Mat &a, float sb, const Mat &b);

/** out = a * s. */
void scale(Mat out, const Mat &a, float s);

/** acc += a - b (elementwise; the ADMM dual update shape). */
void accumDiff(Mat acc, const Mat &a, const Mat &b);

/** acc += s * (a - b) (the ADMM linear-cost update shape). */
void axpyDiff(Mat acc, float s, const Mat &a, const Mat &b);

/** out[i][j] = -a[i][j] * diag[j] (reference-cost row scaling). */
void rowScaleNeg(Mat out, const Mat &a, const Mat &diag);

/** out = min(hi, max(lo, a)) with vector bounds. */
void clampVec(Mat out, const Mat &a, const Mat &lo, const Mat &hi);

/** out = min(hi, max(lo, a)) with scalar bounds. */
void clampConst(Mat out, const Mat &a, float lo, float hi);

/** max_i |a_i - b_i| (the ADMM residual reduction). */
float absMaxDiff(const Mat &a, const Mat &b);

/** out = a. */
void copy(Mat out, const Mat &a);

/** out = s everywhere. */
void fill(Mat out, float s);

} // namespace ref

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_MAT_HH
