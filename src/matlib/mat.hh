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
 * the test suite checks bit-exactly). The `packed` namespace holds the
 * output-vectorized host float32 gemv/gemvT kernels as header
 * templates on the operand shape: packed::gemv<M, N> runs with
 * compile-time trip counts, packed::gemv<0, 0> with the operand's
 * run-time shape, and both equal ref::gemv bit for bit.
 */

#ifndef RTOC_MATLIB_MAT_HH
#define RTOC_MATLIB_MAT_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

/** Output lanes of one vector register in the packed gemv kernels. */
constexpr int kPackLanes = 4;

/** Rows of a packed copy: @p rows rounded up to whole vectors. */
inline int
packedRows(int rows)
{
    return (rows + kPackLanes - 1) / kPackLanes * kPackLanes;
}

namespace fx {
struct QuantizedMat;
}

/**
 * A row-major matrix plus a zero-padded column-major copy of it, the
 * operand of the packed gemv kernels: column j of @c mat starts at
 * @c cols + j * packedRows(mat.rows), and the padding rows are zero.
 * A null @c cols means no copy; the kernels then run the dot form on
 * @c mat. The owner rebuilds the copy (packColumns) whenever it writes
 * the matrix.
 *
 * On a narrow-format backend the operand may also carry its quantized
 * copy, resolved once from the backend's operand cache (see
 * Backend::fxOperand); the fx:: kernels then read it without a lookup.
 * Null means they look the matrix up on every call.
 */
struct PackedMat
{
    Mat mat;                     ///< row-major operand
    const float *cols = nullptr; ///< packed copy, or null
    const fx::QuantizedMat *quantized = nullptr; ///< narrow copy, or null
};

/** Floats in the packed copy of a rows x cols matrix. */
inline size_t
packedSize(int rows, int cols)
{
    return static_cast<size_t>(packedRows(rows)) * cols;
}

/** Write the packed copy of @p a (packedSize floats) to @p cols. */
void packColumns(const Mat &a, float *cols);

/** Functional float32 kernels shared by all backends. */
namespace ref {

/** y = alpha * A x + beta * y; A is m x n, x len n, y len m. */
void gemv(Mat y, const Mat &a, Mat x, float alpha, float beta);

/** y = alpha * Aᵀ x + beta * y; A is m x n, x len m, y len n. */
void gemvT(Mat y, const Mat &a, Mat x, float alpha, float beta);

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

/**
 * out = fmin(fmax(a, lo), hi) with vector bounds; a is kept on a ±0
 * tie and a bound wins when both operands are NaN.
 */
void clampVec(Mat out, const Mat &a, const Mat &lo, const Mat &hi);

/** clampVec with scalar bounds. */
void clampConst(Mat out, const Mat &a, float lo, float hi);

/** max_i |a_i - b_i| (the ADMM residual reduction). */
float absMaxDiff(const Mat &a, const Mat &b);

/** out = a. */
void copy(Mat out, const Mat &a);

/** out = s everywhere. */
void fill(Mat out, float s);

/**
 * The element of clampVec and clampConst, min(max(v, lo), hi), as two
 * selects: the portable build cannot inline std::fmax/std::fmin and
 * would make two libm calls per element. Equal to
 * std::fmin(std::fmax(v, lo), hi) wherever that is defined (a NaN
 * operand loses to a number); a +0/-0 tie keeps v, and when both
 * operands are NaN the bound wins. T is float, or packed::detail::Vec
 * for the same selects on each of four lanes.
 */
template <typename T>
inline T
clampOne(T v, T lo, T hi)
{
    const T w = (lo > v || v != v) ? lo : v;
    return (hi < w || w != w) ? hi : w;
}

} // namespace ref

/**
 * Output-vectorized float32 gemv kernels over a PackedMat (and gemvT
 * over the row-major matrix). Each vector register holds kPackLanes
 * consecutive outputs, and each lane runs its output's chain in the
 * reference order (acc = 0, then acc += a_ij * x_j for j = 0..n-1), so
 * results are bit-identical to ref::gemv / ref::gemvT. Without a
 * packed copy, or when y overlaps an input, they run the ref:: kernels
 * instead.
 *
 * The kernels are templates on the operand shape: <M, N> fixes A's
 * rows and columns at compile time, so every trip count is a constant
 * and the kernel inlines into its caller (the solver's per-plant
 * passes); <0, 0> reads the shape from the operand at run time. Both
 * run the same body and compute the same bits.
 *
 * The compiler does not vectorize the dot form across outputs (objdump
 * of the portable Release build shows scalar mulss/addss chains), and
 * it may not split one output's chain without changing its rounding.
 * These kernels therefore vectorize across outputs by hand: they walk
 * the zero-padded column-major copy with the output index innermost,
 * so one vector register accumulates kPackLanes outputs. The padding
 * lanes compute on zeros and are never stored.
 */
namespace packed {

namespace detail {

static_assert(kPackLanes == 4, "Vec and broadcast() assume 4 lanes");

// GCC/Clang vector extension: SSE on x86-64, NEON on AArch64, scalar
// code elsewhere. Lanewise + and * round exactly like the scalar ops.
typedef float Vec __attribute__((vector_size(4 * sizeof(float))));

/** Four int32 lanes: the int16 datapath's exact dot products. */
typedef int32_t IVec __attribute__((vector_size(4 * sizeof(int32_t))));

/** The vector of kPackLanes elements of type T. */
template <typename T> struct LanesOf;
template <> struct LanesOf<float> { using type = Vec; };
template <> struct LanesOf<int32_t> { using type = IVec; };

template <typename T>
inline typename LanesOf<T>::type
load(const T *p)
{
    typename LanesOf<T>::type v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline void
store(float *p, Vec v)
{
    std::memcpy(p, &v, sizeof v);
}

/** All lanes = @p s (no arithmetic: -0.0 and NaN bits survive). */
template <typename T>
inline typename LanesOf<T>::type
broadcast(T s)
{
    return typename LanesOf<T>::type{s, s, s, s};
}

/**
 * One block of V vectors of outputs starting at row @p i0: the dot
 * chains over all n columns, then @p out writes each vector of outputs
 * (@p out.lanes, or the scalar @p out.one for the lanes of a partial
 * last vector). T is float, or int32_t for the int16 datapath.
 */
template <int V, typename T, typename Out>
inline void
block(const T *cols, int ld, int n, const T *x, int i0, int m, Out &out)
{
    typename LanesOf<T>::type acc[V];
    for (int v = 0; v < V; ++v)
        acc[v] = typename LanesOf<T>::type{};
    const T *col = cols + i0;
    for (int j = 0; j < n; ++j, col += ld) {
        const auto xj = broadcast(x[j]);
        for (int v = 0; v < V; ++v)
            acc[v] += load(col + kPackLanes * v) * xj;
    }
    for (int v = 0; v < V; ++v) {
        const int i = i0 + kPackLanes * v;
        if (i + kPackLanes <= m) {
            out.lanes(i, acc[v]);
        } else {
            for (int l = 0; l < m - i; ++l)
                out.one(i + l, acc[v][l]);
        }
    }
}

/**
 * Blocks of up to four vectors (16 outputs) covering @p m outputs of
 * a column-major operand with @p n columns @p ld elements apart. At a
 * fixed shape the block loop and the switch fold away.
 */
template <typename T, typename Out>
inline void
rowsOf(const T *cols, int ld, int m, int n, const T *x, Out &out)
{
    const int rows = packedRows(m);
    constexpr int kBlock = 4 * kPackLanes;
    int i0 = 0;
    for (; i0 + kBlock <= rows; i0 += kBlock)
        block<4>(cols, ld, n, x, i0, m, out);
    switch ((rows - i0) / kPackLanes) {
      case 3: block<3>(cols, ld, n, x, i0, m, out); break;
      case 2: block<2>(cols, ld, n, x, i0, m, out); break;
      case 1: block<1>(cols, ld, n, x, i0, m, out); break;
      default: break;
    }
}

/** Writes each output as y = alpha * acc + beta * y (gemv, gemvT). */
struct ScaleOut
{
    float *y;
    float alpha, beta;

    void
    lanes(int i, Vec acc)
    {
        store(y + i, alpha * acc + beta * load(y + i));
    }

    void one(int i, float acc) { y[i] = alpha * acc + beta * y[i]; }
};

/** y overlaps an input: the kernels' reads would see its stores. */
inline bool
aliased(Mat y, const PackedMat &a, Mat x)
{
    return !disjoint(y.data, y.cols, a.mat.data, a.mat.size()) ||
           !disjoint(y.data, y.cols, x.data, x.cols);
}

} // namespace detail

/**
 * y = alpha * A x + beta * y (see ref::gemv); A is M x N, or any shape
 * at <0, 0>.
 */
template <int M = 0, int N = 0>
inline void
gemv(Mat y, const PackedMat &a, Mat x, float alpha, float beta)
{
    static_assert(M >= 0 && N >= 0 && (M == 0) == (N == 0),
                  "fix both dimensions or neither");
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.mat.rows == y.cols && a.mat.cols == x.cols);
    rtoc_assert(M == 0 || (a.mat.rows == M && a.mat.cols == N));
    if (!a.cols || detail::aliased(y, a, x)) {
        ref::gemv(y, a.mat, x, alpha, beta);
        return;
    }
    detail::ScaleOut out{y.data, alpha, beta};
    const int m = M ? M : a.mat.rows;
    detail::rowsOf(a.cols, packedRows(m), m, N ? N : a.mat.cols, x.data,
                   out);
}

/**
 * y = sa·(alpha·A x + beta·y) + sb·b in one pass, bit-identical to
 * ref::gemv followed by ref::saxpby(y, sa, y, sb, b); shapes as gemv.
 */
template <int M = 0, int N = 0>
inline void
gemvSaxpby(Mat y, const PackedMat &a, Mat x, float alpha, float beta,
           float sa, float sb, const Mat &b)
{
    static_assert(M >= 0 && N >= 0 && (M == 0) == (N == 0),
                  "fix both dimensions or neither");
    rtoc_assert(y.isVec() && x.isVec() && b.isVec());
    rtoc_assert(a.mat.rows == y.cols && a.mat.cols == x.cols);
    rtoc_assert(b.cols == y.cols);
    rtoc_assert(M == 0 || (a.mat.rows == M && a.mat.cols == N));
    if (!a.cols || detail::aliased(y, a, x) ||
        !disjoint(y.data, y.cols, b.data, b.cols)) {
        ref::gemv(y, a.mat, x, alpha, beta);
        ref::saxpby(y, sa, y, sb, b);
        return;
    }
    struct
    {
        float *y;
        const float *b;
        float alpha, beta, sa, sb;
        void lanes(int i, detail::Vec acc)
        {
            const detail::Vec t = alpha * acc + beta * detail::load(y + i);
            detail::store(y + i, sa * t + sb * detail::load(b + i));
        }
        void one(int i, float acc)
        {
            const float t = alpha * acc + beta * y[i];
            y[i] = sa * t + sb * b[i];
        }
    } out{y.data, b.data, alpha, beta, sa, sb};
    const int m = M ? M : a.mat.rows;
    detail::rowsOf(a.cols, packedRows(m), m, N ? N : a.mat.cols, x.data,
                   out);
}

/**
 * y = alpha * Aᵀ x + beta * y (see ref::gemvT) over the row-major A,
 * M x N or any shape at <0, 0>. Row i of A is column i of Aᵀ, so A
 * itself is Aᵀ's column-major copy: whole vectors of outputs run as in
 * gemv, and the last n % kPackLanes outputs, whose vector would read
 * past the matrix, run scalar chains in the same order.
 */
template <int M = 0, int N = 0>
inline void
gemvT(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    static_assert(M >= 0 && N >= 0 && (M == 0) == (N == 0),
                  "fix both dimensions or neither");
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.cols == y.cols && a.rows == x.cols);
    rtoc_assert(M == 0 || (a.rows == M && a.cols == N));
    if (!disjoint(y.data, y.cols, a.data, a.size()) ||
        !disjoint(y.data, y.cols, x.data, x.cols)) {
        ref::gemvT(y, a, x, alpha, beta);
        return;
    }
    detail::ScaleOut out{y.data, alpha, beta};
    const int m = M ? M : a.rows;
    const int n = N ? N : a.cols;
    const int whole = n / kPackLanes * kPackLanes;
    detail::rowsOf(a.data, n, whole, m, x.data, out);
    for (int j = whole; j < n; ++j) {
        float acc = 0.0f;
        for (int i = 0; i < m; ++i)
            acc += a.data[static_cast<size_t>(i) * n + j] * x.data[i];
        out.one(j, acc);
    }
}

} // namespace packed

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_MAT_HH
