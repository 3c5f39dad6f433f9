#include "mat.hh"

namespace rtoc::matlib::ref {

/*
 * Hot-path structure shared by the kernels below: every per-tick ADMM
 * solve funnels through these float32 loops, so each kernel has a
 * `__restrict` unit-stride fast path taken when the operand ranges
 * are provably disjoint. The fast paths keep the reference loop
 * structure and accumulation order EXACTLY — reductions stay one
 * serial chain, elementwise bodies stay per-index — so results are
 * bit-identical to the reference loops (pinned by the kernel-tuning
 * bench and the golden figure outputs). What `restrict` buys is the
 * compiler's cross-output vectorization (independent output chains of
 * gemv/gemvT packed into SIMD lanes — legal without reassociating any
 * single chain) and the removal of runtime alias-versioning checks in
 * the elementwise kernels. A hand-unrolled 4-wide variant was tried
 * and LOST to this form: manual unrolling of the reduction dimension
 * blocks exactly that cross-output vectorization (bench_sweep_scale
 * is the referee). Aliased calls (e.g. saxpby(u, 1, u, -1, d)) fall
 * back to the reference loop, whose in-order semantics they rely on.
 */

void
gemv(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    const int m = a.rows;
    const int n = a.cols;
    if (disjoint(y.data, m, a.data, m * n) &&
        disjoint(y.data, m, x.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict xp = x.data;
        float *__restrict yp = y.data;
        for (int i = 0; i < m; ++i) {
            float acc = 0.0f;
            for (int j = 0; j < n; ++j)
                acc += ap[static_cast<size_t>(i) * n + j] * xp[j];
            yp[i] = alpha * acc + beta * yp[i];
        }
        return;
    }
    for (int i = 0; i < a.rows; ++i) {
        float acc = 0.0f;
        for (int j = 0; j < a.cols; ++j)
            acc += a.at(i, j) * x[j];
        y[i] = alpha * acc + beta * y[i];
    }
}

void
gemvT(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.cols == y.cols && a.rows == x.cols);
    const int m = a.rows;
    const int n = a.cols;
    if (disjoint(y.data, n, a.data, m * n) &&
        disjoint(y.data, n, x.data, m)) {
        // Column walk of a row-major matrix: the compiler vectorizes
        // across the n output columns (contiguous row loads), each
        // column's chain staying in row order.
        const float *__restrict ap = a.data;
        const float *__restrict xp = x.data;
        float *__restrict yp = y.data;
        for (int j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int i = 0; i < m; ++i)
                acc += ap[static_cast<size_t>(i) * n + j] * xp[i];
            yp[j] = alpha * acc + beta * yp[j];
        }
        return;
    }
    for (int j = 0; j < a.cols; ++j) {
        float acc = 0.0f;
        for (int i = 0; i < a.rows; ++i)
            acc += a.at(i, j) * x[i];
        y[j] = alpha * acc + beta * y[j];
    }
}

void
gemvSaxpby(Mat y, const Mat &a, Mat x, float alpha, float beta, float sa,
           float sb, const Mat &b)
{
    rtoc_assert(y.isVec() && x.isVec() && b.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
    rtoc_assert(b.cols == y.cols);
    const int m = a.rows;
    const int n = a.cols;
    if (disjoint(y.data, m, a.data, m * n) &&
        disjoint(y.data, m, x.data, n) &&
        disjoint(y.data, m, b.data, m) &&
        disjoint(b.data, m, a.data, m * n) &&
        disjoint(b.data, m, x.data, n)) {
        // One pass over the rows: the gemv result never round-trips
        // through memory before the saxpby consumes it. Per-element
        // op sequence matches the two-call reference exactly.
        const float *__restrict ap = a.data;
        const float *__restrict xp = x.data;
        const float *__restrict bp = b.data;
        float *__restrict yp = y.data;
        for (int i = 0; i < m; ++i) {
            float acc = 0.0f;
            for (int j = 0; j < n; ++j)
                acc += ap[static_cast<size_t>(i) * n + j] * xp[j];
            float t = alpha * acc + beta * yp[i];
            yp[i] = sa * t + sb * bp[i];
        }
        return;
    }
    // Aliased operands: the exact two-call sequence.
    gemv(y, a, x, alpha, beta);
    saxpby(y, sa, y, sb, b);
}

void
gemm(Mat c, const Mat &a, const Mat &b)
{
    rtoc_assert(a.cols == b.rows);
    rtoc_assert(c.rows == a.rows && c.cols == b.cols);
    const int m = a.rows;
    const int k = a.cols;
    const int n = b.cols;
    if (disjoint(c.data, m * n, a.data, m * k) &&
        disjoint(c.data, m * n, b.data, k * n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict cp = c.data;
        for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (int l = 0; l < k; ++l) {
                    acc += ap[static_cast<size_t>(i) * k + l] *
                           bp[static_cast<size_t>(l) * n + j];
                }
                cp[static_cast<size_t>(i) * n + j] = acc;
            }
        }
        return;
    }
    for (int i = 0; i < c.rows; ++i) {
        for (int j = 0; j < c.cols; ++j) {
            float acc = 0.0f;
            for (int l = 0; l < a.cols; ++l)
                acc += a.at(i, l) * b.at(l, j);
            c.at(i, j) = acc;
        }
    }
}

void
saxpby(Mat out, float sa, const Mat &a, float sb, const Mat &b)
{
    rtoc_assert(out.size() == a.size() && out.size() == b.size());
    const int n = out.size();
    if (disjoint(out.data, n, a.data, n) &&
        disjoint(out.data, n, b.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict op = out.data;
        for (int i = 0; i < n; ++i)
            op[i] = sa * ap[i] + sb * bp[i];
        return;
    }
    for (int i = 0; i < n; ++i)
        out.data[i] = sa * a.data[i] + sb * b.data[i];
}

void
scale(Mat out, const Mat &a, float s)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    if (disjoint(out.data, n, a.data, n)) {
        const float *__restrict ap = a.data;
        float *__restrict op = out.data;
        for (int i = 0; i < n; ++i)
            op[i] = ap[i] * s;
        return;
    }
    for (int i = 0; i < n; ++i)
        out.data[i] = a.data[i] * s;
}

void
accumDiff(Mat acc, const Mat &a, const Mat &b)
{
    rtoc_assert(acc.size() == a.size() && acc.size() == b.size());
    const int n = acc.size();
    if (disjoint(acc.data, n, a.data, n) &&
        disjoint(acc.data, n, b.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict cp = acc.data;
        for (int i = 0; i < n; ++i)
            cp[i] += ap[i] - bp[i];
        return;
    }
    for (int i = 0; i < n; ++i)
        acc.data[i] += a.data[i] - b.data[i];
}

void
axpyDiff(Mat acc, float s, const Mat &a, const Mat &b)
{
    rtoc_assert(acc.size() == a.size() && acc.size() == b.size());
    const int n = acc.size();
    if (disjoint(acc.data, n, a.data, n) &&
        disjoint(acc.data, n, b.data, n)) {
        const float *__restrict ap = a.data;
        const float *__restrict bp = b.data;
        float *__restrict cp = acc.data;
        for (int i = 0; i < n; ++i)
            cp[i] += s * (ap[i] - bp[i]);
        return;
    }
    for (int i = 0; i < n; ++i)
        acc.data[i] += s * (a.data[i] - b.data[i]);
}

void
rowScaleNeg(Mat out, const Mat &a, const Mat &diag)
{
    rtoc_assert(out.rows == a.rows && out.cols == a.cols);
    rtoc_assert(diag.isVec() && diag.cols == a.cols);
    const int rows = out.rows;
    const int cols = out.cols;
    if (disjoint(out.data, rows * cols, a.data, rows * cols) &&
        disjoint(out.data, rows * cols, diag.data, cols)) {
        const float *__restrict ap = a.data;
        const float *__restrict dp = diag.data;
        float *__restrict op = out.data;
        for (int i = 0; i < rows; ++i)
            for (int j = 0; j < cols; ++j) {
                op[static_cast<size_t>(i) * cols + j] =
                    -ap[static_cast<size_t>(i) * cols + j] * dp[j];
            }
        return;
    }
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < cols; ++j)
            out.at(i, j) = -a.at(i, j) * diag[j];
}

void
clampVec(Mat out, const Mat &a, const Mat &lo, const Mat &hi)
{
    rtoc_assert(out.size() == a.size());
    rtoc_assert(out.size() == lo.size() && out.size() == hi.size());
    const int n = out.size();
    if (disjoint(out.data, n, lo.data, n) &&
        disjoint(out.data, n, hi.data, n)) {
        // out may alias a (the solver clamps in place): per-index
        // read-then-write keeps that exact.
        const float *__restrict lp = lo.data;
        const float *__restrict hp = hi.data;
        for (int i = 0; i < n; ++i) {
            float v = a.data[i];
            v = std::fmax(v, lp[i]);
            v = std::fmin(v, hp[i]);
            out.data[i] = v;
        }
        return;
    }
    for (int i = 0; i < n; ++i) {
        float v = a.data[i];
        v = std::fmax(v, lo.data[i]);
        v = std::fmin(v, hi.data[i]);
        out.data[i] = v;
    }
}

void
clampConst(Mat out, const Mat &a, float lo, float hi)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    // Per-index read-then-write: exact under out==a aliasing too.
    for (int i = 0; i < n; ++i) {
        float v = a.data[i];
        v = std::fmax(v, lo);
        v = std::fmin(v, hi);
        out.data[i] = v;
    }
}

float
absMaxDiff(const Mat &a, const Mat &b)
{
    rtoc_assert(a.size() == b.size());
    const int n = a.size();
    const float *__restrict ap = a.data;
    const float *__restrict bp = b.data;
    // Serial max chain in reference order (fmax is not freely
    // reassociable in the presence of NaNs).
    float m = 0.0f;
    for (int i = 0; i < n; ++i)
        m = std::fmax(m, std::fabs(ap[i] - bp[i]));
    return m;
}

void
copy(Mat out, const Mat &a)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    if (disjoint(out.data, n, a.data, n)) {
        const float *__restrict ap = a.data;
        float *__restrict op = out.data;
        for (int i = 0; i < n; ++i)
            op[i] = ap[i];
        return;
    }
    for (int i = 0; i < n; ++i)
        out.data[i] = a.data[i];
}

void
fill(Mat out, float s)
{
    float *__restrict op = out.data;
    const int n = out.size();
    for (int i = 0; i < n; ++i)
        op[i] = s;
}

} // namespace rtoc::matlib::ref
