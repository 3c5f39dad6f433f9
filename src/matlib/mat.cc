#include "mat.hh"

namespace rtoc::matlib {

/*
 * The ref:: kernels are the plain reference loops: one serial chain per
 * reduction, per-index elementwise bodies, exact under any aliasing.
 * They are the oracle every other kernel is pinned against, and the
 * host float32 path for everything except gemv and gemvT, which run
 * the packed:: header templates (mat.hh) so that a fixed operand shape
 * inlines into the solver. The clamps and the residual reduction are
 * written as compares and selects rather than fmax/fmin calls (see
 * clampOne and absMaxDiff).
 */

void
packColumns(const Mat &a, float *cols)
{
    const int ld = packedRows(a.rows);
    for (int j = 0; j < a.cols; ++j) {
        float *col = cols + static_cast<size_t>(j) * ld;
        for (int i = 0; i < a.rows; ++i)
            col[i] = a.data[static_cast<size_t>(i) * a.cols + j];
        for (int i = a.rows; i < ld; ++i)
            col[i] = 0.0f;
    }
}

namespace ref {

void
gemv(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    rtoc_assert(y.isVec() && x.isVec());
    rtoc_assert(a.rows == y.cols && a.cols == x.cols);
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
    for (int j = 0; j < a.cols; ++j) {
        float acc = 0.0f;
        for (int i = 0; i < a.rows; ++i)
            acc += a.at(i, j) * x[i];
        y[j] = alpha * acc + beta * y[j];
    }
}

void
gemm(Mat c, const Mat &a, const Mat &b)
{
    rtoc_assert(a.cols == b.rows);
    rtoc_assert(c.rows == a.rows && c.cols == b.cols);
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
    for (int i = 0; i < n; ++i)
        out.data[i] = sa * a.data[i] + sb * b.data[i];
}

void
scale(Mat out, const Mat &a, float s)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    for (int i = 0; i < n; ++i)
        out.data[i] = a.data[i] * s;
}

void
accumDiff(Mat acc, const Mat &a, const Mat &b)
{
    rtoc_assert(acc.size() == a.size() && acc.size() == b.size());
    const int n = acc.size();
    for (int i = 0; i < n; ++i)
        acc.data[i] += a.data[i] - b.data[i];
}

void
axpyDiff(Mat acc, float s, const Mat &a, const Mat &b)
{
    rtoc_assert(acc.size() == a.size() && acc.size() == b.size());
    const int n = acc.size();
    for (int i = 0; i < n; ++i)
        acc.data[i] += s * (a.data[i] - b.data[i]);
}

void
rowScaleNeg(Mat out, const Mat &a, const Mat &diag)
{
    rtoc_assert(out.rows == a.rows && out.cols == a.cols);
    rtoc_assert(diag.isVec() && diag.cols == a.cols);
    for (int i = 0; i < out.rows; ++i)
        for (int j = 0; j < out.cols; ++j)
            out.at(i, j) = -a.at(i, j) * diag[j];
}

void
clampVec(Mat out, const Mat &a, const Mat &lo, const Mat &hi)
{
    rtoc_assert(out.size() == a.size());
    rtoc_assert(out.size() == lo.size() && out.size() == hi.size());
    const int n = out.size();
    for (int i = 0; i < n; ++i)
        out.data[i] = clampOne(a.data[i], lo.data[i], hi.data[i]);
}

void
clampConst(Mat out, const Mat &a, float lo, float hi)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    for (int i = 0; i < n; ++i)
        out.data[i] = clampOne(a.data[i], lo, hi);
}

float
absMaxDiff(const Mat &a, const Mat &b)
{
    rtoc_assert(a.size() == b.size());
    const int n = a.size();
    // Serial chain of m = fmax(m, |a_i - b_i|) in reference order. m
    // starts at +0 and d is never -0 or a signaling NaN, so the plain
    // compare is exact: ties keep identical bits, a NaN d keeps m.
    float m = 0.0f;
    for (int i = 0; i < n; ++i) {
        const float d = std::fabs(a.data[i] - b.data[i]);
        if (d > m)
            m = d;
    }
    return m;
}

void
copy(Mat out, const Mat &a)
{
    rtoc_assert(out.size() == a.size());
    const int n = out.size();
    for (int i = 0; i < n; ++i)
        out.data[i] = a.data[i];
}

void
fill(Mat out, float s)
{
    const int n = out.size();
    for (int i = 0; i < n; ++i)
        out.data[i] = s;
}

} // namespace ref

} // namespace rtoc::matlib
