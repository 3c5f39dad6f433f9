#include "dmatrix.hh"

#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace rtoc::numerics {

DMatrix::DMatrix(int rows, int cols)
    : rows_(rows), cols_(cols),
      data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0)
{
    if (rows < 0 || cols < 0)
        rtoc_panic("negative matrix dimension %dx%d", rows, cols);
}

DMatrix::DMatrix(int rows, int cols, std::initializer_list<double> vals)
    : DMatrix(rows, cols)
{
    if (vals.size() != data_.size()) {
        rtoc_panic("initializer size %zu != %dx%d", vals.size(), rows,
                   cols);
    }
    size_t i = 0;
    for (double v : vals)
        data_[i++] = v;
}

DMatrix
DMatrix::identity(int n)
{
    DMatrix m(n, n);
    for (int i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

DMatrix
DMatrix::diag(const std::vector<double> &d)
{
    DMatrix m(static_cast<int>(d.size()), static_cast<int>(d.size()));
    for (size_t i = 0; i < d.size(); ++i)
        m(static_cast<int>(i), static_cast<int>(i)) = d[i];
    return m;
}

double &
DMatrix::operator()(int r, int c)
{
    rtoc_assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
}

double
DMatrix::operator()(int r, int c) const
{
    rtoc_assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
}

DMatrix
DMatrix::operator+(const DMatrix &o) const
{
    rtoc_assert(rows_ == o.rows_ && cols_ == o.cols_);
    DMatrix r(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        r.data_[i] = data_[i] + o.data_[i];
    return r;
}

DMatrix
DMatrix::operator-(const DMatrix &o) const
{
    rtoc_assert(rows_ == o.rows_ && cols_ == o.cols_);
    DMatrix r(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        r.data_[i] = data_[i] - o.data_[i];
    return r;
}

DMatrix
DMatrix::operator*(const DMatrix &o) const
{
    rtoc_assert(cols_ == o.rows_);
    DMatrix r(rows_, o.cols_);
    dense::gemm<0, 0, 0>(r.data(), data(), o.data(), rows_, cols_, o.cols_);
    return r;
}

DMatrix
DMatrix::operator*(double s) const
{
    DMatrix r(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        r.data_[i] = data_[i] * s;
    return r;
}

DMatrix
DMatrix::operator-() const
{
    return (*this) * -1.0;
}

DMatrix &
DMatrix::operator+=(const DMatrix &o)
{
    rtoc_assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

DMatrix &
DMatrix::operator-=(const DMatrix &o)
{
    rtoc_assert(rows_ == o.rows_ && cols_ == o.cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        data_[i] -= o.data_[i];
    return *this;
}

DMatrix &
DMatrix::operator*=(double s)
{
    for (double &v : data_)
        v *= s;
    return *this;
}

DMatrix
DMatrix::transpose() const
{
    DMatrix r(cols_, rows_);
    for (int i = 0; i < rows_; ++i)
        for (int j = 0; j < cols_; ++j)
            r(j, i) = (*this)(i, j);
    return r;
}

double
DMatrix::maxAbsDiff(const DMatrix &o) const
{
    rtoc_assert(rows_ == o.rows_ && cols_ == o.cols_);
    return dense::maxAbsDiff<0>(data(), o.data(), static_cast<int>(size()));
}

double
DMatrix::maxAbs() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

std::string
DMatrix::str(int precision) const
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed;
    for (int i = 0; i < rows_; ++i) {
        os << (i == 0 ? "[" : " ");
        for (int j = 0; j < cols_; ++j)
            os << (j ? " " : "") << (*this)(i, j);
        os << (i + 1 == rows_ ? "]" : ";") << "\n";
    }
    return os.str();
}

DMatrix
luSolve(const DMatrix &a, const DMatrix &b)
{
    rtoc_assert(a.rows() == a.cols());
    rtoc_assert(a.rows() == b.rows());
    DMatrix lu = a;
    DMatrix x = b;
    dense::luSolve<0, 0>(lu.data(), x.data(), a.rows(), b.cols());
    return x;
}

DMatrix
inverse(const DMatrix &a)
{
    return luSolve(a, DMatrix::identity(a.rows()));
}

DMatrix
cholesky(const DMatrix &a)
{
    rtoc_assert(a.rows() == a.cols());
    int n = a.rows();
    DMatrix l(n, n);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j <= i; ++j) {
            double s = a(i, j);
            for (int k = 0; k < j; ++k)
                s -= l(i, k) * l(j, k);
            if (i == j) {
                if (s <= 0.0)
                    rtoc_fatal("cholesky: matrix not SPD (d[%d]=%g)", i, s);
                l(i, j) = std::sqrt(s);
            } else {
                l(i, j) = s / l(j, j);
            }
        }
    }
    return l;
}

DMatrix
expm(const DMatrix &a)
{
    rtoc_assert(a.rows() == a.cols());
    int n = a.rows();

    // Scale down so the series converges fast, then square back up.
    double norm = a.maxAbs() * n;
    int squarings = 0;
    DMatrix scaled = a;
    while (norm > 0.5 && squarings < 30) {
        scaled *= 0.5;
        norm *= 0.5;
        ++squarings;
    }

    DMatrix result = DMatrix::identity(n);
    DMatrix term = DMatrix::identity(n);
    for (int k = 1; k <= 16; ++k) {
        term = term * scaled;
        term *= 1.0 / static_cast<double>(k);
        result += term;
        if (term.maxAbs() < 1e-18)
            break;
    }
    for (int s = 0; s < squarings; ++s)
        result = result * result;
    return result;
}

DMatrix
zohDiscretize(const DMatrix &ac, const DMatrix &bc, double dt)
{
    rtoc_assert(ac.rows() == ac.cols());
    rtoc_assert(bc.rows() == ac.rows());
    int nx = ac.rows();
    int nu = bc.cols();

    // exp([A B; 0 0] * dt) = [Ad Bd; 0 I]
    DMatrix aug(nx + nu, nx + nu);
    for (int i = 0; i < nx; ++i) {
        for (int j = 0; j < nx; ++j)
            aug(i, j) = ac(i, j) * dt;
        for (int j = 0; j < nu; ++j)
            aug(i, nx + j) = bc(i, j) * dt;
    }
    DMatrix e = expm(aug);

    DMatrix out(nx, nx + nu);
    for (int i = 0; i < nx; ++i)
        for (int j = 0; j < nx + nu; ++j)
            out(i, j) = e(i, j);
    return out;
}

} // namespace rtoc::numerics
