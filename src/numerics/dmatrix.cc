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
    for (int i = 0; i < rows_; ++i) {
        for (int k = 0; k < cols_; ++k) {
            double a = (*this)(i, k);
            if (a == 0.0)
                continue;
            for (int j = 0; j < o.cols_; ++j)
                r(i, j) += a * o(k, j);
        }
    }
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

DMatrix &
DMatrix::addInPlace(const DMatrix &o)
{
    return *this += o;
}

DMatrix &
DMatrix::subInPlace(const DMatrix &o)
{
    return *this -= o;
}

DMatrix &
DMatrix::gemmInto(const DMatrix &a, const DMatrix &b)
{
    rtoc_assert(a.cols_ == b.rows_);
    rtoc_assert(this != &a && this != &b);
    rows_ = a.rows_;
    cols_ = b.cols_;
    // assign() zeroes while keeping capacity: no allocation once the
    // loop's shapes have stabilized.
    data_.assign(static_cast<size_t>(rows_) * cols_, 0.0);
    for (int i = 0; i < rows_; ++i) {
        for (int k = 0; k < a.cols_; ++k) {
            double v = a(i, k);
            if (v == 0.0)
                continue;
            for (int j = 0; j < cols_; ++j)
                (*this)(i, j) += v * b(k, j);
        }
    }
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
    double m = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::fabs(data_[i] - o.data_[i]));
    return m;
}

double
DMatrix::maxAbs() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

double
DMatrix::frobenius() const
{
    double s = 0.0;
    for (double v : data_)
        s += v * v;
    return std::sqrt(s);
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
    int n = a.rows();
    int m = b.cols();

    DMatrix lu = a;
    DMatrix x = b;
    std::vector<int> piv(n);
    for (int i = 0; i < n; ++i)
        piv[i] = i;

    for (int k = 0; k < n; ++k) {
        // Partial pivot.
        int p = k;
        double best = std::fabs(lu(k, k));
        for (int i = k + 1; i < n; ++i) {
            double v = std::fabs(lu(i, k));
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
                std::swap(lu(k, j), lu(p, j));
            for (int j = 0; j < m; ++j)
                std::swap(x(k, j), x(p, j));
        }
        for (int i = k + 1; i < n; ++i) {
            double f = lu(i, k) / lu(k, k);
            lu(i, k) = f;
            for (int j = k + 1; j < n; ++j)
                lu(i, j) -= f * lu(k, j);
            for (int j = 0; j < m; ++j)
                x(i, j) -= f * x(k, j);
        }
    }
    // Back substitution.
    for (int k = n - 1; k >= 0; --k) {
        for (int j = 0; j < m; ++j) {
            double s = x(k, j);
            for (int i = k + 1; i < n; ++i)
                s -= lu(k, i) * x(i, j);
            x(k, j) = s / lu(k, k);
        }
    }
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
