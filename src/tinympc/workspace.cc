#include "workspace.hh"

#include <cmath>

#include "common/logging.hh"

namespace rtoc::tinympc {

Workspace
Workspace::allocate(int nx, int nu, int horizon)
{
    if (nx <= 0 || nu <= 0 || horizon < 2)
        rtoc_fatal("bad TinyMPC dimensions nx=%d nu=%d N=%d", nx, nu,
                   horizon);
    Workspace w;
    w.nx = nx;
    w.nu = nu;
    w.N = horizon;

    w.x = Buffer(horizon, nx);
    w.u = Buffer(horizon - 1, nu);
    w.znew = Buffer(horizon - 1, nu);
    w.z = Buffer(horizon - 1, nu);
    w.y = Buffer(horizon - 1, nu);
    w.vnew = Buffer(horizon, nx);
    w.v = Buffer(horizon, nx);
    w.g = Buffer(horizon, nx);
    w.q = Buffer(horizon, nx);
    w.p = Buffer(horizon, nx);
    w.r = Buffer(horizon - 1, nu);
    w.d = Buffer(horizon - 1, nu);
    w.xRef = Buffer(horizon, nx);
    w.uMin = Buffer(horizon - 1, nu);
    w.uMax = Buffer(horizon - 1, nu);
    w.xMin = Buffer(horizon, nx);
    w.xMax = Buffer(horizon, nx);
    w.qDiag = Buffer(1, nx);
    w.kinf = PackedBuffer(nu, nx);
    w.kinfT = PackedBuffer(nx, nu);
    w.pinf = Buffer(nx, nx);
    w.quuInv = PackedBuffer(nu, nu);
    w.amBKt = PackedBuffer(nx, nx);
    w.adyn = PackedBuffer(nx, nx);
    w.bdyn = PackedBuffer(nx, nu);
    w.bdynT = PackedBuffer(nu, nx);
    w.affine = Buffer(1, nx);
    w.pAffine = Buffer(1, nx);
    w.tmpNu = Buffer(1, nu);
    w.tmpNx = Buffer(1, nx);
    w.qRef = Buffer(horizon, nx);

    const float inf = 1e30f;
    matlib::ref::fill(w.uMin.view(), -inf);
    matlib::ref::fill(w.uMax.view(), inf);
    matlib::ref::fill(w.xMin.view(), -inf);
    matlib::ref::fill(w.xMax.view(), inf);
    return w;
}

namespace {

void
copyToF32(Buffer &dst, const numerics::DMatrix &src)
{
    rtoc_assert(dst.rows() == src.rows() && dst.cols() == src.cols());
    for (int i = 0; i < src.rows(); ++i)
        for (int j = 0; j < src.cols(); ++j)
            dst.view().at(i, j) = static_cast<float>(src(i, j));
}

void
copyToF32(PackedBuffer &dst, const numerics::DMatrix &src)
{
    copyToF32(static_cast<Buffer &>(dst), src);
    dst.pack();
}

/** Copy a discrete model + Riccati cache into the float32 buffers
 *  (shared by the initial loadCache and in-place refreshModel) and
 *  rebuild the packed copies of the gemv operands. */
void
copyModelCache(Workspace &w, const numerics::DMatrix &a,
               const numerics::DMatrix &b,
               const numerics::LqrCache &cache)
{
    copyToF32(w.adyn, a);
    copyToF32(w.bdyn, b);
    copyToF32(w.bdynT, b.transpose());
    copyToF32(w.kinf, cache.kinf);
    copyToF32(w.kinfT, cache.kinf.transpose());
    copyToF32(w.pinf, cache.pinf);
    copyToF32(w.quuInv, cache.quuInv);
    copyToF32(w.amBKt, cache.amBKt);
}

} // namespace

void
Workspace::loadCache(const numerics::DMatrix &a, const numerics::DMatrix &b,
                     const numerics::LqrCache &cache,
                     const std::vector<double> &q_diag)
{
    rtoc_assert(a.rows() == nx && b.cols() == nu);
    rtoc_assert(static_cast<int>(q_diag.size()) == nx);

    copyModelCache(*this, a, b, cache);
    for (int j = 0; j < nx; ++j)
        qDiag.view()[j] = static_cast<float>(q_diag[j]);
}

void
Workspace::refreshModel(const numerics::DMatrix &a,
                        const numerics::DMatrix &b,
                        const numerics::LqrCache &cache,
                        const std::vector<double> &cd)
{
    rtoc_assert(a.rows() == nx && a.cols() == nx);
    rtoc_assert(b.rows() == nx && b.cols() == nu);

    copyModelCache(*this, a, b, cache);

    hasAffine = false;
    for (int j = 0; j < nx; ++j) {
        double c = cd.empty() ? 0.0 : cd[static_cast<size_t>(j)];
        affine.view()[j] = static_cast<float>(c);
        if (c != 0.0)
            hasAffine = true;
    }
    // pAffine = Pinf·cd, the constant shift the affine backward pass
    // applies to every cost-to-go gradient (computed in double, the
    // same precision the cache itself came from).
    for (int i = 0; i < nx; ++i) {
        double acc = 0.0;
        if (hasAffine) {
            for (int j = 0; j < nx; ++j)
                acc += cache.pinf(i, j) * cd[static_cast<size_t>(j)];
        }
        pAffine.view()[i] = static_cast<float>(acc);
    }
}

void
Workspace::setInputBounds(const std::vector<float> &lo,
                          const std::vector<float> &hi)
{
    rtoc_assert(static_cast<int>(lo.size()) == nu);
    rtoc_assert(static_cast<int>(hi.size()) == nu);
    for (int i = 0; i < N - 1; ++i) {
        for (int j = 0; j < nu; ++j) {
            uMin.view().at(i, j) = lo[j];
            uMax.view().at(i, j) = hi[j];
        }
    }
}

void
Workspace::setReferenceAll(const std::vector<float> &xr)
{
    rtoc_assert(static_cast<int>(xr.size()) == nx);
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < nx; ++j)
            xRef.view().at(i, j) = xr[j];
}

void
Workspace::setInitialState(const float *x0)
{
    for (int j = 0; j < nx; ++j)
        x.view().at(0, j) = x0[j];
}

void
Workspace::coldStart()
{
    for (Buffer *b : {&x, &u, &znew, &z, &y, &vnew, &v, &g, &q, &p, &r,
                      &d, &tmpNu, &tmpNx})
        matlib::ref::fill(b->view(), 0.0f);
}

} // namespace rtoc::tinympc
