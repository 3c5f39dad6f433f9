#include "solver.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/plant_shapes.hh"
#include "matlib/fixed.hh"
#include "matlib/gemmini_backend.hh"

namespace rtoc::tinympc {

using matlib::Mat;

namespace {

/**
 * Kernel-region ids interned once per process; the per-solve hot path
 * opens regions by id and never constructs a name string.
 */
struct KernelIds
{
    isa::KernelId forwardPass1 = isa::internKernel("forward_pass_1");
    isa::KernelId forwardPass2 = isa::internKernel("forward_pass_2");
    isa::KernelId updateSlack1 = isa::internKernel("update_slack_1");
    isa::KernelId updateSlack2 = isa::internKernel("update_slack_2");
    isa::KernelId updateDual1 = isa::internKernel("update_dual_1");
    isa::KernelId updateLinearCost1 =
        isa::internKernel("update_linear_cost_1");
    isa::KernelId updateLinearCost2 =
        isa::internKernel("update_linear_cost_2");
    isa::KernelId updateLinearCost3 =
        isa::internKernel("update_linear_cost_3");
    isa::KernelId updateLinearCost4 =
        isa::internKernel("update_linear_cost_4");
    isa::KernelId backwardPass1 = isa::internKernel("backward_pass_1");
    isa::KernelId backwardPass2 = isa::internKernel("backward_pass_2");
    isa::KernelId primalResidualState =
        isa::internKernel("primal_residual_state");
    isa::KernelId dualResidualState =
        isa::internKernel("dual_residual_state");
    isa::KernelId primalResidualInput =
        isa::internKernel("primal_residual_input");
    isa::KernelId dualResidualInput =
        isa::internKernel("dual_residual_input");
    isa::KernelId slackCopy = isa::internKernel("slack_copy");
    isa::KernelId affineShift = isa::internKernel("affine_shift");
    isa::KernelId riccatiSweep = isa::internKernel("riccati_sweep");
    isa::KernelId modelRefreshCommit =
        isa::internKernel("model_refresh_commit");
};

const KernelIds &
kid()
{
    static const KernelIds ids;
    return ids;
}

/** The convergence test on the four residuals of @p res. */
bool
withinTolerance(const SolveResult &res, const Settings &s)
{
    return res.primalResidualState < s.priTol &&
           res.primalResidualInput < s.priTol &&
           res.dualResidualState < s.duaTol &&
           res.dualResidualInput < s.duaTol;
}

/*
 * The fused elementwise pass (hostElementwisePass) runs each stage's
 * expression either on one element (T = float) or on four lanes
 * (T = Vec, the packed:: kernels' vector); a float operand of a Vec
 * expression is broadcast to every lane. Each lane runs its element's
 * ref:: (or, for the bf16 saxpby stages, fx::saxpby) arithmetic, so
 * both compute the same bits.
 */
namespace lanes = matlib::packed::detail;
using lanes::Vec;

template <typename T> T loadAs(const float *p);
template <> inline float loadAs<float>(const float *p) { return *p; }
template <> inline Vec loadAs<Vec>(const float *p) { return lanes::load(p); }
inline void storeTo(float *p, float v) { *p = v; }
inline void storeTo(float *p, Vec v) { lanes::store(p, v); }

/** fx::toBf16 when Bf16 (of each lane), else @p v itself. */
template <bool Bf16, typename T>
inline T
roundAs(T v)
{
    if constexpr (Bf16)
        return matlib::fx::toBf16(v);
    else
        return v;
}

/** std::fabs: clears the sign bit (of each lane). */
inline float absOf(float d) { return std::fabs(d); }
inline Vec absOf(Vec d) { return (Vec)((lanes::IVec)d & 0x7fffffff); }

/**
 * ref::absMaxDiff's step: a NaN @p d never wins. Its operands are never
 * -0 or NaN, so the maximum of a set does not depend on the order the
 * set is folded in: per lane, then across lanes, is exact.
 */
template <typename T>
inline T
maxOf(T m, T d)
{
    return d > m ? d : m;
}

/** The arrays one side of the pass reads and writes. */
struct Side
{
    const float *a;      ///< u or x
    float *dual;         ///< y or g
    float *slack;        ///< z or v: the old slack, then the new one
    float *slackNew;     ///< znew or vnew
    const float *lo;     ///< uMin or xMin
    const float *hi;     ///< uMax or xMax
    float *cost;         ///< r or q
    const float *qRef;   ///< state side: −xRef ⊙ qDiag; input side: null
    int n;               ///< (N−1)·nu or N·nx elements
};

/** The running residual maxima of one side. */
template <typename T> struct Maxima
{
    T primal{}; ///< max |a − sn|
    T dual{};   ///< max |slack − sn|
};

/**
 * Every stage of one side on the element (or four lanes) at @p i,
 * each the expression of the call it replaces (b = roundAs<Bf16>):
 *   sn = clamp(b(1·b(a) + 1·b(dual)), lo, hi) updateSlack
 *   dual' = dual + (a − sn)                    updateDual
 *   r = b((−ρ)·b(sn) + ρ·b(dual'))             updateLinearCost (input)
 *   q = qRef + (−ρ)·(sn − dual')               updateLinearCost (state)
 *   maxima of |a − sn| and |slack − sn|        checkResiduals (Check)
 *   slackNew = slack = sn                      the slack copy
 */
template <bool Check, bool State, bool Bf16, typename T>
inline void
stages(const Side &s, int i, float rho, Maxima<T> &m)
{
    const T a = loadAs<T>(s.a + i);
    const T y = loadAs<T>(s.dual + i);
    const T sn = matlib::ref::clampOne(
        roundAs<Bf16>(1.0f * roundAs<Bf16>(a) + 1.0f * roundAs<Bf16>(y)),
        loadAs<T>(s.lo + i), loadAs<T>(s.hi + i));
    const T y2 = y + (a - sn);
    storeTo(s.dual + i, y2);
    if constexpr (State) {
        storeTo(s.cost + i, loadAs<T>(s.qRef + i) + -rho * (sn - y2));
    } else {
        storeTo(s.cost + i, roundAs<Bf16>(-rho * roundAs<Bf16>(sn) +
                                          rho * roundAs<Bf16>(y2)));
    }
    if constexpr (Check) {
        m.primal = maxOf(m.primal, absOf(a - sn));
        m.dual = maxOf(m.dual, absOf(loadAs<T>(s.slack + i) - sn));
    }
    storeTo(s.slackNew + i, sn);
    storeTo(s.slack + i, sn);
}

/** One side: whole vectors of four lanes, then a scalar tail. */
template <bool Check, bool State, bool Bf16>
Maxima<float>
runSide(const Side &s, float rho)
{
    constexpr int L = matlib::kPackLanes;
    Maxima<Vec> mv;
    int i = 0;
    for (; i + L <= s.n; i += L)
        stages<Check, State, Bf16>(s, i, rho, mv);
    Maxima<float> m;
    for (int l = 0; l < L; ++l) {
        m.primal = maxOf(m.primal, mv.primal[l]);
        m.dual = maxOf(m.dual, mv.dual[l]);
    }
    for (; i < s.n; ++i)
        stages<Check, State, Bf16>(s, i, rho, m);
    return m;
}

template <bool Check, bool Bf16>
void
runSides(Workspace &ws, SolveResult *res)
{
    const float rho = ws.settings.rho;
    const Side input{ws.u.data(),    ws.y.data(),    ws.z.data(),
                     ws.znew.data(), ws.uMin.data(), ws.uMax.data(),
                     ws.r.data(),    nullptr,        (ws.N - 1) * ws.nu};
    const Side state{ws.x.data(),    ws.g.data(),    ws.v.data(),
                     ws.vnew.data(), ws.xMin.data(), ws.xMax.data(),
                     ws.q.data(),    ws.qRef.data(), ws.N * ws.nx};
    const Maxima<float> mi = runSide<Check, false, Bf16>(input, rho);
    const Maxima<float> ms = runSide<Check, true, Bf16>(state, rho);
    if constexpr (Check) {
        res->primalResidualState = ms.primal;
        res->dualResidualState = rho * ms.dual;
        res->primalResidualInput = mi.primal;
        res->dualResidualInput = rho * mi.dual;
    }
}

} // namespace

template <>
void
hostElementwisePass<false>(Workspace &ws, SolveResult *res)
{
    if (res)
        runSides<true, false>(ws, res);
    else
        runSides<false, false>(ws, nullptr);
}

template <>
void
hostElementwisePass<true>(Workspace &ws, SolveResult *res)
{
    if (res)
        runSides<true, true>(ws, res);
    else
        runSides<false, true>(ws, nullptr);
}

Solver::Solver(Workspace &ws, matlib::Backend &backend, MappingStyle style)
    : ws_(ws), backend_(backend), style_(style)
{}

void
Solver::checkFusedEmission() const
{
    if (style_ == MappingStyle::Fused && backend_.program() != nullptr &&
        !backend_.supportsFusedEmission()) {
        rtoc_fatal("backend '%s' cannot emit MappingStyle::Fused "
                   "kernels (CISC tiled-matmul constraints forbid "
                   "register-resident per-step fusion, paper §4.2.3); "
                   "use MappingStyle::Library or LibraryPerStep",
                   backend_.name().c_str());
    }
}

void
Solver::setup()
{
    checkFusedEmission();
    // Gemmini scratchpad residency: stage the whole solver workspace
    // plus the cache matrices into bank 0 once (paper Fig. 8).
    if (auto *gem = dynamic_cast<matlib::GemminiBackend *>(&backend_)) {
        Mat mats[] = {ws_.kinf.view(),   ws_.kinfT.view(),
                      ws_.pinf.view(),   ws_.quuInv.view(),
                      ws_.amBKt.view(),  ws_.adyn.view(),
                      ws_.bdyn.view(),   ws_.bdynT.view(),
                      ws_.x.view(),      ws_.u.view(),
                      ws_.znew.view(),   ws_.z.view(),
                      ws_.y.view(),      ws_.vnew.view(),
                      ws_.v.view(),      ws_.g.view(),
                      ws_.q.view(),      ws_.p.view(),
                      ws_.r.view(),      ws_.d.view(),
                      ws_.xRef.view(),   ws_.uMin.view(),
                      ws_.uMax.view(),   ws_.xMin.view(),
                      ws_.xMax.view(),   ws_.qDiag.view()};
        gem->initResident({&mats[0],  &mats[1],  &mats[2],  &mats[3],
                           &mats[4],  &mats[5],  &mats[6],  &mats[7],
                           &mats[8],  &mats[9],  &mats[10], &mats[11],
                           &mats[12], &mats[13], &mats[14], &mats[15],
                           &mats[16], &mats[17], &mats[18], &mats[19],
                           &mats[20], &mats[21], &mats[22], &mats[23],
                           &mats[24], &mats[25]});
    }
}

/*
 * The passes with gemvs are templates on the plant shape and the
 * datapath (see iterate). flatten inlines every call the compiler can
 * see into the pass: the Backend operation, its packed:: kernel (or,
 * on the Bf16 and I16 datapaths, its fx::gemvBf16 or fx::gemvI16
 * kernel) with its constant trip counts, and the KernelScope. A host
 * pass at a registry shape is then one straight-line loop over the
 * horizon, and only the ref:: elementwise kernels, the out-of-line fx::
 * kernels and the emission hooks remain calls (and the operand-cache
 * lookup, which a solve never reaches: it hands every gemv its entry).
 * GCC's own heuristics inline some of these operations and not others.
 * The f32 passes are their own instantiation, so the narrow kernels
 * never grow them.
 */
template <int NX, int NU, matlib::Datapath P>
__attribute__((flatten)) void
Solver::forwardPass(const Operands &op)
{
    for (int i = 0; i < ws_.N - 1; ++i) {
        Mat xi = ws_.x.row(i);
        Mat xn = ws_.x.row(i + 1);
        Mat ui = ws_.u.row(i);
        Mat di = ws_.d.row(i);

        if (style_ == MappingStyle::Fused)
            backend_.beginFuse();
        {
            KernelScope k(backend_, kid().forwardPass1);
            // u[i] = -Kinf x[i] - d[i]
            backend_.gemvSaxpby<NU, NX, P>(ui, op.kinf, xi, -1.0f, 0.0f,
                                           1.0f, -1.0f, di);
        }
        {
            KernelScope k(backend_, kid().forwardPass2);
            // x[i+1] = Adyn x[i] + Bdyn u[i] (+ cd off-trim)
            backend_.gemv<NX, NX, P>(xn, op.adyn, xi, 1.0f, 0.0f);
            if (ws_.hasAffine) {
                backend_.gemvSaxpby<NX, NU, P>(xn, op.bdyn, ui, 1.0f, 1.0f,
                                               1.0f, 1.0f, ws_.affine.view());
            } else {
                backend_.gemv<NX, NU, P>(xn, op.bdyn, ui, 1.0f, 1.0f);
            }
        }
        if (style_ == MappingStyle::Fused)
            backend_.endFuse();
    }
}

void
Solver::updateSlack()
{
    if (style_ == MappingStyle::Library) {
        {
            KernelScope k(backend_, kid().updateSlack1);
            backend_.add(ws_.znew.view(), ws_.u.view(), ws_.y.view());
            backend_.clampVec(ws_.znew.view(), ws_.znew.view(),
                              ws_.uMin.view(), ws_.uMax.view());
        }
        {
            KernelScope k(backend_, kid().updateSlack2);
            backend_.add(ws_.vnew.view(), ws_.x.view(), ws_.g.view());
            backend_.clampVec(ws_.vnew.view(), ws_.vnew.view(),
                              ws_.xMin.view(), ws_.xMax.view());
        }
        return;
    }
    // Fused: per-step rows, temporaries register-resident.
    for (int i = 0; i < ws_.N - 1; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateSlack1);
        Mat zi = ws_.znew.row(i);
        backend_.add(zi, ws_.u.row(i), ws_.y.row(i));
        backend_.clampVec(zi, zi, ws_.uMin.row(i), ws_.uMax.row(i));
        backend_.endFuse();
    }
    for (int i = 0; i < ws_.N; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateSlack2);
        Mat vi = ws_.vnew.row(i);
        backend_.add(vi, ws_.x.row(i), ws_.g.row(i));
        backend_.clampVec(vi, vi, ws_.xMin.row(i), ws_.xMax.row(i));
        backend_.endFuse();
    }
}

void
Solver::updateDual()
{
    if (style_ == MappingStyle::Library) {
        KernelScope k(backend_, kid().updateDual1);
        backend_.accumDiff(ws_.y.view(), ws_.u.view(), ws_.znew.view());
        backend_.accumDiff(ws_.g.view(), ws_.x.view(), ws_.vnew.view());
        return;
    }
    for (int i = 0; i < ws_.N - 1; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateDual1);
        backend_.accumDiff(ws_.y.row(i), ws_.u.row(i), ws_.znew.row(i));
        backend_.endFuse();
    }
    for (int i = 0; i < ws_.N; ++i) {
        backend_.beginFuse();
        KernelScope k(backend_, kid().updateDual1);
        backend_.accumDiff(ws_.g.row(i), ws_.x.row(i), ws_.vnew.row(i));
        backend_.endFuse();
    }
}

template <int NX, int NU>
__attribute__((flatten)) void
Solver::updateLinearCost(const Operands &op)
{
    float rho = ws_.settings.rho;
    if (style_ == MappingStyle::Library) {
        {
            KernelScope k(backend_, kid().updateLinearCost1);
            // r = -rho (znew - y)
            backend_.saxpby(ws_.r.view(), -rho, ws_.znew.view(), rho,
                            ws_.y.view());
        }
        {
            KernelScope k(backend_, kid().updateLinearCost2);
            // q = -(Xref . Q)
            backend_.rowScaleNeg(ws_.q.view(), ws_.xRef.view(),
                                 ws_.qDiag.view());
        }
        {
            KernelScope k(backend_, kid().updateLinearCost3);
            // q -= rho (vnew - g)
            backend_.axpyDiff(ws_.q.view(), -rho, ws_.vnew.view(),
                              ws_.g.view());
        }
    } else {
        for (int i = 0; i < ws_.N - 1; ++i) {
            backend_.beginFuse();
            KernelScope k(backend_, kid().updateLinearCost1);
            backend_.saxpby(ws_.r.row(i), -rho, ws_.znew.row(i), rho,
                            ws_.y.row(i));
            backend_.endFuse();
        }
        for (int i = 0; i < ws_.N; ++i) {
            backend_.beginFuse();
            {
                KernelScope k(backend_, kid().updateLinearCost2);
                backend_.rowScaleNeg(ws_.q.row(i), ws_.xRef.row(i),
                                     ws_.qDiag.view());
            }
            {
                KernelScope k(backend_, kid().updateLinearCost3);
                backend_.axpyDiff(ws_.q.row(i), -rho, ws_.vnew.row(i),
                                  ws_.g.row(i));
            }
            backend_.endFuse();
        }
    }
    {
        // p[N-1] = -(Xref[N-1]^T Pinf) - rho (vnew[N-1] - g[N-1])
        if (style_ == MappingStyle::Fused)
            backend_.beginFuse();
        KernelScope k(backend_, kid().updateLinearCost4);
        Mat p_last = ws_.p.row(ws_.N - 1);
        backend_.gemvT<NX, NX>(p_last, op.pinf, ws_.xRef.row(ws_.N - 1),
                               -1.0f, 0.0f);
        backend_.axpyDiff(p_last, -rho, ws_.vnew.row(ws_.N - 1),
                          ws_.g.row(ws_.N - 1));
        if (style_ == MappingStyle::Fused)
            backend_.endFuse();
    }
}

template <int NX, int NU, matlib::Datapath P>
__attribute__((flatten)) void
Solver::backwardPass(const Operands &op)
{
    for (int i = ws_.N - 2; i >= 0; --i) {
        Mat pn = ws_.p.row(i + 1);
        Mat pi = ws_.p.row(i);
        Mat ri = ws_.r.row(i);
        Mat di = ws_.d.row(i);
        Mat tmp = ws_.tmpNu.view();

        if (style_ == MappingStyle::Fused)
            backend_.beginFuse();
        if (ws_.hasAffine) {
            // Affine dynamics shift every cost-to-go gradient by
            // Pinf·cd: use p_eff[i+1] = p[i+1] + Pinf·cd in both the
            // feedforward and the recursion (exact affine-LQR terms).
            KernelScope k(backend_, kid().affineShift);
            backend_.saxpby(ws_.tmpNx.view(), 1.0f, pn, 1.0f,
                            ws_.pAffine.view());
            pn = ws_.tmpNx.view();
        }
        {
            KernelScope k(backend_, kid().backwardPass1);
            // d[i] = Quu_inv (Bdyn^T p[i+1] + r[i])
            backend_.gemvSaxpby<NU, NX, P>(tmp, op.bdynT, pn, 1.0f, 0.0f,
                                           1.0f, 1.0f, ri);
            backend_.gemv<NU, NU, P>(di, op.quuInv, tmp, 1.0f, 0.0f);
        }
        {
            KernelScope k(backend_, kid().backwardPass2);
            // p[i] = q[i] + AmBKt p[i+1] - Kinf^T r[i]
            backend_.gemvSaxpby<NX, NX, P>(pi, op.amBKt, pn, 1.0f, 0.0f,
                                           1.0f, 1.0f, ws_.q.row(i));
            backend_.gemv<NX, NU, P>(pi, op.kinfT, ri, -1.0f, 1.0f);
        }
        if (style_ == MappingStyle::Fused)
            backend_.endFuse();
    }
}

bool
Solver::checkResiduals(SolveResult &res)
{
    float rho = ws_.settings.rho;
    {
        KernelScope k(backend_, kid().primalResidualState);
        res.primalResidualState =
            backend_.absMaxDiff(ws_.x.view(), ws_.vnew.view());
    }
    {
        KernelScope k(backend_, kid().dualResidualState);
        res.dualResidualState =
            rho * backend_.absMaxDiff(ws_.v.view(), ws_.vnew.view());
    }
    {
        KernelScope k(backend_, kid().primalResidualInput);
        res.primalResidualInput =
            backend_.absMaxDiff(ws_.u.view(), ws_.znew.view());
    }
    {
        KernelScope k(backend_, kid().dualResidualInput);
        res.dualResidualInput =
            rho * backend_.absMaxDiff(ws_.z.view(), ws_.znew.view());
    }
    return withinTolerance(res, ws_.settings);
}

template <int NX, int NU, matlib::Datapath P>
void
Solver::iterate(int bound, const Operands &op, SolveResult &res)
{
    for (int iter = 1; iter <= bound; ++iter) {
        forwardPass<NX, NU, P>(op);
        updateSlack();
        updateDual();
        updateLinearCost<NX, NU>(op);
        backwardPass<NX, NU, P>(op);
        res.iterations = iter;

        bool check = (iter % ws_.settings.checkTermination) == 0;
        if (check && checkResiduals(res)) {
            res.converged = true;
        }
        {
            // Slack bookkeeping for the next dual residual.
            KernelScope k(backend_, kid().slackCopy);
            backend_.copy(ws_.z.view(), ws_.znew.view());
            backend_.copy(ws_.v.view(), ws_.vnew.view());
        }
        if (res.converged)
            break;
    }
}

template <int NX, int NU, matlib::Datapath P>
void
Solver::iterateHost(int bound, const Operands &op, SolveResult &res)
{
    // q's reference term: xRef and qDiag do not change during a solve.
    matlib::ref::rowScaleNeg(ws_.qRef.view(), ws_.xRef.view(),
                             ws_.qDiag.view());
    for (int iter = 1; iter <= bound; ++iter) {
        forwardPass<NX, NU, P>(op);
        const bool check = (iter % ws_.settings.checkTermination) == 0;
        hostElementwisePass<P == matlib::Datapath::Bf16>(
            ws_, check ? &res : nullptr);
        // p[N-1], as updateLinearCost computes it.
        Mat p_last = ws_.p.row(ws_.N - 1);
        backend_.gemvT<NX, NX>(p_last, op.pinf, ws_.xRef.row(ws_.N - 1),
                               -1.0f, 0.0f);
        backend_.axpyDiff(p_last, -ws_.settings.rho, ws_.vnew.row(ws_.N - 1),
                          ws_.g.row(ws_.N - 1));
        backwardPass<NX, NU, P>(op);
        res.iterations = iter;
        if (check && withinTolerance(res, ws_.settings)) {
            res.converged = true;
            break;
        }
    }
}

template <int NX, int NU>
void
Solver::iterateAt(int bound, const Operands &op, SolveResult &res)
{
    using matlib::Datapath;
    // Only a registry shape inlines the int16 kernels.
    constexpr Datapath kI16 = NX > 0 ? Datapath::I16 : Datapath::Dynamic;
    const matlib::NumericFormat f = backend_.format();
    if (backend_.program())
        iterate<NX, NU, Datapath::Dynamic>(bound, op, res);
    else if (f == matlib::NumericFormat::BF16)
        iterateHost<NX, NU, Datapath::Bf16>(bound, op, res);
    else if (f == matlib::NumericFormat::F32)
        iterateHost<NX, NU, Datapath::Dynamic>(bound, op, res);
    else if (f == matlib::NumericFormat::I16)
        iterate<NX, NU, kI16>(bound, op, res);
    else
        iterate<NX, NU, Datapath::Dynamic>(bound, op, res);
}

Solver::Operands
Solver::operands()
{
    Operands op{ws_.kinf.packed(),   ws_.adyn.packed(),  ws_.bdyn.packed(),
                ws_.bdynT.packed(),  ws_.quuInv.packed(),
                ws_.amBKt.packed(),  ws_.kinfT.packed(),
                matlib::PackedMat{ws_.pinf.view()}};
    if (backend_.format() == matlib::NumericFormat::F32)
        return op;
    // One checked lookup per matrix operand per solve. The solver
    // never writes these eight matrices (only Workspace::loadCache and
    // refreshModel do, between solves) nor the backend's format or
    // scaling, so each entry holds its operand's grid values for the
    // whole solve. The eight lookups run back to back before the first
    // kernel, and the kernels make none, so no lookup can evict an
    // entry while the solve reads it (see fx::OperandCache).
    for (matlib::PackedMat *m : {&op.kinf, &op.adyn, &op.bdyn, &op.bdynT,
                                 &op.quuInv, &op.amBKt, &op.kinfT})
        m->quantized = &backend_.fxOperand(m->mat, false);
    op.pinf.quantized = &backend_.fxOperand(op.pinf.mat, true);
    return op;
}

SolveResult
Solver::solve(int max_iters)
{
    checkFusedEmission();
    const Settings &s = ws_.settings;
    if (s.maxIters < 1)
        rtoc_fatal("Settings::maxIters must be >= 1 (got %d)", s.maxIters);
    if (s.checkTermination < 1) {
        rtoc_fatal("Settings::checkTermination must be >= 1 (got %d)",
                   s.checkTermination);
    }
    SolveResult res;
    // Anytime budget: <=0 means the configured bound (the historical
    // path); a positive budget caps the iteration count.
    const int bound = max_iters > 0 ? std::min(max_iters, s.maxIters)
                                    : s.maxIters;

    // The registry plants' shapes run fixed-shape gemvs; any other
    // shape runs the same passes with run-time dimensions. Each shape
    // has host f32, bf16 and i16 loops and an emitting / int one
    // (iterateAt).
    const Operands op = operands();
    atPlantShape(ws_.nx, ws_.nu, [&](auto NX, auto NU) {
        iterateAt<NX, NU>(bound, op, res);
    });
    // Export the solution to the CPU/actuators (Gemmini: mvout+fence).
    backend_.sync();

    // Divergence check: non-finite residuals or command mean the
    // iteration blew up (compounding quantization error on narrow
    // formats). Costs nu + 4 finiteness tests per solve.
    bool finite = std::isfinite(res.primalResidualState) &&
                  std::isfinite(res.dualResidualState) &&
                  std::isfinite(res.primalResidualInput) &&
                  std::isfinite(res.dualResidualInput);
    matlib::Mat u0 = ws_.u.row(0);
    for (int i = 0; finite && i < u0.cols; ++i)
        finite = std::isfinite(u0[i]);
    res.diverged = !finite;
    return res;
}

void
emitModelRefresh(Workspace &ws, matlib::Backend &backend,
                 int riccati_iters)
{
    rtoc_assert(riccati_iters >= 1);
    const int nx = ws.nx;
    const int nu = ws.nu;

    // Scratch results: the sweep computes real float32 values (the
    // flop/traffic proxy of the on-device refresh) without touching
    // the workspace, whose cache stays the authoritative double-
    // precision solution committed by Workspace::refreshModel.
    Buffer btp(nu, nx), quu(nu, nu), quuW(nu, nu), ka(nu, nx);
    Buffer knew(nu, nx), bk(nx, nx), ambk(nx, nx), pa(nx, nx);
    Buffer pnew(nx, nx), pc(1, nx);

    // Gemmini refresh sessions restage the cache matrices (residency
    // and config-elision state reset, so the stream depends only on
    // mapping and shape — never on emission history).
    if (auto *gem = dynamic_cast<matlib::GemminiBackend *>(&backend)) {
        Mat mats[] = {ws.kinf.view(),   ws.kinfT.view(),
                      ws.pinf.view(),   ws.quuInv.view(),
                      ws.amBKt.view(),  ws.adyn.view(),
                      ws.bdyn.view(),   ws.bdynT.view()};
        gem->initResident({&mats[0], &mats[1], &mats[2], &mats[3],
                           &mats[4], &mats[5], &mats[6], &mats[7]});
    }

    for (int it = 0; it < riccati_iters; ++it) {
        // One fixed-point sweep of P <- Q + A'P(A - BK), K = Quu^-1
        // B'PA, in float32 over scratch operands (matching shapes and
        // operation mix; the nu x nu inverse is modelled by one extra
        // nu^3 gemm).
        KernelScope k(backend, kid().riccatiSweep);
        backend.gemm(btp.view(), ws.bdynT.view(), ws.pinf.view());
        backend.gemm(quu.view(), btp.view(), ws.bdyn.view());
        backend.gemm(quuW.view(), quu.view(), ws.quuInv.view());
        backend.gemm(ka.view(), btp.view(), ws.adyn.view());
        backend.gemm(knew.view(), quuW.view(), ka.view());
        backend.gemm(bk.view(), ws.bdyn.view(), knew.view());
        backend.saxpby(ambk.view(), 1.0f, ws.adyn.view(), -1.0f,
                       bk.view());
        backend.gemm(pa.view(), ws.pinf.view(), ambk.view());
        backend.gemm(pnew.view(), ws.amBKt.view(), pa.view());
        backend.saxpby(pnew.view(), 1.0f, pnew.view(), 1.0f,
                       ws.pinf.view());
    }
    {
        // Cache commit: write back the refreshed terms (modelled as
        // one pass over each cache matrix) and precompute the affine
        // shift Pinf·cd into scratch.
        KernelScope k(backend, kid().modelRefreshCommit);
        Buffer *commits[] = {&ws.adyn,  &ws.bdyn,   &ws.bdynT,
                             &ws.kinf,  &ws.kinfT,  &ws.pinf,
                             &ws.quuInv, &ws.amBKt, &ws.affine};
        for (Buffer *b : commits)
            backend.copy(b->view(), b->view());
        backend.gemvT(pc.view(), ws.pinf.view(), ws.affine.view(),
                      1.0f, 0.0f);
    }
    backend.sync();
}

matlib::fx::Scaling
calibrateFixedScaling(Workspace &ws, matlib::NumericFormat f)
{
    auto mat_max = [](const Mat &m) {
        double r = 0.0;
        for (int i = 0; i < m.size(); ++i) {
            double v = std::fabs(static_cast<double>(
                m.data[static_cast<size_t>(i)]));
            if (std::isfinite(v) && v > r)
                r = v;
        }
        return r;
    };

    // Gain/dynamics ranges: exact — the cached LQR solution is known
    // before the fixed-point datapath ever runs.
    double mat_range = 1.0;
    Buffer *mats[] = {&ws.kinf,   &ws.kinfT, &ws.pinf,
                      &ws.quuInv, &ws.amBKt, &ws.adyn,
                      &ws.bdyn,   &ws.bdynT};
    for (Buffer *b : mats)
        mat_range = std::max(mat_range, mat_max(b->view()));

    // Trajectory ranges: references plus finite bound-box edges
    // (sentinel "unbounded" magnitudes are excluded), with 4x
    // excursion headroom for transients beyond the reference.
    double vec_range = 1.0;
    vec_range = std::max(vec_range, mat_max(ws.xRef.view()));
    Buffer *boxes[] = {&ws.uMin, &ws.uMax, &ws.xMin, &ws.xMax};
    for (Buffer *b : boxes) {
        const Mat m = b->view();
        for (int i = 0; i < m.size(); ++i) {
            double v = std::fabs(static_cast<double>(
                m.data[static_cast<size_t>(i)]));
            if (std::isfinite(v) && v < 1e6 && v > vec_range)
                vec_range = v;
        }
    }
    vec_range *= 4.0;

    // Dot-product / costate magnitudes: one gain row against a
    // trajectory vector, with slack for the ADMM linear-cost terms.
    double acc_range = mat_range * vec_range * 2.0;

    return matlib::fx::Scaling::forRanges(f, mat_range, vec_range,
                                          acc_range);
}

} // namespace rtoc::tinympc
