#include "control_session.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "obs/trace.hh"

namespace rtoc::hil {

ControlSession::ControlSession(plant::Plant &plant, const HilConfig &cfg)
    : plant_(plant), dt_(cfg.controlPeriodS), policy_(cfg.relin),
      ws_(plant.buildWorkspace(cfg.controlPeriodS, cfg.horizon)),
      backend_(matlib::ScalarFlavor::Optimized),
      solver_(ws_, backend_, tinympc::MappingStyle::Library),
      x0_(static_cast<size_t>(plant.nx()), 0.0f),
      last_cmd_(plant.trimCommand())
{
    if (cfg.format != matlib::NumericFormat::F32) {
        // Narrow datapath: quantize the solver arithmetic with shift
        // schedules derived from the freshly built workspace (gains
        // and dynamics are known here, exactly the offline static
        // analysis a deployment would run).
        backend_.setFormat(cfg.format);
        backend_.setFixedScaling(
            tinympc::calibrateFixedScaling(ws_, cfg.format));
    }
    if (policy_.fixedTrim())
        return;
    // Relinearization bookkeeping: cost matrices for the Riccati
    // refreshes. The warm-start seed appears with the first refresh
    // (which therefore solves cold) — re-deriving the trim cache
    // buildWorkspace already computed would double the construction
    // cost of every relinearizing episode.
    plant::Weights w = plant.mpcWeights();
    qMat_ = numerics::DMatrix::diag(w.qDiag);
    rMat_ = numerics::DMatrix::diag(w.rDiag);
    rho_ = w.rho;
    linState_ = plant.trimState();
}

double
ControlSession::drift() const
{
    double acc = 0.0;
    for (int j = 0; j < plant_.nx(); ++j) {
        double d = static_cast<double>(x0_[static_cast<size_t>(j)]) -
                   linState_[static_cast<size_t>(j)];
        acc += d * d;
    }
    return std::sqrt(acc);
}

bool
ControlSession::refresh(TickResult &out)
{
    RTOC_SPAN_NAMED(span, "hil.refresh", "hil");
    // Linearize around (current state, last applied input delta).
    std::vector<double> x(x0_.begin(), x0_.end());
    std::vector<double> trim = plant_.trimCommand();
    std::vector<double> du(static_cast<size_t>(plant_.nu()), 0.0);
    for (int i = 0; i < plant_.nu(); ++i)
        du[i] = last_cmd_[static_cast<size_t>(i)] - trim[i];

    plant::LinearModel m = plant_.linearizeAt(x.data(), du.data(), dt_);
    // The refresh stops at the first iteration that moves Kinf by
    // less than 1e-6 (max-abs), trySolveDare's only stopping test.
    // That is looser than the offline 1e-10 solve: the gains it
    // returns sit ~1e-5 from that solve's, above float32 precision. A
    // warm-started refresh takes tens to hundreds of iterations, and
    // the 500 cap catches a model whose Kinf never settles; one whose
    // Kinf settles while P diverges passes (see trySolveDare). The
    // one-time cold bootstrap (no seed yet) needs a full fixed-point
    // run and gets the offline-sized budget; both are charged for the
    // iterations they run.
    const int max_iters = cacheValid_ ? 500 : 10000;
    out.refreshAttempted = true;
    std::optional<numerics::LqrCache> cache = numerics::trySolveDare(
        m.ad, m.bd, qMat_, rMat_, rho_,
        cacheValid_ ? &cache_.pinf : nullptr, 1e-6, max_iters);
    if (!cache) {
        span.arg("riccati_iters", static_cast<uint64_t>(max_iters));
        span.arg("diverged", 1);
        // Off-trim model with no stabilizing solution: keep flying
        // the previous cache rather than aborting the episode. The
        // device still burned the full diverged sweep — charge it —
        // and back off before retrying so a drift-triggered policy
        // does not re-run it every tick.
        ++stats_.refreshFailures;
        stats_.riccatiIters += max_iters;
        out.riccatiIters = max_iters;
        failCooldown_ = std::max(policy_.everyK, 5);
        return false;
    }

    ws_.refreshModel(m.ad, m.bd, *cache, m.cd);
    // The input box tracks the trim (mass-depleting plants move it).
    std::vector<float> flo, fhi;
    plant_.inputBoundDeltas(flo, fhi);
    ws_.setInputBounds(flo, fhi);
    // Refreshed gains can outgrow the old shift schedule: re-derive
    // the fixed-point scaling against the new cache.
    if (backend_.format() != matlib::NumericFormat::F32) {
        backend_.setFixedScaling(
            tinympc::calibrateFixedScaling(ws_, backend_.format()));
    }

    span.arg("riccati_iters",
             static_cast<uint64_t>(cache->iterations));
    cache_ = *cache;
    cacheValid_ = true;
    linState_ = std::move(x);
    ++stats_.refreshes;
    stats_.riccatiIters += cache->iterations;
    out.refreshed = true;
    out.riccatiIters = cache->iterations;
    return true;
}

ControlSession::TickResult
ControlSession::tick(const std::vector<float> &xref,
                     const TickOptions &opt)
{
    RTOC_SPAN_NAMED(span, "hil.tick", "hil");
    plant_.packState(x0_.data());
    ws_.setInitialState(x0_.data());
    ws_.setReferenceAll(xref);

    TickResult out;
    if (!policy_.fixedTrim()) {
        if (failCooldown_ > 0) {
            --failCooldown_;
        } else {
            bool due =
                policy_.everyK > 0 && sinceRefresh_ >= policy_.everyK;
            bool drifted = policy_.stateDeltaThreshold > 0.0 &&
                           drift() > policy_.stateDeltaThreshold;
            if (due || drifted) {
                if (opt.skipRefresh) {
                    // Governor shed the refresh: the model stays
                    // stale and the policy clock keeps running so
                    // the refresh fires on the next allowed tick.
                    ++stats_.skippedRefreshes;
                } else {
                    refresh(out);
                    sinceRefresh_ = 0;
                }
            }
        }
        ++sinceRefresh_;
    }

    out.solve = solver_.solve(opt.maxIters);
    span.arg("solve_iters",
             static_cast<uint64_t>(out.solve.iterations));
    ++stats_.solves;
    last_cmd_ = plant_.commandFromDelta(solver_.firstInput().data);
    return out;
}

} // namespace rtoc::hil
