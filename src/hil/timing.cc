#include "timing.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "cpu/inorder.hh"
#include "isa/program_cache.hh"
#include "isa/sched_search.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc::hil {

std::string
encodeTiming(const ControllerTiming &t)
{
    std::string out;
    // v2 adds the model-refresh cycle model; v1 payloads are
    // rejected and recalibrated.
    isa::blob::putRaw<uint32_t>(out, 2); // payload version
    isa::blob::putStr(out, t.archName);
    isa::blob::putStr(out, t.mappingName);
    isa::blob::putRaw<double>(out, t.baseCycles);
    isa::blob::putRaw<double>(out, t.cyclesPerIter);
    isa::blob::putRaw<double>(out, t.refreshBaseCycles);
    isa::blob::putRaw<double>(out, t.refreshCyclesPerIter);
    return out;
}

std::optional<ControllerTiming>
decodeTiming(const std::string &payload)
{
    isa::blob::Reader r(payload);
    if (r.raw<uint32_t>() != 2 || !r.ok)
        return std::nullopt;
    ControllerTiming t;
    t.archName = r.str();
    t.mappingName = r.str();
    t.baseCycles = r.raw<double>();
    t.cyclesPerIter = r.raw<double>();
    t.refreshBaseCycles = r.raw<double>();
    t.refreshCyclesPerIter = r.raw<double>();
    // A fit is finite: a NaN or an infinity would reach every cycle
    // sum priced from it. Such an entry is rejected and recalibrated.
    if (!r.ok || r.left != 0 || !std::isfinite(t.baseCycles) ||
        !std::isfinite(t.cyclesPerIter) ||
        !std::isfinite(t.refreshBaseCycles) ||
        !std::isfinite(t.refreshCyclesPerIter))
        return std::nullopt;
    return t;
}

namespace {

/** Memo and disk key of one (model, backend, style, shape)
 *  calibration. */
std::string
calibKey(const cpu::TimingModel &model, const matlib::Backend &backend,
         tinympc::MappingStyle style, const plant::Plant &plant,
         int horizon, bool with_refresh)
{
    // The fitted linear cycle model is as deterministic as the streams
    // it replays, so it persists across processes under a key carrying
    // what the fit depends on: the full model configuration, the
    // backend's emission key, the mapping style, the problem shape
    // and whether the refresh stream was fitted (relinearization-
    // aware callers must never be served a refresh-less payload).
    // schedKeySuffix() keeps sched-on fits from aliasing baseline
    // entries (and is empty — keys untouched — when RTOC_SCHED is
    // off).
    return csprintf("%s|%s|style%d|nx%d|nu%d|h%d%s%s",
                    model.cacheKey().c_str(), backend.cacheKey().c_str(),
                    static_cast<int>(style), plant.nx(), plant.nu(),
                    horizon, with_refresh ? "|refresh" : "",
                    isa::schedKeySuffix().c_str());
}

/**
 * The stream @p model should actually replay for @p progKey: the
 * baseline untouched when RTOC_SCHED is off, otherwise the searched
 * schedule (scored by the model itself, memo/disk-cached per
 * (model, program) pair).
 */
std::shared_ptr<const isa::Program>
schedStream(const cpu::TimingModel &model, const std::string &progKey,
            const std::shared_ptr<const isa::Program> &prog)
{
    if (!isa::schedEnabled())
        return prog;
    return isa::scheduledStream(
        model.cacheKey(), progKey, prog,
        [&model](const isa::Program &p) { return model.run(p).cycles; });
}

/** The solve stream (solveStream) that @p model replays, scheduled
 *  per schedStream: one key, one ProgramCache request. */
std::shared_ptr<const isa::Program>
scheduledSolve(const cpu::TimingModel &model, matlib::Backend &backend,
               tinympc::MappingStyle style, const plant::Plant &plant,
               double dt, int horizon, int iters)
{
    const std::string key = solveStreamKey(backend, style, plant.nx(),
                                           plant.nu(), horizon, iters);
    return schedStream(
        model, key,
        isa::ProgramCache::global().getOrEmit(key, [&](isa::Program &p) {
            emitSolveStream(p, backend, style, plant, dt, horizon, iters);
        }));
}

/** ProgramCache key of one model-refresh stream. */
std::string
calibRefreshKey(const matlib::Backend &backend, const plant::Plant &plant,
                int iters)
{
    return csprintf("refresh:%s:nx%d:nu%d:it%d",
                    backend.cacheKey().c_str(), plant.nx(), plant.nu(),
                    iters);
}

/** Cached model-refresh stream at a forced Riccati iteration count
 *  (shape-dependent only — no horizon loops). */
std::shared_ptr<const isa::Program>
calibRefreshStream(matlib::Backend &backend, const plant::Plant &plant,
                   double dt, int horizon, int iters)
{
    const std::string key = calibRefreshKey(backend, plant, iters);
    return isa::ProgramCache::global().getOrEmit(
        key, [&](isa::Program &p) {
            tinympc::Workspace ws = plant.buildWorkspace(dt, horizon);
            backend.setProgram(&p);
            tinympc::emitModelRefresh(ws, backend, iters);
            backend.setProgram(nullptr);
        });
}

/**
 * The fit points, in ADMM iterations and Riccati sweeps. Replay on
 * every named target is exactly affine in iterations at the multiples
 * of the 5-iteration termination check and in sweeps from the first,
 * with schedule search off and on (the CalibrationPremise tests), so
 * the shortest streams give the line any longer pair would, bit for
 * bit.
 */
constexpr int kSolveFitIters[2] = {5, 10};
constexpr int kRefreshFitIters[2] = {1, 2};

/** Two-point fit of the solve (and, with @p with_refresh, the
 *  refresh) cycle model by replaying cached streams on @p model. */
ControllerTiming
fitTiming(const cpu::TimingModel &model, matlib::Backend &backend,
          tinympc::MappingStyle style, const plant::Plant &plant,
          double dt, int horizon, bool with_refresh)
{
    RTOC_SPAN_NAMED(span, "hil.calibrate", "hil");
    uint64_t uops = 0;
    // The line through the replays of stream(n) at the points @p at,
    // its base clamped at zero.
    auto fit = [&](const int (&at)[2], const auto &stream, double &base,
                   double &per_iter) {
        double c[2] = {0.0, 0.0};
        for (int i = 0; i < 2; ++i) {
            const std::shared_ptr<const isa::Program> prog = stream(at[i]);
            uops += prog->size();
            c[i] = static_cast<double>(model.run(*prog).cycles);
        }
        per_iter = (c[1] - c[0]) / (at[1] - at[0]);
        base = std::max(c[0] - at[0] * per_iter, 0.0);
    };

    ControllerTiming t;
    t.archName = model.name();
    t.mappingName = backend.name();
    fit(kSolveFitIters, [&](int iters) {
        return scheduledSolve(model, backend, style, plant, dt, horizon,
                              iters);
    }, t.baseCycles, t.cyclesPerIter);
    if (with_refresh) {
        fit(kRefreshFitIters, [&](int iters) {
            return schedStream(
                model, calibRefreshKey(backend, plant, iters),
                calibRefreshStream(backend, plant, dt, horizon, iters));
        }, t.refreshBaseCycles, t.refreshCyclesPerIter);
    }
    span.arg("uops", uops);
    return t;
}

/**
 * One named on-chip implementation. The cross-plant sweeps compare
 * three (§5.2 flies the first two): optimized scalar (Eigen-style on
 * the Shuttle scalar pipeline), hand-optimized fused RVV on the large
 * Saturn core (VLEN=512, DLEN=256, Shuttle frontend), and the
 * fully-optimized Gemmini library mapping on the OS 4x4 systolic
 * array. Calibrations, region breakdowns and power models all read
 * this one table.
 */
struct Target
{
    const char *name;
    std::unique_ptr<cpu::TimingModel> (*model)();
    std::unique_ptr<matlib::Backend> (*backend)();
    tinympc::MappingStyle style;
    soc::PowerParams (*power)();
};

const Target kTargets[] = {
    {"scalar",
     []() -> std::unique_ptr<cpu::TimingModel> {
         return std::make_unique<cpu::InOrderCore>(
             cpu::InOrderConfig::shuttle());
     },
     []() -> std::unique_ptr<matlib::Backend> {
         return std::make_unique<matlib::ScalarBackend>(
             matlib::ScalarFlavor::Optimized);
     },
     tinympc::MappingStyle::Library, soc::PowerParams::scalarCore},
    {"vector",
     []() -> std::unique_ptr<cpu::TimingModel> {
         return std::make_unique<vector::SaturnModel>(
             vector::SaturnConfig::make(512, 256, true));
     },
     []() -> std::unique_ptr<matlib::Backend> {
         return std::make_unique<matlib::RvvBackend>(
             512, matlib::RvvMapping::handOptimized());
     },
     tinympc::MappingStyle::Fused, soc::PowerParams::vectorCore},
    // Library style: the Gemmini backend rejects Fused emission (CISC
    // tiled-matmul constraints).
    {"gemmini",
     []() -> std::unique_ptr<cpu::TimingModel> {
         return std::make_unique<systolic::GemminiModel>(
             systolic::GemminiConfig::os4x4());
     },
     []() -> std::unique_ptr<matlib::Backend> {
         return std::make_unique<matlib::GemminiBackend>(
             matlib::GemminiMapping::fullyOptimized());
     },
     tinympc::MappingStyle::Library, soc::PowerParams::systolicCore},
};

/** The target named @p name; "ideal" prices with the vector target
 *  (unused by an ideal policy, kept for struct completeness). */
const Target &
namedTarget(const std::string &name)
{
    const std::string &target = name == "ideal" ? "vector" : name;
    for (const Target &t : kTargets)
        if (target == t.name)
            return t;
    rtoc_fatal("unknown timing model '%s'", name.c_str());
}

/** Memoized calibration of target @p t (see calibMemo()). */
ControllerTiming
targetTiming(const Target &t, const plant::Plant &plant, double dt,
             int horizon, bool with_refresh, matlib::NumericFormat format)
{
    std::unique_ptr<cpu::TimingModel> model = t.model();
    std::unique_ptr<matlib::Backend> backend = t.backend();
    backend->setFormat(format);
    return calibMemo().get(
        calibKey(*model, *backend, t.style, plant, horizon, with_refresh),
        [&] {
            return fitTiming(*model, *backend, t.style, plant, dt,
                             horizon, with_refresh);
        },
        &isa::DiskCache::global());
}

} // namespace

isa::Memo<ControllerTiming> &
calibMemo()
{
    // Leaked: the registry polls its counters until exit.
    static auto *memo = new isa::Memo<ControllerTiming>(
        "calib", {"calib", encodeTiming, decodeTiming});
    return *memo;
}

std::string
solveStreamKey(const matlib::Backend &backend, tinympc::MappingStyle style,
               int nx, int nu, int horizon, int iters)
{
    return csprintf("plantsolve:%s:style%d:nx%d:nu%d:h%d:it%d",
                    backend.cacheKey().c_str(), static_cast<int>(style),
                    nx, nu, horizon, iters);
}

void
emitSolveStream(isa::Program &prog, matlib::Backend &backend,
                tinympc::MappingStyle style, const plant::Plant &plant,
                double dt, int horizon, int iters)
{
    // Emission is data-independent: the workspace's values (dt, the
    // plant parameters, the initial state) never change the stream.
    tinympc::Workspace ws = plant.buildWorkspace(dt, horizon);
    ws.settings.maxIters = iters;
    ws.settings.checkTermination = 5;
    ws.settings.priTol = 0.0f; // force exactly maxIters
    ws.settings.duaTol = 0.0f;
    std::vector<float> x0(static_cast<size_t>(plant.nx()), 0.0f);
    x0[0] = 0.4f;
    ws.setInitialState(x0.data());

    backend.setProgram(&prog);
    tinympc::Solver solver(ws, backend, style);
    solver.setup();
    const tinympc::SolveResult res = solver.solve();
    backend.setProgram(nullptr);
    if (res.iterations != iters) {
        rtoc_panic("solve stream expected %d iters, got %d", iters,
                   res.iterations);
    }
}

std::shared_ptr<const isa::Program>
solveStream(matlib::Backend &backend, tinympc::MappingStyle style,
            const plant::Plant &plant, double dt, int horizon, int iters)
{
    return isa::ProgramCache::global().getOrEmit(
        solveStreamKey(backend, style, plant.nx(), plant.nu(), horizon,
                       iters),
        [&](isa::Program &p) {
            emitSolveStream(p, backend, style, plant, dt, horizon, iters);
        });
}

ControllerTiming
calibrateTiming(const cpu::TimingModel &model, matlib::Backend &backend,
                tinympc::MappingStyle style, const plant::Plant &plant,
                double dt, int horizon, const isa::DiskCache *disk,
                bool with_refresh)
{
    return calibMemo().loadOrCompute(
        calibKey(model, backend, style, plant, horizon, with_refresh),
        [&] {
            return fitTiming(model, backend, style, plant, dt, horizon,
                             with_refresh);
        },
        disk);
}

ControllerTiming
scalarControllerTiming(const plant::Plant &plant, double dt, int horizon,
                       bool with_refresh, matlib::NumericFormat format)
{
    return targetTiming(namedTarget("scalar"), plant, dt, horizon,
                        with_refresh, format);
}

ControllerTiming
vectorControllerTiming(const plant::Plant &plant, double dt, int horizon,
                       bool with_refresh, matlib::NumericFormat format)
{
    return targetTiming(namedTarget("vector"), plant, dt, horizon,
                        with_refresh, format);
}

ControllerTiming
gemminiControllerTiming(const plant::Plant &plant, double dt, int horizon,
                        bool with_refresh, matlib::NumericFormat format)
{
    return targetTiming(namedTarget("gemmini"), plant, dt, horizon,
                        with_refresh, format);
}

ControllerTiming
namedControllerTiming(const std::string &model,
                      const plant::Plant &plant, double dt, int horizon,
                      bool with_refresh, matlib::NumericFormat format)
{
    return targetTiming(namedTarget(model), plant, dt, horizon,
                        with_refresh, format);
}

std::vector<isa::KernelCycles>
regionBreakdown(const std::string &model, const plant::Plant &plant,
                double dt, int horizon, int iters)
{
    RTOC_SPAN("hil.region_breakdown", "hil");
    // The target table's configuration, so the profile describes the
    // same hardware the sweeps priced. With scheduling on, profile
    // the stream the sweeps actually replay; region sums stay
    // reconcilable because schedules permute only within regions.
    const Target &t = namedTarget(model);
    std::unique_ptr<cpu::TimingModel> core = t.model();
    std::unique_ptr<matlib::Backend> backend = t.backend();
    auto prog = scheduledSolve(*core, *backend, t.style, plant, dt,
                               horizon, iters);
    return core->run(*prog).kernelBreakdown(*prog);
}

soc::PowerParams
namedPowerParams(const std::string &model)
{
    return namedTarget(model).power();
}

} // namespace rtoc::hil
