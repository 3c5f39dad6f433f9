#include "timing.hh"

#include <cstring>
#include <map>
#include <mutex>
#include <tuple>

#include "common/logging.hh"
#include "obs/registry.hh"
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

namespace {

/**
 * Registry ids of the calibration-cache counters. Sharded per-thread
 * by the registry, so concurrent sweep workers bump them without a
 * lock (the historical struct serialized every bump on one mutex).
 */
struct CalibIds
{
    StatId memoHits;
    StatId diskHits;
    StatId computes;
};

const CalibIds &
calibIds()
{
    static const CalibIds ids = [] {
        obs::Registry &reg = obs::Registry::global();
        return CalibIds{reg.counter("calib.memo_hits"),
                        reg.counter("calib.disk_hits"),
                        reg.counter("calib.computes")};
    }();
    return ids;
}

} // namespace

CalibCacheStats
calibCacheStats()
{
    const CalibIds &ids = calibIds();
    obs::Registry &reg = obs::Registry::global();
    return {reg.value(ids.memoHits), reg.value(ids.diskHits),
            reg.value(ids.computes)};
}

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
    if (!r.ok || r.left != 0)
        return std::nullopt;
    return t;
}

namespace {

/** On-disk key of one (model, backend, style, shape) calibration. */
std::string
calibDiskKey(const cpu::TimingModel &model, const matlib::Backend &backend,
             tinympc::MappingStyle style, const plant::Plant &plant,
             double dt, int horizon, bool with_refresh)
{
    // The fitted linear cycle model is as deterministic as the stream
    // it replays, so it persists across processes under a key carrying
    // every timing-relevant knob: the full model configuration, the
    // backend's emission key, the mapping style, the problem shape
    // and whether the refresh stream was fitted (relinearization-
    // aware callers must never be served a refresh-less payload).
    // schedKeySuffix() keeps sched-on fits from aliasing baseline
    // entries (and is empty — keys untouched — when RTOC_SCHED is
    // off).
    return csprintf("%s|%s|style%d|nx%d|nu%d|dt%.17g|h%d%s%s",
                    model.cacheKey().c_str(), backend.cacheKey().c_str(),
                    static_cast<int>(style), plant.nx(), plant.nu(), dt,
                    horizon, with_refresh ? "|refresh" : "",
                    isa::schedKeySuffix().c_str());
}

/** ProgramCache key of one instrumented calibration solve stream. */
std::string
calibSolveKey(const matlib::Backend &backend, tinympc::MappingStyle style,
              const plant::Plant &plant, double dt, int horizon,
              int iters)
{
    return csprintf("calib:%s:style%d:nx%d:nu%d:dt%g:h%d:it%d",
                    backend.cacheKey().c_str(), static_cast<int>(style),
                    plant.nx(), plant.nu(), dt, horizon, iters);
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

/**
 * Cached instrumented solve stream at a forced iteration count.
 * Emission is data-independent: given the backend configuration,
 * mapping style, problem shape and a forced iteration count the
 * solver emits bit-identical streams regardless of plant masses or
 * states. The stream is therefore cached process-wide and the (cheap)
 * timing replay is the only per-calibration work. The key carries the
 * problem shape (nx, nu, dt, horizon) but deliberately omits the
 * plant parameters (values never change the stream — pinned by
 * ProgramCache.EmissionIsDroneIndependent and the cross-plant shape
 * tests).
 */
std::shared_ptr<const isa::Program>
calibSolveStream(matlib::Backend &backend, tinympc::MappingStyle style,
                 const plant::Plant &plant, double dt, int horizon,
                 int iters)
{
    const std::string key =
        calibSolveKey(backend, style, plant, dt, horizon, iters);
    return isa::ProgramCache::global().getOrEmit(
        key, [&](isa::Program &p) {
            tinympc::Workspace ws = plant.buildWorkspace(dt, horizon);
            ws.settings.maxIters = iters;
            ws.settings.checkTermination = 5;
            ws.settings.priTol = 0.0f; // force exactly maxIters
            ws.settings.duaTol = 0.0f;
            ws.coldStart();
            const float seed_x0[3] = {0.3f, -0.2f, 0.8f};
            std::vector<float> x0(static_cast<size_t>(plant.nx()),
                                  0.0f);
            for (int i = 0; i < plant.nx() && i < 3; ++i)
                x0[i] = seed_x0[i];
            ws.setInitialState(x0.data());

            backend.setProgram(&p);
            tinympc::Solver solver(ws, backend, style);
            solver.setup();
            tinympc::SolveResult res = solver.solve();
            backend.setProgram(nullptr);
            if (res.iterations != iters) {
                rtoc_panic("calibration expected %d iters, got %d",
                           iters, res.iterations);
            }
        });
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

} // namespace

ControllerTiming
calibrateTiming(const cpu::TimingModel &model, matlib::Backend &backend,
                tinympc::MappingStyle style, const plant::Plant &plant,
                double dt, int horizon, const isa::DiskCache *disk,
                bool with_refresh)
{
    const std::string calib_key = calibDiskKey(
        model, backend, style, plant, dt, horizon, with_refresh);
    if (disk) {
        if (auto payload = disk->get("calib", calib_key)) {
            if (auto t = decodeTiming(*payload)) {
                obs::count(calibIds().diskHits);
                return *t;
            }
        }
    }
    RTOC_SPAN("hil.calibrate", "hil");
    auto run_iters = [&](int iters) -> double {
        auto prog = schedStream(
            model, calibSolveKey(backend, style, plant, dt, horizon, iters),
            calibSolveStream(backend, style, plant, dt, horizon, iters));
        return static_cast<double>(model.run(*prog).cycles);
    };

    double c_lo = run_iters(5);
    double c_hi = run_iters(25);

    ControllerTiming t;
    t.archName = model.name();
    t.mappingName = backend.name();
    t.cyclesPerIter = (c_hi - c_lo) / 20.0;
    t.baseCycles = c_lo - 5.0 * t.cyclesPerIter;
    if (t.baseCycles < 0.0)
        t.baseCycles = 0.0;

    if (with_refresh) {
        auto run_refresh = [&](int iters) -> double {
            auto prog = schedStream(
                model, calibRefreshKey(backend, plant, iters),
                calibRefreshStream(backend, plant, dt, horizon, iters));
            return static_cast<double>(model.run(*prog).cycles);
        };
        double r_lo = run_refresh(2);
        double r_hi = run_refresh(8);
        t.refreshCyclesPerIter = (r_hi - r_lo) / 6.0;
        t.refreshBaseCycles = r_lo - 2.0 * t.refreshCyclesPerIter;
        if (t.refreshBaseCycles < 0.0)
            t.refreshBaseCycles = 0.0;
    }
    obs::count(calibIds().computes);
    if (disk)
        disk->put("calib", calib_key, encodeTiming(t));
    return t;
}

namespace {

/**
 * The convenience calibrations use fixed core/backend configurations,
 * so the resulting cycle model depends only on the problem shape
 * (nx, nu, dt, horizon) — the stream is plant-parameter-independent.
 * The HIL benches call these per plant per frequency; memoizing here
 * removes all repeat work, and plants sharing a shape share entries.
 */
struct CalibMemo
{
    std::mutex mu;
    std::map<std::tuple<int, int, int, double, int, bool, int>,
             ControllerTiming>
        memo;
};

CalibMemo &
calibMemo()
{
    static CalibMemo m;
    return m;
}

template <typename MakeFn>
ControllerTiming
memoizedCalibration(int which, const plant::Plant &plant, double dt,
                    int horizon, bool with_refresh,
                    matlib::NumericFormat format, MakeFn &&make)
{
    CalibMemo &m = calibMemo();
    std::lock_guard<std::mutex> lk(m.mu);
    auto key = std::make_tuple(which, plant.nx(), plant.nu(), dt,
                               horizon, with_refresh,
                               static_cast<int>(format));
    auto it = m.memo.find(key);
    if (it != m.memo.end()) {
        obs::count(calibIds().memoHits);
        return it->second;
    }
    ControllerTiming t = make();
    m.memo.emplace(key, t);
    return t;
}

} // namespace

ControllerTiming
scalarControllerTiming(const plant::Plant &plant, double dt, int horizon,
                       bool with_refresh, matlib::NumericFormat format)
{
    return memoizedCalibration(
        0, plant, dt, horizon, with_refresh, format, [&] {
            cpu::InOrderCore core(cpu::InOrderConfig::shuttle());
            matlib::ScalarBackend backend(
                matlib::ScalarFlavor::Optimized);
            backend.setFormat(format);
            return calibrateTiming(core, backend,
                                   tinympc::MappingStyle::Library, plant,
                                   dt, horizon, &isa::DiskCache::global(),
                                   with_refresh);
        });
}

ControllerTiming
vectorControllerTiming(const plant::Plant &plant, double dt, int horizon,
                       bool with_refresh, matlib::NumericFormat format)
{
    return memoizedCalibration(
        1, plant, dt, horizon, with_refresh, format, [&] {
            vector::SaturnModel saturn(
                vector::SaturnConfig::make(512, 256, true));
            matlib::RvvBackend backend(
                512, matlib::RvvMapping::handOptimized());
            backend.setFormat(format);
            return calibrateTiming(saturn, backend,
                                   tinympc::MappingStyle::Fused, plant,
                                   dt, horizon, &isa::DiskCache::global(),
                                   with_refresh);
        });
}

ControllerTiming
gemminiControllerTiming(const plant::Plant &plant, double dt, int horizon,
                        bool with_refresh, matlib::NumericFormat format)
{
    return memoizedCalibration(
        2, plant, dt, horizon, with_refresh, format, [&] {
            systolic::GemminiModel gemmini(
                systolic::GemminiConfig::os4x4());
            matlib::GemminiBackend backend(
                matlib::GemminiMapping::fullyOptimized());
            backend.setFormat(format);
            // Library style: the Gemmini backend rejects Fused emission
            // (CISC tiled-matmul constraints).
            return calibrateTiming(gemmini, backend,
                                   tinympc::MappingStyle::Library, plant,
                                   dt, horizon, &isa::DiskCache::global(),
                                   with_refresh);
        });
}

ControllerTiming
namedControllerTiming(const std::string &model,
                      const plant::Plant &plant, double dt, int horizon,
                      bool with_refresh, matlib::NumericFormat format)
{
    if (model == "scalar") {
        return scalarControllerTiming(plant, dt, horizon, with_refresh,
                                      format);
    }
    if (model == "gemmini") {
        return gemminiControllerTiming(plant, dt, horizon, with_refresh,
                                       format);
    }
    if (model == "vector" || model == "ideal") {
        return vectorControllerTiming(plant, dt, horizon, with_refresh,
                                      format);
    }
    rtoc_fatal("unknown timing model '%s'", model.c_str());
}

std::vector<isa::KernelCycles>
regionBreakdown(const std::string &model, const plant::Plant &plant,
                double dt, int horizon, int iters)
{
    RTOC_SPAN("hil.region_breakdown", "hil");
    // Mirror the convenience-calibration configurations exactly, so
    // the profile describes the same hardware the sweeps priced.
    auto replay = [&](const cpu::TimingModel &core,
                      matlib::Backend &backend,
                      tinympc::MappingStyle style) {
        // With scheduling on, profile the stream the sweeps actually
        // replay; region sums stay reconcilable because schedules
        // permute only within regions.
        auto prog = schedStream(
            core, calibSolveKey(backend, style, plant, dt, horizon, iters),
            calibSolveStream(backend, style, plant, dt, horizon, iters));
        return core.run(*prog).kernelBreakdown(*prog);
    };
    if (model == "scalar") {
        cpu::InOrderCore core(cpu::InOrderConfig::shuttle());
        matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
        return replay(core, backend, tinympc::MappingStyle::Library);
    }
    if (model == "gemmini") {
        systolic::GemminiModel gemmini(systolic::GemminiConfig::os4x4());
        matlib::GemminiBackend backend(
            matlib::GemminiMapping::fullyOptimized());
        return replay(gemmini, backend, tinympc::MappingStyle::Library);
    }
    if (model == "vector" || model == "ideal") {
        vector::SaturnModel saturn(
            vector::SaturnConfig::make(512, 256, true));
        matlib::RvvBackend backend(512,
                                   matlib::RvvMapping::handOptimized());
        return replay(saturn, backend, tinympc::MappingStyle::Fused);
    }
    rtoc_fatal("unknown timing model '%s'", model.c_str());
}

soc::PowerParams
namedPowerParams(const std::string &model)
{
    if (model == "scalar")
        return soc::PowerParams::scalarCore();
    if (model == "gemmini")
        return soc::PowerParams::systolicCore();
    if (model == "vector" || model == "ideal")
        return soc::PowerParams::vectorCore();
    rtoc_fatal("unknown timing model '%s'", model.c_str());
}

} // namespace rtoc::hil
