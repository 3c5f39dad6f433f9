/**
 * @file
 * Shared helpers for the figure/table regeneration benches: emitting
 * instrumented TinyMPC solves on each backend and naming the standard
 * configurations. Every bench prints the same rows/series the paper
 * reports; absolute cycle counts are model-calibrated, the *shape*
 * (who wins, by what factor, where crossovers fall) is the claim.
 *
 * emitQuadSolve always emits fresh (the microbench uses it to price
 * emission itself); emitQuadSolveCached goes through the process-wide
 * ProgramCache and is what the figure benches use — repeated design
 * points with the same (backend config, style, iters) replay one
 * shared stream.
 */

#ifndef RTOC_BENCH_BENCH_UTIL_HH
#define RTOC_BENCH_BENCH_UTIL_HH

#include <memory>
#include <string>

#include "common/logging.hh"
#include "isa/program.hh"
#include "isa/program_cache.hh"
#include "matlib/backend.hh"
#include "plant/quad_plant.hh"
#include "tinympc/solver.hh"

namespace rtoc::bench {

/**
 * Emit an instrumented TinyMPC solve of @p plant's problem shape with
 * exactly @p iters ADMM iterations (plant-generic counterpart of
 * emitQuadSolve).
 */
inline isa::Program
emitPlantSolve(const plant::Plant &plant, matlib::Backend &backend,
               tinympc::MappingStyle style, int iters = 5,
               double dt = 0.02, int horizon = 10)
{
    tinympc::Workspace ws = plant.buildWorkspace(dt, horizon);
    ws.settings.maxIters = iters;
    ws.settings.priTol = 0.0f;
    ws.settings.duaTol = 0.0f;
    isa::Program prog;
    backend.setProgram(&prog);
    tinympc::Solver solver(ws, backend, style);
    solver.setup();
    std::vector<float> x0(static_cast<size_t>(plant.nx()), 0.0f);
    x0[0] = 0.4f;
    ws.setInitialState(x0.data());
    solver.solve();
    backend.setProgram(nullptr);
    return prog;
}

/**
 * ProgramCache key of a cached plant solve. Shared by
 * emitPlantSolveCached and the dse DesignSpace progKey closures, so a
 * design space names exactly the stream the emitter would cache. The
 * key carries the problem shape (nx, nu, horizon) but not the plant
 * parameters: emission is data-independent, so plants sharing a shape
 * share one stream.
 */
inline std::string
plantSolveKey(const matlib::Backend &backend, tinympc::MappingStyle style,
              int nx, int nu, int horizon, int iters)
{
    return csprintf("plantsolve:%s:style%d:nx%d:nu%d:h%d:it%d",
                    backend.cacheKey().c_str(), static_cast<int>(style),
                    nx, nu, horizon, iters);
}

/** Cached variant of emitPlantSolve (keyed by plantSolveKey). */
inline std::shared_ptr<const isa::Program>
emitPlantSolveCached(const plant::Plant &plant, matlib::Backend &backend,
                     tinympc::MappingStyle style, int iters = 5,
                     double dt = 0.02, int horizon = 10)
{
    const std::string key = plantSolveKey(backend, style, plant.nx(),
                                          plant.nu(), horizon, iters);
    return isa::ProgramCache::global().getOrEmit(
        key, [&](isa::Program &p) {
            p = emitPlantSolve(plant, backend, style, iters, dt,
                               horizon);
        });
}

/**
 * Emit an instrumented TinyMPC solve of the standard quadrotor
 * problem (nx=12, nu=4, N=10) with exactly @p iters ADMM iterations.
 */
inline isa::Program
emitQuadSolve(matlib::Backend &backend, tinympc::MappingStyle style,
              int iters = 5,
              const quad::DroneParams &drone =
                  quad::DroneParams::crazyflie())
{
    tinympc::Workspace ws =
        plant::QuadrotorPlant(drone).buildWorkspace(0.02, 10);
    ws.settings.maxIters = iters;
    ws.settings.priTol = 0.0f;
    ws.settings.duaTol = 0.0f;
    isa::Program prog;
    backend.setProgram(&prog);
    tinympc::Solver solver(ws, backend, style);
    solver.setup();
    float x0[12] = {0.4f, -0.2f, 0.9f, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    ws.setInitialState(x0);
    solver.solve();
    backend.setProgram(nullptr);
    return prog;
}

/**
 * Cached variant of emitQuadSolve, sharing the plant-generic key
 * space: the standard quadrotor problem is the 12x4 instantiation of
 * emitPlantSolveCached, so quad-specific and cross-plant sweeps hit
 * one cached stream. The returned Program is immutable and safe to
 * time from any thread.
 *
 * The key deliberately omits @p drone: emission is data-independent,
 * so every drone produces the identical stream for a given shape
 * (pinned by the ProgramCache.EmissionIsDroneIndependent test) and
 * design points for different drones share one cached trace.
 */
inline std::shared_ptr<const isa::Program>
emitQuadSolveCached(matlib::Backend &backend,
                    tinympc::MappingStyle style, int iters = 5,
                    const quad::DroneParams &drone =
                        quad::DroneParams::crazyflie())
{
    plant::QuadrotorPlant plant(drone);
    return emitPlantSolveCached(plant, backend, style, iters);
}

/** Paper kernel names in Algorithm order, for stable table rows. */
inline const char *const kKernelOrder[] = {
    "forward_pass_1",        "forward_pass_2",
    "backward_pass_1",       "backward_pass_2",
    "update_slack_1",        "update_slack_2",
    "update_dual_1",         "update_linear_cost_1",
    "update_linear_cost_2",  "update_linear_cost_3",
    "update_linear_cost_4",  "primal_residual_state",
    "dual_residual_state",   "primal_residual_input",
    "dual_residual_input",
};

/** Find per-name cycles in a kernel breakdown (0 when missing). */
inline uint64_t
kernelCycles(const std::vector<isa::KernelCycles> &kcs,
             const std::string &name)
{
    for (const auto &kc : kcs)
        if (kc.name == name)
            return kc.cycles;
    return 0;
}

} // namespace rtoc::bench

#endif // RTOC_BENCH_BENCH_UTIL_HH
