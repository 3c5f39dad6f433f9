/**
 * @file
 * Shared helpers for the figure/table regeneration benches: emitting
 * instrumented TinyMPC solves on each backend and naming the standard
 * configurations. Every bench prints the same rows/series the paper
 * reports; absolute cycle counts are model-calibrated, the *shape*
 * (who wins, by what factor, where crossovers fall) is the claim.
 *
 * The solve stream has one emitter and one key, hil::emitSolveStream
 * and hil::solveStreamKey, and the helpers here only delegate to
 * them. emitPlantSolve and emitQuadSolve always emit fresh (the
 * microbench uses them to price emission itself); emitQuadSolveCached
 * fetches hil::solveStream from the process-wide ProgramCache and is
 * what the figure benches use, so a bench, a calibration and a design
 * space asking for one (backend config, style, shape, iters) replay
 * one shared stream.
 */

#ifndef RTOC_BENCH_BENCH_UTIL_HH
#define RTOC_BENCH_BENCH_UTIL_HH

#include <memory>
#include <string>

#include "hil/timing.hh"
#include "isa/program.hh"
#include "matlib/backend.hh"
#include "plant/quad_plant.hh"

namespace rtoc::bench {

/** A fresh instrumented solve of @p plant's problem shape with exactly
 *  @p iters ADMM iterations (hil::emitSolveStream). */
inline isa::Program
emitPlantSolve(const plant::Plant &plant, matlib::Backend &backend,
               tinympc::MappingStyle style, int iters = 5,
               double dt = 0.02, int horizon = 10)
{
    isa::Program prog;
    hil::emitSolveStream(prog, backend, style, plant, dt, horizon, iters);
    return prog;
}

/** ProgramCache key of a plant solve (hil::solveStreamKey). */
inline std::string
plantSolveKey(const matlib::Backend &backend, tinympc::MappingStyle style,
              int nx, int nu, int horizon, int iters)
{
    return hil::solveStreamKey(backend, style, nx, nu, horizon, iters);
}

/** A fresh instrumented solve of the standard quadrotor problem
 *  (nx=12, nu=4, N=10) with exactly @p iters ADMM iterations. */
inline isa::Program
emitQuadSolve(matlib::Backend &backend, tinympc::MappingStyle style,
              int iters = 5,
              const quad::DroneParams &drone =
                  quad::DroneParams::crazyflie())
{
    return emitPlantSolve(plant::QuadrotorPlant(drone), backend, style,
                          iters);
}

/**
 * The cached stream of emitQuadSolve (hil::solveStream). Its key
 * omits @p drone: emission is data-independent, so every drone
 * produces the identical stream (pinned by the
 * ProgramCache.EmissionIsDroneIndependent test) and design points for
 * different drones share one cached trace.
 */
inline std::shared_ptr<const isa::Program>
emitQuadSolveCached(matlib::Backend &backend,
                    tinympc::MappingStyle style, int iters = 5,
                    const quad::DroneParams &drone =
                        quad::DroneParams::crazyflie())
{
    return hil::solveStream(backend, style, plant::QuadrotorPlant(drone),
                            0.02, 10, iters);
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
