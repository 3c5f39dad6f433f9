/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * how fast the timing models consume micro-op streams, and how fast
 * the functional solver runs. These guard the tractability of the
 * HIL sweeps (hundreds of episodes) rather than regenerate a paper
 * figure.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

using namespace rtoc;

static void
BM_InOrderModel(benchmark::State &state)
{
    matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
    auto prog =
        bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 5);
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    for (auto _ : state)
        benchmark::DoNotOptimize(rocket.run(prog).cycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(prog.size()));
}
BENCHMARK(BM_InOrderModel);

static void
BM_OooModel(benchmark::State &state)
{
    matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
    auto prog =
        bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 5);
    cpu::OooCore boom(cpu::OooConfig::boomMega());
    for (auto _ : state)
        benchmark::DoNotOptimize(boom.run(prog).cycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(prog.size()));
}
BENCHMARK(BM_OooModel);

static void
BM_SaturnModel(benchmark::State &state)
{
    matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
    auto prog = bench::emitQuadSolve(b, tinympc::MappingStyle::Fused, 5);
    vector::SaturnModel saturn(
        vector::SaturnConfig::make(512, 256, true));
    for (auto _ : state)
        benchmark::DoNotOptimize(saturn.run(prog).cycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(prog.size()));
}
BENCHMARK(BM_SaturnModel);

static void
BM_FunctionalSolve(benchmark::State &state)
{
    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    tinympc::Workspace ws = drone.buildWorkspace(0.02, 10);
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    tinympc::Solver solver(ws, backend, tinympc::MappingStyle::Library);
    float x0[12] = {0.4f, -0.2f, 0.9f, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    for (auto _ : state) {
        ws.setInitialState(x0);
        benchmark::DoNotOptimize(solver.solve().iterations);
    }
}
BENCHMARK(BM_FunctionalSolve);

static void
BM_EmissionOverhead(benchmark::State &state)
{
    matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
    for (auto _ : state) {
        auto prog =
            bench::emitQuadSolve(b, tinympc::MappingStyle::Fused, 5);
        benchmark::DoNotOptimize(prog.size());
    }
}
BENCHMARK(BM_EmissionOverhead);

BENCHMARK_MAIN();
