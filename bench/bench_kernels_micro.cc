/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * how fast the timing models consume micro-op streams (one model, and
 * eight latency-scaled configs per family replayed one by one or as
 * one batch), what a cold set-up pays to emit a stream and take its
 * first view, how fast the functional solver runs (float32, and per
 * registry plant at bf16 and i16), and how fast the Riccati recursion
 * runs per registry plant (cold trim solve and warm refresh). These
 * guard the tractability of the HIL sweeps (hundreds of episodes)
 * rather than regenerate a paper figure; their host times stay out of
 * the golden set.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "dse/design_space.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "numerics/dare.hh"
#include "plant/registry.hh"
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

/**
 * Case #index's Library-style quadrotor solve stream and eight configs
 * at dse latency scales 0.7, 0.8, ..., 1.4: in-order Shuttle, OoO
 * boom-medium, Saturn V512D256 (Shuttle frontend), Gemmini OS4x4 or
 * OoO boom-mega (args 0-4). boom-medium's memory and FP pipes are one
 * slot wide and boom-mega's two, so arg 4 times the claim-count path
 * that arg 1 mostly skips.
 */
struct ReplayCase
{
    std::string name;
    isa::Program prog;
    std::vector<std::unique_ptr<cpu::TimingModel>> models;
    std::vector<const cpu::TimingModel *> ptrs;
};

static ReplayCase
replayCase(int64_t index)
{
    using tinympc::MappingStyle;
    ReplayCase c;
    std::unique_ptr<matlib::Backend> b;
    std::unique_ptr<cpu::TimingModel> (*make)(double) = nullptr;
    switch (index) {
      case 0:
        c.name = "inorder-shuttle";
        b = std::make_unique<matlib::ScalarBackend>(
            matlib::ScalarFlavor::Optimized);
        make = [](double lat) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<cpu::InOrderCore>(
                dse::scaledInOrder(cpu::InOrderConfig::shuttle(), lat));
        };
        break;
      case 1:
        c.name = "ooo-boom-medium";
        b = std::make_unique<matlib::ScalarBackend>(
            matlib::ScalarFlavor::Optimized);
        make = [](double lat) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<cpu::OooCore>(
                dse::scaledOoo(cpu::OooConfig::boomMedium(), lat));
        };
        break;
      case 2:
        c.name = "saturn-v512d256";
        b = std::make_unique<matlib::RvvBackend>(
            512, matlib::RvvMapping::handOptimized());
        make = [](double lat) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<vector::SaturnModel>(
                dse::scaledSaturn(
                    vector::SaturnConfig::make(512, 256, true), lat, 1.0));
        };
        break;
      case 3:
        c.name = "gemmini-os4x4";
        b = std::make_unique<matlib::GemminiBackend>(
            matlib::GemminiMapping::fullyOptimized());
        make = [](double lat) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<systolic::GemminiModel>(
                dse::scaledGemmini(systolic::GemminiConfig::os4x4(64),
                                   lat, 1.0));
        };
        break;
      default:
        c.name = "ooo-boom-mega";
        b = std::make_unique<matlib::ScalarBackend>(
            matlib::ScalarFlavor::Optimized);
        make = [](double lat) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<cpu::OooCore>(
                dse::scaledOoo(cpu::OooConfig::boomMega(), lat));
        };
        break;
    }
    c.prog = bench::emitQuadSolve(*b, MappingStyle::Library, 5);
    for (int k = 0; k < 8; ++k) {
        c.models.push_back(make(0.7 + 0.1 * k));
        c.ptrs.push_back(c.models.back().get());
    }
    return c;
}

/** Eight single-config replays (runStream), one per scaled config. */
static void
BM_ReplaySingle(benchmark::State &state)
{
    const ReplayCase c = replayCase(state.range(0));
    const isa::UopStreamView view = c.prog.stream();
    for (auto _ : state) {
        for (const cpu::TimingModel *m : c.ptrs)
            benchmark::DoNotOptimize(m->runStream(view).cycles);
    }
    state.SetItemsProcessed(state.iterations() * 8 *
                            static_cast<int64_t>(c.prog.size()));
    state.SetLabel(c.name);
}
BENCHMARK(BM_ReplaySingle)->DenseRange(0, 4); // four families, boom-mega

/** One 8-lane runStreamBatch over the same eight configs. */
static void
BM_ReplayBatch8(benchmark::State &state)
{
    const ReplayCase c = replayCase(state.range(0));
    const isa::UopStreamView view = c.prog.stream();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.ptrs.front()->runStreamBatch(view, c.ptrs).back().cycles);
    }
    state.SetItemsProcessed(state.iterations() * 8 *
                            static_cast<int64_t>(c.prog.size()));
    state.SetLabel(c.name);
}
BENCHMARK(BM_ReplayBatch8)->DenseRange(0, 4); // four families, boom-mega

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

/**
 * A narrow-format host solve: registry plant #range(0) at bf16
 * (range(1) 0), i16 (1) or i32 (2), 25 Library-style iterations (zero
 * tolerances) on a host-only scalar backend with the calibrated
 * fixed-point schedule, from a state off the reference.
 */
static void
BM_NarrowSolve(benchmark::State &state)
{
    const plant::ScenarioRegistry &reg = plant::ScenarioRegistry::global();
    const std::string name =
        reg.plantNames().at(static_cast<size_t>(state.range(0)));
    constexpr matlib::NumericFormat kFormats[] = {
        matlib::NumericFormat::BF16, matlib::NumericFormat::I16,
        matlib::NumericFormat::I32};
    const matlib::NumericFormat f =
        kFormats[static_cast<size_t>(state.range(1))];
    std::unique_ptr<plant::Plant> p = reg.makePlant(name);
    tinympc::Workspace ws = p->buildWorkspace(0.02, 10);
    ws.settings.priTol = 0.0f;
    ws.settings.duaTol = 0.0f;
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    backend.setFormat(f);
    backend.setFixedScaling(tinympc::calibrateFixedScaling(ws, f));
    tinympc::Solver solver(ws, backend, tinympc::MappingStyle::Library);
    std::vector<float> x0(static_cast<size_t>(p->nx()), 0.0f);
    x0[0] = 0.4f;
    for (auto _ : state) {
        ws.setInitialState(x0.data());
        benchmark::DoNotOptimize(solver.solve().iterations);
        benchmark::DoNotOptimize(ws.u.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(name + " " + matlib::formatName(f));
}
// The four registry plants x {bf16, i16, i32}.
BENCHMARK(BM_NarrowSolve)->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2}});

/**
 * Registry plant #index's trim model and an off-trim model (every state
 * moved 0.03·(j+1), input deltas 0.1), with its MPC weights: the inputs
 * of the HIL stack's Riccati calls.
 */
struct RiccatiCase
{
    std::string name;
    plant::LinearModel trim, off;
    numerics::DMatrix q, r;
    double rho;
};

static RiccatiCase
riccatiCase(int64_t index)
{
    const plant::ScenarioRegistry &reg = plant::ScenarioRegistry::global();
    RiccatiCase c;
    c.name = reg.plantNames().at(static_cast<size_t>(index));
    std::unique_ptr<plant::Plant> p = reg.makePlant(c.name);
    c.trim = p->linearize(0.02);
    std::vector<double> x = p->trimState();
    for (size_t j = 0; j < x.size(); ++j)
        x[j] += 0.03 * static_cast<double>(j + 1);
    const std::vector<double> du(static_cast<size_t>(p->nu()), 0.1);
    c.off = p->linearizeAt(x.data(), du.data(), 0.02);
    const plant::Weights w = p->mpcWeights();
    c.q = numerics::DMatrix::diag(w.qDiag);
    c.r = numerics::DMatrix::diag(w.rDiag);
    c.rho = w.rho;
    return c;
}

/** The cold trim solve of Plant::buildWorkspace (tol 1e-10). */
static void
BM_RiccatiCold(benchmark::State &state)
{
    const RiccatiCase c = riccatiCase(state.range(0));
    int iters = 0;
    for (auto _ : state) {
        iters = numerics::solveDare(c.trim.ad, c.trim.bd, c.q, c.r, c.rho)
                    .iterations;
        benchmark::DoNotOptimize(iters);
    }
    state.SetLabel(c.name);
    state.counters["riccati_iters"] = iters;
}
BENCHMARK(BM_RiccatiCold)->DenseRange(0, 3); // the four registry plants

/**
 * A ControlSession refresh: the off-trim model from the trim Pinf,
 * tol 1e-6, capped at 500 iterations.
 */
static void
BM_RiccatiWarm(benchmark::State &state)
{
    const RiccatiCase c = riccatiCase(state.range(0));
    const numerics::DMatrix seed =
        numerics::solveDare(c.trim.ad, c.trim.bd, c.q, c.r, c.rho).pinf;
    int iters = 0;
    for (auto _ : state) {
        const std::optional<numerics::LqrCache> cache =
            numerics::trySolveDare(c.off.ad, c.off.bd, c.q, c.r, c.rho,
                                   &seed, 1e-6, 500);
        iters = cache ? cache->iterations : -1;
        benchmark::DoNotOptimize(iters);
    }
    state.SetLabel(c.name);
    state.counters["riccati_iters"] = iters;
}
BENCHMARK(BM_RiccatiWarm)->DenseRange(0, 3); // the four registry plants

/**
 * What a cold set-up pays per stream: one emission of the 5-iteration
 * quadrotor solve plus the first stream() over it, on the scalar
 * (Library), RVV (Fused) and Gemmini (Library) backends (args 0-2).
 */
static void
BM_EmissionOverhead(benchmark::State &state)
{
    using tinympc::MappingStyle;
    std::unique_ptr<matlib::Backend> b;
    MappingStyle style = MappingStyle::Library;
    switch (state.range(0)) {
      case 0:
        b = std::make_unique<matlib::ScalarBackend>(
            matlib::ScalarFlavor::Optimized);
        break;
      case 1:
        b = std::make_unique<matlib::RvvBackend>(
            512, matlib::RvvMapping::handOptimized());
        style = MappingStyle::Fused;
        break;
      default:
        b = std::make_unique<matlib::GemminiBackend>(
            matlib::GemminiMapping::fullyOptimized());
        break;
    }
    int64_t uops = 0;
    for (auto _ : state) {
        const isa::Program prog = bench::emitQuadSolve(*b, style, 5);
        benchmark::DoNotOptimize(prog.stream().cls);
        uops = static_cast<int64_t>(prog.size());
    }
    state.SetItemsProcessed(state.iterations() * uops);
    state.SetLabel(b->name());
}
BENCHMARK(BM_EmissionOverhead)->DenseRange(0, 2); // scalar, RVV, Gemmini

BENCHMARK_MAIN();
