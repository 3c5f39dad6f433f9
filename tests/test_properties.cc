/**
 * @file
 * Cross-cutting property tests: parameterized sweeps over hardware
 * configurations and problem sizes asserting invariants that every
 * design point must satisfy (determinism, monotonicity, boundedness,
 * conservation). These guard the design-space exploration itself: a
 * timing model that violates them would corrupt every Pareto and
 * sweep figure.
 */

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "plant/quad_plant.hh"
#include "soc/power_model.hh"
#include "systolic/gemmini.hh"
#include "tinympc/solver.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

isa::Program
emitSolveN(matlib::Backend &backend, tinympc::MappingStyle style,
           int horizon)
{
    tinympc::Workspace ws =
        plant::QuadrotorPlant(quad::DroneParams::crazyflie())
            .buildWorkspace(0.02, horizon);
    ws.settings.maxIters = 4;
    ws.settings.priTol = 0.0f;
    ws.settings.duaTol = 0.0f;
    isa::Program prog;
    backend.setProgram(&prog);
    tinympc::Solver solver(ws, backend, style);
    float x0[12] = {0.3f, 0.1f, 1.1f, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    ws.setInitialState(x0);
    solver.solve();
    backend.setProgram(nullptr);
    return prog;
}

/** (vlen, dlen, shuttle?) sweep over Saturn configurations. */
class SaturnSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{};

TEST_P(SaturnSweep, SolverRunIsDeterministicAndBounded)
{
    auto [vlen, dlen, shuttle] = GetParam();
    matlib::RvvBackend backend(vlen, matlib::RvvMapping::handOptimized());
    isa::Program prog =
        emitSolveN(backend, tinympc::MappingStyle::Fused, 10);
    vector::SaturnModel m(vector::SaturnConfig::make(vlen, dlen, shuttle));
    auto r1 = m.run(prog);
    auto r2 = m.run(prog);
    EXPECT_EQ(r1.cycles, r2.cycles);
    // Bounded below by issue width and above by full serialization.
    EXPECT_GT(r1.cycles, prog.size() / 4);
    EXPECT_LT(r1.cycles, prog.size() * 40);
    // Region attribution never exceeds the total.
    uint64_t sum = 0;
    for (uint64_t c : r1.regionCycles)
        sum += c;
    EXPECT_LE(sum, r1.cycles);
}

TEST_P(SaturnSweep, WiderDatapathNeverSlower)
{
    auto [vlen, dlen, shuttle] = GetParam();
    if (dlen >= vlen)
        GTEST_SKIP() << "no wider config to compare";
    matlib::RvvBackend backend(vlen, matlib::RvvMapping::handOptimized());
    isa::Program prog =
        emitSolveN(backend, tinympc::MappingStyle::Fused, 10);
    vector::SaturnModel narrow(
        vector::SaturnConfig::make(vlen, dlen, shuttle));
    vector::SaturnModel wide(
        vector::SaturnConfig::make(vlen, dlen * 2, shuttle));
    EXPECT_LE(wide.run(prog).cycles, narrow.run(prog).cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SaturnSweep,
    ::testing::Values(std::tuple{256, 128, false},
                      std::tuple{512, 128, false},
                      std::tuple{512, 256, false},
                      std::tuple{512, 128, true},
                      std::tuple{512, 256, true}));

/** Horizon sweep: emission cost scales linearly, solutions stay sane. */
class HorizonSweep : public ::testing::TestWithParam<int>
{};

TEST_P(HorizonSweep, CyclesScaleLinearlyWithHorizon)
{
    int n = GetParam();
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    isa::Program p_n =
        emitSolveN(backend, tinympc::MappingStyle::Library, n);
    isa::Program p_2n =
        emitSolveN(backend, tinympc::MappingStyle::Library, 2 * n);
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    double c_n = static_cast<double>(rocket.run(p_n).cycles);
    double c_2n = static_cast<double>(rocket.run(p_2n).cycles);
    // Linear in horizon: doubling N roughly doubles cycles (within
    // 35% to allow terminal-stage and residual constants).
    EXPECT_GT(c_2n / c_n, 1.6);
    EXPECT_LT(c_2n / c_n, 2.35);
}

TEST_P(HorizonSweep, SolverProducesFiniteBoundedInputs)
{
    int n = GetParam();
    quad::DroneParams drone = quad::DroneParams::crazyflie();
    tinympc::Workspace ws =
        plant::QuadrotorPlant(drone).buildWorkspace(0.02, n);
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    tinympc::Solver solver(ws, backend, tinympc::MappingStyle::Library);
    float x0[12] = {1.0f, -1.0f, 0.5f, 0.2f, -0.2f, 0.1f,
                    0.5f, 0.5f,  0.3f, 0.5f, 0.5f,  0.2f};
    ws.setInitialState(x0);
    solver.solve();
    float hover = static_cast<float>(drone.hoverThrustPerMotorN());
    float tmax = static_cast<float>(drone.maxThrustPerMotorN());
    // The slack trajectory obeys the motor envelope everywhere.
    for (int i = 0; i < ws.N - 1; ++i) {
        for (int j = 0; j < 4; ++j) {
            float z = ws.znew.view().at(i, j);
            EXPECT_TRUE(std::isfinite(z));
            EXPECT_GE(z, -hover - 1e-3f);
            EXPECT_LE(z, tmax - hover + 1e-3f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Horizons, HorizonSweep,
                         ::testing::Values(5, 8, 10, 15));

/** Gemmini configuration sweep. */
class GemminiSweep : public ::testing::TestWithParam<int>
{};

TEST_P(GemminiSweep, DeeperQueueNeverSlower)
{
    int depth = GetParam();
    isa::Program p;
    for (int i = 0; i < 128; ++i) {
        p.push(isa::Uop::rocc(isa::UopKind::RoccPreload, 4, 4));
        p.push(isa::Uop::rocc(isa::UopKind::RoccCompute, 16, 4));
    }
    systolic::GemminiConfig shallow = systolic::GemminiConfig::os4x4();
    shallow.robDepth = depth;
    systolic::GemminiConfig deeper = shallow;
    deeper.robDepth = depth * 2;
    EXPECT_LE(systolic::GemminiModel(deeper).run(p).cycles,
              systolic::GemminiModel(shallow).run(p).cycles);
}

INSTANTIATE_TEST_SUITE_P(Depths, GemminiSweep,
                         ::testing::Values(2, 4, 8, 16));

/** Power-model sweep across architectures. */
class PowerSweep : public ::testing::TestWithParam<int>
{};

TEST_P(PowerSweep, MonotoneInFrequencyAndUtilization)
{
    soc::PowerParams params;
    switch (GetParam()) {
      case 0: params = soc::PowerParams::scalarCore(); break;
      case 1: params = soc::PowerParams::vectorCore(); break;
      default: params = soc::PowerParams::systolicCore(); break;
    }
    soc::PowerModel pm(params);
    double prev_f = 0.0;
    for (double f : {25e6, 50e6, 100e6, 200e6, 400e6, 800e6}) {
        double p = pm.powerW(f, 0.5);
        EXPECT_GT(p, prev_f);
        prev_f = p;
        double prev_u = -1.0;
        for (double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
            double pu = pm.powerW(f, u);
            EXPECT_GT(pu, prev_u);
            prev_u = pu;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Archs, PowerSweep, ::testing::Range(0, 3));

TEST(Conservation, RotorEnergyEqualsIntegratedPower)
{
    quad::QuadSim sim(quad::DroneParams::heron());
    sim.resetHover({0, 0, 1.0});
    double h = sim.hoverCmd();
    double integral = 0.0;
    const double dt = 1.0 / 240.0;
    for (int i = 0; i < 480; ++i) {
        sim.step({h, h, h, h}, dt);
        integral += sim.rotorPowerW() * dt;
    }
    EXPECT_NEAR(sim.rotorEnergyJ(), integral, 0.01 * integral + 1e-9);
}

TEST(Conservation, BoomNeverBeatsDataflowLimit)
{
    // Even Mega BOOM cannot beat the dependency-chain bound.
    isa::Program p;
    uint32_t acc = p.newReg();
    p.push(isa::Uop::scalar(isa::UopKind::FpMove, acc));
    int n = 64;
    for (int i = 0; i < n; ++i) {
        uint32_t next = p.newReg();
        p.push(isa::Uop::scalar(isa::UopKind::FpFma, next, acc));
        acc = next;
    }
    cpu::OooCore mega(cpu::OooConfig::boomMega());
    EXPECT_GE(mega.run(p).cycles,
              static_cast<uint64_t>(n) * 4); // fma latency chain
}

} // namespace
} // namespace rtoc
