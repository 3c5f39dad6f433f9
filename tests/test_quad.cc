/**
 * @file
 * Quadrotor substrate tests: Table-1 parameters and derived
 * quantities, rigid-body dynamics invariants (hover equilibrium,
 * gravity, torque response, energy accounting), linearization
 * consistency against the nonlinear model, and scenario generation
 * against the Figure 15 difficulty table.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "plant/quad_plant.hh"
#include "quad/dynamics.hh"
#include "quad/params.hh"

namespace rtoc::quad {
namespace {

using plant::Difficulty;
using plant::DifficultySpec;
using plant::QuadrotorPlant;
using plant::Scenario;

/** The crazyflie's controller view: hover model and scenarios. */
const QuadrotorPlant kCf(DroneParams::crazyflie());

TEST(Params, Table1Values)
{
    DroneParams cf = DroneParams::crazyflie();
    EXPECT_DOUBLE_EQ(cf.massKg, 0.027);
    EXPECT_DOUBLE_EQ(cf.propDiameterM, 0.045);
    EXPECT_DOUBLE_EQ(cf.armLengthM, 0.080);
    EXPECT_DOUBLE_EQ(cf.motorKvRpmPerV, 14000.0);
    EXPECT_EQ(cf.batteryCells, 1);

    DroneParams hawk = DroneParams::hawk();
    EXPECT_DOUBLE_EQ(hawk.massKg, 0.046);
    EXPECT_DOUBLE_EQ(hawk.propDiameterM, 0.060);
    EXPECT_DOUBLE_EQ(hawk.motorKvRpmPerV, 28000.0);
    EXPECT_EQ(hawk.batteryCells, 2);

    DroneParams heron = DroneParams::heron();
    EXPECT_DOUBLE_EQ(heron.massKg, 0.035);
    EXPECT_DOUBLE_EQ(heron.propDiameterM, 0.090);
    EXPECT_DOUBLE_EQ(heron.armLengthM, 0.160);
    EXPECT_EQ(heron.batteryCells, 2);
}

TEST(Params, AllVariantsCanHover)
{
    for (auto p : {DroneParams::crazyflie(), DroneParams::hawk(),
                   DroneParams::heron()}) {
        EXPECT_GT(p.thrustToWeight(), 1.5) << p.name;
        EXPECT_LT(p.hoverThrustPerMotorN(), p.maxThrustPerMotorN())
            << p.name;
    }
}

TEST(Params, HawkHasMostAuthorityHeronMostEfficiency)
{
    DroneParams cf = DroneParams::crazyflie();
    DroneParams hawk = DroneParams::hawk();
    DroneParams heron = DroneParams::heron();
    EXPECT_GT(hawk.thrustToWeight(), cf.thrustToWeight());

    // Hover power per newton of thrust: Heron's large disks win.
    auto hover_power = [](const DroneParams &p) {
        return 4.0 * rotorInducedPowerW(p.hoverThrustPerMotorN(),
                                        p.rotorDiskAreaM2());
    };
    double cf_specific = hover_power(cf) / (cf.massKg * kGravity);
    double heron_specific =
        hover_power(heron) / (heron.massKg * kGravity);
    EXPECT_LT(heron_specific, cf_specific);
}

TEST(Params, MomentumTheoryPower)
{
    // Doubling disk area cuts induced power by sqrt(2) at equal
    // thrust (Equation 4).
    double p1 = rotorInducedPowerW(0.1, 0.002);
    double p2 = rotorInducedPowerW(0.1, 0.004);
    EXPECT_NEAR(p1 / p2, std::sqrt(2.0), 1e-9);
    EXPECT_EQ(rotorInducedPowerW(0.0, 0.002), 0.0);
    // T^1.5 scaling.
    EXPECT_NEAR(rotorInducedPowerW(0.4, 0.002) /
                    rotorInducedPowerW(0.1, 0.002),
                8.0, 1e-9);
}

TEST(Dynamics, HoverIsEquilibrium)
{
    QuadSim sim(DroneParams::crazyflie());
    sim.resetHover({0, 0, 1.0});
    double hover = sim.hoverCmd();
    for (int i = 0; i < 240; ++i)
        sim.step({hover, hover, hover, hover}, 1.0 / 240.0);
    EXPECT_NEAR(sim.state().pos[2], 1.0, 0.01);
    EXPECT_NEAR(sim.state().vel[2], 0.0, 0.02);
    EXPECT_NEAR(sim.state().tiltCos(), 1.0, 1e-6);
}

TEST(Dynamics, ZeroThrustFallsUnderGravity)
{
    QuadSim sim(DroneParams::crazyflie());
    sim.resetHover({0, 0, 2.0});
    // Kill motor lag influence by waiting for decay.
    for (int i = 0; i < 120; ++i)
        sim.step({0, 0, 0, 0}, 1.0 / 240.0);
    // After 0.5 s mostly free fall: v approx -g t (minus drag/decay).
    EXPECT_LT(sim.state().vel[2], -2.5);
}

TEST(Dynamics, DifferentialThrustRolls)
{
    QuadSim sim(DroneParams::crazyflie());
    sim.resetHover({0, 0, 1.0});
    double h = sim.hoverCmd();
    // Motors 2,3 harder (positive roll torque by our mixing).
    for (int i = 0; i < 24; ++i)
        sim.step({h * 0.9, h * 0.9, h * 1.1, h * 1.1}, 1.0 / 240.0);
    EXPECT_GT(sim.state().omega[0], 0.1);
    EXPECT_NEAR(sim.state().omega[2], 0.0, 0.05);
}

TEST(Dynamics, YawFromSpinImbalance)
{
    QuadSim sim(DroneParams::crazyflie());
    sim.resetHover({0, 0, 1.0});
    double h = sim.hoverCmd();
    // Motors 0,2 (CW pair) harder -> yaw torque.
    for (int i = 0; i < 48; ++i)
        sim.step({h * 1.1, h * 0.9, h * 1.1, h * 0.9}, 1.0 / 240.0);
    EXPECT_GT(std::fabs(sim.state().omega[2]), 0.05);
}

TEST(Dynamics, RotorEnergyAccumulates)
{
    QuadSim sim(DroneParams::crazyflie());
    sim.resetHover({0, 0, 1.0});
    double h = sim.hoverCmd();
    for (int i = 0; i < 240; ++i)
        sim.step({h, h, h, h}, 1.0 / 240.0);
    // One second of hover at ~1.1 W.
    EXPECT_NEAR(sim.rotorEnergyJ(), sim.rotorPowerW() * 1.0, 0.05);
    EXPECT_GT(sim.rotorPowerW(), 0.8);
    EXPECT_LT(sim.rotorPowerW(), 1.6);
}

TEST(Dynamics, CrashDetection)
{
    QuadSim sim(DroneParams::crazyflie());
    sim.resetHover({0, 0, 0.5});
    for (int i = 0; i < 480 && !sim.crashed(); ++i)
        sim.step({0, 0, 0, 0}, 1.0 / 240.0);
    EXPECT_TRUE(sim.crashed());
}

TEST(Dynamics, ExternalForcePushes)
{
    QuadSim sim(DroneParams::crazyflie());
    sim.resetHover({0, 0, 1.0});
    double h = sim.hoverCmd();
    ExternalWrench w;
    w.forceN = {0.05, 0, 0};
    for (int i = 0; i < 120; ++i)
        sim.step({h, h, h, h}, 1.0 / 240.0, w);
    EXPECT_GT(sim.state().pos[0], 0.02);
}

TEST(Linearize, MatchesNonlinearSmallPerturbation)
{
    DroneParams cf = DroneParams::crazyflie();
    double dt = 0.02;
    plant::LinearModel lm = QuadrotorPlant(cf).linearize(dt);

    // Nonlinear step from a small perturbed state with hover thrust.
    QuadSim sim(cf);
    sim.resetHover({0, 0, 1.0});
    sim.mutableState().vel = {0.05, 0.0, 0.0};
    // Disable motor lag effects by commanding the current thrust.
    double h = cf.hoverThrustPerMotorN();
    for (int i = 0; i < static_cast<int>(dt * 240 + 0.5); ++i)
        sim.step({h, h, h, h}, 1.0 / 240.0);

    // Linear prediction (state relative to hover at the origin;
    // position enters through row 0..2).
    numerics::DMatrix x0(12, 1);
    x0(0, 0) = 0.0;
    x0(2, 0) = 1.0;
    x0(6, 0) = 0.05;
    numerics::DMatrix x1 = lm.ad * x0;

    EXPECT_NEAR(sim.state().pos[0], x1(0, 0), 2e-4);
    EXPECT_NEAR(sim.state().vel[0], x1(6, 0), 2e-3);
}

TEST(Linearize, DiscreteMatricesWellFormed)
{
    plant::LinearModel lm = kCf.linearize(0.02);
    // Ad close to identity for small dt; Bd nonzero in z-accel row.
    EXPECT_NEAR(lm.ad(0, 0), 1.0, 1e-9);
    EXPECT_NEAR(lm.ad(0, 6), 0.02, 5e-4);
    for (int j = 0; j < 4; ++j)
        EXPECT_GT(lm.bd(8, j), 0.0);
}

TEST(Linearize, WorkspaceBuilds)
{
    tinympc::Workspace ws = kCf.buildWorkspace(0.02, 10);
    EXPECT_EQ(ws.nx, 12);
    EXPECT_EQ(ws.nu, 4);
    EXPECT_EQ(ws.N, 10);
    // Input bounds reflect the motor envelope.
    EXPECT_LT(ws.uMin.view().at(0, 0), 0.0f);
    EXPECT_GT(ws.uMax.view().at(0, 0), 0.0f);
}

TEST(Scenario, Figure15Table)
{
    DifficultySpec easy = kCf.difficultySpec(Difficulty::Easy);
    EXPECT_EQ(easy.waypointCount, 5);
    EXPECT_DOUBLE_EQ(easy.timeBetweenS, 0.5);
    EXPECT_DOUBLE_EQ(easy.avgDistanceM, 0.3);
    DifficultySpec med = kCf.difficultySpec(Difficulty::Medium);
    EXPECT_EQ(med.waypointCount, 7);
    EXPECT_DOUBLE_EQ(med.timeBetweenS, 0.4);
    EXPECT_DOUBLE_EQ(med.avgDistanceM, 0.7);
    DifficultySpec hard = kCf.difficultySpec(Difficulty::Hard);
    EXPECT_EQ(hard.waypointCount, 10);
    EXPECT_DOUBLE_EQ(hard.timeBetweenS, 0.3);
    EXPECT_DOUBLE_EQ(hard.avgDistanceM, 1.1);
}

TEST(Scenario, Deterministic)
{
    Scenario a = kCf.makeScenario(Difficulty::Medium, 3);
    Scenario b = kCf.makeScenario(Difficulty::Medium, 3);
    ASSERT_EQ(a.waypoints.size(), b.waypoints.size());
    for (size_t i = 0; i < a.waypoints.size(); ++i)
        EXPECT_EQ(a.waypoints[i], b.waypoints[i]);
    Scenario c = kCf.makeScenario(Difficulty::Medium, 4);
    EXPECT_NE(a.waypoints[0], c.waypoints[0]);
}

class ScenarioStats
    : public ::testing::TestWithParam<Difficulty>
{};

TEST_P(ScenarioStats, HopDistancesMatchSpec)
{
    Difficulty d = GetParam();
    DifficultySpec spec = kCf.difficultySpec(d);
    double total = 0.0;
    const int n = 20;
    for (int i = 0; i < n; ++i) {
        Scenario sc = kCf.makeScenario(d, i);
        EXPECT_EQ(static_cast<int>(sc.waypoints.size()),
                  spec.waypointCount);
        EXPECT_DOUBLE_EQ(sc.intervalS, spec.timeBetweenS);
        total += sc.meanHopDistance(kCf.home());
        // All waypoints inside the flight box.
        for (const auto &wp : sc.waypoints) {
            EXPECT_LT(std::fabs(wp[0]), 2.6);
            EXPECT_LT(std::fabs(wp[1]), 2.6);
            EXPECT_GT(wp[2], 0.35);
            EXPECT_LT(wp[2], 2.05);
        }
    }
    // Mean hop near the Figure 15 value (boundary clamping allows a
    // modest downward bias on Hard).
    double mean = total / n;
    EXPECT_GT(mean, spec.avgDistanceM * 0.7);
    EXPECT_LT(mean, spec.avgDistanceM * 1.25);
}

INSTANTIATE_TEST_SUITE_P(AllDifficulties, ScenarioStats,
                         ::testing::Values(Difficulty::Easy,
                                           Difficulty::Medium,
                                           Difficulty::Hard));

} // namespace
} // namespace rtoc::quad
