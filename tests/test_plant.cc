/**
 * @file
 * Plant-subsystem tests: RK4 integration consistency (full-step vs
 * half-step error shrinking at 4th order), finite-difference
 * validation of every plant's analytic linearization, crash/limit
 * predicates, scenario-registry enumeration/determinism, runCell
 * aggregation, calibration shape-keying, and end-to-end episodes for
 * every registered plant on all three backend timing models.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "common/plant_shapes.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "plant/cartpole.hh"
#include "plant/quad_plant.hh"
#include "plant/registry.hh"
#include "plant/rocket.hh"
#include "plant/rover.hh"

namespace rtoc::plant {
namespace {

std::vector<std::unique_ptr<Plant>>
allPlants()
{
    std::vector<std::unique_ptr<Plant>> ps;
    ps.push_back(std::make_unique<QuadrotorPlant>());
    ps.push_back(std::make_unique<RocketPlant>());
    ps.push_back(std::make_unique<RoverPlant>());
    ps.push_back(std::make_unique<CartPolePlant>());
    return ps;
}

std::vector<float>
packed(const Plant &p)
{
    std::vector<float> x(static_cast<size_t>(p.nx()));
    p.packState(x.data());
    return x;
}

/** Drive @p plant for @p total seconds in steps of @p dt with a
 *  constant off-trim command, return the packed end state. The
 *  per-actuator offsets are asymmetric so rotational/nonlinear terms
 *  participate (a symmetric rover command would drive a straight,
 *  nearly-linear trajectory whose RK4 error drowns in float noise). */
std::vector<float>
integrate(Plant &plant, double dt, double total)
{
    plant.reset();
    std::vector<double> cmd = plant.trimCommand();
    std::vector<double> hi = plant.commandMax();
    for (size_t i = 0; i < cmd.size(); ++i) {
        double frac = 0.04 + 0.05 * static_cast<double>(i % 3);
        cmd[i] = cmd[i] + frac * (hi[i] - cmd[i]);
    }
    int steps = static_cast<int>(std::lround(total / dt));
    for (int s = 0; s < steps; ++s)
        plant.step(cmd, dt);
    return packed(plant);
}

double
maxAbsDiff(const std::vector<float> &a, const std::vector<float> &b)
{
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(a[i]) -
                                  static_cast<double>(b[i])));
    return m;
}

// --- RK4 integration consistency ---

TEST(PlantDynamics, HalfStepConsistency)
{
    // Halving dt must shrink the error against a fine-step reference.
    // Lag-free plants (rover, cart-pole) integrate pure RK4, so the
    // error collapses at ~2^4 per halving; plants with exact-
    // exponential actuator-lag filters (quadrotor motors, rocket
    // engine) hold the lagged actuator constant across each RK4 step,
    // which caps the *trajectory* convergence at first order — their
    // ratio bound is the first-order 2x.
    for (auto &p : allPlants()) {
        bool lagged = p->name().rfind("quad", 0) == 0 ||
                      p->name().rfind("rocket", 0) == 0;
        auto fine = integrate(*p, 1.0 / 960.0, 0.5); // reference
        std::unique_ptr<Plant> p1 = p->clone();
        std::unique_ptr<Plant> p2 = p->clone();
        auto coarse = integrate(*p1, 1.0 / 15.0, 0.5);
        auto half = integrate(*p2, 1.0 / 30.0, 0.5);
        double e_coarse = maxAbsDiff(coarse, fine);
        double e_half = maxAbsDiff(half, fine);
        // Non-trivial trajectory...
        EXPECT_GT(e_coarse, 1e-6) << p->name();
        // ...whose integration error collapses with the step size.
        EXPECT_GT(e_coarse / e_half, lagged ? 1.8 : 6.0)
            << p->name() << " coarse " << e_coarse << " half "
            << e_half;
    }
}

TEST(PlantDynamics, StepAccumulatesTimeAndEnergy)
{
    for (auto &p : allPlants()) {
        p->reset();
        EXPECT_EQ(p->timeS(), 0.0) << p->name();
        std::vector<double> cmd = p->trimCommand();
        for (int i = 0; i < 24; ++i)
            p->step(cmd, 1.0 / 240.0);
        EXPECT_NEAR(p->timeS(), 0.1, 1e-9) << p->name();
        EXPECT_GT(p->actuationEnergyJ(), 0.0) << p->name();
        // reset() zeroes the accounting again.
        p->reset();
        EXPECT_EQ(p->timeS(), 0.0) << p->name();
        EXPECT_EQ(p->actuationEnergyJ(), 0.0) << p->name();
    }
}

// --- linearization: analytic vs central finite differences ---

TEST(PlantLinearize, AnalyticMatchesFiniteDifference)
{
    for (auto &p : allPlants()) {
        LinearModel an = p->linearize(0.02);
        LinearModel fd = fdLinearize(*p, 0.02);
        ASSERT_EQ(an.ac.rows(), p->nx()) << p->name();
        ASSERT_EQ(an.bc.cols(), p->nu()) << p->name();
        for (int i = 0; i < p->nx(); ++i) {
            for (int j = 0; j < p->nx(); ++j) {
                EXPECT_NEAR(an.ac(i, j), fd.ac(i, j), 2e-4)
                    << p->name() << " ac(" << i << "," << j << ")";
            }
            for (int j = 0; j < p->nu(); ++j) {
                EXPECT_NEAR(an.bc(i, j), fd.bc(i, j), 2e-4)
                    << p->name() << " bc(" << i << "," << j << ")";
            }
        }
    }
}

TEST(PlantLinearize, TrimIsAnEquilibrium)
{
    // modelDeriv at (trimState, 0) must vanish: the linearization
    // expands around a true equilibrium of the MPC model.
    for (auto &p : allPlants()) {
        std::vector<double> x = p->trimState();
        std::vector<double> u(static_cast<size_t>(p->nu()), 0.0);
        std::vector<double> dx(static_cast<size_t>(p->nx()), 1.0);
        p->modelDeriv(x.data(), u.data(), dx.data());
        for (int i = 0; i < p->nx(); ++i) {
            // The rover trims at cruise speed: position coordinates
            // advance, which is fine — only velocity-like states must
            // be stationary. x/y/theta rows are 0/1 for the rover.
            if (p->name().rfind("rover", 0) == 0 && i < 2)
                continue;
            EXPECT_NEAR(dx[i], 0.0, 1e-9)
                << p->name() << " state " << i;
        }
    }
}

TEST(PlantLinearize, WorkspaceShapeFollowsPlant)
{
    for (auto &p : allPlants()) {
        tinympc::Workspace ws = p->buildWorkspace(0.02, 10);
        EXPECT_EQ(ws.nx, p->nx()) << p->name();
        EXPECT_EQ(ws.nu, p->nu()) << p->name();
        EXPECT_EQ(ws.N, 10) << p->name();
    }
}

TEST(PlantLinearize, QuadInputBoxRoundsTheMotorEnvelopeFirst)
{
    // The quadrotor's box is float(tmax) - float(hover), not the
    // generic float(tmax - hover): one ulp apart for the crazyflie.
    for (const auto &params :
         {quad::DroneParams::crazyflie(), quad::DroneParams::hawk(),
          quad::DroneParams::heron()}) {
        QuadrotorPlant quad(params);
        tinympc::Workspace ws = quad.buildWorkspace(0.02, 10);
        const float hover =
            static_cast<float>(params.hoverThrustPerMotorN());
        const float tmax = static_cast<float>(params.maxThrustPerMotorN());
        for (int i = 0; i < ws.N - 1; ++i) {
            for (int j = 0; j < 4; ++j) {
                EXPECT_EQ(ws.uMin.view().at(i, j), -hover) << params.name;
                EXPECT_EQ(ws.uMax.view().at(i, j), tmax - hover)
                    << params.name;
            }
        }
    }
}

// --- crash / limit predicates ---

TEST(PlantPredicates, RocketFreeFallCrashes)
{
    RocketPlant r;
    r.reset();
    EXPECT_FALSE(r.crashed());
    std::vector<double> off = {0, 0, 0}; // engine cut
    for (int i = 0; i < 240 * 20 && !r.crashed(); ++i)
        r.step(off, 1.0 / 240.0);
    EXPECT_TRUE(r.crashed());
    EXPECT_LT(r.position()[2], 0.5); // fell, not flew away
}

TEST(PlantPredicates, RocketActuatorLimitsClamp)
{
    RocketPlant r;
    r.reset();
    // Commands far outside the envelope: the engine must saturate at
    // maxThrust, so upward acceleration stays bounded.
    std::vector<double> huge = {1e6, 1e6, 1e6};
    for (int i = 0; i < 240; ++i)
        r.step(huge, 1.0 / 240.0);
    double tw = r.params().thrustToWeight();
    double vmax_bound =
        (tw - 1.0) * 9.81 * 1.0 + 1.0; // 1s of max net accel + slack
    EXPECT_LT(r.velocity()[2], vmax_bound);
}

TEST(PlantPredicates, RoverHittingPillarCrashes)
{
    RoverPlant r;
    r.reset();
    EXPECT_FALSE(r.crashed());
    ASSERT_FALSE(r.obstacles().empty());
    Obstacle ob = r.obstacles().front();
    r.setPose(ob.x, ob.y, 0.0);
    EXPECT_TRUE(r.crashed());
    r.setPose(ob.x, ob.y + ob.radius + 0.05, 0.0);
    EXPECT_FALSE(r.crashed());
    r.setPose(0.0, 7.0, 0.0); // off the arena
    EXPECT_TRUE(r.crashed());
}

TEST(PlantPredicates, CartPoleFallsWithoutControl)
{
    CartPolePlant c;
    c.reset();
    EXPECT_FALSE(c.crashed());
    c.setState(0.0, 0.0, 0.15, 0.0); // tilted, no force
    std::vector<double> zero = {0.0};
    for (int i = 0; i < 240 * 5 && !c.crashed(); ++i)
        c.step(zero, 1.0 / 240.0);
    EXPECT_TRUE(c.crashed()); // pole dropped past the tilt limit
}

TEST(PlantPredicates, CommandFromDeltaClampsToEnvelope)
{
    for (auto &p : allPlants()) {
        std::vector<float> big(static_cast<size_t>(p->nu()), 1e9f);
        std::vector<float> neg(static_cast<size_t>(p->nu()), -1e9f);
        std::vector<double> hi = p->commandFromDelta(big.data());
        std::vector<double> lo = p->commandFromDelta(neg.data());
        std::vector<double> cmin = p->commandMin();
        std::vector<double> cmax = p->commandMax();
        for (int i = 0; i < p->nu(); ++i) {
            EXPECT_DOUBLE_EQ(hi[i], cmax[i]) << p->name();
            EXPECT_DOUBLE_EQ(lo[i], cmin[i]) << p->name();
        }
    }
}

// --- scenario registry ---

TEST(Registry, EnumeratesBuiltinPlantsAndSpecs)
{
    ScenarioRegistry &reg = ScenarioRegistry::global();
    std::vector<std::string> names = reg.plantNames();
    ASSERT_GE(names.size(), 4u); // quad + >= 3 new plants
    // 3 clean difficulties + 1 gusty spec per plant.
    EXPECT_GE(reg.specs().size(), 4 * names.size());
    for (const std::string &n : names) {
        std::unique_ptr<Plant> p = reg.makePlant(n);
        ASSERT_TRUE(p != nullptr) << n;
        EXPECT_EQ(p->name(), n);
        EXPECT_GT(p->nx(), 0);
        EXPECT_GT(p->nu(), 0);
    }
    EXPECT_TRUE(reg.makePlant("no-such-plant") == nullptr);
}

TEST(Registry, EveryPlantRunsAFixedShape)
{
    // common/plant_shapes.hh lists the registry plants' shapes once, for
    // the host solve and the Riccati recursion; a plant added to the
    // registry belongs on that list.
    for (const std::string &n : ScenarioRegistry::global().plantNames()) {
        std::unique_ptr<Plant> p = ScenarioRegistry::global().makePlant(n);
        const int nx = atPlantShape(p->nx(), p->nu(),
                                    [](auto NX, auto) { return int{NX}; });
        EXPECT_EQ(nx, p->nx()) << n;
    }
}

TEST(Registry, SpecsFindableAndDeterministic)
{
    ScenarioRegistry &reg = ScenarioRegistry::global();
    for (const ScenarioSpec &spec : reg.specs()) {
        auto found = reg.find(spec.id);
        ASSERT_TRUE(found != nullptr) << spec.id;
        EXPECT_EQ(found->plantName, spec.plantName);

        Scenario a = spec.makeScenario(3);
        Scenario b = spec.makeScenario(3);
        ASSERT_EQ(a.waypoints.size(), b.waypoints.size()) << spec.id;
        ASSERT_GT(a.waypoints.size(), 0u) << spec.id;
        for (size_t i = 0; i < a.waypoints.size(); ++i) {
            EXPECT_EQ(a.waypoints[i], b.waypoints[i]) << spec.id;
        }
        EXPECT_EQ(a.disturbance.cmdNoiseSigma,
                  spec.disturbance.cmdNoiseSigma);
        // Distinct indices explore distinct waypoint sets.
        Scenario c = spec.makeScenario(4);
        bool same = a.waypoints.size() == c.waypoints.size();
        if (same) {
            same = false;
            for (size_t i = 0; i < a.waypoints.size(); ++i)
                same = same || a.waypoints[i] != c.waypoints[i];
            EXPECT_TRUE(same) << spec.id << ": index must matter";
        }
    }
    EXPECT_TRUE(reg.find("no/such") == nullptr);
}

} // namespace
} // namespace rtoc::plant

namespace rtoc::hil {
namespace {

using plant::CartPolePlant;
using plant::Difficulty;
using plant::QuadrotorPlant;
using plant::RocketPlant;
using plant::RoverPlant;

/** The three on-chip backend timing models at a given frequency. */
std::vector<ControllerTiming>
allTimings(const plant::Plant &p)
{
    return {scalarControllerTiming(p, 0.02, 10),
            vectorControllerTiming(p, 0.02, 10),
            gemminiControllerTiming(p, 0.02, 10)};
}

TEST(CrossPlantHil, NewPlantsFlyEndToEndOnAllBackends)
{
    std::vector<std::unique_ptr<plant::Plant>> plants;
    plants.push_back(std::make_unique<RocketPlant>());
    plants.push_back(std::make_unique<RoverPlant>());
    plants.push_back(std::make_unique<CartPolePlant>());

    for (auto &p : plants) {
        for (const ControllerTiming &t : allTimings(*p)) {
            HilConfig cfg;
            cfg.timing = t;
            cfg.socFreqHz = 250e6;
            plant::Scenario sc = p->makeScenario(Difficulty::Easy, 0);
            std::unique_ptr<plant::Plant> inst = p->clone();
            EpisodeResult er = runEpisode(*inst, sc, cfg);
            EXPECT_TRUE(er.success)
                << p->name() << " on " << t.mappingName;
            EXPECT_FALSE(er.crashed)
                << p->name() << " on " << t.mappingName;
            EXPECT_GT(er.solveTimesS.size(), 10u);
            EXPECT_GT(er.rotorEnergyJ, 0.0);
        }
    }
}

TEST(CrossPlantHil, TimingOrderingHoldsAcrossShapes)
{
    // vector < gemmini < scalar per-iteration cost on every problem
    // shape (the paper's ordering for the quad, extended).
    for (auto &p : {std::unique_ptr<plant::Plant>(new RocketPlant()),
                    std::unique_ptr<plant::Plant>(new RoverPlant()),
                    std::unique_ptr<plant::Plant>(new CartPolePlant())}) {
        ControllerTiming s = scalarControllerTiming(*p, 0.02, 10);
        ControllerTiming v = vectorControllerTiming(*p, 0.02, 10);
        ControllerTiming g = gemminiControllerTiming(*p, 0.02, 10);
        EXPECT_GT(v.cyclesPerIter, 0.0) << p->name();
        EXPECT_GT(g.cyclesPerIter, v.cyclesPerIter) << p->name();
        EXPECT_GT(s.cyclesPerIter, g.cyclesPerIter) << p->name();
    }
}

TEST(CrossPlantHil, CalibrationKeyedByShapeNotPlant)
{
    // Same shape -> same memoized timing (parameters don't change the
    // stream); different shapes -> different cycle models.
    QuadrotorPlant quad;
    ControllerTiming q1 = scalarControllerTiming(quad, 0.02, 10);
    QuadrotorPlant hawk(quad::DroneParams::hawk());
    ControllerTiming q2 = scalarControllerTiming(hawk, 0.02, 10);
    EXPECT_DOUBLE_EQ(q1.cyclesPerIter, q2.cyclesPerIter);
    EXPECT_DOUBLE_EQ(q1.baseCycles, q2.baseCycles);

    CartPolePlant cp;
    ControllerTiming c = scalarControllerTiming(cp, 0.02, 10);
    EXPECT_NE(c.cyclesPerIter, q1.cyclesPerIter);
    EXPECT_LT(c.cyclesPerIter, q1.cyclesPerIter); // 4x1 << 12x4
}

TEST(CrossPlantHil, ParallelEpisodesMatchSerial)
{
    RoverPlant proto;
    HilConfig cfg;
    cfg.timing = vectorControllerTiming(proto, 0.02, 10);
    cfg.socFreqHz = 100e6;

    SweepRunner sweep;
    auto fanned = sweep.runEpisodes(proto, Difficulty::Easy, 4, cfg);
    ASSERT_EQ(fanned.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        plant::Scenario sc = proto.makeScenario(Difficulty::Easy, i);
        std::unique_ptr<plant::Plant> inst = proto.clone();
        EpisodeResult serial = runEpisode(*inst, sc, cfg);
        EXPECT_EQ(serial.success, fanned[i].success) << i;
        EXPECT_DOUBLE_EQ(serial.missionTimeS, fanned[i].missionTimeS)
            << i;
        EXPECT_DOUBLE_EQ(serial.rotorEnergyJ, fanned[i].rotorEnergyJ)
            << i;
        EXPECT_EQ(serial.iterations.size(), fanned[i].iterations.size())
            << i;
    }
}

TEST(CrossPlantHil, DisturbanceProfilePerturbsDeterministically)
{
    RocketPlant proto;
    HilConfig cfg;
    cfg.idealPolicy = true;
    cfg.timing = vectorControllerTiming(proto, 0.02, 10);

    plant::Scenario clean = proto.makeScenario(Difficulty::Easy, 0);
    plant::Scenario gusty = clean;
    gusty.disturbance = plant::DisturbanceProfile::gusty();

    std::unique_ptr<plant::Plant> a = proto.clone();
    std::unique_ptr<plant::Plant> b = proto.clone();
    std::unique_ptr<plant::Plant> c = proto.clone();
    EpisodeResult r_clean = runEpisode(*a, clean, cfg);
    EpisodeResult r_gusty1 = runEpisode(*b, gusty, cfg);
    EpisodeResult r_gusty2 = runEpisode(*c, gusty, cfg);
    // Noise changes the trajectory (energy differs)...
    EXPECT_NE(r_clean.rotorEnergyJ, r_gusty1.rotorEnergyJ);
    // ...but is seeded by the scenario: bit-reproducible.
    EXPECT_DOUBLE_EQ(r_gusty1.rotorEnergyJ, r_gusty2.rotorEnergyJ);
    EXPECT_DOUBLE_EQ(r_gusty1.missionTimeS, r_gusty2.missionTimeS);
}

TEST(CrossPlantHil, RunCellRepeatsAndMatchesItsEpisodes)
{
    CartPolePlant proto;
    HilConfig cfg;
    cfg.timing = vectorControllerTiming(proto, 0.02, 10);
    cfg.socFreqHz = 100e6;

    SweepCell a = runCell(proto, Difficulty::Easy, 3, cfg);
    SweepCell b = runCell(proto, Difficulty::Easy, 3, cfg);
    EXPECT_EQ(a.episodes, b.episodes);
    EXPECT_DOUBLE_EQ(a.successRate, b.successRate);
    EXPECT_DOUBLE_EQ(a.solveTimeMs.median, b.solveTimeMs.median);
    EXPECT_DOUBLE_EQ(a.avgIterations, b.avgIterations);
    EXPECT_DOUBLE_EQ(a.avgRotorPowerW, b.avgRotorPowerW);

    // Another frequency prices the same solves differently.
    cfg.socFreqHz = 250e6;
    SweepCell c = runCell(proto, Difficulty::Easy, 3, cfg);
    EXPECT_NE(c.solveTimeMs.median, a.solveTimeMs.median);

    // Plant parameters outside the emitted stream but inside the
    // closed loop (the crash threshold, idle power): each changed
    // plant's cell must equal the aggregate of its own episodes.
    auto expect_own_cell = [&](const plant::Plant &p, const HilConfig &c,
                               const char *what) {
        SweepCell cell = runCell(p, Difficulty::Easy, 3, c);
        int successes = 0;
        double rotor_sum = 0.0;
        for (const EpisodeResult &er :
             SweepRunner().runEpisodes(p, Difficulty::Easy, 3, c)) {
            if (er.success) {
                ++successes;
                rotor_sum += er.avgRotorPowerW;
            }
        }
        EXPECT_EQ(cell.successRate, successes / 3.0) << what;
        EXPECT_EQ(cell.avgRotorPowerW,
                  successes ? rotor_sum / successes : 0.0)
            << what;
    };
    plant::CartPoleParams tilt;
    tilt.maxTiltRad = 0.02;
    expect_own_cell(CartPolePlant(tilt), cfg, "cart-pole maxTiltRad");
    plant::CartPoleParams cart_idle;
    cart_idle.idleW = 5.0;
    expect_own_cell(CartPolePlant(cart_idle), cfg, "cart-pole idleW");

    RoverPlant rover;
    HilConfig rover_cfg = cfg;
    rover_cfg.timing = vectorControllerTiming(rover, 0.02, 10);
    plant::RoverParams rover_idle;
    rover_idle.idleW = 30.0;
    expect_own_cell(RoverPlant(rover_idle), rover_cfg, "rover idleW");
}

} // namespace
} // namespace rtoc::hil
