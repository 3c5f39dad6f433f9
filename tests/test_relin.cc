/**
 * @file
 * ControlSession / incremental-relinearization tests: K=0 episodes
 * pinned bit-exact to the pre-refactor runner on every plant,
 * linearizeAt FD-vs-analytic agreement at off-trim states (and model
 * exactness at the expansion point), refreshModel preserving the
 * ADMM warm start (iterations drop vs a cold re-allocate), cells and
 * calibration keys distinguishing relinearization policies, parallel
 * == serial under a 4-thread pool, the plant-generic wrench hook, and
 * the rocket mass-depletion / tilt-limit fidelity fix.
 */

#include <cmath>
#include <gtest/gtest.h>

#include "cpu/inorder.hh"
#include "hil/control_session.hh"
#include "hil/disturbance.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "matlib/scalar_backend.hh"
#include "plant/cartpole.hh"
#include "plant/quad_plant.hh"
#include "plant/rocket.hh"
#include "plant/rover.hh"

namespace rtoc {
namespace {

std::vector<std::unique_ptr<plant::Plant>>
allPlants()
{
    std::vector<std::unique_ptr<plant::Plant>> ps;
    ps.push_back(std::make_unique<plant::QuadrotorPlant>());
    ps.push_back(std::make_unique<plant::RocketPlant>());
    ps.push_back(std::make_unique<plant::RoverPlant>());
    ps.push_back(std::make_unique<plant::CartPolePlant>());
    return ps;
}

/** Deterministic synthetic cycle model (no calibration dependency). */
hil::ControllerTiming
pinTiming()
{
    hil::ControllerTiming t;
    t.archName = "pin";
    t.mappingName = "pin";
    t.baseCycles = 200000.0;
    t.cyclesPerIter = 30000.0;
    return t;
}

hil::ControllerTiming
pinTimingWithRefresh()
{
    hil::ControllerTiming t = pinTiming();
    t.refreshBaseCycles = 50000.0;
    t.refreshCyclesPerIter = 4000.0;
    return t;
}

/** A representative off-trim (state, input) point for @p plant. */
void
offTrimPoint(const plant::Plant &plant, std::vector<double> &x,
             std::vector<double> &du)
{
    x = plant.trimState();
    du.assign(static_cast<size_t>(plant.nu()), 0.0);
    std::vector<double> hi = plant.commandMax();
    std::vector<double> trim = plant.trimCommand();
    for (int j = 0; j < plant.nx(); ++j)
        x[static_cast<size_t>(j)] += 0.21 + 0.07 * j;
    for (int j = 0; j < plant.nu(); ++j) {
        du[static_cast<size_t>(j)] =
            0.15 * (hi[static_cast<size_t>(j)] -
                    trim[static_cast<size_t>(j)]);
    }
}

// --- K=0 bit-exactness against the pre-refactor episode runner ---

struct GoldenEpisode
{
    const char *plant;
    int success;
    int waypointsReached;
    double missionTimeS;
    double rotorEnergyJ;
    double meanIterations;
};

// Captured from the pre-refactor episode runner (medium scenario 0,
// synthetic pin timing, default HilConfig) — the refactored K=0 path
// must reproduce every double bit-for-bit.
const GoldenEpisode kGolden[] = {
    {"quad-crazyflie", 0, 0, 0x1.1333333333389p+2, 0x1.b78f7a6c6e06ap+2,
     0x1.8d8699127966fp+4},
    {"rocket-lander", 1, 6, 0x1.e7fffffffff81p+2, 0x1.29406812877fdp+12,
     0x1.9p+4},
    {"rover-rover", 1, 7, 0x1.38eeeeeeeee6bp+3, 0x1.166b0b6d54d3fp+7,
     0x1.888ff6b646d22p+4},
    {"cartpole-cartpole", 1, 0, 0x1.fcccccccccc39p+2,
     0x1.12f953ad18513p+3, 0x1.517c80b30f635p+4},
};

TEST(RelinK0, BitExactGoldenEpisodesAllPlants)
{
    auto plants = allPlants();
    ASSERT_EQ(plants.size(), std::size(kGolden));
    for (size_t i = 0; i < plants.size(); ++i) {
        plant::Plant &p = *plants[i];
        ASSERT_EQ(p.name(), kGolden[i].plant);
        hil::HilConfig cfg;
        cfg.timing = pinTiming();
        ASSERT_TRUE(cfg.relin.fixedTrim());
        plant::Scenario sc = p.makeScenario(plant::Difficulty::Medium, 0);
        hil::EpisodeResult r = hil::runEpisode(p, sc, cfg);
        EXPECT_EQ(r.success, kGolden[i].success == 1) << p.name();
        EXPECT_EQ(r.waypointsReached, kGolden[i].waypointsReached)
            << p.name();
        EXPECT_EQ(r.missionTimeS, kGolden[i].missionTimeS) << p.name();
        EXPECT_EQ(r.rotorEnergyJ, kGolden[i].rotorEnergyJ) << p.name();
        EXPECT_EQ(r.iterations.summarize().mean,
                  kGolden[i].meanIterations)
            << p.name();
        // The fixed-trim path never refreshes.
        EXPECT_EQ(r.modelRefreshes, 0) << p.name();
        EXPECT_EQ(r.refreshTimeS, 0.0) << p.name();
    }
}

// --- linearizeAt: FD agreement and expansion-point exactness ---

TEST(LinearizeAt, ModelExactAtExpansionPoint)
{
    // Ac x + Bc du + cc must reproduce modelDeriv(x, du) at the
    // expansion point for every plant — including the rover, whose
    // coupling-speed floor is absorbed by the affine residual.
    for (auto &p : allPlants()) {
        std::vector<double> x, du;
        offTrimPoint(*p, x, du);
        plant::LinearModel m = p->linearizeAt(x.data(), du.data(), 0.02);
        std::vector<double> f0(static_cast<size_t>(p->nx()));
        p->modelDeriv(x.data(), du.data(), f0.data());
        for (int i = 0; i < p->nx(); ++i) {
            double fhat = m.cc.empty() ? 0.0 : m.cc[i];
            for (int j = 0; j < p->nx(); ++j)
                fhat += m.ac(i, j) * x[static_cast<size_t>(j)];
            for (int j = 0; j < p->nu(); ++j)
                fhat += m.bc(i, j) * du[static_cast<size_t>(j)];
            EXPECT_NEAR(fhat, f0[static_cast<size_t>(i)], 1e-7)
                << p->name() << " row " << i;
        }
    }
}

TEST(LinearizeAt, AnalyticMatchesFiniteDifferenceOffTrim)
{
    // The rocket's analytic off-trim Jacobian vs central FD; the
    // rover's coupling-speed floor only fires below half cruise, so
    // probe it at a faster-than-floor state where the Jacobians must
    // agree exactly.
    plant::RocketPlant rocket;
    plant::RoverPlant rover;
    struct Case
    {
        const plant::Plant *plant;
        std::vector<double> x, du;
    };
    std::vector<Case> cases;
    cases.push_back({&rocket,
                     {1.5, -0.8, 9.0, 2.0, -1.5, -3.0},
                     {0.5, -0.3, 2.0}});
    cases.push_back({&rover, {3.0, 0.4, 0.45, 1.4, 0.3}, {1.5, -1.0}});
    for (const Case &c : cases) {
        plant::LinearModel an =
            c.plant->linearizeAt(c.x.data(), c.du.data(), 0.02);
        plant::LinearModel fd =
            plant::fdLinearizeAt(*c.plant, c.x.data(), c.du.data(),
                                 0.02);
        ASSERT_FALSE(an.cd.empty());
        ASSERT_FALSE(fd.cd.empty());
        for (int i = 0; i < c.plant->nx(); ++i) {
            for (int j = 0; j < c.plant->nx(); ++j) {
                EXPECT_NEAR(an.ad(i, j), fd.ad(i, j), 1e-5)
                    << c.plant->name();
            }
            for (int j = 0; j < c.plant->nu(); ++j) {
                EXPECT_NEAR(an.bd(i, j), fd.bd(i, j), 1e-5)
                    << c.plant->name();
            }
            EXPECT_NEAR(an.cd[i], fd.cd[i], 1e-5) << c.plant->name();
        }
    }
}

TEST(LinearizeAt, QuadRelinearizationIsExactNoOp)
{
    // The quad's small-angle model is linear: linearizeAt returns the
    // trim model with no affine residual, at any state.
    plant::QuadrotorPlant quad;
    std::vector<double> x(12, 0.0), du(4, 0.0);
    x[3] = 0.2;
    x[7] = -1.1;
    du[0] = 0.05;
    plant::LinearModel at = quad.linearizeAt(x.data(), du.data(), 0.02);
    plant::LinearModel trim = quad.linearize(0.02);
    EXPECT_TRUE(at.cc.empty());
    for (int i = 0; i < 12; ++i)
        for (int j = 0; j < 12; ++j)
            EXPECT_EQ(at.ad(i, j), trim.ad(i, j));
}

// --- refreshModel: warm start preserved ---

TEST(RefreshModel, PreservesAdmmStateAndBeatsColdRestart)
{
    plant::RoverPlant rover;
    const double dt = 0.02;
    const int horizon = 10;

    std::vector<double> x = {0.5, 0.3, 0.25, 1.1, 0.1};
    std::vector<float> xf(x.begin(), x.end());

    // Warm path: solve, refresh the model in place, solve again.
    // Lift the embedded iteration cap so convergence counts are
    // meaningful (the 25-iteration default saturates both paths).
    tinympc::Workspace ws = rover.buildWorkspace(dt, horizon);
    ws.settings.maxIters = 500;
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    tinympc::Solver solver(ws, backend, tinympc::MappingStyle::Library);
    ws.setInitialState(xf.data());
    ws.setReferenceAll(rover.reference({2.0, 0.5, 0.0}));
    tinympc::SolveResult first = solver.solve();
    ASSERT_GT(first.iterations, 0);

    std::vector<double> du(2, 0.0);
    plant::LinearModel m = rover.linearizeAt(x.data(), du.data(), dt);
    plant::Weights w = rover.mpcWeights();
    numerics::LqrCache cache = numerics::solveDare(
        m.ad, m.bd, numerics::DMatrix::diag(w.qDiag),
        numerics::DMatrix::diag(w.rDiag), w.rho);

    // Snapshot ADMM state; refreshModel must not touch it.
    std::vector<float> y_before(ws.y.data(),
                                ws.y.data() + (horizon - 1) * 2);
    std::vector<float> u_before(ws.u.data(),
                                ws.u.data() + (horizon - 1) * 2);
    ws.refreshModel(m.ad, m.bd, cache, m.cd);
    EXPECT_TRUE(ws.hasAffine);
    for (size_t i = 0; i < y_before.size(); ++i) {
        EXPECT_EQ(ws.y.data()[i], y_before[i]);
        EXPECT_EQ(ws.u.data()[i], u_before[i]);
    }

    ws.setInitialState(xf.data());
    tinympc::SolveResult warm = solver.solve();

    // Cold path: fresh workspace loaded with the same refreshed
    // model, ADMM state zeroed.
    tinympc::Workspace cold_ws = rover.buildWorkspace(dt, horizon);
    cold_ws.settings.maxIters = 500;
    cold_ws.refreshModel(m.ad, m.bd, cache, m.cd);
    cold_ws.coldStart();
    matlib::ScalarBackend cold_backend(matlib::ScalarFlavor::Optimized);
    tinympc::Solver cold_solver(cold_ws, cold_backend,
                                tinympc::MappingStyle::Library);
    cold_ws.setInitialState(xf.data());
    cold_ws.setReferenceAll(rover.reference({2.0, 0.5, 0.0}));
    tinympc::SolveResult cold = cold_solver.solve();

    EXPECT_LT(warm.iterations, cold.iterations)
        << "warm-started solve after refreshModel should converge "
           "faster than a cold re-allocate";
}

TEST(RefreshModel, TrimRefreshHasNoAffine)
{
    plant::RoverPlant rover;
    tinympc::Workspace ws = rover.buildWorkspace(0.02, 10);
    EXPECT_FALSE(ws.hasAffine);
    plant::LinearModel m = rover.linearize(0.02);
    plant::Weights w = rover.mpcWeights();
    numerics::LqrCache cache = numerics::solveDare(
        m.ad, m.bd, numerics::DMatrix::diag(w.qDiag),
        numerics::DMatrix::diag(w.rDiag), w.rho);
    ws.refreshModel(m.ad, m.bd, cache);
    EXPECT_FALSE(ws.hasAffine);
}

// --- warm-started DARE ---

TEST(DareWarmStart, ConvergesFasterFromNearbyPinf)
{
    plant::RoverPlant rover;
    plant::Weights w = rover.mpcWeights();
    numerics::DMatrix q = numerics::DMatrix::diag(w.qDiag);
    numerics::DMatrix r = numerics::DMatrix::diag(w.rDiag);
    plant::LinearModel trim = rover.linearize(0.02);
    numerics::LqrCache base =
        numerics::solveDare(trim.ad, trim.bd, q, r, w.rho);

    std::vector<double> x = {0.0, 0.0, 0.3, 1.2, 0.2};
    std::vector<double> du(2, 0.0);
    plant::LinearModel m = rover.linearizeAt(x.data(), du.data(), 0.02);
    auto cold = numerics::trySolveDare(m.ad, m.bd, q, r, w.rho,
                                       nullptr, 1e-6, 500);
    auto warm = numerics::trySolveDare(m.ad, m.bd, q, r, w.rho,
                                       &base.pinf, 1e-6, 500);
    ASSERT_TRUE(cold.has_value());
    ASSERT_TRUE(warm.has_value());
    EXPECT_LT(warm->iterations, cold->iterations);
}

// --- sessions and policies ---

TEST(ControlSession, PolicyTriggersRefreshesAndCosts)
{
    plant::RoverPlant rover;
    hil::HilConfig cfg;
    cfg.timing = pinTimingWithRefresh();
    cfg.relin.everyK = 5;
    plant::Scenario sc =
        rover.makeScenario(plant::Difficulty::Medium, 0);
    hil::EpisodeResult r = hil::runEpisode(rover, sc, cfg);
    EXPECT_GT(r.modelRefreshes, 0);
    EXPECT_GT(r.refreshTimeS, 0.0);

    // Threshold-only policy also refreshes once the state drifts.
    plant::RoverPlant rover2;
    hil::HilConfig cfg2;
    cfg2.timing = pinTimingWithRefresh();
    cfg2.relin.stateDeltaThreshold = 0.25;
    EXPECT_FALSE(cfg2.relin.fixedTrim());
    hil::EpisodeResult r2 = hil::runEpisode(rover2, sc, cfg2);
    EXPECT_GT(r2.modelRefreshes, 0);
}

TEST(ControlSession, CellsDistinguishPolicies)
{
    plant::CartPolePlant proto;
    hil::HilConfig k0;
    k0.timing = pinTiming();
    hil::HilConfig k5 = k0;
    k5.timing = pinTimingWithRefresh();
    k5.relin.everyK = 5;

    // A K=5 cell refreshes its model; the fixed-trim cell never does.
    hil::SweepCell a = hil::runCell(proto, plant::Difficulty::Easy, 1, k0);
    hil::SweepCell b = hil::runCell(proto, plant::Difficulty::Easy, 1, k5);
    EXPECT_GT(b.avgRefreshes, 0.0);
    EXPECT_EQ(a.avgRefreshes, 0.0);
}

TEST(ControlSession, CalibrationDistinguishesRefreshAwareness)
{
    // Refresh-aware calibration fits a nonzero refresh cycle model;
    // the historical fit leaves it zero — and the two never share a
    // payload (distinct disk keys, distinct memo entries).
    cpu::InOrderCore core(cpu::InOrderConfig::shuttle());
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    plant::CartPolePlant plant;
    hil::ControllerTiming plain = hil::calibrateTiming(
        core, backend, tinympc::MappingStyle::Library, plant, 0.02, 10,
        nullptr, false);
    hil::ControllerTiming aware = hil::calibrateTiming(
        core, backend, tinympc::MappingStyle::Library, plant, 0.02, 10,
        nullptr, true);
    EXPECT_EQ(plain.refreshCyclesPerIter, 0.0);
    EXPECT_GT(aware.refreshCyclesPerIter, 0.0);
    EXPECT_GT(aware.refreshCycles(8), aware.refreshCycles(2));
    // Solve fit identical across the two.
    EXPECT_EQ(plain.baseCycles, aware.baseCycles);
    EXPECT_EQ(plain.cyclesPerIter, aware.cyclesPerIter);

    // Payload round trip carries the refresh fields bit-exactly.
    auto decoded = hil::decodeTiming(hil::encodeTiming(aware));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->refreshBaseCycles, aware.refreshBaseCycles);
    EXPECT_EQ(decoded->refreshCyclesPerIter, aware.refreshCyclesPerIter);
}

TEST(ControlSession, ParallelEqualsSerialWithRelin)
{
    plant::RoverPlant proto;
    hil::HilConfig cfg;
    cfg.timing = pinTimingWithRefresh();
    cfg.relin.everyK = 5;

    ThreadPool serial_pool(1);
    ThreadPool quad_pool(4);
    hil::SweepRunner serial(serial_pool);
    hil::SweepRunner parallel(quad_pool);
    auto a = serial.runEpisodes(proto, plant::Difficulty::Medium, 4, cfg);
    auto b = parallel.runEpisodes(proto, plant::Difficulty::Medium, 4,
                                  cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].missionTimeS, b[i].missionTimeS);
        EXPECT_EQ(a[i].rotorEnergyJ, b[i].rotorEnergyJ);
        EXPECT_EQ(a[i].trackingErrM, b[i].trackingErrM);
        EXPECT_EQ(a[i].modelRefreshes, b[i].modelRefreshes);
        EXPECT_EQ(a[i].refreshTimeS, b[i].refreshTimeS);
        EXPECT_EQ(a[i].success, b[i].success);
    }
}

// --- wrench hook ---

TEST(Wrench, AllPlantsSupportAndZeroWrenchIsExactNoOp)
{
    for (auto &p : allPlants()) {
        EXPECT_TRUE(p->supportsWrench()) << p->name();
        std::unique_ptr<plant::Plant> a = p->clone();
        std::unique_ptr<plant::Plant> b = p->clone();
        a->reset();
        b->reset();
        b->applyWrench(plant::Wrench()); // explicit zero
        std::vector<double> cmd = a->trimCommand();
        for (int s = 0; s < 48; ++s) {
            a->step(cmd, 1.0 / 240.0);
            b->step(cmd, 1.0 / 240.0);
        }
        std::vector<float> xa(static_cast<size_t>(a->nx()));
        std::vector<float> xb(static_cast<size_t>(b->nx()));
        a->packState(xa.data());
        b->packState(xb.data());
        EXPECT_EQ(xa, xb) << p->name();
    }
}

TEST(Wrench, NonzeroWrenchPerturbsEveryPlant)
{
    for (auto &p : allPlants()) {
        std::unique_ptr<plant::Plant> a = p->clone();
        std::unique_ptr<plant::Plant> b = p->clone();
        a->reset();
        b->reset();
        plant::Wrench w;
        w.forceN = {0.8, 0.5, 0.3};
        w.torqueNm = {0.0, 0.002, 0.002};
        b->applyWrench(w);
        std::vector<double> cmd = a->trimCommand();
        for (int s = 0; s < 48; ++s) {
            a->step(cmd, 1.0 / 240.0);
            b->step(cmd, 1.0 / 240.0);
        }
        std::vector<float> xa(static_cast<size_t>(a->nx()));
        std::vector<float> xb(static_cast<size_t>(b->nx()));
        a->packState(xa.data());
        b->packState(xb.data());
        EXPECT_NE(xa, xb) << p->name();
        // reset() clears the held wrench.
        b->reset();
        std::vector<float> x0b(static_cast<size_t>(b->nx()));
        b->step(cmd, 1.0 / 240.0);
        b->packState(x0b.data());
        a->reset();
        a->step(cmd, 1.0 / 240.0);
        std::vector<float> x0a(static_cast<size_t>(a->nx()));
        a->packState(x0a.data());
        EXPECT_EQ(x0a, x0b) << p->name();
    }
}

TEST(Wrench, GenericDisturbTrialRunsOnGroundPlants)
{
    plant::CartPolePlant cartpole;
    hil::HilConfig cfg;
    cfg.timing = pinTiming();
    hil::DisturbSpec spec;
    spec.kind = hil::DisturbKind::StepForce;
    spec.axis = 0;
    spec.magnitude = 1.0;
    hil::DisturbResult r = hil::runDisturbTrial(cartpole, spec, cfg);
    EXPECT_TRUE(r.recovered);
    EXPECT_GT(r.maxDeviationM, 0.0);
}

// --- rocket fidelity fix ---

TEST(RocketFidelity, DefaultLanderDoesNotDeplete)
{
    plant::RocketPlant rocket;
    rocket.reset();
    double m0 = rocket.massKg();
    std::vector<double> cmd = rocket.trimCommand();
    for (int s = 0; s < 240; ++s)
        rocket.step(cmd, 1.0 / 240.0);
    EXPECT_EQ(rocket.massKg(), m0);
    EXPECT_EQ(rocket.trimCommand()[2], m0 * 9.81);
}

TEST(RocketFidelity, FueledLanderDepletesAndTrimTracksMass)
{
    plant::RocketPlant rocket(plant::RocketParams::fueled());
    rocket.reset();
    double m0 = rocket.massKg();
    double trim0 = rocket.trimCommand()[2];
    std::vector<double> cmd = rocket.trimCommand();
    for (int s = 0; s < 480; ++s)
        rocket.step(cmd, 1.0 / 240.0); // 2 s of hover burn
    EXPECT_LT(rocket.massKg(), m0);
    // Burn ~= thrust * t / ve: 2 s at ~14.7 N over 900 m/s.
    double expected_burn = trim0 * 2.0 / 900.0;
    EXPECT_NEAR(m0 - rocket.massKg(), expected_burn,
                0.2 * expected_burn);
    // The trim command follows the lighter vehicle.
    EXPECT_LT(rocket.trimCommand()[2], trim0);
    EXPECT_NEAR(rocket.trimCommand()[2], rocket.massKg() * 9.81, 1e-9);
    // And the model linearization uses the current mass: the input
    // gain 1/m grows as the tank drains.
    plant::LinearModel m = rocket.linearize(0.02);
    EXPECT_GT(m.bc(3, 0), 1.0 / m0);
}

TEST(RocketFidelity, TiltLimitCapsLateralThrust)
{
    plant::RocketParams params = plant::RocketParams::fueled();
    plant::RocketPlant rocket(params);
    rocket.reset();
    // Full lateral command with a weak vertical: the gimbal cap
    // (0.35 x Tz) binds well below the legacy 8 N box.
    std::vector<double> cmd = {8.0, 0.0, 6.0};
    for (int s = 0; s < 480; ++s)
        rocket.step(cmd, 1.0 / 240.0);
    // The lagged thrust converges toward the clamped target.
    double tilt_cap = params.maxTiltRatio * 6.0;
    EXPECT_LT(rocket.trimCommand()[0], 1e9); // sanity
    // MPC input box also honours the gimbal authority.
    EXPECT_NEAR(rocket.commandMax()[0],
                params.maxTiltRatio * rocket.massKg() * 9.81, 1e-9);
    EXPECT_GT(tilt_cap, 0.0);
}

TEST(RocketFidelity, ExhaustedTankStarvesEngine)
{
    plant::RocketParams params = plant::RocketParams::fueled();
    params.propellantKg = 0.01; // nearly dry
    plant::RocketPlant rocket(params);
    rocket.reset();
    std::vector<double> cmd = {0.0, 0.0, params.maxThrustN};
    for (int s = 0; s < 2400; ++s)
        rocket.step(cmd, 1.0 / 240.0);
    EXPECT_EQ(rocket.propellantKg(), 0.0);
    // Engine starved: the vehicle is in free fall and drops fast.
    EXPECT_TRUE(rocket.crashed());
}

} // namespace
} // namespace rtoc
