/**
 * @file
 * HIL harness tests: timing calibration linearity and ordering
 * (vector ≪ scalar), closed-loop episode behaviour across compute
 * design points, and the disturbance-rejection machinery.
 */

#include <gtest/gtest.h>

#include "hil/disturbance.hh"
#include "hil/episode.hh"
#include "hil/timing.hh"
#include "plant/cartpole.hh"
#include "plant/quad_plant.hh"

namespace rtoc::hil {
namespace {

plant::QuadrotorPlant cf(quad::DroneParams::crazyflie());

TEST(Timing, VectorMuchFasterThanScalar)
{
    ControllerTiming v = vectorControllerTiming(cf, 0.02, 10);
    ControllerTiming s = scalarControllerTiming(cf, 0.02, 10);
    EXPECT_GT(s.cyclesPerIter, v.cyclesPerIter * 4.0);
    EXPECT_GT(v.cyclesPerIter, 500.0); // sanity: nonzero cost
}

TEST(Timing, SolveCyclesLinear)
{
    ControllerTiming t;
    t.baseCycles = 1000;
    t.cyclesPerIter = 500;
    EXPECT_DOUBLE_EQ(t.solveCycles(10), 6000.0);
    EXPECT_DOUBLE_EQ(t.solveCycles(0), 1000.0);
}

TEST(Timing, CalibrationReproducible)
{
    ControllerTiming a = vectorControllerTiming(cf, 0.02, 10);
    ControllerTiming b = vectorControllerTiming(cf, 0.02, 10);
    EXPECT_DOUBLE_EQ(a.cyclesPerIter, b.cyclesPerIter);
    EXPECT_DOUBLE_EQ(a.baseCycles, b.baseCycles);
}

class EpisodeTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        timing_v_ = new ControllerTiming(
            vectorControllerTiming(cf, 0.02, 10));
        timing_s_ = new ControllerTiming(
            scalarControllerTiming(cf, 0.02, 10));
    }

    static ControllerTiming *timing_v_;
    static ControllerTiming *timing_s_;
};

ControllerTiming *EpisodeTest::timing_v_ = nullptr;
ControllerTiming *EpisodeTest::timing_s_ = nullptr;

TEST_F(EpisodeTest, VectorAt100MhzCompletesEasy)
{
    HilConfig cfg;
    cfg.timing = *timing_v_;
    cfg.socFreqHz = 100e6;
    cfg.power = soc::PowerParams::vectorCore();
    plant::Scenario sc = cf.makeScenario(plant::Difficulty::Easy, 0);
    EpisodeResult er = runEpisode(cf, sc, cfg);
    EXPECT_TRUE(er.success);
    EXPECT_FALSE(er.crashed);
    EXPECT_GT(er.solveTimesS.size(), 10u);
    // Sub-millisecond solves at 100 MHz.
    EXPECT_LT(er.solveTimesS.summarize().median, 2.5e-3);
}

TEST_F(EpisodeTest, IdealPolicyCompletesEasyAndMedium)
{
    HilConfig cfg;
    cfg.idealPolicy = true;
    cfg.timing = *timing_v_;
    for (auto d : {plant::Difficulty::Easy, plant::Difficulty::Medium}) {
        plant::Scenario sc = cf.makeScenario(d, 1);
        EpisodeResult er = runEpisode(cf, sc, cfg);
        EXPECT_TRUE(er.success) << cf.difficultySpec(d).name;
    }
}

TEST_F(EpisodeTest, ScalarDegradesAtLowFrequency)
{
    plant::Scenario sc = cf.makeScenario(plant::Difficulty::Medium, 2);
    HilConfig lo, hi;
    lo.timing = *timing_s_;
    lo.socFreqHz = 50e6;
    hi.timing = *timing_s_;
    hi.socFreqHz = 500e6;
    EpisodeResult rl = runEpisode(cf, sc, lo);
    EpisodeResult rh = runEpisode(cf, sc, hi);
    EXPECT_TRUE(rh.success);
    // Low-frequency scalar must be visibly worse: either failure or
    // clearly higher actuation power.
    if (rl.success) {
        EXPECT_GT(rl.avgRotorPowerW, rh.avgRotorPowerW * 1.02);
    }
}

TEST_F(EpisodeTest, SolveTimeScalesInverselyWithFrequency)
{
    plant::Scenario sc = cf.makeScenario(plant::Difficulty::Easy, 3);
    HilConfig a, b;
    a.timing = *timing_v_;
    a.socFreqHz = 50e6;
    b.timing = *timing_v_;
    b.socFreqHz = 200e6;
    double ma = runEpisode(cf, sc, a).solveTimesS.summarize().median;
    double mb = runEpisode(cf, sc, b).solveTimesS.summarize().median;
    EXPECT_NEAR(ma / mb, 4.0, 1.2);
}

TEST_F(EpisodeTest, ComputeUtilizationSensible)
{
    plant::Scenario sc = cf.makeScenario(plant::Difficulty::Easy, 4);
    HilConfig cfg;
    cfg.timing = *timing_s_;
    cfg.socFreqHz = 100e6;
    EpisodeResult er = runEpisode(cf, sc, cfg);
    EXPECT_GT(er.computeUtilization, 0.05);
    EXPECT_LE(er.computeUtilization, 1.0);
    EXPECT_GT(er.avgSocPowerW, 0.0);
    EXPECT_GT(er.avgRotorPowerW, 0.5);
}

TEST_F(EpisodeTest, RunCellAggregates)
{
    HilConfig cfg;
    cfg.timing = *timing_v_;
    cfg.socFreqHz = 100e6;
    SweepCell cell = runCell(cf, plant::Difficulty::Easy, 4, cfg);
    EXPECT_EQ(cell.episodes, 4);
    EXPECT_GE(cell.successRate, 0.75);
    EXPECT_GT(cell.solveTimeMs.count, 0u);
    EXPECT_GT(cell.avgIterations, 1.0);
}

TEST_F(EpisodeTest, DisturbanceRecoversAtSmallMagnitude)
{
    HilConfig cfg;
    cfg.timing = *timing_v_;
    cfg.socFreqHz = 100e6;
    DisturbSpec spec{DisturbKind::StepForce, 0, 0.01};
    DisturbResult r = runDisturbTrial(cf, spec, cfg);
    EXPECT_TRUE(r.recovered);
    EXPECT_GT(r.ttrS, 0.0);
    EXPECT_LT(r.ttrS, 4.0);
}

TEST_F(EpisodeTest, LargerDisturbanceLargerDeviation)
{
    HilConfig cfg;
    cfg.timing = *timing_v_;
    cfg.socFreqHz = 100e6;
    DisturbSpec small{DisturbKind::StepForce, 0, 0.005};
    DisturbSpec large{DisturbKind::StepForce, 0, 0.02};
    DisturbResult rs = runDisturbTrial(cf, small, cfg);
    DisturbResult rl = runDisturbTrial(cf, large, cfg);
    EXPECT_GT(rl.maxDeviationM, rs.maxDeviationM);
}

TEST_F(EpisodeTest, VectorEnduresLargerDisturbances)
{
    // The Fig. 17 headline: vectorized MPC at 100 MHz endures larger
    // forces than scalar.
    HilConfig v, s;
    v.timing = *timing_v_;
    v.socFreqHz = 100e6;
    s.timing = *timing_s_;
    s.socFreqHz = 100e6;
    double mv =
        maxRecoverableMagnitude(cf, DisturbKind::StepForce, 0, v);
    double ms =
        maxRecoverableMagnitude(cf, DisturbKind::StepForce, 0, s);
    EXPECT_GT(mv, ms * 1.2);
}

TEST(Disturb, TetherShipsTheFormatWidth)
{
    // On a 2400-baud tether without framing the wire width decides a
    // cart-pole trial: its (4 + 3)-element uplink and 1-element
    // downlink take 67 ms at i16's 2 bytes, 133 ms at float32's 4.
    // Priced at the format's width, as runEpisode prices it, the i16
    // controller recovers from a 2 N step on the cart.
    const plant::CartPolePlant cartpole;
    HilConfig cfg;
    cfg.format = matlib::NumericFormat::I16;
    cfg.timing = scalarControllerTiming(cartpole, 0.02, 10, false,
                                        cfg.format);
    cfg.uart = soc::UartModel(2400.0, 0);
    EXPECT_NEAR(cfg.uart.uplinkS(4, 2) + cfg.uart.downlinkS(1, 2),
                0.0667, 1e-4);
    DisturbResult r = runDisturbTrial(
        cartpole, {DisturbKind::StepForce, 0, 2.0}, cfg);
    EXPECT_FALSE(r.crashed);
    EXPECT_TRUE(r.recovered);
    EXPECT_NEAR(r.ttrS, 0.104, 0.005);
}

TEST(Disturb, KindNamesDistinct)
{
    std::set<std::string> names;
    for (auto k : kAllDisturbKinds)
        names.insert(disturbKindName(k));
    EXPECT_EQ(names.size(), 6u);
}

} // namespace
} // namespace rtoc::hil
