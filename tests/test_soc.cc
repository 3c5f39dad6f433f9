/**
 * @file
 * SoC substrate tests: power model monotonicity and magnitudes, area
 * table + Pareto frontier extraction, UART latency arithmetic, and
 * the RTOS scheduler model used by the §5.3 concurrency study.
 */

#include <gtest/gtest.h>

#include "soc/area_model.hh"
#include "soc/power_model.hh"
#include "soc/rtos.hh"
#include "soc/uart.hh"

namespace rtoc::soc {
namespace {

TEST(Power, IncreasesWithFrequency)
{
    PowerModel pm(PowerParams::scalarCore());
    double prev = 0.0;
    for (double f : {50e6, 100e6, 250e6, 500e6}) {
        double p = pm.powerW(f, 0.3);
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(Power, IncreasesWithUtilization)
{
    PowerModel pm(PowerParams::vectorCore());
    EXPECT_GT(pm.powerW(100e6, 0.8), pm.powerW(100e6, 0.1));
    // Clamps out-of-range utilization.
    EXPECT_EQ(pm.powerW(100e6, 1.5), pm.powerW(100e6, 1.0));
    EXPECT_EQ(pm.powerW(100e6, -1.0), pm.powerW(100e6, 0.0));
}

TEST(Power, MagnitudesAreMilliwattScale)
{
    // Compute power must sit in the paper's 1-5% band of a ~1-3 W
    // drone: tens of milliwatts at 100 MHz.
    PowerModel pm(PowerParams::vectorCore());
    double p = pm.powerW(100e6, 0.05);
    EXPECT_GT(p, 0.003);
    EXPECT_LT(p, 0.08);
    double p500 = pm.powerW(500e6, 0.05);
    EXPECT_LT(p500, 0.3);
}

TEST(Power, SuperlinearInFrequencyViaDvfs)
{
    PowerModel pm(PowerParams::scalarCore());
    double p100 = pm.powerW(100e6, 1.0) - pm.params().leakageW;
    double p500 = pm.powerW(500e6, 1.0) - pm.params().leakageW;
    EXPECT_GT(p500 / p100, 5.0); // voltage scaling makes it > linear
}

TEST(Power, EnergyForCyclesIndependentCheck)
{
    PowerModel pm(PowerParams::scalarCore());
    double e = pm.energyForCyclesJ(100e6, 1e6); // 10 ms busy
    EXPECT_GT(e, 0.0);
    EXPECT_LT(e, 0.01);
}

TEST(Area, KnownConfigsPresent)
{
    AreaModel am;
    EXPECT_TRUE(am.has("rocket"));
    EXPECT_TRUE(am.has("saturn-v512d256-shuttle"));
    EXPECT_TRUE(am.has("gemmini-os4x4-spad64k"));
    EXPECT_FALSE(am.has("nonexistent"));
    EXPECT_LT(am.areaMm2("rocket"), 0.5);
}

TEST(Area, OrderingMatchesPaper)
{
    AreaModel am;
    // Rocket < Shuttle < Saturn configs < big BOOMs.
    EXPECT_LT(am.areaMm2("rocket"), am.areaMm2("shuttle"));
    EXPECT_LT(am.areaMm2("shuttle"),
              am.areaMm2("saturn-v256d128-rocket"));
    EXPECT_LT(am.areaMm2("gemmini-os4x4-spad32k"),
              am.areaMm2("gemmini-os4x4-spad64k"));
    EXPECT_GT(am.areaMm2("boom-mega"),
              am.areaMm2("saturn-v512d256-shuttle"));
    // Gemmini windows sits in the paper's 1.5-2.3 mm^2 band.
    EXPECT_GE(am.areaMm2("gemmini-os4x4-spad32k"), 1.5);
    EXPECT_LE(am.areaMm2("gemmini-os4x4-spad64k"), 2.3);
}

TEST(Area, ParetoFrontier)
{
    std::vector<ParetoPoint> pts = {
        {"a", 1.0, 10.0, false},
        {"b", 2.0, 5.0, false},  // dominated by a
        {"c", 2.5, 20.0, false},
        {"d", 3.0, 15.0, false}, // dominated by c
        {"e", 4.0, 30.0, false},
    };
    markParetoFrontier(pts);
    EXPECT_TRUE(pts[0].optimal);
    EXPECT_FALSE(pts[1].optimal);
    EXPECT_TRUE(pts[2].optimal);
    EXPECT_FALSE(pts[3].optimal);
    EXPECT_TRUE(pts[4].optimal);
}

TEST(Uart, LatencyArithmetic)
{
    UartModel u(115200.0, 6);
    // (20+6 bytes) * 10 bits / 115200 baud.
    EXPECT_NEAR(u.transferS(20), 26.0 * 10.0 / 115200.0, 1e-12);
    EXPECT_GT(u.uplinkS(12, 4), u.downlinkS(4, 4)); // state > command
}

TEST(Uart, FasterBaudLowerLatency)
{
    UartModel slow(115200.0);
    UartModel fast(921600.0);
    EXPECT_GT(slow.uplinkS(12, 4), fast.uplinkS(12, 4));
}

TEST(Uart, FramingIsShapeAware)
{
    UartModel u(460800.0, 6);
    // Every registered plant's messages fit a small frame: the
    // overhead is the historical fixed 6 bytes and the latency
    // matches the historical formula bit-for-bit.
    for (int payload : {8, 16, 28, 36, 60, UartModel::kMaxSmallPayload}) {
        EXPECT_EQ(u.framingBytes(payload), 6) << payload;
        EXPECT_EQ(u.transferS(payload),
                  10.0 * (payload + 6) / 460800.0)
            << payload;
    }
    // A wide custom shape (nx=100: (100+3)*4 = 412 B uplink) needs a
    // 2-byte length field and CRC-32: 3 more framing bytes.
    const int wide_uplink = (100 + 3) * 4;
    EXPECT_EQ(u.framingBytes(wide_uplink), 9);
    EXPECT_EQ(u.uplinkS(100, 4), 10.0 * (wide_uplink + 9) / 460800.0);
    // The boundary is exact.
    EXPECT_EQ(u.framingBytes(UartModel::kMaxSmallPayload + 1), 9);
    // The configuration accessor still reports the small-frame value.
    EXPECT_EQ(u.framingBytes(), 6);
}

TEST(Uart, NarrowWireFormatShrinksTetherTime)
{
    UartModel u(460800.0, 6);
    // int16 wire elements halve the payload byte-for-byte.
    EXPECT_EQ(u.uplinkS(12, 2), u.transferS((12 + 3) * 2));
    EXPECT_EQ(u.downlinkS(4, 2), u.transferS(4 * 2));
    EXPECT_LT(u.uplinkS(12, 2), u.uplinkS(12, 4));
    EXPECT_LT(u.downlinkS(4, 2), u.downlinkS(4, 4));
    // Narrow payloads always stay on the small-frame (<=255 B) path —
    // even the wide nx=100 shape that needs a large frame at float32.
    EXPECT_EQ(u.framingBytes((100 + 3) * 2), 6);
    EXPECT_EQ(u.framingBytes((100 + 3) * 4), 9);
}

TEST(Rtos, UtilizationMatchesAnalytic)
{
    // 50 Hz task of 5.7 ms at 100 MHz -> 28.5% utilization (the
    // paper's scalar MPC number).
    PeriodicTask mpc{"mpc", 0.02, 570000.0};
    ScheduleResult r = simulateSchedule(mpc, 12.5e6, 100e6, 10.0);
    EXPECT_NEAR(r.periodicUtilization, 0.285, 0.005);
    EXPECT_EQ(r.periodicDeadlineMisses, 0u);
    EXPECT_GT(r.backgroundCompletions, 0u);
}

TEST(Rtos, BackgroundFpsScalesWithFreeCpu)
{
    PeriodicTask heavy{"mpc", 0.02, 570000.0};  // 28.5%
    PeriodicTask light{"mpc", 0.02, 66000.0};   // 3.3%
    double dronet = 12.5e6;
    ScheduleResult rh = simulateSchedule(heavy, dronet, 100e6, 10.0);
    ScheduleResult rl = simulateSchedule(light, dronet, 100e6, 10.0);
    EXPECT_GT(rl.backgroundFps, rh.backgroundFps);
    // Ratio approx (1-0.033)/(1-0.285) = 1.35 (the paper's speedup).
    EXPECT_NEAR(rl.backgroundFps / rh.backgroundFps, 1.35, 0.06);
}

TEST(Rtos, OverrunDetection)
{
    // 25 ms of work in a 20 ms period: constant deadline misses and
    // zero background progress.
    PeriodicTask mpc{"mpc", 0.02, 2.5e6};
    ScheduleResult r = simulateSchedule(mpc, 1e6, 100e6, 5.0);
    EXPECT_GT(r.periodicDeadlineMisses, 0u);
    EXPECT_EQ(r.backgroundCompletions, 0u);
    EXPECT_NEAR(r.periodicUtilization, 1.0, 1e-6);
}


TEST(Rtos, Sec53RegressionPinned)
{
    // The Â§5.3 table inputs, pinned to the values the completion-
    // based accounting rewrite must preserve exactly: when the task
    // fits its period, the backlog recurrence degenerates to the
    // historical min(exec, slice) arithmetic bit for bit.
    PeriodicTask scalar_mpc{"mpc", 0.02, 570000.0};
    ScheduleResult rs = simulateSchedule(scalar_mpc, 12.5e6, 100e6, 10.0);
    EXPECT_EQ(rs.periodicActivations, 501u);
    EXPECT_EQ(rs.periodicDeadlineMisses, 0u);
    EXPECT_EQ(rs.backgroundCompletions, 57u);
    EXPECT_NEAR(rs.periodicUtilization, 0.285, 1e-12);
    EXPECT_EQ(rs.backgroundFps, 5.7);
    EXPECT_EQ(rs.latenessMaxS, 0.0);
    EXPECT_EQ(rs.latenessAvgS, 0.0);

    PeriodicTask vector_mpc{"mpc", 0.02, 66000.0};
    ScheduleResult rv = simulateSchedule(vector_mpc, 12.5e6, 100e6, 10.0);
    EXPECT_EQ(rv.periodicActivations, 501u);
    EXPECT_EQ(rv.periodicDeadlineMisses, 0u);
    EXPECT_EQ(rv.backgroundCompletions, 77u);
    EXPECT_NEAR(rv.periodicUtilization, 0.033, 1e-12);
    EXPECT_EQ(rv.backgroundFps, 7.7);
}

TEST(Rtos, OverrunBacklogAndLateness)
{
    // 25 ms of work per 20 ms period: completion-based accounting
    // carries the 5 ms/period backlog, so activation k completes
    // (k+1)*5 ms past its deadline â lateness grows linearly instead
    // of the old per-activation exec-vs-period check that saw every
    // miss as identical.
    PeriodicTask mpc{"mpc", 0.02, 2.5e6};
    ScheduleResult r = simulateSchedule(mpc, 1e6, 100e6, 5.0);
    EXPECT_EQ(r.periodicActivations, 251u);
    EXPECT_EQ(r.periodicDeadlineMisses, 251u);
    EXPECT_NEAR(r.latenessMaxS, 251 * 0.005, 1e-9);
    EXPECT_NEAR(r.latenessAvgS, 0.005 * 252.0 / 2.0, 1e-9);
    EXPECT_LT(r.latenessAvgS, r.latenessMaxS);
    EXPECT_NEAR(r.periodicUtilization, 1.0, 1e-6);
}

} // namespace
} // namespace rtoc::soc
