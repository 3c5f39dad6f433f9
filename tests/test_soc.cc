/**
 * @file
 * SoC substrate tests: power model monotonicity and magnitudes, area
 * table + Pareto frontier extraction, UART latency arithmetic, and
 * the §5.3 concurrency study's shared core (one fixed-WCET task plus
 * background load on sched::RtScheduler).
 */

#include <gtest/gtest.h>

#include <utility>

#include "sched/scheduler.hh"
#include "soc/area_model.hh"
#include "soc/power_model.hh"
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

/**
 * The §5.3 shared core on sched::RtScheduler: one fixed-WCET task
 * released every 20 ms (the MPC row) and one background task of
 * @p background_cycles per frame (DroNet), with an ideal context
 * switch.
 */
sched::ScheduleRunResult
runShared(double wcet_cycles, double background_cycles, double freq_hz,
          double horizon_s)
{
    sched::SchedulerConfig cfg;
    cfg.useEnvFaults = false;
    cfg.freqHz = freq_hz;
    cfg.horizonS = horizon_s;
    sched::RtScheduler rs(cfg);
    sched::TaskSpec mpc;
    mpc.name = "mpc";
    mpc.periodS = 0.02;
    mpc.wcetCycles = wcet_cycles;
    rs.addTask(std::move(mpc));
    rs.addBackground({"dronet", background_cycles});
    return rs.run();
}

TEST(Rtos, UtilizationMatchesAnalytic)
{
    // 50 Hz task of 5.7 ms at 100 MHz -> 28.5% utilization (the
    // paper's scalar MPC number).
    sched::ScheduleRunResult r = runShared(570000.0, 12.5e6, 100e6, 10.0);
    EXPECT_NEAR(r.tasks[0].utilization, 0.285, 0.005);
    EXPECT_EQ(r.tasks[0].misses, 0u);
    EXPECT_GT(r.background[0].completions, 0u);
}

TEST(Rtos, BackgroundFpsScalesWithFreeCpu)
{
    double dronet = 12.5e6;
    sched::ScheduleRunResult rh =
        runShared(570000.0, dronet, 100e6, 10.0); // 28.5%
    sched::ScheduleRunResult rl =
        runShared(66000.0, dronet, 100e6, 10.0); // 3.3%
    EXPECT_GT(rl.background[0].fps, rh.background[0].fps);
    // Ratio approx (1-0.033)/(1-0.285) = 1.35 (the paper's speedup).
    EXPECT_NEAR(rl.background[0].fps / rh.background[0].fps, 1.35, 0.06);
}

TEST(Rtos, Sec53RegressionPinned)
{
    // The §5.3 table inputs. 501 releases over 10 s at 20 ms, not
    // 500: the release train adds the period to a running sum, so
    // release 500 lands at 9.999999999999876 s, inside the horizon.
    // It is still on the core at the horizon, where its projected
    // completion meets its deadline; it adds ~1e-14 to utilization.
    sched::ScheduleRunResult rs = runShared(570000.0, 12.5e6, 100e6, 10.0);
    EXPECT_EQ(rs.tasks[0].releases, 501u);
    EXPECT_EQ(rs.tasks[0].misses, 0u);
    EXPECT_EQ(rs.tasks[0].latenessS.size(), 0u);
    EXPECT_NEAR(rs.tasks[0].utilization, 0.285, 1e-9);
    EXPECT_EQ(rs.background[0].completions, 57u);
    EXPECT_EQ(rs.background[0].fps, 5.7);

    sched::ScheduleRunResult rv = runShared(66000.0, 12.5e6, 100e6, 10.0);
    EXPECT_EQ(rv.tasks[0].releases, 501u);
    EXPECT_EQ(rv.tasks[0].misses, 0u);
    EXPECT_NEAR(rv.tasks[0].utilization, 0.033, 1e-9);
    EXPECT_EQ(rv.background[0].completions, 77u);
    EXPECT_EQ(rv.background[0].fps, 7.7);
}

TEST(Rtos, OverrunDropsReleasesWhileInFlight)
{
    // 25 ms of work per 20 ms period: each activation is still on the
    // core at the next release, which is dropped (a miss with no
    // completion); the one after it starts on time and completes 5 ms
    // late. The background task gets the 15 ms left in every 40 ms.
    sched::ScheduleRunResult r = runShared(2.5e6, 1e6, 100e6, 5.0);
    const sched::TaskStats &t = r.tasks[0];
    EXPECT_EQ(t.releases, 251u);
    EXPECT_EQ(t.misses, 251u);
    EXPECT_EQ(t.drops, 125u);
    // 125 completions in the horizon plus release 250, charged at the
    // horizon by its projected completion. Release 250 exists only
    // through the release-train drift: it lands at 4.999999999999981 s.
    ASSERT_EQ(t.latenessS.size(), 126u);
    for (double late : t.latenessS.samples())
        EXPECT_NEAR(late, 0.005, 1e-9);
    EXPECT_NEAR(t.responseMaxS, 0.025, 1e-9);
    EXPECT_NEAR(t.utilization, 0.625, 1e-9);
    EXPECT_NEAR(r.background[0].utilization, 0.375, 1e-9);
    EXPECT_EQ(r.background[0].completions, 187u);
}

} // namespace
} // namespace rtoc::soc
