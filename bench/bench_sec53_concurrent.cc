/**
 * @file
 * §5.3 system-level impacts: TinyMPC (50 Hz RTOS task) + DroNet
 * (background thread) sharing one 100 MHz RVV core. Swapping the MPC
 * implementation from scalar to vector frees the CPU and raises
 * DroNet's frame rate. Paper: 28.5% -> 3.3% CPU, DroNet 1.35x to
 * 7.7 FPS.
 *
 * Runs through the RtScheduler path (sched/scheduler.hh): the MPC row
 * is a fixed-cost periodic task and DroNet the background tenant, so
 * RTOC_FAULT overloads this bench reproducibly like every other
 * scheduler-driven study. test_soc's Rtos.* tests pin the same setup.
 */

#include <cstdio>
#include <utility>

#include "common/table.hh"
#include "dronet/dronet.hh"
#include "hil/timing.hh"
#include "plant/quad_plant.hh"
#include "sched/scheduler.hh"

using namespace rtoc;

namespace {

sched::ScheduleRunResult
runShared(double mpc_wcet_cycles, double dronet_cycles, double freq,
          double horizon)
{
    sched::SchedulerConfig cfg;
    cfg.freqHz = freq;
    cfg.horizonS = horizon;
    cfg.ctxSwitchCycles = 0.0; // §5.3 assumes an ideal RTOS switch

    sched::RtScheduler rs(cfg);
    sched::TaskSpec mpc;
    mpc.name = "mpc";
    mpc.priority = 1;
    mpc.periodS = 0.02;
    mpc.wcetCycles = mpc_wcet_cycles;
    rs.addTask(std::move(mpc));
    rs.addBackground({"dronet", dronet_cycles});
    return rs.run();
}

} // namespace

int
main()
{
    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    hil::ControllerTiming ts = hil::scalarControllerTiming(drone, 0.02, 10);
    hil::ControllerTiming tv = hil::vectorControllerTiming(drone, 0.02, 10);

    const double freq = 100e6;
    const double horizon = 20.0;
    double dronet_cycles =
        dronet::CnnCostModel::vectorized(256).cyclesPerFrame();

    std::printf("DroNet model: %.1f MMACs, %.2f Mcycles/frame "
                "vectorized\n", dronet::dronetTotalMacs() / 1e6,
                dronet_cycles / 1e6);

    Table t("Section 5.3: concurrent TinyMPC (50 Hz) + DroNet on one "
            "100 MHz RVV core",
            {"MPC impl", "MPC CPU share", "paper", "DroNet FPS",
             "deadline misses"});

    auto rs = runShared(ts.solveCycles(25), dronet_cycles, freq, horizon);
    t.addRow({"scalar", Table::pct(rs.tasks[0].utilization), "28.5%",
              Table::num(rs.background[0].fps, 2),
              Table::num(rs.tasks[0].misses)});

    auto rv = runShared(tv.solveCycles(25), dronet_cycles, freq, horizon);
    t.addRow({"vector", Table::pct(rv.tasks[0].utilization), "3.3%",
              Table::num(rv.background[0].fps, 2),
              Table::num(rv.tasks[0].misses)});
    t.print();

    double fps_gain = rv.background[0].fps / rs.background[0].fps;
    std::printf("\nShape check: DroNet frame rate improves %.2fx "
                "(paper: 1.35x to 7.7 FPS) when control moves to the "
                "vector implementation.\n", fps_gain);
    return fps_gain > 1.05 ? 0 : 1;
}
