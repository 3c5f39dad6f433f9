/**
 * @file
 * Closed-loop drone waypoint tracking (the paper's §5.2 scenario):
 * fly one medium-difficulty mission with a 100 MHz vector SoC and
 * print the flight log — waypoint reveals, solve latencies, position
 * trace, and the power summary.
 *
 * Build & run:  ./build/examples/drone_tracking
 */

#include <cstdio>

#include "hil/episode.hh"
#include "hil/timing.hh"
#include "plant/quad_plant.hh"

using namespace rtoc;

int
main()
{
    plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    plant::Scenario sc = drone.makeScenario(plant::Difficulty::Medium, 0);

    std::printf("mission: %zu waypoints, %.1f s apart, time limit "
                "%.1f s\n", sc.waypoints.size(), sc.intervalS,
                sc.timeLimitS());

    hil::HilConfig cfg;
    cfg.socFreqHz = 100e6;
    cfg.timing = hil::vectorControllerTiming(drone, 0.02, 10);
    cfg.power = soc::PowerParams::vectorCore();

    std::printf("controller: %s on %s, %.0f cycles/iteration\n",
                cfg.timing.mappingName.c_str(),
                cfg.timing.archName.c_str(), cfg.timing.cyclesPerIter);

    hil::EpisodeResult er = hil::runEpisode(drone, sc, cfg);

    auto solve = er.solveTimesS.summarize();
    auto iters = er.iterations.summarize();
    std::printf("\nresult: %s (%d/%zu waypoints visited, %.2f s)\n",
                er.success ? "SUCCESS" : "FAILURE", er.waypointsReached,
                sc.waypoints.size(), er.missionTimeS);
    std::printf("solves: %zu, median %.2f ms (IQR %.2f-%.2f), median "
                "%.0f ADMM iterations\n", solve.count,
                solve.median * 1e3, solve.p25 * 1e3, solve.p75 * 1e3,
                iters.median);
    std::printf("power: rotors %.2f W, SoC %.3f W (%.1f%% of total), "
                "compute utilization %.1f%%\n", er.avgRotorPowerW,
                er.avgSocPowerW,
                100.0 * er.avgSocPowerW /
                    (er.avgRotorPowerW + er.avgSocPowerW),
                100.0 * er.computeUtilization);
    std::printf("energy: rotors %.1f J, SoC %.2f J\n", er.rotorEnergyJ,
                er.socEnergyJ);
    return er.success ? 0 : 1;
}
