/**
 * @file
 * SWaP (size/weight/power) study across drone morphologies (§5.4):
 * for each Table-1 variant, find the slowest SoC frequency at which
 * the vector implementation completes an easy mission, and report the
 * resulting power split. Shows why Hawk wants a fast SoC and Heron a
 * low-power one.
 *
 * Build & run:  ./build/examples/swap_study
 */

#include <cstdio>

#include "hil/episode.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "plant/quad_plant.hh"

using namespace rtoc;

int
main()
{
    std::printf("%-10s %-9s %-12s %-12s %-12s\n", "drone", "min MHz",
                "rotor W", "SoC W", "SoC share");
    for (const auto &params : {quad::DroneParams::crazyflie(),
                               quad::DroneParams::hawk(),
                               quad::DroneParams::heron()}) {
        const plant::QuadrotorPlant drone(params);
        hil::ControllerTiming tv =
            hil::vectorControllerTiming(drone, 0.02, 10);

        double min_freq = 0;
        hil::EpisodeResult best;
        for (double f : {50e6, 75e6, 100e6, 150e6, 250e6, 500e6}) {
            hil::HilConfig cfg;
            cfg.timing = tv;
            cfg.socFreqHz = f;
            cfg.power = soc::PowerParams::vectorCore();
            // The 3 probe episodes per frequency fan out; the
            // frequency scan itself stays sequential (it stops at the
            // first success).
            hil::SweepRunner sweep;
            auto episodes = sweep.runEpisodes(
                drone, plant::Difficulty::Easy, 3, cfg);
            int ok = 0;
            for (const auto &er : episodes)
                ok += er.success;
            hil::EpisodeResult last = episodes.back();
            if (ok == 3) {
                min_freq = f;
                best = last;
                break;
            }
        }
        if (min_freq == 0) {
            std::printf("%-10s unable to complete easy missions\n",
                        params.name.c_str());
            continue;
        }
        double total = best.avgRotorPowerW + best.avgSocPowerW;
        std::printf("%-10s %-9.0f %-12.2f %-12.3f %.2f%%\n",
                    params.name.c_str(), min_freq / 1e6,
                    best.avgRotorPowerW, best.avgSocPowerW,
                    100.0 * best.avgSocPowerW / total);
    }
    std::printf("\nInterpretation: the efficient Heron flies at the "
                "lowest frequency and its compute is a vanishing power "
                "share; the powerful Hawk tolerates (and §5.4 shows "
                "benefits from) much faster clocks.\n");
    return 0;
}
