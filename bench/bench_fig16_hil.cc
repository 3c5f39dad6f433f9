/**
 * @file
 * Figure 16: HIL evaluation — impact of compute architecture (scalar
 * vs vector on-chip implementation) and SoC clock frequency on (a)
 * MPC solve time (median + IQR), (b) mission success rate per
 * difficulty, and (c) drone power consumption (actuation + compute)
 * for successfully completed tasks, against the ideal policy.
 *
 * The (frequency x difficulty) grid cells fan out across the sweep
 * pool (episodes inside a cell run inline on the owning worker);
 * rows are printed in grid order so the output matches a serial run.
 *
 * Flags: --scenarios=N (default 8; the paper uses 20 — pass
 * --scenarios=20 for the full sweep), --full for all frequencies.
 */

#include <cstdio>
#include <iterator>
#include <map>

#include "common/cli.hh"
#include "common/table.hh"
#include "hil/episode.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "plant/quad_plant.hh"

using namespace rtoc;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const int scenarios =
        static_cast<int>(cli.getInt("scenarios", cli.has("full") ? 20 : 8));

    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    hil::ControllerTiming tv = hil::vectorControllerTiming(drone, 0.02, 10);
    hil::ControllerTiming ts = hil::scalarControllerTiming(drone, 0.02, 10);

    std::vector<double> freqs = {50e6, 75e6, 100e6, 150e6, 250e6,
                                 375e6, 500e6};

    hil::SweepRunner sweep;

    // Ideal policy reference (frequency-independent).
    Table ideal_t("Figure 16 (reference): ideal policy (MPC at every "
                  "physics step, zero latency)",
                  {"difficulty", "success", "actuator power W"});
    std::map<int, double> ideal_power;
    constexpr size_t n_diff = std::size(plant::kAllDifficulties);
    auto ideal_cells = sweep.map<hil::SweepCell>(n_diff, [&](size_t i) {
        hil::HilConfig cfg;
        cfg.idealPolicy = true;
        cfg.timing = tv;
        return hil::runCell(drone, plant::kAllDifficulties[i], scenarios,
                            cfg);
    });
    for (size_t i = 0; i < n_diff; ++i) {
        auto d = plant::kAllDifficulties[i];
        const auto &cell = ideal_cells[i];
        ideal_power[static_cast<int>(d)] = cell.avgRotorPowerW;
        ideal_t.addRow({drone.difficultySpec(d).name,
                        Table::pct(cell.successRate),
                        Table::num(cell.avgRotorPowerW, 2)});
    }
    ideal_t.print();

    for (auto [impl, timing, pw] :
         {std::tuple{"scalar", ts, soc::PowerParams::scalarCore()},
          std::tuple{"vector", tv, soc::PowerParams::vectorCore()}}) {
        Table t(std::string("Figure 16: ") + impl +
                    " implementation vs SoC frequency",
                {"freq MHz", "difficulty", "solve ms (med)",
                 "solve ms (p25-p75)", "success", "actuator W",
                 "compute W", "actuator overhead vs ideal"});
        // Grid cell i = (freq i / n_diff, difficulty i % n_diff).
        const size_t n_cells = freqs.size() * n_diff;
        auto cells = sweep.map<hil::SweepCell>(n_cells, [&](size_t i) {
            hil::HilConfig cfg;
            cfg.timing = timing;
            cfg.socFreqHz = freqs[i / n_diff];
            cfg.power = pw;
            return hil::runCell(drone,
                                plant::kAllDifficulties[i % n_diff],
                                scenarios, cfg);
        });
        for (size_t i = 0; i < n_cells; ++i) {
            double f = freqs[i / n_diff];
            auto d = plant::kAllDifficulties[i % n_diff];
            const auto &cell = cells[i];
            double ideal_p = ideal_power[static_cast<int>(d)];
            std::string overhead =
                cell.avgRotorPowerW > 0 && ideal_p > 0
                    ? Table::pct(cell.avgRotorPowerW / ideal_p - 1.0)
                    : "-";
            t.addRow({Table::num(f / 1e6, 0),
                      drone.difficultySpec(d).name,
                      Table::num(cell.solveTimeMs.median, 2),
                      Table::num(cell.solveTimeMs.p25, 2) + "-" +
                          Table::num(cell.solveTimeMs.p75, 2),
                      Table::pct(cell.successRate),
                      cell.avgRotorPowerW > 0
                          ? Table::num(cell.avgRotorPowerW, 2)
                          : "-",
                      Table::num(cell.avgSocPowerW, 3), overhead});
        }
        t.print();
    }

    std::printf("\nShape check: vector completes easy+medium at every "
                "frequency; scalar needs high frequencies and pays "
                "actuator-power overhead at low ones; compute power "
                "contributes a few percent of system power.\n");
    return 0;
}
