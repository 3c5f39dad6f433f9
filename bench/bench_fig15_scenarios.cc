/**
 * @file
 * Figure 15: scenario difficulty overview — the difficulty table plus
 * a sample trajectory (waypoint list) per difficulty, and measured
 * statistics over the 20 generated scenario sets.
 */

#include <cstdio>

#include "common/table.hh"
#include "hil/sweep.hh"
#include "plant/quad_plant.hh"

using namespace rtoc;

int
main()
{
    Table t("Figure 15: scenario difficulty overview",
            {"difficulty", "waypoints", "time between", "avg distance "
             "(spec)", "avg distance (generated, 20 sets)"});
    const plant::QuadrotorPlant quad;
    hil::SweepRunner sweep;
    for (auto d : plant::kAllDifficulties) {
        auto spec = quad.difficultySpec(d);
        // Scenario generation is per-index seeded: fan the 20 sets,
        // reduce in index order.
        auto hops = sweep.map<double>(20, [&](size_t i) {
            return quad.makeScenario(d, static_cast<int>(i))
                .meanHopDistance(quad.home());
        });
        double mean = 0.0;
        for (double h : hops)
            mean += h;
        mean /= 20.0;
        t.addRow({spec.name,
                  Table::num(static_cast<uint64_t>(spec.waypointCount)),
                  Table::num(spec.timeBetweenS, 1) + "s",
                  Table::num(spec.avgDistanceM, 1) + "m",
                  Table::num(mean, 2) + "m"});
    }
    t.print();

    for (auto d : plant::kAllDifficulties) {
        auto spec = quad.difficultySpec(d);
        plant::Scenario sc = quad.makeScenario(d, 0);
        std::printf("\nSample %s trajectory (scenario 0):\n", spec.name);
        std::printf("  start (0.00, 0.00, 1.00)\n");
        for (size_t i = 0; i < sc.waypoints.size(); ++i) {
            std::printf("  wp%zu at t=%.1fs: (%.2f, %.2f, %.2f)\n", i,
                        sc.intervalS * static_cast<double>(i),
                        sc.waypoints[i][0], sc.waypoints[i][1],
                        sc.waypoints[i][2]);
        }
    }
    return 0;
}
