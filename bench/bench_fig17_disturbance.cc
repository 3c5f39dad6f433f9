/**
 * @file
 * Figure 17: impact of vectorization on disturbance recovery.
 * Step/impulse forces, torques and combined wrenches at 100 MHz:
 * maximum recoverable magnitude and time-to-recovery (return within
 * 5 cm for 250 ms) for scalar vs vector MPC. Paper: vector endures
 * ~1.9x larger disturbances with ~40% faster average TTR.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/cli.hh"
#include "common/table.hh"
#include "hil/disturbance.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "plant/quad_plant.hh"

using namespace rtoc;

namespace {

/** Per-(kind, axis) measurements, computed independently per task. */
struct AxisResult
{
    double ms = 0.0; ///< max recoverable magnitude, scalar MPC
    double mv = 0.0; ///< max recoverable magnitude, vector MPC
    bool bothRecovered = false;
    double ttrS = 0.0;
    double ttrV = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    (void)cli;

    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    hil::HilConfig scalar_cfg, vector_cfg;
    scalar_cfg.socFreqHz = 100e6;
    scalar_cfg.timing = hil::scalarControllerTiming(drone, 0.02, 10);
    vector_cfg.socFreqHz = 100e6;
    vector_cfg.timing = hil::vectorControllerTiming(drone, 0.02, 10);

    // Fan the (kind, axis) measurement tasks — each runs its own
    // bisections and common-magnitude trials — and reduce per kind in
    // index order below.
    constexpr size_t n_kinds = std::size(hil::kAllDisturbKinds);
    hil::SweepRunner sweep;
    auto axis_results =
        sweep.map<AxisResult>(n_kinds * 3, [&](size_t t) {
            auto kind = hil::kAllDisturbKinds[t / 3];
            int axis = static_cast<int>(t % 3);
            AxisResult r;
            r.ms = hil::maxRecoverableMagnitude(drone, kind, axis,
                                                scalar_cfg);
            r.mv = hil::maxRecoverableMagnitude(drone, kind, axis,
                                                vector_cfg);
            double common = 0.6 * std::min(r.ms, r.mv);
            hil::DisturbSpec spec{kind, axis, common};
            auto rs = hil::runDisturbTrial(drone, spec, scalar_cfg);
            auto rv = hil::runDisturbTrial(drone, spec, vector_cfg);
            r.bothRecovered = rs.recovered && rv.recovered;
            r.ttrS = rs.ttrS;
            r.ttrV = rv.ttrS;
            return r;
        });

    Table t("Figure 17: disturbance recovery at 100 MHz, scalar vs "
            "vector MPC",
            {"disturbance", "max magnitude (scalar)",
             "max magnitude (vector)", "ratio", "TTR scalar s",
             "TTR vector s", "TTR improvement"});

    double force_ratio_sum = 0.0;
    int force_cells = 0;
    double torque_ratio_sum = 0.0;
    int torque_cells = 0;
    double ttr_impr_sum = 0.0;
    int ttr_cells = 0;

    for (size_t ki = 0; ki < n_kinds; ++ki) {
        auto kind = hil::kAllDisturbKinds[ki];
        // Max recoverable magnitude per implementation (per axis),
        // then TTR measured at a COMMON magnitude (60% of the weaker
        // implementation's limit) so both controllers face the same
        // disturbance.
        double ms_sum = 0, mv_sum = 0, ttr_s_sum = 0, ttr_v_sum = 0;
        int ttr_n = 0;
        for (int axis = 0; axis < 3; ++axis) {
            const AxisResult &r = axis_results[ki * 3 + axis];
            ms_sum += r.ms;
            mv_sum += r.mv;
            if (r.bothRecovered) {
                ttr_s_sum += r.ttrS;
                ttr_v_sum += r.ttrV;
                ++ttr_n;
            }
        }
        double mag_s = ms_sum / 3;
        double mag_v = mv_sum / 3;
        double ttr_s = ttr_n ? ttr_s_sum / ttr_n : 0;
        double ttr_v = ttr_n ? ttr_v_sum / ttr_n : 0;
        double ratio = mag_s > 0 ? mag_v / mag_s : 0;
        double impr = ttr_s > 0 ? 1.0 - ttr_v / ttr_s : 0;
        bool is_torque =
            kind == hil::DisturbKind::StepTorque ||
            kind == hil::DisturbKind::ImpulseTorque;
        bool is_force = kind == hil::DisturbKind::StepForce ||
                        kind == hil::DisturbKind::ImpulseForce;
        if (is_force) {
            force_ratio_sum += ratio;
            ++force_cells;
        }
        if (is_torque) {
            torque_ratio_sum += ratio;
            ++torque_cells;
        }
        ttr_impr_sum += impr;
        ++ttr_cells;
        const char *unit = is_torque ? " mNm" : " N";
        t.addRow({hil::disturbKindName(kind),
                  Table::num(mag_s, 3) + unit,
                  Table::num(mag_v, 3) + unit,
                  Table::num(ratio, 2) + "x",
                  Table::num(ttr_s, 2), Table::num(ttr_v, 2),
                  Table::pct(impr)});
    }
    t.print();

    std::printf("\nShape check: vector endures %.2fx larger forces and "
                "%.2fx larger torques (paper: 1.89x / 1.96x), with "
                "%.0f%% average TTR improvement (paper: 40%%).\n",
                force_ratio_sum / force_cells,
                torque_ratio_sum / torque_cells,
                100.0 * ttr_impr_sum / ttr_cells);
    return force_ratio_sum / force_cells > 1.0 ? 0 : 1;
}
