/**
 * @file
 * Closed-loop HIL episode runner (§5.2): physics stepping at the
 * simulator rate, a 50 Hz control task on the modelled SoC, UART
 * transfer latencies on both directions, and zero-order hold of the
 * last command while a solve is in flight. When the solve overruns
 * the control period the next state sample slips to a later period
 * boundary, degrading the effective control rate — the mechanism
 * behind the success/power cliffs of Figure 16.
 *
 * The runner is plant-generic: it drives any plant::Plant (runtime
 * nx/nu problem shape, task-space waypoints, plant-owned crash and
 * reach predicates), the quadrotor included. The UART tether ships
 * elements at the width of the datapath's numeric format.
 *
 * runCell is not memoized. A cell depends on every plant parameter
 * and every HilConfig field, and no bench asks for one cell twice.
 * The caches under it (streams, schedules, calibrations) key on what
 * their results depend on, never on plant or numeric values.
 */

#ifndef RTOC_HIL_EPISODE_HH
#define RTOC_HIL_EPISODE_HH

#include "common/stats.hh"
#include "hil/timing.hh"
#include "matlib/fixed.hh"
#include "plant/plant.hh"
#include "soc/power_model.hh"
#include "soc/uart.hh"

namespace rtoc::hil {

/** Static configuration of a HIL run. */
struct HilConfig
{
    double physicsDtS = 1.0 / 240.0; ///< gym-pybullet default rate
    double controlPeriodS = 0.02;    ///< 50 Hz MPC task
    double socFreqHz = 100e6;
    bool idealPolicy = false; ///< solve every physics step, zero latency
    int horizon = 10;
    ControllerTiming timing;
    soc::UartModel uart;
    soc::PowerParams power = soc::PowerParams::scalarCore();
    /** Incremental-relinearization policy (default: fixed trim, the
     *  historical bit-identical path). */
    plant::RelinearizePolicy relin;
    /** Numeric format of the on-SoC datapath (default from
     *  RTOC_FORMAT, normally float32 — the bit-identical path).
     *  Narrow formats quantize the solver arithmetic, shrink the
     *  UART payload to their element width, and must be priced with
     *  a ControllerTiming calibrated at the same element width. */
    matlib::NumericFormat format = matlib::defaultFormat();
};

/** Outcome of one episode. */
struct EpisodeResult
{
    bool success = false;
    bool crashed = false;
    int waypointsReached = 0;
    double missionTimeS = 0.0;
    Distribution solveTimesS;  ///< per-solve latency samples
    Distribution iterations;   ///< per-solve ADMM iterations
    double rotorEnergyJ = 0.0; ///< actuation energy (rotors/engine/...)
    double avgRotorPowerW = 0.0;
    double socEnergyJ = 0.0;
    double avgSocPowerW = 0.0;
    double computeUtilization = 0.0;
    // Relinearization telemetry (zero on the fixed-trim path).
    int modelRefreshes = 0;    ///< model refreshes performed
    int refreshFailures = 0;   ///< diverged attempts (charged, model kept)
    double refreshTimeS = 0.0; ///< modelled SoC time spent refreshing
                               ///< (successful AND diverged attempts)
    /** Mean task-space distance to the active waypoint over the
     *  episode (the tracking-error metric bench_relin quantifies). */
    double trackingErrM = 0.0;
    // Numeric-format telemetry (zero on the float32 path).
    int divergedSolves = 0;   ///< solves with non-finite residuals
    uint64_t quantSats = 0;   ///< fixed-point quantization saturations
    uint64_t accSats = 0;     ///< fixed-point accumulator saturations
};

/** Run scenario @p sc on @p plant under @p cfg (plant is reset). */
EpisodeResult runEpisode(plant::Plant &plant, const plant::Scenario &sc,
                         const HilConfig &cfg);

/** Aggregated metrics over a set of episodes. */
struct SweepCell
{
    std::string arch;
    std::string plant;  ///< Plant::name() of the swept plant
    double freqMhz = 0.0;
    plant::Difficulty difficulty = plant::Difficulty::Easy;
    int episodes = 0;
    double successRate = 0.0;
    DistSummary solveTimeMs;
    double avgIterations = 0.0;
    double avgRotorPowerW = 0.0;
    double avgSocPowerW = 0.0;
    double avgTotalPowerW = 0.0;
    // Relinearization telemetry (zeros under the fixed-trim policy).
    plant::RelinearizePolicy relin;
    double avgTrackingErrM = 0.0; ///< mean episode tracking error
    double avgRefreshes = 0.0;    ///< model refreshes per episode
    double avgRefreshFailures = 0.0; ///< diverged attempts per episode
    double avgRefreshTimeS = 0.0; ///< modelled refresh s per episode
    // Numeric-format telemetry (f32 / zeros on the float32 path).
    std::string format = "f32";   ///< datapath format of the cell
    double avgDivergedSolves = 0.0; ///< diverged solves per episode
    double avgQuantSats = 0.0;    ///< quantization sats per episode
    double avgAccSats = 0.0;      ///< accumulator sats per episode
};

/**
 * Run @p n_scenarios seeded scenarios of @p d on clones of @p proto
 * (fanned over the pool) and aggregate them in index order.
 */
SweepCell runCell(const plant::Plant &proto, plant::Difficulty d,
                  int n_scenarios, const HilConfig &cfg,
                  const plant::DisturbanceProfile &disturbance = {});

} // namespace rtoc::hil

#endif // RTOC_HIL_EPISODE_HH
