#include "episode.hh"

#include <algorithm>
#include <cmath>

#include "common/random.hh"
#include "hil/control_session.hh"
#include "hil/sweep.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rtoc::hil {

namespace {

/**
 * fmt.* counter ids, interned lazily on the first narrow-format
 * episode so format-off runs never grow their metrics section.
 */
struct FmtIds
{
    StatId divergedSolves;
    StatId quantSats;
    StatId accSats;
};

const FmtIds &
fmtIds()
{
    static const FmtIds ids = [] {
        obs::Registry &reg = obs::Registry::global();
        return FmtIds{reg.counter("fmt.diverged_solves"),
                      reg.counter("fmt.quant_sats"),
                      reg.counter("fmt.acc_sats")};
    }();
    return ids;
}

} // namespace

EpisodeResult
runEpisode(plant::Plant &plant, const plant::Scenario &sc,
           const HilConfig &cfg)
{
    EpisodeResult res;

    RTOC_SPAN("hil.episode", "hil");
    plant.reset();

    // The session owns the Workspace/Solver pair (functional-only
    // scalar backend: identical arithmetic, no emission) and the
    // relinearization policy from cfg.relin.
    ControlSession session(plant, cfg);

    std::vector<double> current_cmd = plant.trimCommand();
    std::vector<double> pending_cmd = current_cmd;
    double pending_apply_at = -1.0;
    double controller_free_at = 0.0;
    double next_tick = 0.0;
    double busy_time = 0.0;

    // Narrow formats ship quantized payloads over the tether: the
    // element width scales the UART cost (f32 keeps the historical 4).
    const int wire_bytes = matlib::formatElemBytes(cfg.format);
    const double uart_latency =
        cfg.idealPolicy ? 0.0
                        : cfg.uart.uplinkS(plant.nx(), wire_bytes) +
                              cfg.uart.downlinkS(plant.nu(), wire_bytes);

    int revealed = 0;
    int reached = 0;
    double track_err_sum = 0.0;
    uint64_t track_err_n = 0;
    bool final_reached = false;
    double final_within_since = -1.0;
    const double reach_radius = plant.reachRadius();
    const double settle_s = plant.settleS();
    const double limit = sc.timeLimitS();

    // Actuation-noise disturbance profile. A zero sigma performs no
    // draws, keeping clean episodes bit-identical to the historical
    // (profile-free) runner.
    const double noise_sigma = sc.disturbance.cmdNoiseSigma;
    Rng noise_rng(0xD157A11ull +
                  (static_cast<uint64_t>(sc.difficulty) + 1) * 104729ull +
                  static_cast<uint64_t>(sc.seed) * 7727ull);
    std::vector<double> noisy_cmd(current_cmd.size());

    auto run_solve = [&](double now) -> double {
        // Sample state, set reference to the newest revealed waypoint;
        // the session refreshes the model first when the policy fires.
        int target_idx = std::max(0, revealed - 1);
        ControlSession::TickResult tr =
            session.tick(plant.reference(sc.waypoints[target_idx]));
        res.iterations.add(static_cast<double>(tr.solve.iterations));
        if (tr.solve.diverged)
            ++res.divergedSolves;

        double refresh_s = 0.0;
        if (tr.refreshAttempted) {
            // Charge the attempted sweep even when the Riccati
            // diverged and the stale model was kept.
            if (tr.refreshed)
                ++res.modelRefreshes;
            else
                ++res.refreshFailures;
            refresh_s = cfg.idealPolicy
                            ? 0.0
                            : cfg.timing.refreshCycles(tr.riccatiIters) /
                                  cfg.socFreqHz;
            res.refreshTimeS += refresh_s;
        }
        double solve_s =
            cfg.idealPolicy
                ? 0.0
                : cfg.timing.solveCycles(tr.solve.iterations) /
                      cfg.socFreqHz;
        res.solveTimesS.add(cfg.timing.solveCycles(tr.solve.iterations) /
                            cfg.socFreqHz);
        busy_time += solve_s + refresh_s;

        pending_cmd = session.command();
        (void)now;
        return solve_s + refresh_s;
    };

    double t = 0.0;
    while (t < limit) {
        // Waypoint reveals (UART downstream of the host simulator).
        while (revealed < static_cast<int>(sc.waypoints.size()) &&
               t >= sc.intervalS * static_cast<double>(revealed)) {
            ++revealed;
        }

        if (cfg.idealPolicy) {
            run_solve(t);
            current_cmd = pending_cmd;
        } else {
            // Apply a completed solve's command.
            if (pending_apply_at >= 0.0 && t >= pending_apply_at) {
                current_cmd = pending_cmd;
                pending_apply_at = -1.0;
            }
            // Start a new solve at period boundaries when idle.
            if (t >= next_tick && t >= controller_free_at) {
                double solve_s = run_solve(t);
                double done = t + uart_latency + solve_s;
                pending_apply_at = done;
                controller_free_at = done;
                double period = cfg.controlPeriodS;
                double boundary =
                    std::ceil(done / period) * period;
                next_tick = std::max(t + period, boundary);
            }
        }

        if (noise_sigma > 0.0) {
            for (size_t i = 0; i < current_cmd.size(); ++i) {
                noisy_cmd[i] = current_cmd[i] *
                               (1.0 + noise_sigma * noise_rng.gaussian());
            }
            plant.step(noisy_cmd, cfg.physicsDtS);
        } else {
            plant.step(current_cmd, cfg.physicsDtS);
        }
        t = plant.timeS();

        // Tracking error against the active (newest revealed) target.
        if (revealed > 0) {
            track_err_sum +=
                plant.distanceTo(sc.waypoints[revealed - 1]);
            ++track_err_n;
        }

        if (plant.crashed()) {
            res.crashed = true;
            break;
        }

        // Waypoint progress diagnostic: furthest visited in order.
        while (reached < revealed &&
               plant.distanceTo(sc.waypoints[reached]) < reach_radius) {
            ++reached;
        }
        // Mission success: navigate to the *final* waypoint (the
        // paper's criterion) and hold it briefly.
        if (revealed == static_cast<int>(sc.waypoints.size())) {
            double dev = plant.distanceTo(sc.waypoints.back());
            if (dev < reach_radius) {
                if (final_within_since < 0.0)
                    final_within_since = t;
                if (t - final_within_since >= settle_s) {
                    final_reached = true;
                    break;
                }
            } else {
                final_within_since = -1.0;
            }
        }
    }

    res.waypointsReached = reached;
    res.trackingErrM =
        track_err_n ? track_err_sum / static_cast<double>(track_err_n)
                    : 0.0;
    res.success = !res.crashed && final_reached;
    res.missionTimeS = plant.timeS();
    res.rotorEnergyJ = plant.actuationEnergyJ();
    res.avgRotorPowerW =
        res.missionTimeS > 0 ? res.rotorEnergyJ / res.missionTimeS : 0.0;

    res.computeUtilization =
        res.missionTimeS > 0 ? std::min(1.0, busy_time / res.missionTimeS)
                             : 0.0;
    soc::PowerModel pm(cfg.power);
    res.avgSocPowerW =
        pm.powerW(cfg.socFreqHz, res.computeUtilization);
    res.socEnergyJ = res.avgSocPowerW * res.missionTimeS;

    if (cfg.format != matlib::NumericFormat::F32) {
        const matlib::fx::Counters &fc =
            session.solver().backend().fxCounters();
        res.quantSats = fc.quantSats;
        res.accSats = fc.accSats;
        const FmtIds &ids = fmtIds();
        obs::count(ids.divergedSolves,
                   static_cast<uint64_t>(res.divergedSolves));
        obs::count(ids.quantSats, res.quantSats);
        obs::count(ids.accSats, res.accSats);
    }
    return res;
}

SweepCell
runCell(const plant::Plant &proto, plant::Difficulty d, int n_scenarios,
        const HilConfig &cfg,
        const plant::DisturbanceProfile &disturbance)
{
    RTOC_SPAN("hil.cell", "sweep");
    SweepCell cell;
    cell.arch = cfg.idealPolicy ? "ideal" : cfg.timing.mappingName;
    cell.plant = proto.name();
    cell.freqMhz = cfg.socFreqHz / 1e6;
    cell.difficulty = d;
    cell.relin = cfg.relin;
    cell.format = matlib::formatName(cfg.format);

    Distribution solve_ms;
    double iters_sum = 0.0;
    uint64_t iters_count = 0;
    double rotor_sum = 0.0;
    double soc_sum = 0.0;
    double track_sum = 0.0;
    double refreshes_sum = 0.0;
    double refresh_fail_sum = 0.0;
    double refresh_s_sum = 0.0;
    double diverged_sum = 0.0;
    double quant_sat_sum = 0.0;
    double acc_sat_sum = 0.0;
    int successes = 0;

    // Episodes are independent and per-index seeded: fan them across
    // the pool, then aggregate in index order so the cell is
    // bit-identical to the historical serial loop.
    SweepRunner sweep;
    std::vector<EpisodeResult> episodes =
        sweep.runEpisodes(proto, d, n_scenarios, cfg, disturbance);

    for (const EpisodeResult &er : episodes) {
        cell.episodes += 1;
        if (er.success)
            ++successes;
        for (double s : er.solveTimesS.samples())
            solve_ms.add(s * 1e3);
        for (double it : er.iterations.samples()) {
            iters_sum += it;
            ++iters_count;
        }
        track_sum += er.trackingErrM;
        refreshes_sum += static_cast<double>(er.modelRefreshes);
        refresh_fail_sum += static_cast<double>(er.refreshFailures);
        refresh_s_sum += er.refreshTimeS;
        diverged_sum += static_cast<double>(er.divergedSolves);
        quant_sat_sum += static_cast<double>(er.quantSats);
        acc_sat_sum += static_cast<double>(er.accSats);
        // The paper reports power only for successfully completed
        // tasks (Fig. 16c).
        if (er.success) {
            rotor_sum += er.avgRotorPowerW;
            soc_sum += er.avgSocPowerW;
        }
    }

    cell.successRate =
        cell.episodes ? static_cast<double>(successes) / cell.episodes
                      : 0.0;
    cell.solveTimeMs = solve_ms.summarize();
    cell.avgIterations =
        iters_count ? iters_sum / static_cast<double>(iters_count) : 0.0;
    cell.avgRotorPowerW = successes ? rotor_sum / successes : 0.0;
    cell.avgSocPowerW = successes ? soc_sum / successes : 0.0;
    cell.avgTotalPowerW = cell.avgRotorPowerW + cell.avgSocPowerW;
    if (cell.episodes) {
        cell.avgTrackingErrM = track_sum / cell.episodes;
        cell.avgRefreshes = refreshes_sum / cell.episodes;
        cell.avgRefreshFailures = refresh_fail_sum / cell.episodes;
        cell.avgRefreshTimeS = refresh_s_sum / cell.episodes;
        cell.avgDivergedSolves = diverged_sum / cell.episodes;
        cell.avgQuantSats = quant_sat_sum / cell.episodes;
        cell.avgAccSats = acc_sat_sum / cell.episodes;
    }
    return cell;
}

} // namespace rtoc::hil
