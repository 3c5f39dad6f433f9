/**
 * @file
 * Plant-agnostic scenario vocabulary for the HIL stack.
 *
 * A scenario is a sequence of task-space waypoints revealed at a fixed
 * interval (the paper's Figure 15 protocol), plus an optional
 * disturbance profile. Every plant interprets a waypoint in its own
 * task space — 3-D position for the quadrotor and rocket, a 2-D
 * ground-plane target for the rover, a track position for the
 * cart-pole — so one episode runner drives them all. Each plant
 * declares its own per-difficulty parameters (the quadrotor's are the
 * paper's Figure 15 table).
 */

#ifndef RTOC_PLANT_SCENARIO_HH
#define RTOC_PLANT_SCENARIO_HH

#include <array>
#include <string>
#include <vector>

namespace rtoc::plant {

/** 3-vector helper (same underlying type as quad::Vec3). */
using Vec3 = std::array<double, 3>;

/** Scenario difficulty category (the paper's Easy/Medium/Hard). */
enum class Difficulty { Easy, Medium, Hard };

/** Per-difficulty waypoint-generation parameters. */
struct DifficultySpec
{
    const char *name;
    int waypointCount;
    double timeBetweenS;
    double avgDistanceM;
};

/** All difficulties, for sweep loops. */
inline const Difficulty kAllDifficulties[] = {
    Difficulty::Easy, Difficulty::Medium, Difficulty::Hard};

/** Printable difficulty name (plant-independent). */
const char *difficultyName(Difficulty d);

/**
 * Actuation-noise disturbance profile, applied by the episode runner
 * uniformly across plants: each physics step multiplies every
 * actuator command by (1 + sigma * N(0,1)). A zero sigma draws no
 * random numbers, so clean episodes are bit-identical to the
 * pre-profile code path.
 */
struct DisturbanceProfile
{
    const char *name = "clean";
    double cmdNoiseSigma = 0.0;

    static DisturbanceProfile clean() { return {}; }

    /** Gusty actuation: 5% multiplicative command noise. */
    static DisturbanceProfile gusty() { return {"gusty", 0.05}; }
};

/**
 * External force/torque disturbance, the plant-generic analogue of
 * quad::ExternalWrench: a world-frame force plus a body-frame torque
 * held constant across step() calls until changed. Plants that
 * support it (Plant::supportsWrench) fold the wrench into their
 * derivative; the Fig. 17 step/impulse profiles drive it.
 */
struct Wrench
{
    Vec3 forceN{0, 0, 0};   ///< world-frame force
    Vec3 torqueNm{0, 0, 0}; ///< body-frame torque

    bool zero() const
    {
        for (int i = 0; i < 3; ++i) {
            if (forceN[i] != 0.0 || torqueNm[i] != 0.0)
                return false;
        }
        return true;
    }
};

/**
 * When and how the control session re-linearizes its MPC model
 * around the current state (real-time-iteration style, Verschueren et
 * al.) instead of flying the fixed trim model for the whole episode.
 * The default (K=0, no threshold) is the historical fixed-trim path,
 * bit-identical to the pre-session episode runner.
 */
struct RelinearizePolicy
{
    /** Re-linearize every K control ticks; 0 = never (fixed trim). */
    int everyK = 0;

    /**
     * Additionally refresh whenever the model state drifts further
     * than this (2-norm, model coordinates) from the last
     * linearization point; 0 disables the trigger.
     */
    double stateDeltaThreshold = 0.0;

    /** True for the historical fixed-trim configuration. */
    bool fixedTrim() const
    {
        return everyK == 0 && stateDeltaThreshold <= 0.0;
    }

    /** Short printable form ("trim", "K5", "K5/d0.4"). */
    std::string label() const;
};

/** One waypoint-tracking scenario, plant-agnostic. */
struct Scenario
{
    Difficulty difficulty = Difficulty::Easy;
    int seed = 0;
    double intervalS = 0.5;      ///< time between waypoint reveals
    double graceS = 1.5;         ///< settling grace after last reveal
    std::vector<Vec3> waypoints; ///< revealed sequentially
    DisturbanceProfile disturbance;

    /** Mission time limit: reveals plus settling grace. */
    double timeLimitS() const
    {
        return intervalS * static_cast<double>(waypoints.size()) +
               graceS;
    }

    /**
     * Mean hop length from @p start through every waypoint in order
     * (diagnostic, compared against the difficulty's avgDistanceM);
     * 0 with fewer than two waypoints.
     */
    double meanHopDistance(const Vec3 &start) const;
};

} // namespace rtoc::plant

#endif // RTOC_PLANT_SCENARIO_HH
