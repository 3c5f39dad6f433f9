/**
 * @file
 * Disturbance-rejection experiment (§5.2, Fig. 17): apply 100 ms step
 * and impulse disturbances — axis-aligned forces, torques and
 * combined vectors — to a plant holding its home waypoint under
 * closed-loop MPC, measure time-to-recovery (for the quadrotor, return
 * within 5 cm of the hover point for 250 ms) and the maximum
 * recoverable magnitude via bisection. As in runEpisode, the tether
 * ships elements at the width of the datapath's numeric format.
 */

#ifndef RTOC_HIL_DISTURBANCE_HH
#define RTOC_HIL_DISTURBANCE_HH

#include <string>
#include <vector>

#include "hil/episode.hh"

namespace rtoc::hil {

/** Disturbance categories of Fig. 17. */
enum class DisturbKind {
    StepForce,
    ImpulseForce,
    StepTorque,
    ImpulseTorque,
    StepCombined,
    ImpulseCombined,
};

/** Printable name. */
const char *disturbKindName(DisturbKind k);

/** All categories for sweeps. */
inline const DisturbKind kAllDisturbKinds[] = {
    DisturbKind::StepForce,    DisturbKind::ImpulseForce,
    DisturbKind::StepTorque,   DisturbKind::ImpulseTorque,
    DisturbKind::StepCombined, DisturbKind::ImpulseCombined,
};

/** One trial description. */
struct DisturbSpec
{
    DisturbKind kind = DisturbKind::StepForce;
    int axis = 0;       ///< 0/1/2 = x/y/z
    double magnitude = 0.1; ///< N for forces, mN·m for torques
};

/** Result of one disturbance trial. */
struct DisturbResult
{
    bool recovered = false;
    bool crashed = false;
    double ttrS = 0.0;     ///< time to recovery from onset
    double maxDeviationM = 0.0;
};

/**
 * Plant-generic disturbance trial: hold a clone of @p proto at its
 * home waypoint under the closed-loop pipeline (a ControlSession, so
 * cfg.relin relinearization applies) and inject the step/impulse
 * wrench through Plant::applyWrench — the Fig. 17 protocol on any
 * plant that supports wrenches, not just the quad. Recovery radius
 * scales with the plant's reach radius (the quad's 5 cm at its 12 cm
 * reach).
 */
DisturbResult runDisturbTrial(const plant::Plant &proto,
                              const DisturbSpec &spec,
                              const HilConfig &cfg);

/**
 * Bisect the largest recoverable magnitude on a generic plant. When
 * the exponential search never finds a failing magnitude before its
 * cap the returned value is only a lower bound — either the plant
 * genuinely shrugs off the whole range, or the chosen (kind, axis)
 * does not couple into this plant's dynamics at its current attitude
 * (e.g. a lateral world force on the rover at zero heading: the
 * wheels hold that axis). @p saturated (when non-null) reports that
 * case so callers don't quote the bound as a measurement; the
 * returned value itself keeps the historical quad-path semantics
 * (fig17 is pinned byte-identical, saturation and all).
 */
double maxRecoverableMagnitude(const plant::Plant &proto,
                               DisturbKind kind, int axis,
                               const HilConfig &cfg,
                               bool *saturated = nullptr);

} // namespace rtoc::hil

#endif // RTOC_HIL_DISTURBANCE_HH
