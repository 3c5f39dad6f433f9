#include "disturbance.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "hil/control_session.hh"

namespace rtoc::hil {

const char *
disturbKindName(DisturbKind k)
{
    switch (k) {
      case DisturbKind::StepForce: return "step-force";
      case DisturbKind::ImpulseForce: return "impulse-force";
      case DisturbKind::StepTorque: return "step-torque";
      case DisturbKind::ImpulseTorque: return "impulse-torque";
      case DisturbKind::StepCombined: return "step-combined";
      case DisturbKind::ImpulseCombined: return "impulse-combined";
    }
    rtoc_panic("bad disturbance kind");
}

namespace {

bool
isForce(DisturbKind k)
{
    return k == DisturbKind::StepForce || k == DisturbKind::ImpulseForce;
}

bool
isTorque(DisturbKind k)
{
    return k == DisturbKind::StepTorque ||
           k == DisturbKind::ImpulseTorque;
}

bool
isStep(DisturbKind k)
{
    return k == DisturbKind::StepForce || k == DisturbKind::StepTorque ||
           k == DisturbKind::StepCombined;
}

} // namespace

DisturbResult
runDisturbTrial(const plant::Plant &proto, const DisturbSpec &spec,
                const HilConfig &cfg)
{
    DisturbResult res;

    std::unique_ptr<plant::Plant> plant = proto.clone();
    plant->reset();
    if (!plant->supportsWrench()) {
        rtoc_fatal("plant '%s' does not support external wrenches",
                   proto.name().c_str());
    }

    ControlSession session(*plant, cfg);
    const plant::Vec3 hold = plant->home();
    const std::vector<float> xref = plant->reference(hold);

    std::vector<double> current_cmd = plant->trimCommand();
    std::vector<double> pending_cmd = current_cmd;
    double pending_apply_at = -1.0;
    double controller_free_at = 0.0;
    double next_tick = 0.0;

    // The tether ships the format's element width, as in runEpisode.
    const int wire_bytes = matlib::formatElemBytes(cfg.format);
    const double uart_latency =
        cfg.uart.uplinkS(plant->nx(), wire_bytes) +
        cfg.uart.downlinkS(plant->nu(), wire_bytes);
    const double onset = 0.5;
    const double duration = isStep(spec.kind) ? 0.100 : 0.015;
    const double settle_window = 0.250;
    // The quad's historical 5 cm recovery radius at its 12 cm reach.
    const double recover_radius = plant->reachRadius() * (0.05 / 0.12);
    const double limit = onset + 4.0;

    double within_since = -1.0;
    bool wrench_on = false;
    double t = 0.0;
    while (t < limit) {
        if (pending_apply_at >= 0.0 && t >= pending_apply_at) {
            current_cmd = pending_cmd;
            pending_apply_at = -1.0;
        }
        if (t >= next_tick && t >= controller_free_at) {
            ControlSession::TickResult tr = session.tick(xref);
            double solve_s =
                cfg.timing.solveCycles(tr.solve.iterations) /
                cfg.socFreqHz;
            if (tr.refreshAttempted) {
                solve_s += cfg.timing.refreshCycles(tr.riccatiIters) /
                           cfg.socFreqHz;
            }
            pending_cmd = session.command();
            double done = t + uart_latency + solve_s;
            pending_apply_at = done;
            controller_free_at = done;
            double period = cfg.controlPeriodS;
            next_tick = std::max(t + period,
                                 std::ceil(done / period) * period);
        }

        bool active = t >= onset && t < onset + duration;
        if (active != wrench_on) {
            plant::Wrench w;
            if (active) {
                double mag = spec.magnitude;
                if (isForce(spec.kind)) {
                    w.forceN[spec.axis] = mag;
                } else if (isTorque(spec.kind)) {
                    w.torqueNm[spec.axis] = mag * 1e-3;
                } else {
                    w.forceN[spec.axis] = mag;
                    w.torqueNm[(spec.axis + 1) % 3] = mag * 0.3e-3;
                }
            }
            plant->applyWrench(w);
            wrench_on = active;
        }

        plant->step(current_cmd, cfg.physicsDtS);
        t = plant->timeS();

        double dev = plant->distanceTo(hold);
        if (t > onset)
            res.maxDeviationM = std::max(res.maxDeviationM, dev);

        if (plant->crashed()) {
            res.crashed = true;
            return res;
        }

        if (t > onset + duration) {
            if (dev < recover_radius) {
                if (within_since < 0.0)
                    within_since = t;
                if (t - within_since >= settle_window) {
                    res.recovered = true;
                    res.ttrS = within_since - onset;
                    return res;
                }
            } else {
                within_since = -1.0;
            }
        }
    }
    return res;
}

double
maxRecoverableMagnitude(const plant::Plant &proto, DisturbKind kind,
                        int axis, const HilConfig &cfg,
                        bool *saturated)
{
    DisturbSpec spec;
    spec.kind = kind;
    spec.axis = axis;

    // Exponential search for an upper failure bound, then bisection
    // (the quad path's protocol, generic over plants).
    double lo = 0.0;
    double hi = 0.05;
    bool found_failure = false;
    for (int i = 0; i < 12; ++i) {
        spec.magnitude = hi;
        if (!runDisturbTrial(proto, spec, cfg).recovered) {
            found_failure = true;
            break;
        }
        lo = hi;
        hi *= 2.0;
    }
    if (saturated != nullptr)
        *saturated = !found_failure;
    for (int i = 0; i < 8; ++i) {
        double mid = 0.5 * (lo + hi);
        spec.magnitude = mid;
        if (runDisturbTrial(proto, spec, cfg).recovered)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace rtoc::hil
