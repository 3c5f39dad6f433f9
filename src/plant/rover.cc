#include "rover.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace rtoc::plant {

RoverPlant::RoverPlant(RoverParams params) : params_(std::move(params))
{
    // Fixed slalom of pillars flanking the corridor, alternating
    // sides; part of the plant, not the scenario, so the crash
    // predicate is self-contained.
    for (int i = 0; i < params_.obstacleCount; ++i) {
        Obstacle ob;
        ob.x = 2.0 + params_.obstacleSpacingM * static_cast<double>(i);
        ob.y = (i % 2 == 0) ? params_.obstacleOffsetM
                            : -params_.obstacleOffsetM;
        ob.radius = params_.obstacleRadiusM;
        obstacles_.push_back(ob);
    }
    RoverPlant::reset();
}

std::string
RoverPlant::name() const
{
    return "rover-" + params_.name;
}

std::unique_ptr<Plant>
RoverPlant::clone() const
{
    return std::make_unique<RoverPlant>(params_);
}

void
RoverPlant::reset()
{
    state_ = {0, 0, 0, params_.cruiseMps, 0};
    wrench_ = Wrench();
    time_s_ = 0.0;
    energy_j_ = 0.0;
}

void
RoverPlant::setPose(double x, double y, double theta)
{
    state_[0] = x;
    state_[1] = y;
    state_[2] = theta;
}

std::array<double, 5>
RoverPlant::deriv(const std::array<double, 5> &s, double ul, double ur,
                  const Wrench *w) const
{
    double theta = s[2], v = s[3], omega = s[4];
    std::array<double, 5> d = {
        v * std::cos(theta),
        v * std::sin(theta),
        omega,
        (ul + ur - params_.dragPerMps * v) / params_.massKg,
        ((ur - ul) * params_.halfTrackM - params_.yawDamp * omega) /
            params_.inertiaZ,
    };
    if (w != nullptr && !w->zero()) {
        // World force projected onto the drive axis (the wheels hold
        // the lateral direction) plus yaw torque about z.
        d[3] += (w->forceN[0] * std::cos(theta) +
                 w->forceN[1] * std::sin(theta)) /
                params_.massKg;
        d[4] += w->torqueNm[2] / params_.inertiaZ;
    }
    return d;
}

void
RoverPlant::step(const std::vector<double> &cmd, double dt)
{
    rtoc_assert(cmd.size() == 2);
    double fmax = params_.maxDriveN;
    double ul = std::clamp(cmd[0], -fmax, fmax);
    double ur = std::clamp(cmd[1], -fmax, fmax);

    state_ = rk4Step(state_, dt, [&](const std::array<double, 5> &x) {
        return deriv(x, ul, ur, &wrench_);
    });

    // Traction power per wheel plus electronics idle.
    double v = state_[3];
    energy_j_ += (std::fabs(ul * v) + std::fabs(ur * v) +
                  params_.idleW) * dt;
    time_s_ += dt;
}

bool
RoverPlant::crashed() const
{
    double x = state_[0], y = state_[1];
    if (std::fabs(y) > 6.0 || x < -3.0 || x > 80.0)
        return true;
    if (std::fabs(state_[3]) > 8.0) // runaway speed
        return true;
    for (const Obstacle &ob : obstacles_) {
        double dx = x - ob.x;
        double dy = y - ob.y;
        if (dx * dx + dy * dy < ob.radius * ob.radius)
            return true;
    }
    return false;
}

std::vector<double>
RoverPlant::trimCommand() const
{
    // Holds cruise speed: drag force split across the two wheels.
    double u0 = params_.dragPerMps * params_.cruiseMps / 2.0;
    return {u0, u0};
}

std::vector<double>
RoverPlant::commandMin() const
{
    return {-params_.maxDriveN, -params_.maxDriveN};
}

std::vector<double>
RoverPlant::commandMax() const
{
    return {params_.maxDriveN, params_.maxDriveN};
}

std::vector<double>
RoverPlant::trimState() const
{
    return {0, 0, 0, params_.cruiseMps, 0};
}

void
RoverPlant::modelDeriv(const double *x, const double *du,
                       double *dxdt) const
{
    double u0 = params_.dragPerMps * params_.cruiseMps / 2.0;
    auto d = deriv({x[0], x[1], x[2], x[3], x[4]}, u0 + du[0],
                   u0 + du[1]);
    for (int i = 0; i < 5; ++i)
        dxdt[i] = d[i];
}

LinearModel
RoverPlant::linearize(double dt) const
{
    // Around (theta=0, v=v0, omega=0): dy/dt = v0 * dtheta couples the
    // lateral channel to heading.
    LinearModel m;
    m.ac = numerics::DMatrix(5, 5);
    m.bc = numerics::DMatrix(5, 2);
    double v0 = params_.cruiseMps;
    m.ac(0, 3) = 1.0;                                // dx/dt = dv
    m.ac(1, 2) = v0;                                 // dy/dt = v0 dth
    m.ac(2, 4) = 1.0;                                // dth/dt = dw
    m.ac(3, 3) = -params_.dragPerMps / params_.massKg;
    m.ac(4, 4) = -params_.yawDamp / params_.inertiaZ;
    m.bc(3, 0) = 1.0 / params_.massKg;
    m.bc(3, 1) = 1.0 / params_.massKg;
    m.bc(4, 0) = -params_.halfTrackM / params_.inertiaZ;
    m.bc(4, 1) = params_.halfTrackM / params_.inertiaZ;

    discretizeInPlace(m, dt);
    return m;
}

LinearModel
RoverPlant::linearizeAt(const double *x, const double *du,
                        double dt) const
{
    // Analytic Jacobian at an arbitrary (theta, v, omega): the
    // kinematic rows rotate with heading — exactly the terms the
    // fixed cruise-trim model gets wrong on aggressive weaves.
    //
    // The heading->lateral coupling dy/dt ~ v dtheta vanishes as the
    // rover slows, and a diff-drive linearized at v = 0 loses lateral
    // controllability entirely (the nonholonomic degeneracy): the
    // Riccati gains for y collapse and station-keeping falls apart.
    // Clamp the *coupling* speed to half cruise — the affine residual
    // is computed against the clamped Jacobian, so the model stays
    // exact at the expansion point; only the local slope is
    // regularized toward a controllable pair.
    double theta = x[2], v = x[3];
    double v_floor = 0.5 * params_.cruiseMps;
    double v_eff = std::fabs(v) < v_floor
                       ? (v < 0.0 ? -v_floor : v_floor)
                       : v;
    double c = std::cos(theta), sn = std::sin(theta);

    LinearModel m;
    m.ac = numerics::DMatrix(5, 5);
    m.bc = numerics::DMatrix(5, 2);
    m.ac(0, 2) = -v_eff * sn;                        // dx/dt = v cos th
    m.ac(0, 3) = c;
    m.ac(1, 2) = v_eff * c;                          // dy/dt = v sin th
    m.ac(1, 3) = sn;
    m.ac(2, 4) = 1.0;
    m.ac(3, 3) = -params_.dragPerMps / params_.massKg;
    m.ac(4, 4) = -params_.yawDamp / params_.inertiaZ;
    m.bc(3, 0) = 1.0 / params_.massKg;
    m.bc(3, 1) = 1.0 / params_.massKg;
    m.bc(4, 0) = -params_.halfTrackM / params_.inertiaZ;
    m.bc(4, 1) = params_.halfTrackM / params_.inertiaZ;

    // Affine residual keeps the model exact at the expansion point
    // (absorbing the v_eff slope regularization above).
    computeAffineResidual(m, *this, x, du);
    discretizeInPlace(m, dt);
    return m;
}

Weights
RoverPlant::mpcWeights() const
{
    return {{30, 30, 8, 4, 2}, {0.08, 0.08}, 5.0};
}

void
RoverPlant::packState(float *x) const
{
    for (int i = 0; i < 5; ++i)
        x[i] = static_cast<float>(state_[i]);
}

std::vector<float>
RoverPlant::reference(const Vec3 &wp) const
{
    // Settle at the waypoint: heading straight, stopped.
    std::vector<float> xr(5, 0.0f);
    xr[0] = static_cast<float>(wp[0]);
    xr[1] = static_cast<float>(wp[1]);
    return xr;
}

double
RoverPlant::distanceTo(const Vec3 &wp) const
{
    double dx = state_[0] - wp[0];
    double dy = state_[1] - wp[1];
    return std::sqrt(dx * dx + dy * dy);
}

DifficultySpec
RoverPlant::difficultySpec(Difficulty d) const
{
    switch (d) {
      case Difficulty::Easy:
        return {"easy", 5, 1.6, 1.4};
      case Difficulty::Medium:
        return {"medium", 7, 1.3, 1.8};
      case Difficulty::Hard:
        return {"hard", 10, 1.0, 2.2};
    }
    rtoc_panic("bad difficulty");
}

Scenario
RoverPlant::makeScenario(Difficulty d, int index) const
{
    DifficultySpec spec = difficultySpec(d);
    Scenario sc;
    sc.difficulty = d;
    sc.seed = index;
    sc.intervalS = spec.timeBetweenS;
    sc.graceS = 2.0;

    Rng rng(0xD01F7ull * (static_cast<uint64_t>(d) + 1) +
            static_cast<uint64_t>(index) * 7907ull);

    // Corridor waypoints advancing +x with bounded lateral weave, so
    // the small-heading linearization stays valid and the path threads
    // between the alternating pillars at |y| = obstacleOffset.
    double max_y = params_.obstacleOffsetM - params_.obstacleRadiusM -
                   reachRadius();
    Vec3 cur = home();
    for (int i = 0; i < spec.waypointCount; ++i) {
        double dist = spec.avgDistanceM * rng.uniform(0.75, 1.25);
        double y = rng.uniform(-max_y, max_y);
        cur = {cur[0] + dist, std::clamp(y, -max_y, max_y), 0.0};
        sc.waypoints.push_back(cur);
    }
    return sc;
}

} // namespace rtoc::plant
