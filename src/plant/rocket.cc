#include "rocket.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace rtoc::plant {

namespace {
constexpr double kG = 9.81;
} // namespace

double
RocketParams::hoverThrustN() const
{
    return massKg * kG;
}

double
RocketParams::thrustToWeight() const
{
    return maxThrustN / hoverThrustN();
}

RocketParams
RocketParams::fueled()
{
    RocketParams p;
    p.name = "fueled";
    // ~27% of the wet mass is propellant; a typical descent burns a
    // third to a half of it, so trim thrust visibly drifts and a
    // stale wet-mass model overthrusts late in the mission.
    p.propellantKg = 0.4;
    p.exhaustVelocityMps = 900.0;
    p.maxTiltRatio = 0.35; // ~19 degree gimbal
    return p;
}

RocketPlant::RocketPlant(RocketParams params) : params_(std::move(params))
{
    if (params_.thrustToWeight() < 1.2) {
        rtoc_fatal("rocket '%s' cannot hover: thrust/weight = %.2f",
                   params_.name.c_str(), params_.thrustToWeight());
    }
    RocketPlant::reset();
}

std::string
RocketPlant::name() const
{
    return "rocket-" + params_.name;
}

std::unique_ptr<Plant>
RocketPlant::clone() const
{
    return std::make_unique<RocketPlant>(params_);
}

void
RocketPlant::reset()
{
    pos_ = {0, 0, params_.startAltitudeM};
    vel_ = {0, 0, 0};
    thrust_ = {0, 0, params_.hoverThrustN()};
    wrench_ = Wrench();
    mass_ = params_.massKg;
    propellant_ = params_.propellantKg;
    time_s_ = 0.0;
    energy_j_ = 0.0;
}

std::array<double, 6>
RocketPlant::deriv(const std::array<double, 6> &s, const Vec3 &thrust,
                   const Wrench *w) const
{
    double m = mass_;
    double cd = params_.dragCoeff;
    std::array<double, 6> d;
    for (int i = 0; i < 3; ++i)
        d[i] = s[3 + i];
    for (int i = 0; i < 3; ++i) {
        double v = s[3 + i];
        d[3 + i] = (thrust[i] - cd * std::fabs(v) * v) / m;
    }
    d[5] -= kG;
    if (w != nullptr && !w->zero()) {
        for (int i = 0; i < 3; ++i)
            d[3 + i] += w->forceN[i] / m; // point mass: force only
    }
    return d;
}

void
RocketPlant::step(const std::vector<double> &cmd, double dt)
{
    rtoc_assert(cmd.size() == 3);
    // Engine lag toward the clamped command.
    double lat = params_.maxLateralN;
    double alpha = 1.0 - std::exp(-dt / params_.engineTauS);
    Vec3 target = {std::clamp(cmd[0], -lat, lat),
                   std::clamp(cmd[1], -lat, lat),
                   std::clamp(cmd[2], 0.0, params_.maxThrustN)};
    if (params_.maxTiltRatio > 0.0) {
        // Thrust-vector gimbal: lateral thrust rides on the vertical
        // jet, so its magnitude is capped at tan(max tilt) x Tz.
        double allowed = params_.maxTiltRatio * target[2];
        double lat_mag = std::sqrt(target[0] * target[0] +
                                   target[1] * target[1]);
        if (lat_mag > allowed) {
            double scale = lat_mag > 0.0 ? allowed / lat_mag : 0.0;
            target[0] *= scale;
            target[1] *= scale;
        }
    }
    if (params_.propellantKg > 0.0 && propellant_ <= 0.0)
        target = {0.0, 0.0, 0.0}; // dry tank starves the engine
    for (int i = 0; i < 3; ++i)
        thrust_[i] += alpha * (target[i] - thrust_[i]);

    std::array<double, 6> s = {pos_[0], pos_[1], pos_[2],
                               vel_[0], vel_[1], vel_[2]};
    s = rk4Step(s, dt, [&](const std::array<double, 6> &x) {
        return deriv(x, thrust_, &wrench_);
    });

    pos_ = {s[0], s[1], s[2]};
    vel_ = {s[3], s[4], s[5]};

    double tmag = std::sqrt(thrust_[0] * thrust_[0] +
                            thrust_[1] * thrust_[1] +
                            thrust_[2] * thrust_[2]);
    if (params_.propellantKg > 0.0) {
        // Burn proportional to thrust impulse: mdot = |T| / ve.
        double burn = tmag / params_.exhaustVelocityMps * dt;
        propellant_ = std::max(0.0, propellant_ - burn);
        mass_ = params_.massKg -
                (params_.propellantKg - propellant_);
    }
    energy_j_ += tmag * params_.jetVelocity * dt;
    time_s_ += dt;
}

bool
RocketPlant::crashed() const
{
    if (pos_[2] < 0.05) // ground strike (missions hover at >= 0.6 m)
        return true;
    if (std::fabs(pos_[0]) > 30.0 || std::fabs(pos_[1]) > 30.0 ||
        pos_[2] > 60.0)
        return true;
    double v2 = vel_[0] * vel_[0] + vel_[1] * vel_[1] +
                vel_[2] * vel_[2];
    return v2 > 30.0 * 30.0; // runaway descent/ascent
}

std::vector<double>
RocketPlant::trimCommand() const
{
    // Hover thrust at the *current* mass: a depleting lander's trim
    // drifts down as propellant burns (equal to the wet-mass hover
    // while depletion is off).
    return {0.0, 0.0, mass_ * kG};
}

std::vector<double>
RocketPlant::commandMin() const
{
    double lat = params_.maxLateralN;
    if (params_.maxTiltRatio > 0.0)
        lat = std::min(lat, params_.maxTiltRatio * mass_ * kG);
    return {-lat, -lat, 0.0};
}

std::vector<double>
RocketPlant::commandMax() const
{
    double lat = params_.maxLateralN;
    if (params_.maxTiltRatio > 0.0)
        lat = std::min(lat, params_.maxTiltRatio * mass_ * kG);
    return {lat, lat, params_.maxThrustN};
}

void
RocketPlant::modelDeriv(const double *x, const double *du,
                        double *dxdt) const
{
    // MPC model state [pos, vel]; thrust = trim + du, quadratic drag.
    // Mass and trim track the depleting vehicle.
    double m = mass_;
    double cd = params_.dragCoeff;
    for (int i = 0; i < 3; ++i)
        dxdt[i] = x[3 + i];
    for (int i = 0; i < 3; ++i) {
        double v = x[3 + i];
        double trim = i == 2 ? mass_ * kG : 0.0;
        dxdt[3 + i] = (trim + du[i] - cd * std::fabs(v) * v) / m;
    }
    dxdt[5] -= kG;
}

LinearModel
RocketPlant::linearize(double dt) const
{
    // Double integrator: drag has zero slope at the v=0 trim.
    LinearModel m;
    m.ac = numerics::DMatrix(6, 6);
    m.bc = numerics::DMatrix(6, 3);
    for (int i = 0; i < 3; ++i) {
        m.ac(i, 3 + i) = 1.0;
        m.bc(3 + i, i) = 1.0 / mass_;
    }
    discretizeInPlace(m, dt);
    return m;
}

LinearModel
RocketPlant::linearizeAt(const double *x, const double *du,
                         double dt) const
{
    // Analytic off-trim Jacobian: quadratic drag has slope
    // -2 cd |v| / m away from rest, and the input gain tracks the
    // current (depleted) mass.
    LinearModel m;
    m.ac = numerics::DMatrix(6, 6);
    m.bc = numerics::DMatrix(6, 3);
    for (int i = 0; i < 3; ++i) {
        double v = x[3 + i];
        m.ac(i, 3 + i) = 1.0;
        m.ac(3 + i, 3 + i) =
            -2.0 * params_.dragCoeff * std::fabs(v) / mass_;
        m.bc(3 + i, i) = 1.0 / mass_;
    }

    computeAffineResidual(m, *this, x, du);
    discretizeInPlace(m, dt);
    return m;
}

Weights
RocketPlant::mpcWeights() const
{
    return {{8, 8, 12, 4, 4, 5}, {0.05, 0.05, 0.02}, 5.0};
}

void
RocketPlant::packState(float *x) const
{
    for (int i = 0; i < 3; ++i) {
        x[i] = static_cast<float>(pos_[i]);
        x[3 + i] = static_cast<float>(vel_[i]);
    }
}

std::vector<float>
RocketPlant::reference(const Vec3 &wp) const
{
    std::vector<float> xr(6, 0.0f);
    for (int i = 0; i < 3; ++i)
        xr[i] = static_cast<float>(wp[i]);
    return xr;
}

Vec3
RocketPlant::home() const
{
    return {0, 0, params_.startAltitudeM};
}

double
RocketPlant::distanceTo(const Vec3 &wp) const
{
    double dx = pos_[0] - wp[0];
    double dy = pos_[1] - wp[1];
    double dz = pos_[2] - wp[2];
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

DifficultySpec
RocketPlant::difficultySpec(Difficulty d) const
{
    switch (d) {
      case Difficulty::Easy:
        return {"easy", 4, 1.2, 2.0};
      case Difficulty::Medium:
        return {"medium", 6, 1.0, 3.0};
      case Difficulty::Hard:
        return {"hard", 8, 0.8, 4.0};
    }
    rtoc_panic("bad difficulty");
}

Scenario
RocketPlant::makeScenario(Difficulty d, int index) const
{
    DifficultySpec spec = difficultySpec(d);
    Scenario sc;
    sc.difficulty = d;
    sc.seed = index;
    sc.intervalS = spec.timeBetweenS;
    sc.graceS = 2.5;

    Rng rng(0x50C4E7ull * (static_cast<uint64_t>(d) + 1) +
            static_cast<uint64_t>(index) * 6151ull);

    // Descent profile: each hop drops a deterministic share of the
    // remaining altitude toward a hover 0.8 m above the pad, with a
    // randomized lateral excursion that shrinks as altitude does.
    Vec3 cur = home();
    const double final_z = 0.8;
    for (int i = 0; i < spec.waypointCount; ++i) {
        int remaining = spec.waypointCount - i;
        double dz = (cur[2] - final_z) / static_cast<double>(remaining);
        double lateral =
            spec.avgDistanceM * rng.uniform(0.3, 0.8) *
            std::min(1.0, cur[2] / params_.startAltitudeM + 0.25);
        double az = rng.uniform(0.0, 2.0 * M_PI);
        Vec3 next = {
            std::clamp(cur[0] + lateral * std::cos(az), -8.0, 8.0),
            std::clamp(cur[1] + lateral * std::sin(az), -8.0, 8.0),
            std::max(final_z, cur[2] - dz),
        };
        if (i + 1 == spec.waypointCount)
            next = {0.0, 0.0, final_z}; // the pad hover point
        cur = next;
        sc.waypoints.push_back(cur);
    }
    return sc;
}

} // namespace rtoc::plant
