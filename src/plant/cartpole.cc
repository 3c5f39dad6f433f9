#include "cartpole.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace rtoc::plant {

namespace {
constexpr double kG = 9.81;
} // namespace

CartPolePlant::CartPolePlant(CartPoleParams params)
    : params_(std::move(params))
{
    CartPolePlant::reset();
}

std::string
CartPolePlant::name() const
{
    return "cartpole-" + params_.name;
}

std::unique_ptr<Plant>
CartPolePlant::clone() const
{
    return std::make_unique<CartPolePlant>(params_);
}

void
CartPolePlant::reset()
{
    state_ = {0, 0, 0, 0};
    wrench_ = Wrench();
    time_s_ = 0.0;
    energy_j_ = 0.0;
}

void
CartPolePlant::setState(double x, double xdot, double phi, double phidot)
{
    state_ = {x, xdot, phi, phidot};
}

std::array<double, 4>
CartPolePlant::deriv(const std::array<double, 4> &s, double force,
                     const Wrench *w) const
{
    // Coupled dynamics, phi measured from upright:
    //   (M+m) xdd + m l phidd cos(phi) = F - c_x xd + m l phid^2 sin(phi)
    //   m l xdd cos(phi) + (I + m l^2) phidd = m g l sin(phi) - c_p phid
    double M = params_.cartMassKg;
    double m = params_.poleMassKg;
    double l = params_.poleHalfLenM;
    double It = params_.poleInertia() + m * l * l;
    double phi = s[2], xd = s[1], pd = s[3];
    double c = std::cos(phi), sn = std::sin(phi);

    double a11 = M + m, a12 = m * l * c;
    double a21 = m * l * c, a22 = It;
    double b1 = force - params_.cartDamp * xd + m * l * pd * pd * sn;
    double b2 = m * kG * l * sn - params_.poleDamp * pd;
    if (w != nullptr && !w->zero()) {
        // x-axis force pushes the cart; pitch torque twists the pole
        // about its pivot.
        b1 += w->forceN[0];
        b2 += w->torqueNm[1];
    }

    double det = a11 * a22 - a12 * a21;
    rtoc_assert(std::fabs(det) > 1e-12);
    double xdd = (a22 * b1 - a12 * b2) / det;
    double phidd = (a11 * b2 - a21 * b1) / det;
    return {xd, xdd, pd, phidd};
}

void
CartPolePlant::step(const std::vector<double> &cmd, double dt)
{
    rtoc_assert(cmd.size() == 1);
    double f = std::clamp(cmd[0], -params_.maxForceN, params_.maxForceN);

    state_ = rk4Step(state_, dt, [&](const std::array<double, 4> &x) {
        return deriv(x, f, &wrench_);
    });

    energy_j_ += (std::fabs(f * state_[1]) + params_.idleW) * dt;
    time_s_ += dt;
}

bool
CartPolePlant::crashed() const
{
    return std::fabs(state_[2]) > params_.maxTiltRad ||
           std::fabs(state_[0]) > params_.trackHalfM ||
           std::fabs(state_[1]) > 10.0;
}

std::vector<double>
CartPolePlant::trimCommand() const
{
    return {0.0};
}

std::vector<double>
CartPolePlant::commandMin() const
{
    return {-params_.maxForceN};
}

std::vector<double>
CartPolePlant::commandMax() const
{
    return {params_.maxForceN};
}

void
CartPolePlant::modelDeriv(const double *x, const double *du,
                          double *dxdt) const
{
    auto d = deriv({x[0], x[1], x[2], x[3]}, du[0]);
    for (int i = 0; i < 4; ++i)
        dxdt[i] = d[i];
}

LinearModel
CartPolePlant::linearize(double dt) const
{
    // Upright linearization: cos -> 1, sin(phi) -> phi, phid^2 -> 0.
    double M = params_.cartMassKg;
    double m = params_.poleMassKg;
    double l = params_.poleHalfLenM;
    double It = params_.poleInertia() + m * l * l;
    double det = (M + m) * It - m * m * l * l;

    LinearModel lm;
    lm.ac = numerics::DMatrix(4, 4);
    lm.bc = numerics::DMatrix(4, 1);
    lm.ac(0, 1) = 1.0;
    lm.ac(2, 3) = 1.0;
    // xdd = (It (F - c_x xd) - m l (m g l phi - c_p pd)) / det
    lm.ac(1, 1) = -It * params_.cartDamp / det;
    lm.ac(1, 2) = -m * m * kG * l * l / det;
    lm.ac(1, 3) = m * l * params_.poleDamp / det;
    lm.bc(1, 0) = It / det;
    // phidd = (-m l (F - c_x xd) + (M+m)(m g l phi - c_p pd)) / det
    lm.ac(3, 1) = m * l * params_.cartDamp / det;
    lm.ac(3, 2) = (M + m) * m * kG * l / det;
    lm.ac(3, 3) = -(M + m) * params_.poleDamp / det;
    lm.bc(3, 0) = -m * l / det;

    discretizeInPlace(lm, dt);
    return lm;
}

Weights
CartPolePlant::mpcWeights() const
{
    return {{60, 6, 40, 4}, {0.5}, 5.0};
}

void
CartPolePlant::packState(float *x) const
{
    for (int i = 0; i < 4; ++i)
        x[i] = static_cast<float>(state_[i]);
}

std::vector<float>
CartPolePlant::reference(const Vec3 &wp) const
{
    std::vector<float> xr(4, 0.0f);
    xr[0] = static_cast<float>(wp[0]);
    return xr;
}

double
CartPolePlant::distanceTo(const Vec3 &wp) const
{
    return std::fabs(state_[0] - wp[0]);
}

DifficultySpec
CartPolePlant::difficultySpec(Difficulty d) const
{
    switch (d) {
      case Difficulty::Easy:
        return {"easy", 4, 1.5, 0.5};
      case Difficulty::Medium:
        return {"medium", 6, 1.2, 0.7};
      case Difficulty::Hard:
        return {"hard", 8, 1.0, 0.9};
    }
    rtoc_panic("bad difficulty");
}

Scenario
CartPolePlant::makeScenario(Difficulty d, int index) const
{
    DifficultySpec spec = difficultySpec(d);
    Scenario sc;
    sc.difficulty = d;
    sc.seed = index;
    sc.intervalS = spec.timeBetweenS;
    sc.graceS = 2.0;

    Rng rng(0xCA87ull * (static_cast<uint64_t>(d) + 1) +
            static_cast<uint64_t>(index) * 6803ull);

    // Random walk of track positions, clamped well inside the rails.
    double limit = params_.trackHalfM - 1.0;
    double cur = 0.0;
    for (int i = 0; i < spec.waypointCount; ++i) {
        for (int attempt = 0; attempt < 64; ++attempt) {
            double hop = spec.avgDistanceM * rng.uniform(0.7, 1.3);
            double next = cur + (rng.uniform() < 0.5 ? -hop : hop);
            if (std::fabs(next) < limit) {
                cur = next;
                break;
            }
            if (attempt == 63)
                cur = 0.0;
        }
        sc.waypoints.push_back({cur, 0.0, 0.0});
    }
    return sc;
}

} // namespace rtoc::plant
