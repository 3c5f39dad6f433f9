#include "quad_plant.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace rtoc::plant {

QuadrotorPlant::QuadrotorPlant(quad::DroneParams params)
    : params_(std::move(params)), sim_(params_)
{}

std::string
QuadrotorPlant::name() const
{
    return "quad-" + params_.name;
}

std::unique_ptr<Plant>
QuadrotorPlant::clone() const
{
    return std::make_unique<QuadrotorPlant>(params_);
}

void
QuadrotorPlant::reset()
{
    sim_.resetHover({0, 0, 1.0});
    wrench_ = quad::ExternalWrench();
}

void
QuadrotorPlant::step(const std::vector<double> &cmd, double dt)
{
    rtoc_assert(cmd.size() == 4);
    // The held wrench is zero unless applyWrench set one, and QuadSim
    // always integrates its wrench argument, so undisturbed episodes
    // are bit-identical to the historical default-argument call.
    sim_.step({cmd[0], cmd[1], cmd[2], cmd[3]}, dt, wrench_);
}

void
QuadrotorPlant::applyWrench(const Wrench &w)
{
    wrench_.forceN = w.forceN;
    wrench_.torqueNm = w.torqueNm;
}

std::vector<double>
QuadrotorPlant::trimCommand() const
{
    double hover = params_.hoverThrustPerMotorN();
    return {hover, hover, hover, hover};
}

std::vector<double>
QuadrotorPlant::commandMin() const
{
    return {0.0, 0.0, 0.0, 0.0};
}

std::vector<double>
QuadrotorPlant::commandMax() const
{
    double tmax = params_.maxThrustPerMotorN();
    return {tmax, tmax, tmax, tmax};
}

void
QuadrotorPlant::modelDeriv(const double *x, const double *du,
                           double *dxdt) const
{
    // The 12-state small-angle hover model that linearize() states in
    // closed form: [pos, rpy, vel, omega], inputs per-motor thrust
    // deltas.
    double m = params_.massKg;
    double kd_over_m = params_.dragCoeff / m;
    for (int i = 0; i < 3; ++i) {
        dxdt[i] = x[6 + i];     // pos_dot = vel
        dxdt[3 + i] = x[9 + i]; // rpy_dot = omega
    }
    double du_sum = du[0] + du[1] + du[2] + du[3];
    dxdt[6] = quad::kGravity * x[4] - kd_over_m * x[6];
    dxdt[7] = -quad::kGravity * x[3] - kd_over_m * x[7];
    dxdt[8] = -kd_over_m * x[8] + du_sum / m;

    double l = params_.momentArmM();
    double kt = params_.torqueCoeff;
    auto inertia = params_.inertiaDiag();
    const double mix[3][4] = {
        {-l, -l, l, l},    // roll torque
        {-l, l, l, -l},    // pitch torque
        {kt, -kt, kt, -kt} // yaw torque
    };
    for (int axis = 0; axis < 3; ++axis) {
        double t = 0.0;
        for (int j = 0; j < 4; ++j)
            t += mix[axis][j] * du[j];
        dxdt[9 + axis] = t / inertia[axis];
    }
}

LinearModel
QuadrotorPlant::linearize(double dt) const
{
    LinearModel m;
    m.ac = numerics::DMatrix(12, 12);
    m.bc = numerics::DMatrix(12, 4);

    // pos_dot = vel
    for (int i = 0; i < 3; ++i)
        m.ac(i, 6 + i) = 1.0;
    // rpy_dot = omega (small angles)
    for (int i = 0; i < 3; ++i)
        m.ac(3 + i, 9 + i) = 1.0;
    // vel_dot: gravity tilt coupling + linear drag
    m.ac(6, 4) = quad::kGravity;  // x_ddot = +g * pitch
    m.ac(7, 3) = -quad::kGravity; // y_ddot = -g * roll
    double kd_over_m = params_.dragCoeff / params_.massKg;
    for (int i = 0; i < 3; ++i)
        m.ac(6 + i, 6 + i) = -kd_over_m;

    // Inputs: per-motor thrust deltas.
    double inv_m = 1.0 / params_.massKg;
    for (int j = 0; j < 4; ++j)
        m.bc(8, j) = inv_m; // z acceleration

    double l = params_.momentArmM();
    double kt = params_.torqueCoeff;
    auto inertia = params_.inertiaDiag();
    const double mix[3][4] = {
        {-l, -l, l, l},    // roll torque
        {-l, l, l, -l},    // pitch torque
        {kt, -kt, kt, -kt} // yaw torque
    };
    for (int axis = 0; axis < 3; ++axis)
        for (int j = 0; j < 4; ++j)
            m.bc(9 + axis, j) = mix[axis][j] / inertia[axis];

    discretizeInPlace(m, dt);
    return m;
}

LinearModel
QuadrotorPlant::linearizeAt(const double *x, const double *du,
                            double dt) const
{
    // The small-angle hover model is linear in (x, du) with
    // f(0, 0) = 0, so the Jacobians are state-independent and the
    // affine residual vanishes: relinearization is an exact no-op for
    // the quadrotor (the paper's fixed-trim §5.2 setup is optimal
    // for its own model class).
    (void)x;
    (void)du;
    return linearize(dt);
}

Weights
QuadrotorPlant::mpcWeights() const
{
    // Morphology-aware weights (§5.4: "we generate new linearized
    // models and policies for these drones").
    Weights w;
    w.qDiag = {100, 100, 100, 4, 4, 10, 4, 4, 4, 2, 2, 2};
    w.rDiag = {4, 4, 4, 4};
    w.rho = 5.0;
    // Normalize the input penalty to the command scale: a motor with
    // twice the hover thrust sees inputs of twice the magnitude.
    double u_scale = params_.hoverThrustPerMotorN() / 0.0662;
    for (auto &r : w.rDiag)
        r = 4.0 / (u_scale * u_scale);

    // Slow motors (large tau) filter the commanded torques: soften
    // the position loop and add rate damping to stay stable with the
    // unmodelled first-order motor lag (the Heron).
    double lag = params_.motorTauS / 0.03;
    if (lag > 1.2) {
        for (int i = 0; i < 3; ++i) {
            w.qDiag[i] = 40.0;     // position
            w.qDiag[6 + i] = 10.0; // velocity damping
            w.qDiag[9 + i] = 6.0;  // body-rate damping
        }
        for (auto &r : w.rDiag)
            r *= 3.0;
    }
    return w;
}

tinympc::Workspace
QuadrotorPlant::buildWorkspace(double dt, int horizon) const
{
    tinympc::Workspace ws = Plant::buildWorkspace(dt, horizon);
    // The motor envelope rounds hover and max thrust to float before
    // subtracting. The generic box rounds tmax - hover once, which
    // differs by one ulp for the crazyflie, so restate the upper
    // bound this way (the lower bound -hover rounds the same either
    // way).
    float hover = static_cast<float>(params_.hoverThrustPerMotorN());
    float tmax = static_cast<float>(params_.maxThrustPerMotorN());
    ws.setInputBounds(std::vector<float>(4, -hover),
                      std::vector<float>(4, tmax - hover));
    return ws;
}

void
QuadrotorPlant::packState(float *x) const
{
    const quad::SimState &s = sim_.state();
    Vec3 rpy = s.rpy();
    for (int i = 0; i < 3; ++i) {
        x[i] = static_cast<float>(s.pos[i]);
        x[3 + i] = static_cast<float>(rpy[i]);
        x[6 + i] = static_cast<float>(s.vel[i]);
        x[9 + i] = static_cast<float>(s.omega[i]);
    }
}

std::vector<float>
QuadrotorPlant::reference(const Vec3 &wp) const
{
    // Hold position wp: zero attitude, velocity and rates.
    std::vector<float> xr(12, 0.0f);
    for (int i = 0; i < 3; ++i)
        xr[i] = static_cast<float>(wp[i]);
    return xr;
}

double
QuadrotorPlant::distanceTo(const Vec3 &wp) const
{
    const Vec3 &p = sim_.state().pos;
    double dx = p[0] - wp[0];
    double dy = p[1] - wp[1];
    double dz = p[2] - wp[2];
    return std::sqrt(dx * dx + dy * dy + dz * dz);
}

DifficultySpec
QuadrotorPlant::difficultySpec(Difficulty d) const
{
    // The paper's Figure 15 table.
    switch (d) {
      case Difficulty::Easy:
        return {"easy", 5, 0.5, 0.3};
      case Difficulty::Medium:
        return {"medium", 7, 0.4, 0.7};
      case Difficulty::Hard:
        return {"hard", 10, 0.3, 1.1};
    }
    rtoc_panic("bad difficulty");
}

Scenario
QuadrotorPlant::makeScenario(Difficulty d, int index) const
{
    DifficultySpec spec = difficultySpec(d);
    Scenario sc;
    sc.difficulty = d;
    sc.seed = index;
    sc.intervalS = spec.timeBetweenS;

    // Seed combines difficulty and index for independent streams.
    Rng rng(0xC0FFEEull * (static_cast<uint64_t>(d) + 1) +
            static_cast<uint64_t>(index) * 7919ull);

    Vec3 cur = home();
    for (int i = 0; i < spec.waypointCount; ++i) {
        // Hop of avgDistance +-30% in a random direction, biased
        // toward the horizontal plane, kept inside the flight box.
        for (int attempt = 0; attempt < 64; ++attempt) {
            double dist = spec.avgDistanceM * rng.uniform(0.7, 1.3);
            double az = rng.uniform(0.0, 2.0 * M_PI);
            double el = rng.uniform(-0.4, 0.4);
            Vec3 next = {
                cur[0] + dist * std::cos(az) * std::cos(el),
                cur[1] + dist * std::sin(az) * std::cos(el),
                cur[2] + dist * std::sin(el),
            };
            if (std::fabs(next[0]) < 2.5 && std::fabs(next[1]) < 2.5 &&
                next[2] > 0.4 && next[2] < 2.0) {
                cur = next;
                break;
            }
            if (attempt == 63)
                cur = home(); // give up: recentre
        }
        sc.waypoints.push_back(cur);
    }
    return sc;
}

} // namespace rtoc::plant
