/**
 * @file
 * Differential-drive rover plant: a corridor-following ground vehicle
 * weaving waypoints between fixed obstacle pillars. The simulation
 * integrates the nonlinear unicycle-with-mass dynamics (heading, body
 * speed, yaw rate, per-wheel drive forces) under RK4; the MPC model
 * linearizes around straight-line cruise at v0, which gives the
 * lateral channel its authority (dy/dt = v0 * dtheta) — the standard
 * small-heading trick for differential-drive tracking.
 *
 * The obstacle field is part of the plant configuration (a fixed
 * slalom of pillars along the corridor), so the crash predicate needs
 * no scenario context; waypoint generation routes between the pillars
 * and sloppy low-rate control clips them.
 */

#ifndef RTOC_PLANT_ROVER_HH
#define RTOC_PLANT_ROVER_HH

#include "plant/plant.hh"

namespace rtoc::plant {

/** Circular obstacle pillar on the ground plane. */
struct Obstacle
{
    double x = 0.0;
    double y = 0.0;
    double radius = 0.3;
};

/** Physical description of the rover. */
struct RoverParams
{
    std::string name = "rover";
    double massKg = 8.0;
    double inertiaZ = 0.3;       ///< yaw inertia (kg m^2)
    double halfTrackM = 0.2;     ///< half wheel-to-wheel distance
    double dragPerMps = 6.0;     ///< linear longitudinal drag (N/(m/s))
    double yawDamp = 0.8;        ///< yaw damping (N m / (rad/s))
    double maxDriveN = 20.0;     ///< per-wheel drive force limit
    double cruiseMps = 1.0;      ///< linearization trim speed v0
    double idleW = 3.0;          ///< electronics idle power
    double obstacleSpacingM = 3.0;
    double obstacleOffsetM = 0.95;
    double obstacleRadiusM = 0.30;
    int obstacleCount = 14;
};

/** Differential-drive rover plant (nx=5, nu=2). */
class RoverPlant : public Plant
{
  public:
    explicit RoverPlant(RoverParams params = RoverParams());

    std::string name() const override;
    int nx() const override { return 5; }
    int nu() const override { return 2; }
    std::unique_ptr<Plant> clone() const override;

    void reset() override;
    void step(const std::vector<double> &cmd, double dt) override;
    double timeS() const override { return time_s_; }
    bool crashed() const override;
    double actuationEnergyJ() const override { return energy_j_; }

    std::vector<double> trimCommand() const override;
    std::vector<double> commandMin() const override;
    std::vector<double> commandMax() const override;

    bool supportsWrench() const override { return true; }
    void applyWrench(const Wrench &w) override { wrench_ = w; }

    void modelDeriv(const double *x, const double *du,
                    double *dxdt) const override;
    LinearModel linearize(double dt) const override;
    LinearModel linearizeAt(const double *x, const double *du,
                            double dt) const override;
    Weights mpcWeights() const override;
    std::vector<double> trimState() const override;
    void packState(float *x) const override;
    std::vector<float> reference(const Vec3 &wp) const override;

    Vec3 home() const override { return {0, 0, 0}; }
    double distanceTo(const Vec3 &wp) const override;
    double reachRadius() const override { return 0.30; }
    double settleS() const override { return 0.25; }

    DifficultySpec difficultySpec(Difficulty d) const override;
    Scenario makeScenario(Difficulty d, int index) const override;

    const RoverParams &params() const { return params_; }
    const std::vector<Obstacle> &obstacles() const { return obstacles_; }

    /** Teleport helper for predicate tests. */
    void setPose(double x, double y, double theta);

  private:
    /** Continuous derivative of [x, y, theta, v, omega]; @p w (when
     *  non-null and nonzero) folds an external wrench in — world
     *  force projected on the body axis plus yaw torque. */
    std::array<double, 5> deriv(const std::array<double, 5> &s,
                                double ul, double ur,
                                const Wrench *w = nullptr) const;

    RoverParams params_;
    std::vector<Obstacle> obstacles_;
    std::array<double, 5> state_{}; ///< x, y, theta, v, omega
    Wrench wrench_;                 ///< held across step() calls
    double time_s_ = 0.0;
    double energy_j_ = 0.0;
};

} // namespace rtoc::plant

#endif // RTOC_PLANT_ROVER_HH
