/**
 * @file
 * The quadrotor as a registered Plant. The physics is QuadSim
 * (quad/dynamics, with the Table 1 airframes of quad/params); this
 * class adds the controller view: the 12-state small-angle hover
 * model [pos, rpy, vel, omega] with per-motor thrust deltas as inputs
 * and analytic Jacobians, morphology-aware MPC weights (§5.4: each
 * Table 1 drone gets its own linearized model and policy), and the
 * Figure 15 waypoint scenarios (Easy 5 waypoints 0.5 s apart at
 * 0.3 m, Medium 7 / 0.4 s / 0.7 m, Hard 10 / 0.3 s / 1.1 m).
 */

#ifndef RTOC_PLANT_QUAD_PLANT_HH
#define RTOC_PLANT_QUAD_PLANT_HH

#include "plant/plant.hh"
#include "quad/dynamics.hh"

namespace rtoc::plant {

/** Quadrotor waypoint-tracking plant (nx=12, nu=4). */
class QuadrotorPlant : public Plant
{
  public:
    explicit QuadrotorPlant(
        quad::DroneParams params = quad::DroneParams::crazyflie());

    std::string name() const override;
    int nx() const override { return 12; }
    int nu() const override { return 4; }
    std::unique_ptr<Plant> clone() const override;

    void reset() override;
    void step(const std::vector<double> &cmd, double dt) override;
    double timeS() const override { return sim_.timeS(); }
    bool crashed() const override { return sim_.crashed(); }
    double actuationEnergyJ() const override
    {
        return sim_.rotorEnergyJ();
    }

    bool supportsWrench() const override { return true; }
    void applyWrench(const Wrench &w) override;

    std::vector<double> trimCommand() const override;
    std::vector<double> commandMin() const override;
    std::vector<double> commandMax() const override;

    void modelDeriv(const double *x, const double *du,
                    double *dxdt) const override;
    LinearModel linearize(double dt) const override;
    LinearModel linearizeAt(const double *x, const double *du,
                            double dt) const override;
    Weights mpcWeights() const override;
    tinympc::Workspace buildWorkspace(double dt,
                                      int horizon) const override;
    void packState(float *x) const override;
    std::vector<float> reference(const Vec3 &wp) const override;

    Vec3 home() const override { return {0, 0, 1.0}; }
    double distanceTo(const Vec3 &wp) const override;

    DifficultySpec difficultySpec(Difficulty d) const override;
    Scenario makeScenario(Difficulty d, int index) const override;

    const quad::DroneParams &params() const { return params_; }
    quad::QuadSim &sim() { return sim_; }

  private:
    quad::DroneParams params_;
    quad::QuadSim sim_;
    quad::ExternalWrench wrench_; ///< held across step() calls
};

} // namespace rtoc::plant

#endif // RTOC_PLANT_QUAD_PLANT_HH
