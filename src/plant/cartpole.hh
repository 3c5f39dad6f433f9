/**
 * @file
 * Cart-pole stabilization plant: balance an inverted pendulum while
 * sliding the cart through revealed track-position waypoints. The
 * simulation integrates the full nonlinear cart-pole equations
 * (coupled 2x2 mass matrix solved per derivative call) under RK4; the
 * MPC model is the classic upright linearization. The tiny problem
 * shape (nx=4, nu=1) exercises the dimension-generic solver at the
 * opposite end of the spectrum from the quadrotor's 12x4.
 */

#ifndef RTOC_PLANT_CARTPOLE_HH
#define RTOC_PLANT_CARTPOLE_HH

#include "plant/plant.hh"

namespace rtoc::plant {

/** Physical description of the cart-pole. */
struct CartPoleParams
{
    std::string name = "cartpole";
    double cartMassKg = 1.0;
    double poleMassKg = 0.12;
    double poleHalfLenM = 0.35;  ///< pivot to pole COM
    double cartDamp = 0.5;       ///< cart viscous friction (N/(m/s))
    double poleDamp = 0.002;     ///< pivot friction (N m/(rad/s))
    double maxForceN = 12.0;
    double trackHalfM = 2.8;     ///< usable track half-length
    double maxTiltRad = 0.85;    ///< pole-drop crash threshold
    double idleW = 0.5;

    /** Pole moment of inertia about its COM (uniform rod). */
    double poleInertia() const
    {
        return poleMassKg * poleHalfLenM * poleHalfLenM / 3.0;
    }
};

/** Cart-pole stabilization plant (nx=4, nu=1). */
class CartPolePlant : public Plant
{
  public:
    explicit CartPolePlant(CartPoleParams params = CartPoleParams());

    std::string name() const override;
    int nx() const override { return 4; }
    int nu() const override { return 1; }
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
    Weights mpcWeights() const override;
    void packState(float *x) const override;
    std::vector<float> reference(const Vec3 &wp) const override;

    Vec3 home() const override { return {0, 0, 0}; }
    double distanceTo(const Vec3 &wp) const override;
    double reachRadius() const override { return 0.08; }
    double settleS() const override { return 0.30; }

    DifficultySpec difficultySpec(Difficulty d) const override;
    Scenario makeScenario(Difficulty d, int index) const override;

    const CartPoleParams &params() const { return params_; }

    /** Perturbation helper for predicate tests (phi from upright). */
    void setState(double x, double xdot, double phi, double phidot);

  private:
    /** Continuous derivative of [x, xdot, phi, phidot]; @p w (when
     *  non-null and nonzero) adds an x-axis cart force and a pole
     *  pivot torque. */
    std::array<double, 4> deriv(const std::array<double, 4> &s,
                                double force,
                                const Wrench *w = nullptr) const;

    CartPoleParams params_;
    std::array<double, 4> state_{}; ///< x, xdot, phi, phidot
    Wrench wrench_;                 ///< held across step() calls
    double time_s_ = 0.0;
    double energy_j_ = 0.0;
};

} // namespace rtoc::plant

#endif // RTOC_PLANT_CARTPOLE_HH
