/**
 * @file
 * 3-DoF rocket soft-landing plant: a thrust-vectoring point-mass
 * lander descending through revealed waypoints to a hover above the
 * pad. The simulation integrates translational dynamics with
 * quadratic aerodynamic drag and a first-order engine lag under RK4;
 * the MPC model is the double integrator with gravity-compensating
 * trim thrust, linearized analytically. Actuation energy follows the
 * jet-power model P = |T| * ve_eff (thrust times effective velocity
 * scale), the rocket analogue of the quadrotor's momentum-theory
 * Equation 4.
 */

#ifndef RTOC_PLANT_ROCKET_HH
#define RTOC_PLANT_ROCKET_HH

#include "plant/plant.hh"

namespace rtoc::plant {

/** Physical description of the lander. */
struct RocketParams
{
    std::string name = "lander";
    double massKg = 1.5;        ///< wet mass at reset
    double maxThrustN = 30.0;   ///< main engine (vertical) limit
    double maxLateralN = 8.0;   ///< thrust-vectoring lateral authority
    double dragCoeff = 0.08;    ///< quadratic drag, N per (m/s)^2
    double engineTauS = 0.10;   ///< first-order thrust-response lag
    double jetVelocity = 40.0;  ///< effective exhaust-power scale (m/s)
    double startAltitudeM = 12.0;

    // Fidelity knobs, both disabled by default so the default lander
    // keeps the historical (massless-propellant, box-limited) flight
    // envelope bit-identically.
    /** Propellant budget; 0 disables mass depletion. Burn rate is
     *  proportional to thrust impulse: mdot = |T| / exhaustVelocity,
     *  and an exhausted tank starves the engine. */
    double propellantKg = 0.0;
    /** Effective exhaust velocity for the burn rate (m/s). */
    double exhaustVelocityMps = 900.0;
    /** Thrust-vector tilt limit: lateral thrust magnitude is capped
     *  at maxTiltRatio x (vertical thrust), i.e. tan(max gimbal
     *  angle). 0 disables (legacy independent box limits). */
    double maxTiltRatio = 0.0;

    /** Hover (trim) thrust at wet mass: weight. */
    double hoverThrustN() const;

    /** Thrust-to-weight sanity metric. */
    double thrustToWeight() const;

    /** A depleting, gimbal-limited variant of the default lander. */
    static RocketParams fueled();
};

/** Rocket soft-landing plant (nx=6, nu=3). */
class RocketPlant : public Plant
{
  public:
    explicit RocketPlant(RocketParams params = RocketParams());

    std::string name() const override;
    int nx() const override { return 6; }
    int nu() const override { return 3; }
    std::unique_ptr<Plant> clone() const override;

    void reset() override;
    void step(const std::vector<double> &cmd, double dt) override;
    double timeS() const override { return time_s_; }
    bool crashed() const override;
    double actuationEnergyJ() const override { return energy_j_; }

    bool supportsWrench() const override { return true; }
    void applyWrench(const Wrench &w) override { wrench_ = w; }

    std::vector<double> trimCommand() const override;
    std::vector<double> commandMin() const override;
    std::vector<double> commandMax() const override;

    void modelDeriv(const double *x, const double *du,
                    double *dxdt) const override;
    LinearModel linearize(double dt) const override;
    LinearModel linearizeAt(const double *x, const double *du,
                            double dt) const override;
    Weights mpcWeights() const override;
    void packState(float *x) const override;
    std::vector<float> reference(const Vec3 &wp) const override;

    Vec3 home() const override;
    double distanceTo(const Vec3 &wp) const override;
    double reachRadius() const override { return 0.35; }
    double settleS() const override { return 0.25; }

    DifficultySpec difficultySpec(Difficulty d) const override;
    Scenario makeScenario(Difficulty d, int index) const override;

    const RocketParams &params() const { return params_; }
    const Vec3 &position() const { return pos_; }
    const Vec3 &velocity() const { return vel_; }
    /** Current (depleting) vehicle mass. */
    double massKg() const { return mass_; }
    /** Propellant remaining (== budget while depletion is off). */
    double propellantKg() const { return propellant_; }

  private:
    /** Continuous derivative of [pos, vel] with thrust held; @p w
     *  (when non-null and nonzero) adds an external world force. */
    std::array<double, 6> deriv(const std::array<double, 6> &s,
                                const Vec3 &thrust,
                                const Wrench *w = nullptr) const;

    RocketParams params_;
    Vec3 pos_{0, 0, 0};
    Vec3 vel_{0, 0, 0};
    Vec3 thrust_{0, 0, 0}; ///< actual engine output (lagged)
    Wrench wrench_;        ///< held across step() calls
    double mass_ = 0.0;    ///< current mass; set from params by reset()
    double propellant_ = 0.0; ///< propellant remaining; set by reset()
    double time_s_ = 0.0;
    double energy_j_ = 0.0;
};

} // namespace rtoc::plant

#endif // RTOC_PLANT_ROCKET_HH
