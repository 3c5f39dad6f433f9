/**
 * @file
 * Plant abstraction: everything the HIL/sweep stack needs to fly an
 * arbitrary linearizable plant through the closed-loop MPC pipeline.
 *
 * A Plant bundles two coupled views of one physical system:
 *  - the *simulation* view: a nonlinear stepper (RK4 inside the
 *    concrete plants), actuator limits with trim, a crash predicate
 *    and actuation-energy accounting — the role gym-pybullet-drones
 *    plays for the paper's quadrotor;
 *  - the *controller* view: an nx-dimensional MPC model with
 *    continuous dynamics around a trim point, linearized analytically
 *    (plants override linearize()) or by central finite differences
 *    (the fdLinearize default), packed into a ready-to-solve TinyMPC
 *    workspace of runtime (nx, nu) shape.
 *
 * Waypoints are task-space Vec3 targets; each plant maps them to an
 * MPC reference and a scalar tracking distance, so the same episode
 * runner, sweep engine and benches amortize across every registered
 * plant. Plants are cloneable prototypes: parallel sweeps clone one
 * instance per episode, never sharing mutable state.
 *
 * A plant carries no cache key. Emitted streams and their timing fits
 * depend only on its problem shape (nx, nu), and HIL cells are not
 * memoized.
 */

#ifndef RTOC_PLANT_PLANT_HH
#define RTOC_PLANT_PLANT_HH

#include <memory>
#include <string>
#include <vector>

#include "numerics/dare.hh"
#include "plant/scenario.hh"
#include "tinympc/workspace.hh"

namespace rtoc::plant {

/**
 * Continuous + ZOH-discretized model around a linearization point.
 * Trim linearizations expand around an equilibrium, so the affine
 * residual is zero and cc/cd stay empty; linearizeAt() at an off-trim
 * point carries the residual c = f(x0,u0) - Ac x0 - Bc u0 so that
 * dx/dt = Ac x + Bc u + cc holds in absolute model coordinates (and
 * x+ = Ad x + Bd u + cd after ZOH discretization).
 */
struct LinearModel
{
    numerics::DMatrix ac; ///< nx x nx continuous
    numerics::DMatrix bc; ///< nx x nu continuous
    numerics::DMatrix ad; ///< nx x nx discrete (ZOH)
    numerics::DMatrix bd; ///< nx x nu discrete
    std::vector<double> cc; ///< continuous affine residual (empty = 0)
    std::vector<double> cd; ///< discrete affine residual (empty = 0)
    double dt = 0.02;
};

/** LQR weights of a plant's tracking task. */
struct Weights
{
    std::vector<double> qDiag; ///< nx state cost diagonal
    std::vector<double> rDiag; ///< nu input cost diagonal
    double rho = 5.0;          ///< ADMM penalty
};

/**
 * One classic RK4 step of ds/dt = f(s), shared by the concrete
 * plants' nonlinear simulators (actuator/lag state is held constant
 * across the step by the callers).
 */
template <size_t N, typename DerivFn>
std::array<double, N>
rk4Step(const std::array<double, N> &s, double dt, DerivFn &&f)
{
    auto add = [](const std::array<double, N> &a,
                  const std::array<double, N> &b, double h) {
        std::array<double, N> r;
        for (size_t i = 0; i < N; ++i)
            r[i] = a[i] + h * b[i];
        return r;
    };
    std::array<double, N> k1 = f(s);
    std::array<double, N> k2 = f(add(s, k1, dt / 2));
    std::array<double, N> k3 = f(add(s, k2, dt / 2));
    std::array<double, N> k4 = f(add(s, k3, dt));
    std::array<double, N> out = s;
    for (size_t i = 0; i < N; ++i)
        out[i] += dt / 6.0 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]);
    return out;
}

/** Fill @p m's ad/bd (and cd when cc is set) by ZOH-discretizing its
 *  ac/bc/cc with @p dt. */
void discretizeInPlace(LinearModel &m, double dt);

/** Abstract linearizable plant. */
class Plant
{
  public:
    virtual ~Plant() = default;

    // --- identity / problem shape ---

    /** Short name for tables and registry ids. */
    virtual std::string name() const = 0;

    /** MPC state dimension. */
    virtual int nx() const = 0;

    /** MPC input dimension. */
    virtual int nu() const = 0;

    /** Fresh copy with reset simulation state (prototype pattern). */
    virtual std::unique_ptr<Plant> clone() const = 0;

    // --- nonlinear simulation ---

    /** Reset to the nominal start state; zero time and energy. */
    virtual void reset() = 0;

    /** Advance @p dt seconds under actuator command @p cmd (size nu;
     *  concrete plants clamp to the actuator envelope). */
    virtual void step(const std::vector<double> &cmd, double dt) = 0;

    /** Simulated time since reset (s). */
    virtual double timeS() const = 0;

    /** True when the plant has entered an unrecoverable state. */
    virtual bool crashed() const = 0;

    /** Actuation energy consumed since reset (J). */
    virtual double actuationEnergyJ() const = 0;

    // --- external disturbances ---

    /** Whether applyWrench has any effect on this plant. */
    virtual bool supportsWrench() const { return false; }

    /**
     * Hold external wrench @p w across subsequent step() calls (until
     * replaced; pass a zero wrench to clear). Plants fold the force/
     * torque into their derivative — the quadrotor via the historical
     * quad::ExternalWrench path, ground/planar plants by projecting
     * onto their actuated axes. The default ignores the wrench
     * (supportsWrench() == false).
     */
    virtual void applyWrench(const Wrench &w) { (void)w; }

    // --- actuators ---

    /** Command that holds the trim/equilibrium condition (size nu). */
    virtual std::vector<double> trimCommand() const = 0;

    /** Per-actuator lower command limits (size nu). */
    virtual std::vector<double> commandMin() const = 0;

    /** Per-actuator upper command limits (size nu). */
    virtual std::vector<double> commandMax() const = 0;

    /**
     * Absolute actuator command from the solver's first input (nu
     * deltas from trim), clamped to the actuator envelope.
     */
    virtual std::vector<double> commandFromDelta(const float *du) const;

    /**
     * Solver input box in delta-from-trim coordinates (the actuator
     * envelope minus the current trim), shared by buildWorkspace and
     * the session's post-refresh bound update. The quadrotor's
     * buildWorkspace rounds its upper bound differently (one ulp for
     * the crazyflie), so its box moves at its first refresh.
     */
    void inputBoundDeltas(std::vector<float> &lo,
                          std::vector<float> &hi) const;

    // --- MPC model ---

    /** Model-space trim state the linearization expands around
     *  (size nx; defaults to the origin). */
    virtual std::vector<double> trimState() const;

    /**
     * Continuous dynamics of the nx-dimensional MPC model:
     * dxdt = f(x, du) with @p du the nu input deltas from trim. For
     * plants whose simulation state is richer than the model (the
     * quadrotor's quaternion vs its small-angle rpy model) this is
     * the *model*, not the simulator.
     */
    virtual void modelDeriv(const double *x, const double *du,
                            double *dxdt) const = 0;

    /**
     * Linearize around (trimState, 0) and ZOH-discretize with @p dt.
     * Default: central finite differences of modelDeriv (fdLinearize);
     * plants with analytic Jacobians override.
     */
    virtual LinearModel linearize(double dt) const;

    /**
     * Linearize around an arbitrary point (@p x, @p du) — the
     * real-time-iteration refresh used by warm-start incremental
     * relinearization — carrying the affine residual
     * c = f(x, du) - Ac x - Bc du in LinearModel::cc/cd. Default:
     * central finite differences of modelDeriv (fdLinearizeAt);
     * plants whose Jacobians are cheap analytically override.
     */
    virtual LinearModel linearizeAt(const double *x, const double *du,
                                    double dt) const;

    /** Tracking-cost weights. */
    virtual Weights mpcWeights() const = 0;

    /**
     * Build a ready-to-solve TinyMPC workspace: linearized model,
     * Riccati cache, input box from the actuator envelope minus trim,
     * reference at the home waypoint.
     */
    virtual tinympc::Workspace buildWorkspace(double dt,
                                              int horizon) const;

    /** Pack the current simulation state into nx MPC coordinates. */
    virtual void packState(float *x) const = 0;

    /** MPC reference (size nx) tracking task-space waypoint @p wp. */
    virtual std::vector<float> reference(const Vec3 &wp) const = 0;

    // --- task space ---

    /** Nominal start / hold waypoint (where reset() puts the plant). */
    virtual Vec3 home() const = 0;

    /** Task-space distance from the current state to @p wp. */
    virtual double distanceTo(const Vec3 &wp) const = 0;

    /** Radius within which a waypoint counts as reached (m). */
    virtual double reachRadius() const { return 0.12; }

    /** Hold time at the final waypoint for mission success (s). */
    virtual double settleS() const { return 0.2; }

    // --- scenarios ---

    /** Per-difficulty waypoint-generation parameters. */
    virtual DifficultySpec difficultySpec(Difficulty d) const = 0;

    /** Deterministically generate scenario @p index of @p d. */
    virtual Scenario makeScenario(Difficulty d, int index) const = 0;

    /**
     * Episodes per sweep cell the registry records for this plant's
     * scenario specs. Plants whose episodes are long or whose success
     * metric converges slowly may override the historical default;
     * sweep drivers (bench_cross_plant) read the per-spec count
     * instead of one global n.
     */
    virtual int defaultEpisodes() const { return 6; }
};

/**
 * Central-difference linearization of @p plant's modelDeriv around
 * (trimState, 0), ZOH-discretized with @p dt — the default behind
 * Plant::linearize and the reference the analytic Jacobians are
 * validated against in the tests.
 */
LinearModel fdLinearize(const Plant &plant, double dt);

/**
 * Central-difference linearization of @p plant's modelDeriv around an
 * arbitrary (@p x, @p du), including the affine residual, ZOH-
 * discretized with @p dt — the default behind Plant::linearizeAt and
 * the reference the analytic off-trim Jacobians are validated
 * against.
 */
LinearModel fdLinearizeAt(const Plant &plant, const double *x,
                          const double *du, double dt);

/**
 * Fill @p m.cc with the affine residual c = f(x, du) - Ac x - Bc du
 * (f from @p plant's modelDeriv), making the continuous model exact
 * at the expansion point in absolute coordinates — call after
 * filling ac/bc and before discretizeInPlace. Shared by
 * fdLinearizeAt and the analytic linearizeAt overrides (including
 * regularized Jacobians like the rover's coupling-speed floor, whose
 * slope tweak the residual absorbs).
 */
void computeAffineResidual(LinearModel &m, const Plant &plant,
                           const double *x, const double *du);

} // namespace rtoc::plant

#endif // RTOC_PLANT_PLANT_HH
