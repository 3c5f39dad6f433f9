/**
 * @file
 * Anytime-ADMM governor: turns the slack a control task has until its
 * deadline into a per-tick iteration budget with a degradation ladder
 * and recovery hysteresis — the early-termination discipline of
 * embedded MPC at fixed cycle budgets (Jerez et al.) applied to the
 * TinyMPC ADMM stack.
 *
 * Ladder, engaged in order as slack shrinks:
 *
 *   Full          nominal iterations, relinearize when the policy fires
 *   ReducedIters  shrink the ADMM bound to what fits the slack
 *   SkipRelin     additionally skip the model refresh this tick
 *   Hold          no solve at all: zero-order hold of the last command
 *
 * Degradation is immediate (a tick that cannot fit its nominal work
 * must shed load *now*); recovery steps back one level only after
 * `recoveryTicks` consecutive ticks whose slack would have allowed a
 * better level, so a marginal task does not oscillate between levels
 * at the tick rate.
 *
 * The cycle figures handed to decide() are *measured* costs — the
 * caller scales the calibrated ControllerTiming by the currently
 * observed throughput (cycle spikes, stalls), modelling a device that
 * reads its cycle counter and extrapolates per-iteration cost, which
 * is what makes the ladder react within the first overloaded tick.
 */

#ifndef RTOC_SCHED_ANYTIME_HH
#define RTOC_SCHED_ANYTIME_HH

namespace rtoc::sched {

/** Governor configuration (one per scheduled control task). */
struct AnytimeConfig
{
    /** Master switch: disabled reproduces the fixed-iteration
     *  baseline (always Full, nominal bound, no shedding). */
    bool enabled = true;

    /** Fewest ADMM iterations worth running; below this the solve is
     *  shed entirely (Hold). */
    int minIters = 4;

    /** Consecutive healthy ticks before recovering one level. */
    int recoveryTicks = 2;

    /** Fraction of the computed slack the governor plans against
     *  (headroom for interference the estimate cannot see). */
    double slackSafety = 0.9;
};

/** Degradation ladder, least to most degraded. */
enum class DegradeLevel
{
    Full = 0,
    ReducedIters = 1,
    SkipRelin = 2,
    Hold = 3,
};

/** One tick's budget decision. */
struct AnytimeDecision
{
    DegradeLevel level = DegradeLevel::Full;
    int iterBudget = 0;      ///< ADMM bound granted (0 on Hold)
    bool skipRefresh = false; ///< suppress relinearization this tick
};

/** Per-task ladder state machine (see file comment). */
class AnytimeGovernor
{
  public:
    AnytimeGovernor() = default;
    explicit AnytimeGovernor(const AnytimeConfig &cfg) : cfg_(cfg) {}

    /**
     * Decide this tick's budget.
     *
     * @param slack_cycles  cycles from release to deadline minus the
     *        predicted higher-priority interference and link latency
     * @param base_cycles   measured per-solve fixed cost
     * @param per_iter_cycles measured cycles per ADMM iteration
     * @param nominal_iters the task's configured iteration bound
     * @param relin_due     the session would relinearize this tick
     * @param refresh_cycles measured cost of that relinearization
     */
    AnytimeDecision decide(double slack_cycles, double base_cycles,
                           double per_iter_cycles, int nominal_iters,
                           bool relin_due, double refresh_cycles);

    /** Current (sticky) ladder level. */
    DegradeLevel level() const { return level_; }

    /** Level transitions so far (degradations and recoveries). */
    int transitions() const { return transitions_; }

    const AnytimeConfig &config() const { return cfg_; }

  private:
    AnytimeConfig cfg_;
    DegradeLevel level_ = DegradeLevel::Full;
    int healthy_ = 0;     ///< consecutive ticks wanting a better level
    int transitions_ = 0;
};

} // namespace rtoc::sched

#endif // RTOC_SCHED_ANYTIME_HH
