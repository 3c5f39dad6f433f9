/**
 * @file
 * RtScheduler: a priority-preemptive shared-SoC core running N
 * heterogeneous control tasks (live hil::ControlSessions with their
 * own plants, rates and priorities), optional fixed-cost periodic
 * tasks, and best-effort background load — the multi-tenant
 * generalization of the §5.3 two-task sketch.
 *
 * The simulation is event-driven on one core: releases (with optional
 * jitter) enqueue work priced by the task's calibrated
 * ControllerTiming; the highest-priority ready work runs, lower
 * priorities are preempted (context switches cost ctxSwitchCycles,
 * charged to the incoming task); background tasks consume whatever
 * the periodic set leaves. Each live task's plant steps at the
 * physics rate in lock-step with the core timeline, commands apply
 * after the solve completes plus the UART downlink — the same
 * end-to-end latency semantics as the single-session episode runner.
 *
 * Deadline accounting is completion-based: an activation misses when
 * its command is ready *after* the next release boundary; lateness
 * seconds land in a Distribution and consecutive-miss streaks are
 * tracked per task (the stability metric the fault study gates on).
 * A release arriving while the previous solve is still on the core
 * is dropped and counts as a miss.
 *
 * Overload is injected through a FaultTrace (RTOC_FAULT): cycle
 * spikes and stalls scale the priced work, sensor drops suppress the
 * tick. Each live task owns an AnytimeGovernor that converts
 * remaining slack into a per-tick iteration budget (degradation
 * ladder + recovery hysteresis); disable it per task for the
 * fixed-iteration baseline the bench compares against.
 *
 * Scheduling decisions are recorded as sched.* obs counters and
 * "sched.*" trace spans; both families intern lazily, so a process
 * that never engages the scheduler keeps its metrics byte-identical.
 * Everything is deterministic: seeded jitter, deterministic fault
 * windows, index-ordered task iteration — parallel sweeps over
 * scheduler runs are bit-identical to serial ones.
 */

#ifndef RTOC_SCHED_SCHEDULER_HH
#define RTOC_SCHED_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "hil/episode.hh"
#include "plant/plant.hh"
#include "sched/anytime.hh"
#include "sched/fault.hh"
#include "soc/uart.hh"

namespace rtoc::sched {

/** One periodic task on the shared core. Two flavours:
 *  - live control task: @p plant set — a full ControlSession whose
 *    solve cost is priced per tick from @p timing and the iteration
 *    count the governor granted;
 *  - fixed-cost task: @p plant null — @p wcetCycles per activation
 *    (the §5.3 MPC row, interference-only tenants). */
struct TaskSpec
{
    std::string name;
    int priority = 0;     ///< larger wins the core; ties to lower index
    double periodS = 0.02; ///< release period == relative deadline
    /** Release jitter: activation k releases at
     *  k*period + U[0, releaseJitterFrac*period), seeded from the
     *  scheduler config (deadlines stay at the nominal boundary). */
    double releaseJitterFrac = 0.0;

    // --- live control task (plant != nullptr) ---
    std::shared_ptr<const plant::Plant> plant; ///< cloned at init
    plant::Scenario scenario; ///< empty waypoints = hold at home()
    hil::ControllerTiming timing;
    soc::UartModel uart;
    plant::RelinearizePolicy relin;
    int horizon = 10;
    int maxIters = 25;        ///< nominal ADMM bound
    /** ADMM termination-check cadence override; 0 keeps the workspace
     *  default, > maxIters never converges early — the true
     *  fixed-iteration execution the fault study's baseline models. */
    int checkTerminationEvery = 0;
    AnytimeConfig anytime;    ///< .enabled=false → fixed-iteration

    // --- fixed-cost task (plant == nullptr) ---
    double wcetCycles = 0.0;
};

/** Best-effort background load (DroNet-style frame processing). */
struct BackgroundTask
{
    std::string name;
    double frameCycles = 0.0;
};

/** Shared-core configuration. */
struct SchedulerConfig
{
    double freqHz = 100e6;
    double horizonS = 10.0;
    double physicsDtS = 1.0 / 240.0;
    double ctxSwitchCycles = 0.0; ///< per dispatch that switches task
    uint64_t seed = 0x5C4EDull;   ///< jitter streams
    FaultTrace faults;            ///< programmatic fault events
    /** Also apply the process-wide RTOC_FAULT trace (appended to
     *  @p faults). On by default: the knob is the user-facing way to
     *  overload any scheduler-driven bench reproducibly. */
    bool useEnvFaults = true;
};

/** Per-task outcome of one scheduler run. */
struct TaskStats
{
    std::string name;

    // deadline accounting
    uint64_t releases = 0;
    uint64_t solves = 0;    ///< ticks that ran a solve (live tasks)
    uint64_t misses = 0;    ///< completions past deadline + drops
    uint64_t drops = 0;     ///< releases shed: previous solve in flight
    uint64_t missStreakMax = 0; ///< worst consecutive-miss run
    Distribution latenessS; ///< completion - deadline, missed ticks
    /** Worst release-to-command-ready time over completed activations
     *  (core completion, plus the UART link for live tasks). */
    double responseMaxS = 0.0;

    // core occupancy
    double busyS = 0.0;
    double utilization = 0.0;
    uint64_t preemptions = 0; ///< times displaced mid-execution

    // anytime / degradation ladder
    double avgIters = 0.0;
    uint64_t reducedIterTicks = 0;
    uint64_t skippedRelinTicks = 0;
    uint64_t holdTicks = 0;       ///< shed ticks (zero-order hold)
    int degradeTransitions = 0;   ///< governor level changes

    // faults observed
    uint64_t spikedSolves = 0;
    uint64_t stalledSolves = 0;
    uint64_t sensorDropTicks = 0;

    // control quality (live tasks; zeros for fixed-cost tasks)
    bool crashed = false;
    bool success = false; ///< all scenario waypoints reached, no crash
    int waypointsReached = 0;
    double trackingErrM = 0.0;    ///< mean distance to active target
    double maxTrackingErrM = 0.0; ///< worst-case excursion
};

/** Background-task outcome. */
struct BackgroundStats
{
    std::string name;
    uint64_t completions = 0;
    double fps = 0.0;
    double utilization = 0.0;
};

/** Whole-run outcome. */
struct ScheduleRunResult
{
    double horizonS = 0.0;
    double utilization = 0.0; ///< total core busy fraction
    uint64_t ctxSwitches = 0;
    std::vector<TaskStats> tasks;          ///< registration order
    std::vector<BackgroundStats> background;

    /** Worst consecutive-miss streak across all tasks. */
    uint64_t maxMissStreak() const;

    /** Total deadline misses across all tasks. */
    uint64_t totalMisses() const;
};

/** Shared-SoC multi-controller scheduler (see file comment). */
class RtScheduler
{
  public:
    explicit RtScheduler(SchedulerConfig cfg);
    ~RtScheduler();

    RtScheduler(const RtScheduler &) = delete;
    RtScheduler &operator=(const RtScheduler &) = delete;

    /** Register a periodic task (before run()). */
    void addTask(TaskSpec spec);

    /** Register a best-effort background task (before run()). */
    void addBackground(BackgroundTask bg);

    /** Simulate the configured horizon; callable once per instance. */
    ScheduleRunResult run();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace rtoc::sched

#endif // RTOC_SCHED_SCHEDULER_HH
