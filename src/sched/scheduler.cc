#include "scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/random.hh"
#include "hil/control_session.hh"
#include "matlib/fixed.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rtoc::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Completion-vs-deadline slop: release times and cycle costs are
 *  exact doubles, so anything beyond rounding noise is a real miss. */
constexpr double kDeadlineEps = 1e-9;

/**
 * sched.* counter ids, interned lazily on the first scheduler run so
 * processes that never engage the scheduler keep their metrics
 * section byte-identical (same contract as the fmt.* counters).
 */
struct SchedIds
{
    StatId runs;
    StatId releases;
    StatId solves;
    StatId misses;
    StatId drops;
    StatId holds;
    StatId reducedIters;
    StatId skippedRelin;
    StatId preemptions;
};

const SchedIds &
schedIds()
{
    static const SchedIds ids = [] {
        obs::Registry &reg = obs::Registry::global();
        return SchedIds{reg.counter("sched.runs"),
                        reg.counter("sched.releases"),
                        reg.counter("sched.solves"),
                        reg.counter("sched.misses"),
                        reg.counter("sched.drops"),
                        reg.counter("sched.holds"),
                        reg.counter("sched.reduced_iters"),
                        reg.counter("sched.skipped_relin"),
                        reg.counter("sched.preemptions")};
    }();
    return ids;
}

} // namespace

uint64_t
ScheduleRunResult::maxMissStreak() const
{
    uint64_t worst = 0;
    for (const TaskStats &t : tasks)
        worst = std::max(worst, t.missStreakMax);
    return worst;
}

uint64_t
ScheduleRunResult::totalMisses() const
{
    uint64_t sum = 0;
    for (const TaskStats &t : tasks)
        sum += t.misses;
    return sum;
}

struct RtScheduler::Impl
{
    /** Internal per-task runtime state. */
    struct Task
    {
        TaskSpec spec;

        // live-task machinery (null/empty for fixed-cost tasks)
        std::unique_ptr<plant::Plant> plant;
        std::unique_ptr<hil::ControlSession> session;
        AnytimeGovernor governor;
        double uartS = 0.0;
        double nominalCycles = 0.0; ///< interference estimate per tick
        int lastRefreshIters = 100; ///< refresh-cost reservation seed

        // release bookkeeping
        Rng jitter{0};
        double nominalRelease = 0.0; ///< next release's nominal time
        double releaseAt = 0.0;      ///< next release (nominal+jitter)
        bool inFlight = false;

        // command plumbing (live tasks)
        std::vector<double> currentCmd;
        std::vector<double> stagedCmd;   ///< solved, awaiting completion
        std::vector<double> pendingCmd;  ///< completed, awaiting apply
        double applyAt = -1.0;

        // scenario progress
        int revealed = 0;
        int reached = 0;

        uint64_t streak = 0;
        double iterSum = 0.0;
        double trackSum = 0.0;
        uint64_t trackN = 0;

        TaskStats stats;

        bool live() const { return plant != nullptr; }
    };

    struct Work
    {
        int task = -1;
        double remainingCycles = 0.0;
        double release = 0.0;
        double deadline = 0.0;
        bool started = false;
    };

    struct Bg
    {
        BackgroundTask spec;
        double progressS = 0.0;
        double busyS = 0.0;
        uint64_t completions = 0;
    };

    SchedulerConfig cfg;
    FaultTrace faults;
    std::vector<Task> tasks;
    std::vector<Bg> bgs;
    std::vector<int> releaseOrder; ///< task indices, priority order

    // core state
    double now = 0.0;
    int lastRan = -3; ///< -3 idle-never, -2 background, >=0 task index
    uint64_t ctxSwitches = 0;
    std::vector<Work> ready;
    bool ran = false;

    explicit Impl(SchedulerConfig c) : cfg(std::move(c)) {}

    /** Strict scheduler order: priority desc, then index. */
    bool
    beats(int a, int b) const
    {
        int pa = tasks[static_cast<size_t>(a)].spec.priority;
        int pb = tasks[static_cast<size_t>(b)].spec.priority;
        return pa != pb ? pa > pb : a < b;
    }

    Work *
    pickReady()
    {
        Work *best = nullptr;
        for (Work &w : ready) {
            if (!best || beats(w.task, best->task))
                best = &w;
        }
        return best;
    }

    Work *
    findWork(int task)
    {
        for (Work &w : ready) {
            if (w.task == task)
                return &w;
        }
        return nullptr;
    }

    void
    removeWork(int task)
    {
        for (size_t i = 0; i < ready.size(); ++i) {
            if (ready[i].task == task) {
                ready.erase(ready.begin() +
                            static_cast<ptrdiff_t>(i));
                return;
            }
        }
    }

    double
    nextReleaseTime() const
    {
        double tr = kInf;
        for (const Task &t : tasks)
            tr = std::min(tr, t.releaseAt);
        return tr;
    }

    void
    initTasks()
    {
        for (size_t i = 0; i < tasks.size(); ++i)
            releaseOrder.push_back(static_cast<int>(i));
        std::sort(releaseOrder.begin(), releaseOrder.end(),
                  [&](int a, int b) { return beats(a, b); });

        uint64_t idx = 0;
        for (Task &t : tasks) {
            if (t.spec.periodS <= 0.0)
                rtoc_fatal("task %s: period must be positive",
                           t.spec.name.c_str());
            if (t.spec.releaseJitterFrac < 0.0 ||
                t.spec.releaseJitterFrac >= 1.0)
                rtoc_fatal("task %s: jitter fraction must be in [0,1)",
                           t.spec.name.c_str());
            t.jitter = Rng(cfg.seed + 0x9E37u * (idx + 1));
            ++idx;
            t.nominalRelease = 0.0;
            t.releaseAt = jitteredRelease(t);
            if (!t.spec.plant) {
                t.nominalCycles = t.spec.wcetCycles;
                continue;
            }
            t.plant = t.spec.plant->clone();
            t.plant->reset();
            hil::HilConfig hc;
            hc.physicsDtS = cfg.physicsDtS;
            hc.controlPeriodS = t.spec.periodS;
            hc.socFreqHz = cfg.freqHz;
            hc.horizon = t.spec.horizon;
            hc.timing = t.spec.timing;
            hc.uart = t.spec.uart;
            hc.relin = t.spec.relin;
            t.session = std::make_unique<hil::ControlSession>(
                *t.plant, hc);
            t.session->workspace().settings.maxIters = t.spec.maxIters;
            if (t.spec.checkTerminationEvery > 0)
                t.session->workspace().settings.checkTermination =
                    t.spec.checkTerminationEvery;
            t.governor = AnytimeGovernor(t.spec.anytime);
            const int wire = matlib::formatElemBytes(hc.format);
            t.uartS = t.spec.uart.uplinkS(t.plant->nx(), wire) +
                      t.spec.uart.downlinkS(t.plant->nu(), wire);
            t.nominalCycles =
                t.spec.timing.solveCycles(t.spec.maxIters);
            t.currentCmd = t.plant->trimCommand();
            t.stagedCmd = t.currentCmd;
            t.pendingCmd = t.currentCmd;
            if (t.spec.scenario.waypoints.empty()) {
                // Station-keep: hold the home waypoint forever.
                t.spec.scenario.waypoints.push_back(t.plant->home());
                t.spec.scenario.intervalS = 0.0;
            }
        }
    }

    double
    jitteredRelease(Task &t)
    {
        if (t.nominalRelease >= cfg.horizonS)
            return kInf;
        if (t.spec.releaseJitterFrac <= 0.0)
            return t.nominalRelease;
        return t.nominalRelease + t.spec.releaseJitterFrac *
                                      t.spec.periodS * t.jitter.uniform();
    }

    void
    recordMiss(Task &t, double lateness_s)
    {
        t.stats.misses += 1;
        obs::count(schedIds().misses);
        if (lateness_s >= 0.0)
            t.stats.latenessS.add(lateness_s);
        t.streak += 1;
        t.stats.missStreakMax =
            std::max(t.stats.missStreakMax, t.streak);
    }

    /**
     * Higher-priority demand expected in [t0, deadline): in-flight
     * remains plus nominal cost per upcoming release, scaled by the
     * currently observed throughput (the device's cycle counter sees
     * spikes as measured cost).
     */
    double
    interferenceCycles(int self, double t0, double deadline)
    {
        double cycles = 0.0;
        for (size_t j = 0; j < tasks.size(); ++j) {
            int idx = static_cast<int>(j);
            if (idx == self || !beats(idx, self))
                continue;
            Task &o = tasks[j];
            if (const Work *w = findWork(idx))
                cycles += w->remainingCycles;
            double nom =
                o.nominalCycles * faults.spikeFactor(o.spec.name, t0);
            for (double r = o.releaseAt; r < deadline;
                 r += o.spec.periodS)
                cycles += nom;
        }
        return cycles;
    }

    void
    revealWaypoints(Task &t, double time)
    {
        const plant::Scenario &sc = t.spec.scenario;
        while (t.revealed < static_cast<int>(sc.waypoints.size()) &&
               time >= sc.intervalS * static_cast<double>(t.revealed))
            ++t.revealed;
    }

    void
    releaseTask(int idx, double tr)
    {
        Task &t = tasks[static_cast<size_t>(idx)];
        const double deadline = t.nominalRelease + t.spec.periodS;
        // Advance the release train before anything can early-return.
        t.nominalRelease += t.spec.periodS;
        t.releaseAt = jitteredRelease(t);

        t.stats.releases += 1;
        obs::count(schedIds().releases);

        if (t.inFlight) {
            // Previous activation still owns the controller: this
            // tick is shed unserved — a miss with no completion.
            t.stats.drops += 1;
            obs::count(schedIds().drops);
            recordMiss(t, -1.0);
            return;
        }

        if (!t.live()) {
            if (faults.sensorDropped(t.spec.name, tr)) {
                t.stats.sensorDropTicks += 1;
                countDroppedTick();
                return;
            }
            double spike = faults.spikeFactor(t.spec.name, tr);
            double stall = faults.stallCycles(t.spec.name, tr);
            if (spike > 1.0) {
                t.stats.spikedSolves += 1;
                countSpikedSolve();
            }
            if (stall > 0.0) {
                t.stats.stalledSolves += 1;
                countStalledSolve();
            }
            ready.push_back(Work{idx, t.spec.wcetCycles * spike + stall,
                                 tr, deadline, false});
            t.inFlight = true;
            return;
        }

        if (faults.sensorDropped(t.spec.name, tr)) {
            // The state sample never arrived: nothing to solve
            // against — zero-order hold until the next tick.
            t.stats.sensorDropTicks += 1;
            countDroppedTick();
            return;
        }

        // Measured per-tick costs: calibrated timing scaled by the
        // currently observed throughput (spikes/stalls are visible to
        // a device that reads its cycle counter).
        double spike = faults.spikeFactor(t.spec.name, tr);
        double stall = faults.stallCycles(t.spec.name, tr);
        const hil::ControllerTiming &tm = t.spec.timing;
        double base = tm.baseCycles * spike + stall;
        double per_iter = tm.cyclesPerIter * spike;
        bool relin_due = t.session->refreshDue();
        double refresh_est =
            tm.refreshCycles(t.lastRefreshIters) * spike;
        double slack =
            (deadline - tr - t.uartS) * cfg.freqHz -
            interferenceCycles(idx, tr, deadline) -
            cfg.ctxSwitchCycles;

        AnytimeDecision d =
            t.governor.decide(slack, base, per_iter, t.spec.maxIters,
                              relin_due, refresh_est);
        if (d.level == DegradeLevel::Hold) {
            // Shed the whole tick: the last command keeps flying.
            t.stats.holdTicks += 1;
            obs::count(schedIds().holds);
            return;
        }

        revealWaypoints(t, tr);
        int target = std::max(0, t.revealed - 1);
        RTOC_SPAN_NAMED(span, "sched.solve", "sched");
        hil::ControlSession::TickOptions opt;
        opt.maxIters = d.iterBudget;
        opt.skipRefresh = d.skipRefresh;
        hil::ControlSession::TickResult tick = t.session->tick(
            t.plant->reference(
                t.spec.scenario.waypoints[static_cast<size_t>(target)]),
            opt);
        span.arg("iters",
                 static_cast<uint64_t>(tick.solve.iterations));
        span.arg("level", static_cast<uint64_t>(d.level));

        t.stats.solves += 1;
        obs::count(schedIds().solves);
        t.iterSum += static_cast<double>(tick.solve.iterations);
        if (d.level == DegradeLevel::ReducedIters) {
            t.stats.reducedIterTicks += 1;
            obs::count(schedIds().reducedIters);
        } else if (d.level == DegradeLevel::SkipRelin) {
            t.stats.skippedRelinTicks += 1;
            obs::count(schedIds().skippedRelin);
        }
        if (spike > 1.0) {
            t.stats.spikedSolves += 1;
            countSpikedSolve();
        }
        if (stall > 0.0) {
            t.stats.stalledSolves += 1;
            countStalledSolve();
        }

        double cycles =
            base + per_iter * static_cast<double>(tick.solve.iterations);
        if (tick.refreshAttempted) {
            cycles += tm.refreshCycles(tick.riccatiIters) * spike;
            if (tick.riccatiIters > 0)
                t.lastRefreshIters = tick.riccatiIters;
        }
        t.stagedCmd = t.session->command();
        ready.push_back(Work{idx, cycles, tr, deadline, false});
        t.inFlight = true;
    }

    void
    fireReleases()
    {
        for (int idx : releaseOrder) {
            Task &t = tasks[static_cast<size_t>(idx)];
            if (t.releaseAt <= now)
                releaseTask(idx, t.releaseAt);
        }
    }

    void
    completeWork(const Work &w, double tc)
    {
        Task &t = tasks[static_cast<size_t>(w.task)];
        t.inFlight = false;
        double done = tc;
        if (t.live()) {
            done += t.uartS; // command crosses the tether first
            t.pendingCmd = t.stagedCmd;
            t.applyAt = done;
        }
        t.stats.responseMaxS =
            std::max(t.stats.responseMaxS, done - w.release);
        if (done > w.deadline + kDeadlineEps)
            recordMiss(t, done - w.deadline);
        else
            t.streak = 0;
    }

    void
    runBackground(double span_s)
    {
        if (bgs.empty() || span_s <= 0.0)
            return;
        // Idle core time is shared evenly across background tasks
        // (round-robin at an infinitesimal quantum).
        double share = span_s / static_cast<double>(bgs.size());
        for (Bg &bg : bgs) {
            bg.busyS += share;
            if (bg.spec.frameCycles <= 0.0)
                continue;
            double frame_s = bg.spec.frameCycles / cfg.freqHz;
            bg.progressS += share;
            while (bg.progressS >= frame_s) {
                bg.progressS -= frame_s;
                bg.completions += 1;
            }
        }
    }

    /** Drive the core through (now, until]: releases, preemptive
     *  execution, completions, background fill. */
    void
    advanceCore(double until)
    {
        for (;;) {
            double tr = nextReleaseTime();
            if (tr <= until && tr <= now) {
                fireReleases();
                continue;
            }
            if (now >= until)
                break;
            double limit = std::min(until, tr);
            Work *w = pickReady();
            if (!w) {
                runBackground(limit - now);
                if (lastRan != -3)
                    lastRan = -2;
                now = limit;
                continue;
            }
            Task &t = tasks[static_cast<size_t>(w->task)];
            if (lastRan != w->task) {
                if (lastRan >= 0) {
                    if (Work *prev = findWork(lastRan)) {
                        if (prev->started) {
                            tasks[static_cast<size_t>(lastRan)]
                                .stats.preemptions += 1;
                            obs::count(schedIds().preemptions);
                        }
                    }
                }
                if (lastRan != -3) {
                    ++ctxSwitches;
                    w->remainingCycles += cfg.ctxSwitchCycles;
                }
                lastRan = w->task;
            }
            double finish = now + w->remainingCycles / cfg.freqHz;
            if (finish <= limit) {
                t.stats.busyS += finish - now;
                now = finish;
                Work done = *w;
                removeWork(done.task);
                completeWork(done, now);
            } else {
                double span = limit - now;
                t.stats.busyS += span;
                w->remainingCycles -= span * cfg.freqHz;
                w->started = true;
                now = limit;
            }
        }
    }

    void
    stepPhysics(double t0, double t1)
    {
        double dt = t1 - t0;
        for (Task &t : tasks) {
            if (!t.live() || t.stats.crashed)
                continue;
            if (t.applyAt >= 0.0 && t.applyAt <= t1) {
                t.currentCmd = t.pendingCmd;
                t.applyAt = -1.0;
            }
            t.plant->step(t.currentCmd, dt);
            revealWaypoints(t, t1);
            const plant::Scenario &sc = t.spec.scenario;
            if (t.revealed > 0) {
                double d = t.plant->distanceTo(
                    sc.waypoints[static_cast<size_t>(t.revealed - 1)]);
                t.trackSum += d;
                t.trackN += 1;
                t.stats.maxTrackingErrM =
                    std::max(t.stats.maxTrackingErrM, d);
            }
            if (t.plant->crashed()) {
                // Dead session: stop releasing and free the core.
                t.stats.crashed = true;
                t.releaseAt = kInf;
                removeWork(findIndex(t));
                t.inFlight = false;
                continue;
            }
            while (t.reached < t.revealed &&
                   t.plant->distanceTo(sc.waypoints[static_cast<size_t>(
                       t.reached)]) < t.plant->reachRadius())
                ++t.reached;
        }
    }

    int
    findIndex(const Task &t) const
    {
        return static_cast<int>(&t - tasks.data());
    }

    ScheduleRunResult
    finalize()
    {
        ScheduleRunResult res;
        res.horizonS = cfg.horizonS;
        res.ctxSwitches = ctxSwitches;
        double busy = 0.0;
        for (Task &t : tasks) {
            t.stats.name = t.spec.name;
            t.stats.utilization = t.stats.busyS / cfg.horizonS;
            t.stats.avgIters =
                t.stats.solves
                    ? t.iterSum / static_cast<double>(t.stats.solves)
                    : 0.0;
            t.stats.degradeTransitions = t.governor.transitions();
            if (t.live()) {
                t.stats.waypointsReached = t.reached;
                t.stats.trackingErrM =
                    t.trackN ? t.trackSum /
                                   static_cast<double>(t.trackN)
                             : 0.0;
                t.stats.success =
                    !t.stats.crashed &&
                    t.reached == static_cast<int>(
                                     t.spec.scenario.waypoints.size());
            }
            busy += t.stats.busyS;
            res.tasks.push_back(t.stats);
        }
        for (const Bg &bg : bgs) {
            BackgroundStats bs;
            bs.name = bg.spec.name;
            bs.completions = bg.completions;
            bs.fps =
                static_cast<double>(bg.completions) / cfg.horizonS;
            bs.utilization = bg.busyS / cfg.horizonS;
            busy += bg.busyS;
            res.background.push_back(bs);
        }
        res.utilization = busy / cfg.horizonS;
        return res;
    }
};

RtScheduler::RtScheduler(SchedulerConfig cfg)
    : impl_(std::make_unique<Impl>(std::move(cfg)))
{
    if (impl_->cfg.freqHz <= 0.0 || impl_->cfg.horizonS <= 0.0 ||
        impl_->cfg.physicsDtS <= 0.0)
        rtoc_fatal("bad scheduler config f=%g horizon=%g dt=%g",
                   impl_->cfg.freqHz, impl_->cfg.horizonS,
                   impl_->cfg.physicsDtS);
}

RtScheduler::~RtScheduler() = default;

void
RtScheduler::addTask(TaskSpec spec)
{
    if (impl_->ran)
        rtoc_fatal("addTask after run()");
    Impl::Task t;
    t.spec = std::move(spec);
    impl_->tasks.push_back(std::move(t));
}

void
RtScheduler::addBackground(BackgroundTask bg)
{
    if (impl_->ran)
        rtoc_fatal("addBackground after run()");
    impl_->bgs.push_back(Impl::Bg{std::move(bg), 0.0, 0.0, 0});
}

ScheduleRunResult
RtScheduler::run()
{
    Impl &im = *impl_;
    if (im.ran)
        rtoc_fatal("RtScheduler::run is one-shot per instance");
    im.ran = true;

    RTOC_SPAN_NAMED(span, "sched.run", "sched");
    obs::count(schedIds().runs);

    im.faults = im.cfg.faults;
    if (im.cfg.useEnvFaults) {
        const FaultTrace &env = FaultTrace::env();
        im.faults.events.insert(im.faults.events.end(),
                                env.events.begin(), env.events.end());
    }

    im.initTasks();
    im.advanceCore(0.0); // releases at exactly t = 0

    double t = 0.0;
    while (t < im.cfg.horizonS) {
        double tn = std::min(t + im.cfg.physicsDtS, im.cfg.horizonS);
        im.advanceCore(tn);
        im.stepPhysics(t, tn);
        t = tn;
    }

    // Activations still on the core at the horizon boundary: the run
    // ends before they complete, but a deadline can already be lost.
    // Charge a miss when even the optimistic completion estimate —
    // finishing the remaining cycles uninterrupted from the boundary,
    // plus the link latency — lands past the deadline. No response
    // time is recorded for them: they never completed.
    for (const Impl::Work &w : im.ready) {
        Impl::Task &t = im.tasks[static_cast<size_t>(w.task)];
        double done_est = im.now + w.remainingCycles / im.cfg.freqHz +
                          (t.live() ? t.uartS : 0.0);
        if (done_est > w.deadline + kDeadlineEps)
            im.recordMiss(t, done_est - w.deadline);
    }

    ScheduleRunResult res = im.finalize();
    span.arg("tasks", static_cast<uint64_t>(res.tasks.size()));
    span.arg("misses", res.totalMisses());
    return res;
}

} // namespace rtoc::sched
