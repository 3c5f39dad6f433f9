/**
 * @file
 * Shared-SoC scheduler tests: lazy sched.* and fault.* counter interning
 * (the byte-identity contract for scheduler-free processes), the
 * anytime solver contract (full budget bit-identical, budgets cap
 * iterations), the AnytimeGovernor ladder and its recovery
 * hysteresis, FaultTrace parsing round trips (on hostile truncated and
 * substituted specs too), deterministic ladder
 * engagement under an injected compute stall, parallel == serial
 * scheduler sweeps under an explicit 4-thread pool, and RtScheduler's
 * fixed-cost task path against fixed-priority response-time analysis
 * (Joseph & Pandya, 1986) on seeded random task sets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "hil/episode.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "matlib/scalar_backend.hh"
#include "obs/registry.hh"
#include "plant/registry.hh"
#include "sched/anytime.hh"
#include "sched/fault.hh"
#include "sched/scheduler.hh"
#include "tinympc/solver.hh"

namespace rtoc {
namespace {

bool
hasCounterWithPrefix(const obs::Snapshot &s, const std::string &prefix)
{
    for (const auto &kv : s.values()) {
        if (kv.first.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

/** Registry easy clean spec for a plant-name prefix. */
plant::ScenarioSpec
easySpec(const std::string &prefix)
{
    for (plant::ScenarioSpec &s :
         plant::ScenarioRegistry::global().specs()) {
        if (s.plantName.rfind(prefix, 0) == 0 &&
            s.difficulty == plant::Difficulty::Easy)
            return s;
    }
    ADD_FAILURE() << "no registry spec for prefix " << prefix;
    return {};
}

sched::TaskSpec
liveTask(const char *prefix, double rate_hz, int priority)
{
    plant::ScenarioSpec spec = easySpec(prefix);
    sched::TaskSpec t;
    t.name = spec.plantName;
    t.priority = priority;
    t.periodS = 1.0 / rate_hz;
    t.plant = spec.prototype;
    t.scenario = spec.makeScenario(0);
    t.timing = hil::namedControllerTiming("scalar", *spec.prototype,
                                          t.periodS, t.horizon);
    return t;
}

void
expectTaskStatsEq(const sched::TaskStats &a, const sched::TaskStats &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.releases, b.releases);
    EXPECT_EQ(a.solves, b.solves);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.drops, b.drops);
    EXPECT_EQ(a.missStreakMax, b.missStreakMax);
    EXPECT_EQ(a.latenessS.size(), b.latenessS.size());
    EXPECT_EQ(a.responseMaxS, b.responseMaxS);
    EXPECT_EQ(a.busyS, b.busyS);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.avgIters, b.avgIters);
    EXPECT_EQ(a.reducedIterTicks, b.reducedIterTicks);
    EXPECT_EQ(a.skippedRelinTicks, b.skippedRelinTicks);
    EXPECT_EQ(a.holdTicks, b.holdTicks);
    EXPECT_EQ(a.degradeTransitions, b.degradeTransitions);
    EXPECT_EQ(a.spikedSolves, b.spikedSolves);
    EXPECT_EQ(a.stalledSolves, b.stalledSolves);
    EXPECT_EQ(a.sensorDropTicks, b.sensorDropTicks);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.waypointsReached, b.waypointsReached);
    EXPECT_EQ(a.trackingErrM, b.trackingErrM);
    EXPECT_EQ(a.maxTrackingErrM, b.maxTrackingErrM);
}

// ---------------------------------------------------------------------
// Lazy interning. This test MUST run first in the binary (gtest runs
// suites in definition order): it asserts the process-wide registry
// has no sched.*/fault.* names until the scheduler actually engages.
// ---------------------------------------------------------------------

TEST(SchedCountersFirst, InternOnlyWhenEngaged)
{
    obs::Registry &reg = obs::Registry::global();

    // Phase a: a plain single-session episode must not intern either
    // family — the pre-scheduler pipeline's metrics stay byte-stable.
    {
        plant::ScenarioSpec spec = easySpec("quad");
        std::unique_ptr<plant::Plant> p = spec.makePlant();
        plant::Scenario sc = spec.makeScenario(0);
        hil::HilConfig cfg;
        hil::EpisodeResult r = hil::runEpisode(*p, sc, cfg);
        EXPECT_GT(r.iterations.size(), 0u);
    }
    obs::Snapshot after_episode = reg.snapshot();
    EXPECT_FALSE(hasCounterWithPrefix(after_episode, "sched."));
    EXPECT_FALSE(hasCounterWithPrefix(after_episode, "fault."));

    // Phase b: a fault-free scheduler run interns sched.* but must
    // keep fault.* out of the registry.
    {
        sched::SchedulerConfig cfg;
        cfg.horizonS = 0.2;
        cfg.useEnvFaults = false;
        sched::RtScheduler rs(cfg);
        rs.addTask(liveTask("quad", 50.0, 1));
        sched::ScheduleRunResult r = rs.run();
        EXPECT_GT(r.tasks[0].solves, 0u);
    }
    obs::Snapshot after_sched = reg.snapshot();
    EXPECT_TRUE(hasCounterWithPrefix(after_sched, "sched."));
    EXPECT_GT(after_sched.get("sched.runs"), 0u);
    EXPECT_GT(after_sched.get("sched.solves"), 0u);
    EXPECT_FALSE(hasCounterWithPrefix(after_sched, "fault."));

    // Phase c: the first applied fault interns fault.*.
    {
        sched::SchedulerConfig cfg;
        cfg.horizonS = 0.2;
        cfg.useEnvFaults = false;
        sched::FaultEvent spike;
        spike.kind = sched::FaultKind::CycleSpike;
        spike.t0 = 0.0;
        spike.lenS = 1.0;
        spike.factor = 2.0;
        cfg.faults.events.push_back(spike);
        sched::RtScheduler rs(cfg);
        rs.addTask(liveTask("quad", 50.0, 1));
        sched::ScheduleRunResult r = rs.run();
        EXPECT_GT(r.tasks[0].spikedSolves, 0u);
    }
    obs::Snapshot after_fault = reg.snapshot();
    EXPECT_TRUE(hasCounterWithPrefix(after_fault, "fault."));
    EXPECT_GT(after_fault.get("fault.spiked_solves"), 0u);
}

// ---------------------------------------------------------------------
// Anytime solver contract.
// ---------------------------------------------------------------------

struct SolveCapture
{
    tinympc::SolveResult res;
    std::vector<float> u, x;
};

SolveCapture
solveWithBudget(const std::string &plant_name, int budget)
{
    std::unique_ptr<plant::Plant> plant =
        plant::ScenarioRegistry::global().makePlant(plant_name);
    EXPECT_NE(plant, nullptr) << plant_name;
    plant->reset();
    tinympc::Workspace ws = plant->buildWorkspace(0.02, 10);
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    tinympc::Solver solver(ws, backend, tinympc::MappingStyle::Library);
    std::vector<float> x0(static_cast<size_t>(plant->nx()), 0.0f);
    plant->packState(x0.data());
    ws.setInitialState(x0.data());
    ws.setReferenceAll(plant->reference(plant->home()));

    SolveCapture c;
    c.res = solver.solve(budget);
    size_t un = static_cast<size_t>(ws.u.rows()) *
                static_cast<size_t>(ws.u.cols());
    size_t xn = static_cast<size_t>(ws.x.rows()) *
                static_cast<size_t>(ws.x.cols());
    c.u.assign(ws.u.data(), ws.u.data() + un);
    c.x.assign(ws.x.data(), ws.x.data() + xn);
    return c;
}

TEST(AnytimeSolver, FullBudgetBitIdenticalAllPlants)
{
    for (const std::string &name :
         plant::ScenarioRegistry::global().plantNames()) {
        SolveCapture unbudgeted = solveWithBudget(name, 0);
        SolveCapture full = solveWithBudget(name, 25);
        SolveCapture over = solveWithBudget(name, 1000);

        // Budget == maxIters and budget > maxIters are both the
        // historical unbudgeted path, bit for bit.
        EXPECT_EQ(unbudgeted.res.iterations, full.res.iterations)
            << name;
        EXPECT_EQ(unbudgeted.res.converged, full.res.converged) << name;
        EXPECT_EQ(unbudgeted.u, full.u) << name;
        EXPECT_EQ(unbudgeted.x, full.x) << name;
        EXPECT_EQ(unbudgeted.u, over.u) << name;
        EXPECT_EQ(unbudgeted.x, over.x) << name;
    }
}

TEST(AnytimeSolver, BudgetCapsIterations)
{
    for (const std::string &name :
         plant::ScenarioRegistry::global().plantNames()) {
        SolveCapture c = solveWithBudget(name, 3);
        // checkTermination=5 never fires inside 3 iterations, so the
        // budget is spent exactly.
        EXPECT_EQ(c.res.iterations, 3) << name;
        EXPECT_FALSE(c.res.converged) << name;
    }
}

// ---------------------------------------------------------------------
// AnytimeGovernor ladder + hysteresis.
// ---------------------------------------------------------------------

TEST(Governor, LadderEngagesBySlack)
{
    sched::AnytimeConfig cfg;
    cfg.minIters = 4;
    cfg.recoveryTicks = 2;
    cfg.slackSafety = 1.0;

    const double base = 1000.0, pi = 100.0, refresh = 5000.0;
    const int nominal = 25;

    {
        sched::AnytimeGovernor g(cfg);
        sched::AnytimeDecision d =
            g.decide(1e9, base, pi, nominal, false, refresh);
        EXPECT_EQ(d.level, sched::DegradeLevel::Full);
        EXPECT_EQ(d.iterBudget, nominal);
        EXPECT_FALSE(d.skipRefresh);
        EXPECT_EQ(g.transitions(), 0);
    }
    {
        // Slack fits exactly 10 iterations -> ReducedIters.
        sched::AnytimeGovernor g(cfg);
        sched::AnytimeDecision d = g.decide(base + 10.0 * pi, base, pi,
                                            nominal, false, refresh);
        EXPECT_EQ(d.level, sched::DegradeLevel::ReducedIters);
        EXPECT_EQ(d.iterBudget, 10);
        EXPECT_EQ(g.transitions(), 1);
    }
    {
        // Refresh due and unaffordable, solve still fits -> SkipRelin.
        sched::AnytimeGovernor g(cfg);
        sched::AnytimeDecision d = g.decide(base + 5.0 * pi, base, pi,
                                            nominal, true, refresh);
        EXPECT_EQ(d.level, sched::DegradeLevel::SkipRelin);
        EXPECT_EQ(d.iterBudget, 5);
        EXPECT_TRUE(d.skipRefresh);
    }
    {
        // Below minIters even without the refresh -> Hold.
        sched::AnytimeGovernor g(cfg);
        sched::AnytimeDecision d = g.decide(base + 2.0 * pi, base, pi,
                                            nominal, false, refresh);
        EXPECT_EQ(d.level, sched::DegradeLevel::Hold);
        EXPECT_EQ(d.iterBudget, 0);
        EXPECT_TRUE(d.skipRefresh);
    }
}

TEST(Governor, RecoveryHysteresisStepsOneLevel)
{
    sched::AnytimeConfig cfg;
    cfg.minIters = 4;
    cfg.recoveryTicks = 2;
    cfg.slackSafety = 1.0;
    sched::AnytimeGovernor g(cfg);

    const double base = 1000.0, pi = 100.0;
    // Degrade straight to Hold.
    g.decide(0.0, base, pi, 25, false, 0.0);
    EXPECT_EQ(g.level(), sched::DegradeLevel::Hold);
    EXPECT_EQ(g.transitions(), 1);

    // Recovery takes recoveryTicks healthy ticks per rung: Hold ->
    // SkipRelin -> ReducedIters -> Full, never skipping a level even
    // though the slack is instantly generous again.
    g.decide(1e9, base, pi, 25, false, 0.0);
    EXPECT_EQ(g.level(), sched::DegradeLevel::Hold);
    g.decide(1e9, base, pi, 25, false, 0.0);
    EXPECT_EQ(g.level(), sched::DegradeLevel::SkipRelin);
    g.decide(1e9, base, pi, 25, false, 0.0);
    EXPECT_EQ(g.level(), sched::DegradeLevel::SkipRelin);
    g.decide(1e9, base, pi, 25, false, 0.0);
    EXPECT_EQ(g.level(), sched::DegradeLevel::ReducedIters);
    g.decide(1e9, base, pi, 25, false, 0.0);
    g.decide(1e9, base, pi, 25, false, 0.0);
    EXPECT_EQ(g.level(), sched::DegradeLevel::Full);
    EXPECT_EQ(g.transitions(), 4);

    // A fresh overload mid-recovery degrades immediately again.
    sched::AnytimeDecision d = g.decide(0.0, base, pi, 25, false, 0.0);
    EXPECT_EQ(d.level, sched::DegradeLevel::Hold);
}

TEST(Governor, DisabledIsFixedIterationBaseline)
{
    sched::AnytimeConfig cfg;
    cfg.enabled = false;
    sched::AnytimeGovernor g(cfg);
    sched::AnytimeDecision d = g.decide(0.0, 1e9, 1e9, 25, true, 1e9);
    EXPECT_EQ(d.level, sched::DegradeLevel::Full);
    EXPECT_EQ(d.iterBudget, 25);
    EXPECT_FALSE(d.skipRefresh);
    EXPECT_EQ(g.transitions(), 0);
}

// ---------------------------------------------------------------------
// FaultTrace parsing.
// ---------------------------------------------------------------------

TEST(FaultTrace, ParseRoundTrip)
{
    const std::string spec =
        "spike@2+1x2.5;task=quad:drop@3.5+0.1;stall@4+0.5c50000";
    std::optional<sched::FaultTrace> t = sched::FaultTrace::parse(spec);
    ASSERT_TRUE(t.has_value());
    ASSERT_EQ(t->events.size(), 3u);

    EXPECT_EQ(t->events[0].kind, sched::FaultKind::CycleSpike);
    EXPECT_EQ(t->events[0].t0, 2.0);
    EXPECT_EQ(t->events[0].lenS, 1.0);
    EXPECT_EQ(t->events[0].factor, 2.5);
    EXPECT_TRUE(t->events[0].task.empty());

    EXPECT_EQ(t->events[1].kind, sched::FaultKind::SensorDrop);
    EXPECT_EQ(t->events[1].task, "quad");
    EXPECT_EQ(t->events[1].t0, 3.5);

    EXPECT_EQ(t->events[2].kind, sched::FaultKind::ComputeStall);
    EXPECT_EQ(t->events[2].cycles, 50000.0);

    // spec() emits canonical text that parses back to the same trace.
    EXPECT_EQ(t->spec(), spec);
    std::optional<sched::FaultTrace> again =
        sched::FaultTrace::parse(t->spec());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->spec(), spec);
}

TEST(FaultTrace, HostileSpecsRejectedOrRoundTrip)
{
    // Every proper prefix of the two valid specs the tests around this
    // one parse, and every substitution of one byte by one of "@+xc;=:"
    // or a digit, parses to nullopt or to a trace whose spec() parses
    // back to itself.
    auto clean = [](const std::string &text) -> testing::AssertionResult {
        const std::optional<sched::FaultTrace> t =
            sched::FaultTrace::parse(text);
        if (!t)
            return testing::AssertionSuccess();
        const std::string canon = t->spec();
        const std::optional<sched::FaultTrace> again =
            sched::FaultTrace::parse(canon);
        if (!again)
            return testing::AssertionFailure()
                   << "'" << text << "' -> '" << canon << "' rejected";
        if (again->spec() != canon)
            return testing::AssertionFailure()
                   << "'" << text << "' -> '" << canon << "' -> '"
                   << again->spec() << "'";
        return testing::AssertionSuccess();
    };
    for (const std::string spec :
         {"spike@2+1x2.5;task=quad:drop@3.5+0.1;stall@4+0.5c50000",
          "task=quad:spike@1+2x3;stall@0+1c100"}) {
        ASSERT_TRUE(sched::FaultTrace::parse(spec).has_value()) << spec;
        for (size_t n = 0; n < spec.size(); ++n)
            EXPECT_TRUE(clean(spec.substr(0, n)));
        for (size_t i = 0; i < spec.size(); ++i) {
            for (char c : std::string("@+xc;=:7")) {
                std::string s = spec;
                s[i] = c;
                EXPECT_TRUE(clean(s));
            }
        }
    }
}

TEST(FaultTrace, QueriesRespectWindowAndTaskScope)
{
    sched::FaultTrace t =
        *sched::FaultTrace::parse("task=quad:spike@1+2x3;stall@0+1c100");
    // Window is [t0, t0+len).
    EXPECT_EQ(t.spikeFactor("quad", 0.999), 1.0);
    EXPECT_EQ(t.spikeFactor("quad", 1.0), 3.0);
    EXPECT_EQ(t.spikeFactor("quad", 2.999), 3.0);
    EXPECT_EQ(t.spikeFactor("quad", 3.0), 1.0);
    // Task-scoped events miss other tasks; unscoped hit everything.
    EXPECT_EQ(t.spikeFactor("rover", 1.5), 1.0);
    EXPECT_EQ(t.stallCycles("rover", 0.5), 100.0);
    EXPECT_FALSE(t.sensorDropped("quad", 1.5));
}

TEST(FaultTrace, MalformedSpecsRejected)
{
    EXPECT_FALSE(sched::FaultTrace::parse("spike@1").has_value());
    EXPECT_FALSE(sched::FaultTrace::parse("spike@1+1").has_value());
    EXPECT_FALSE(sched::FaultTrace::parse("wobble@1+1x2").has_value());
    EXPECT_FALSE(sched::FaultTrace::parse("task=:spike@1+1x2").has_value());
    EXPECT_FALSE(sched::FaultTrace::parse("drop@1+0").has_value());
    EXPECT_FALSE(sched::FaultTrace::parse("stall@1+1c0").has_value());
    EXPECT_FALSE(sched::FaultTrace::parse("spike@-1+1x2").has_value());
    EXPECT_FALSE(sched::FaultTrace::parse("drop@1+1trailing").has_value());

    // Empty spec is the fault-free trace, not an error.
    std::optional<sched::FaultTrace> empty = sched::FaultTrace::parse("");
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());
}

// ---------------------------------------------------------------------
// Scheduler behaviour.
// ---------------------------------------------------------------------

sched::ScheduleRunResult
runStallStudy(bool anytime)
{
    sched::SchedulerConfig cfg;
    cfg.useEnvFaults = false;
    cfg.horizonS = 2.0;
    sched::TaskSpec quad = liveTask("quad", 50.0, 1);
    quad.checkTerminationEvery = quad.maxIters + 1; // fixed-cost ticks
    quad.anytime.enabled = anytime;
    // Core sized to 50% nominal utilization for the fixed bound.
    cfg.freqHz = 50.0 * quad.timing.solveCycles(quad.maxIters) / 0.5;
    // A stall worth ~55% of the period on every solve in [0.5, 1.0):
    // nominal no longer fits, a reduced budget does.
    sched::FaultEvent stall;
    stall.kind = sched::FaultKind::ComputeStall;
    stall.t0 = 0.5;
    stall.lenS = 0.5;
    stall.cycles = 0.55 * 0.02 * cfg.freqHz;
    cfg.faults.events.push_back(stall);
    sched::RtScheduler rs(cfg);
    rs.addTask(std::move(quad));
    return rs.run();
}

TEST(SchedRt, StallEngagesLadderDeterministically)
{
    sched::ScheduleRunResult a = runStallStudy(true);
    const sched::TaskStats &t = a.tasks[0];
    EXPECT_GT(t.stalledSolves, 0u);
    // The ladder sheds load during the stall window and absorbs it.
    EXPECT_GT(t.reducedIterTicks + t.holdTicks, 0u);
    EXPECT_EQ(t.misses, 0u);
    EXPECT_GT(t.degradeTransitions, 0);
    EXPECT_FALSE(t.crashed);

    // Bit-identical on a re-run: seeded jitter, deterministic faults.
    sched::ScheduleRunResult b = runStallStudy(true);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    expectTaskStatsEq(a.tasks[0], b.tasks[0]);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.ctxSwitches, b.ctxSwitches);

    // The fixed-iteration baseline misses under the same trace — the
    // ladder is what absorbs the stall.
    sched::ScheduleRunResult base = runStallStudy(false);
    EXPECT_GT(base.tasks[0].misses, 0u);
    EXPECT_GT(base.maxMissStreak(), a.maxMissStreak());
}

sched::ScheduleRunResult
runPairAt(double freq_hz)
{
    sched::SchedulerConfig cfg;
    cfg.useEnvFaults = false;
    cfg.freqHz = freq_hz;
    cfg.horizonS = 1.0;
    sched::FaultEvent spike;
    spike.kind = sched::FaultKind::CycleSpike;
    spike.t0 = 0.2;
    spike.lenS = 0.3;
    spike.factor = 2.0;
    cfg.faults.events.push_back(spike);
    sched::RtScheduler rs(cfg);
    sched::TaskSpec quad = liveTask("quad", 50.0, 2);
    quad.releaseJitterFrac = 0.05;
    rs.addTask(std::move(quad));
    sched::TaskSpec rover = liveTask("rover", 25.0, 1);
    rover.releaseJitterFrac = 0.05;
    rs.addTask(std::move(rover));
    return rs.run();
}

TEST(SchedRt, ParallelSweepMatchesSerial)
{
    const std::vector<double> freqs = {40e6, 60e6, 80e6, 100e6};

    std::vector<sched::ScheduleRunResult> serial;
    for (double f : freqs)
        serial.push_back(runPairAt(f));

    ThreadPool pool(4);
    hil::SweepRunner runner(pool);
    std::vector<sched::ScheduleRunResult> parallel =
        runner.map<sched::ScheduleRunResult>(
            freqs.size(), [&](size_t i) { return runPairAt(freqs[i]); });

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].tasks.size(), parallel[i].tasks.size());
        for (size_t j = 0; j < serial[i].tasks.size(); ++j)
            expectTaskStatsEq(serial[i].tasks[j], parallel[i].tasks[j]);
        EXPECT_EQ(serial[i].utilization, parallel[i].utilization);
        EXPECT_EQ(serial[i].ctxSwitches, parallel[i].ctxSwitches);
    }
}

/** A fixed-WCET task in whole cycles, for the analysis below. */
struct RtaTask
{
    int priority = 0;
    int64_t periodCycles = 0;
    int64_t wcetCycles = 0;
};

/**
 * Fixed-priority response-time analysis (Joseph & Pandya, 1986): the
 * least fixed point of
 *   R = C_i + c + sum over j beating i of ceil(R / T_j) * (C_j + 2c),
 * where "beats" is RtScheduler's order (priority, then lower index)
 * and c is the context-switch charge: one switch into task i, and one
 * into each higher-priority job plus one back out of it. nullopt once
 * R passes the period. With c = 0 this is the exact response time of
 * the synchronous first job, the critical instant.
 */
std::optional<int64_t>
responseTimeCycles(const std::vector<RtaTask> &set, size_t i, int64_t c)
{
    const RtaTask &me = set[i];
    int64_t r = me.wcetCycles + c;
    for (;;) {
        int64_t next = me.wcetCycles + c;
        for (size_t j = 0; j < set.size(); ++j) {
            const RtaTask &o = set[j];
            const bool beats = o.priority != me.priority
                                   ? o.priority > me.priority
                                   : j < i;
            if (beats)
                next += (r + o.periodCycles - 1) / o.periodCycles *
                        (o.wcetCycles + 2 * c);
        }
        if (next > me.periodCycles)
            return std::nullopt;
        if (next == r)
            return r;
        r = next;
    }
}

TEST(SchedRt, FixedTasksMeetResponseTimeAnalysis)
{
    // Seeded random sets of 2-5 fixed-WCET tasks: whole-millisecond
    // periods of 5-50 ms, priorities from {0, 1, 2} so that ties fall
    // to the index order, and a random split of 20-95% utilization.
    // Every task releases at t = 0 with no jitter and no faults. Only
    // sets the analysis calls schedulable are run: a higher-priority
    // task past its period drops releases, and then a lower one sees
    // less interference than the analysis charges.
    const double freq = 100e6;
    const int64_t cycles_per_ms = 100000;
    int exact_sets = 0, bounded_sets = 0;
    Rng rng(0x5C4ED0A1ull);
    for (int set_idx = 0; set_idx < 400; ++set_idx) {
        const size_t n = 2 + rng.uniformInt(4);
        std::vector<RtaTask> set(n);
        std::vector<double> share(n);
        double share_sum = 0.0;
        for (double &w : share) {
            w = rng.uniform(0.1, 1.0);
            share_sum += w;
        }
        const double util = rng.uniform(0.2, 0.95);
        for (size_t i = 0; i < n; ++i) {
            set[i].priority = static_cast<int>(rng.uniformInt(3));
            set[i].periodCycles =
                static_cast<int64_t>(5 + rng.uniformInt(46)) *
                cycles_per_ms;
            set[i].wcetCycles = std::max<int64_t>(
                1, std::llround(util * share[i] / share_sum *
                                static_cast<double>(
                                    set[i].periodCycles)));
        }
        for (int64_t c : {int64_t{0}, int64_t{3000}}) {
            std::vector<int64_t> bound;
            for (size_t i = 0; i < n; ++i) {
                std::optional<int64_t> r = responseTimeCycles(set, i, c);
                if (!r)
                    break;
                bound.push_back(*r);
            }
            if (bound.size() < n)
                continue;
            (c == 0 ? exact_sets : bounded_sets) += 1;

            sched::SchedulerConfig cfg;
            cfg.useEnvFaults = false;
            cfg.freqHz = freq;
            cfg.horizonS = 2.0;
            cfg.ctxSwitchCycles = static_cast<double>(c);
            sched::RtScheduler rs(cfg);
            for (size_t i = 0; i < n; ++i) {
                sched::TaskSpec t;
                t.name = "t" + std::to_string(i);
                t.priority = set[i].priority;
                t.periodS = static_cast<double>(set[i].periodCycles /
                                                cycles_per_ms) /
                            1000.0;
                t.wcetCycles = static_cast<double>(set[i].wcetCycles);
                rs.addTask(std::move(t));
            }
            sched::ScheduleRunResult r = rs.run();
            for (size_t i = 0; i < n; ++i) {
                SCOPED_TRACE("set " + std::to_string(set_idx) + " task " +
                             std::to_string(i) + " c " +
                             std::to_string(c));
                const sched::TaskStats &ts = r.tasks[i];
                const double rta_s = static_cast<double>(bound[i]) / freq;
                EXPECT_EQ(ts.misses, 0u);
                EXPECT_EQ(ts.drops, 0u);
                if (c == 0)
                    EXPECT_NEAR(ts.responseMaxS, rta_s, 1e-9);
                else
                    EXPECT_LE(ts.responseMaxS, rta_s + 1e-9);
            }
        }
    }
    EXPECT_GE(exact_sets, 200);
    EXPECT_GE(bounded_sets, 200);
}

TEST(SchedRt, PreemptionChargesContextSwitches)
{
    // Low-priority long task + high-priority short task at offset
    // phases: the high-priority release preempts the in-flight low-
    // priority work.
    sched::SchedulerConfig cfg;
    cfg.useEnvFaults = false;
    cfg.freqHz = 1e6;
    cfg.horizonS = 1.0;
    cfg.ctxSwitchCycles = 100.0;
    sched::RtScheduler rs(cfg);
    sched::TaskSpec lo;
    lo.name = "lo";
    lo.priority = 0;
    lo.periodS = 0.1;
    lo.wcetCycles = 50000.0; // 50 ms of work per 100 ms period
    rs.addTask(std::move(lo));
    sched::TaskSpec hi;
    hi.name = "hi";
    hi.priority = 1;
    hi.periodS = 0.025;
    hi.wcetCycles = 2000.0; // 2 ms
    rs.addTask(std::move(hi));
    sched::ScheduleRunResult r = rs.run();

    // hi releases land inside lo's 50 ms burst: lo gets preempted.
    EXPECT_GT(r.tasks[0].preemptions, 0u);
    EXPECT_GT(r.ctxSwitches, 0u);
    EXPECT_EQ(r.tasks[1].preemptions, 0u); // nothing outranks hi
    EXPECT_EQ(r.tasks[0].misses, 0u);
    EXPECT_EQ(r.tasks[1].misses, 0u);
}

TEST(SchedRt, SensorDropHoldsWithoutSolving)
{
    sched::SchedulerConfig cfg;
    cfg.useEnvFaults = false;
    cfg.horizonS = 1.0;
    sched::FaultEvent drop;
    drop.kind = sched::FaultKind::SensorDrop;
    drop.t0 = 0.25;
    drop.lenS = 0.25;
    cfg.faults.events.push_back(drop);
    sched::RtScheduler rs(cfg);
    rs.addTask(liveTask("quad", 50.0, 1));
    sched::ScheduleRunResult r = rs.run();

    const sched::TaskStats &t = r.tasks[0];
    // 0.25 s of dropped ticks at 50 Hz, the rest solved.
    EXPECT_GT(t.sensorDropTicks, 10u);
    EXPECT_EQ(t.solves + t.sensorDropTicks + t.holdTicks, t.releases);
    EXPECT_FALSE(t.crashed);
}

} // namespace
} // namespace rtoc
