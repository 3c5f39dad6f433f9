/**
 * @file
 * rtocbench: the host-performance benchmark program behind
 * perfbench/run.py. It measures what rtoc itself costs to produce its
 * numbers (host time) next to the numbers it produces (simulated
 * time), for three workloads:
 *
 *  - hil_f32:    closed-loop episodes (every registry scenario spec x
 *                scalar/vector/gemmini timing, float32) plus the
 *                fixed-iteration vs anytime overload pair through
 *                RtScheduler::run;
 *  - hil_narrow: the same episode loop at bf16 and i16 on the
 *                vector and gemmini timings;
 *  - replay_dse: the timing simulator itself: single-config and
 *                8-lane batched replay per family and stream, the DSE
 *                explorer over the refined Figure-10 space, and a warm
 *                reload of every stream from the run's disk cache.
 *
 * Phases (--phase):
 *  - setup: cold emission + calibration into the (empty) cache named
 *           by RTOC_CACHE_DIR; prints the set-up time;
 *  - run:   set-up, the canonical seed-independent reference pass
 *           (digested and compared against the golden by run.py),
 *           the output checks, then the seeded measured loop for
 *           --seconds. With --trace=1 the loop runs once untraced and
 *           once traced (the difference is the tracing overhead) and
 *           the per-layer probe times the public calls below
 *           runEpisode.
 *
 * The last stdout line is one JSON object; run.py turns it into the
 * benchmark result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "dse_spaces.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "dse/explorer.hh"
#include "hil/control_session.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "isa/sched_search.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "numerics/dare.hh"
#include "obs/trace.hh"
#include "plant/quad_plant.hh"
#include "plant/registry.hh"
#include "sched/scheduler.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

using namespace rtoc;
using matlib::NumericFormat;

namespace {

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a digest over printed values (bit-exact doubles). */
class Digest
{
  public:
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 1099511628211ull;
        }
        h_ ^= 0xff;
        h_ *= 1099511628211ull;
    }
    void add(double v) { add(csprintf("%.17g", v)); }
    void add(uint64_t v) { add(csprintf("%llu", (unsigned long long)v)); }
    uint64_t value() const { return h_; }
    std::string hex() const
    {
        return csprintf("%016llx", (unsigned long long)h_);
    }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** Everything rtocbench reports; printed as one JSON line. */
struct Report
{
    std::vector<std::pair<std::string, std::string>> config;
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::pair<std::string, double>> metrics;
    /** Human-readable detail: name, value, unit (not bounded). */
    std::vector<std::tuple<std::string, double, std::string>> extras;
    std::string digest;
    double setupS = 0.0;

    void metric(const std::string &n, double v) { metrics.emplace_back(n, v); }
    void
    extra(const std::string &n, double v, const std::string &unit)
    {
        extras.emplace_back(n, v, unit);
    }
    void check(const std::string &n, bool ok) { checks.emplace_back(n, ok); }

    void
    print() const
    {
        std::string out = "{";
        out += csprintf("\"setup_s\": %.9g, \"digest\": \"%s\"",
                        setupS, digest.c_str());
        out += ", \"config\": {";
        for (size_t i = 0; i < config.size(); ++i) {
            out += csprintf("%s\"%s\": \"%s\"", i ? ", " : "",
                            config[i].first.c_str(),
                            config[i].second.c_str());
        }
        out += "}, \"checks\": [";
        for (size_t i = 0; i < checks.size(); ++i) {
            out += csprintf("%s[\"%s\", %s]", i ? ", " : "",
                            checks[i].first.c_str(),
                            checks[i].second ? "true" : "false");
        }
        out += "], \"metrics\": {";
        for (size_t i = 0; i < metrics.size(); ++i) {
            out += csprintf("%s\"%s\": %.17g", i ? ", " : "",
                            metrics[i].first.c_str(), metrics[i].second);
        }
        out += "}, \"extras\": [";
        for (size_t i = 0; i < extras.size(); ++i) {
            out += csprintf("%s[\"%s\", %.17g, \"%s\"]", i ? ", " : "",
                            std::get<0>(extras[i]).c_str(),
                            std::get<1>(extras[i]),
                            std::get<2>(extras[i]).c_str());
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile of sorted @p v at @p q in [0, 1]. */
double
quantileSorted(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &v)
{
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return v.empty() ? 0.0 : std::exp(acc / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
shortPlant(const std::string &name)
{
    return name.substr(0, name.find('-'));
}

/** Seeded round stream: round r of seed s always draws the same. */
Rng
roundRng(uint64_t seed, uint64_t round)
{
    return Rng(seed * 0x9E3779B97F4A7C15ull + (round + 1) * 0xD1B54A32D192ED03ull);
}

/** Outcome of one measured loop (end-to-end inputs). */
struct LoopStats
{
    double elapsedS = 0.0;
    double ops = 0.0; ///< control ticks or simulated lane-uops
    uint64_t rounds = 0;
    std::vector<double> jobMs;
};

/**
 * Run seeded rounds of jobs on every pool thread, first come first
 * served from one round-major queue: no thread waits for a round's
 * slowest job, and rounds open until the deadline passes (or until
 * @p n_rounds rounds have opened), so only whole rounds are measured
 * and the work mix does not depend on where the deadline fell. Rounds
 * list their longest jobs first, so the queue drains with little idle
 * time. The elapsed time ends with the last job to finish. @p tally
 * sees every job, in queue order.
 */
template <typename Job, typename Out, typename MakeRound, typename Run,
          typename Tally>
LoopStats
streamLoop(MakeRound make_round, Run run, Tally tally, uint64_t first,
           uint64_t n_rounds, double seconds)
{
    struct Round
    {
        std::vector<Job> jobs;
        std::vector<Out> outs;
    };
    std::mutex mu;
    std::deque<Round> rounds; // references stay valid across push_back
    size_t cur = 0;           // next job: rounds[cur].jobs[pos]
    size_t pos = 0;
    bool closed = false;
    const double t0 = nowS();
    const double deadline = t0 + seconds;
    double last_end = t0;

    ThreadPool &pool = ThreadPool::global();
    pool.parallelFor(
        static_cast<size_t>(pool.threads()),
        [&](size_t) {
            while (true) {
                Round *r = nullptr;
                size_t idx = 0;
                {
                    std::lock_guard<std::mutex> lk(mu);
                    if (cur < rounds.size() && pos == rounds[cur].jobs.size()) {
                        ++cur;
                        pos = 0;
                    }
                    if (cur == rounds.size()) {
                        if (!closed && (n_rounds ? rounds.size() >= n_rounds
                                                 : nowS() >= deadline))
                            closed = true;
                        if (closed)
                            return;
                        Round nr;
                        nr.jobs = make_round(first + rounds.size());
                        nr.outs.resize(nr.jobs.size());
                        rounds.push_back(std::move(nr));
                    }
                    r = &rounds[cur];
                    idx = pos++;
                }
                Out o = run(r->jobs[idx]);
                const double end = nowS();
                std::lock_guard<std::mutex> lk(mu);
                r->outs[idx] = std::move(o);
                last_end = std::max(last_end, end);
            }
        },
        1);

    LoopStats ls;
    for (const Round &r : rounds) {
        for (size_t i = 0; i < r.jobs.size(); ++i)
            tally(r.jobs[i], r.outs[i], ls);
    }
    ls.rounds = rounds.size();
    ls.elapsedS = last_end - t0;
    return ls;
}

/** Order a round longest-expected-job first (stable). */
template <typename Job, typename Cost>
void
longestFirst(std::vector<Job> &jobs, Cost cost)
{
    std::stable_sort(jobs.begin(), jobs.end(),
                     [&](const Job &a, const Job &b) {
                         return cost(a) > cost(b);
                     });
}

// ------------------------------------------------------------------
// HIL workloads
// ------------------------------------------------------------------

/**
 * One (scenario spec, timing model) pair and its configuration at each
 * of the workload's formats. A job flies one scenario at every format,
 * so hil_narrow jobs pair a bf16 with an i16 episode and the job costs
 * do not split into one cluster per format.
 */
struct HilCase
{
    plant::ScenarioSpec spec;
    std::string timing;
    std::vector<hil::HilConfig> cfgs;
};

/** The bench_sched_rt overload pair: quad@50 Hz + rover@25 Hz. */
struct SchedPair
{
    plant::ScenarioSpec quadSpec, roverSpec;
    sched::TaskSpec quad, rover;
    double freqHz = 0.0;
    sched::FaultTrace trace;
};

/** One pool job: a case's episodes, or one overload-pair variant. */
struct HilJob
{
    int kase = 0;
    int scenario = 0;
    int sched = -1;          ///< -1 episode, 0 fixed-iteration, 1 anytime
    uint64_t schedSeed = 0x5C4EDull;
};

struct HilJobOut
{
    double hostS = 0.0;
    uint64_t ticks = 0;
    uint64_t fingerprint = 0;
    double simSolveCycles = 0.0; ///< episodes only
    uint64_t solves = 0;         ///< episodes only
    uint64_t episodes = 0;
    uint64_t successes = 0;
    uint64_t misses = 0;         ///< overload pair only
};

struct HilWorkload
{
    std::vector<HilCase> cases;
    bool withSched = false;
    SchedPair pair;
    /** Host seconds per case and per overload variant in the canonical
     *  pass: the queue order of the measured rounds. */
    std::vector<double> caseCostS;
    double schedCostS[2] = {0.0, 0.0};
};

/** Relinearize every 5 ticks on the gusty specs (every registry plant
 *  is nonlinear); clean specs keep the fixed-trim default path. */
plant::RelinearizePolicy
relinFor(const plant::ScenarioSpec &s)
{
    plant::RelinearizePolicy p;
    if (s.disturbance.cmdNoiseSigma > 0.0)
        p.everyK = 5;
    return p;
}

const plant::ScenarioSpec &
easySpec(const std::vector<plant::ScenarioSpec> &specs,
         const std::string &prefix)
{
    for (const plant::ScenarioSpec &s : specs) {
        if (s.plantName.rfind(prefix, 0) == 0 &&
            s.difficulty == plant::Difficulty::Easy &&
            s.disturbance.cmdNoiseSigma == 0.0)
            return s;
    }
    rtoc_fatal("no registry spec for plant prefix %s", prefix.c_str());
}

sched::TaskSpec
liveTask(const plant::ScenarioSpec &spec, double rate_hz, int priority)
{
    sched::TaskSpec t;
    t.name = spec.plantName;
    t.priority = priority;
    t.periodS = 1.0 / rate_hz;
    t.plant = spec.prototype;
    t.scenario = spec.makeScenario(0);
    t.timing = hil::namedControllerTiming("scalar", *spec.prototype,
                                          t.periodS, t.horizon);
    t.releaseJitterFrac = 0.02;
    t.checkTerminationEvery = t.maxIters + 1;
    return t;
}

/**
 * The overload pair, sized as in bench_sched_rt: the fixed-iteration
 * pair sits at 65% nominal utilization, so a 2.5x spike for one second
 * is a genuine overload.
 */
SchedPair
makeSchedPair()
{
    const std::vector<plant::ScenarioSpec> specs =
        plant::ScenarioRegistry::global().specs();
    SchedPair p;
    p.quadSpec = easySpec(specs, "quad");
    p.roverSpec = easySpec(specs, "rover");
    p.quad = liveTask(p.quadSpec, 50.0, 2);
    p.rover = liveTask(p.roverSpec, 25.0, 1);
    const double demand =
        50.0 * p.quad.timing.solveCycles(p.quad.maxIters) +
        25.0 * p.rover.timing.solveCycles(p.rover.maxIters);
    p.freqHz = demand / 0.65;
    sched::FaultEvent spike;
    spike.kind = sched::FaultKind::CycleSpike;
    spike.t0 = 2.0;
    spike.lenS = 1.0;
    spike.factor = 2.5;
    p.trace.events.push_back(spike);
    return p;
}

/** Cold set-up of a hil workload: every calibration it prices with. */
HilWorkload
setupHil(bool narrow)
{
    HilWorkload w;
    const std::vector<plant::ScenarioSpec> specs =
        plant::ScenarioRegistry::global().specs();
    const std::vector<std::string> timings =
        narrow ? std::vector<std::string>{"vector", "gemmini"}
               : std::vector<std::string>{"scalar", "vector", "gemmini"};
    const std::vector<NumericFormat> formats =
        narrow ? std::vector<NumericFormat>{NumericFormat::BF16,
                                            NumericFormat::I16}
               : std::vector<NumericFormat>{NumericFormat::F32};
    for (const plant::ScenarioSpec &s : specs) {
        for (const std::string &t : timings) {
            HilCase c;
            c.spec = s;
            c.timing = t;
            for (NumericFormat f : formats) {
                hil::HilConfig cfg;
                cfg.socFreqHz = 100e6;
                cfg.relin = relinFor(s);
                cfg.format = f;
                cfg.power = hil::namedPowerParams(t);
                c.cfgs.push_back(cfg);
            }
            w.cases.push_back(std::move(c));
        }
    }
    // Calibrations fan out over the pool, one per (case, format).
    hil::SweepRunner runner;
    runner.setGrain(1);
    runner.map<int>(w.cases.size() * formats.size(), [&](size_t i) {
        HilCase &c = w.cases[i / formats.size()];
        hil::HilConfig &cfg = c.cfgs[i % formats.size()];
        cfg.timing = hil::namedControllerTiming(
            c.timing, *c.spec.prototype, cfg.controlPeriodS, cfg.horizon,
            !cfg.relin.fixedTrim(), cfg.format);
        return 0;
    });

    w.withSched = !narrow;
    if (w.withSched)
        w.pair = makeSchedPair();
    return w;
}

sched::ScheduleRunResult
runSchedPair(const SchedPair &p, bool anytime, uint64_t seed, int scenario)
{
    sched::SchedulerConfig cfg;
    cfg.freqHz = p.freqHz;
    cfg.horizonS = 8.0;
    cfg.faults = p.trace;
    cfg.seed = seed;
    cfg.useEnvFaults = false;
    sched::RtScheduler rs(cfg);
    sched::TaskSpec quad = p.quad;
    sched::TaskSpec rover = p.rover;
    quad.scenario = p.quadSpec.makeScenario(scenario);
    rover.scenario = p.roverSpec.makeScenario(scenario);
    quad.anytime.enabled = anytime;
    rover.anytime.enabled = anytime;
    rs.addTask(std::move(quad));
    rs.addTask(std::move(rover));
    return rs.run();
}

void
digestDist(Digest &d, const Distribution &dist)
{
    double sum = 0.0;
    for (double x : dist.samples())
        sum += x;
    d.add(static_cast<uint64_t>(dist.size()));
    d.add(sum);
}

HilJobOut
runHilJob(const HilWorkload &w, const HilJob &j)
{
    HilJobOut out;
    Digest d;
    const double t0 = nowS();
    if (j.sched >= 0) {
        sched::ScheduleRunResult r =
            runSchedPair(w.pair, j.sched == 1, j.schedSeed, j.scenario);
        out.hostS = nowS() - t0;
        d.add(r.utilization);
        d.add(r.ctxSwitches);
        for (const sched::TaskStats &t : r.tasks) {
            out.ticks += t.solves;
            d.add(t.name);
            for (uint64_t v : {t.releases, t.solves, t.misses, t.drops,
                               t.missStreakMax, t.reducedIterTicks,
                               t.skippedRelinTicks, t.holdTicks})
                d.add(v);
            d.add(t.avgIters);
            d.add(t.trackingErrM);
            d.add(t.maxTrackingErrM);
            d.add(static_cast<uint64_t>(t.crashed));
        }
        out.misses = r.totalMisses();
    } else {
        const HilCase &c = w.cases[static_cast<size_t>(j.kase)];
        const plant::Scenario sc = c.spec.makeScenario(j.scenario);
        for (const hil::HilConfig &cfg : c.cfgs) {
            std::unique_ptr<plant::Plant> plant = c.spec.makePlant();
            hil::EpisodeResult r = hil::runEpisode(*plant, sc, cfg);
            out.ticks += r.iterations.size();
            out.solves += r.solveTimesS.size();
            for (double s : r.solveTimesS.samples())
                out.simSolveCycles += s * cfg.socFreqHz;
            out.episodes += 1;
            out.successes += r.success ? 1 : 0;
            d.add(static_cast<uint64_t>(r.success));
            d.add(static_cast<uint64_t>(r.crashed));
            d.add(static_cast<uint64_t>(r.waypointsReached));
            d.add(r.missionTimeS);
            digestDist(d, r.solveTimesS);
            digestDist(d, r.iterations);
            d.add(r.rotorEnergyJ);
            d.add(r.socEnergyJ);
            d.add(r.computeUtilization);
            d.add(static_cast<uint64_t>(r.modelRefreshes));
            d.add(static_cast<uint64_t>(r.refreshFailures));
            d.add(r.refreshTimeS);
            d.add(r.trackingErrM);
            d.add(static_cast<uint64_t>(r.divergedSolves));
            d.add(r.quantSats);
            d.add(r.accSats);
        }
        out.hostS = nowS() - t0;
    }
    out.fingerprint = d.value();
    return out;
}

/** Canonical jobs: scenario 0 of every case, default scheduler seed. */
std::vector<HilJob>
canonicalHilJobs(const HilWorkload &w)
{
    std::vector<HilJob> jobs;
    for (size_t i = 0; i < w.cases.size(); ++i)
        jobs.push_back(HilJob{static_cast<int>(i), 0, -1, 0x5C4EDull});
    if (w.withSched) {
        jobs.push_back(HilJob{0, 0, 0, 0x5C4EDull});
        jobs.push_back(HilJob{0, 0, 1, 0x5C4EDull});
    }
    return jobs;
}

/** Seeded round: a fresh scenario index per case. */
std::vector<HilJob>
seededHilJobs(const HilWorkload &w, uint64_t seed, uint64_t round)
{
    Rng rng = roundRng(seed, round);
    std::vector<HilJob> jobs;
    for (size_t i = 0; i < w.cases.size(); ++i) {
        jobs.push_back(HilJob{static_cast<int>(i),
                              1 + static_cast<int>(rng.uniformInt(100000)),
                              -1, 0});
    }
    if (w.withSched) {
        const int sc = 1 + static_cast<int>(rng.uniformInt(100000));
        const uint64_t s = rng.next();
        jobs.push_back(HilJob{0, sc, 0, s});
        jobs.push_back(HilJob{0, sc, 1, s});
    }
    longestFirst(jobs, [&](const HilJob &j) {
        return j.sched >= 0 ? w.schedCostS[j.sched]
                            : w.caseCostS[static_cast<size_t>(j.kase)];
    });
    return jobs;
}

std::vector<HilJobOut>
runHilJobs(const HilWorkload &w, const std::vector<HilJob> &jobs)
{
    hil::SweepRunner runner;
    runner.setGrain(1);
    return runner.map<HilJobOut>(
        jobs.size(), [&](size_t i) { return runHilJob(w, jobs[i]); });
}

/** The seeded hil loop; @p head collects the first jobs' outputs. */
LoopStats
hilLoop(const HilWorkload &w, uint64_t seed, double seconds,
        uint64_t first, uint64_t n_rounds, std::vector<HilJobOut> *head)
{
    return streamLoop<HilJob, HilJobOut>(
        [&](uint64_t r) { return seededHilJobs(w, seed, r); },
        [&](const HilJob &j) { return runHilJob(w, j); },
        [&](const HilJob &, const HilJobOut &o, LoopStats &ls) {
            ls.ops += static_cast<double>(o.ticks);
            ls.jobMs.push_back(o.hostS * 1e3);
            if (head && head->size() < 2)
                head->push_back(o);
        },
        first, n_rounds, seconds);
}

// ------------------------------------------------------------------
// replay_dse workload
// ------------------------------------------------------------------


/** A stream a backend emits, before emission. */
struct StreamSpec
{
    std::string label;
    std::function<std::unique_ptr<matlib::Backend>()> backend;
    tinympc::MappingStyle style;
};

/** One emitted solve stream (quadrotor 12x4 shape, 5 ADMM iters). */
struct Stream
{
    StreamSpec spec;
    std::string key;
    std::shared_ptr<const isa::Program> prog;
};

using ModelFactory =
    std::function<std::unique_ptr<cpu::TimingModel>(double, double)>;

/** One timing family and the streams its software runs. */
struct Family
{
    std::string name; ///< metric prefix ("cpu.inorder", ...)
    ModelFactory make;
    std::vector<int> streams;
};

struct ReplayWorkload
{
    std::vector<Stream> streams;
    std::vector<Family> families;
    dse::DesignSpace space;
    std::vector<uint64_t> nominalCycles; ///< per (family, stream) pair
    /** Host seconds of each pair's nominal replay, the search and the
     *  reload in the canonical pass: the queue order of the rounds. */
    std::vector<double> pairCostS;
    double exploreCostS = 0.0;
    double reloadCostS = 0.0;
};


const char *
styleName(tinympc::MappingStyle s)
{
    switch (s) {
    case tinympc::MappingStyle::Library:
        return "library";
    case tinympc::MappingStyle::LibraryPerStep:
        return "perstep";
    case tinympc::MappingStyle::Fused:
        return "fused";
    }
    return "?";
}

std::vector<StreamSpec>
streamSpecs(const std::string &backend_name)
{
    using tinympc::MappingStyle;
    std::vector<MappingStyle> styles = {MappingStyle::Library,
                                        MappingStyle::LibraryPerStep};
    if (backend_name != "gemmini")
        styles.push_back(MappingStyle::Fused);
    std::vector<StreamSpec> out;
    for (NumericFormat f : {NumericFormat::F32, NumericFormat::I16}) {
        for (MappingStyle st : styles) {
            StreamSpec s;
            s.label = backend_name + "/" + styleName(st) + "/" +
                      matlib::formatName(f);
            s.style = st;
            s.backend = [backend_name, f]() -> std::unique_ptr<matlib::Backend> {
                std::unique_ptr<matlib::Backend> b;
                if (backend_name == "scalar") {
                    b = std::make_unique<matlib::ScalarBackend>(
                        matlib::ScalarFlavor::Optimized);
                } else if (backend_name == "rvv") {
                    b = std::make_unique<matlib::RvvBackend>(
                        512, matlib::RvvMapping::handOptimized());
                } else {
                    b = std::make_unique<matlib::GemminiBackend>(
                        matlib::GemminiMapping::fullyOptimized());
                }
                b->setFormat(f);
                return b;
            };
            out.push_back(std::move(s));
        }
    }
    return out;
}

/** Cold set-up: emit (and persist) every stream the workload replays,
 *  including every stream of the explorer's space. */
ReplayWorkload
setupReplay()
{
    ReplayWorkload w;
    const plant::QuadrotorPlant quad;
    std::vector<StreamSpec> specs;
    std::map<std::string, std::vector<int>> by_backend;
    for (const char *b : {"scalar", "rvv", "gemmini"}) {
        for (StreamSpec &s : streamSpecs(b)) {
            by_backend[b].push_back(static_cast<int>(specs.size()));
            specs.push_back(std::move(s));
        }
    }
    w.streams.resize(specs.size());
    w.space = bench::refinedFig10Space(false);
    const size_t n_cfg = w.space.configs().size();

    hil::SweepRunner runner;
    runner.setGrain(1);
    runner.map<int>(specs.size() + 2 * n_cfg, [&](size_t i) {
        if (i < specs.size()) {
            Stream &st = w.streams[i];
            st.spec = specs[i];
            std::unique_ptr<matlib::Backend> b = st.spec.backend();
            st.key = bench::plantSolveKey(*b, st.spec.style, quad.nx(),
                                          quad.nu(), 10, 5);
            st.prog = isa::ProgramCache::global().getOrEmit(
                st.key, [&](isa::Program &p) {
                    p = bench::emitPlantSolve(quad, *b, st.spec.style, 5);
                });
        } else {
            const size_t k = i - specs.size();
            w.space.configs()[k % n_cfg].emit(
                k < n_cfg ? dse::Fidelity::Low : dse::Fidelity::Full,
                NumericFormat::F32);
        }
        return 0;
    });

    w.families.push_back(
        {"cpu.inorder",
         [](double lat, double) -> std::unique_ptr<cpu::TimingModel> {
             return std::make_unique<cpu::InOrderCore>(
                 dse::scaledInOrder(cpu::InOrderConfig::shuttle(), lat));
         },
         by_backend["scalar"]});
    w.families.push_back(
        {"cpu.ooo",
         [](double lat, double) -> std::unique_ptr<cpu::TimingModel> {
             return std::make_unique<cpu::OooCore>(
                 dse::scaledOoo(cpu::OooConfig::boomMedium(), lat));
         },
         by_backend["scalar"]});
    w.families.push_back(
        {"vector.saturn",
         [](double lat, double width) -> std::unique_ptr<cpu::TimingModel> {
             return std::make_unique<vector::SaturnModel>(dse::scaledSaturn(
                 vector::SaturnConfig::make(512, 256, true), lat, width));
         },
         by_backend["rvv"]});
    w.families.push_back(
        {"systolic.gemmini",
         [](double lat, double width) -> std::unique_ptr<cpu::TimingModel> {
             return std::make_unique<systolic::GemminiModel>(
                 dse::scaledGemmini(systolic::GemminiConfig::os4x4(64), lat,
                                    width));
         },
         by_backend["gemmini"]});
    return w;
}

/** (family, stream) pairs in a fixed order. */
std::vector<std::pair<int, int>>
replayPairs(const ReplayWorkload &w)
{
    std::vector<std::pair<int, int>> pairs;
    for (size_t f = 0; f < w.families.size(); ++f) {
        for (int s : w.families[f].streams)
            pairs.emplace_back(static_cast<int>(f), s);
    }
    return pairs;
}

/** Knob scales of one seeded design point (the refined space's grid). */
struct Scales
{
    double lat = 1.0;
    double width = 1.0;
};

Scales
drawScales(Rng &rng)
{
    static const double widths[] = {0.75, 1.0, 1.25};
    return Scales{0.70 + 0.025 * static_cast<double>(rng.uniformInt(25)),
                  widths[rng.uniformInt(3)]};
}

dse::Explorer::Options
explorerOptions()
{
    dse::Explorer::Options opt;
    opt.useMemo = false;
    opt.useDisk = false;
    return opt;
}

/** Reload every stream from the disk cache into a fresh private
 *  ProgramCache; returns how many had to be re-emitted (0 expected). */
int
warmReload(const ReplayWorkload &w,
           std::vector<std::shared_ptr<const isa::Program>> *out = nullptr)
{
    isa::ProgramCache cache(&isa::DiskCache::global());
    int emitted = 0;
    for (const Stream &s : w.streams) {
        std::shared_ptr<const isa::Program> p =
            cache.getOrEmit(s.key, [&](isa::Program &) { ++emitted; });
        (void)p->stream();
        if (out)
            out->push_back(std::move(p));
    }
    return emitted;
}

/** One (family, stream) replay at drawn knob scales. */
struct PairRun
{
    int pair = 0;
    Scales single;
    Scales lanes[8];
};

/**
 * One replay_dse job. A replay job takes one solver mapping style and
 * replays its f32 and i16 streams on every family that runs them:
 * single-config runStream plus an 8-lane runStreamBatch per stream.
 * Grouping by style keeps the job costs in three similar clusters
 * instead of one cluster per family.
 */
struct ReplayJob
{
    enum Kind { Replay, Explore, Reload } kind = Replay;
    std::vector<PairRun> runs;
};

struct ReplayJobOut
{
    double hostS = 0.0;
    double laneUops = 0.0;
    int reEmitted = 0;
};

ReplayJobOut
runReplayJob(const ReplayWorkload &w, const ReplayJob &j)
{
    ReplayJobOut out;
    const double t0 = nowS();
    if (j.kind == ReplayJob::Explore) {
        // One search per job, on the job's own worker (a serial pool),
        // so searches and replays share the stream's threads.
        ThreadPool serial(1);
        dse::Explorer::Options opt = explorerOptions();
        opt.pool = &serial;
        dse::Explorer ex(w.space, opt);
        dse::Explorer::Result res = ex.explore();
        out.laneUops = static_cast<double>(res.stats.uopsReplayed);
    } else if (j.kind == ReplayJob::Reload) {
        out.reEmitted = warmReload(w);
    }
    const std::vector<std::pair<int, int>> pairs = replayPairs(w);
    for (const PairRun &pr : j.runs) {
        const auto [f, s] = pairs[static_cast<size_t>(pr.pair)];
        const Family &fam = w.families[static_cast<size_t>(f)];
        const isa::Program &prog = *w.streams[static_cast<size_t>(s)].prog;
        const isa::UopStreamView view = prog.stream();
        fam.make(pr.single.lat, pr.single.width)->runStream(view);
        std::vector<std::unique_ptr<cpu::TimingModel>> lanes;
        std::vector<const cpu::TimingModel *> ptrs;
        for (const Scales &l : pr.lanes) {
            lanes.push_back(fam.make(l.lat, l.width));
            ptrs.push_back(lanes.back().get());
        }
        lanes[0]->runStreamBatch(view, ptrs);
        out.laneUops += 9.0 * static_cast<double>(prog.size());
    }
    out.hostS = nowS() - t0;
    return out;
}

/** Seeded round: one replay job per mapping style at drawn knob
 *  scales, one explorer search and one warm reload. */
std::vector<ReplayJob>
seededReplayJobs(const ReplayWorkload &w, uint64_t seed, uint64_t round)
{
    using tinympc::MappingStyle;
    Rng rng = roundRng(seed, round);
    std::vector<ReplayJob> jobs;
    const std::vector<std::pair<int, int>> pairs = replayPairs(w);
    for (MappingStyle st : {MappingStyle::Library,
                            MappingStyle::LibraryPerStep,
                            MappingStyle::Fused}) {
        ReplayJob j;
        for (size_t i = 0; i < pairs.size(); ++i) {
            if (w.streams[static_cast<size_t>(pairs[i].second)].spec.style != st)
                continue;
            PairRun pr;
            pr.pair = static_cast<int>(i);
            pr.single = drawScales(rng);
            for (Scales &l : pr.lanes)
                l = drawScales(rng);
            j.runs.push_back(pr);
        }
        jobs.push_back(std::move(j));
    }
    jobs.push_back(ReplayJob{ReplayJob::Explore, {}});
    jobs.push_back(ReplayJob{ReplayJob::Reload, {}});
    longestFirst(jobs, [&](const ReplayJob &j) {
        if (j.kind == ReplayJob::Explore)
            return w.exploreCostS;
        if (j.kind == ReplayJob::Reload)
            return w.reloadCostS;
        // Nine lanes per pair: the single-config replay + the batch.
        double cost = 0.0;
        for (const PairRun &pr : j.runs)
            cost += 9.0 * w.pairCostS[static_cast<size_t>(pr.pair)];
        return cost;
    });
    return jobs;
}

/** Explorer and reload phases of the loop (host seconds per job). */
struct ReplayPhases
{
    std::vector<double> exploreS, reloadS;
    int reEmitted = 0;
};

LoopStats
replayLoop(const ReplayWorkload &w, uint64_t seed, double seconds,
           uint64_t first, uint64_t n_rounds, ReplayPhases *phases)
{
    return streamLoop<ReplayJob, ReplayJobOut>(
        [&](uint64_t r) { return seededReplayJobs(w, seed, r); },
        [&](const ReplayJob &j) { return runReplayJob(w, j); },
        [&](const ReplayJob &j, const ReplayJobOut &o, LoopStats &ls) {
            ls.ops += o.laneUops;
            if (j.kind == ReplayJob::Replay)
                ls.jobMs.push_back(o.hostS * 1e3);
            if (!phases)
                return;
            if (j.kind == ReplayJob::Explore)
                phases->exploreS.push_back(o.hostS);
            if (j.kind == ReplayJob::Reload)
                phases->reloadS.push_back(o.hostS);
            phases->reEmitted += o.reEmitted;
        },
        first, n_rounds, seconds);
}

/**
 * The searched frontier recovers the grid's: every grid frontier point
 * is matched by a searched point no larger in area and at least as
 * fast (bench_dse's recovery rule at zero tolerance). Returns the worst
 * searched/grid performance ratio through @p worst.
 */
bool
frontierRecovered(const std::vector<dse::EvalOutcome> &grid,
                  const std::vector<dse::EvalOutcome> &search, double *worst)
{
    *worst = 1.0;
    for (const dse::EvalOutcome &g : grid) {
        const double p = dse::frontierPerfAt(search, g.areaMm2 + 1e-12);
        *worst = std::min(*worst, g.solvesPerS > 0 ? p / g.solvesPerS : 1.0);
    }
    return *worst >= 1.0;
}

// ------------------------------------------------------------------
// Per-layer probe (traced run)
// ------------------------------------------------------------------

/** Mean of @p fn's duration in microseconds over @p reps calls. */
template <typename Fn>
double
meanUs(int reps, Fn fn)
{
    const double t0 = nowS();
    for (int i = 0; i < reps; ++i)
        fn();
    return (nowS() - t0) / reps * 1e6;
}

/** Nanoseconds per call of @p fn, timed in blocks for ~@p budget_s. */
template <typename Fn>
double
kernelNs(double budget_s, Fn fn)
{
    uint64_t calls = 0;
    const double t0 = nowS();
    double t = t0;
    while (t - t0 < budget_s) {
        for (int i = 0; i < 64; ++i)
            fn();
        calls += 64;
        t = nowS();
    }
    return (t - t0) / static_cast<double>(calls) * 1e9;
}

const NumericFormat kProbeFormats[] = {NumericFormat::F32,
                                       NumericFormat::BF16,
                                       NumericFormat::I16};

/** Per-format accumulators of the host-stack probe. */
struct FormatProbe
{
    double tickS = 0.0, solveS = 0.0;
    uint64_t ticks = 0, solves = 0, iters = 0, quantSats = 0;
    double gemvNs = 0.0, gemvTNs = 0.0, saxpbyNs = 0.0;
    int plants = 0;
};

/**
 * Drive one plant's control stack at @p fmt from outside runEpisode:
 * ControlSession::tick along the medium scenario (plant stepped at the
 * physics rate between ticks), then Solver::solve and the Backend MAC
 * kernels on a bare workspace replaying the recorded states.
 */
void
probeHostStack(const plant::ScenarioSpec &spec, NumericFormat fmt,
               FormatProbe &fp, std::vector<std::vector<double>> *states)
{
    const int n_ticks = fmt == NumericFormat::F32 ? 150 : 30;
    std::unique_ptr<plant::Plant> plant = spec.makePlant();
    plant->reset();
    hil::HilConfig cfg;
    cfg.format = fmt;
    hil::ControlSession session(*plant, cfg);
    const plant::Scenario sc = spec.makeScenario(0);
    const int steps = static_cast<int>(
        std::lround(cfg.controlPeriodS / cfg.physicsDtS));
    const int ticks_per_wp = static_cast<int>(
        std::lround(sc.intervalS / cfg.controlPeriodS));

    std::vector<std::vector<float>> xs, refs;
    std::vector<float> x(static_cast<size_t>(plant->nx()));
    for (int k = 0; k < n_ticks; ++k) {
        const size_t wp = std::min(static_cast<size_t>(k / ticks_per_wp),
                                   sc.waypoints.size() - 1);
        std::vector<float> xref = plant->reference(sc.waypoints[wp]);
        plant->packState(x.data());
        xs.push_back(x);
        refs.push_back(xref);
        if (states)
            states->emplace_back(x.begin(), x.end());
        const double t0 = nowS();
        session.tick(xref);
        fp.tickS += nowS() - t0;
        ++fp.ticks;
        for (int s = 0; s < steps; ++s)
            plant->step(session.command(), cfg.physicsDtS);
        if (plant->crashed())
            plant->reset();
    }

    tinympc::Workspace ws = plant->buildWorkspace(cfg.controlPeriodS,
                                                  cfg.horizon);
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    if (fmt != NumericFormat::F32) {
        backend.setFormat(fmt);
        backend.setFixedScaling(tinympc::calibrateFixedScaling(ws, fmt));
    }
    tinympc::Solver solver(ws, backend, tinympc::MappingStyle::Library);
    for (size_t k = 0; k < xs.size(); ++k) {
        ws.setInitialState(xs[k].data());
        ws.setReferenceAll(refs[k]);
        const double t0 = nowS();
        tinympc::SolveResult r = solver.solve();
        fp.solveS += nowS() - t0;
        ++fp.solves;
        fp.iters += static_cast<uint64_t>(r.iterations);
    }
    fp.quantSats += backend.fxCounters().quantSats;

    // MAC kernels at the solver's shapes on the solved workspace:
    // forward-pass gemv (Adyn x), terminal gemvT (Pinf^T xref) and the
    // backward-pass saxpby over nx.
    const double budget = 0.01;
    fp.gemvNs += kernelNs(budget, [&] {
        backend.gemv(ws.tmpNx.view(), ws.adyn.view(), ws.x.row(0), 1.0f,
                     0.0f);
    });
    fp.gemvTNs += kernelNs(budget, [&] {
        backend.gemvT(ws.tmpNx.view(), ws.pinf.view(),
                      ws.xRef.row(ws.N - 1), 1.0f, 0.0f);
    });
    fp.saxpbyNs += kernelNs(budget, [&] {
        backend.saxpby(ws.tmpNx.view(), 1.0f, ws.p.row(0), 1.0f,
                       ws.q.row(0));
    });
    ++fp.plants;
}

/** Warm trySolveDare refreshes at recorded off-trim states. */
double
probeDare(const plant::Plant &proto, const std::vector<std::vector<double>> &xs,
          int &count)
{
    const plant::Weights w = proto.mpcWeights();
    const numerics::DMatrix q = numerics::DMatrix::diag(w.qDiag);
    const numerics::DMatrix r = numerics::DMatrix::diag(w.rDiag);
    const plant::LinearModel trim = proto.linearize(0.02);
    std::optional<numerics::LqrCache> seed = numerics::trySolveDare(
        trim.ad, trim.bd, q, r, w.rho, nullptr, 1e-6, 10000);
    if (!seed)
        return 0.0;
    const std::vector<double> du(static_cast<size_t>(proto.nu()), 0.0);
    double total = 0.0;
    for (size_t k = 0; k < xs.size(); k += 10) {
        const plant::LinearModel m = proto.linearizeAt(xs[k].data(),
                                                       du.data(), 0.02);
        const double t0 = nowS();
        (void)numerics::trySolveDare(m.ad, m.bd, q, r, w.rho, &seed->pinf,
                                     1e-6, 500);
        total += nowS() - t0;
        ++count;
    }
    return total;
}

/** Timing of the calibrations namedControllerTiming runs (fit replays
 *  only: the streams are emitted by the warm-up call). */
double
probeCalibrate(const std::vector<plant::ScenarioSpec> &plants)
{
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    vector::SaturnModel saturn(vector::SaturnConfig::make(512, 256, true));
    systolic::GemminiModel gemmini(systolic::GemminiConfig::os4x4());
    double total = 0.0;
    int n = 0;
    for (const plant::ScenarioSpec &s : plants) {
        for (int impl = 0; impl < 3; ++impl) {
            std::unique_ptr<matlib::Backend> b;
            const cpu::TimingModel *m = nullptr;
            tinympc::MappingStyle style = tinympc::MappingStyle::Library;
            if (impl == 0) {
                b = std::make_unique<matlib::ScalarBackend>(
                    matlib::ScalarFlavor::Optimized);
                m = &shuttle;
            } else if (impl == 1) {
                b = std::make_unique<matlib::RvvBackend>(
                    512, matlib::RvvMapping::handOptimized());
                m = &saturn;
                style = tinympc::MappingStyle::Fused;
            } else {
                b = std::make_unique<matlib::GemminiBackend>(
                    matlib::GemminiMapping::fullyOptimized());
                m = &gemmini;
            }
            hil::calibrateTiming(*m, *b, style, *s.prototype, 0.02, 10,
                                 nullptr);
            const double t0 = nowS();
            hil::calibrateTiming(*m, *b, style, *s.prototype, 0.02, 10,
                                 nullptr);
            total += nowS() - t0;
            ++n;
        }
    }
    return total / n * 1e3;
}

/** One medium-difficulty clean spec per registry plant. */
std::vector<plant::ScenarioSpec>
probePlants()
{
    std::vector<plant::ScenarioSpec> out;
    for (const plant::ScenarioSpec &s :
         plant::ScenarioRegistry::global().specs()) {
        if (s.difficulty == plant::Difficulty::Medium &&
            s.disturbance.cmdNoiseSigma == 0.0)
            out.push_back(s);
    }
    return out;
}

void
runProbe(Report &rep, const std::string &probe_dir, bool trace_episodes,
         const std::string &trace_path)
{
    const std::vector<plant::ScenarioSpec> plants = probePlants();

    // --- replay and set-up layers (every workload's streams) ---------
    ReplayWorkload rw = setupReplay();
    {
        const plant::QuadrotorPlant quad;
        isa::ProgramCache fresh;
        isa::DiskCache disk(probe_dir);
        double emit = 0, encode = 0, put = 0, get = 0, decode = 0,
               build = 0;
        for (const Stream &st : rw.streams) {
            std::unique_ptr<matlib::Backend> b = st.spec.backend();
            double t0 = nowS();
            std::shared_ptr<const isa::Program> p = fresh.getOrEmit(
                st.key, [&](isa::Program &prog) {
                    prog = bench::emitPlantSolve(quad, *b, st.spec.style, 5);
                });
            emit += nowS() - t0;
            t0 = nowS();
            const std::string blob = isa::encodeProgram(*p);
            encode += nowS() - t0;
            t0 = nowS();
            disk.put("prog", st.key, blob);
            put += nowS() - t0;
        }
        for (const Stream &st : rw.streams) {
            double t0 = nowS();
            std::optional<std::string> blob = disk.get("prog", st.key);
            get += nowS() - t0;
            if (!blob)
                rtoc_fatal("probe: stream %s missing from disk", st.key.c_str());
            t0 = nowS();
            std::optional<isa::Program> p = isa::decodeProgram(*blob);
            decode += nowS() - t0;
            if (!p)
                rtoc_fatal("probe: stream %s failed to decode", st.key.c_str());
            t0 = nowS();
            (void)p->stream();
            build += nowS() - t0;
        }
        const double n = static_cast<double>(rw.streams.size());
        rep.metric("isa.emit_ms", emit / n * 1e3);
        rep.metric("isa.encode_us", encode / n * 1e6);
        rep.metric("isa.disk_put_us", put / n * 1e6);
        rep.metric("hil.calibrate_ms", probeCalibrate(plants));
        rep.metric("isa.disk_get_us", get / n * 1e6);
        rep.metric("isa.decode_us", decode / n * 1e6);
        rep.metric("isa.stream_build_us", build / n * 1e6);
    }
    for (const Family &fam : rw.families) {
        double single = 0.0, batch = 0.0;
        Rng rng(0xB47C8ull);
        for (int s : fam.streams) {
            const isa::UopStreamView view =
                rw.streams[static_cast<size_t>(s)].prog->stream();
            std::unique_ptr<cpu::TimingModel> m = fam.make(1.0, 1.0);
            m->runStream(view); // scratch growth
            single += meanUs(3, [&] { m->runStream(view); });
            std::vector<std::unique_ptr<cpu::TimingModel>> lanes;
            std::vector<const cpu::TimingModel *> ptrs;
            for (int l = 0; l < 8; ++l) {
                const Scales sc = drawScales(rng);
                lanes.push_back(fam.make(sc.lat, sc.width));
                ptrs.push_back(lanes.back().get());
            }
            batch += meanUs(2, [&] { lanes[0]->runStreamBatch(view, ptrs); });
        }
        const double n = static_cast<double>(fam.streams.size());
        rep.metric(fam.name + ".replay_us", single / n);
        rep.metric(fam.name + ".batch8_us", batch / n);
    }
    {
        dse::Explorer ex(rw.space, explorerOptions());
        const double t0 = nowS();
        dse::Explorer::Result res = ex.explore();
        rep.metric("dse.explore_ms", (nowS() - t0) * 1e3);
        rep.metric("dse.replays", static_cast<double>(res.stats.replays));
        rep.metric("dse.uops_replayed",
                   static_cast<double>(res.stats.uopsReplayed));
        rep.metric("dse.cells_requested",
                   static_cast<double>(res.stats.cellsRequested));
    }

    // --- host control stack, per format ------------------------------
    FormatProbe fps[3];
    double dare_s = 0.0;
    int dare_n = 0;
    for (const plant::ScenarioSpec &s : plants) {
        std::vector<std::vector<double>> states;
        for (int f = 0; f < 3; ++f) {
            probeHostStack(s, kProbeFormats[f], fps[f],
                           f == 0 ? &states : nullptr);
        }
        dare_s += probeDare(*s.prototype, states, dare_n);
    }
    uint64_t all_solves = 0, all_iters = 0, narrow_solves = 0,
             narrow_sats = 0;
    for (int f = 0; f < 3; ++f) {
        const FormatProbe &fp = fps[f];
        const std::string fmt = matlib::formatName(kProbeFormats[f]);
        rep.metric("hil.tick_us." + fmt,
                   fp.tickS / static_cast<double>(fp.ticks) * 1e6);
        rep.metric("tinympc.solve_us." + fmt,
                   fp.solveS / static_cast<double>(fp.solves) * 1e6);
        rep.metric("matlib.gemv_ns." + fmt, fp.gemvNs / fp.plants);
        rep.metric("matlib.gemvT_ns." + fmt, fp.gemvTNs / fp.plants);
        rep.metric("matlib.saxpby_ns." + fmt, fp.saxpbyNs / fp.plants);
        all_solves += fp.solves;
        all_iters += fp.iters;
        if (f > 0) {
            narrow_solves += fp.solves;
            narrow_sats += fp.quantSats;
        }
    }
    rep.metric("tinympc.iters_per_solve",
               static_cast<double>(all_iters) / static_cast<double>(all_solves));
    rep.metric("matlib.quant_sats_per_solve",
               static_cast<double>(narrow_sats) /
                   static_cast<double>(narrow_solves));
    rep.metric("numerics.dare_warm_us", dare_s / dare_n * 1e6);

    for (const plant::ScenarioSpec &s : plants) {
        std::unique_ptr<plant::Plant> p = s.makePlant();
        p->reset();
        const std::vector<double> cmd = p->trimCommand();
        const int n = 2000;
        const double us = meanUs(n, [&] { p->step(cmd, 1.0 / 240.0); });
        rep.metric("plant.step_us." + shortPlant(s.plantName), us);
    }

    // --- episodes with the relinearizing policy ----------------------
    // Refresh counts per episode come from the gusty (K=5) specs at the
    // vector timing; when the workload's own loop ran no episodes these
    // are also the traced episodes behind hil.tick_share.
    {
        if (trace_episodes)
            obs::TraceWriter::global().enable(trace_path);
        uint64_t refreshes = 0;
        int episodes = 0;
        for (const plant::ScenarioSpec &s :
             plant::ScenarioRegistry::global().specs()) {
            if (s.disturbance.cmdNoiseSigma == 0.0)
                continue;
            hil::HilConfig cfg;
            cfg.relin = relinFor(s);
            cfg.timing = hil::namedControllerTiming(
                "vector", *s.prototype, cfg.controlPeriodS, cfg.horizon,
                true);
            cfg.power = hil::namedPowerParams("vector");
            std::unique_ptr<plant::Plant> p = s.makePlant();
            hil::EpisodeResult r =
                hil::runEpisode(*p, s.makeScenario(0), cfg);
            refreshes += static_cast<uint64_t>(r.modelRefreshes);
            ++episodes;
        }
        if (trace_episodes)
            obs::TraceWriter::global().disable();
        rep.metric("hil.refreshes",
                   static_cast<double>(refreshes) / episodes);
    }

    // --- scheduler ---------------------------------------------------
    {
        const SchedPair p = makeSchedPair();
        const double t0 = nowS();
        runSchedPair(p, false, 0x5C4EDull, 0);
        runSchedPair(p, true, 0x5C4EDull, 0);
        rep.metric("sched.run_ms", (nowS() - t0) / 2.0 * 1e3);
    }
}

// ------------------------------------------------------------------

std::string
envOr(const char *name, const char *def)
{
    const char *v = std::getenv(name);
    return v ? v : def;
}

void
recordConfig(Report &rep)
{
    rep.config.emplace_back("threads",
                            csprintf("%d", ThreadPool::global().threads()));
    rep.config.emplace_back("cache_dir", isa::DiskCache::global().dir());
    rep.config.emplace_back("RTOC_SCHED", isa::schedEnabled() ? "on" : "off");
    rep.config.emplace_back("RTOC_FORMAT",
                            matlib::formatName(matlib::defaultFormat()));
    rep.config.emplace_back("RTOC_FAULT", sched::FaultTrace::env().empty()
                                              ? "none"
                                              : sched::FaultTrace::env().spec());
    rep.config.emplace_back("RTOC_GRAIN", envOr("RTOC_GRAIN", "unset"));
    rep.config.emplace_back("RTOC_CELL_MEMO", "bypassed (runEpisode)");
    rep.config.emplace_back("dse_memo", "off (Explorer useMemo=false)");
}

void
reportLoop(Report &rep, const LoopStats &ls, const char *op_name,
           double tail_pct)
{
    rep.metric("ops_per_s", ls.ops / ls.elapsedS);
    std::vector<double> sorted = ls.jobMs;
    std::sort(sorted.begin(), sorted.end());
    rep.metric("job_ms_p50", quantileSorted(sorted, 0.5));
    rep.metric("job_ms_tail", quantileSorted(sorted, tail_pct / 100.0));
    rep.extra("job_ms_tail.percentile", tail_pct, "%");
    rep.extra("job_ms_tail.samples_beyond",
              std::floor(static_cast<double>(sorted.size()) *
                         (1.0 - tail_pct / 100.0)),
              "count");
    rep.extra("jobs", static_cast<double>(sorted.size()), "count");
    rep.extra("rounds", static_cast<double>(ls.rounds), "count");
    rep.extra("loop_s", ls.elapsedS, "s");
    rep.extra(op_name, ls.ops, "count");
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const std::string workload = cli.getString("workload", "");
    const std::string phase = cli.getString("phase", "run");
    const uint64_t seed = static_cast<uint64_t>(cli.getInt("seed", 1));
    const double seconds = cli.getDouble("seconds", 10.0);
    const bool traced = cli.getInt("trace", 0) != 0;
    const std::string trace_file = cli.getString("trace-file", "");
    const std::string probe_dir = cli.getString("probe-dir", "");
    const bool hil = workload == "hil_f32" || workload == "hil_narrow";
    if (!hil && workload != "replay_dse")
        rtoc_fatal("unknown --workload=%s", workload.c_str());
    if (phase != "setup" && phase != "run")
        rtoc_fatal("unknown --phase=%s", phase.c_str());
    if (traced && (trace_file.empty() || probe_dir.empty()))
        rtoc_fatal("--trace=1 needs --trace-file and --probe-dir");
    if (!isa::DiskCache::global().enabled())
        rtoc_fatal("RTOC_CACHE_DIR must name a private cache directory");

    Report rep;
    recordConfig(rep);

    HilWorkload hw;
    ReplayWorkload rw;
    const double t_setup = nowS();
    if (hil)
        hw = setupHil(workload == "hil_narrow");
    else
        rw = setupReplay();
    rep.setupS = nowS() - t_setup;
    if (phase == "setup") {
        rep.print();
        return 0;
    }

    // --- canonical pass: seed-independent, digested, also the warm-up
    Digest digest;
    if (hil) {
        const std::vector<HilJob> jobs = canonicalHilJobs(hw);
        const std::vector<HilJobOut> outs = runHilJobs(hw, jobs);
        for (size_t i = 0; i < outs.size(); ++i) {
            if (jobs[i].sched < 0)
                hw.caseCostS.push_back(outs[i].hostS);
            else
                hw.schedCostS[jobs[i].sched] = outs[i].hostS;
        }
        double cycles = 0.0;
        uint64_t solves = 0, successes = 0, episodes = 0, misses = 0;
        for (size_t i = 0; i < outs.size(); ++i) {
            digest.add(outs[i].fingerprint);
            cycles += outs[i].simSolveCycles;
            solves += outs[i].solves;
            successes += outs[i].successes;
            episodes += outs[i].episodes;
            if (jobs[i].sched == 0)
                misses = outs[i].misses;
        }
        rep.metric("sim_cycles_per_solve", cycles / static_cast<double>(solves));
        rep.extra("sim_success_rate",
                  static_cast<double>(successes) / static_cast<double>(episodes),
                  "ratio");
        if (hw.withSched)
            rep.extra("sim_deadline_misses", static_cast<double>(misses),
                      "count");
    } else {
        std::vector<double> cycles;
        for (const auto &[f, s] : replayPairs(rw)) {
            const isa::Program &prog = *rw.streams[static_cast<size_t>(s)].prog;
            const double t0 = nowS();
            cpu::TimingResult r =
                rw.families[static_cast<size_t>(f)].make(1.0, 1.0)->runStream(
                    prog.stream());
            rw.pairCostS.push_back(nowS() - t0);
            rw.nominalCycles.push_back(r.cycles);
            cycles.push_back(static_cast<double>(r.cycles));
            digest.add(rw.families[static_cast<size_t>(f)].name);
            digest.add(rw.streams[static_cast<size_t>(s)].spec.label);
            digest.add(static_cast<uint64_t>(prog.size()));
            digest.add(static_cast<uint64_t>(r.cycles));
            for (uint64_t rc : r.regionCycles)
                digest.add(rc);
        }
        rep.metric("sim_cycles_per_solve", geomean(cycles));

        dse::Explorer ex(rw.space, explorerOptions());
        double t0 = nowS();
        dse::Explorer::Result res = ex.explore();
        rw.exploreCostS = nowS() - t0;
        for (const dse::EvalOutcome &o : res.frontier) {
            digest.add(o.config);
            digest.add(o.cycles);
            digest.add(o.areaMm2);
        }
        digest.add(res.stats.cellsRequested);
        digest.add(res.stats.replays);
        digest.add(res.stats.uopsReplayed);
        dse::Explorer grid(rw.space, explorerOptions());
        dse::Explorer::Result gres = grid.exploreGrid();
        double worst = 1.0;
        rep.check("explore_frontier_recovers_grid",
                  frontierRecovered(gres.frontier, res.frontier, &worst));
        rep.extra("explore_vs_grid_worst_ratio", worst, "ratio");

        // runStreamBatch == sequential runStream, every family.
        Rng rng(seed ^ 0xBA7C4ull);
        for (const Family &fam : rw.families) {
            const isa::UopStreamView view =
                rw.streams[static_cast<size_t>(fam.streams.front())]
                    .prog->stream();
            std::vector<std::unique_ptr<cpu::TimingModel>> lanes;
            std::vector<const cpu::TimingModel *> ptrs;
            for (int l = 0; l < 8; ++l) {
                const Scales sc = drawScales(rng);
                lanes.push_back(fam.make(sc.lat, sc.width));
                ptrs.push_back(lanes.back().get());
            }
            const std::vector<cpu::TimingResult> batch =
                lanes[0]->runStreamBatch(view, ptrs);
            bool ok = batch.size() == lanes.size();
            for (size_t l = 0; ok && l < lanes.size(); ++l) {
                const cpu::TimingResult one = lanes[l]->runStream(view);
                ok = one.cycles == batch[l].cycles &&
                     one.regionCycles == batch[l].regionCycles;
            }
            rep.check("batch_equals_single." + fam.name, ok);
        }

        // Disk-reloaded streams replay the cycles of the fresh ones.
        std::vector<std::shared_ptr<const isa::Program>> reloaded;
        t0 = nowS();
        const int re_emitted = warmReload(rw, &reloaded);
        rw.reloadCostS = nowS() - t0;
        rep.check("warm_reload_served_from_disk", re_emitted == 0);
        const auto pairs = replayPairs(rw);
        for (size_t i = 0; i < pairs.size(); ++i) {
            const auto &[f, s] = pairs[i];
            const cpu::TimingResult r =
                rw.families[static_cast<size_t>(f)].make(1.0, 1.0)->runStream(
                    reloaded[static_cast<size_t>(s)]->stream());
            rep.check("reload_cycles." + rw.families[static_cast<size_t>(f)].name +
                          "." + rw.streams[static_cast<size_t>(s)].spec.label,
                      r.cycles == rw.nominalCycles[i]);
        }
    }
    rep.digest = digest.hex();

    // --- measured loop ----------------------------------------------
    // Untraced: the seeded loop for --seconds (end-to-end metrics).
    // Traced: a fixed number of seeded rounds run untraced and then
    // traced (the difference is the tracing overhead), then the probe
    // (per-layer metrics only).
    auto loop = [&](double secs, uint64_t first, uint64_t n,
                    std::vector<HilJobOut> *head, ReplayPhases *phases) {
        return hil ? hilLoop(hw, seed, secs, first, n, head)
                   : replayLoop(rw, seed, secs, first, n, phases);
    };
    std::vector<HilJobOut> head;
    ReplayPhases phases;
    LoopStats ls;
    if (traced) {
        // Passes of equal work, each about a quarter of --seconds (at
        // most 2 s, which bounds the trace file); each side keeps its
        // faster pass.
        const LoopStats one = loop(0.0, 0, 1, &head, &phases);
        const double pass_s = std::min(seconds / 4.0, 2.0);
        const uint64_t n = std::clamp<uint64_t>(
            static_cast<uint64_t>(std::ceil(pass_s / one.elapsedS)), 1, 100);
        double plain_s = 1e30, spans_s = 1e30;
        for (int rep_i = 0; rep_i < 2; ++rep_i) {
            plain_s = std::min(plain_s, loop(0.0, 1, n, nullptr, nullptr).elapsedS);
            obs::TraceWriter::global().enable(trace_file);
            spans_s = std::min(spans_s, loop(0.0, 1, n, nullptr, nullptr).elapsedS);
            obs::TraceWriter::global().disable();
        }
        rep.metrics.clear();
        rep.metric("trace.overhead_pct", (spans_s / plain_s - 1.0) * 100.0);
        rep.extra("trace.loop_untraced_s", plain_s, "s");
        rep.extra("trace.loop_traced_s", spans_s, "s");
    } else {
        ls = loop(seconds, 0, 0, &head, &phases);
        reportLoop(rep, ls, hil ? "ticks" : "lane_uops",
                   workload == "hil_narrow" ? 90.0 : 95.0);
    }
    if (hil) {
        // A repeated episode (and scheduler run) is bit-identical.
        const std::vector<HilJob> jobs = seededHilJobs(hw, seed, 0);
        for (size_t i = 0; i < head.size(); ++i) {
            rep.check(csprintf("repeat_bit_identical.%zu", i),
                      runHilJob(hw, jobs[i]).fingerprint ==
                          head[i].fingerprint);
        }
    } else {
        rep.check("loop_reload_served_from_disk", phases.reEmitted == 0);
        rep.extra("explore_s", median(phases.exploreS), "s");
        rep.extra("warm_load_s", median(phases.reloadS), "s");
    }

    if (traced)
        runProbe(rep, probe_dir, !hil, trace_file + ".probe");
    else
        rep.metric("peak_rss_mb", peakRssMb());
    rep.print();
    return 0;
}
