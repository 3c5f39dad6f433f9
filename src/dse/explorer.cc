#include "dse/explorer.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/logging.hh"
#include "obs/trace.hh"
#include "dse/surrogate.hh"
#include "isa/sched_search.hh"
#include "soc/area_model.hh"

namespace rtoc::dse {

namespace {

std::string
encodeCellCost(const CellCost &c)
{
    std::string s;
    isa::blob::putRaw<uint64_t>(s, c.cycles);
    isa::blob::putRaw<uint64_t>(s, c.uops);
    return s;
}

std::optional<CellCost>
decodeCellCost(const std::string &payload)
{
    isa::blob::Reader r(payload);
    CellCost c;
    c.cycles = r.raw<uint64_t>();
    c.uops = r.raw<uint64_t>();
    if (!r.ok || r.left != 0)
        return std::nullopt;
    return c;
}

/** A configuration survives successive halving when its low-fidelity
 *  perf is at least (1 - kShBand) x the cheap frontier at its area. */
constexpr double kShBand = 0.35;

/** Floor of the surrogate trust band: a cell is expanded when its
 *  predicted perf is within (1 - max(kSurrogateBand, 3 x fit
 *  residual)) of the current frontier at its area. */
constexpr double kSurrogateBand = 0.005;

constexpr int kMaxRounds = 8; ///< surrogate expansion rounds

/** The "dsecell" disk tier of resolved replay cells. */
const isa::DiskTier<CellCost> kCellTier{"dsecell", encodeCellCost,
                                        decodeCellCost};

/** Index of the axis value nearest @p target (first on ties). */
int
nearestIndex(const std::vector<double> &axis, double target)
{
    int best = 0;
    for (size_t i = 1; i < axis.size(); ++i)
        if (std::abs(axis[i] - target) < std::abs(axis[best] - target))
            best = static_cast<int>(i);
    return best;
}

/** Corner + midpoint seed indices of an @p n-value axis. */
std::vector<int>
seedIndices(int n)
{
    std::vector<int> idx{0, n / 2, n - 1};
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
    return idx;
}

} // namespace

isa::Memo<CellCost> &
evalMemo()
{
    // Leaked: the registry polls its counters until exit.
    static auto *memo = new isa::Memo<CellCost>("eval_memo", kCellTier);
    return *memo;
}

Explorer::Explorer(const DesignSpace &space)
    : Explorer(space, Options{})
{}

Explorer::Explorer(const DesignSpace &space, Options opt)
    : space_(space), opt_(opt),
      sweep_(opt.pool ? *opt.pool : ThreadPool::global())
{
    if (opt_.useDisk && isa::DiskCache::global().enabled())
        disk_ = &isa::DiskCache::global();
}

std::vector<EvalOutcome>
Explorer::submit(const std::vector<PointSpec> &points, Fidelity f)
{
    RTOC_SPAN_NAMED(span, "dse.submit", "dse");
    span.arg("points", points.size());
    stats_.pointsServed += points.size();

    // Model-only materialization of every query: names, areas and the
    // cell key each point maps to (no stream emission yet).
    std::vector<Candidate> qc;
    qc.reserve(points.size());
    for (const PointSpec &p : points)
        qc.push_back(space_.materialize(p, f, false));

    // Deduplicate to distinct cells, first-appearance order.
    std::map<std::string, size_t> jobOf;
    std::vector<size_t> queryJob(points.size());
    std::vector<size_t> jobRep; // representative query per job
    for (size_t i = 0; i < points.size(); ++i) {
        auto [it, inserted] = jobOf.emplace(qc[i].cellKey, jobRep.size());
        if (inserted)
            jobRep.push_back(i);
        queryJob[i] = it->second;
    }

    const size_t n_jobs = jobRep.size();
    std::vector<CellCost> cost(n_jobs);
    std::vector<char> resolved(n_jobs, 0);

    // Without the process memo, a memory tier that lives for this
    // batch only: every cell is read from disk or replayed.
    isa::Memo<CellCost> batch_memo("", kCellTier);
    isa::Memo<CellCost> &memo = opt_.useMemo ? evalMemo() : batch_memo;

    // Resolve from the memo and its disk tier.
    for (size_t j = 0; j < n_jobs; ++j) {
        const std::string &key = qc[jobRep[j]].cellKey;
        if (seen_.insert(key).second) {
            ++stats_.cellsRequested;
            if (f == Fidelity::Low)
                ++stats_.cellsLowFi;
        }
        bool from_disk = false;
        if (std::optional<CellCost> c = memo.find(key, disk_, &from_disk)) {
            cost[j] = *c;
            resolved[j] = 1;
            ++(from_disk ? stats_.diskHits : stats_.memoHits);
        }
    }

    // Emit (or fetch) the streams behind the remaining cells — one
    // emit call per unresolved cell, in job order, so program-cache
    // hit/miss accounting matches the historical per-point loops.
    std::vector<Candidate> jc(n_jobs);
    for (size_t j = 0; j < n_jobs; ++j)
        if (!resolved[j])
            jc[j] = space_.materialize(points[jobRep[j]], f, true);

    // With scheduling on, swap each cell's stream for the schedule
    // its model searched (memo/disk-cached); cells whose winners
    // coincide — including the no-improvement baseline case — still
    // share a group below. Off, this is a no-op returning the same
    // pointer.
    if (isa::schedEnabled()) {
        for (size_t j = 0; j < n_jobs; ++j) {
            if (resolved[j])
                continue;
            const cpu::TimingModel &m = *jc[j].model;
            jc[j].prog = isa::scheduledStream(
                m.cacheKey(), jc[j].progKey, jc[j].prog,
                [&m](const isa::Program &p) { return m.run(p).cycles; });
        }
    }

    // Group unresolved cells by stream and fan the groups over the
    // pool; each group replays in one runStreamBatch call, one column
    // pass per timing family.
    std::map<const isa::Program *, std::vector<size_t>> by_prog;
    for (size_t j = 0; j < n_jobs; ++j)
        if (!resolved[j])
            by_prog[jc[j].prog.get()].push_back(j);
    std::vector<std::pair<const isa::Program *, std::vector<size_t>>>
        groups(by_prog.begin(), by_prog.end());

    sweep_.map<int>(groups.size(), [&](size_t gi) {
        const isa::Program *prog = groups[gi].first;
        const std::vector<size_t> &jobs = groups[gi].second;
        std::vector<const cpu::TimingModel *> models;
        models.reserve(jobs.size());
        for (size_t j : jobs)
            models.push_back(jc[j].model.get());
        std::vector<cpu::TimingResult> results =
            models.front()->runStreamBatch(prog->stream(), models);
        for (size_t k = 0; k < jobs.size(); ++k) {
            cost[jobs[k]].cycles = results[k].cycles;
            cost[jobs[k]].uops = prog->size();
        }
        return 0;
    });

    // Store what we just replayed in memory and on disk.
    for (size_t j = 0; j < n_jobs; ++j) {
        if (resolved[j])
            continue;
        ++stats_.replays;
        stats_.uopsReplayed += cost[j].uops;
        memo.put(qc[jobRep[j]].cellKey, cost[j], disk_);
    }

    // Serve every query from its cell analytically.
    std::vector<EvalOutcome> out(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        const CellCost &c = cost[queryJob[i]];
        EvalOutcome &o = out[i];
        o.point = points[i];
        o.config = qc[i].name;
        o.cellKey = qc[i].cellKey;
        o.fidelity = f;
        o.cycles = c.cycles + qc[i].extraCycles;
        o.uops = c.uops;
        o.areaMm2 = qc[i].areaMm2;
        o.freqHz = qc[i].freqHz;
        o.solvesPerS = o.cycles ? o.freqHz / o.cycles : 0.0;
    }
    return out;
}

Explorer::Result
Explorer::exploreGrid()
{
    Result res;
    res.gridCells = space_.countDistinctCells(Fidelity::Full);
    std::vector<PointSpec> all;
    all.reserve(space_.size());
    for (size_t flat = 0; flat < space_.size(); ++flat)
        all.push_back(space_.point(flat));
    res.evaluated = submit(all, Fidelity::Full);
    res.frontier = paretoFrontier(res.evaluated);
    res.stats = stats_;
    return res;
}

Explorer::Result
Explorer::explore()
{
    Result res;
    res.gridCells = space_.countDistinctCells(Fidelity::Full);

    const int n_cfg = static_cast<int>(space_.configs().size());
    const int n_lat = static_cast<int>(space_.latScales().size());
    const int n_width = static_cast<int>(space_.widthScales().size());
    const int n_freq = static_cast<int>(space_.freqsHz().size());
    const int lat0 = nearestIndex(space_.latScales(), 1.0);
    const int width0 = nearestIndex(space_.widthScales(), 1.0);
    const int freq_max = nearestIndex(
        space_.freqsHz(),
        *std::max_element(space_.freqsHz().begin(),
                          space_.freqsHz().end()));

    // Successive-halving rung: every configuration once, at nominal
    // scales and peak frequency, on the cheap low-fidelity stream.
    std::vector<PointSpec> rung;
    for (int c = 0; c < n_cfg; ++c)
        rung.push_back({c, lat0, width0, freq_max});
    std::vector<EvalOutcome> low;
    {
        RTOC_SPAN("dse.sh_rung", "dse");
        low = submit(rung, Fidelity::Low);
    }
    std::vector<EvalOutcome> low_frontier = paretoFrontier(low);

    std::vector<int> survivors;
    for (int c = 0; c < n_cfg; ++c) {
        double bar = (1.0 - kShBand) *
                     frontierPerfAt(low_frontier, low[c].areaMm2);
        if (low[c].solvesPerS >= bar)
            survivors.push_back(c);
    }

    // Promote survivors to full fidelity at the corner/midpoint
    // scales; every frequency point of an evaluated cell is free.
    std::set<std::tuple<int, int, int>> evaluated;
    std::vector<PointSpec> seeds;
    auto push_all_freqs = [&](int c, int l, int w,
                              std::vector<PointSpec> &batch) {
        if (!evaluated.emplace(c, l, w).second)
            return;
        for (int q = 0; q < n_freq; ++q)
            batch.push_back({c, l, w, q});
    };
    for (int c : survivors)
        for (int l : seedIndices(n_lat))
            for (int w : seedIndices(n_width))
                push_all_freqs(c, l, w, seeds);
    {
        RTOC_SPAN("dse.seed_promotion", "dse");
        res.evaluated = submit(seeds, Fidelity::Full);
    }

    // Surrogate expansion: refit on everything replayed so far and
    // pull in only the cells predicted within the frontier band.
    for (int round = 0; round < kMaxRounds; ++round) {
        RTOC_SPAN_NAMED(round_span, "dse.surrogate_round", "dse");
        round_span.arg("round", static_cast<uint64_t>(round));
        std::vector<EvalOutcome> frontier = paretoFrontier(res.evaluated);
        std::map<int, Surrogate> models;
        {
            RTOC_SPAN("dse.surrogate_fit", "dse");
            for (const EvalOutcome &o : res.evaluated)
                models[o.point.config].addSample(
                    space_.latScale(o.point), space_.widthScale(o.point),
                    static_cast<double>(o.cycles));
            for (auto &[c, s] : models)
                s.fit();
        }

        const double peak_freq = space_.freqsHz()[freq_max];
        std::vector<PointSpec> batch;
        for (int c : survivors) {
            auto it = models.find(c);
            if (it == models.end() || !it->second.fitted())
                continue;
            // A cell is worth full replay only if it might beat the
            // frontier at its area. The band is the surrogate's own
            // trust radius: three times its worst training residual,
            // floored at kSurrogateBand — smooth responses earn tight
            // bands, rough ones widen their own.
            const double band = std::max(
                kSurrogateBand, 3.0 * it->second.maxRelError());
            for (int l = 0; l < n_lat; ++l) {
                for (int w = 0; w < n_width; ++w) {
                    if (evaluated.count({c, l, w}))
                        continue;
                    double pred = it->second.predictCycles(
                        space_.latScales()[l], space_.widthScales()[w]);
                    double perf = pred > 0.0 ? peak_freq / pred : 0.0;
                    double area = space_.areaMm2({c, l, w, freq_max});
                    double bar = (1.0 - band) *
                                 frontierPerfAt(frontier, area);
                    if (perf >= bar)
                        push_all_freqs(c, l, w, batch);
                }
            }
        }
        if (batch.empty())
            break;
        std::vector<EvalOutcome> more = submit(batch, Fidelity::Full);
        res.evaluated.insert(res.evaluated.end(), more.begin(),
                             more.end());
    }

    res.frontier = paretoFrontier(res.evaluated);
    res.stats = stats_;
    return res;
}

std::vector<EvalOutcome>
paretoFrontier(const std::vector<EvalOutcome> &outcomes)
{
    std::vector<soc::ParetoPoint> pts(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        pts[i].config = outcomes[i].config;
        pts[i].areaMm2 = outcomes[i].areaMm2;
        pts[i].performance = outcomes[i].solvesPerS;
    }
    soc::markParetoFrontier(pts);
    std::vector<EvalOutcome> frontier;
    for (size_t i = 0; i < outcomes.size(); ++i)
        if (pts[i].optimal)
            frontier.push_back(outcomes[i]);
    std::sort(frontier.begin(), frontier.end(),
              [](const EvalOutcome &a, const EvalOutcome &b) {
                  return a.areaMm2 < b.areaMm2;
              });
    return frontier;
}

double
frontierPerfAt(const std::vector<EvalOutcome> &frontier, double area_mm2)
{
    double best = 0.0;
    for (const EvalOutcome &o : frontier)
        if (o.areaMm2 <= area_mm2)
            best = std::max(best, o.solvesPerS);
    return best;
}

double
hypervolume(const std::vector<EvalOutcome> &frontier, double ref_area_mm2)
{
    std::vector<EvalOutcome> f = frontier;
    std::sort(f.begin(), f.end(),
              [](const EvalOutcome &a, const EvalOutcome &b) {
                  return a.areaMm2 < b.areaMm2;
              });
    double hv = 0.0;
    for (size_t i = 0; i < f.size(); ++i) {
        if (f[i].areaMm2 >= ref_area_mm2)
            break;
        double next = i + 1 < f.size()
                          ? std::min(f[i + 1].areaMm2, ref_area_mm2)
                          : ref_area_mm2;
        hv += (next - f[i].areaMm2) * f[i].solvesPerS;
    }
    return hv;
}

} // namespace rtoc::dse
