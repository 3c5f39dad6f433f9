#include "isa/sched_search.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"
#include "isa/program_cache.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace rtoc::isa {

namespace {

/** Interned registry counters (registered on first schedule-layer
 *  use only, so sched-off runs emit byte-identical metrics JSON). */
struct SchedCounters
{
    StatId scored =
        obs::Registry::global().counter("sched.candidates_scored");
    StatId searches = obs::Registry::global().counter("sched.searches");
    StatId wins = obs::Registry::global().counter("sched.wins");
};

const SchedCounters &
schedCounters()
{
    static const SchedCounters c;
    return c;
}

} // namespace

Memo<SchedSpec> &
schedMemo()
{
    // Leaked: the registry polls its counters until exit.
    static auto *memo = new Memo<SchedSpec>(
        "sched.memo", {"sched", encodeSchedSpec, decodeSchedSpec});
    return *memo;
}

bool
schedEnabled()
{
    static const bool on = [] {
        const char *e = std::getenv("RTOC_SCHED");
        return e != nullptr && *e != '\0' && std::string(e) != "0";
    }();
    return on;
}

const std::string &
schedKeySuffix()
{
    static const std::string s =
        schedEnabled() ? csprintf("|sched:v1:cap%d", kSchedCap)
                       : std::string();
    return s;
}

SchedSearchResult
searchSchedule(const Program &baseline, const SchedCostFn &cost,
               int cap)
{
    RTOC_SPAN_NAMED(span, "isa.sched_search", "isa");

    SchedSearchResult res;
    res.baseCycles = cost(baseline);
    res.bestCycles = res.baseCycles;

    auto score = [&](const SchedSpec &s) -> uint64_t {
        const ScheduleResult sr = applySchedule(baseline, s);
        ++res.candidatesScored;
        return cost(sr.prog);
    };
    auto consider = [&](SchedSpec s) {
        const uint64_t c = score(s);
        if (c < res.bestCycles) {
            res.bestCycles = c;
            res.spec = std::move(s);
        }
    };

    // Phase 1: global recipes, fixed order, strict improvement.
    const std::vector<SchedSpec> cands = enumerateSchedSpecs();
    for (const SchedSpec &cand : cands) {
        if (res.candidatesScored >= cap)
            break;
        consider(cand);
    }

    // Phase 2: greedy per-region-name refinement of the incumbent —
    // for each region name (first-appearance order) try the identity
    // and every global recipe as an override, keeping improvements.
    std::vector<std::string> names;
    for (const KernelRegion &r : baseline.kernels()) {
        const std::string &nm = r.name();
        if (std::find(names.begin(), names.end(), nm) == names.end())
            names.push_back(nm);
    }
    auto with_override = [](const SchedSpec &base_spec,
                            const std::string &nm,
                            std::vector<SchedStep> steps) {
        SchedSpec trial = base_spec;
        for (SchedSpec::Override &o : trial.overrides) {
            if (o.region == nm) {
                o.steps = std::move(steps);
                return trial;
            }
        }
        trial.overrides.push_back({nm, std::move(steps)});
        return trial;
    };
    for (const std::string &nm : names) {
        if (res.candidatesScored >= cap)
            break;
        if (!res.spec.stepsFor(nm).empty())
            consider(with_override(res.spec, nm, {}));
        for (const SchedSpec &cand : cands) {
            if (res.candidatesScored >= cap)
                break;
            if (res.spec.stepsFor(nm) == cand.steps)
                continue;
            consider(with_override(res.spec, nm, cand.steps));
        }
    }

    obs::count(schedCounters().scored,
               static_cast<uint64_t>(res.candidatesScored));
    obs::count(schedCounters().searches);
    if (res.bestCycles < res.baseCycles)
        obs::count(schedCounters().wins);
    span.arg("scored", static_cast<uint64_t>(res.candidatesScored));
    span.arg("best_cycles", res.bestCycles);
    return res;
}

std::shared_ptr<const Program>
scheduledStream(const std::string &modelKey, const std::string &progKey,
                const std::shared_ptr<const Program> &baseline,
                const SchedCostFn &cost, ProgramCache &cache,
                const DiskCache *disk)
{
    if (!schedEnabled())
        return baseline;

    // The winning recipe resolves through the memo: memory, then the
    // "sched" disk tier (a valid envelope holding an undecodable
    // payload is re-searched and overwritten), then a search.
    const std::string search_key =
        csprintf("sched1|%s|%s|cap%d", modelKey.c_str(),
                 progKey.c_str(), kSchedCap);
    const SchedSpec spec = schedMemo().get(
        search_key,
        [&] { return searchSchedule(*baseline, cost, kSchedCap).spec; },
        disk);
    if (spec.empty())
        return baseline;
    return cache.getOrEmit(
        progKey + "|sched:" + schedSpecDigest(spec), [&](Program &p) {
            RTOC_SPAN_NAMED(span, "isa.sched_apply", "isa");
            span.arg("uops", baseline->size());
            p = applySchedule(*baseline, spec).prog;
        });
}

std::shared_ptr<const Program>
scheduledStream(const std::string &modelKey, const std::string &progKey,
                const std::shared_ptr<const Program> &baseline,
                const SchedCostFn &cost)
{
    return scheduledStream(modelKey, progKey, baseline, cost,
                           ProgramCache::global(),
                           &DiskCache::global());
}

} // namespace rtoc::isa
