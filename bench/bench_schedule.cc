/**
 * @file
 * Scheduled-emission bench: what the schedule searcher buys on each
 * backend, measured with the timing models themselves.
 *
 * For every (backend stream, timing model) pair the bench scores the
 * baseline stream, runs the schedule search (the same candidate
 * recipes and greedy per-region refinement `RTOC_SCHED=1` runs behind
 * the caches), and reports the winning recipe with its cycle delta.
 * A second section times the cached pickup path — scheduledStream
 * against a warm memo — to show the searched schedule is a one-time
 * cost amortized across every subsequent replay.
 *
 * Full runs gate PASS/FAIL on searched schedules winning cycles on at
 * least two distinct backends (the paper-facing claim); --smoke keeps
 * the run shape identical but lowers the gate to "search ran and
 * recipes verified" so shared CI runners stay green.
 *
 * Flags:
 *   --smoke       fewer search candidates, informational gate
 *   --json=PATH   write a BENCH_schedule.json artifact
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "cpu/inorder.hh"
#include "isa/program_cache.hh"
#include "isa/sched_search.hh"
#include "isa/schedule.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "obs/registry.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

using namespace rtoc;

namespace {

struct SchedRow
{
    std::string backend;     ///< distinct-backend identity for gating
    std::string name;        ///< display (backend/model)
    size_t uops = 0;
    uint64_t baseCycles = 0;
    uint64_t bestCycles = 0;
    int scored = 0;
    std::string recipe;
    bool verified = false;
    double winPct = 0.0;
};

SchedRow
searchOne(const std::string &backend, const std::string &name,
          const std::shared_ptr<const isa::Program> &prog,
          const cpu::TimingModel &model, int cap)
{
    SchedRow row;
    row.backend = backend;
    row.name = name;
    row.uops = prog->size();
    auto cost = [&](const isa::Program &p) { return model.run(p).cycles; };
    isa::SchedSearchResult res = isa::searchSchedule(*prog, cost, cap);
    row.baseCycles = res.baseCycles;
    row.bestCycles = res.bestCycles;
    row.scored = res.candidatesScored;
    row.recipe = res.spec.empty() ? "identity" : res.spec.describe();
    row.winPct = res.baseCycles
                     ? 100.0 *
                           static_cast<double>(res.baseCycles -
                                               res.bestCycles) /
                           static_cast<double>(res.baseCycles)
                     : 0.0;

    // Re-verify the winner through the independent oracle: the bench
    // never reports a cycle win from an illegal permutation.
    isa::ScheduleResult sr = isa::applySchedule(*prog, res.spec);
    std::string why;
    row.verified = isa::verifySchedule(*prog, sr.prog, sr.perm, &why);
    if (!row.verified)
        std::printf("VERIFY FAIL %s: %s\n", name.c_str(), why.c_str());
    else if (model.run(sr.prog).cycles != res.bestCycles)
        row.verified = false;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const bool smoke = cli.has("smoke");
    const std::string json_path = cli.getString("json", "");
    const int cap = static_cast<int>(
        cli.getInt("cap", smoke ? 10 : isa::kSchedCap));

    matlib::ScalarBackend scalar(matlib::ScalarFlavor::Optimized);
    matlib::RvvBackend rvv(512, matlib::RvvMapping::handOptimized());
    matlib::GemminiBackend gem(matlib::GemminiMapping::fullyOptimized());
    auto scalar_prog =
        bench::emitQuadSolveCached(scalar, tinympc::MappingStyle::Library);
    auto rvv_prog =
        bench::emitQuadSolveCached(rvv, tinympc::MappingStyle::Fused);
    auto gem_prog =
        bench::emitQuadSolveCached(gem, tinympc::MappingStyle::Library);

    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    vector::SaturnModel saturn(vector::SaturnConfig::make(512, 256, true));
    systolic::GemminiModel gemmini(systolic::GemminiConfig::os4x4(64));

    std::vector<SchedRow> rows;
    rows.push_back(searchOne("scalar", "scalar-eigen/shuttle",
                             scalar_prog, shuttle, cap));
    rows.push_back(searchOne("scalar", "scalar-eigen/rocket",
                             scalar_prog, rocket, cap));
    rows.push_back(
        searchOne("rvv", "rvv-opt/saturn-512", rvv_prog, saturn, cap));
    rows.push_back(searchOne("gemmini", "gemmini-opt/os4x4", gem_prog,
                             gemmini, cap));

    Table t("Schedule search: baseline vs searched emission order",
            {"backend/model", "uops", "base cycles", "sched cycles",
             "win", "scored", "recipe"});
    for (const auto &r : rows) {
        t.addRow({r.name, Table::num(static_cast<uint64_t>(r.uops)),
                  Table::num(r.baseCycles), Table::num(r.bestCycles),
                  Table::num(r.winPct, 2) + "%",
                  Table::num(static_cast<uint64_t>(r.scored)),
                  r.recipe});
    }
    t.print();

    // Cached pickup: the first scheduledStream call pays the search,
    // every later call is a memo hit returning the materialized
    // program. Uses a private ProgramCache so this section never
    // perturbs the global caches.
    isa::ProgramCache local_cache(nullptr);
    isa::schedMemo().clear();
    obs::Snapshot before = obs::Registry::global().snapshot();
    for (int pass = 0; pass < 3; ++pass) {
        isa::scheduledStream(
            shuttle.cacheKey(), "bench-sched-pickup", scalar_prog,
            [&](const isa::Program &p) { return shuttle.run(p).cycles; },
            local_cache, nullptr);
    }
    obs::Snapshot after = obs::Registry::global().snapshot();
    const uint64_t pickup_hits = after.get("sched.memo.hits") -
                                 before.get("sched.memo.hits");
    const bool sched_env_on = isa::schedEnabled();
    if (sched_env_on) {
        std::printf("\nCached pickup: 3 scheduledStream calls, %llu "
                    "memo hits (search ran once)\n",
                    static_cast<unsigned long long>(pickup_hits));
    } else {
        std::printf("\nCached pickup: RTOC_SCHED off — scheduledStream "
                    "returned the baseline pointer (layer inert)\n");
    }

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f)
            rtoc_fatal("cannot write %s", json_path.c_str());
        std::fprintf(f, "{\n");
        obs::Registry::global().writeJsonSections(f);
        std::fprintf(f, "  \"sched_cap\": %d,\n", cap);
        std::fprintf(f, "  \"searches\": [\n");
        for (size_t i = 0; i < rows.size(); ++i) {
            const auto &r = rows[i];
            std::fprintf(
                f,
                "    {\"backend\": \"%s\", \"name\": \"%s\", "
                "\"uops\": %zu, \"base_cycles\": %llu, "
                "\"sched_cycles\": %llu, \"win_pct\": %.3f, "
                "\"candidates_scored\": %d, \"verified\": %s, "
                "\"recipe\": \"%s\"}%s\n",
                r.backend.c_str(), r.name.c_str(), r.uops,
                static_cast<unsigned long long>(r.baseCycles),
                static_cast<unsigned long long>(r.bestCycles),
                r.winPct, r.scored, r.verified ? "true" : "false",
                r.recipe.c_str(), i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("Wrote %s\n", json_path.c_str());
    }

    // Gates. Every reported winner must verify, always. Full runs
    // additionally require cycle wins on >=2 distinct backends.
    bool verified_ok = true;
    for (const auto &r : rows)
        verified_ok = verified_ok && r.verified;

    std::vector<std::string> winning_backends;
    for (const auto &r : rows) {
        if (r.bestCycles >= r.baseCycles)
            continue;
        bool seen = false;
        for (const auto &b : winning_backends)
            seen = seen || b == r.backend;
        if (!seen)
            winning_backends.push_back(r.backend);
    }
    const size_t win_bar = smoke ? 0 : 2;
    const bool wins_ok = winning_backends.size() >= win_bar;

    if (!verified_ok)
        std::printf("\nFAIL: a winning schedule failed the legality "
                    "oracle or its cycle claim\n");
    if (!wins_ok)
        std::printf("\nFAIL: searched schedules won cycles on %zu "
                    "backend(s), need >=%zu\n",
                    winning_backends.size(), win_bar);
    std::printf("\n%s: schedule wins on %zu/%zu distinct backends "
                "(bar %zu)\n",
                verified_ok && wins_ok ? "PASS" : "FAIL",
                winning_backends.size(), size_t(3), win_bar);
    return verified_ok && wins_ok ? 0 : 1;
}
