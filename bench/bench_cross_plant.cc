/**
 * @file
 * Cross-plant HIL sweep: every scenario spec in the ScenarioRegistry
 * (quadrotor, rocket lander, differential-drive rover, cart-pole —
 * clean and gusty disturbance profiles) x every backend timing model
 * (ideal policy, optimized scalar, hand-optimized vector, fully-
 * optimized Gemmini) through the parallel SweepRunner, reporting
 * success rate, solve latency and power per cell, plus a
 * BENCH_plants.json artifact. The ProgramCache's hit and miss counts
 * are printed after the sweep.
 *
 * Flags: --episodes=N (override every cell; default: the registry's
 * per-spec episode counts), --smoke (2 episodes), --full (doubles the
 * per-spec counts), --plant=NAME (restrict the grid to one registered
 * plant), --freq=MHZ (default 100), --json=PATH (default
 * BENCH_plants.json; empty disables), --relin-k=K (re-linearize the
 * MPC model every K control ticks; default 0 = fixed trim). The
 * relinearization column is printed — and the JSON gains relin
 * fields — only when the policy is non-default, keeping the
 * historical golden output byte-stable. --profile appends the
 * Fig-12-style per-region cycle breakdown (backend x plant,
 * replayed from the process ProgramCache) after the golden tables
 * and exports the totals as trace counter tracks.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "isa/program_cache.hh"
#include "plant/registry.hh"
#include "obs/region_profile.hh"
#include "obs/registry.hh"

using namespace rtoc;

namespace {

/** One (scenario spec, timing model) grid point. */
struct GridCell
{
    plant::ScenarioSpec spec;
    std::string model; ///< ideal | scalar | vector | gemmini
    hil::SweepCell cell;
};

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const bool smoke = cli.has("smoke");
    const bool full = cli.has("full");
    const bool profile = cli.has("profile");
    const int episodes_flag =
        static_cast<int>(cli.getInt("episodes", 0));
    const double freq_hz = cli.getDouble("freq", 100.0) * 1e6;
    const std::string json_path =
        cli.getString("json", "BENCH_plants.json");
    const std::string plant_filter = cli.getString("plant", "");
    plant::RelinearizePolicy relin;
    relin.everyK = static_cast<int>(cli.getInt("relin-k", 0));
    relin.stateDeltaThreshold = cli.getDouble("relin-thresh", 0.0);
    const bool relin_axis = !relin.fixedTrim();

    const char *const models[] = {"ideal", "scalar", "vector",
                                  "gemmini"};

    std::vector<plant::ScenarioSpec> specs =
        plant::ScenarioRegistry::global().specs();
    if (!plant_filter.empty()) {
        std::vector<plant::ScenarioSpec> kept;
        for (plant::ScenarioSpec &s : specs) {
            if (s.plantName.find(plant_filter) != std::string::npos)
                kept.push_back(std::move(s));
        }
        if (kept.empty()) {
            std::string known;
            for (const std::string &n :
                 plant::ScenarioRegistry::global().plantNames()) {
                known += known.empty() ? n : ", " + n;
            }
            rtoc_fatal("--plant=%s matches no registered plant "
                       "(known: %s)",
                       plant_filter.c_str(), known.c_str());
        }
        specs = std::move(kept);
    }

    // Episode counts are registry-driven per spec; --episodes pins
    // every cell, --smoke shrinks for CI, --full doubles the per-spec
    // defaults (the historical 6 -> 12).
    auto episodes_for = [&](const plant::ScenarioSpec &s) -> int {
        if (smoke)
            return 2;
        if (episodes_flag > 0)
            return episodes_flag;
        return full ? 2 * s.episodes : s.episodes;
    };
    int uniform_episodes = episodes_for(specs.front());
    for (const plant::ScenarioSpec &s : specs) {
        if (episodes_for(s) != uniform_episodes)
            uniform_episodes = -1;
    }

    // Grid point t = (spec t / n_models, model t % n_models); cells
    // fan across the pool, aggregation is index-ordered.
    const size_t n_models = std::size(models);
    hil::SweepRunner sweep;
    std::vector<GridCell> grid = sweep.map<GridCell>(
        specs.size() * n_models, [&](size_t t) {
            GridCell g;
            g.spec = specs[t / n_models];
            g.model = models[t % n_models];
            // Calibrations are memoized per (impl, nx, nu); plants
            // sharing a shape share streams. The refresh cycle model
            // is fitted only when the relinearization axis is active,
            // keeping the default emission footprint — and output —
            // historical.
            hil::HilConfig cfg;
            cfg.idealPolicy = g.model == std::string("ideal");
            cfg.socFreqHz = freq_hz;
            cfg.relin = relin_axis ? relin : g.spec.relin;
            cfg.timing = hil::namedControllerTiming(
                g.model, *g.spec.prototype, 0.02, 10,
                !cfg.relin.fixedTrim());
            cfg.power = hil::namedPowerParams(g.model);
            g.cell = hil::runCell(*g.spec.prototype, g.spec.difficulty,
                                  episodes_for(g.spec), cfg,
                                  g.spec.disturbance);
            return g;
        });

    // The relinearization column appears only when the axis is
    // non-default, keeping the historical golden table byte-stable.
    std::vector<std::string> columns = {
        "scenario",  "shape",       "model",       "success",
        "solve ms (med)", "avg iters", "actuation W", "compute W"};
    if (relin_axis) {
        columns.insert(columns.begin() + 3, "relin");
        columns.push_back("track err m");
        columns.push_back("refresh/ep");
    }
    Table t("Cross-plant HIL sweep (all registered scenarios x "
            "backend timing models, " +
                Table::num(freq_hz / 1e6, 0) + " MHz, " +
                (uniform_episodes > 0
                     ? Table::num(
                           static_cast<uint64_t>(uniform_episodes))
                     : std::string("registry")) +
                " episodes/cell)",
            columns);
    for (const GridCell &g : grid) {
        const hil::SweepCell &c = g.cell;
        bool ideal = g.model == std::string("ideal");
        std::vector<std::string> row = {
            g.spec.id,
            Table::num(static_cast<uint64_t>(
                g.spec.prototype->nx())) + "x" +
                Table::num(static_cast<uint64_t>(
                    g.spec.prototype->nu())),
            g.model, Table::pct(c.successRate),
            ideal ? "-" : Table::num(c.solveTimeMs.median, 3),
            Table::num(c.avgIterations, 1),
            c.avgRotorPowerW > 0 ? Table::num(c.avgRotorPowerW, 2)
                                 : "-",
            ideal ? "-" : Table::num(c.avgSocPowerW, 3)};
        if (relin_axis) {
            row.insert(row.begin() + 3, c.relin.label());
            row.push_back(Table::num(c.avgTrackingErrM, 3));
            row.push_back(Table::num(c.avgRefreshes, 1));
        }
        t.addRow(row);
    }
    t.print();

    isa::MemoStats ps = isa::ProgramCache::global().stats();
    std::printf("\nProgram cache: %llu hits / %llu misses, %llu cached "
                "uops\n",
                static_cast<unsigned long long>(ps.hits),
                static_cast<unsigned long long>(ps.misses),
                static_cast<unsigned long long>(
                    isa::ProgramCache::global().cachedUops()));

    // --profile: Fig-12-style per-region cycle breakdown, replayed
    // from the process ProgramCache (one cached replay per backend x
    // plant shape). Printed after the golden tables so their bytes
    // never move; totals also land in the trace as counter tracks.
    if (profile) {
        obs::RegionProfile prof;
        const char *const prof_models[] = {"scalar", "vector",
                                           "gemmini"};
        std::vector<const plant::ScenarioSpec *> uniq;
        for (const plant::ScenarioSpec &s : specs) {
            bool seen = false;
            for (const plant::ScenarioSpec *u : uniq)
                seen = seen || u->plantName == s.plantName;
            if (!seen)
                uniq.push_back(&s);
        }
        for (const char *m : prof_models) {
            for (const plant::ScenarioSpec *s : uniq) {
                prof.add(m, s->plantName,
                         hil::regionBreakdown(m, *s->prototype, 0.02,
                                              10));
            }
        }
        std::printf("\n%s", prof.table().c_str());
        prof.exportTraceCounters();
    }

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f)
            rtoc_fatal("cannot write %s", json_path.c_str());
        std::fprintf(f, "{\n");
        rtoc::obs::Registry::global().writeJsonSections(f);
        std::fprintf(f, "  \"bench\": \"cross_plant\",\n");
        // null when the registry counts vary (per-cell "episodes"
        // fields carry the truth either way).
        if (uniform_episodes > 0) {
            std::fprintf(f, "  \"episodes_per_cell\": %d,\n",
                         uniform_episodes);
        } else {
            std::fprintf(f, "  \"episodes_per_cell\": null,\n");
        }
        std::fprintf(f, "  \"freq_mhz\": %.0f,\n", freq_hz / 1e6);
        std::fprintf(f, "  \"cells\": [\n");
        for (size_t i = 0; i < grid.size(); ++i) {
            const GridCell &g = grid[i];
            const hil::SweepCell &c = g.cell;
            // Relin fields only on a non-default axis: the default
            // JSON artifact stays byte-identical to the historical
            // golden output.
            std::string relin_fields;
            if (relin_axis) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "\"relin_k\": %d, "
                              "\"tracking_err_m\": %.5f, "
                              "\"refreshes_per_episode\": %.2f, ",
                              c.relin.everyK, c.avgTrackingErrM,
                              c.avgRefreshes);
                relin_fields = buf;
            }
            std::fprintf(
                f,
                "    {\"scenario\": \"%s\", \"plant\": \"%s\", "
                "\"difficulty\": \"%s\", \"disturbance\": \"%s\", "
                "\"model\": \"%s\", %s\"nx\": %d, \"nu\": %d, "
                "\"episodes\": %d, \"success\": %.4f, "
                "\"solve_ms_median\": %.6f, \"avg_iterations\": %.3f, "
                "\"actuation_w\": %.4f, \"soc_w\": %.5f}%s\n",
                g.spec.id.c_str(), g.spec.plantName.c_str(),
                plant::difficultyName(g.spec.difficulty),
                g.spec.disturbance.name, g.model.c_str(),
                relin_fields.c_str(),
                g.spec.prototype->nx(), g.spec.prototype->nu(),
                c.episodes, c.successRate, c.solveTimeMs.median,
                c.avgIterations, c.avgRotorPowerW, c.avgSocPowerW,
                i + 1 < grid.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("Wrote %s\n", json_path.c_str());
    }

    // Shape check: every plant must be flyable — the ideal policy
    // completes easy missions on every registered plant.
    bool ok = true;
    for (const GridCell &g : grid) {
        if (g.model == std::string("ideal") &&
            g.spec.difficulty == plant::Difficulty::Easy &&
            g.spec.disturbance.cmdNoiseSigma == 0.0 &&
            g.cell.successRate <= 0.5) {
            std::printf("FAIL: ideal policy succeeds on only %.0f%% of "
                        "%s\n",
                        100.0 * g.cell.successRate, g.spec.id.c_str());
            ok = false;
        }
    }
    std::printf("\nShape check: ideal policy completes easy missions "
                "on all %zu registered plants: %s\n",
                plant::ScenarioRegistry::global().plantNames().size(),
                ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
