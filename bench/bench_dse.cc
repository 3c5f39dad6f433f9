/**
 * @file
 * Search-vs-sweep design-space exploration bench: the headline
 * artifact for the dse subsystem ("search, don't sweep").
 *
 * Three experiments over the shared Figure-10 configuration axis
 * (bench/dse_spaces.hh):
 *
 *  1. exact    — the 15 historical fig10 points. Explorer::explore
 *     (successive halving, low-fidelity 1-iteration streams) must
 *     recover the exhaustive grid's Pareto frontier exactly.
 *  2. refined  — fig10 configs x latency-scale x width-scale, fully
 *     enumerable. The search must recover the grid frontier within
 *     tolerance (no frontier point's solves/s more than 2% low)
 *     while requesting a fraction of the cells (>= 5x fewer on the
 *     full run, >= 2x on --smoke), and the frontier hypervolume
 *     error is reported.
 *  3. scaled   — >= 100k points via fine latency/frequency steps; the
 *     grid path is priced (projected distinct cells) but only the
 *     search runs it.
 *
 * The search Explorer runs before the grid Explorer, so the search
 * pays its own replays while the grid inherits a part-warm process
 * memo — biasing the reported wall-clock AGAINST the search.
 * Cells-requested counts are per-Explorer and cache-independent, so
 * the gates are deterministic on cold and warm RTOC_CACHE_DIRs.
 *
 * Flags:
 *   --smoke      shrink the refined space and skip the scaled space
 *                (CI: asserts frontier recovery at reduced cells)
 *   --json=PATH  write the BENCH_dse.json artifact
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/table.hh"
#include "dse/explorer.hh"
#include "dse_spaces.hh"
#include "obs/registry.hh"

using namespace rtoc;

namespace {

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Reference area for hypervolume: beyond every evaluated design. */
constexpr double kHvRefAreaMm2 = 8.0;

/**
 * Frontier recovery: every grid frontier point must be matched by a
 * search frontier point no larger in area and within @p tol of its
 * solves/s. Returns the worst perf ratio seen through @p worst.
 */
bool
frontierRecovered(const std::vector<dse::EvalOutcome> &grid_frontier,
                  const std::vector<dse::EvalOutcome> &search_frontier,
                  double tol, double *worst)
{
    bool ok = true;
    *worst = 1.0;
    for (const dse::EvalOutcome &g : grid_frontier) {
        double p =
            dse::frontierPerfAt(search_frontier, g.areaMm2 + 1e-12);
        double ratio = g.solvesPerS > 0 ? p / g.solvesPerS : 1.0;
        *worst = std::min(*worst, ratio);
        if (ratio < 1.0 - tol)
            ok = false;
    }
    return ok;
}

struct ExperimentRow
{
    std::string name;
    size_t points = 0;
    uint64_t grid_cells = 0;   ///< distinct full-fidelity grid cost
    uint64_t search_cells = 0; ///< cells the search requested (all fi)
    double grid_s = -1.0;      ///< <0 when the grid was not run
    double search_s = 0.0;
    double worst_ratio = 1.0;
    double hv_err = 0.0;
    bool recovered = true;
    size_t frontier_size = 0;
    dse::EvalStats search_stats;
};

void
printFrontier(const std::string &title,
              const std::vector<dse::EvalOutcome> &frontier)
{
    Table t(title, {"configuration", "area mm^2", "solves/s", "MHz"});
    for (const dse::EvalOutcome &o : frontier) {
        t.addRow({o.config, Table::num(o.areaMm2, 2),
                  Table::num(o.solvesPerS, 0),
                  Table::num(o.freqHz / 1e6, 0)});
    }
    t.print();
}

void
printStats(const char *who, const dse::EvalStats &s, double wall_s)
{
    std::printf("  %-6s cells %llu (low-fi %llu), replays %llu, memo "
                "hits %llu, disk hits %llu, uops %llu, points %llu, "
                "%.3fs\n",
                who, static_cast<unsigned long long>(s.cellsRequested),
                static_cast<unsigned long long>(s.cellsLowFi),
                static_cast<unsigned long long>(s.replays),
                static_cast<unsigned long long>(s.memoHits),
                static_cast<unsigned long long>(s.diskHits),
                static_cast<unsigned long long>(s.uopsReplayed),
                static_cast<unsigned long long>(s.pointsServed),
                wall_s);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const bool smoke = cli.has("smoke");
    const std::string json_path = cli.getString("json", "");
    const double tol = 0.02;
    const double min_cell_ratio = smoke ? 2.0 : 5.0;

    std::vector<ExperimentRow> rows;
    bool ok = true;

    // ---------- 1. exact fig10 space ----------
    {
        dse::DesignSpace space = bench::fig10Space();
        ExperimentRow row;
        row.name = "fig10-exact";
        row.points = space.size();

        dse::Explorer search(space);
        double t0 = nowS();
        dse::Explorer::Result s = search.explore();
        row.search_s = nowS() - t0;

        dse::Explorer grid(space);
        t0 = nowS();
        dse::Explorer::Result g = grid.exploreGrid();
        row.grid_s = nowS() - t0;

        row.grid_cells = g.gridCells;
        row.search_cells = s.stats.cellsRequested;
        row.search_stats = s.stats;
        row.frontier_size = s.frontier.size();
        row.recovered = frontierRecovered(g.frontier, s.frontier, tol,
                                          &row.worst_ratio);
        double hv_g = dse::hypervolume(g.frontier, kHvRefAreaMm2);
        double hv_s = dse::hypervolume(s.frontier, kHvRefAreaMm2);
        row.hv_err = hv_g > 0 ? std::abs(hv_s - hv_g) / hv_g : 0.0;
        ok = ok && row.recovered;

        printFrontier("DSE 1/3: searched frontier on the exact fig10 "
                      "space (15 points)",
                      s.frontier);
        printStats("search", s.stats, row.search_s);
        printStats("grid", g.stats, row.grid_s);
        std::printf("  frontier %s (worst ratio %.4f), hv err %.4f\n\n",
                    row.recovered ? "recovered" : "MISSED",
                    row.worst_ratio, row.hv_err);
        rows.push_back(row);
    }

    // ---------- 2. refined space: the cells-saved gate ----------
    {
        dse::DesignSpace space = bench::refinedFig10Space(smoke);
        ExperimentRow row;
        row.name = smoke ? "fig10-refined-smoke" : "fig10-refined";
        row.points = space.size();

        dse::Explorer search(space);
        double t0 = nowS();
        dse::Explorer::Result s = search.explore();
        row.search_s = nowS() - t0;

        dse::Explorer grid(space);
        t0 = nowS();
        dse::Explorer::Result g = grid.exploreGrid();
        row.grid_s = nowS() - t0;

        row.grid_cells = g.gridCells;
        row.search_cells = s.stats.cellsRequested;
        row.search_stats = s.stats;
        row.frontier_size = s.frontier.size();
        row.recovered = frontierRecovered(g.frontier, s.frontier, tol,
                                          &row.worst_ratio);
        double hv_g = dse::hypervolume(g.frontier, kHvRefAreaMm2);
        double hv_s = dse::hypervolume(s.frontier, kHvRefAreaMm2);
        row.hv_err = hv_g > 0 ? std::abs(hv_s - hv_g) / hv_g : 0.0;

        const double ratio =
            row.search_cells
                ? static_cast<double>(row.grid_cells) / row.search_cells
                : 0.0;
        const bool cells_ok = ratio >= min_cell_ratio;
        ok = ok && row.recovered && cells_ok;

        printFrontier(
            csprintf("DSE 2/3: searched frontier on the refined space "
                     "(%zu points, %llu distinct grid cells)",
                     row.points,
                     static_cast<unsigned long long>(row.grid_cells)),
            s.frontier);
        printStats("search", s.stats, row.search_s);
        printStats("grid", g.stats, row.grid_s);
        std::printf("  frontier %s (worst ratio %.4f), hv err %.4f, "
                    "cells saved %.1fx (gate %.0fx) %s\n\n",
                    row.recovered ? "recovered" : "MISSED",
                    row.worst_ratio, row.hv_err, ratio, min_cell_ratio,
                    cells_ok ? "ok" : "FAIL");
        rows.push_back(row);
    }

    // ---------- 3. scaled >=100k-point space (full runs only) ------
    if (!smoke) {
        dse::DesignSpace space = bench::scaledFig10Space();
        ExperimentRow row;
        row.name = "fig10-scaled";
        row.points = space.size();

        dse::Explorer search(space);
        double t0 = nowS();
        dse::Explorer::Result s = search.explore();
        row.search_s = nowS() - t0;

        row.grid_cells = s.gridCells; // projected, never replayed
        row.search_cells = s.stats.cellsRequested;
        row.search_stats = s.stats;
        row.frontier_size = s.frontier.size();
        ok = ok && row.points >= 100000 && !s.frontier.empty();

        printFrontier(
            csprintf("DSE 3/3: searched frontier on the scaled space "
                     "(%zu points; grid would replay %llu cells)",
                     row.points,
                     static_cast<unsigned long long>(row.grid_cells)),
            s.frontier);
        printStats("search", s.stats, row.search_s);
        std::printf("  evaluated %llu of %llu cells (%.1fx fewer), "
                    "%zu-point space completed in %.3fs\n\n",
                    static_cast<unsigned long long>(row.search_cells),
                    static_cast<unsigned long long>(row.grid_cells),
                    row.search_cells
                        ? static_cast<double>(row.grid_cells) /
                              row.search_cells
                        : 0.0,
                    row.points, row.search_s);
        rows.push_back(row);
    }

    isa::MemoStats memo = dse::evalMemo().stats();
    std::printf("Eval memo: %llu hits, %llu misses, %zu entries\n",
                static_cast<unsigned long long>(memo.hits),
                static_cast<unsigned long long>(memo.misses),
                memo.entries);

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f)
            rtoc_fatal("cannot write %s", json_path.c_str());
        std::fprintf(f, "{\n");
        rtoc::obs::Registry::global().writeJsonSections(f);
        std::fprintf(f, "  \"experiments\": [\n");
        for (size_t i = 0; i < rows.size(); ++i) {
            const ExperimentRow &r = rows[i];
            std::fprintf(
                f,
                "    {\"name\": \"%s\", \"points\": %zu, "
                "\"grid_cells\": %llu, \"search_cells\": %llu, "
                "\"cells_saved\": %.2f, \"recovered\": %s, "
                "\"worst_ratio\": %.4f, \"hv_err\": %.4f, "
                "\"frontier_size\": %zu, \"grid_s\": %.4f, "
                "\"search_s\": %.4f, \"replays\": %llu, "
                "\"memo_hits\": %llu, \"disk_hits\": %llu}%s\n",
                r.name.c_str(), r.points,
                static_cast<unsigned long long>(r.grid_cells),
                static_cast<unsigned long long>(r.search_cells),
                r.search_cells ? static_cast<double>(r.grid_cells) /
                                     r.search_cells
                               : 0.0,
                r.recovered ? "true" : "false", r.worst_ratio, r.hv_err,
                r.frontier_size, r.grid_s, r.search_s,
                static_cast<unsigned long long>(r.search_stats.replays),
                static_cast<unsigned long long>(
                    r.search_stats.memoHits),
                static_cast<unsigned long long>(
                    r.search_stats.diskHits),
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"ok\": %s\n}\n",
                     ok ? "true" : "false");
        std::fclose(f);
        std::printf("Wrote %s\n", json_path.c_str());
    }

    if (!ok)
        std::printf("\nFAIL: a dse gate did not hold (see above)\n");
    return ok ? 0 : 1;
}
