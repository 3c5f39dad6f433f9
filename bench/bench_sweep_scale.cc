/**
 * @file
 * Sweep-throughput microbench: the repo's perf-trajectory artifact
 * for batched replay, the host solve and the sweep pool.
 *
 *  1. Batched design-point replay — for each timing family, an
 *     8-config design sweep over one cached solve stream, sequential
 *     per-config runStream vs one runStreamBatch. Equality of every
 *     cycle count is a hard assertion; the wall-clock ratio is the
 *     batched-replay speedup. In-order, Saturn and Gemmini batch with
 *     one N-lane pass, and full runs fail when such a pass is slower
 *     than its sequential sweep. OoO's batch runs its one-lane pass
 *     once per lane, so its row (labelled sequential) checks equality
 *     only.
 *  2. Functional solve rate — the host ADMM solve with no emission
 *     attached (the per-tick HIL hot path), in us per solve.
 *  3. Pool scaling — deterministically skewed task sets on the
 *     work-stealing pool, serial vs pooled, plus the grain knob's
 *     effect on tiny-task overhead. Result equality is a hard
 *     assertion.
 *
 * All timings are min-of-interleaved-runs: paths alternate at run
 * granularity so both see the same frequency/scheduler conditions,
 * and the minimum is the standard noise-robust estimator.
 *
 * Flags:
 *   --smoke      shrink repetition counts for CI; perf bars are
 *                reported but only equality is enforced (shared CI
 *                runners and Debug builds are too noisy to gate on)
 *   --json=PATH  write the BENCH_sweep.json artifact
 *   --full-bars  force the batched-replay bars even with --smoke
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "hil/sweep.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "systolic/gemmini.hh"
#include "tinympc/solver.hh"
#include "vector/saturn.hh"
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

// --- section 1: batched design-point replay ---

struct BatchRow
{
    std::string family;
    bool ownPass = true; ///< false: the family batches lane by lane
    size_t configs = 0;
    size_t uops = 0;
    double seqUs = 0.0;   ///< sequential per-config runStream, whole sweep
    double batchUs = 0.0; ///< one runStreamBatch pass, whole sweep
    double speedup = 0.0;
    bool equal = true;
};

std::vector<cpu::InOrderConfig>
inOrderSweep()
{
    using cpu::InOrderConfig;
    std::vector<InOrderConfig> cfgs = {InOrderConfig::rocket(),
                                       InOrderConfig::shuttle()};
    InOrderConfig c = InOrderConfig::shuttle();
    c.name = "shuttle-2fpu";
    c.fpuCount = 2;
    cfgs.push_back(c);
    c = InOrderConfig::shuttle();
    c.name = "shuttle-2mem";
    c.memPorts = 2;
    cfgs.push_back(c);
    c = InOrderConfig::rocket();
    c.name = "rocket-slowld";
    c.loadLatency = 6;
    cfgs.push_back(c);
    c = InOrderConfig::rocket();
    c.name = "rocket-fastfp";
    c.fpLatency = 2;
    cfgs.push_back(c);
    c = InOrderConfig::shuttle();
    c.name = "shuttle-wide";
    c.issueWidth = 4;
    c.fpuCount = 2;
    c.memPorts = 2;
    cfgs.push_back(c);
    c = InOrderConfig::rocket();
    c.name = "rocket-bb5";
    c.branchBubble = 5;
    cfgs.push_back(c);
    return cfgs;
}

BatchRow
measureBatch(const std::string &family,
             const std::shared_ptr<const isa::Program> &prog,
             const std::vector<const cpu::TimingModel *> &models,
             int runs, bool own_pass = true)
{
    BatchRow row;
    row.family = family;
    row.ownPass = own_pass;
    row.configs = models.size();
    row.uops = prog->size();
    const isa::UopStreamView view = prog->stream();

    // Correctness first: the batched pass must be bit-identical to
    // the sequential sweep.
    std::vector<cpu::TimingResult> batch =
        models.front()->runStreamBatch(view, models);
    for (size_t i = 0; i < models.size(); ++i) {
        cpu::TimingResult seq = models[i]->runStream(view);
        if (seq.cycles != batch[i].cycles ||
            seq.regionCycles != batch[i].regionCycles) {
            row.equal = false;
        }
    }

    row.seqUs = 1e30;
    row.batchUs = 1e30;
    for (int r = 0; r < runs; ++r) {
        double t0 = nowS();
        for (const cpu::TimingModel *m : models)
            m->runStream(view);
        row.seqUs = std::min(row.seqUs, (nowS() - t0) * 1e6);

        t0 = nowS();
        models.front()->runStreamBatch(view, models);
        row.batchUs = std::min(row.batchUs, (nowS() - t0) * 1e6);
    }
    row.speedup = row.batchUs > 0 ? row.seqUs / row.batchUs : 0.0;
    return row;
}

// --- section 3: pool scaling ---

/** Deterministic skewed busy-work shaped like a sweep cell: a few
 *  long poles between many short tasks. */
uint64_t
skewedWork(size_t i, int scale)
{
    const int reps = (i % 8 == 0 ? 24 : 3) * scale;
    uint64_t acc = 0x9e3779b97f4a7c15ull ^ i;
    volatile float sink = 0.0f;
    float x = static_cast<float>(i % 13) + 0.5f;
    for (int r = 0; r < reps; ++r) {
        for (int k = 0; k < 512; ++k)
            x = x * 0.9999f + 0.0001f * static_cast<float>(k % 7);
        acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink = x;
    (void)sink;
    return acc ^ static_cast<uint64_t>(x);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    const bool smoke = cli.has("smoke");
    const bool full_bars = !smoke || cli.has("full-bars");
    const std::string json_path = cli.getString("json", "");
    const int batch_runs = smoke ? 5 : 40;

    // ---------- 1. batched design-point replay ----------
    std::vector<BatchRow> batch_rows;

    {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        auto prog =
            bench::emitQuadSolveCached(b, tinympc::MappingStyle::Library);
        std::vector<std::unique_ptr<cpu::InOrderCore>> cores;
        std::vector<const cpu::TimingModel *> models;
        for (const auto &cfg : inOrderSweep()) {
            cores.push_back(std::make_unique<cpu::InOrderCore>(cfg));
            models.push_back(cores.back().get());
        }
        batch_rows.push_back(
            measureBatch("inorder", prog, models, batch_runs));

        using cpu::OooConfig;
        std::vector<OooConfig> ocfgs = {
            OooConfig::boomSmall(), OooConfig::boomMedium(),
            OooConfig::boomLarge(), OooConfig::boomMega()};
        OooConfig oc = OooConfig::boomSmall();
        oc.name = "boom-tiny-rob";
        oc.robSize = 8;
        ocfgs.push_back(oc);
        oc = OooConfig::boomMedium();
        oc.name = "boom-slow-ld";
        oc.loadLatency = 7;
        ocfgs.push_back(oc);
        oc = OooConfig::boomLarge();
        oc.name = "boom-slow-fp";
        oc.fpLatency = 8;
        ocfgs.push_back(oc);
        oc = OooConfig::boomMega();
        oc.name = "boom-narrow-int";
        oc.intIssue = 1;
        ocfgs.push_back(oc);
        std::vector<std::unique_ptr<cpu::OooCore>> ocores;
        std::vector<const cpu::TimingModel *> omodels;
        for (const auto &cfg : ocfgs) {
            ocores.push_back(std::make_unique<cpu::OooCore>(cfg));
            omodels.push_back(ocores.back().get());
        }
        batch_rows.push_back(
            measureBatch("ooo", prog, omodels, batch_runs, false));
    }
    {
        matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
        auto prog =
            bench::emitQuadSolveCached(b, tinympc::MappingStyle::Fused);
        using vector::SaturnConfig;
        std::vector<SaturnConfig> cfgs = {
            SaturnConfig::make(256, 128, false),
            SaturnConfig::make(512, 128, false),
            SaturnConfig::make(256, 128, true),
            SaturnConfig::make(512, 256, false),
            SaturnConfig::make(512, 128, true),
            SaturnConfig::make(512, 256, true)};
        SaturnConfig c = SaturnConfig::make(512, 256, true);
        c.name += "-vq2";
        c.vqDepth = 2;
        cfgs.push_back(c);
        c = SaturnConfig::make(512, 256, false);
        c.name += "-slowmem";
        c.memLat = 14;
        cfgs.push_back(c);
        std::vector<std::unique_ptr<vector::SaturnModel>> ms;
        std::vector<const cpu::TimingModel *> models;
        for (const auto &cfg : cfgs) {
            ms.push_back(std::make_unique<vector::SaturnModel>(cfg));
            models.push_back(ms.back().get());
        }
        batch_rows.push_back(
            measureBatch("saturn", prog, models, batch_runs));
    }
    {
        matlib::GemminiBackend b(
            matlib::GemminiMapping::fullyOptimized());
        auto prog =
            bench::emitQuadSolveCached(b, tinympc::MappingStyle::Library);
        using systolic::GemminiConfig;
        std::vector<GemminiConfig> cfgs = {
            GemminiConfig::os4x4(64), GemminiConfig::os4x4(32),
            GemminiConfig::ws4x4(64), GemminiConfig::os4x4HwGemv(64)};
        GemminiConfig c = GemminiConfig::os4x4(64);
        c.name += "-rob4";
        c.robDepth = 4;
        cfgs.push_back(c);
        c = GemminiConfig::os4x4(64);
        c.name += "-slowdma";
        c.dmaFixed = 90;
        cfgs.push_back(c);
        c = GemminiConfig::os4x4(64);
        c.name += "-bus8";
        c.busBytes = 8;
        cfgs.push_back(c);
        c = GemminiConfig::os4x4(64);
        c.name += "-mesh8";
        c.meshDim = 8;
        cfgs.push_back(c);
        std::vector<std::unique_ptr<systolic::GemminiModel>> ms;
        std::vector<const cpu::TimingModel *> models;
        for (const auto &cfg : cfgs) {
            ms.push_back(std::make_unique<systolic::GemminiModel>(cfg));
            models.push_back(ms.back().get());
        }
        batch_rows.push_back(
            measureBatch("gemmini", prog, models, batch_runs));
    }

    Table bt("Batched design-point replay: sequential per-config "
             "runStream vs one runStreamBatch (8-config sweeps)",
             {"family", "configs", "uops", "seq us", "batch us",
              "speedup", "bit-equal"});
    bool batch_equal = true;
    double saturn_speedup = 0.0;
    for (const auto &r : batch_rows) {
        bt.addRow({r.ownPass ? r.family : r.family + " (sequential)",
                   Table::num(static_cast<uint64_t>(r.configs)),
                   Table::num(static_cast<uint64_t>(r.uops)),
                   Table::num(r.seqUs, 1), Table::num(r.batchUs, 1),
                   Table::num(r.speedup, 2) + "x",
                   r.equal ? "yes" : "NO"});
        batch_equal = batch_equal && r.equal;
        if (r.family == "saturn")
            saturn_speedup = r.speedup;
    }
    bt.print();

    // ---------- 2. functional solve rate ----------
    // The per-tick HIL hot path: no emission attached.
    double solve_us;
    {
        const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
        tinympc::Workspace ws = drone.buildWorkspace(0.02, 10);
        ws.settings.maxIters = 5;
        ws.settings.priTol = 0.0f;
        ws.settings.duaTol = 0.0f;
        matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
        tinympc::Solver solver(ws, backend,
                               tinympc::MappingStyle::Library);
        float x0[12] = {0.4f, -0.2f, 0.9f, 0, 0, 0, 0, 0, 0, 0, 0, 0};
        ws.setInitialState(x0);
        solver.solve(); // warm
        const int solves = smoke ? 200 : 2000;
        solve_us = 1e30;
        for (int r = 0; r < (smoke ? 5 : 20); ++r) {
            double t0 = nowS();
            for (int s = 0; s < solves; ++s)
                solver.solve();
            solve_us = std::min(solve_us, (nowS() - t0) / solves * 1e6);
        }
        std::printf("Functional ADMM solve (5 iters, 12x4xN10, no "
                    "emission): %.2f us/solve (%.0f solves/s)\n\n",
                    solve_us, 1e6 / solve_us);
    }

    // ---------- 3. pool scaling ----------
    const size_t pool_n = smoke ? 96 : 512;
    const int work_scale = smoke ? 1 : 4;
    std::vector<uint64_t> serial_out(pool_n), pool_out(pool_n);

    ThreadPool serial(1);
    double serial_s = 1e30, pool_s = 1e30;
    const int pool_runs = smoke ? 3 : 8;
    for (int r = 0; r < pool_runs; ++r) {
        double t0 = nowS();
        serial.parallelFor(pool_n, [&](size_t i) {
            serial_out[i] = skewedWork(i, work_scale);
        });
        serial_s = std::min(serial_s, nowS() - t0);

        t0 = nowS();
        ThreadPool::global().parallelFor(pool_n, [&](size_t i) {
            pool_out[i] = skewedWork(i, work_scale);
        });
        pool_s = std::min(pool_s, nowS() - t0);
    }
    const bool pool_equal = serial_out == pool_out;
    const int threads = ThreadPool::global().threads();
    const double pool_speedup = pool_s > 0 ? serial_s / pool_s : 0.0;

    // Grain effect on tiny tasks: claim overhead with one index per
    // task vs the sweep's auto heuristic.
    const size_t tiny_n = smoke ? 20000 : 100000;
    double tiny_g1 = 1e30, tiny_auto = 1e30;
    const size_t auto_grain = hil::SweepRunner::defaultGrain(
        tiny_n, ThreadPool::global().threads());
    std::vector<uint32_t> tiny_out(tiny_n);
    for (int r = 0; r < pool_runs; ++r) {
        double t0 = nowS();
        ThreadPool::global().parallelFor(
            tiny_n,
            [&](size_t i) {
                tiny_out[i] = static_cast<uint32_t>(i * 2654435761u);
            },
            1);
        tiny_g1 = std::min(tiny_g1, nowS() - t0);

        t0 = nowS();
        ThreadPool::global().parallelFor(
            tiny_n,
            [&](size_t i) {
                tiny_out[i] = static_cast<uint32_t>(i * 2654435761u);
            },
            auto_grain);
        tiny_auto = std::min(tiny_auto, nowS() - t0);
    }

    std::printf("Work-stealing pool: %zu skewed tasks, serial %.3fs "
                "vs pooled %.3fs (%d threads) -> %.2fx, results %s\n",
                pool_n, serial_s, pool_s, threads, pool_speedup,
                pool_equal ? "bit-identical" : "DIVERGED");
    std::printf("Grain: %zu tiny tasks, grain 1 %.1fms vs auto grain "
                "%zu %.1fms -> %.2fx lower dispatch overhead\n",
                tiny_n, tiny_g1 * 1e3, auto_grain, tiny_auto * 1e3,
                tiny_auto > 0 ? tiny_g1 / tiny_auto : 0.0);

    // ---------- artifact + exit ----------
    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f)
            rtoc_fatal("cannot write %s", json_path.c_str());
        std::fprintf(f, "{\n");
        rtoc::obs::Registry::global().writeJsonSections(f);
        std::fprintf(f, "  \"batched_replay\": [\n");
        for (size_t i = 0; i < batch_rows.size(); ++i) {
            const auto &r = batch_rows[i];
            std::fprintf(f,
                         "    {\"family\": \"%s\", \"batch\": \"%s\", "
                         "\"configs\": %zu, "
                         "\"uops\": %zu, \"seq_us\": %.2f, "
                         "\"batch_us\": %.2f, \"speedup\": %.3f, "
                         "\"equal\": %s}%s\n",
                         r.family.c_str(),
                         r.ownPass ? "pass" : "sequential", r.configs,
                         r.uops, r.seqUs, r.batchUs, r.speedup,
                         r.equal ? "true" : "false",
                         i + 1 < batch_rows.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"solve_us\": %.3f,\n", solve_us);
        std::fprintf(f,
                     "  \"pool\": {\"tasks\": %zu, \"serial_s\": %.4f, "
                     "\"pool_s\": %.4f, \"threads\": %d, "
                     "\"speedup\": %.3f, \"equal\": %s,\n"
                     "    \"tiny_tasks\": %zu, \"tiny_grain1_ms\": "
                     "%.3f, \"tiny_auto_grain\": %zu, "
                     "\"tiny_auto_ms\": %.3f}\n}\n",
                     pool_n, serial_s, pool_s, threads, pool_speedup,
                     pool_equal ? "true" : "false", tiny_n,
                     tiny_g1 * 1e3, auto_grain, tiny_auto * 1e3);
        std::fclose(f);
        std::printf("Wrote %s\n", json_path.c_str());
    }

    bool ok = batch_equal && pool_equal;
    if (!batch_equal)
        std::printf("\nFAIL: batched replay diverged from sequential\n");
    if (!pool_equal)
        std::printf("\nFAIL: pooled sweep diverged from serial\n");
    // A batch pass that no longer beats its sequential sweep is dead
    // weight: the family should drop it and batch sequentially.
    for (const BatchRow &r : batch_rows) {
        if (full_bars && r.ownPass && r.speedup < 1.0) {
            std::printf("\nFAIL: %s batched replay %.2fx, slower than "
                        "its sequential sweep\n",
                        r.family.c_str(), r.speedup);
            ok = false;
        }
    }
#if defined(__AVX2__)
    // The lane-major Saturn engine only hits its vectorized form under
    // RTOC_NATIVE builds (where __AVX2__ is defined), so the bar is
    // compiled in with it.
    if (full_bars && saturn_speedup < 1.3) {
        std::printf("\nFAIL: Saturn batched-replay speedup %.2fx "
                    "below the 1.3x bar\n",
                    saturn_speedup);
        ok = false;
    }
#else
    if (full_bars && saturn_speedup < 1.3)
        std::printf("\nNOTE: Saturn batched-replay speedup %.2fx "
                    "(1.3x bar applies to RTOC_NATIVE builds only)\n",
                    saturn_speedup);
#endif
    return ok ? 0 : 1;
}
