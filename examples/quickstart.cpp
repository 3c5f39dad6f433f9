/**
 * @file
 * Quickstart: solve one box-constrained MPC problem with TinyMPC,
 * then time the same solve on three architecture models (Rocket
 * scalar, Saturn vector, Gemmini systolic).
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "cpu/inorder.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "plant/quad_plant.hh"
#include "systolic/gemmini.hh"
#include "tinympc/solver.hh"
#include "vector/saturn.hh"

using namespace rtoc;

int
main()
{
    // 1. Build the control problem: a CrazyFlie hovering at 1 m,
    //    asked to move to (0.5, 0.5, 1.5).
    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    tinympc::Workspace ws = drone.buildWorkspace(0.02, 10);
    ws.setReferenceAll(drone.reference({0.5, 0.5, 1.5}));
    float x0[12] = {0, 0, 1.0f, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    ws.setInitialState(x0);

    // 2. Solve functionally (no emission).
    matlib::ScalarBackend func(matlib::ScalarFlavor::Optimized);
    tinympc::Solver solver(ws, func, tinympc::MappingStyle::Library);
    tinympc::SolveResult res = solver.solve();
    std::printf("solved in %d ADMM iterations (converged: %s)\n",
                res.iterations, res.converged ? "yes" : "no");
    matlib::Mat u0 = solver.firstInput();
    std::printf("first input (motor thrust deltas, N): "
                "[%+.4f %+.4f %+.4f %+.4f]\n",
                u0[0], u0[1], u0[2], u0[3]);

    // 3. Time the same solve on three architectures.
    auto time_on = [&](matlib::Backend &backend,
                       tinympc::MappingStyle style,
                       const cpu::TimingModel &model) {
        tinympc::Workspace w2 = drone.buildWorkspace(0.02, 10);
        w2.setReferenceAll(drone.reference({0.5, 0.5, 1.5}));
        w2.setInitialState(x0);
        isa::Program prog;
        backend.setProgram(&prog);
        tinympc::Solver s2(w2, backend, style);
        s2.setup();
        s2.solve();
        backend.setProgram(nullptr);
        auto r = model.run(prog);
        std::printf("%-28s %8llu cycles  (%.2f ms at 100 MHz)\n",
                    model.name().c_str(),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<double>(r.cycles) / 100e6 * 1e3);
    };

    matlib::ScalarBackend eigen(matlib::ScalarFlavor::Optimized);
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    time_on(eigen, tinympc::MappingStyle::Library, rocket);

    matlib::RvvBackend rvv(512, matlib::RvvMapping::handOptimized());
    vector::SaturnModel saturn(vector::SaturnConfig::make(512, 256, true));
    time_on(rvv, tinympc::MappingStyle::Fused, saturn);

    matlib::GemminiBackend gem(matlib::GemminiMapping::fullyOptimized());
    systolic::GemminiModel gemmini(systolic::GemminiConfig::os4x4());
    time_on(gem, tinympc::MappingStyle::Library, gemmini);

    return 0;
}
