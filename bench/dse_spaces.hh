/**
 * @file
 * Concrete design spaces for the dse explorer benches — the Figure-10
 * configuration axis (rocket/shuttle, four BOOMs, six Saturns, three
 * Gemminis, with the paper's area table) expressed as a
 * dse::DesignSpace, plus refined and scaled variants that extend it
 * with latency/width/frequency axes:
 *
 *  - fig10Space(): exactly the 15 historical design points (single
 *    nominal latency/width/frequency value per axis). Enumerating it
 *    reproduces bench_fig10_pareto's table bit-for-bit.
 *  - refinedFig10Space(smoke): adds a latency-scale sweep and a small
 *    width sweep around each configuration — the exhaustively
 *    enumerable space bench_dse uses to gate search-vs-grid frontier
 *    recovery and cells saved.
 *  - scaledFig10Space(): >= 100k points via fine latency and
 *    frequency steps; the space the grid path cannot feasibly sweep
 *    and the explorer searches.
 *
 * Fidelity maps to ADMM solver iterations: Fidelity::Low replays a
 * 1-iteration solve stream, Fidelity::Full the paper's 5-iteration
 * solve. Every configuration fetches and names its stream through
 * solveClosures, that is through the one solve-stream emitter and key
 * (hil::solveStream, hil::solveStreamKey), so the two fidelities are
 * distinct cached streams and a design space shares each stream with
 * the calibrations and benches.
 */

#ifndef RTOC_BENCH_DSE_SPACES_HH
#define RTOC_BENCH_DSE_SPACES_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "dse/design_space.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "soc/area_model.hh"

namespace rtoc::bench {

/** Solver iterations behind each fidelity rung. */
inline int
fidelityIters(dse::Fidelity f)
{
    return f == dse::Fidelity::Low ? 1 : 5;
}

/**
 * The emit and progKey closures of a configuration replaying the
 * quadrotor solve stream of the backend @p make builds, in @p style.
 * The numeric format is applied to that backend, whose cacheKey (and
 * so the stream key) carries its element width: 16-bit streams never
 * alias 32-bit ones, and formats of one width share one.
 */
inline std::pair<decltype(dse::ConfigEntry::emit),
                 decltype(dse::ConfigEntry::progKey)>
solveClosures(std::function<std::unique_ptr<matlib::Backend>()> make,
              tinympc::MappingStyle style)
{
    auto backend = [make](matlib::NumericFormat fmt) {
        std::unique_ptr<matlib::Backend> b = make();
        b->setFormat(fmt);
        return b;
    };
    return {[backend, style](dse::Fidelity f, matlib::NumericFormat fmt) {
                return emitQuadSolveCached(*backend(fmt), style,
                                           fidelityIters(f));
            },
            [backend, style](dse::Fidelity f, matlib::NumericFormat fmt) {
                return plantSolveKey(*backend(fmt), style, 12, 4, 10,
                                     fidelityIters(f));
            }};
}

/** The 15 Figure-10 design points as a DesignSpace (nominal axes). */
inline dse::DesignSpace
fig10Space()
{
    soc::AreaModel area;
    dse::DesignSpace s("fig10");

    // Area sensitivity to the width axis, anchored on the table's
    // D128-vs-D256 Saturn pairs (~0.4 mm^2 per DLEN doubling) and the
    // Gemmini DMA bus (~0.25 mm^2 per width doubling). Scalar cores
    // have no width knob (the axis aliases onto one replay cell).
    constexpr double kSaturnWidthMm2 = 0.40;
    constexpr double kGemminiWidthMm2 = 0.25;

    // Scalar cores run the optimized Eigen mapping.
    const auto [scalar_emit, scalar_key] = solveClosures(
        [] {
            return std::make_unique<matlib::ScalarBackend>(
                matlib::ScalarFlavor::Optimized);
        },
        tinympc::MappingStyle::Library);

    s.addConfig(
        {"rocket",
         [](double lat, double) -> std::unique_ptr<cpu::TimingModel> {
             return std::make_unique<cpu::InOrderCore>(
                 dse::scaledInOrder(cpu::InOrderConfig::rocket(), lat));
         },
         scalar_emit, scalar_key,
         dse::areaWithWidth(area.areaMm2("rocket"), 0.0), 0});
    s.addConfig(
        {"shuttle",
         [](double lat, double) -> std::unique_ptr<cpu::TimingModel> {
             return std::make_unique<cpu::InOrderCore>(
                 dse::scaledInOrder(cpu::InOrderConfig::shuttle(), lat));
         },
         scalar_emit, scalar_key,
         dse::areaWithWidth(area.areaMm2("shuttle"), 0.0), 0});
    for (auto cfg_fn : {cpu::OooConfig::boomSmall,
                        cpu::OooConfig::boomMedium,
                        cpu::OooConfig::boomLarge,
                        cpu::OooConfig::boomMega}) {
        cpu::OooConfig cfg = cfg_fn();
        s.addConfig(
            {cfg.name,
             [cfg](double lat,
                   double) -> std::unique_ptr<cpu::TimingModel> {
                 return std::make_unique<cpu::OooCore>(
                     dse::scaledOoo(cfg, lat));
             },
             scalar_emit, scalar_key,
             dse::areaWithWidth(area.areaMm2(cfg.name), 0.0), 0});
    }

    // Saturn configurations run the hand-optimized RVV mapping; the
    // source is one binary using dynamic VLMAX (§5.1.5), so the
    // executed stream adapts to each configuration's VLEN — design
    // points with equal VLEN replay one cached stream.
    for (auto [vlen, dlen, shuttle] :
         {std::tuple{256, 128, false}, std::tuple{512, 128, false},
          std::tuple{256, 128, true}, std::tuple{512, 256, false},
          std::tuple{512, 128, true}, std::tuple{512, 256, true}}) {
        const std::string name =
            vector::SaturnConfig::make(vlen, dlen, shuttle).name;
        const auto [emit, key] = solveClosures(
            [vl = vlen] {
                return std::make_unique<matlib::RvvBackend>(
                    vl, matlib::RvvMapping::handOptimized());
            },
            tinympc::MappingStyle::Fused);
        s.addConfig(
            {name,
             [vl = vlen, dl = dlen, sh = shuttle](
                 double lat,
                 double width) -> std::unique_ptr<cpu::TimingModel> {
                 return std::make_unique<vector::SaturnModel>(
                     dse::scaledSaturn(
                         vector::SaturnConfig::make(vl, dl, sh), lat,
                         width));
             },
             emit, key,
             dse::areaWithWidth(area.areaMm2(name), kSaturnWidthMm2),
             0});
    }

    // Gemmini design points: optimized OS mapping; the WS design runs
    // the merely static-mapped software (§5.1.5: the deep software
    // optimizations were not ported to it). The spad32k point pays the
    // modelled 600-cycle scratchpad-spill overhead per solve.
    auto gemmini = [](matlib::GemminiMapping mapping) {
        return solveClosures(
            [mapping] {
                return std::make_unique<matlib::GemminiBackend>(mapping);
            },
            tinympc::MappingStyle::Library);
    };
    const auto [gem_opt_emit, gem_opt_key] =
        gemmini(matlib::GemminiMapping::fullyOptimized());
    const auto [gem_static_emit, gem_static_key] =
        gemmini(matlib::GemminiMapping::staticMapped());
    auto gem_model = [](systolic::GemminiConfig cfg) {
        return [cfg](double lat,
                     double width) -> std::unique_ptr<cpu::TimingModel> {
            return std::make_unique<systolic::GemminiModel>(
                dse::scaledGemmini(cfg, lat, width));
        };
    };
    s.addConfig({"gemmini-os4x4-spad64k",
                 gem_model(systolic::GemminiConfig::os4x4(64)),
                 gem_opt_emit, gem_opt_key,
                 dse::areaWithWidth(area.areaMm2("gemmini-os4x4-spad64k"),
                                    kGemminiWidthMm2),
                 0});
    s.addConfig({"gemmini-os4x4-spad32k",
                 gem_model(systolic::GemminiConfig::os4x4(32)),
                 gem_opt_emit, gem_opt_key,
                 dse::areaWithWidth(area.areaMm2("gemmini-os4x4-spad32k"),
                                    kGemminiWidthMm2),
                 600});
    s.addConfig({"gemmini-ws4x4-spad64k",
                 gem_model(systolic::GemminiConfig::ws4x4(64)),
                 gem_static_emit, gem_static_key,
                 dse::areaWithWidth(area.areaMm2("gemmini-ws4x4-spad64k"),
                                    kGemminiWidthMm2),
                 0});
    return s;
}

/**
 * Figure-10 configurations refined with latency and width sweeps —
 * small enough to enumerate exhaustively, big enough that searching
 * it beats sweeping it. Frequency stays at the figure's 1 GHz so
 * solves/s stays comparable.
 */
inline dse::DesignSpace
refinedFig10Space(bool smoke)
{
    dse::DesignSpace s = fig10Space();
    std::vector<double> lats;
    if (smoke) {
        for (int k = 0; k < 8; ++k)
            lats.push_back(0.70 + 0.15 * k);
    } else {
        for (int k = 0; k < 48; ++k)
            lats.push_back(0.70 + 0.025 * k);
    }
    s.setLatScales(lats);
    s.setWidthScales({0.75, 1.0, 1.25});
    s.setFreqsHz({1e9});
    return s;
}

/**
 * The >= 100k-point scaled space: fine latency and frequency steps on
 * top of the width sweep. An exhaustive grid over it is the workload
 * the ROADMAP rules out; the explorer searches it.
 */
inline dse::DesignSpace
scaledFig10Space()
{
    dse::DesignSpace s = fig10Space();
    std::vector<double> lats;
    for (int k = 0; k < 48; ++k)
        lats.push_back(0.50 + 0.03 * k);
    std::vector<double> freqs;
    for (int k = 0; k < 30; ++k)
        freqs.push_back((0.2 + 0.1 * k) * 1e9);
    s.setLatScales(lats);
    s.setWidthScales({0.50, 0.75, 1.0, 1.5, 2.0});
    s.setFreqsHz(freqs);
    return s; // 15 x 48 x 5 x 30 = 108,000 points
}

} // namespace rtoc::bench

#endif // RTOC_BENCH_DSE_SPACES_HH
