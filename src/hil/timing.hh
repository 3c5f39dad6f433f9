/**
 * @file
 * Controller timing calibration: measure cycles-per-ADMM-iteration of
 * a (architecture model, software mapping) pair by running the
 * instrumented solver through the timing simulator at 5 and 10 ADMM
 * iterations and fitting base + perIter·iters. The HIL loop then
 * treats the SoC exactly as the paper's setup treats the Cygnus chip:
 * a black box whose solve latency is cycles(iterations) / frequency.
 * Replay is exactly affine in iterations at the multiples of the
 * solver's 5-iteration check, where every unbudgeted solve stops, so
 * 5 and 10, the shortest such pair, give the line any longer pair
 * would, bit for bit (held against replay to 25 iterations by the
 * CalibrationPremise tests). At other counts the line is not exact.
 *
 * The instrumented solve stream has one emitter (emitSolveStream) and
 * one key (solveStreamKey), which calibrations, region breakdowns,
 * the DSE spaces and every bench share. The stream depends only on
 * the backend's stream key (mapping and element width), the style,
 * the problem shape (nx, nu, horizon) and the iteration count, never
 * on dt or plant parameter values, so every plant with the
 * quadrotor's 12x4 shape replays the quadrotor's cached streams.
 * Every entry point takes a plant::Plant; one calibration replays one
 * model (design sweeps batch their replays in dse::Explorer).
 *
 * Fits are memoized in calibMemo(), one isa::Memo keyed on what a fit
 * depends on (model and backend cacheKeys, style, shape, refresh-
 * awareness; no dt) with the DiskCache "calib" namespace as its disk
 * tier. The named-target calibrations go through its memory tier;
 * calibrateTiming uses the disk tier alone.
 */

#ifndef RTOC_HIL_TIMING_HH
#define RTOC_HIL_TIMING_HH

#include <memory>
#include <optional>
#include <string>

#include "cpu/core_model.hh"
#include "isa/memo.hh"
#include "isa/program.hh"
#include "matlib/backend.hh"
#include "plant/plant.hh"
#include "soc/power_model.hh"
#include "tinympc/solver.hh"

namespace rtoc::hil {

/** Linear per-solve cycle model of one controller implementation. */
struct ControllerTiming
{
    std::string archName;
    std::string mappingName;
    double baseCycles = 0.0;
    double cyclesPerIter = 0.0;

    // Model-refresh cycle model (warm-start incremental
    // relinearization): fitted from the emitted "riccati_sweep" /
    // "model_refresh_commit" refresh streams at 1 and 2 Riccati
    // sweeps. Refresh replay is affine in sweeps from the first one,
    // so refreshCycles is exact at every sweep count.
    double refreshBaseCycles = 0.0;
    double refreshCyclesPerIter = 0.0;

    /** Cycles for a solve with @p iters ADMM iterations. */
    double
    solveCycles(int iters) const
    {
        return baseCycles + cyclesPerIter * static_cast<double>(iters);
    }

    /** Cycles for one model refresh taking @p riccati_iters warm
     *  Riccati iterations. */
    double
    refreshCycles(int riccati_iters) const
    {
        return refreshBaseCycles +
               refreshCyclesPerIter * static_cast<double>(riccati_iters);
    }
};

/**
 * Key of the instrumented solve stream of an @p nx x @p nu problem
 * over @p horizon steps, run for exactly @p iters ADMM iterations on
 * @p backend in @p style:
 * `plantsolve:<Backend::cacheKey()>:style%d:nx%d:nu%d:h%d:it%d`.
 */
std::string solveStreamKey(const matlib::Backend &backend,
                           tinympc::MappingStyle style, int nx, int nu,
                           int horizon, int iters);

/**
 * Emit into @p prog one instrumented TinyMPC solve of @p plant's
 * problem shape on @p backend in @p style that runs exactly @p iters
 * ADMM iterations (a panic otherwise). @p dt only builds the
 * throwaway workspace the solve runs on: the stream does not depend
 * on it.
 */
void emitSolveStream(isa::Program &prog, matlib::Backend &backend,
                     tinympc::MappingStyle style,
                     const plant::Plant &plant, double dt, int horizon,
                     int iters);

/**
 * The process ProgramCache's stream under solveStreamKey, emitted by
 * emitSolveStream on the key's first request. The returned Program
 * is immutable and safe to replay from any thread.
 */
std::shared_ptr<const isa::Program>
solveStream(matlib::Backend &backend, tinympc::MappingStyle style,
            const plant::Plant &plant, double dt, int horizon, int iters);

/**
 * Calibrate @p backend/@p style on @p model by replaying the solve
 * streams of @p plant's problem shape (solveStream). @p dt only
 * builds the workspace those streams are emitted from. The fitted
 * ControllerTiming is persisted to @p disk keyed on (model cacheKey,
 * backend cacheKey, style, shape, refresh-awareness), so a warm
 * process skips both the replay runs and the emission; pass nullptr
 * to force recomputation. No memory tier: every call without a disk
 * hit fits afresh.
 *
 * @p with_refresh additionally emits and fits the model-refresh
 * streams at 1 and 2 Riccati sweeps (refreshBaseCycles /
 * refreshCyclesPerIter; exact at every sweep count). Fixed-trim
 * callers leave it off, keeping their emission footprint — and the
 * historical bench outputs — untouched; relinearization-aware
 * callers (bench_relin, sessions with a non-trivial policy) turn it
 * on. The two variants persist under distinct keys so neither
 * poisons the other's disk entry.
 */
ControllerTiming
calibrateTiming(const cpu::TimingModel &model, matlib::Backend &backend,
                tinympc::MappingStyle style, const plant::Plant &plant,
                double dt, int horizon,
                const isa::DiskCache *disk = &isa::DiskCache::global(),
                bool with_refresh = false);

/**
 * Convenience calibrations of the three on-chip implementations the
 * cross-plant sweeps compare (§5.2 flies the first two): optimized
 * scalar (Eigen-style on the Shuttle scalar pipeline), hand-optimized
 * RVV on the large Saturn core (VLEN=512, DLEN=256, Shuttle
 * frontend), and the fully-optimized Gemmini mapping on the OS 4x4
 * systolic array (library style: Fused is rejected at emission time
 * by the Gemmini backend). Memoized in calibMemo() and persisted in
 * the process DiskCache.
 *
 * @p format prices a narrow datapath: the backend emits its stream at
 * the format's element width, so vector lanes pack more elements and
 * coprocessor bus transfers shrink. Only the width enters the key, so
 * formats of one width share one fit: i32 the f32 one, i16 the bf16
 * one. Likewise every @p dt shares one fit; dt only builds the
 * workspace the streams are emitted from.
 */
ControllerTiming
scalarControllerTiming(const plant::Plant &plant, double dt, int horizon,
                       bool with_refresh = false,
                       matlib::NumericFormat format =
                           matlib::NumericFormat::F32);
ControllerTiming
vectorControllerTiming(const plant::Plant &plant, double dt, int horizon,
                       bool with_refresh = false,
                       matlib::NumericFormat format =
                           matlib::NumericFormat::F32);
ControllerTiming
gemminiControllerTiming(const plant::Plant &plant, double dt, int horizon,
                        bool with_refresh = false,
                        matlib::NumericFormat format =
                            matlib::NumericFormat::F32);

/**
 * Named-model dispatch shared by the sweep benches
 * (bench_cross_plant, bench_relin): "scalar" / "vector" / "gemmini"
 * select the convenience calibrations above; "ideal" returns the
 * vector timing (unused by an ideal policy, kept for struct
 * completeness).
 */
ControllerTiming
namedControllerTiming(const std::string &model, const plant::Plant &plant,
                      double dt, int horizon, bool with_refresh = false,
                      matlib::NumericFormat format =
                          matlib::NumericFormat::F32);

/** Power model matching namedControllerTiming's dispatch. */
soc::PowerParams namedPowerParams(const std::string &model);

/**
 * Per-kernel-region cycle breakdown of one named implementation's
 * solve stream on @p plant (same "scalar" / "vector" / "gemmini"
 * dispatch as namedControllerTiming), replayed at a forced @p iters
 * ADMM iterations. The stream comes from solveStream, so a breakdown
 * after a sweep costs one cached replay; results are deterministic
 * regardless of disk-cache warmth. Feeds
 * obs::RegionProfile for the bench `--profile` tables.
 */
std::vector<isa::KernelCycles>
regionBreakdown(const std::string &model, const plant::Plant &plant,
                double dt, int horizon, int iters = 25);

/**
 * Process-wide calibration memo (see file comment). Its MemoStats
 * count convenience-memo hits, calibrations loaded from disk and
 * two-point replay fits (computes), mirrored as "calib.*".
 */
isa::Memo<ControllerTiming> &calibMemo();

/** Serialize a ControllerTiming (bit-exact double round-trip). */
std::string encodeTiming(const ControllerTiming &t);

/** Decode an encodeTiming payload; nullopt when malformed (truncated,
 *  trailing bytes, another version) or when a cycle field is not
 *  finite. */
std::optional<ControllerTiming> decodeTiming(const std::string &payload);

} // namespace rtoc::hil

#endif // RTOC_HIL_TIMING_HH
