/**
 * @file
 * Columnar (SoA) view of a micro-op stream, plus the shared frontend
 * decode.
 *
 * The per-uop timing loops replay ~1e5-uop streams millions of times
 * across the scenario grid; striding over fat AoS Uop structs pays for
 * every field whether or not the model reads it. A Program stores its
 * stream only as columns, and a UopStreamView exposes them as parallel
 * arrays, so each model touches only the columns it needs — the
 * scalar pipelines read kind/class/registers (~17 of 35 bytes per
 * uop), the accelerator wrappers additionally read their
 * element-count/size columns for coprocessor ops only. Taking a view
 * copies pointers: nothing is built or locked.
 *
 * The `cls` column is the shared batched frontend: decodeClass() folds
 * the per-uop kind switches (is-scalar, FPU/mem-port usage, latency
 * family) into one byte, computed once when the uop is pushed and
 * reused by every TimingModel run over it. Models turn the latency
 * class into cycles through a small per-run table built from their
 * config.
 */

#ifndef RTOC_ISA_UOP_STREAM_HH
#define RTOC_ISA_UOP_STREAM_HH

#include <cstddef>
#include <cstdint>

#include "isa/uop.hh"

namespace rtoc::isa {

class Program;

/**
 * Model-independent latency family of a uop kind. Every scalar kind
 * maps to the class whose per-model latency it shares; FpCmp and
 * FpMove share a latency but differ in FPU occupancy, so they stay
 * distinct classes.
 */
enum class LatClass : uint8_t {
    IntAlu,  ///< single-cycle integer/address arithmetic
    IntMul,  ///< integer multiply
    Fp,      ///< pipelined FPU op (add/mul/fma/minmax/abs)
    FpDiv,   ///< unpipelined divide
    FpCmp,   ///< comparison (2 cycles, occupies the FPU)
    FpMove,  ///< move/transfer (2 cycles, bypasses the FPU)
    Load,
    Store,
    Branch,
    Coproc,  ///< vector or RoCC kind, executed by a coprocessor
    FpNarrow, ///< pipelined FPU op at sub-32-bit element width
    NumClasses,
};

constexpr size_t kNumLatClasses =
    static_cast<size_t>(LatClass::NumClasses);

/** Class byte layout: LatClass in the low nibble plus port flags. */
constexpr uint8_t kClsLatMask = 0x0f;
/** Occupies an FPU issue slot on an in-order core. */
constexpr uint8_t kClsFp = 0x10;
/** Occupies a memory port. */
constexpr uint8_t kClsMem = 0x20;
/** Executed by the scalar pipeline (isScalar(kind)). */
constexpr uint8_t kClsScalar = 0x40;

/** Decode @p k into its class byte (pure function of the kind). */
uint8_t decodeClass(UopKind k);

/**
 * Width-aware decode: pipelined FPU kinds at sub-32-bit element width
 * map to LatClass::FpNarrow (same port flags), so per-run latency
 * tables can price narrow arithmetic separately. At sew == 32 this is
 * exactly decodeClass(k) — the float32 class column is unchanged.
 */
uint8_t decodeClass(UopKind k, uint16_t sew);

/** LatClass stored in a class byte. */
inline LatClass
latClassOf(uint8_t cls)
{
    return static_cast<LatClass>(cls & kClsLatMask);
}

/**
 * Read-only columnar view of one Program's uop stream. Obtained from
 * Program::stream(); pointers alias the Program's column store and
 * stay valid while the Program is alive and unmodified. `program`
 * links back to the owner for kernel-region attribution.
 */
struct UopStreamView
{
    size_t n = 0;
    const UopKind *kind = nullptr;
    const uint8_t *cls = nullptr; ///< decodeClass(kind[i], sew[i])
    const uint32_t *dst = nullptr;
    const uint32_t *src0 = nullptr;
    const uint32_t *src1 = nullptr;
    const uint32_t *src2 = nullptr;
    const uint32_t *vl = nullptr;
    const uint16_t *sew = nullptr;
    const uint16_t *lmul8 = nullptr;
    const uint32_t *bytes = nullptr;
    const uint16_t *rows = nullptr;
    const uint16_t *cols = nullptr;
    const uint8_t *taken = nullptr;
    const Program *program = nullptr;

    size_t size() const { return n; }
};

} // namespace rtoc::isa

#endif // RTOC_ISA_UOP_STREAM_HH
