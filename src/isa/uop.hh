/**
 * @file
 * Micro-op intermediate representation.
 *
 * Every software mapping studied in the paper (naive matlib, optimized
 * scalar "Eigen", RVV library code, fused/unrolled RVV, Gemmini CISC
 * and fine-grained streams) is expressed as an explicit sequence of
 * micro-ops over virtual registers. The architecture timing models in
 * src/cpu, src/vector and src/systolic consume these sequences; the
 * *same* functional result is computed by matlib regardless of the
 * emitted stream, so optimizations change timing, never semantics.
 */

#ifndef RTOC_ISA_UOP_HH
#define RTOC_ISA_UOP_HH

#include <cstdint>
#include <string>

namespace rtoc::isa {

/** Sentinel meaning "no register operand". */
constexpr uint32_t kNoReg = 0xffffffffu;

/** Micro-op opcodes across the three backend ISAs. */
enum class UopKind : uint8_t {
    // --- Scalar RISC-V ---
    IntAlu,     ///< add/sub/shift/logic, address arithmetic
    IntMul,     ///< integer multiply (index scaling)
    FpAdd,      ///< fadd.s / fsub.s
    FpMul,      ///< fmul.s
    FpFma,      ///< fmadd.s (2 flops)
    FpDiv,      ///< fdiv.s (unpipelined)
    FpMinMax,   ///< fmin.s / fmax.s
    FpAbs,      ///< fsgnjx-based |x|
    FpCmp,      ///< comparison producing int flag
    FpMove,     ///< fmv / int<->fp transfer
    Load,       ///< scalar load (cache hit modelled)
    Store,      ///< scalar store
    Branch,     ///< conditional branch (loop back-edges)
    // --- RVV (Saturn) ---
    VSetVl,     ///< vsetvli: configure VL/SEW/LMUL
    VLoad,      ///< vle32.v unit-stride
    VStore,     ///< vse32.v unit-stride
    VLoadStrided, ///< vlse32.v (column access)
    VArith,     ///< vfadd/vfsub/vfmin/vfmax/vfmul (1 flop/element)
    VFma,       ///< vfmacc.vf / vfmacc.vv (2 flops/element)
    VRed,       ///< vfredmax/vfredsum -> scalar destination
    VMove,      ///< vfmv.f.s / vmv.v.x etc.
    // --- Gemmini RoCC ---
    RoccConfig,  ///< config_ex/config_ld/config_st
    RoccMvin,    ///< DRAM/L2 -> scratchpad
    RoccMvout,   ///< scratchpad/accumulator -> DRAM/L2
    RoccPreload, ///< preload mesh (B operand / output tile)
    RoccCompute, ///< compute.preloaded / compute.accumulate
    RoccFence,   ///< full fence: drain accelerator, order memory
    NumKinds,
};

/** True for kinds executed by the scalar pipeline. */
bool isScalar(UopKind k);

/** True for RVV kinds executed by the vector unit. */
bool isVector(UopKind k);

/** True for RoCC kinds executed by the systolic accelerator. */
bool isRocc(UopKind k);

/** Floating-point operations contributed by one instance of @p k. */
double flopsPerElement(UopKind k);

/** Short mnemonic for tracing. */
const char *uopName(UopKind k);

/**
 * One micro-op. Register identifiers are virtual (SSA-ish: emitters
 * allocate fresh ids for new values); models map them onto timing
 * state, not onto a finite architectural register file — register
 * pressure effects are instead reflected in *which* stream the
 * software mapping emits (spills appear as explicit Load/Store).
 */
struct Uop
{
    UopKind kind = UopKind::IntAlu;
    uint32_t dst = kNoReg;
    uint32_t src0 = kNoReg;
    uint32_t src1 = kNoReg;
    uint32_t src2 = kNoReg;

    /** Vector: active element count (set by the governing vsetvl). */
    uint32_t vl = 0;
    /** Vector: element width in bits (32 for float kernels). */
    uint16_t sew = 32;
    /** Vector: LMUL in eighths (8 == LMUL 1, 16 == LMUL 2, ...). */
    uint16_t lmul8 = 8;

    /** Memory traffic in bytes (Load/Store/mvin/mvout). */
    uint32_t bytes = 0;
    /** Systolic tile rows (RoccCompute/Preload) or pool window. */
    uint16_t rows = 0;
    /** Systolic tile cols. */
    uint16_t cols = 0;
    /** Taken-branch hint: 1 adds the front-end redirect bubble. */
    uint8_t taken = 0;

    /** Field-wise equality. */
    bool
    operator==(const Uop &o) const
    {
        return kind == o.kind && dst == o.dst && src0 == o.src0 &&
               src1 == o.src1 && src2 == o.src2 && vl == o.vl &&
               sew == o.sew && lmul8 == o.lmul8 && bytes == o.bytes &&
               rows == o.rows && cols == o.cols && taken == o.taken;
    }
    bool operator!=(const Uop &o) const { return !(*this == o); }

    /** Scalar op helper. */
    static Uop scalar(UopKind k, uint32_t dst, uint32_t s0 = kNoReg,
                      uint32_t s1 = kNoReg, uint32_t s2 = kNoReg);

    /** Scalar memory op helper (4-byte default width). */
    static Uop mem(UopKind k, uint32_t dst, uint32_t addr_reg,
                   uint32_t bytes = 4);

    /** Vector op helper. */
    static Uop vec(UopKind k, uint32_t dst, uint32_t s0, uint32_t s1,
                   uint32_t vl, uint16_t lmul8 = 8);

    /** RoCC op helper. */
    static Uop rocc(UopKind k, uint16_t rows, uint16_t cols,
                    uint32_t bytes = 0);
};

} // namespace rtoc::isa

#endif // RTOC_ISA_UOP_HH
