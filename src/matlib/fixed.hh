/**
 * @file
 * Numeric-format axis of the matlib backends: float32 (the paper's
 * datapath), int16/int32 fixed-point with per-kernel static scaling
 * (Jerez et al., "Embedded Online Optimization for MPC at Megahertz
 * Rates": certified fixed-point ADMM datapaths), and bfloat16.
 *
 * Storage stays float32 — the workspace, the solver and every backend
 * view are unchanged. A non-float format changes what the MAC kernels
 * *compute*: operands are quantized onto the format's grid, the dot
 * products run as integer MACs with a saturating accumulator (int32
 * accumulator for int16 elements, int64 for int32) and a per-kernel
 * shift schedule, and results are rounded back onto the output grid
 * before being dequantized into the float storage. The emitted uop
 * streams carry the element width (Program::setEmitWidth), so narrow
 * formats are distinct cached programs whose replay prices the
 * narrower datapath (wider effective Saturn lanes, cheaper Gemmini
 * DMA, faster scalar FPU ops).
 *
 * Saturation events are counted per backend (quantizer clamps and
 * accumulator clamps separately) — the telemetry the precision Pareto
 * bench reports next to divergence rates.
 *
 * Each operand is quantized once: the vector operand once per call
 * (its clamps counted once per output row, as if re-quantized for
 * every dot product), the matrix operand once per content change via
 * the backend's OperandCache (its clamps replayed on every hit). The
 * values and both counters are exactly those of quantizing every
 * operand at every MAC.
 */

#ifndef RTOC_MATLIB_FIXED_HH
#define RTOC_MATLIB_FIXED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "matlib/mat.hh"

namespace rtoc::matlib {

/** Element format of a backend's datapath. */
enum class NumericFormat : uint8_t {
    F32,  ///< float32 (default; bit-identical historical path)
    I16,  ///< Q-format int16 fixed point (16-bit datapath)
    I32,  ///< Q-format int32 fixed point (32-bit datapath)
    BF16, ///< bfloat16 storage/operands, float32 accumulate
};

/** Short name: "f32", "i16", "i32", "bf16". */
const char *formatName(NumericFormat f);

/** Element width in bits as carried by emitted uops (32 or 16). */
int formatSewBits(NumericFormat f);

/** Element width in bytes (UART payloads, DMA traffic). */
int formatElemBytes(NumericFormat f);

/**
 * Cache-identity suffix: empty for F32 (every historical key is
 * untouched), "|fmt:i16" style otherwise. I32 streams are
 * byte-identical to F32 streams (same element width) but the computed
 * values differ, so I32 is suffixed too — narrow-format calibrations
 * and cells never alias float32 blobs.
 */
std::string formatKeySuffix(NumericFormat f);

/** Parse "f32"/"i16"/"i32"/"bf16" (fatal on anything else). */
NumericFormat parseFormat(const std::string &name);

/** Process default: RTOC_FORMAT when set, else F32 (read once). */
NumericFormat defaultFormat();

namespace fx {

/** Truncate @p v to bfloat16 (round-to-nearest-even). */
float toBf16(float v);

/**
 * Per-kernel Q-format schedule: fraction bits of the matrix operand,
 * the vector operand and the stored result. The accumulator runs at
 * aFrac + xFrac and the output shift is (aFrac + xFrac - outFrac).
 */
struct KernelSpec
{
    int aFrac = 10;   ///< matrix / first-operand fraction bits
    int xFrac = 10;   ///< vector / second-operand fraction bits
    int outFrac = 10; ///< result fraction bits
};

/**
 * Static per-kernel scaling derived from calibrated ranges (the gain
 * matrices are known offline; trajectory ranges come from the bound
 * boxes and references with headroom). One schedule per MAC kernel.
 */
struct Scaling
{
    KernelSpec gemv;
    KernelSpec gemvT;
    KernelSpec saxpby;

    /**
     * Derive a schedule from the calibrated operand ranges: fraction
     * bits = (format bits - 1) - integer bits needed for
     * (range * headroom), floored at 0. @p mat_range bounds the gain/
     * dynamics matrix entries, @p vec_range the trajectory/slack
     * vectors, @p acc_range the dot-product magnitudes.
     */
    static Scaling forRanges(NumericFormat f, double mat_range,
                             double vec_range, double acc_range);
};

/** Saturation telemetry of one backend's fixed-point datapath. */
struct Counters
{
    uint64_t quantSats = 0; ///< operand/result quantizer clamps
    uint64_t accSats = 0;   ///< saturating-accumulator clamps
};

/**
 * Quantized copies of the matrix operands of gemv/gemvT. The solver's
 * gain and dynamics matrices change only at a model refresh, so their
 * grid values are computed once and reused on every tick.
 *
 * Every lookup validates the entry against a bitwise snapshot of the
 * operand and against the format and fraction bits it was quantized
 * for, so no caller has to invalidate anything: an in-place refresh
 * (Workspace::refreshModel), a new Scaling or a new format
 * re-quantizes on the next call, and a stale copy is never served.
 * The entry also keeps the number of quantizer clamps its pass cost,
 * which the kernels add to Counters::quantSats on every use.
 *
 * The cache also owns the per-call scratch of the vector operand, so
 * the kernels never allocate once warm.
 */
class OperandCache
{
  public:
    /**
     * One matrix operand on one grid, stored with one contiguous row
     * per output element: the rows of A, or its columns for gemvT.
     */
    struct Entry
    {
        const float *src = nullptr; ///< operand storage it was read from
        int rows = 0;               ///< operand shape
        int cols = 0;
        bool transposed = false;    ///< laid out for gemvT
        NumericFormat fmt = NumericFormat::F32;
        int frac = 0;               ///< grid fraction bits (I16/I32)
        std::vector<float> snapshot; ///< operand bits when quantized
        std::vector<int32_t> fixed;  ///< grid values (I16/I32)
        std::vector<float> bf16;     ///< rounded values (BF16)
        uint64_t sats = 0;           ///< quantizer clamps of one pass
    };

    /**
     * The entry for @p a on the (@p f, @p frac) grid, laid out for
     * gemvT when @p transposed. Re-quantized when anything changed.
     */
    const Entry &lookup(NumericFormat f, const Mat &a, int frac,
                        bool transposed);

    /** Number of (re-)quantizations performed by lookup(). */
    uint64_t fills() const { return fills_; }

    /** Per-call scratch for the vector operand and an aliased row, of
     *  at least @p n elements. */
    int32_t *fixedScratch(int n);
    float *bf16Scratch(int n);

  private:
    /** Distinct operands kept; the solver uses eight. */
    static constexpr size_t kCapacity = 16;

    std::vector<Entry> entries_;
    size_t nextEvict_ = 0;
    uint64_t fills_ = 0;
    std::vector<int32_t> fixedScratch_;
    std::vector<float> bf16Scratch_;
};

/** y = alpha * A x + beta * y on the @p f datapath. */
void gemv(NumericFormat f, const Scaling &s, Counters &c,
          OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
          float beta);

/** y = alpha * A^T x + beta * y on the @p f datapath. */
void gemvT(NumericFormat f, const Scaling &s, Counters &c,
           OperandCache &cache, Mat y, const Mat &a, Mat x, float alpha,
           float beta);

/** out = sa * a + sb * b on the @p f datapath. */
void saxpby(NumericFormat f, const Scaling &s, Counters &c, Mat out,
            float sa, const Mat &a, float sb, const Mat &b);

/**
 * Fused gemv -> saxpby pair (the solver's pass shape): one pass over
 * the rows, bit-identical to gemv followed by saxpby(y, sa, y, sb, b).
 * Falls back to that exact two-call sequence when y overlaps an input.
 */
void gemvSaxpby(NumericFormat f, const Scaling &s, Counters &c,
                OperandCache &cache, Mat y, const Mat &a, Mat x,
                float alpha, float beta, float sa, float sb,
                const Mat &b);

} // namespace fx

} // namespace rtoc::matlib

#endif // RTOC_MATLIB_FIXED_HH
