/**
 * @file
 * A Program is the unit of timing simulation: an ordered micro-op
 * stream with virtual-register allocation and named kernel regions.
 * Kernel regions let the models attribute cycles to the TinyMPC
 * kernels of Algorithms 1-3 (forward_pass_1, update_slack_1, ...),
 * which is how the paper's kernel-level figures (11, 12, 13) are
 * regenerated.
 *
 * Kernel names are interned into small integer ids (KernelId): the
 * emission hot path stores and compares ids only, and the string is
 * looked up when a table is printed. Streams are stored contiguously
 * and capacity-reserved, so replaying a cached Program touches no
 * allocator.
 *
 * Storage is dual-mode: emitters append AoS Uop records through the
 * unchanged push() API, and the first stream() call transposes the
 * stream into a columnar (SoA) store — including the decoded class
 * column — that every TimingModel replay reads through a
 * UopStreamView. The transpose happens once per Program (identified
 * by id()), no matter how many models or threads replay it.
 */

#ifndef RTOC_ISA_PROGRAM_HH
#define RTOC_ISA_PROGRAM_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "isa/uop.hh"
#include "isa/uop_stream.hh"

namespace rtoc::isa {

/** Interned id of a kernel-region name. */
using KernelId = uint32_t;

/**
 * Intern @p name into a process-wide id (thread-safe). Repeated calls
 * with the same name return the same id; ids are dense from 0.
 */
KernelId internKernel(std::string_view name);

/** The string a KernelId was interned from (stable reference). */
const std::string &kernelName(KernelId id);

/** Half-open uop index range attributed to a named kernel. */
struct KernelRegion
{
    KernelId id = 0;
    size_t begin = 0;
    size_t end = 0;

    /** Interned name lookup (cold path: tables, tests). */
    const std::string &name() const { return kernelName(id); }
};

/** Backing arrays of the columnar storage mode (built lazily). */
struct UopColumns
{
    std::vector<UopKind> kind;
    std::vector<uint8_t> cls;
    std::vector<uint32_t> dst, src0, src1, src2;
    std::vector<uint32_t> vl;
    std::vector<uint16_t> sew, lmul8;
    std::vector<uint32_t> bytes;
    std::vector<uint16_t> rows, cols;
    std::vector<uint8_t> taken;
};

/** Ordered micro-op stream plus region markers and counters. */
class Program
{
  public:
    Program() = default;

    /**
     * Copies/moves carry the stream and counters; the lazily-built
     * column store is rebuilt on demand by the destination (copies
     * get a fresh id — column memoization is per object).
     */
    Program(const Program &o);
    Program &operator=(const Program &o);
    Program(Program &&o) noexcept;
    Program &operator=(Program &&o) noexcept;

    /** Allocate a fresh scalar virtual register. */
    uint32_t newReg() { return next_reg_++; }

    /** Allocate a fresh vector virtual register (separate id space). */
    uint32_t newVReg() { return next_vreg_++ | kVRegBit; }

    /** True when @p reg names a vector register. */
    static bool isVReg(uint32_t reg)
    {
        return reg != kNoReg && (reg & kVRegBit) != 0;
    }

    /** Append one micro-op, returning its index. */
    size_t push(const Uop &u);

    /**
     * Element width (bits) stamped onto subsequently pushed uops: push
     * sets each uop's sew and scales its byte count by sew/32 (memory
     * traffic shrinks with the element). The default 32 leaves pushed
     * uops exactly as built — the float32 streams are byte-identical
     * to the pre-format-axis ones. assemble() bypasses this (decoded
     * streams already carry their widths).
     */
    void setEmitWidth(uint16_t sew_bits);
    uint16_t emitWidth() const { return emit_sew_; }

    /**
     * Pre-size the uop and region storage so emission appends without
     * reallocating (the ProgramCache sizes fresh emissions from the
     * previous stream of the same shape).
     */
    void reserve(size_t uop_capacity, size_t region_capacity);

    /** Open a kernel region by interned id; regions must not nest. */
    void beginKernel(KernelId id);

    /** Convenience overload interning @p name (cold path). */
    void beginKernel(std::string_view name)
    {
        beginKernel(internKernel(name));
    }

    /** Close the currently open region. */
    void endKernel();

    /** True while a kernel region is open. */
    bool kernelOpen() const { return kernel_open_; }

    /** All micro-ops in program order. */
    const std::vector<Uop> &uops() const { return uops_; }

    /**
     * Columnar view of the stream. The SoA store (and the decoded
     * class column) is built on first use and cached until the next
     * mutation; safe to call concurrently from replay threads on a
     * frozen Program. Pointers in the returned view stay valid while
     * this Program is alive and unmodified.
     */
    UopStreamView stream() const;

    /** Process-unique identity of this object (column-memo key). */
    uint64_t id() const { return id_; }

    /**
     * Rebuild a Program from decoded parts (the disk-cache loader).
     * Regions must already be validated (ordered, in bounds).
     */
    static Program assemble(std::vector<Uop> uops,
                            std::vector<KernelRegion> kernels,
                            uint32_t next_reg, uint32_t next_vreg);

    /** Closed kernel regions in program order. */
    const std::vector<KernelRegion> &kernels() const { return kernels_; }

    /** Highest scalar virtual register id allocated (exclusive). */
    uint32_t scalarRegCount() const { return next_reg_; }

    /** Highest vector virtual register id allocated (exclusive). */
    uint32_t vectorRegCount() const { return next_vreg_; }

    /** Total floating-point operations (vector ops weighted by VL). */
    double flops() const;

    /** Count of uops matching a predicate class. */
    size_t countScalar() const;
    size_t countVector() const;
    size_t countRocc() const;

    /** Drop all uops/regions but keep register counters monotonic. */
    void clear();

    /** Number of uops. */
    size_t size() const { return uops_.size(); }

  private:
    static constexpr uint32_t kVRegBit = 0x80000000u;

    static uint64_t nextId();
    void invalidateColumns();
    UopStreamView makeView() const; ///< requires cols_ to be built

    std::vector<Uop> uops_;
    std::vector<KernelRegion> kernels_;
    uint32_t next_reg_ = 1;
    uint32_t next_vreg_ = 1;
    uint16_t emit_sew_ = 32;
    bool kernel_open_ = false;
    uint64_t id_ = nextId();

    /** Lazily-built SoA mirror of uops_ (see stream()). */
    mutable std::unique_ptr<UopColumns> cols_;
    mutable std::mutex cols_mu_;
    mutable std::atomic<bool> cols_valid_{false};
};

/**
 * Cycles attributed per kernel region, produced by every timing model.
 * Regions with the same name (e.g. forward_pass_1 across horizon
 * steps and ADMM iterations) are accumulated.
 */
struct KernelCycles
{
    std::string name;
    uint64_t cycles = 0;
    uint64_t invocations = 0;
};

/** Merge per-region cycle samples into per-name totals. */
std::vector<KernelCycles>
accumulateKernelCycles(const std::vector<KernelRegion> &regions,
                       const std::vector<uint64_t> &region_cycles);

} // namespace rtoc::isa

#endif // RTOC_ISA_PROGRAM_HH
