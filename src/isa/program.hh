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
 * The stream is stored once, as columns (UopColumns): push() appends
 * one element to each column, including the decoded class byte, and
 * stream() hands every TimingModel replay a UopStreamView of them.
 * uop(i) reads one record back for the cold paths (the AoS reference
 * loops, the encoder, the scheduler).
 */

#ifndef RTOC_ISA_PROGRAM_HH
#define RTOC_ISA_PROGRAM_HH

#include <cstdint>
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

/**
 * The columns of a Program's stream, one element per uop: the Uop
 * fields plus cls, decodeClass(kind, sew).
 */
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

    /** Call @p f on every column. */
    template <typename F>
    void
    each(F &&f)
    {
        f(kind);
        f(cls);
        f(dst);
        f(src0);
        f(src1);
        f(src2);
        f(vl);
        f(sew);
        f(lmul8);
        f(bytes);
        f(rows);
        f(cols);
        f(taken);
    }
};

/** Ordered micro-op stream plus region markers and counters. */
class Program
{
  public:
    /** Allocate a fresh scalar virtual register. */
    uint32_t newReg() { return next_reg_++; }

    /** Allocate a fresh vector virtual register (separate id space). */
    uint32_t newVReg() { return next_vreg_++ | kVRegBit; }

    /** True when @p reg names a vector register. */
    static bool isVReg(uint32_t reg)
    {
        return reg != kNoReg && (reg & kVRegBit) != 0;
    }

    /**
     * Append one micro-op, returning its index. Raises
     * scalarRegCount() and vectorRegCount() past every register id the
     * uop names, ids newReg() never handed out included, in the file
     * the id names and in the file the models access it in, so replay
     * can size its register files from the counters, and adds each id
     * the uop reads unwritten to unwrittenReads().
     */
    size_t push(const Uop &u);

    /**
     * Element width (bits) stamped onto subsequently pushed uops: push
     * sets each uop's sew and scales its byte count by sew/32 (memory
     * traffic shrinks with the element). The default 32 leaves pushed
     * uops exactly as built — the float32 streams are byte-identical
     * to the pre-format-axis ones — which is how the decoder and the
     * scheduler append records that already carry their widths.
     */
    void setEmitWidth(uint16_t sew_bits);
    uint16_t emitWidth() const { return emit_sew_; }

    /**
     * Pre-size the uop and region storage so emission appends without
     * reallocating. ProgramCache::getOrEmit reserves a fixed 65,536
     * uops and 1,024 regions for every fresh emission; an emitter that
     * assigns a whole Program (p = ...) replaces that storage, so the
     * reservation only serves emitters that append in place.
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

    /** Micro-op @p i as a record (cold path: one read per column). */
    Uop uop(size_t i) const;

    /**
     * Columnar view of the stream. Pointers in the returned view stay
     * valid while this Program is alive and unmodified; concurrent
     * replays of a frozen Program share them.
     */
    UopStreamView stream() const;

    /**
     * Install the regions and register counters of a stream whose
     * records were pushed at the default emit width (the disk-cache
     * loader, the scheduler). Regions must already be validated
     * (ordered, in bounds), the Program must have none yet, and the
     * counters only rise.
     */
    void assemble(std::vector<KernelRegion> kernels, uint32_t next_reg,
                  uint32_t next_vreg);

    /** Closed kernel regions in program order. */
    const std::vector<KernelRegion> &kernels() const { return kernels_; }

    /** Highest scalar virtual register id allocated (exclusive). */
    uint32_t scalarRegCount() const { return next_reg_; }

    /** Highest vector virtual register id allocated (exclusive). */
    uint32_t vectorRegCount() const { return next_vreg_; }

    /**
     * The register ids some uop reads before any uop writes them, each
     * once, in order of first read; vector ids keep the vreg bit. A
     * uop reads its sources before it writes its dst. Every other
     * register is written before it is read, so a replay engine zeroes
     * only these rows of its ready files (never written == ready at
     * 0) and may leave the rest uninitialized.
     *
     * An operand is taken in the file the timing models access it in,
     * which is the file its id names in every emitted stream: a scalar
     * uop reads and writes only the scalar file; a coprocessor uop
     * reads each source from the file its id names; vsetvl and a
     * reduction write the scalar file, a vector load or arithmetic op
     * the vector file, a vmove the file its dst names, and stores and
     * RoCC commands write no register.
     */
    const std::vector<uint32_t> &
    unwrittenReads() const
    {
        return unwritten_;
    }

    /** Total floating-point operations (vector ops weighted by VL). */
    double flops() const;

    /** Count of uops matching a predicate class. */
    size_t countScalar() const;
    size_t countVector() const;
    size_t countRocc() const;

    /** Drop all uops/regions and unwrittenReads() but keep register
     *  counters monotonic. */
    void clear();

    /** Number of uops. */
    size_t size() const { return cols_.kind.size(); }

  private:
    static constexpr uint32_t kVRegBit = 0x80000000u;

    /** Size seen_ for file indices below @p regs. Cold. */
    void growSeen(uint32_t regs);

    UopColumns cols_;
    /** Bit 2 * index + file (0 scalar, 1 vector) is set once that
     *  register has been read or written; sized for seen_regs_
     *  indices. */
    std::vector<uint64_t> seen_;
    uint32_t seen_regs_ = 0;
    std::vector<uint32_t> unwritten_;
    std::vector<KernelRegion> kernels_;
    uint32_t next_reg_ = 1;
    uint32_t next_vreg_ = 1;
    uint16_t emit_sew_ = 32;
    bool kernel_open_ = false;
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
