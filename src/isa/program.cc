#include "program.hh"

#include <algorithm>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/logging.hh"

namespace rtoc::isa {

namespace {

/**
 * Process-wide kernel-name interner. Names are interned a handful of
 * times at emitter start-up (static locals in the solver), so one
 * mutex is plenty; lookups by id go through a std::deque so returned
 * string references stay stable as the table grows.
 */
struct Interner
{
    std::mutex mu;
    std::unordered_map<std::string, KernelId> ids;
    std::deque<std::string> names;
};

Interner &
interner()
{
    static Interner in;
    return in;
}

/** No register file: the uop's dst is written nowhere. */
constexpr uint8_t kNoFile = 2;

/**
 * The file (0 scalar, 1 vector, kNoFile) a uop of kind @p k writes its
 * dst @p dst to in the timing models: a scalar uop, vsetvl and a
 * reduction write the scalar file and a vector load or arithmetic op
 * the vector file, whatever file the id names; a vmove writes the file
 * its id names, and stores and RoCC commands write no register.
 */
uint8_t
dstFile(UopKind k, uint32_t dst)
{
    switch (k) {
      case UopKind::VLoad:
      case UopKind::VLoadStrided:
      case UopKind::VArith:
      case UopKind::VFma:
        return 1;
      case UopKind::VMove:
        return static_cast<uint8_t>(dst >> 31);
      case UopKind::VStore:
      case UopKind::RoccConfig:
      case UopKind::RoccMvin:
      case UopKind::RoccMvout:
      case UopKind::RoccPreload:
      case UopKind::RoccCompute:
      case UopKind::RoccFence:
        return kNoFile;
      default: // scalar kinds, vsetvl, reductions
        return 0;
    }
}

} // namespace

KernelId
internKernel(std::string_view name)
{
    if (name.empty())
        rtoc_panic("internKernel: empty kernel name");
    Interner &in = interner();
    std::lock_guard<std::mutex> lk(in.mu);
    auto it = in.ids.find(std::string(name));
    if (it != in.ids.end())
        return it->second;
    KernelId id = static_cast<KernelId>(in.names.size());
    in.names.emplace_back(name);
    in.ids.emplace(in.names.back(), id);
    return id;
}

const std::string &
kernelName(KernelId id)
{
    Interner &in = interner();
    std::lock_guard<std::mutex> lk(in.mu);
    if (id >= in.names.size())
        rtoc_panic("kernelName: unknown kernel id %u", id);
    return in.names[id];
}

UopStreamView
Program::stream() const
{
    UopStreamView v;
    v.n = size();
    v.kind = cols_.kind.data();
    v.cls = cols_.cls.data();
    v.dst = cols_.dst.data();
    v.src0 = cols_.src0.data();
    v.src1 = cols_.src1.data();
    v.src2 = cols_.src2.data();
    v.vl = cols_.vl.data();
    v.sew = cols_.sew.data();
    v.lmul8 = cols_.lmul8.data();
    v.bytes = cols_.bytes.data();
    v.rows = cols_.rows.data();
    v.cols = cols_.cols.data();
    v.taken = cols_.taken.data();
    v.program = this;
    return v;
}

Uop
Program::uop(size_t i) const
{
    Uop u;
    u.kind = cols_.kind[i];
    u.dst = cols_.dst[i];
    u.src0 = cols_.src0[i];
    u.src1 = cols_.src1[i];
    u.src2 = cols_.src2[i];
    u.vl = cols_.vl[i];
    u.sew = cols_.sew[i];
    u.lmul8 = cols_.lmul8[i];
    u.bytes = cols_.bytes[i];
    u.rows = cols_.rows[i];
    u.cols = cols_.cols[i];
    u.taken = cols_.taken[i];
    return u;
}

void
Program::assemble(std::vector<KernelRegion> kernels, uint32_t next_reg,
                  uint32_t next_vreg)
{
    rtoc_assert(kernels_.empty() && !kernel_open_);
    kernels_ = std::move(kernels);
    next_reg_ = std::max(next_reg_, next_reg);
    next_vreg_ = std::max(next_vreg_, next_vreg);
}

size_t
Program::push(const Uop &u)
{
    uint16_t sew = u.sew;
    uint32_t bytes = u.bytes;
    if (emit_sew_ != 32) {
        sew = emit_sew_;
        if (bytes)
            bytes = std::max<uint32_t>(1, bytes * emit_sew_ / 32);
    }
    const uint8_t cls = decodeClass(u.kind, sew);
    cols_.kind.push_back(u.kind);
    cols_.cls.push_back(cls);
    cols_.dst.push_back(u.dst);
    cols_.src0.push_back(u.src0);
    cols_.src1.push_back(u.src1);
    cols_.src2.push_back(u.src2);
    cols_.vl.push_back(u.vl);
    cols_.sew.push_back(sew);
    cols_.lmul8.push_back(u.lmul8);
    cols_.bytes.push_back(bytes);
    cols_.rows.push_back(u.rows);
    cols_.cols.push_back(u.cols);
    cols_.taken.push_back(u.taken);
    // Raise the counters past each id, in the file it names and in the
    // file the models access it in (a scalar uop reads and writes a
    // vector id in the scalar file), so every engine sizes both files
    // to hold it; emitted streams never cross files, so their counters
    // are those of the ids they name. Then mark each register in the
    // file the models access it in (see unwrittenReads()): sources
    // first, then the dst. Bit 2 * index + file of seen_ is set once
    // that register has been read or written; a read that sets it
    // records the register.
    auto raise = [this](uint32_t file, uint32_t idx) {
        uint32_t &next = file ? next_vreg_ : next_reg_;
        next = std::max(next, idx + 1);
    };
    const uint32_t file_of_src = (cls & kClsScalar) ? 0 : 1;
    for (uint32_t reg : {u.src0, u.src1, u.src2}) {
        if (reg == kNoReg)
            continue;
        const uint32_t idx = reg & ~kVRegBit;
        const uint32_t file = (reg >> 31) & file_of_src;
        raise(reg >> 31, idx);
        raise(file, idx);
        if (idx >= seen_regs_)
            growSeen(idx + 1);
        const uint64_t bit = (static_cast<uint64_t>(idx) << 1) | file;
        uint64_t &word = seen_[bit >> 6];
        const uint64_t m = uint64_t{1} << (bit & 63);
        if (!(word & m)) {
            word |= m;
            unwritten_.push_back(idx | file << 31);
        }
    }
    if (u.dst != kNoReg) {
        const uint32_t idx = u.dst & ~kVRegBit;
        const uint8_t file = dstFile(u.kind, u.dst);
        raise(u.dst >> 31, idx);
        if (idx >= seen_regs_)
            growSeen(idx + 1);
        if (file != kNoFile) {
            raise(file, idx);
            const uint64_t bit = (static_cast<uint64_t>(idx) << 1) | file;
            seen_[bit >> 6] |= uint64_t{1} << (bit & 63);
        }
    }
    return size() - 1;
}

void
Program::growSeen(uint32_t regs)
{
    seen_regs_ = std::max(regs, seen_regs_ * 2);
    seen_.resize((static_cast<size_t>(seen_regs_) * 2 + 63) / 64, 0);
}

void
Program::setEmitWidth(uint16_t sew_bits)
{
    if (sew_bits != 32 && sew_bits != 16 && sew_bits != 8)
        rtoc_panic("setEmitWidth: unsupported element width %u",
                   sew_bits);
    emit_sew_ = sew_bits;
}

void
Program::reserve(size_t uop_capacity, size_t region_capacity)
{
    cols_.each([&](auto &col) { col.reserve(uop_capacity); });
    kernels_.reserve(region_capacity);
}

void
Program::beginKernel(KernelId id)
{
    if (kernel_open_) {
        rtoc_panic("beginKernel('%s'): region '%s' still open "
                   "(kernel regions must not nest)",
                   kernelName(id).c_str(),
                   kernelName(kernels_.back().id).c_str());
    }
    kernel_open_ = true;
    kernels_.push_back({id, size(), size()});
}

void
Program::endKernel()
{
    if (!kernel_open_)
        rtoc_panic("endKernel: no region open");
    kernel_open_ = false;
    kernels_.back().end = size();
}

double
Program::flops() const
{
    double total = 0.0;
    for (size_t i = 0; i < size(); ++i) {
        const UopKind k = cols_.kind[i];
        const double per = flopsPerElement(k); // 0 for RoccCompute
        if (per == 0.0)
            continue;
        total += isVector(k) ? per * static_cast<double>(cols_.vl[i]) : per;
    }
    // Systolic compute: rows x cols tile MACs against mesh operand.
    for (size_t i = 0; i < size(); ++i) {
        if (cols_.kind[i] == UopKind::RoccCompute) {
            total += 2.0 * static_cast<double>(cols_.rows[i]) *
                     static_cast<double>(cols_.cols[i]);
        }
    }
    return total;
}

size_t
Program::countScalar() const
{
    return static_cast<size_t>(
        std::count_if(cols_.kind.begin(), cols_.kind.end(), isScalar));
}

size_t
Program::countVector() const
{
    return static_cast<size_t>(
        std::count_if(cols_.kind.begin(), cols_.kind.end(), isVector));
}

size_t
Program::countRocc() const
{
    return static_cast<size_t>(
        std::count_if(cols_.kind.begin(), cols_.kind.end(), isRocc));
}

void
Program::clear()
{
    if (kernel_open_) {
        rtoc_panic("Program::clear with kernel region '%s' still open",
                   kernelName(kernels_.back().id).c_str());
    }
    cols_.each([](auto &col) { col.clear(); });
    std::fill(seen_.begin(), seen_.end(), 0);
    unwritten_.clear();
    kernels_.clear();
}

std::vector<KernelCycles>
accumulateKernelCycles(const std::vector<KernelRegion> &regions,
                       const std::vector<uint64_t> &region_cycles)
{
    if (regions.size() != region_cycles.size()) {
        rtoc_panic("kernel accounting mismatch: %zu regions, %zu samples",
                   regions.size(), region_cycles.size());
    }
    // Accumulate by dense interned id, then emit in name order so the
    // output matches the historical (map-ordered) behaviour.
    std::vector<KernelCycles> by_id;
    for (size_t i = 0; i < regions.size(); ++i) {
        KernelId id = regions[i].id;
        if (id >= by_id.size())
            by_id.resize(id + 1);
        auto &kc = by_id[id];
        if (kc.invocations == 0)
            kc.name = regions[i].name();
        kc.cycles += region_cycles[i];
        kc.invocations += 1;
    }
    std::vector<KernelCycles> out;
    out.reserve(by_id.size());
    for (auto &kc : by_id)
        if (kc.invocations > 0)
            out.push_back(std::move(kc));
    std::sort(out.begin(), out.end(),
              [](const KernelCycles &a, const KernelCycles &b) {
                  return a.name < b.name;
              });
    return out;
}

} // namespace rtoc::isa
