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

uint64_t
Program::nextId()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

Program::Program(const Program &o)
    : uops_(o.uops_), kernels_(o.kernels_), next_reg_(o.next_reg_),
      next_vreg_(o.next_vreg_), emit_sew_(o.emit_sew_),
      kernel_open_(o.kernel_open_)
{
}

Program &
Program::operator=(const Program &o)
{
    if (this == &o)
        return *this;
    uops_ = o.uops_;
    kernels_ = o.kernels_;
    next_reg_ = o.next_reg_;
    next_vreg_ = o.next_vreg_;
    emit_sew_ = o.emit_sew_;
    kernel_open_ = o.kernel_open_;
    invalidateColumns();
    return *this;
}

Program::Program(Program &&o) noexcept
    : uops_(std::move(o.uops_)), kernels_(std::move(o.kernels_)),
      next_reg_(o.next_reg_), next_vreg_(o.next_vreg_),
      emit_sew_(o.emit_sew_), kernel_open_(o.kernel_open_)
{
    o.invalidateColumns();
}

Program &
Program::operator=(Program &&o) noexcept
{
    if (this == &o)
        return *this;
    uops_ = std::move(o.uops_);
    kernels_ = std::move(o.kernels_);
    next_reg_ = o.next_reg_;
    next_vreg_ = o.next_vreg_;
    emit_sew_ = o.emit_sew_;
    kernel_open_ = o.kernel_open_;
    invalidateColumns();
    o.invalidateColumns();
    return *this;
}

void
Program::invalidateColumns()
{
    cols_valid_.store(false, std::memory_order_release);
}

UopStreamView
Program::makeView() const
{
    const UopColumns &c = *cols_;
    UopStreamView v;
    v.n = c.kind.size();
    v.kind = c.kind.data();
    v.cls = c.cls.data();
    v.dst = c.dst.data();
    v.src0 = c.src0.data();
    v.src1 = c.src1.data();
    v.src2 = c.src2.data();
    v.vl = c.vl.data();
    v.sew = c.sew.data();
    v.lmul8 = c.lmul8.data();
    v.bytes = c.bytes.data();
    v.rows = c.rows.data();
    v.cols = c.cols.data();
    v.taken = c.taken.data();
    v.program = this;
    return v;
}

UopStreamView
Program::stream() const
{
    // Fast path: columns already mirror the stream. The acquire pairs
    // with the release below so a replay thread that observes the
    // flag also observes the filled arrays.
    if (cols_valid_.load(std::memory_order_acquire))
        return makeView();

    std::lock_guard<std::mutex> lk(cols_mu_);
    if (!cols_valid_.load(std::memory_order_relaxed)) {
        if (!cols_)
            cols_ = std::make_unique<UopColumns>();
        UopColumns &c = *cols_;
        const size_t n = uops_.size();
        c.kind.resize(n);
        c.cls.resize(n);
        c.dst.resize(n);
        c.src0.resize(n);
        c.src1.resize(n);
        c.src2.resize(n);
        c.vl.resize(n);
        c.sew.resize(n);
        c.lmul8.resize(n);
        c.bytes.resize(n);
        c.rows.resize(n);
        c.cols.resize(n);
        c.taken.resize(n);
        for (size_t i = 0; i < n; ++i) {
            const Uop &u = uops_[i];
            c.kind[i] = u.kind;
            c.cls[i] = decodeClass(u.kind, u.sew);
            c.dst[i] = u.dst;
            c.src0[i] = u.src0;
            c.src1[i] = u.src1;
            c.src2[i] = u.src2;
            c.vl[i] = u.vl;
            c.sew[i] = u.sew;
            c.lmul8[i] = u.lmul8;
            c.bytes[i] = u.bytes;
            c.rows[i] = u.rows;
            c.cols[i] = u.cols;
            c.taken[i] = u.taken;
        }
        cols_valid_.store(true, std::memory_order_release);
    }
    return makeView();
}

Program
Program::assemble(std::vector<Uop> uops, std::vector<KernelRegion> kernels,
                  uint32_t next_reg, uint32_t next_vreg)
{
    Program p;
    p.uops_ = std::move(uops);
    p.kernels_ = std::move(kernels);
    p.next_reg_ = next_reg;
    p.next_vreg_ = next_vreg;
    return p;
}

size_t
Program::push(const Uop &u)
{
    if (emit_sew_ != 32) {
        Uop w = u;
        w.sew = emit_sew_;
        if (w.bytes)
            w.bytes = std::max<uint32_t>(
                1, w.bytes * emit_sew_ / 32);
        uops_.push_back(w);
    } else {
        uops_.push_back(u);
    }
    if (cols_valid_.load(std::memory_order_relaxed))
        invalidateColumns();
    return uops_.size() - 1;
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
    uops_.reserve(uop_capacity);
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
    kernels_.push_back({id, uops_.size(), uops_.size()});
}

void
Program::endKernel()
{
    if (!kernel_open_)
        rtoc_panic("endKernel: no region open");
    kernel_open_ = false;
    kernels_.back().end = uops_.size();
}

double
Program::flops() const
{
    double total = 0.0;
    for (const auto &u : uops_) {
        double per = flopsPerElement(u.kind);
        if (per == 0.0)
            continue;
        if (isVector(u.kind))
            total += per * static_cast<double>(u.vl);
        else if (u.kind == UopKind::RoccCompute)
            total += 0.0; // counted explicitly below
        else
            total += per;
    }
    // Systolic compute: rows x cols tile MACs against mesh operand.
    for (const auto &u : uops_) {
        if (u.kind == UopKind::RoccCompute) {
            total += 2.0 * static_cast<double>(u.rows) *
                     static_cast<double>(u.cols);
        }
    }
    return total;
}

size_t
Program::countScalar() const
{
    size_t n = 0;
    for (const auto &u : uops_)
        if (isScalar(u.kind))
            ++n;
    return n;
}

size_t
Program::countVector() const
{
    size_t n = 0;
    for (const auto &u : uops_)
        if (isVector(u.kind))
            ++n;
    return n;
}

size_t
Program::countRocc() const
{
    size_t n = 0;
    for (const auto &u : uops_)
        if (isRocc(u.kind))
            ++n;
    return n;
}

void
Program::clear()
{
    if (kernel_open_) {
        rtoc_panic("Program::clear with kernel region '%s' still open",
                   kernelName(kernels_.back().id).c_str());
    }
    uops_.clear();
    kernels_.clear();
    invalidateColumns();
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
