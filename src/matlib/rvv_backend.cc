#include "rvv_backend.hh"

#include <algorithm>
#include <vector>

namespace rtoc::matlib {

using isa::kNoReg;
using isa::Uop;
using isa::UopKind;

RvvMapping
RvvMapping::library(int lmul)
{
    RvvMapping m;
    m.lmul = lmul;
    return m;
}

RvvMapping
RvvMapping::handOptimized(int lmul)
{
    RvvMapping m;
    m.lmul = lmul;
    m.unroll = true;
    m.fuse = true;
    m.transposedLayout = true;
    return m;
}

RvvBackend::RvvBackend(int vlen, RvvMapping mapping)
    : vlen_(vlen), mapping_(mapping)
{
    if (mapping_.lmul != 1 && mapping_.lmul != 2 && mapping_.lmul != 4 &&
        mapping_.lmul != 8) {
        rtoc_fatal("RVV LMUL must be 1/2/4/8, got %d", mapping_.lmul);
    }
}

std::string
RvvBackend::name() const
{
    std::string n = "rvv";
    if (mapping_.fuse || mapping_.unroll)
        n += "-opt";
    else
        n += "-matlib";
    if (mapping_.lmul > 1)
        n += "-m" + std::to_string(mapping_.lmul);
    return n;
}

std::string
RvvBackend::mappingKey() const
{
    // Every knob that changes the emitted stream: VLEN (strip sizes),
    // LMUL, unrolling, fusion, and the transposed cache-matrix layout
    // (name() omits vlen and the layout flag).
    return "rvv:v" + std::to_string(vlen_) + ":m" +
           std::to_string(mapping_.lmul) +
           (mapping_.unroll ? ":unroll" : "") +
           (mapping_.fuse ? ":fuse" : "") +
           (mapping_.transposedLayout ? ":xpose" : "");
}

void
RvvBackend::emitLibCallOverhead()
{
    // Library mode pays a real function call per matlib operation:
    // argument marshalling plus the call/return redirect. The fused
    // hand-optimized implementation is a single function and pays
    // nothing per operator (§4.1.2).
    if (mapping_.fuse)
        return;
    for (int i = 0; i < 6; ++i)
        prog_->push(Uop::scalar(UopKind::IntAlu, prog_->newReg()));
    Uop call = Uop::scalar(UopKind::Branch, kNoReg);
    call.taken = 1;
    prog_->push(call);
}

void
RvvBackend::emitVsetvl(int vl)
{
    Uop u;
    u.kind = UopKind::VSetVl;
    u.dst = prog_->newReg();
    u.vl = static_cast<uint32_t>(vl);
    u.lmul8 = lmul8();
    prog_->push(u);
}

uint32_t
RvvBackend::loadVec(const Mat &v)
{
    if (fusing_) {
        auto it = fused_.find(v.data);
        if (it != fused_.end())
            return it->second.vreg;
    }
    uint32_t addr = prog_->newReg();
    prog_->push(Uop::scalar(UopKind::IntAlu, addr));
    uint32_t vreg = prog_->newVReg();
    Uop ld = Uop::vec(UopKind::VLoad, vreg, addr, kNoReg,
                      static_cast<uint32_t>(v.size()), lmul8());
    ld.bytes = static_cast<uint32_t>(v.size()) * 4;
    prog_->push(ld);
    if (fusing_ && v.size() <= stripElems()) {
        if (!fused_.count(v.data))
            fuse_order_.push_back(v.data);
        fused_[v.data] = {vreg, v.size(), false};
    }
    return vreg;
}

void
RvvBackend::storeVec(const Mat &v, uint32_t vreg)
{
    if (fusing_ && v.size() <= stripElems()) {
        if (!fused_.count(v.data))
            fuse_order_.push_back(v.data);
        fused_[v.data] = {vreg, v.size(), true};
        return;
    }
    uint32_t addr = prog_->newReg();
    prog_->push(Uop::scalar(UopKind::IntAlu, addr));
    Uop st = Uop::vec(UopKind::VStore, kNoReg, vreg, addr,
                      static_cast<uint32_t>(v.size()), lmul8());
    st.bytes = static_cast<uint32_t>(v.size()) * 4;
    prog_->push(st);
}

void
RvvBackend::flushVec(const float *key)
{
    auto it = fused_.find(key);
    if (it == fused_.end() || !it->second.dirty)
        return;
    uint32_t addr = prog_->newReg();
    prog_->push(Uop::scalar(UopKind::IntAlu, addr));
    Uop st = Uop::vec(UopKind::VStore, kNoReg, it->second.vreg, addr,
                      static_cast<uint32_t>(it->second.len), lmul8());
    st.bytes = static_cast<uint32_t>(it->second.len) * 4;
    prog_->push(st);
    it->second.dirty = false;
}

void
RvvBackend::emitBeginFuse()
{
    if (!mapping_.fuse)
        return;
    fusing_ = true;
}

void
RvvBackend::emitEndFuse()
{
    if (!fusing_)
        return;
    // Writeback in insertion order: deterministic regardless of heap
    // layout (pointer values must not affect timing).
    for (const float *key : fuse_order_) {
        auto &fv = fused_.at(key);
        if (!fv.dirty)
            continue;
        uint32_t addr = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::IntAlu, addr));
        Uop st = Uop::vec(UopKind::VStore, kNoReg, fv.vreg, addr,
                          static_cast<uint32_t>(fv.len), lmul8());
        st.bytes = static_cast<uint32_t>(fv.len) * 4;
        prog_->push(st);
    }
    fused_.clear();
    fuse_order_.clear();
    fusing_ = false;
}

template <typename BodyFn>
void
RvvBackend::ewise(const Mat &out, std::initializer_list<const Mat *> ins,
                  BodyFn &&body)
{
    // Whole vector register-resident (fusion fast path).
    if (fusing_ && out.size() <= stripElems()) {
        emitVsetvl(out.size());
        std::vector<uint32_t> in_regs;
        for (const Mat *m : ins)
            in_regs.push_back(loadVec(*m));
        uint32_t result = body(out.size(), in_regs);
        storeVec(out, result);
        return;
    }

    // Library strip-mine loop.
    int remaining = out.size();
    bool first = true;
    while (remaining > 0) {
        int vl = std::min(remaining, stripElems());
        emitVsetvl(vl);
        std::vector<uint32_t> in_regs;
        for (const Mat *m : ins) {
            (void)m;
            uint32_t addr = prog_->newReg();
            prog_->push(Uop::scalar(UopKind::IntAlu, addr));
            uint32_t vreg = prog_->newVReg();
            prog_->push(Uop::vec(UopKind::VLoad, vreg, addr, kNoReg,
                                 static_cast<uint32_t>(vl), lmul8()));
            in_regs.push_back(vreg);
        }
        uint32_t result = body(vl, in_regs);
        uint32_t addr = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::IntAlu, addr));
        prog_->push(Uop::vec(UopKind::VStore, kNoReg, result, addr,
                             static_cast<uint32_t>(vl), lmul8()));
        remaining -= vl;
        if (remaining > 0 || !first) {
            Uop br = Uop::scalar(UopKind::Branch, kNoReg);
            br.taken = remaining > 0;
            prog_->push(br);
        }
        first = false;
    }
}

void
RvvBackend::emitGemvStream(int m, int n, bool accumulate, bool scaled,
                           const float *y_key)
{
    if (!mapping_.transposedLayout && !mapping_.unroll) {
        // Out-of-box vectorized matlib: row-wise dot products. Each
        // output element costs a row vload, a multiply, and a full
        // vector reduction whose result synchronizes back to the
        // scalar core -- the mapping of §4.1.1 improves on this by
        // switching to the vfmacc.vf column form.
        emitVsetvl(n);
        for (int i = 0; i < m; ++i) {
            uint32_t addr = prog_->newReg();
            prog_->push(Uop::scalar(UopKind::IntAlu, addr));
            uint32_t row = prog_->newVReg();
            prog_->push(Uop::vec(UopKind::VLoad, row, addr, kNoReg,
                                 static_cast<uint32_t>(n), lmul8()));
            uint32_t xv = prog_->newVReg();
            prog_->push(Uop::vec(UopKind::VLoad, xv, addr, kNoReg,
                                 static_cast<uint32_t>(n), lmul8()));
            uint32_t prod = prog_->newVReg();
            prog_->push(Uop::vec(UopKind::VArith, prod, row, xv,
                                 static_cast<uint32_t>(n), lmul8()));
            uint32_t acc = prog_->newReg();
            prog_->push(Uop::vec(UopKind::VRed, acc, prod, kNoReg,
                                 static_cast<uint32_t>(n), lmul8()));
            if (scaled) {
                uint32_t sc = prog_->newReg();
                prog_->push(Uop::scalar(UopKind::FpMul, sc, acc));
                acc = sc;
            }
            if (accumulate) {
                uint32_t yold = prog_->newReg();
                prog_->push(Uop::mem(UopKind::Load, yold, kNoReg));
                uint32_t sum = prog_->newReg();
                prog_->push(Uop::scalar(UopKind::FpAdd, sum, acc, yold));
                acc = sum;
            }
            prog_->push(Uop::mem(UopKind::Store, kNoReg, acc));
            Uop br = Uop::scalar(UopKind::Branch, kNoReg);
            br.taken = i + 1 < m;
            prog_->push(br);
        }
        return;
    }

    emitVsetvl(m);

    // Accumulator: start from y (accumulate) or zero.
    uint32_t acc0 = prog_->newVReg();
    uint32_t acc1 = kNoReg;
    if (accumulate) {
        uint32_t addr = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::IntAlu, addr));
        if (fusing_ && y_key) {
            auto it = fused_.find(y_key);
            if (it != fused_.end()) {
                acc0 = it->second.vreg;
            } else {
                prog_->push(Uop::vec(UopKind::VLoad, acc0, addr, kNoReg,
                                     static_cast<uint32_t>(m), lmul8()));
            }
        } else {
            prog_->push(Uop::vec(UopKind::VLoad, acc0, addr, kNoReg,
                                 static_cast<uint32_t>(m), lmul8()));
        }
    } else {
        prog_->push(Uop::vec(UopKind::VMove, acc0, kNoReg, kNoReg,
                             static_cast<uint32_t>(m), lmul8()));
    }
    int chains = mapping_.unroll ? 2 : 1;
    if (chains == 2) {
        acc1 = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VMove, acc1, kNoReg, kNoReg,
                             static_cast<uint32_t>(m), lmul8()));
    }

    uint32_t accs[2] = {acc0, acc1};
    for (int j = 0; j < n; ++j) {
        // Scalar load of x[j] (vfmacc.vf form).
        uint32_t xj = prog_->newReg();
        prog_->push(Uop::mem(UopKind::Load, xj, kNoReg));

        // Matrix column: unit-stride when the layout is transposed,
        // element-per-cycle strided otherwise.
        uint32_t col = prog_->newVReg();
        uint32_t addr = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::IntAlu, addr));
        UopKind lk = mapping_.transposedLayout ? UopKind::VLoad
                                               : UopKind::VLoadStrided;
        prog_->push(Uop::vec(lk, col, addr, kNoReg,
                             static_cast<uint32_t>(m), lmul8()));

        int c = j % chains;
        uint32_t nacc = prog_->newVReg();
        Uop fma = Uop::vec(UopKind::VFma, nacc, col, accs[c],
                           static_cast<uint32_t>(m), lmul8());
        fma.src2 = xj;
        prog_->push(fma);
        accs[c] = nacc;

        if (!mapping_.unroll) {
            // Rolled column loop: per-iteration bookkeeping.
            uint32_t idx = prog_->newReg();
            prog_->push(Uop::scalar(UopKind::IntAlu, idx));
            Uop br = Uop::scalar(UopKind::Branch, kNoReg);
            br.taken = j + 1 < n;
            prog_->push(br);
        }
    }

    uint32_t result = accs[0];
    if (chains == 2) {
        uint32_t sum = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VArith, sum, accs[0], accs[1],
                             static_cast<uint32_t>(m), lmul8()));
        result = sum;
    }
    if (scaled) {
        uint32_t scaled_reg = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VArith, scaled_reg, result, kNoReg,
                             static_cast<uint32_t>(m), lmul8()));
        result = scaled_reg;
    }

    // Write back (register-resident inside a fusion region).
    if (fusing_ && y_key && m <= stripElems()) {
        if (!fused_.count(y_key))
            fuse_order_.push_back(y_key);
        fused_[y_key] = {result, m, true};
    } else {
        uint32_t addr = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::IntAlu, addr));
        prog_->push(Uop::vec(UopKind::VStore, kNoReg, result, addr,
                             static_cast<uint32_t>(m), lmul8()));
    }
}

void
RvvBackend::emitGemv(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    emitLibCallOverhead();
    flushVec(x.data); // scalar loads of x[j] need memory current
    emitGemvStream(a.rows, a.cols, beta != 0.0f, alpha != 1.0f, y.data);
}

void
RvvBackend::emitGemvT(Mat y, const Mat &a, Mat x, float alpha, float beta)
{
    emitLibCallOverhead();
    flushVec(x.data);
    // The transpose of a row-major matrix is column-contiguous, so the
    // roles of the layout flag invert; hand-tuned code keeps both
    // layouts in the cache (KinfT etc.), so charge the same stream.
    emitGemvStream(a.cols, a.rows, beta != 0.0f, alpha != 1.0f, y.data);
}

void
RvvBackend::emitGemm(Mat, const Mat &a, const Mat &b)
{
    for (int j = 0; j < b.cols; ++j)
        emitGemvStream(a.rows, a.cols, false, false, nullptr);
}

void
RvvBackend::emitSaxpby(Mat out, float sa, const Mat &a, float sb,
                       const Mat &b)
{
    emitLibCallOverhead();
    bool general = sa != 1.0f && sa != -1.0f;
    ewise(out, {&a, &b}, [&](int vl, const std::vector<uint32_t> &in) {
        uint32_t r = prog_->newVReg();
        UopKind k = general ? UopKind::VFma : UopKind::VArith;
        prog_->push(Uop::vec(k, r, in[0], in[1],
                             static_cast<uint32_t>(vl), lmul8()));
        if (sb != 1.0f && sb != -1.0f && general) {
            uint32_t r2 = prog_->newVReg();
            prog_->push(Uop::vec(UopKind::VFma, r2, r, kNoReg,
                                 static_cast<uint32_t>(vl), lmul8()));
            r = r2;
        }
        return r;
    });
}

void
RvvBackend::emitScale(Mat out, const Mat &a, float)
{
    emitLibCallOverhead();
    ewise(out, {&a}, [&](int vl, const std::vector<uint32_t> &in) {
        uint32_t r = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VArith, r, in[0], kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        return r;
    });
}

void
RvvBackend::emitAccumDiff(Mat acc, const Mat &a, const Mat &b)
{
    emitLibCallOverhead();
    ewise(acc, {&acc, &a, &b},
          [&](int vl, const std::vector<uint32_t> &in) {
              uint32_t d = prog_->newVReg();
              prog_->push(Uop::vec(UopKind::VArith, d, in[1], in[2],
                                   static_cast<uint32_t>(vl), lmul8()));
              uint32_t r = prog_->newVReg();
              prog_->push(Uop::vec(UopKind::VArith, r, in[0], d,
                                   static_cast<uint32_t>(vl), lmul8()));
              return r;
          });
}

void
RvvBackend::emitAxpyDiff(Mat acc, float, const Mat &a, const Mat &b)
{
    emitLibCallOverhead();
    ewise(acc, {&acc, &a, &b},
          [&](int vl, const std::vector<uint32_t> &in) {
              uint32_t d = prog_->newVReg();
              prog_->push(Uop::vec(UopKind::VArith, d, in[1], in[2],
                                   static_cast<uint32_t>(vl), lmul8()));
              uint32_t r = prog_->newVReg();
              prog_->push(Uop::vec(UopKind::VFma, r, d, in[0],
                                   static_cast<uint32_t>(vl), lmul8()));
              return r;
          });
}

void
RvvBackend::emitRowScaleNeg(Mat out, const Mat &a, const Mat &diag)
{
    emitLibCallOverhead();
    // Per row: elementwise multiply against the (register-cached)
    // diagonal, with sign inversion folded into the multiply.
    for (int i = 0; i < out.rows; ++i) {
        Mat orow = out.row(i);
        Mat arow(const_cast<float *>(a.data) +
                     static_cast<size_t>(i) * a.cols,
                 1, a.cols);
        ewise(orow, {&arow, &diag},
              [&](int vl, const std::vector<uint32_t> &in) {
                  uint32_t r = prog_->newVReg();
                  prog_->push(Uop::vec(UopKind::VArith, r, in[0], in[1],
                                       static_cast<uint32_t>(vl),
                                       lmul8()));
                  return r;
              });
    }
}

void
RvvBackend::emitClampVec(Mat out, const Mat &a, const Mat &lo,
                         const Mat &hi)
{
    emitLibCallOverhead();
    ewise(out, {&a, &lo, &hi},
          [&](int vl, const std::vector<uint32_t> &in) {
              uint32_t mx = prog_->newVReg();
              prog_->push(Uop::vec(UopKind::VArith, mx, in[0], in[1],
                                   static_cast<uint32_t>(vl), lmul8()));
              uint32_t mn = prog_->newVReg();
              prog_->push(Uop::vec(UopKind::VArith, mn, mx, in[2],
                                   static_cast<uint32_t>(vl), lmul8()));
              return mn;
          });
}

void
RvvBackend::emitClampConst(Mat out, const Mat &a, float, float)
{
    emitLibCallOverhead();
    ewise(out, {&a}, [&](int vl, const std::vector<uint32_t> &in) {
        uint32_t mx = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VArith, mx, in[0], kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        uint32_t mn = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VArith, mn, mx, kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        return mn;
    });
}

void
RvvBackend::emitAbsMaxDiff(const Mat &a, const Mat &)
{
    emitLibCallOverhead();
    // Per strip: diff, abs, vector max-reduce to scalar, then scalar
    // combine across strips.
    int remaining = a.size();
    uint32_t best = prog_->newReg();
    prog_->push(Uop::scalar(UopKind::FpMove, best));
    while (remaining > 0) {
        int vl = std::min(remaining, stripElems());
        emitVsetvl(vl);
        uint32_t va = prog_->newVReg();
        uint32_t vb = prog_->newVReg();
        uint32_t addr = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::IntAlu, addr));
        prog_->push(Uop::vec(UopKind::VLoad, va, addr, kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        prog_->push(Uop::vec(UopKind::VLoad, vb, addr, kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        uint32_t d = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VArith, d, va, vb,
                             static_cast<uint32_t>(vl), lmul8()));
        uint32_t ad = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VArith, ad, d, kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        uint32_t red = prog_->newReg();
        prog_->push(Uop::vec(UopKind::VRed, red, ad, kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        uint32_t nbest = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::FpMinMax, nbest, red, best));
        best = nbest;
        remaining -= vl;
        Uop br = Uop::scalar(UopKind::Branch, kNoReg);
        br.taken = remaining > 0;
        prog_->push(br);
    }
}

void
RvvBackend::emitCopy(Mat out, const Mat &a)
{
    emitLibCallOverhead();
    ewise(out, {&a}, [&](int, const std::vector<uint32_t> &in) {
        return in[0];
    });
}

void
RvvBackend::emitFill(Mat out, float)
{
    emitLibCallOverhead();
    int remaining = out.size();
    while (remaining > 0) {
        int vl = std::min(remaining, stripElems());
        emitVsetvl(vl);
        uint32_t v = prog_->newVReg();
        prog_->push(Uop::vec(UopKind::VMove, v, kNoReg, kNoReg,
                             static_cast<uint32_t>(vl), lmul8()));
        uint32_t addr = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::IntAlu, addr));
        prog_->push(Uop::vec(UopKind::VStore, kNoReg, v, addr,
                             static_cast<uint32_t>(vl), lmul8()));
        remaining -= vl;
    }
}

} // namespace rtoc::matlib
