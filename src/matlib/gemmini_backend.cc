#include "gemmini_backend.hh"

#include <algorithm>

namespace rtoc::matlib {

using isa::kNoReg;
using isa::Uop;
using isa::UopKind;

GemminiMapping
GemminiMapping::baseline()
{
    return GemminiMapping{};
}

GemminiMapping
GemminiMapping::staticMapped()
{
    GemminiMapping m;
    m.staticSchedule = true;
    m.unroll = true;
    return m;
}

GemminiMapping
GemminiMapping::fullyOptimized()
{
    GemminiMapping m;
    m.staticSchedule = true;
    m.unroll = true;
    m.fineGrained = true;
    m.spadResident = true;
    m.useElementwise = true;
    m.usePooling = true;
    return m;
}

GemminiBackend::GemminiBackend(GemminiMapping mapping)
    : mapping_(mapping)
{
    if (mapping_.spadResident && !mapping_.fineGrained) {
        rtoc_fatal("Gemmini CISC instructions require operands in "
                   "memory; scratchpad residency needs the "
                   "fine-grained ISA (paper §4.2.3)");
    }
}

std::string
GemminiBackend::name() const
{
    if (mapping_.spadResident && mapping_.usePooling)
        return "gemmini-opt-pool";
    if (mapping_.spadResident && mapping_.useElementwise)
        return "gemmini-opt-ewise";
    if (mapping_.spadResident)
        return "gemmini-spad";
    if (mapping_.staticSchedule)
        return "gemmini-static";
    return "gemmini-baseline";
}

std::string
GemminiBackend::mappingKey() const
{
    // name() collapses some option combinations; spell them all out.
    return std::string("gemmini") +
           (mapping_.staticSchedule ? ":static" : "") +
           (mapping_.unroll ? ":unroll" : "") +
           (mapping_.fineGrained ? ":fine" : ":cisc") +
           (mapping_.spadResident ? ":spad" : "") +
           (mapping_.useElementwise ? ":ewise" : "") +
           (mapping_.usePooling ? ":pool" : "") + ":mesh" +
           std::to_string(mapping_.meshDim);
}

void
GemminiBackend::emitCmdConstruction()
{
    if (mapping_.staticSchedule) {
        // Precomputed arguments: one immediate materialization.
        prog_->push(Uop::scalar(UopKind::IntAlu, prog_->newReg()));
    } else {
        // Dynamic tiling/indexing: the scalar CPU packs two 64-bit
        // RoCC operands with shifts/ors plus an index multiply.
        for (int i = 0; i < 6; ++i)
            prog_->push(Uop::scalar(UopKind::IntAlu, prog_->newReg()));
        prog_->push(Uop::scalar(UopKind::IntMul, prog_->newReg()));
    }
}

void
GemminiBackend::emitLoopOverhead()
{
    if (mapping_.unroll)
        return;
    prog_->push(Uop::scalar(UopKind::IntAlu, prog_->newReg()));
    Uop br = Uop::scalar(UopKind::Branch, kNoReg);
    br.taken = 1;
    prog_->push(br);
}

void
GemminiBackend::emitCmd(UopKind kind, int rows, int cols, int bytes,
                        bool pooled)
{
    emitCmdConstruction();
    emitLoopOverhead();
    Uop u = Uop::rocc(kind, static_cast<uint16_t>(rows),
                      static_cast<uint16_t>(cols),
                      static_cast<uint32_t>(bytes));
    u.taken = pooled ? 1 : 0;
    prog_->push(u);
}

int
GemminiBackend::tiles(int r, int c) const
{
    int d = effMeshDim();
    return ((r + d - 1) / d) * ((c + d - 1) / d);
}

void
GemminiBackend::initResident(std::initializer_list<const Mat *> mats)
{
    // Per-solver-session reset: residency and config-elision state
    // must not leak across sessions. A fresh workspace can heap-reuse
    // the addresses of a destroyed one, and a ProgramCache hit can
    // skip an earlier emission entirely, so carried state would make
    // the emitted stream depend on allocation and cache history
    // instead of only on (mapping, shape, iters).
    resident_.clear();
    config_valid_ = false;
    last_cfg_rows_ = -1;
    last_cfg_cols_ = -1;
    if (!mapping_.spadResident)
        return;
    for (const Mat *m : mats)
        resident_.insert(m->data);
    if (!emitting())
        return;
    // One-time staging of the solver workspace plus utility matrices
    // (identity, negated identity, rho-scaled identities) into
    // scratchpad bank 0 (paper Fig. 8).
    for (const Mat *m : mats)
        emitCmd(UopKind::RoccMvin, m->rows, m->cols, m->size() * 4);
    for (int util = 0; util < 4; ++util) {
        emitCmd(UopKind::RoccMvin, effMeshDim(), effMeshDim(),
                effMeshDim() * effMeshDim() * 4);
    }
}

void
GemminiBackend::stage(const Mat &m)
{
    if (mapping_.spadResident && resident_.count(m.data))
        return;
    if (mapping_.spadResident) {
        // First touch: move in and keep (results of prior Gemmini ops
        // are already marked resident by retire()).
        resident_.insert(m.data);
    }
    bool column = m.isVec();
    // Vectors land in a single scratchpad column: one element per
    // cycle (§4.2.4).
    if (column)
        emitCmd(UopKind::RoccMvin, m.size(), 1, m.size() * 4);
    else
        emitCmd(UopKind::RoccMvin, m.rows, m.cols, m.size() * 4);
}

void
GemminiBackend::retire(const Mat &m)
{
    if (mapping_.spadResident) {
        resident_.insert(m.data);
        return; // stays in scratchpad; no mvout, no fence
    }
    bool column = m.isVec();
    if (column)
        emitCmd(UopKind::RoccMvout, m.size(), 1, m.size() * 4);
    else
        emitCmd(UopKind::RoccMvout, m.rows, m.cols, m.size() * 4);
    // Library-style mapping: the CPU reads results right after the
    // call, so a fence must order the mvout against scalar loads.
    emitCmd(UopKind::RoccFence, 0, 0);
}

void
GemminiBackend::emitMeshEwise(int n, int passes)
{
    // Elementwise strip on the mesh: operands packed across
    // scratchpad rows in meshDim-wide tiles.
    int d = effMeshDim();
    int tile_count = (n + d * d - 1) / (d * d);
    for (int p = 0; p < passes; ++p) {
        if (!config_valid_) {
            emitCmd(UopKind::RoccConfig, 0, 0);
            config_valid_ = true;
        }
        for (int t = 0; t < tile_count; ++t) {
            emitCmd(UopKind::RoccPreload, d, d);
            emitCmd(UopKind::RoccCompute, d, d);
        }
    }
}

void
GemminiBackend::emitCpuFallback(int n, int fp_per_elem)
{
    // Results must round-trip through memory: mvout, fence, scalar
    // loop, mvin of the produced values.
    emitCmd(UopKind::RoccMvout, n, 1, n * 4);
    emitCmd(UopKind::RoccFence, 0, 0);
    for (int i = 0; i < n; ++i) {
        uint32_t v = prog_->newReg();
        prog_->push(Uop::mem(UopKind::Load, v, kNoReg));
        uint32_t cur = v;
        for (int f = 0; f < fp_per_elem; ++f) {
            uint32_t nv = prog_->newReg();
            prog_->push(Uop::scalar(UopKind::FpMinMax, nv, cur));
            cur = nv;
        }
        prog_->push(Uop::mem(UopKind::Store, kNoReg, cur));
        prog_->push(Uop::scalar(UopKind::IntAlu, prog_->newReg()));
        Uop br = Uop::scalar(UopKind::Branch, kNoReg);
        br.taken = i + 1 < n;
        prog_->push(br);
    }
    emitCmd(UopKind::RoccMvin, n, 1, n * 4);
}

void
GemminiBackend::emitGemv(Mat y, const Mat &a, Mat x, float alpha,
                         float beta)
{
    int d = effMeshDim();
    int tm = (a.rows + d - 1) / d;
    int tn = (a.cols + d - 1) / d;

    if (!mapping_.fineGrained) {
        // CISC tiled matmul: several config commands, operands in
        // DRAM, hardware sequencing of the (few) fine-grained ops.
        for (int c = 0; c < 5; ++c)
            emitCmd(UopKind::RoccConfig, 0, 0);
        emitCmd(UopKind::RoccMvin, a.rows, a.cols, a.size() * 4);
        emitCmd(UopKind::RoccMvin, x.size(), 1, x.size() * 4);
        for (int t = 0; t < tm * tn; ++t) {
            emitCmd(UopKind::RoccPreload, d, d);
            emitCmd(UopKind::RoccCompute, d, d);
        }
        emitCmd(UopKind::RoccMvout, y.size(), 1, y.size() * 4);
        emitCmd(UopKind::RoccFence, 0, 0);
        return;
    }

    // Reuse the execute configuration across same-shape operations
    // (§4.2.2 redundant-configuration elimination).
    if (!config_valid_ || last_cfg_rows_ != a.rows ||
        last_cfg_cols_ != a.cols) {
        emitCmd(UopKind::RoccConfig, 0, 0);
        config_valid_ = true;
        last_cfg_rows_ = a.rows;
        last_cfg_cols_ = a.cols;
    }

    stage(a);
    stage(x);
    if (beta != 0.0f)
        stage(y);

    // Output-stationary tiles: preload the output tile (bias or
    // zero), stream matrix rows through the mesh.
    for (int t = 0; t < tm * tn; ++t) {
        emitCmd(UopKind::RoccPreload, d, d);
        emitCmd(UopKind::RoccCompute, d, std::min(a.cols, d));
    }
    // Scaling fused via a rho/alpha-scaled identity pass when the
    // elementwise engine is in play and alpha != 1.
    if (alpha != 1.0f && mapping_.useElementwise)
        emitMeshEwise(y.size(), 1);
    retire(y);
}

void
GemminiBackend::emitGemvT(Mat y, const Mat &a, Mat x, float alpha,
                          float beta)
{
    // Same tile walk with transposed roles.
    Mat fake(const_cast<float *>(a.data), a.cols, a.rows);
    int d = effMeshDim();
    int tm = (fake.rows + d - 1) / d;
    int tn = (fake.cols + d - 1) / d;
    if (!config_valid_ || last_cfg_rows_ != fake.rows ||
        last_cfg_cols_ != fake.cols) {
        emitCmd(UopKind::RoccConfig, 0, 0);
        config_valid_ = true;
        last_cfg_rows_ = fake.rows;
        last_cfg_cols_ = fake.cols;
    }
    stage(a);
    stage(x);
    if (beta != 0.0f)
        stage(y);
    for (int t = 0; t < tm * tn; ++t) {
        emitCmd(UopKind::RoccPreload, d, d);
        emitCmd(UopKind::RoccCompute, d, std::min(fake.cols, d));
    }
    if (alpha != 1.0f && mapping_.useElementwise)
        emitMeshEwise(y.size(), 1);
    retire(y);
}

void
GemminiBackend::emitGemm(Mat c, const Mat &a, const Mat &b)
{
    int d = effMeshDim();
    int t = tiles(c.rows, c.cols) * ((a.cols + d - 1) / d);
    if (!config_valid_) {
        emitCmd(UopKind::RoccConfig, 0, 0);
        config_valid_ = true;
    }
    stage(a);
    stage(b);
    for (int i = 0; i < t; ++i) {
        emitCmd(UopKind::RoccPreload, d, d);
        emitCmd(UopKind::RoccCompute, d, d);
    }
    retire(c);
}

void
GemminiBackend::emitSaxpby(Mat out, float, const Mat &a, float,
                           const Mat &b)
{
    stage(a);
    stage(b);
    if (mapping_.useElementwise) {
        // Additions run on the mesh against the (±/scaled) identity
        // utility matrices; one pass per operand.
        emitMeshEwise(out.size(), 2);
        retire(out);
    } else {
        emitCpuFallback(out.size(), 2);
    }
}

void
GemminiBackend::emitScale(Mat out, const Mat &a, float)
{
    stage(a);
    if (mapping_.useElementwise) {
        emitMeshEwise(out.size(), 1); // s*I utility matrix multiply
        retire(out);
    } else {
        emitCpuFallback(out.size(), 1);
    }
}

void
GemminiBackend::emitAccumDiff(Mat acc, const Mat &a, const Mat &b)
{
    stage(a);
    stage(b);
    stage(acc);
    if (mapping_.useElementwise) {
        emitMeshEwise(acc.size(), 2);
        retire(acc);
    } else {
        emitCpuFallback(acc.size(), 2);
    }
}

void
GemminiBackend::emitAxpyDiff(Mat acc, float, const Mat &a, const Mat &b)
{
    stage(a);
    stage(b);
    stage(acc);
    if (mapping_.useElementwise) {
        emitMeshEwise(acc.size(), 2); // diff pass + scaled-I accumulate
        retire(acc);
    } else {
        emitCpuFallback(acc.size(), 2);
    }
}

void
GemminiBackend::emitRowScaleNeg(Mat out, const Mat &a, const Mat &diag)
{
    stage(a);
    stage(diag);
    if (mapping_.useElementwise) {
        emitMeshEwise(out.size(), 1); // multiply against diag tile
        retire(out);
    } else {
        emitCpuFallback(out.size(), 1);
    }
}

void
GemminiBackend::emitClampVec(Mat out, const Mat &a, const Mat &lo,
                             const Mat &hi)
{
    stage(a);
    stage(lo);
    stage(hi);
    if (mapping_.useElementwise) {
        // clip_low(x,min)=ReLU(x-min)+min; clip_high analogous
        // (Equations 2 and 3): two ReLU passes plus two adds.
        emitMeshEwise(out.size(), 4);
        retire(out);
    } else {
        emitCpuFallback(out.size(), 2);
    }
}

void
GemminiBackend::emitClampConst(Mat out, const Mat &a, float, float)
{
    stage(a);
    if (mapping_.useElementwise) {
        emitMeshEwise(out.size(), 4);
        retire(out);
    } else {
        emitCpuFallback(out.size(), 2);
    }
}

void
GemminiBackend::emitAbsMaxDiff(const Mat &a, const Mat &b)
{
    stage(a);
    stage(b);
    int n = a.size();
    if (mapping_.useElementwise) {
        // abs(x) = ReLU(x) + ReLU(-x): difference pass + two ReLU
        // passes on the mesh (Equation 1).
        emitMeshEwise(n, 3);
    } else {
        emitCpuFallback(n, 3);
        n = 0; // fallback already reduced on CPU
    }

    int cpu_elems = n;
    if (n > 0 && mapping_.usePooling) {
        // Max-pool on mvout reduces four scratchpad rows per output
        // (§4.2.6): the CPU only reduces the pooled remainder.
        emitCmd(UopKind::RoccMvout, n, 1, n * 4, /*pooled=*/true);
        emitCmd(UopKind::RoccFence, 0, 0);
        cpu_elems = (n + 3) / 4;
    } else if (n > 0) {
        emitCmd(UopKind::RoccMvout, n, 1, n * 4);
        emitCmd(UopKind::RoccFence, 0, 0);
    }
    // Final scalar reduction.
    uint32_t acc = prog_->newReg();
    prog_->push(Uop::scalar(UopKind::FpMove, acc));
    for (int i = 0; i < cpu_elems; ++i) {
        uint32_t v = prog_->newReg();
        prog_->push(Uop::mem(UopKind::Load, v, kNoReg));
        uint32_t nacc = prog_->newReg();
        prog_->push(Uop::scalar(UopKind::FpMinMax, nacc, v, acc));
        acc = nacc;
        Uop br = Uop::scalar(UopKind::Branch, kNoReg);
        br.taken = i + 1 < cpu_elems;
        prog_->push(br);
    }
}

void
GemminiBackend::emitCopy(Mat out, const Mat &a)
{
    stage(a);
    if (mapping_.spadResident) {
        // Identity multiply moves data within the scratchpad.
        emitMeshEwise(out.size(), 1);
        retire(out);
    } else {
        emitCmd(UopKind::RoccMvout, out.size(), 1, out.size() * 4);
        emitCmd(UopKind::RoccFence, 0, 0);
    }
}

void
GemminiBackend::emitFill(Mat out, float)
{
    if (mapping_.spadResident) {
        emitMeshEwise(out.size(), 1);
        resident_.insert(out.data);
    } else {
        emitCmd(UopKind::RoccMvin, out.size(), 1, out.size() * 4);
    }
}

void
GemminiBackend::emitSync()
{
    emitCmd(UopKind::RoccFence, 0, 0);
    // Conservatively invalidate layout assumptions after an external
    // synchronization point.
    config_valid_ = false;
}

} // namespace rtoc::matlib
