/**
 * @file
 * TinyMPC ADMM solver over a matlib backend.
 *
 * Two software structures, matching the paper's study:
 *  - MappingStyle::Library — every kernel is a sequence of separate
 *    matlib calls over whole horizon arrays (the out-of-box mapping
 *    of Fig. 3/5: each call round-trips operands through memory);
 *  - MappingStyle::Fused — the hand-optimized structure: per-step
 *    fusion regions keep temporaries register-resident, kernels are
 *    emitted per timestep (§4.1.2).
 *
 * The numerical result is identical in both styles and across all
 * backends (pure float32 reference arithmetic); only the emitted
 * micro-op stream — and therefore simulated time — differs.
 *
 * Two host loops compute those values. An emitting solve (a Program
 * attached) and every int16 or int32 solve run the passes as the
 * style's sequence of Backend calls, because that sequence defines the
 * emitted stream and the int formats quantize their adds through
 * fx::saxpby. A host float32 or bfloat16 solve (no Program) runs the
 * same gemv passes, but the slack, dual, linear-cost, residual and
 * slack-copy stages of each iteration run as one four-lane pass per
 * side (hostElementwisePass), which computes the same bits as the
 * Backend calls it replaces.
 *
 * The gemvs of a host bfloat16 or int16 solve at a registry plant's
 * shape inline their format's kernel (matlib::Datapath::Bf16 or I16).
 * Emitting solves, int32 solves and other shapes call the out-of-line
 * fx:: kernels (Datapath::Dynamic), which compute the same values.
 *
 * On a narrow-format backend a solve looks up each of its eight matrix
 * operands in the backend's operand cache once, before its first
 * kernel, and its gemvs read those entries without a lookup (see
 * Solver::solve).
 */

#ifndef RTOC_TINYMPC_SOLVER_HH
#define RTOC_TINYMPC_SOLVER_HH

#include <string>

#include "matlib/backend.hh"
#include "tinympc/workspace.hh"

namespace rtoc::tinympc {

/** Software mapping structure for the solver kernels. */
enum class MappingStyle {
    Library,        ///< whole-array matlib calls (Eigen-style)
    LibraryPerStep, ///< per-timestep matlib calls, no fusion (the
                    ///< out-of-box Accelerated-TinyMPC structure)
    Fused,          ///< per-timestep with operator fusion (§4.1.2)
};

/** Outcome of one ADMM solve. */
struct SolveResult
{
    int iterations = 0;
    bool converged = false;
    float primalResidualState = 0.0f;
    float dualResidualState = 0.0f;
    float primalResidualInput = 0.0f;
    float dualResidualInput = 0.0f;

    /**
     * Non-finite residuals or command: the iteration blew up. Never
     * set on the float32 path in practice; narrow formats can diverge
     * when quantization error compounds, and the precision bench
     * reports the rate per scenario.
     */
    bool diverged = false;
};

/** The TinyMPC solver: ADMM over box-constrained LQR tracking. */
class Solver
{
  public:
    /**
     * @param ws workspace (owned by caller; persists across solves to
     *           provide warm starting)
     * @param backend compute/emission backend
     * @param style software-mapping structure
     */
    Solver(Workspace &ws, matlib::Backend &backend, MappingStyle style);

    /**
     * One-time backend setup (e.g. scratchpad staging for Gemmini).
     * Emits into the attached program when one is set.
     */
    void setup();

    /**
     * Run ADMM from the current workspace state.
     *
     * @p max_iters is the *anytime* contract: a per-tick iteration
     * budget chosen by the caller (e.g. a scheduler's slack governor).
     * <= 0 or >= settings.maxIters runs the full configured bound —
     * bit-identical to the historical unbudgeted path; a smaller
     * budget stops the iteration early and returns the best iterate
     * so far (warm starting keeps it usable as a degraded command).
     *
     * The iterations run at the workspace's shape (nx, nu), fixed at
     * compile time for the registry plants and at run time otherwise,
     * and on the backend's datapath format (see iterate), both read
     * once per solve. Fatal when settings.maxIters or
     * settings.checkTermination is below 1 (the loop cannot run them).
     */
    SolveResult solve(int max_iters = 0);

    /** First planned input (the command sent to actuators). */
    matlib::Mat firstInput() { return ws_.u.row(0); }

    Workspace &workspace() { return ws_; }
    matlib::Backend &backend() { return backend_; }
    MappingStyle style() const { return style_; }

  private:
    /**
     * The eight matrix operands of one solve as its gemvs read them:
     * each with its float32 packed copy (none for pinf, which only
     * gemvT reads) and, on a narrow backend, its operand-cache entry.
     */
    struct Operands
    {
        matlib::PackedMat kinf, adyn, bdyn;            ///< forward pass
        matlib::PackedMat bdynT, quuInv, amBKt, kinfT; ///< backward pass
        matlib::PackedMat pinf;                        ///< p[N-1] (gemvT)
    };

    /** The operands of a solve starting now (see solve()). */
    Operands operands();

    /** Fatal when asked to emit Fused on a backend that cannot. */
    void checkFusedEmission() const;

    /**
     * Up to @p bound ADMM iterations at plant shape <NX, NU> (nx, nu),
     * every stage a Backend call, the gemvs on datapath P: solve()
     * instantiates it for each registry plant's shape
     * (common/plant_shapes.hh), whose passes then run fixed-shape
     * gemvs, and at <0, 0> (run-time dimensions) for any other shape.
     * P Dynamic runs every emitting solve (emission reads shapes only,
     * and the Dynamic bf16 kernels compute the inline ones' values),
     * every host i32 solve and every host i16 solve at run-time shape;
     * P I16 runs a host i16 solve at a registry shape, whose passes
     * inline fx::gemvI16. Every instantiation computes the same values
     * and calls the same emission hooks in the same order.
     */
    template <int NX, int NU, matlib::Datapath P>
    void iterate(int bound, const Operands &op, SolveResult &res);

    /**
     * iterate<NX, NU, P> for a host float32 (P Dynamic) or bfloat16
     * (P Bf16, whose passes inline the bf16 kernels) solve: the same
     * forward and backward passes and the same values, with the
     * elementwise stages fused into hostElementwisePass. Emits nothing.
     */
    template <int NX, int NU, matlib::Datapath P>
    void iterateHost(int bound, const Operands &op, SolveResult &res);

    /**
     * The loop for the backend's format and Program, picked once per
     * solve: iterateHost for a host f32 or bf16 solve, iterate on the
     * I16 datapath for a host i16 solve at a registry shape, and on the
     * Dynamic one otherwise.
     */
    template <int NX, int NU>
    void iterateAt(int bound, const Operands &op, SolveResult &res);

    template <int NX, int NU, matlib::Datapath P>
    void forwardPass(const Operands &op);
    void updateSlack();
    void updateDual();
    template <int NX, int NU> void updateLinearCost(const Operands &op);
    template <int NX, int NU, matlib::Datapath P>
    void backwardPass(const Operands &op);

    /** Compute all four residuals; returns true when converged. */
    bool checkResiduals(SolveResult &res);

    Workspace &ws_;
    matlib::Backend &backend_;
    MappingStyle style_;
};

/**
 * The elementwise stages of one host float32 ADMM iteration, fused
 * into one four-lane pass (scalar tail) over each side: the input side
 * over the (N−1)·nu arrays u, y, z, znew, uMin, uMax, r, and the state
 * side over the N·nx arrays x, g, v, vnew, xMin, xMax, q. Per element
 * it computes the values of the Backend calls it replaces, bit for bit
 * (a NaN result may carry another NaN's sign: which operand's NaN an
 * add of two NaNs returns is the compiler's choice, in either form):
 * the slack znew = clamp(u + y, uMin, uMax), the dual y += u − znew,
 * the linear cost r = −ρ·znew + ρ·y (q = qRef − ρ·(vnew − g)), with a
 * non-null @p res the four residuals into *res, and the slack copy
 * z = znew. Reads ws.qRef, which must hold −xRef ⊙ qDiag
 * (ref::rowScaleNeg); Solver::solve writes it once per solve. p[N−1]
 * is left to the caller.
 *
 * Bf16 makes it the pass of a bfloat16 iteration: the two stages that
 * are fx::saxpby calls there, u + y (x + g) and r, round their
 * operands and result through fx::toBf16 as fx::saxpby does. The
 * other stages are ref:: calls at every format and stay as they are.
 */
template <bool Bf16 = false>
void hostElementwisePass(Workspace &ws, SolveResult *res);

// Each is its own function in solver.cc rather than an instantiation
// of one shared body, so the compiler inlines the f32 pass on its own
// terms, whatever the bf16 pass costs.
template <> void hostElementwisePass<false>(Workspace &ws, SolveResult *res);
template <> void hostElementwisePass<true>(Workspace &ws, SolveResult *res);

/**
 * Emit the on-SoC model-refresh stream for warm-start incremental
 * relinearization into @p backend's attached program, under its own
 * kernel regions so refresh cost shows up in timing attribution
 * separately from the solve: @p riccati_iters "riccati_sweep"
 * regions (the float32 fixed-point sweep the device would run — a
 * flop/traffic-faithful proxy computed on scratch buffers; the
 * authoritative double-precision cache is committed by
 * Workspace::refreshModel) followed by one "model_refresh_commit"
 * region (cache write-back, Gemmini re-staging, affine Pinf·cd prep).
 * Emission depends only on (backend config, nx, nu, iters), so
 * refresh programs cache exactly like solve programs.
 */
void emitModelRefresh(Workspace &ws, matlib::Backend &backend,
                      int riccati_iters);

/**
 * Derive the per-kernel fixed-point shift schedule from the solved
 * workspace: gain/dynamics matrix ranges from the cached LQR solution
 * (known offline, exactly the Jerez-style static analysis) and
 * trajectory ranges from the references and finite bound boxes with
 * excursion headroom. Call after loadCache/refreshModel; apply with
 * Backend::setFixedScaling.
 */
matlib::fx::Scaling calibrateFixedScaling(Workspace &ws,
                                          matlib::NumericFormat f);

/** RAII kernel-region marker (no-op without an attached program). */
class KernelScope
{
  public:
    /** Hot path: interned id, no string construction per region. */
    KernelScope(matlib::Backend &backend, isa::KernelId id)
        : prog_(backend.program())
    {
        if (prog_)
            prog_->beginKernel(id);
    }

    KernelScope(matlib::Backend &backend, std::string_view name)
        : prog_(backend.program())
    {
        if (prog_)
            prog_->beginKernel(isa::internKernel(name));
    }

    ~KernelScope()
    {
        if (prog_)
            prog_->endKernel();
    }

    KernelScope(const KernelScope &) = delete;
    KernelScope &operator=(const KernelScope &) = delete;

  private:
    isa::Program *prog_;
};

} // namespace rtoc::tinympc

#endif // RTOC_TINYMPC_SOLVER_HH
