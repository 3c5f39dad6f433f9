/**
 * @file
 * TinyMPC problem workspace: trajectories, ADMM state, cached LQR
 * terms and solver settings, following Nguyen et al. (ICRA 2024) and
 * the paper's Algorithms 1-3.
 *
 * Storage is float32 (the embedded solver precision) laid out row-
 * major with one horizon step per contiguous row, so per-step vectors
 * are unit-stride views; hand-optimized backends additionally use the
 * transposed cache copies (KinfT, BdynT) the paper's mappings rely on.
 */

#ifndef RTOC_TINYMPC_WORKSPACE_HH
#define RTOC_TINYMPC_WORKSPACE_HH

#include <vector>

#include "matlib/mat.hh"
#include "numerics/dare.hh"

namespace rtoc::tinympc {

/** ADMM solver settings. */
struct Settings
{
    int maxIters = 25;          ///< ADMM iteration bound
    int checkTermination = 5;   ///< residual check period
    float priTol = 1e-3f;       ///< primal residual tolerance
    float duaTol = 1e-3f;       ///< dual residual tolerance
    float rho = 1.0f;           ///< ADMM penalty (folded into cache)
};

/** Owned float32 matrix backing a matlib view. */
class Buffer
{
  public:
    Buffer() = default;

    Buffer(int rows, int cols)
        : rows_(rows), cols_(cols),
          data_(static_cast<size_t>(rows) * cols, 0.0f)
    {}

    matlib::Mat view() { return {data_.data(), rows_, cols_}; }
    matlib::Mat row(int r) { return view().row(r); }
    int rows() const { return rows_; }
    int cols() const { return cols_; }
    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<float> data_;
};

/**
 * A solver gemv matrix: the row-major Buffer plus its zero-padded
 * column-major copy (matlib::PackedMat), the operand layout of the
 * host float32 gemv kernels. Whoever writes the matrix calls pack();
 * in the workspace that is copyModelCache, the only writer of the
 * cached model and gain matrices.
 */
class PackedBuffer : public Buffer
{
  public:
    PackedBuffer() = default;

    PackedBuffer(int rows, int cols)
        : Buffer(rows, cols), cols_(matlib::packedSize(rows, cols), 0.0f)
    {}

    /** Rebuild the packed copy from the row-major storage. */
    void pack() { matlib::packColumns(view(), cols_.data()); }

    /** The matrix with its packed copy, for Backend::gemv. */
    matlib::PackedMat packed() { return {view(), cols_.data()}; }

  private:
    std::vector<float> cols_;
};

/** The TinyMPC workspace (problem + ADMM state + cache). */
struct Workspace
{
    int nx = 0; ///< state dimension
    int nu = 0; ///< input dimension
    int N = 0;  ///< horizon length (states 0..N-1, inputs 0..N-2)

    Settings settings;

    // Trajectories (one step per row).
    Buffer x; ///< states, N x nx
    Buffer u; ///< inputs, (N-1) x nu

    // ADMM slack/dual state.
    Buffer znew, z, y;     ///< input slack (new/old) and dual
    Buffer vnew, v, g;     ///< state slack (new/old) and dual

    // Linear cost terms and Riccati backward-pass state.
    Buffer q, p;  ///< state cost gradient / cost-to-go, N x nx
    Buffer r, d;  ///< input cost gradient / feedforward, (N-1) x nu

    // References and bounds.
    Buffer xRef;          ///< N x nx tracking reference
    Buffer uMin, uMax;    ///< input box bounds, (N-1) x nu
    Buffer xMin, xMax;    ///< state box bounds, N x nx
    Buffer qDiag;         ///< 1 x nx state cost diagonal

    // Cached LQR terms (float32 copies of the offline solution). The
    // solver's gemv operands keep packed copies.
    PackedBuffer kinf;   ///< nu x nx
    PackedBuffer kinfT;  ///< nx x nu
    Buffer pinf;         ///< nx x nx
    PackedBuffer quuInv; ///< nu x nu
    PackedBuffer amBKt;  ///< nx x nx
    PackedBuffer adyn;   ///< nx x nx
    PackedBuffer bdyn;   ///< nx x nu
    PackedBuffer bdynT;  ///< nu x nx

    // Affine dynamics residual of an off-trim relinearized model:
    // x+ = Adyn x + Bdyn u + cd. Zero (and hasAffine false) for trim
    // models, so the historical solve streams are untouched.
    Buffer affine;  ///< 1 x nx discrete residual cd
    Buffer pAffine; ///< 1 x nx cached Pinf·cd (backward-pass shift)
    bool hasAffine = false;

    // Scratch.
    Buffer tmpNu;  ///< 1 x nu backward-pass temporary
    Buffer tmpNx;  ///< 1 x nx temporary
    Buffer qRef;   ///< N x nx −xRef ⊙ qDiag: the host f32 solve's
                   ///< per-solve term of q (hostElementwisePass)

    /** Allocate all buffers for the given dimensions. */
    static Workspace allocate(int nx, int nu, int horizon);

    /**
     * Load the cache from a double-precision offline solution and the
     * discrete dynamics; sets cost diagonal and bounds to defaults
     * (infinite state bounds, +-inf input bounds).
     */
    void loadCache(const numerics::DMatrix &a, const numerics::DMatrix &b,
                   const numerics::LqrCache &cache,
                   const std::vector<double> &q_diag);

    /**
     * In-place model refresh for warm-start incremental
     * relinearization: swap in a new discrete model (@p a, @p b), its
     * Riccati cache and the affine residual @p cd (empty = none)
     * WITHOUT touching the ADMM duals, slacks or trajectories — the
     * warm-started solver state survives the model change. Cost
     * diagonal, references and bounds are left as loaded.
     */
    void refreshModel(const numerics::DMatrix &a,
                      const numerics::DMatrix &b,
                      const numerics::LqrCache &cache,
                      const std::vector<double> &cd = {});

    /** Set every row of the input bounds to [lo, hi]. */
    void setInputBounds(const std::vector<float> &lo,
                        const std::vector<float> &hi);

    /** Set every row of the tracking reference to @p xr. */
    void setReferenceAll(const std::vector<float> &xr);

    /** Set the measured initial state. */
    void setInitialState(const float *x0);

    /** Reset ADMM state (duals, slacks, trajectories) to zero —
     *  i.e. discard warm-start information. */
    void coldStart();
};

} // namespace rtoc::tinympc

#endif // RTOC_TINYMPC_WORKSPACE_HH
