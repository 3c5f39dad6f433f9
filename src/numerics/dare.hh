/**
 * @file
 * Infinite-horizon discrete LQR via fixed-point iteration of the
 * discrete algebraic Riccati equation. TinyMPC pre-computes exactly
 * this cache (Kinf, Pinf, Quu_inv, AmBKt) offline; see Nguyen et al.,
 * "TinyMPC: Model-Predictive Control on Resource-Constrained
 * Microcontrollers" (ICRA 2024).
 *
 * The recursion runs once per call at the model's shape: at a registry
 * plant's shape (common/plant_shapes.hh) on the fixed-shape
 * dense:: kernels with stack scratch, at any other shape on their
 * run-time-shape instantiation with scratch allocated once per call.
 * No iteration allocates, and both compute the bits of the allocating
 * DMatrix expressions (pinned by tests).
 */

#ifndef RTOC_NUMERICS_DARE_HH
#define RTOC_NUMERICS_DARE_HH

#include <optional>

#include "numerics/dmatrix.hh"

namespace rtoc::numerics {

/** Result of the infinite-horizon Riccati recursion. */
struct LqrCache
{
    DMatrix kinf;   ///< Optimal feedback gain (nu x nx).
    DMatrix pinf;   ///< Riccati cost-to-go (nx x nx).
    DMatrix quuInv; ///< (R + rho·I + Bᵀ P B)⁻¹ (nu x nu).
    DMatrix amBKt;  ///< (A - B·Kinf)ᵀ (nx x nx).
    int iterations = 0;   ///< Riccati iterations run.
    double residual = 0.0; ///< Max-abs P update of the last iteration.
};

/**
 * Iterate P ← Q + Aᵀ P A − Aᵀ P B (R + Bᵀ P B)⁻¹ Bᵀ P A to a fixed
 * point and derive the TinyMPC cache terms.
 *
 * The ADMM penalty rho is folded into the cost exactly as TinyMPC
 * does: Q ← Q + rho·I, R ← R + rho·I, because the solver's backward
 * pass uses the rho-augmented cost.
 *
 * @param a   discrete state matrix (nx x nx)
 * @param b   discrete input matrix (nx x nu)
 * @param q   state cost diagonal-heavy SPD matrix (nx x nx)
 * @param r   input cost SPD matrix (nu x nu)
 * @param rho ADMM penalty parameter
 * @param tol stopping tolerance on the max-abs change of Kinf (see
 *            trySolveDare)
 * @param max_iters iteration bound; fatal() if exceeded
 */
LqrCache solveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
                   const DMatrix &r, double rho, double tol = 1e-10,
                   int max_iters = 10000);

/**
 * Non-fatal solveDare with an optional warm start: seed the fixed-
 * point iteration from @p p_warm (the Pinf of a nearby model) instead
 * of the rho-augmented Q. Incremental relinearization refreshes call
 * this with the previous cache's Pinf.
 *
 * The stopping test is the Kinf step alone: the recursion stops after
 * the first iteration (the third or later) whose max-abs change of
 * Kinf is below @p tol, and returns nullopt only when @p max_iters
 * iterations pass without one. It does not look at P, so it does not
 * detect divergence: with an uncontrollable unstable mode K can
 * settle while P keeps growing, and the call returns a cache whose
 * residual is the last P step. For A = [[1.2, 0], [0.3, 0.9]],
 * B = [0; 1], Q = I, R = 0.1, rho = 1 it returns after 12 iterations
 * with residual 163.8 at tol 1e-6, and after 20 with 3029 at 1e-10.
 */
std::optional<LqrCache>
trySolveDare(const DMatrix &a, const DMatrix &b, const DMatrix &q,
             const DMatrix &r, double rho, const DMatrix *p_warm,
             double tol = 1e-10, int max_iters = 10000);

} // namespace rtoc::numerics

#endif // RTOC_NUMERICS_DARE_HH
