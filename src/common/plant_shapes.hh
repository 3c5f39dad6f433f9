/**
 * @file
 * The registry plants' (nx, nu) shapes, listed once. The host kernels
 * that run at a plant's shape (the ADMM passes of Solver::solve and
 * the Riccati recursion of numerics::trySolveDare) compile one
 * fixed-shape instantiation per entry, whose trip counts are
 * compile-time constants, and one run-time-shape instantiation, <0, 0>,
 * for every other shape. The shape selects only the code, never the
 * values: every instantiation computes the same bits.
 */

#ifndef RTOC_COMMON_PLANT_SHAPES_HH
#define RTOC_COMMON_PLANT_SHAPES_HH

#include <type_traits>

namespace rtoc {

/** A compile-time dimension: converts to its value in a template argument. */
template <int N> using Dim = std::integral_constant<int, N>;

/**
 * Calls f(Dim<NX>{}, Dim<NU>{}) with (NX, NU) = (nx, nu) when that is a
 * registry plant's shape, and f(Dim<0>{}, Dim<0>{}) otherwise; returns
 * what f returns.
 */
template <typename F>
decltype(auto)
atPlantShape(int nx, int nu, F &&f)
{
    if (nx == 12 && nu == 4)
        return f(Dim<12>{}, Dim<4>{}); // quadrotor
    if (nx == 6 && nu == 3)
        return f(Dim<6>{}, Dim<3>{}); // rocket lander
    if (nx == 5 && nu == 2)
        return f(Dim<5>{}, Dim<2>{}); // rover
    if (nx == 4 && nu == 1)
        return f(Dim<4>{}, Dim<1>{}); // cart-pole
    return f(Dim<0>{}, Dim<0>{});
}

} // namespace rtoc

#endif // RTOC_COMMON_PLANT_SHAPES_HH
