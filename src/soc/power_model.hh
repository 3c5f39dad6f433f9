/**
 * @file
 * SoC power model substituting for the paper's bench-supply
 * measurements of the Cygnus chip (§5.2). Power splits into leakage,
 * idle-clock dynamic power, and busy dynamic power, with a linear
 * DVFS voltage curve: P(f) = P_leak + (c_idle + util·c_busy)·V(f)²·f.
 * Per-architecture busy capacitance reflects that a vector unit burns
 * more per active cycle but is active for far fewer cycles — which is
 * what produces the paper's "2% overhead for vector vs 4.5% for
 * scalar at 500 MHz" observation.
 */

#ifndef RTOC_SOC_POWER_MODEL_HH
#define RTOC_SOC_POWER_MODEL_HH

#include <string>

namespace rtoc::soc {

/** Power parameters for one compute configuration. */
struct PowerParams
{
    std::string name = "scalar";
    double leakageW = 0.004;
    double idleCapNfV2 = 0.10;  ///< nF-equivalent idle switching
    double busyCapNfV2 = 0.45;  ///< additional when executing
    double v0 = 0.60;           ///< voltage at f -> 0
    double vSlopePerGHz = 0.45; ///< V increase per GHz (DVFS)

    /** Scalar in-order core cluster (Rocket/Shuttle class). */
    static PowerParams scalarCore();

    /** Shuttle + Saturn vector unit (more area switching when busy). */
    static PowerParams vectorCore();

    /** Rocket + Gemmini systolic array. */
    static PowerParams systolicCore();
};

/** Evaluates SoC power at a frequency and utilization. */
class PowerModel
{
  public:
    explicit PowerModel(PowerParams params) : params_(params) {}

    /** Supply voltage at @p freq_hz. */
    double voltageAt(double freq_hz) const;

    /**
     * Average power (W) at @p freq_hz with the compute busy for
     * @p utilization (0..1) of the cycles.
     */
    double powerW(double freq_hz, double utilization) const;

    const PowerParams &params() const { return params_; }

  private:
    PowerParams params_;
};

} // namespace rtoc::soc

#endif // RTOC_SOC_POWER_MODEL_HH
