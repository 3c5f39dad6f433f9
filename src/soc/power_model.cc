#include "power_model.hh"

namespace rtoc::soc {

PowerParams
PowerParams::scalarCore()
{
    PowerParams p;
    p.name = "scalar";
    p.leakageW = 0.004;
    p.idleCapNfV2 = 0.10;
    p.busyCapNfV2 = 0.45;
    return p;
}

PowerParams
PowerParams::vectorCore()
{
    PowerParams p;
    p.name = "vector";
    p.leakageW = 0.007;
    p.idleCapNfV2 = 0.13;
    p.busyCapNfV2 = 0.85; // wide datapath switches hard when busy
    return p;
}

PowerParams
PowerParams::systolicCore()
{
    PowerParams p;
    p.name = "systolic";
    p.leakageW = 0.008;
    p.idleCapNfV2 = 0.12;
    p.busyCapNfV2 = 0.70;
    return p;
}

double
PowerModel::voltageAt(double freq_hz) const
{
    return params_.v0 + params_.vSlopePerGHz * (freq_hz / 1e9);
}

double
PowerModel::powerW(double freq_hz, double utilization) const
{
    if (utilization < 0.0)
        utilization = 0.0;
    if (utilization > 1.0)
        utilization = 1.0;
    double v = voltageAt(freq_hz);
    double cap_nf =
        params_.idleCapNfV2 + utilization * params_.busyCapNfV2;
    // nF * V^2 * Hz = 1e-9 W.
    return params_.leakageW + cap_nf * 1e-9 * v * v * freq_hz;
}

} // namespace rtoc::soc
