#include "scenario.hh"

#include <cmath>

#include "common/logging.hh"

namespace rtoc::plant {

std::string
RelinearizePolicy::label() const
{
    if (fixedTrim())
        return "trim";
    std::string s = everyK > 0 ? csprintf("K%d", everyK) : "K-";
    if (stateDeltaThreshold > 0.0)
        s += csprintf("/d%g", stateDeltaThreshold);
    return s;
}

double
Scenario::meanHopDistance(const Vec3 &start) const
{
    if (waypoints.size() < 2)
        return 0.0;
    double total = 0.0;
    Vec3 prev = start;
    for (const Vec3 &wp : waypoints) {
        double dx = wp[0] - prev[0];
        double dy = wp[1] - prev[1];
        double dz = wp[2] - prev[2];
        total += std::sqrt(dx * dx + dy * dy + dz * dz);
        prev = wp;
    }
    return total / static_cast<double>(waypoints.size());
}

const char *
difficultyName(Difficulty d)
{
    switch (d) {
      case Difficulty::Easy:
        return "easy";
      case Difficulty::Medium:
        return "medium";
      case Difficulty::Hard:
        return "hard";
    }
    rtoc_panic("bad difficulty");
}

} // namespace rtoc::plant
