#include "sweep.hh"

namespace rtoc::hil {

size_t
SweepRunner::defaultGrain(size_t n, int threads)
{
    if (threads <= 1)
        return n == 0 ? 1 : n; // serial: one inline chunk, zero overhead
    // ~4 claimable chunks per participant: coarse enough that the
    // per-task claim cost amortizes over several episodes, fine
    // enough that stealing can still rebalance skewed chunks.
    size_t chunks = static_cast<size_t>(threads) * 4;
    size_t grain = n / chunks;
    return grain < 1 ? 1 : grain;
}

size_t
SweepRunner::effectiveGrain(size_t n) const
{
    if (grain_ >= 1)
        return static_cast<size_t>(grain_);
    return defaultGrain(n, pool_.threads());
}

std::vector<EpisodeResult>
SweepRunner::runEpisodes(const plant::Plant &proto, plant::Difficulty d,
                         int n, const HilConfig &cfg,
                         const plant::DisturbanceProfile &disturbance) const
{
    return map<EpisodeResult>(
        static_cast<size_t>(n < 0 ? 0 : n), [&](size_t i) {
            plant::Scenario sc =
                proto.makeScenario(d, static_cast<int>(i));
            sc.disturbance = disturbance;
            std::unique_ptr<plant::Plant> plant = proto.clone();
            return runEpisode(*plant, sc, cfg);
        });
}

} // namespace rtoc::hil
