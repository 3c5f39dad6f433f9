#include "anytime.hh"

#include <algorithm>
#include <cmath>

namespace rtoc::sched {

namespace {

/** Iterations fitting @p budget cycles after @p fixed overhead. */
int
itersThatFit(double budget, double fixed, double per_iter)
{
    if (per_iter <= 0.0)
        return budget >= fixed ? 1 << 20 : -1;
    return static_cast<int>(std::floor((budget - fixed) / per_iter));
}

} // namespace

AnytimeDecision
AnytimeGovernor::decide(double slack_cycles, double base_cycles,
                        double per_iter_cycles, int nominal_iters,
                        bool relin_due, double refresh_cycles)
{
    if (!cfg_.enabled)
        return {DegradeLevel::Full, nominal_iters, false};

    const double slack = std::max(0.0, slack_cycles) * cfg_.slackSafety;
    const double refresh = relin_due ? refresh_cycles : 0.0;
    const int fit_with_relin =
        itersThatFit(slack, base_cycles + refresh, per_iter_cycles);
    const int fit_no_relin =
        itersThatFit(slack, base_cycles, per_iter_cycles);

    // The level this tick's slack calls for, ignoring history.
    DegradeLevel needed;
    if (fit_with_relin >= nominal_iters)
        needed = DegradeLevel::Full;
    else if (fit_with_relin >= cfg_.minIters)
        needed = DegradeLevel::ReducedIters;
    else if (relin_due && fit_no_relin >= cfg_.minIters)
        needed = DegradeLevel::SkipRelin;
    else
        needed = DegradeLevel::Hold;

    // Hysteresis: degrade immediately; recover one level only after
    // recoveryTicks consecutive ticks that wanted a better level.
    if (needed > level_) {
        level_ = needed;
        healthy_ = 0;
        ++transitions_;
    } else if (needed < level_) {
        if (++healthy_ >= std::max(1, cfg_.recoveryTicks)) {
            level_ = static_cast<DegradeLevel>(
                static_cast<int>(level_) - 1);
            healthy_ = 0;
            ++transitions_;
        }
    } else {
        healthy_ = 0;
    }

    AnytimeDecision d;
    d.level = level_;
    switch (level_) {
    case DegradeLevel::Full:
        d.iterBudget = nominal_iters;
        break;
    case DegradeLevel::ReducedIters:
        d.iterBudget = std::clamp(fit_with_relin, cfg_.minIters,
                                  nominal_iters);
        break;
    case DegradeLevel::SkipRelin:
        d.iterBudget =
            std::clamp(fit_no_relin, cfg_.minIters, nominal_iters);
        d.skipRefresh = true;
        break;
    case DegradeLevel::Hold:
        d.iterBudget = 0;
        d.skipRefresh = true;
        break;
    }
    return d;
}

} // namespace rtoc::sched
