#include "stats.hh"

#include <algorithm>
#include <deque>
#include <mutex>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "common/logging.hh"

namespace rtoc {

namespace {

/**
 * Process-wide stat-name interner (same structure as the kernel-name
 * interner in isa/program.cc): names are interned once at counter
 * definition, so one mutex is plenty; lookups by id go through a
 * std::deque so returned string references stay stable as the table
 * grows.
 */
struct StatInterner
{
    std::mutex mu;
    std::unordered_map<std::string, StatId> ids;
    std::deque<std::string> names;
};

StatInterner &
statInterner()
{
    static StatInterner in;
    return in;
}

} // namespace

StatId
internStat(std::string_view name)
{
    if (name.empty())
        rtoc_panic("internStat: empty stat name");
    StatInterner &in = statInterner();
    std::lock_guard<std::mutex> lk(in.mu);
    auto it = in.ids.find(std::string(name));
    if (it != in.ids.end())
        return it->second;
    StatId id = static_cast<StatId>(in.names.size());
    in.names.emplace_back(name);
    in.ids.emplace(in.names.back(), id);
    return id;
}

const std::string &
statName(StatId id)
{
    StatInterner &in = statInterner();
    std::lock_guard<std::mutex> lk(in.mu);
    if (id >= in.names.size())
        rtoc_panic("statName: unknown stat id %u", id);
    return in.names[id];
}

uint64_t
StatGroup::get(const std::string &name) const
{
    return get(internStat(name));
}

bool
StatGroup::has(const std::string &name) const
{
    return has(internStat(name));
}

void
StatGroup::reset()
{
    std::fill(vals_.begin(), vals_.end(), 0);
    view_dirty_ = true;
}

const std::map<std::string, uint64_t> &
StatGroup::counters() const
{
    if (view_dirty_) {
        view_.clear();
        for (StatId id = 0; id < touched_.size(); ++id)
            if (touched_[id])
                view_[statName(id)] = vals_[id];
        view_dirty_ = false;
    }
    return view_;
}

std::string
StatGroup::dump(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &kv : counters())
        os << prefix << kv.first << " = " << kv.second << "\n";
    return os.str();
}

namespace {

/** Linear-interpolated quantile of a sorted sample vector. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted.front();
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

DistSummary
Distribution::summarize() const
{
    DistSummary s;
    if (samples_.empty())
        return s;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    s.count = sorted.size();
    s.min = sorted.front();
    s.max = sorted.back();
    s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
             static_cast<double>(sorted.size());
    s.p25 = quantile(sorted, 0.25);
    s.median = quantile(sorted, 0.50);
    s.p75 = quantile(sorted, 0.75);
    return s;
}

} // namespace rtoc
