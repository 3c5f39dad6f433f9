#include "dse/design_space.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hh"
#include "isa/sched_search.hh"

namespace rtoc::dse {

namespace {

/** Latency knobs scale multiplicatively with a 1-cycle floor. */
int
scaleLat(int base, double s)
{
    return std::max<long long>(1, std::llround(base * s));
}

/** Display suffix for off-nominal points ("" at nominal). */
std::string
scaleSuffix(double lat, double width)
{
    std::string s;
    if (lat != 1.0)
        s += csprintf("@l%.2f", lat);
    if (width != 1.0)
        s += csprintf("@w%.2f", width);
    return s;
}

} // namespace

cpu::InOrderConfig
scaledInOrder(cpu::InOrderConfig base, double lat_scale)
{
    if (lat_scale == 1.0)
        return base;
    base.loadLatency = scaleLat(base.loadLatency, lat_scale);
    base.fpLatency = scaleLat(base.fpLatency, lat_scale);
    return base;
}

cpu::OooConfig
scaledOoo(cpu::OooConfig base, double lat_scale)
{
    if (lat_scale == 1.0)
        return base;
    base.loadLatency = scaleLat(base.loadLatency, lat_scale);
    base.fpLatency = scaleLat(base.fpLatency, lat_scale);
    return base;
}

vector::SaturnConfig
scaledSaturn(vector::SaturnConfig base, double lat_scale,
             double width_scale)
{
    if (lat_scale != 1.0) {
        base.memLat = scaleLat(base.memLat, lat_scale);
        base.pipeLat = scaleLat(base.pipeLat, lat_scale);
        base.frontend = scaledInOrder(base.frontend, lat_scale);
    }
    if (width_scale != 1.0) {
        // DLEN stays a positive number of bits and never exceeds VLEN
        // (a datapath wider than the register is meaningless).
        int dlen = static_cast<int>(std::llround(base.dlen * width_scale));
        base.dlen = std::clamp(dlen, 32, base.vlen);
    }
    return base;
}

systolic::GemminiConfig
scaledGemmini(systolic::GemminiConfig base, double lat_scale,
              double width_scale)
{
    if (lat_scale != 1.0) {
        base.dmaFixed = scaleLat(base.dmaFixed, lat_scale);
        base.fenceMemPenalty = scaleLat(base.fenceMemPenalty, lat_scale);
        base.frontend = scaledInOrder(base.frontend, lat_scale);
    }
    if (width_scale != 1.0) {
        int bytes = static_cast<int>(
            std::llround(base.busBytes * width_scale));
        base.busBytes = std::max(4, bytes);
    }
    return base;
}

std::function<double(double)>
areaWithWidth(double base_mm2, double mm2_per_doubling)
{
    return [base_mm2, mm2_per_doubling](double width_scale) {
        double a = base_mm2;
        if (width_scale != 1.0)
            a += mm2_per_doubling * std::log2(width_scale);
        return std::max(0.3 * base_mm2, a);
    };
}

DesignSpace &
DesignSpace::setLatScales(std::vector<double> v)
{
    if (v.empty())
        rtoc_fatal("DesignSpace '%s': empty latency axis", name_.c_str());
    lat_ = std::move(v);
    return *this;
}

DesignSpace &
DesignSpace::setWidthScales(std::vector<double> v)
{
    if (v.empty())
        rtoc_fatal("DesignSpace '%s': empty width axis", name_.c_str());
    width_ = std::move(v);
    return *this;
}

DesignSpace &
DesignSpace::setFreqsHz(std::vector<double> v)
{
    if (v.empty())
        rtoc_fatal("DesignSpace '%s': empty frequency axis",
                   name_.c_str());
    freq_ = std::move(v);
    return *this;
}

DesignSpace &
DesignSpace::setFormats(std::vector<matlib::NumericFormat> v)
{
    if (v.empty())
        rtoc_fatal("DesignSpace '%s': empty format axis", name_.c_str());
    formats_ = std::move(v);
    return *this;
}

size_t
DesignSpace::size() const
{
    return formats_.size() * configs_.size() * lat_.size() *
           width_.size() * freq_.size();
}

PointSpec
DesignSpace::point(size_t flat) const
{
    rtoc_assert(flat < size());
    PointSpec p;
    p.freq = static_cast<int>(flat % freq_.size());
    flat /= freq_.size();
    p.width = static_cast<int>(flat % width_.size());
    flat /= width_.size();
    p.lat = static_cast<int>(flat % lat_.size());
    flat /= lat_.size();
    // Format outermost: the single-format default decodes flat
    // indices exactly as the historical four-axis space.
    p.config = static_cast<int>(flat % configs_.size());
    p.fmt = static_cast<int>(flat / configs_.size());
    return p;
}

size_t
DesignSpace::flatIndex(const PointSpec &p) const
{
    return (((static_cast<size_t>(p.fmt) * configs_.size() + p.config) *
                 lat_.size() +
             p.lat) *
                width_.size() +
            p.width) *
               freq_.size() +
           p.freq;
}

Candidate
DesignSpace::materialize(const PointSpec &p, Fidelity f,
                         bool with_program) const
{
    rtoc_assert(p.config >= 0 &&
                p.config < static_cast<int>(configs_.size()));
    const ConfigEntry &e = configs_[p.config];
    const double lat = lat_[p.lat];
    const double width = width_[p.width];
    rtoc_assert(p.fmt >= 0 && p.fmt < static_cast<int>(formats_.size()));
    const matlib::NumericFormat fmt = formats_[p.fmt];

    Candidate c;
    c.model = e.model(lat, width);
    c.name = e.name + scaleSuffix(lat, width);
    if (fmt != matlib::NumericFormat::F32)
        c.name += std::string("@") + matlib::formatName(fmt);
    c.progKey = e.progKey(f, fmt);
    // schedKeySuffix() keeps sched-on cell costs from aliasing the
    // baseline cells (empty — keys untouched — when RTOC_SCHED is
    // off); the element width is carried inside progKey via the
    // emitting backend's cacheKey.
    c.cellKey =
        c.model->cacheKey() + "|" + c.progKey + isa::schedKeySuffix();
    c.extraCycles = e.extraCycles;
    c.areaMm2 = e.area ? e.area(width) : 0.0;
    c.freqHz = freq_[p.freq];
    if (with_program)
        c.prog = e.emit(f, fmt);
    return c;
}

std::string
DesignSpace::cellKey(const PointSpec &p, Fidelity f) const
{
    return materialize(p, f, false).cellKey;
}

double
DesignSpace::areaMm2(const PointSpec &p) const
{
    const ConfigEntry &e = configs_[p.config];
    return e.area ? e.area(width_[p.width]) : 0.0;
}

double
DesignSpace::freqHz(const PointSpec &p) const
{
    return freq_[p.freq];
}

size_t
DesignSpace::countDistinctCells(Fidelity f) const
{
    // Frequency never changes the replayed cell; scaled knobs that
    // round to the same values alias too (that is the point of the
    // cell abstraction), so count the actual key set.
    std::set<std::string> keys;
    PointSpec p;
    for (p.fmt = 0; p.fmt < static_cast<int>(formats_.size()); ++p.fmt) {
        for (p.config = 0; p.config < static_cast<int>(configs_.size());
             ++p.config) {
            for (p.lat = 0; p.lat < static_cast<int>(lat_.size());
                 ++p.lat) {
                for (p.width = 0;
                     p.width < static_cast<int>(width_.size());
                     ++p.width) {
                    keys.insert(cellKey(p, f));
                }
            }
        }
    }
    return keys.size();
}

} // namespace rtoc::dse
