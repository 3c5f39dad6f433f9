/**
 * @file
 * DesignSpace: the enumerable-and-samplable design-point space the
 * figure benches used to hard-code as ad-hoc grids.
 *
 * A space is the cross product of four axes:
 *
 *  - a discrete *configuration* axis (timing-model family + named
 *    variant: scalar in-order cores, BOOM OoO cores, Saturn vector
 *    machines, Gemmini systolic designs), each entry carrying the
 *    closures needed to build its timing model, emit (or fetch) its
 *    cached uop stream, and price its silicon area;
 *  - a continuous *latency-scale* axis multiplying the family's
 *    latency knobs (load/FP latency, vector memory latency, DMA
 *    startup and fence penalties);
 *  - a continuous *width-scale* axis multiplying the family's
 *    datapath width (Saturn DLEN, Gemmini DMA bus bytes; a no-op for
 *    purely scalar families, whose points alias one replay cell);
 *  - a *frequency* axis, which never changes replayed cycles — many
 *    design points share one (model, stream) replay cell and differ
 *    only in the analytic solves/s = freq / cycles conversion;
 *  - a *numeric-format* axis (default {float32}): narrow formats
 *    re-emit the stream at their element width, so each width is a
 *    distinct cached program and replay cell (formats of one width
 *    share both) — the precision side of the Pareto frontier.
 *
 * The solver-iteration axis rides on Fidelity: a Low-fidelity point
 * replays a short (1-iteration) solve stream, the cheap rung
 * successive halving uses before promoting survivors to the Full
 * 5-iteration stream. Low and Full cells never share a cache key.
 *
 * materialize() turns a PointSpec into a runnable Candidate; cellKey()
 * names the replay cell a point maps to — the unit the evaluation
 * memo, the on-disk cycle cache, and every "cells evaluated" metric
 * count.
 */

#ifndef RTOC_DSE_DESIGN_SPACE_HH
#define RTOC_DSE_DESIGN_SPACE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "isa/program.hh"
#include "matlib/fixed.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc::dse {

/** Evaluation fidelity: the solver-iteration axis of the space. */
enum class Fidelity { Low, Full };

/** Coordinates of one design point (indices into the axes). */
struct PointSpec
{
    int config = 0; ///< index into DesignSpace::configs()
    int lat = 0;    ///< index into latScales()
    int width = 0;  ///< index into widthScales()
    int freq = 0;   ///< index into freqsHz()
    int fmt = 0;    ///< index into formats() (0 = the single-format
                    ///< default, so historical brace-inits still name
                    ///< the same point)
};

/** A materialized, runnable design point. */
struct Candidate
{
    std::string name;    ///< display name (scale-suffixed off nominal)
    std::string cellKey; ///< replay-cell identity (model | stream)
    std::string progKey; ///< stream identity alone (schedule lookups)
    std::shared_ptr<const isa::Program> prog; ///< null when model-only
    std::unique_ptr<cpu::TimingModel> model;
    uint64_t extraCycles = 0; ///< modelled overhead added post-replay
    double areaMm2 = 0.0;
    double freqHz = 0.0;
};

/** One entry of the configuration axis. */
struct ConfigEntry
{
    std::string name;

    /** Build the timing model at (latScale, widthScale). */
    std::function<std::unique_ptr<cpu::TimingModel>(double, double)>
        model;

    /** Emit (or fetch from the program cache) the stream to replay at
     *  a fidelity and numeric format (the format sets the emitted
     *  element width — 16-bit streams are distinct cached programs). */
    std::function<std::shared_ptr<const isa::Program>(
        Fidelity, matlib::NumericFormat)>
        emit;

    /** Stable cross-process identity of that stream. */
    std::function<std::string(Fidelity, matlib::NumericFormat)> progKey;

    /** Area at a width scale (1.0 = nominal). */
    std::function<double(double)> area;

    /** Modelled overhead added after replay (e.g. spad spill). */
    uint64_t extraCycles = 0;
};

/** Enumerable + samplable design space (see file comment). */
class DesignSpace
{
  public:
    DesignSpace() = default;
    explicit DesignSpace(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    DesignSpace &
    addConfig(ConfigEntry e)
    {
        configs_.push_back(std::move(e));
        return *this;
    }

    DesignSpace &setLatScales(std::vector<double> v);
    DesignSpace &setWidthScales(std::vector<double> v);
    DesignSpace &setFreqsHz(std::vector<double> v);
    /** Numeric-format axis (default {F32}: point ordering, keys and
     *  sizes stay exactly the historical single-format space). */
    DesignSpace &setFormats(std::vector<matlib::NumericFormat> v);

    const std::vector<ConfigEntry> &configs() const { return configs_; }
    const std::vector<double> &latScales() const { return lat_; }
    const std::vector<double> &widthScales() const { return width_; }
    const std::vector<double> &freqsHz() const { return freq_; }
    const std::vector<matlib::NumericFormat> &formats() const
    {
        return formats_;
    }

    /** Point count: |formats| x |configs| x |lat| x |width| x |freq|. */
    size_t size() const;

    /**
     * Decode a flat index (format outermost, then config-major with
     * frequency fastest) so single-valued axes preserve pure
     * configuration order — with the default single-format axis the
     * flat ordering is exactly the historical one.
     */
    PointSpec point(size_t flat) const;
    size_t flatIndex(const PointSpec &p) const;

    /**
     * Materialize @p p at @p f. With @p with_program false only the
     * model/area/key side is built (cheap: no emission) — enough to
     * resolve caches.
     */
    Candidate materialize(const PointSpec &p, Fidelity f,
                          bool with_program = true) const;

    /** Replay-cell identity of @p p (no emission performed). */
    std::string cellKey(const PointSpec &p, Fidelity f) const;

    double areaMm2(const PointSpec &p) const;
    double freqHz(const PointSpec &p) const;
    double latScale(const PointSpec &p) const { return lat_[p.lat]; }
    double widthScale(const PointSpec &p) const
    {
        return width_[p.width];
    }
    matlib::NumericFormat format(const PointSpec &p) const
    {
        return formats_[p.fmt];
    }

    /**
     * Distinct replay cells behind the whole space at @p f — the cost
     * an exhaustive grid pays (frequency collapses for free; aliased
     * width points of scalar families collapse too).
     */
    size_t countDistinctCells(Fidelity f) const;

  private:
    std::string name_;
    std::vector<ConfigEntry> configs_;
    std::vector<double> lat_{1.0};
    std::vector<double> width_{1.0};
    std::vector<double> freq_{1e9};
    std::vector<matlib::NumericFormat> formats_{
        matlib::NumericFormat::F32};
};

/**
 * Family knob-scaling rules shared by every concrete space. A scale
 * of 1.0 returns the base configuration bit-identically (names, cache
 * keys and streams stay those of the historical grids); off-nominal
 * scales suffix the name with the applied scales. Latency knobs are
 * scaled and rounded with a floor of 1 cycle; widths are scaled with
 * family-specific floors/caps (Saturn DLEN never exceeds VLEN).
 */
cpu::InOrderConfig scaledInOrder(cpu::InOrderConfig base,
                                 double lat_scale);
cpu::OooConfig scaledOoo(cpu::OooConfig base, double lat_scale);
vector::SaturnConfig scaledSaturn(vector::SaturnConfig base,
                                  double lat_scale, double width_scale);
systolic::GemminiConfig scaledGemmini(systolic::GemminiConfig base,
                                      double lat_scale,
                                      double width_scale);

/**
 * Width-dependent area closure: @p base_mm2 plus @p mm2_per_doubling
 * per doubling of the width scale (anchored on the Saturn D128 vs
 * D256 table pairs), floored at 30% of the base so extreme narrow
 * points stay positive.
 */
std::function<double(double)> areaWithWidth(double base_mm2,
                                            double mm2_per_doubling);

} // namespace rtoc::dse

#endif // RTOC_DSE_DESIGN_SPACE_HH
