/**
 * @file
 * Tests for the design-space exploration layer: DesignSpace
 * indexing/materialization, surrogate fit quality, and Explorer
 * behaviour — grid-vs-search frontier equality, successive-halving
 * pruning, fidelity key separation, and bit-identical results under a
 * parallel pool.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "cpu/inorder.hh"
#include "dse/explorer.hh"
#include "dse/surrogate.hh"
#include "isa/program.hh"

namespace rtoc::dse {
namespace {

// ---------------------------------------------------------------- //
// Synthetic design space: in-order cores running dependent-FMA
// chains. Cycles ~ chain length x fpLatency, so latency scaling has
// an exactly-known, monotone response and the grid frontier is
// analytic: per config, the minimum-latency point.

std::shared_ptr<const isa::Program>
chainProgram(int n)
{
    auto p = std::make_shared<isa::Program>();
    uint32_t acc = p->newReg();
    p->push(isa::Uop::scalar(isa::UopKind::FpMove, acc));
    for (int i = 0; i < n; ++i) {
        uint32_t next = p->newReg();
        p->push(isa::Uop::scalar(isa::UopKind::FpFma, next, acc));
        acc = next;
    }
    return p;
}

/** Chain length behind each fidelity rung. */
int
chainLen(Fidelity f)
{
    return f == Fidelity::Low ? 16 : 64;
}

void
addChainConfig(DesignSpace &s, const char *name, int fp_latency,
               double area_mm2)
{
    cpu::InOrderConfig cfg = cpu::InOrderConfig::rocket();
    cfg.name = name;
    cfg.fpLatency = fp_latency;
    s.addConfig(
        {name,
         [cfg](double lat, double) -> std::unique_ptr<cpu::TimingModel> {
             return std::make_unique<cpu::InOrderCore>(
                 scaledInOrder(cfg, lat));
         },
         [](Fidelity f, matlib::NumericFormat) {
             return chainProgram(chainLen(f));
         },
         [](Fidelity f, matlib::NumericFormat) {
             return csprintf("chain:%d", chainLen(f));
         },
         [area_mm2](double) { return area_mm2; }, 0});
}

/**
 * Three configurations: "small" (cheap, slow), "big" (pricey, fast),
 * and "dud" (pricier AND slower than big — dominated everywhere, so
 * successive halving must prune it).
 */
DesignSpace
syntheticSpace()
{
    DesignSpace s("synthetic");
    addChainConfig(s, "small", 6, 1.0);
    addChainConfig(s, "big", 2, 2.0);
    addChainConfig(s, "dud", 8, 3.0);
    s.setLatScales({0.5, 1.0, 1.5});
    return s;
}

Explorer::Options
uncached()
{
    Explorer::Options opt;
    opt.useMemo = false;
    opt.useDisk = false;
    return opt;
}

std::multiset<std::string>
frontierKeys(const std::vector<EvalOutcome> &frontier)
{
    std::multiset<std::string> keys;
    for (const EvalOutcome &o : frontier)
        keys.insert(o.cellKey);
    return keys;
}

// ---------------------------------------------------------------- //
// DesignSpace

TEST(DesignSpace, FlatIndexRoundTrip)
{
    DesignSpace s = syntheticSpace();
    s.setWidthScales({0.5, 1.0});
    s.setFreqsHz({5e8, 1e9});
    EXPECT_EQ(s.size(), 3u * 3u * 2u * 2u);
    for (size_t flat = 0; flat < s.size(); ++flat)
        EXPECT_EQ(s.flatIndex(s.point(flat)), flat);
}

TEST(DesignSpace, FidelitySeparatesCellKeys)
{
    DesignSpace s = syntheticSpace();
    PointSpec p{0, 1, 0, 0};
    EXPECT_NE(s.cellKey(p, Fidelity::Low), s.cellKey(p, Fidelity::Full));
    EXPECT_EQ(s.cellKey(p, Fidelity::Full),
              s.cellKey(p, Fidelity::Full));
}

TEST(DesignSpace, NominalPointKeepsPlainName)
{
    DesignSpace s = syntheticSpace();
    Candidate c = s.materialize({0, 1, 0, 0}, Fidelity::Full, false);
    EXPECT_EQ(c.name, "small"); // lat 1.0 adds no scale suffix
    Candidate scaled = s.materialize({0, 0, 0, 0}, Fidelity::Full,
                                     false);
    EXPECT_EQ(scaled.name, "small@l0.50");
}

TEST(DesignSpace, DistinctCellsCollapsesAliases)
{
    DesignSpace s = syntheticSpace();
    // Width axis does not reach the in-order model or the stream, so
    // extra width values must not add distinct cells.
    size_t base = s.countDistinctCells(Fidelity::Full);
    s.setWidthScales({0.5, 1.0, 2.0});
    EXPECT_EQ(s.countDistinctCells(Fidelity::Full), base);
}

// ---------------------------------------------------------------- //
// Surrogate

TEST(Surrogate, ExactOnLogQuadraticResponse)
{
    Surrogate m;
    for (double l : {0.5, 0.75, 1.0, 1.25, 1.5})
        for (double w : {0.5, 1.0, 2.0}) {
            double cycles =
                std::exp(6.0 + 0.4 * l + 0.1 * l * l + 0.3 * w);
            m.addSample(l, w, cycles);
        }
    ASSERT_TRUE(m.fit());
    // Exact up to the trace-scaled ridge regularizer (~1e-9 relative
    // on the normal equations, a few 1e-6 on the prediction).
    EXPECT_LT(m.maxRelError(), 1e-4);
    double pred = m.predictCycles(0.9, 1.5);
    double truth = std::exp(6.0 + 0.4 * 0.9 + 0.1 * 0.81 + 0.3 * 1.5);
    EXPECT_NEAR(pred / truth, 1.0, 1e-4);
}

TEST(Surrogate, DegenerateAxisFitsConstantWidth)
{
    Surrogate m;
    for (double l : {0.5, 1.0, 1.5})
        m.addSample(l, 1.0, 1000.0 * l);
    ASSERT_TRUE(m.fit());
    // Only lat terms active; interpolates the three samples well.
    EXPECT_NEAR(m.predictCycles(1.0, 1.0), 1000.0,
                1000.0 * m.maxRelError() + 30.0);
}

TEST(Surrogate, UnfitUntilSamples)
{
    Surrogate m;
    EXPECT_FALSE(m.fitted());
    EXPECT_FALSE(m.fit());
    m.addSample(1.0, 1.0, 100.0);
    EXPECT_TRUE(m.fit());
    EXPECT_TRUE(m.fitted());
}

// ---------------------------------------------------------------- //
// Explorer

TEST(Explorer, SubmitMatchesDirectReplay)
{
    DesignSpace s = syntheticSpace();
    Explorer ex(s, uncached());
    std::vector<EvalOutcome> out =
        ex.submit({{0, 1, 0, 0}, {1, 1, 0, 0}});
    ASSERT_EQ(out.size(), 2u);

    cpu::InOrderConfig small = cpu::InOrderConfig::rocket();
    small.name = "small";
    small.fpLatency = 6;
    cpu::InOrderCore core(small);
    EXPECT_EQ(out[0].cycles,
              core.run(*chainProgram(chainLen(Fidelity::Full))).cycles);
    EXPECT_LT(out[1].cycles, out[0].cycles); // big is faster
}

TEST(Explorer, SubmitDeduplicatesAliasedQueries)
{
    DesignSpace s = syntheticSpace();
    s.setFreqsHz({5e8, 1e9});
    Explorer ex(s, uncached());
    // Same cell at two frequencies: one replay, two analytic results.
    std::vector<EvalOutcome> out =
        ex.submit({{0, 1, 0, 0}, {0, 1, 0, 1}});
    EXPECT_EQ(ex.stats().replays, 1u);
    EXPECT_EQ(ex.stats().cellsRequested, 1u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].cycles, out[1].cycles);
    EXPECT_DOUBLE_EQ(out[1].solvesPerS, 2.0 * out[0].solvesPerS);
}

TEST(Explorer, ExploreRecoversGridFrontier)
{
    DesignSpace s = syntheticSpace();
    Explorer grid(s, uncached());
    Explorer::Result g = grid.exploreGrid();
    Explorer search(s, uncached());
    Explorer::Result r = search.explore();
    EXPECT_EQ(frontierKeys(g.frontier), frontierKeys(r.frontier));
    // Analytic frontier: min-lat "small" and "big"; "dud" dominated.
    ASSERT_EQ(g.frontier.size(), 2u);
    EXPECT_EQ(g.frontier[0].config, "small@l0.50");
    EXPECT_EQ(g.frontier[1].config, "big@l0.50");
}

TEST(Explorer, SuccessiveHalvingPrunesDominatedConfig)
{
    DesignSpace s = syntheticSpace();
    Explorer search(s, uncached());
    Explorer::Result r = search.explore();
    EXPECT_EQ(r.stats.cellsLowFi, 3u); // one cheap rung per config
    for (const EvalOutcome &o : r.evaluated) {
        EXPECT_EQ(o.fidelity, Fidelity::Full);
        EXPECT_TRUE(o.config.rfind("dud", 0) != 0)
            << "dominated config " << o.config
            << " was promoted past the low-fidelity rung";
    }
    EXPECT_LT(r.stats.cellsRequested, r.gridCells + 3);
}

TEST(Explorer, ParallelPoolIsBitIdenticalToSerial)
{
    DesignSpace s = syntheticSpace();
    s.setLatScales({0.5, 0.75, 1.0, 1.25, 1.5});

    ThreadPool serial_pool(1), wide_pool(4);
    Explorer::Options serial_opt = uncached();
    serial_opt.pool = &serial_pool;
    Explorer::Options wide_opt = uncached();
    wide_opt.pool = &wide_pool;

    Explorer a(s, serial_opt), b(s, wide_opt);
    Explorer::Result ra = a.explore();
    Explorer::Result rb = b.explore();

    ASSERT_EQ(ra.evaluated.size(), rb.evaluated.size());
    for (size_t i = 0; i < ra.evaluated.size(); ++i) {
        EXPECT_EQ(ra.evaluated[i].cellKey, rb.evaluated[i].cellKey);
        EXPECT_EQ(ra.evaluated[i].cycles, rb.evaluated[i].cycles);
    }
    EXPECT_EQ(frontierKeys(ra.frontier), frontierKeys(rb.frontier));
    EXPECT_EQ(ra.stats.cellsRequested, rb.stats.cellsRequested);
    EXPECT_EQ(ra.stats.replays, rb.stats.replays);
}

TEST(Explorer, FrontierHelpersAreConsistent)
{
    DesignSpace s = syntheticSpace();
    Explorer grid(s, uncached());
    Explorer::Result g = grid.exploreGrid();
    ASSERT_EQ(g.frontier.size(), 2u);
    const EvalOutcome &cheap = g.frontier[0];
    const EvalOutcome &fast = g.frontier[1];
    EXPECT_DOUBLE_EQ(frontierPerfAt(g.frontier, cheap.areaMm2),
                     cheap.solvesPerS);
    EXPECT_DOUBLE_EQ(frontierPerfAt(g.frontier, 100.0),
                     fast.solvesPerS);
    EXPECT_DOUBLE_EQ(frontierPerfAt(g.frontier, 0.1), 0.0);
    // Hypervolume: staircase area under the two steps.
    double expect = (fast.areaMm2 - cheap.areaMm2) * cheap.solvesPerS +
                    (4.0 - fast.areaMm2) * fast.solvesPerS;
    EXPECT_NEAR(hypervolume(g.frontier, 4.0), expect, 1e-9);
}

} // namespace
} // namespace rtoc::dse
