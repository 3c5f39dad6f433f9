/**
 * @file
 * Tests for the Gemmini model: fence drain and store->load ordering
 * penalty (§4.2.4), command-queue back-pressure, column-vector DMA
 * inefficiency, pooling mvout, and execution ordering. Gemmini cycles
 * on the quadrotor solve streams are pinned, and configs the engine
 * cannot run are rejected.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hh"
#include "isa/program.hh"
#include "matlib/gemmini_backend.hh"
#include "systolic/gemmini.hh"

namespace rtoc::systolic {
namespace {

using isa::kNoReg;
using isa::Program;
using isa::Uop;
using isa::UopKind;

TEST(Gemmini, FenceAfterMvoutPaysMemoryOrderingPenalty)
{
    GemminiModel m(GemminiConfig::os4x4());

    Program with_store;
    with_store.push(Uop::rocc(UopKind::RoccMvout, 16, 1, 64));
    with_store.push(Uop::rocc(UopKind::RoccFence, 0, 0));

    Program without_store;
    without_store.push(Uop::rocc(UopKind::RoccMvin, 16, 1, 64));
    without_store.push(Uop::rocc(UopKind::RoccFence, 0, 0));

    auto rs = m.run(with_store);
    auto rn = m.run(without_store);
    // The paper measures up to ~600 cycles of stall on such fences.
    EXPECT_GT(rs.cycles, rn.cycles + 500);
}

TEST(Gemmini, FencePenaltyClearedAfterFirstFence)
{
    GemminiModel m(GemminiConfig::os4x4());
    Program p;
    p.push(Uop::rocc(UopKind::RoccMvout, 16, 1, 64));
    p.push(Uop::rocc(UopKind::RoccFence, 0, 0));
    p.push(Uop::rocc(UopKind::RoccFence, 0, 0)); // no pending store
    auto r = m.run(p);
    EXPECT_EQ(r.stats.get("rocc_fences"), 2u);
    // Second fence must be cheap: well under two penalties.
    EXPECT_LT(r.cycles,
              2 * static_cast<uint64_t>(
                      m.config().fenceMemPenalty) + 200);
}

TEST(Gemmini, ColumnVectorMovesOneElementPerCycle)
{
    GemminiModel m(GemminiConfig::os4x4());
    Program column, block;
    // Same byte count: 64 floats as a column vs a 8x8 block.
    column.push(Uop::rocc(UopKind::RoccMvin, 64, 1, 256));
    block.push(Uop::rocc(UopKind::RoccMvin, 8, 8, 256));
    EXPECT_GT(m.run(column).cycles, m.run(block).cycles);
}

TEST(Gemmini, ComputeScalesWithTileRows)
{
    GemminiModel m(GemminiConfig::os4x4());
    Program small, large;
    small.push(Uop::rocc(UopKind::RoccCompute, 4, 4));
    large.push(Uop::rocc(UopKind::RoccCompute, 64, 4));
    EXPECT_GT(m.run(large).cycles, m.run(small).cycles);
}

TEST(Gemmini, QueueBackPressure)
{
    GemminiConfig cfg = GemminiConfig::os4x4();
    cfg.robDepth = 2;
    GemminiModel shallow(cfg);
    GemminiModel deep(GemminiConfig::os4x4());
    Program p;
    for (int i = 0; i < 64; ++i)
        p.push(Uop::rocc(UopKind::RoccCompute, 32, 4));
    auto rs = shallow.run(p);
    auto rd = deep.run(p);
    EXPECT_GE(rs.stats.get("stall_rob_full"),
              rd.stats.get("stall_rob_full"));
}

TEST(Gemmini, PooledMvoutCostsComparatorPass)
{
    GemminiModel m(GemminiConfig::os4x4());
    Program plain, pooled;
    plain.push(Uop::rocc(UopKind::RoccMvout, 32, 1, 128));
    Uop u = Uop::rocc(UopKind::RoccMvout, 32, 1, 128);
    u.taken = 1; // pooling enabled
    pooled.push(u);
    EXPECT_GT(m.run(pooled).cycles, m.run(plain).cycles);
}

TEST(Gemmini, ScalarWorkOverlapsAccelerator)
{
    // Scalar uops issued after a long compute, with no fence, overlap
    // with accelerator execution.
    GemminiModel m(GemminiConfig::os4x4());
    Program overlap;
    overlap.push(Uop::rocc(UopKind::RoccCompute, 200, 4));
    for (int i = 0; i < 100; ++i)
        overlap.push(Uop::scalar(UopKind::IntAlu, overlap.newReg()));
    Program serial;
    serial.push(Uop::rocc(UopKind::RoccCompute, 200, 4));
    serial.push(Uop::rocc(UopKind::RoccFence, 0, 0));
    for (int i = 0; i < 100; ++i)
        serial.push(Uop::scalar(UopKind::IntAlu, serial.newReg()));
    EXPECT_LT(m.run(overlap).cycles, m.run(serial).cycles);
}

TEST(Gemmini, CommandsExecuteInOrder)
{
    GemminiModel m(GemminiConfig::os4x4());
    Program p;
    p.push(Uop::rocc(UopKind::RoccMvin, 4, 4, 64));
    p.push(Uop::rocc(UopKind::RoccPreload, 4, 4));
    p.push(Uop::rocc(UopKind::RoccCompute, 4, 4));
    auto r = m.run(p);
    EXPECT_EQ(r.stats.get("rocc_cmds"), 3u);
    // Total at least the sum of execution latencies.
    uint64_t min_exec = static_cast<uint64_t>(m.config().dmaFixed) + 4 +
                        4 + (4 + 8);
    EXPECT_GE(r.cycles, min_exec);
}

TEST(Gemmini, WsConfigCarriesAccumulator)
{
    GemminiConfig ws = GemminiConfig::ws4x4();
    EXPECT_EQ(ws.dataflow, Dataflow::WeightStationary);
    EXPECT_GT(ws.accKb, 0);
    GemminiConfig os = GemminiConfig::os4x4();
    EXPECT_EQ(os.dataflow, Dataflow::OutputStationary);
    EXPECT_EQ(os.accKb, 0);
}

TEST(Gemmini, HardwareGemvSpeedsColumnVectors)
{
    // §4.2.4 future-work extension: packing vectors across scratchpad
    // rows restores full DMA bandwidth for column operands.
    GemminiModel base(GemminiConfig::os4x4());
    GemminiModel hw(GemminiConfig::os4x4HwGemv());
    Program p;
    for (int i = 0; i < 16; ++i)
        p.push(Uop::rocc(UopKind::RoccMvin, 64, 1, 256));
    EXPECT_LT(hw.run(p).cycles, base.run(p).cycles);
    // Block transfers are unaffected.
    Program blocks;
    for (int i = 0; i < 16; ++i)
        blocks.push(Uop::rocc(UopKind::RoccMvin, 8, 8, 256));
    EXPECT_EQ(hw.run(blocks).cycles, base.run(blocks).cycles);
}

TEST(Gemmini, Deterministic)
{
    GemminiModel m(GemminiConfig::os4x4());
    Program p;
    for (int i = 0; i < 20; ++i) {
        p.push(Uop::rocc(UopKind::RoccPreload, 4, 4));
        p.push(Uop::rocc(UopKind::RoccCompute, 4, 4));
    }
    EXPECT_EQ(m.run(p).cycles, m.run(p).cycles);
}

TEST(Gemmini, RejectsConfigsTheEngineCannotRun)
{
    // busBytes 0 divided by zero; robDepth 0 drained an empty queue.
    GemminiConfig c = GemminiConfig::os4x4();
    c.busBytes = 0;
    EXPECT_DEATH(GemminiModel{c}, "busBytes and robDepth");
    c = GemminiConfig::os4x4();
    c.robDepth = 0;
    EXPECT_DEATH(GemminiModel{c}, "busBytes and robDepth");
    c = GemminiConfig::os4x4();
    c.frontend.memPorts = 0;
    EXPECT_DEATH(GemminiModel{c}, "widths must be in");
}

/** FNV-1a over the little-endian bytes of @p v. */
uint64_t
digest(const std::vector<uint64_t> &v)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t x : v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(Gemmini, GoldenCyclesOnQuadSolveStreams)
{
    // Cycles, region count and region-cycle digest of the 5-iteration
    // quadrotor solve on the OS, WS and hardware-GEMV designs, pinned
    // from the separate single-config loop the engine's one-lane pass
    // replaced. The AoS reference must agree. The dataflow does not
    // change command timing, so the OS and WS columns agree.
    using matlib::NumericFormat;
    using tinympc::MappingStyle;
    struct Golden
    {
        NumericFormat fmt;
        MappingStyle style;
        uint64_t cycles[3]; ///< os4x4, ws4x4, os4x4HwGemv
        size_t regions;
        uint64_t regionDigest[3];
    };
    const Golden golden[] = {
        {NumericFormat::F32, MappingStyle::Library,
         {47284, 47284, 46903}, 224,
         {0x96ab77b782e2e09cull, 0x96ab77b782e2e09cull,
          0x3876963e95111811ull}},
        {NumericFormat::F32, MappingStyle::LibraryPerStep,
         {55438, 55438, 54784}, 529,
         {0x34682b9eb0f99ccfull, 0x34682b9eb0f99ccfull,
          0x02ba17726d479bb5ull}},
        {NumericFormat::I16, MappingStyle::Library,
         {28030, 28030, 27854}, 224,
         {0xe89857b72955d085ull, 0xe89857b72955d085ull,
          0x309a467f9d8f8ec5ull}},
        {NumericFormat::I16, MappingStyle::LibraryPerStep,
         {42882, 42882, 42590}, 529,
         {0x808c36e981276561ull, 0x808c36e981276561ull,
          0xc76e965547e483a5ull}},
    };
    const GemminiConfig cfgs[3] = {GemminiConfig::os4x4(),
                                   GemminiConfig::ws4x4(),
                                   GemminiConfig::os4x4HwGemv()};
    for (const Golden &g : golden) {
        matlib::GemminiBackend b(matlib::GemminiMapping::fullyOptimized());
        b.setFormat(g.fmt);
        auto prog = bench::emitQuadSolveCached(b, g.style);
        for (int c = 0; c < 3; ++c) {
            const std::string label =
                std::string(matlib::formatName(g.fmt)) + " style " +
                std::to_string(static_cast<int>(g.style)) + " " +
                cfgs[c].name;
            const GemminiModel m(cfgs[c]);
            for (const cpu::TimingResult &r :
                 {m.run(*prog), m.runAos(*prog)}) {
                EXPECT_EQ(r.cycles, g.cycles[c]) << label;
                EXPECT_EQ(r.regionCycles.size(), g.regions) << label;
                EXPECT_EQ(digest(r.regionCycles), g.regionDigest[c])
                    << label;
            }
        }
    }
}

} // namespace
} // namespace rtoc::systolic
