/**
 * @file
 * Tests for the scalar core timing models: in-order scoreboard
 * behaviour (dependency stalls, structural hazards, branch bubbles,
 * dual issue) and OoO greedy-dataflow behaviour (ILP extraction,
 * front-end and ROB limits), plus cross-model ordering properties.
 * The OoO issue-slot search (SlotMap) is checked against a one-cycle
 * probe, in-order and OoO cycles on the quadrotor solve streams are
 * pinned, and configs the in-order engine cannot run are rejected.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "cpu/slot_map.hh"
#include "isa/program.hh"
#include "matlib/scalar_backend.hh"

namespace rtoc::cpu {
namespace {

using isa::kNoReg;
using isa::Program;
using isa::Uop;
using isa::UopKind;

/** Chain of n dependent FMAs. */
Program
dependentChain(int n)
{
    Program p;
    uint32_t acc = p.newReg();
    p.push(Uop::scalar(UopKind::FpMove, acc));
    for (int i = 0; i < n; ++i) {
        uint32_t next = p.newReg();
        p.push(Uop::scalar(UopKind::FpFma, next, acc));
        acc = next;
    }
    return p;
}

/** n independent FMAs. */
Program
independentOps(int n)
{
    Program p;
    for (int i = 0; i < n; ++i)
        p.push(Uop::scalar(UopKind::FpFma, p.newReg()));
    return p;
}

TEST(InOrder, DependentChainBoundByLatency)
{
    InOrderCore rocket(InOrderConfig::rocket());
    int n = 50;
    auto r = rocket.run(dependentChain(n));
    // Each FMA waits fpLatency for its predecessor.
    EXPECT_GE(r.cycles, static_cast<uint64_t>(n) * 4);
    EXPECT_LE(r.cycles, static_cast<uint64_t>(n) * 4 + 10);
}

TEST(InOrder, IndependentOpsBoundByIssueWidth)
{
    InOrderCore rocket(InOrderConfig::rocket());
    int n = 64;
    auto r = rocket.run(independentOps(n));
    // Single issue: one per cycle plus drain.
    EXPECT_GE(r.cycles, static_cast<uint64_t>(n));
    EXPECT_LE(r.cycles, static_cast<uint64_t>(n) + 8);
}

TEST(InOrder, ShuttleDualIssuesMixedIntFp)
{
    // Shuttle has one FPU, so pure-FP streams cannot dual-issue, but
    // int+fp pairs can.
    Program p;
    for (int i = 0; i < 40; ++i) {
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
        p.push(Uop::scalar(UopKind::FpFma, p.newReg()));
    }
    InOrderCore rocket(InOrderConfig::rocket());
    InOrderCore shuttle(InOrderConfig::shuttle());
    auto rr = rocket.run(p);
    auto rs = shuttle.run(p);
    EXPECT_LT(rs.cycles, rr.cycles);
    // Close to 2x on this mix.
    EXPECT_LT(rs.cycles, rr.cycles * 3 / 4);
}

TEST(InOrder, LoadUseStall)
{
    Program p;
    uint32_t v = p.newReg();
    p.push(Uop::mem(UopKind::Load, v, kNoReg));
    uint32_t w = p.newReg();
    p.push(Uop::scalar(UopKind::FpAdd, w, v));
    InOrderCore rocket(InOrderConfig::rocket());
    auto r = rocket.run(p);
    // Load at cycle 0 ready at 3; add issues at 3, completes at 7.
    EXPECT_EQ(r.cycles, 7u);
    EXPECT_GT(r.stats.get("stall_data"), 0u);
}

TEST(InOrder, TakenBranchBubble)
{
    Program no_branch = independentOps(10);
    Program with_branches;
    for (int i = 0; i < 10; ++i) {
        with_branches.push(
            Uop::scalar(UopKind::FpFma, with_branches.newReg()));
        Uop br = Uop::scalar(UopKind::Branch, kNoReg);
        br.taken = 1;
        with_branches.push(br);
    }
    InOrderCore rocket(InOrderConfig::rocket());
    auto a = rocket.run(no_branch);
    auto b = rocket.run(with_branches);
    // Each taken branch costs issue slot + redirect bubble.
    EXPECT_GT(b.cycles, a.cycles + 10 * 2);
}

TEST(InOrder, MemPortStructuralHazard)
{
    Program p;
    for (int i = 0; i < 32; ++i)
        p.push(Uop::mem(UopKind::Store, kNoReg, kNoReg));
    InOrderCore shuttle(InOrderConfig::shuttle());
    auto r = shuttle.run(p);
    // One mem port: despite dual issue, one store per cycle.
    EXPECT_GE(r.cycles, 32u);
}

TEST(InOrder, ScalarCoreRejectsVectorUops)
{
    Program p;
    p.push(Uop::vec(UopKind::VLoad, p.newVReg(), kNoReg, kNoReg, 8));
    InOrderCore rocket(InOrderConfig::rocket());
    EXPECT_DEATH({ rocket.run(p); }, "");
}

TEST(InOrder, RejectsWidthsTheEngineCannotCount)
{
    // A zero width never issues (the loop used to spin forever); a
    // width past 0x7fff overflows its field of the occupancy word.
    InOrderConfig c = InOrderConfig::shuttle();
    c.issueWidth = 0;
    EXPECT_DEATH(InOrderCore{c}, "widths must be in");
    c = InOrderConfig::shuttle();
    c.fpuCount = 0;
    EXPECT_DEATH(InOrderCore{c}, "widths must be in");
    c = InOrderConfig::shuttle();
    c.memPorts = 0;
    EXPECT_DEATH(InOrderCore{c}, "widths must be in");
    c = InOrderConfig::shuttle();
    c.issueWidth = InOrderConfig::kMaxWidth + 1;
    EXPECT_DEATH(InOrderCore{c}, "widths must be in");
    c.issueWidth = InOrderConfig::kMaxWidth;
    c.fpuCount = InOrderConfig::kMaxWidth;
    c.memPorts = InOrderConfig::kMaxWidth;
    EXPECT_EQ(InOrderCore(c).run(independentOps(8)).cycles,
              InOrderCore(c).runAos(independentOps(8)).cycles);
}

TEST(Ooo, ExtractsIlpFromChainPairs)
{
    // Two interleaved dependent chains: in-order is serialized by
    // latency, OoO overlaps them.
    Program p;
    uint32_t a = p.newReg(), b = p.newReg();
    p.push(Uop::scalar(UopKind::FpMove, a));
    p.push(Uop::scalar(UopKind::FpMove, b));
    for (int i = 0; i < 40; ++i) {
        uint32_t na = p.newReg();
        p.push(Uop::scalar(UopKind::FpFma, na, a));
        a = na;
        uint32_t nb = p.newReg();
        p.push(Uop::scalar(UopKind::FpFma, nb, b));
        b = nb;
    }
    InOrderCore rocket(InOrderConfig::rocket());
    OooCore mega(OooConfig::boomMega());
    auto rin = rocket.run(p);
    auto rout = mega.run(p);
    EXPECT_LT(rout.cycles, rin.cycles);
}

TEST(Ooo, FrontWidthLimitsThroughput)
{
    Program p = independentOps(400);
    OooCore small(OooConfig::boomSmall());
    OooCore mega(OooConfig::boomMega());
    auto rs = small.run(p);
    auto rm = mega.run(p);
    // Small: 1/cycle front end. Mega: 4-wide front, 2 FPUs -> 2/cycle.
    EXPECT_GE(rs.cycles, 400u);
    EXPECT_LE(rm.cycles, 210u);
}

TEST(Ooo, RobBoundsRuntimeDifference)
{
    // A long-latency op at the head plus many independents: the ROB
    // limits how far ahead the core can run.
    Program p;
    uint32_t v = p.newReg();
    p.push(Uop::scalar(UopKind::FpDiv, v));
    for (int i = 0; i < 300; ++i)
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    OooConfig tiny = OooConfig::boomSmall();
    tiny.robSize = 8;
    OooConfig big = OooConfig::boomSmall();
    big.robSize = 256;
    auto rt = OooCore(tiny).run(p);
    auto rb = OooCore(big).run(p);
    EXPECT_LE(rb.cycles, rt.cycles);
}

TEST(Ooo, MonotoneAcrossBoomScaling)
{
    // Bigger BOOMs are never slower on a mixed workload.
    Program p;
    for (int i = 0; i < 100; ++i) {
        uint32_t v = p.newReg();
        p.push(Uop::mem(UopKind::Load, v, kNoReg));
        p.push(Uop::scalar(UopKind::FpFma, p.newReg(), v));
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    }
    auto small = OooCore(OooConfig::boomSmall()).run(p).cycles;
    auto medium = OooCore(OooConfig::boomMedium()).run(p).cycles;
    auto large = OooCore(OooConfig::boomLarge()).run(p).cycles;
    auto mega = OooCore(OooConfig::boomMega()).run(p).cycles;
    EXPECT_GE(small, medium);
    EXPECT_GE(medium, large);
    EXPECT_GE(large, mega);
}

TEST(Models, DeterministicAcrossRuns)
{
    Program p = dependentChain(30);
    InOrderCore rocket(InOrderConfig::rocket());
    OooCore boom(OooConfig::boomMedium());
    EXPECT_EQ(rocket.run(p).cycles, rocket.run(p).cycles);
    EXPECT_EQ(boom.run(p).cycles, boom.run(p).cycles);
}

TEST(Models, RegionAttributionSumsToTotal)
{
    Program p;
    p.beginKernel("k1");
    for (int i = 0; i < 10; ++i)
        p.push(Uop::scalar(UopKind::FpFma, p.newReg()));
    p.endKernel();
    p.beginKernel("k2");
    for (int i = 0; i < 10; ++i)
        p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    p.endKernel();

    InOrderCore rocket(InOrderConfig::rocket());
    auto r = rocket.run(p);
    uint64_t sum = 0;
    for (uint64_t c : r.regionCycles)
        sum += c;
    EXPECT_LE(sum, r.cycles);
    EXPECT_GE(sum, r.cycles - 8); // only pipeline drain unattributed
}

TEST(Models, EmptyProgramIsZeroCycles)
{
    Program p;
    InOrderCore rocket(InOrderConfig::rocket());
    EXPECT_EQ(rocket.run(p).cycles, 0u);
    OooCore boom(OooConfig::boomSmall());
    EXPECT_EQ(boom.run(p).cycles, 0u);
}

/** The one-cycle-at-a-time issue-slot probe SlotMap replaced. */
class LinearSlotMap
{
  public:
    void
    reset(int width)
    {
        width_ = width;
        std::fill(used_.begin(), used_.end(), 0);
    }

    uint64_t
    claimFrom(uint64_t t)
    {
        while (true) {
            if (t >= used_.size())
                used_.resize(t * 2 + 64, 0);
            if (used_[t] < width_) {
                ++used_[t];
                return t;
            }
            ++t;
        }
    }

  private:
    int width_ = 1;
    std::vector<uint8_t> used_;
};

TEST(SlotMap, MatchesLinearProbeOnRandomClaims)
{
    // Both maps are reused across sequences, so reset() must also
    // clear what earlier, longer sequences claimed.
    SlotMap fast;
    LinearSlotMap ref;
    Rng rng(20251016);
    for (int seq = 0; seq < 64; ++seq) {
        const int width = 1 + seq % 4;
        fast.reset(width);
        ref.reset(width);
        uint64_t cursor = 0;
        for (int k = 0; k < 3000; ++k) {
            uint64_t t = cursor + rng.uniformInt(8);
            switch (rng.uniformInt(16)) {
              case 0: // back into saturated cycles
                t = rng.uniformInt(cursor + 1);
                break;
              case 1: // far past the claimed range (and the buffer)
                t = cursor + 4096 + rng.uniformInt(1 << 16);
                break;
              default:
                break;
            }
            cursor += rng.uniformInt(2);
            ASSERT_EQ(fast.claimFrom(t), ref.claimFrom(t))
                << "width " << width << " seq " << seq << " claim " << k;
        }
    }
}

TEST(SlotMap, FullRunsCrossWords)
{
    for (int width = 1; width <= 4; ++width) {
        SlotMap fast;
        LinearSlotMap ref;
        fast.reset(width);
        ref.reset(width);
        // Every claim at 60 fills 60, 61, ... in order: the run of full
        // cycles crosses the 64- and 128-cycle word boundaries.
        for (int k = 0; k < 200 * width; ++k) {
            const uint64_t got = fast.claimFrom(60);
            ASSERT_EQ(got, ref.claimFrom(60));
            ASSERT_EQ(got, 60u + static_cast<uint64_t>(k / width));
        }
        // Below the run every cycle is still free.
        EXPECT_EQ(fast.claimFrom(0), 0u);
        EXPECT_EQ(fast.claimFrom(59), 59u);
        // A claim far past the buffer lands exactly where asked.
        EXPECT_EQ(fast.claimFrom(1 << 20), uint64_t{1} << 20);
        EXPECT_EQ(fast.claimFrom(127), 260u);
    }
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

TEST(Ooo, GoldenCyclesOnQuadSolveStreams)
{
    // Cycles, region count and region-cycle digest of the 5-iteration
    // quadrotor solve on every BOOM preset, pinned from the one-cycle
    // probe engine. LibraryPerStep and Fused emit the same scalar
    // stream, so their rows agree.
    using matlib::NumericFormat;
    using tinympc::MappingStyle;
    struct Golden
    {
        NumericFormat fmt;
        MappingStyle style;
        uint64_t cycles[4]; ///< boom small, medium, large, mega
        size_t regions;
        uint64_t regionDigest[4];
    };
    const Golden golden[] = {
        {NumericFormat::F32, MappingStyle::Library,
         {86572, 48522, 36954, 24655}, 224,
         {0x29da7c7fd2950ae4ull, 0xb97f489c18a9de53ull,
          0x017433132fa24dfeull, 0x172604b04b370a3aull}},
        {NumericFormat::F32, MappingStyle::LibraryPerStep,
         {86572, 48522, 36954, 24655}, 529,
         {0x4481d60db72cd06cull, 0xc2ce5b74f1069a16ull,
          0x36078c7128e948d0ull, 0xec9830454eeac7b6ull}},
        {NumericFormat::F32, MappingStyle::Fused,
         {86572, 48522, 36954, 24655}, 529,
         {0x4481d60db72cd06cull, 0xc2ce5b74f1069a16ull,
          0x36078c7128e948d0ull, 0xec9830454eeac7b6ull}},
        {NumericFormat::I16, MappingStyle::Library,
         {86572, 48367, 36810, 24408}, 224,
         {0xd900c4ae15249160ull, 0x84de786dc10e4ad7ull,
          0xa9ddab109c2790f5ull, 0x27715f0eccfd0481ull}},
        {NumericFormat::I16, MappingStyle::LibraryPerStep,
         {86572, 48367, 36805, 24408}, 529,
         {0xed8d459b7a9c904eull, 0xb9c756a2972a5ff6ull,
          0x36bcdd8fe2500c86ull, 0xb65dd4e319133c8bull}},
        {NumericFormat::I16, MappingStyle::Fused,
         {86572, 48367, 36805, 24408}, 529,
         {0xed8d459b7a9c904eull, 0xb9c756a2972a5ff6ull,
          0x36bcdd8fe2500c86ull, 0xb65dd4e319133c8bull}},
    };
    const OooConfig cfgs[4] = {OooConfig::boomSmall(),
                               OooConfig::boomMedium(),
                               OooConfig::boomLarge(),
                               OooConfig::boomMega()};
    for (const Golden &g : golden) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        b.setFormat(g.fmt);
        auto prog = bench::emitQuadSolveCached(b, g.style);
        for (int c = 0; c < 4; ++c) {
            const std::string label =
                std::string(matlib::formatName(g.fmt)) + " style " +
                std::to_string(static_cast<int>(g.style)) + " " +
                cfgs[c].name;
            TimingResult r = OooCore(cfgs[c]).run(*prog);
            EXPECT_EQ(r.cycles, g.cycles[c]) << label;
            EXPECT_EQ(r.regionCycles.size(), g.regions) << label;
            EXPECT_EQ(digest(r.regionCycles), g.regionDigest[c]) << label;
        }
    }
}

TEST(InOrder, GoldenCyclesOnQuadSolveStreams)
{
    // Cycles, region count and region-cycle digest of the 5-iteration
    // quadrotor solve on Rocket and Shuttle, pinned from the separate
    // single-config loop the engine's one-lane pass replaced. The AoS
    // reference must agree. LibraryPerStep and Fused emit the same
    // scalar stream, so their rows agree.
    using matlib::NumericFormat;
    using tinympc::MappingStyle;
    struct Golden
    {
        NumericFormat fmt;
        MappingStyle style;
        uint64_t cycles[2]; ///< rocket, shuttle
        size_t regions;
        uint64_t regionDigest[2];
    };
    const Golden golden[] = {
        {NumericFormat::F32, MappingStyle::Library,
         {182576, 157661}, 224,
         {0x33b190ac2d450637ull, 0x7a43be7dbf38ea77ull}},
        {NumericFormat::F32, MappingStyle::LibraryPerStep,
         {181806, 156506}, 529,
         {0x195e9b265ee53288ull, 0xfaa36702c93925bbull}},
        {NumericFormat::F32, MappingStyle::Fused,
         {181806, 156506}, 529,
         {0x195e9b265ee53288ull, 0xfaa36702c93925bbull}},
        {NumericFormat::I16, MappingStyle::Library,
         {171332, 145607}, 224,
         {0xfb8a68942bb87721ull, 0x71e42812ea652620ull}},
        {NumericFormat::I16, MappingStyle::LibraryPerStep,
         {170562, 144452}, 529,
         {0x1f30d24262ab338cull, 0x3fad70ed1f38463full}},
        {NumericFormat::I16, MappingStyle::Fused,
         {170562, 144452}, 529,
         {0x1f30d24262ab338cull, 0x3fad70ed1f38463full}},
    };
    const InOrderConfig cfgs[2] = {InOrderConfig::rocket(),
                                   InOrderConfig::shuttle()};
    for (const Golden &g : golden) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        b.setFormat(g.fmt);
        auto prog = bench::emitQuadSolveCached(b, g.style);
        for (int c = 0; c < 2; ++c) {
            const std::string label =
                std::string(matlib::formatName(g.fmt)) + " style " +
                std::to_string(static_cast<int>(g.style)) + " " +
                cfgs[c].name;
            const InOrderCore core(cfgs[c]);
            for (const TimingResult &r :
                 {core.run(*prog), core.runAos(*prog)}) {
                EXPECT_EQ(r.cycles, g.cycles[c]) << label;
                EXPECT_EQ(r.regionCycles.size(), g.regions) << label;
                EXPECT_EQ(digest(r.regionCycles), g.regionDigest[c])
                    << label;
            }
        }
    }
}

} // namespace
} // namespace rtoc::cpu
