/**
 * @file
 * Tests for the Saturn vector-machine model: DLEN occupancy scaling,
 * LMUL whole-group sequencing, chaining, frontend coupling (Rocket vs
 * Shuttle), queue back-pressure and scalar-read synchronization —
 * each of which carries one of the paper's §4.1/§5.1.2 findings. Saturn
 * cycles on the quadrotor solve streams are pinned, and configs the
 * engine cannot run are rejected.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hh"
#include "isa/program.hh"
#include "matlib/rvv_backend.hh"
#include "vector/saturn.hh"

namespace rtoc::vector {
namespace {

using isa::kNoReg;
using isa::Program;
using isa::Uop;
using isa::UopKind;

/** Stream of n independent vector adds of VL elements. */
Program
vecStream(int n, int vl, uint16_t lmul8 = 8)
{
    Program p;
    for (int i = 0; i < n; ++i) {
        p.push(Uop::vec(UopKind::VArith, p.newVReg(), kNoReg, kNoReg,
                        static_cast<uint32_t>(vl), lmul8));
    }
    return p;
}

TEST(Saturn, WiderDlenFasterOnLongVectors)
{
    Program p = vecStream(40, 64);
    SaturnModel d128(SaturnConfig::make(512, 128, false));
    SaturnModel d256(SaturnConfig::make(512, 256, false));
    EXPECT_LT(d256.run(p).cycles, d128.run(p).cycles);
}

TEST(Saturn, ShortVectorsDlenInsensitive)
{
    // VL=4 fits one beat on both datapaths (paper §5.1.5: iterative
    // TinyMPC kernels cannot exploit DLEN=256).
    Program p = vecStream(40, 4);
    SaturnModel d128(SaturnConfig::make(512, 128, false));
    SaturnModel d256(SaturnConfig::make(512, 256, false));
    EXPECT_EQ(d256.run(p).cycles, d128.run(p).cycles);
}

TEST(Saturn, LmulGroupingWalksWholeGroup)
{
    // Same 12 live elements: with LMUL=4 the instruction occupies the
    // whole 4-register group (Fig. 4's iterative-kernel degradation).
    SaturnModel m(SaturnConfig::make(512, 128, false));
    Program lm1 = vecStream(64, 12, 8);
    Program lm4 = vecStream(64, 12, 32);
    EXPECT_GT(m.run(lm4).cycles, m.run(lm1).cycles);
}

TEST(Saturn, LmulReducesInstructionCountWins)
{
    // Full-length elementwise work with realistic per-instruction
    // scalar bookkeeping (address generation, strip-loop branch): one
    // LMUL=4 instruction covering 4x the elements beats four LMUL=1
    // instructions because the frontend issues 4x fewer scalar ops
    // (Fig. 4's elementwise improvement).
    auto make = [](int n, int vl, uint16_t lmul8) {
        Program p;
        for (int i = 0; i < n; ++i) {
            uint32_t addr = p.newReg();
            p.push(Uop::scalar(UopKind::IntAlu, addr));
            p.push(Uop::vec(UopKind::VLoad, p.newVReg(), addr, kNoReg,
                            static_cast<uint32_t>(vl), lmul8));
            p.push(Uop::vec(UopKind::VArith, p.newVReg(), kNoReg,
                            kNoReg, static_cast<uint32_t>(vl), lmul8));
            Uop br = Uop::scalar(UopKind::Branch, kNoReg);
            br.taken = i + 1 < n;
            p.push(br);
        }
        return p;
    };
    SaturnModel m(SaturnConfig::make(512, 256, false));
    int elems = 512 / 32; // one register worth
    Program lm1 = make(64, elems, 8);
    Program lm4 = make(16, elems * 4, 32);
    EXPECT_LT(m.run(lm4).cycles, m.run(lm1).cycles);
}

TEST(Saturn, ShuttleFrontendHelpsShortKernels)
{
    // Interleaved scalar addressing + short vector ops: single-issue
    // Rocket starves the vector unit (Fig. 11).
    Program p;
    for (int i = 0; i < 60; ++i) {
        uint32_t addr = p.newReg();
        p.push(Uop::scalar(UopKind::IntAlu, addr));
        uint32_t x = p.newReg();
        p.push(Uop::mem(UopKind::Load, x, addr));
        Uop fma = Uop::vec(UopKind::VFma, p.newVReg(), kNoReg, kNoReg, 12);
        fma.src2 = x;
        p.push(fma);
    }
    SaturnModel rocket_fe(SaturnConfig::make(512, 256, false));
    SaturnModel shuttle_fe(SaturnConfig::make(512, 256, true));
    auto rr = rocket_fe.run(p);
    auto rs = shuttle_fe.run(p);
    EXPECT_LT(rs.cycles, rr.cycles);
}

TEST(Saturn, ChainingBeatsSerializedConsumption)
{
    // Producer -> consumer chains: with chaining the dependent stream
    // costs far less than sum of full latencies.
    Program p;
    uint32_t v = p.newVReg();
    p.push(Uop::vec(UopKind::VLoad, v, kNoReg, kNoReg, 64));
    int n = 30;
    for (int i = 0; i < n; ++i) {
        uint32_t nv = p.newVReg();
        p.push(Uop::vec(UopKind::VArith, nv, v, kNoReg, 64));
        v = nv;
    }
    SaturnModel m(SaturnConfig::make(512, 256, false));
    auto r = m.run(p);
    // Serialized: each op waits ~ (pipeLat + beats) = 12 -> 360+.
    EXPECT_LT(r.cycles, 300u);
}

TEST(Saturn, StridedLoadOneElementPerCycle)
{
    Program unit, strided;
    unit.push(Uop::vec(UopKind::VLoad, unit.newVReg(), kNoReg, kNoReg,
                       32));
    strided.push(Uop::vec(UopKind::VLoadStrided, strided.newVReg(),
                          kNoReg, kNoReg, 32));
    SaturnModel m(SaturnConfig::make(512, 256, false));
    EXPECT_GT(m.run(strided).cycles, m.run(unit).cycles);
}

TEST(Saturn, ReductionSynchronizesScalarConsumer)
{
    Program p;
    uint32_t v = p.newVReg();
    p.push(Uop::vec(UopKind::VLoad, v, kNoReg, kNoReg, 64));
    uint32_t s = p.newReg();
    p.push(Uop::vec(UopKind::VRed, s, v, kNoReg, 64));
    uint32_t t = p.newReg();
    p.push(Uop::scalar(UopKind::FpAdd, t, s)); // depends on reduction
    SaturnModel m(SaturnConfig::make(512, 256, false));
    auto r = m.run(p);
    // The scalar add cannot issue before the reduction completes.
    EXPECT_GT(r.cycles, 10u);
    EXPECT_GT(r.stats.get("stall_data"), 0u);
}

TEST(Saturn, QueueBackPressureThrottlesFrontend)
{
    SaturnConfig cfg = SaturnConfig::make(512, 128, false);
    cfg.vqDepth = 2;
    SaturnModel shallow(cfg);
    SaturnModel deep(SaturnConfig::make(512, 128, false));
    Program p = vecStream(100, 128); // long-occupancy ops
    auto rs = shallow.run(p);
    auto rd = deep.run(p);
    EXPECT_GE(rs.stats.get("stall_vq_full"), rd.stats.get("stall_vq_full"));
}

TEST(Saturn, VsetvlNearFree)
{
    Program p;
    for (int i = 0; i < 50; ++i) {
        Uop vs;
        vs.kind = UopKind::VSetVl;
        vs.dst = p.newReg();
        vs.vl = 16;
        p.push(vs);
    }
    SaturnModel m(SaturnConfig::make(512, 256, false));
    EXPECT_LE(m.run(p).cycles, 60u);
}

TEST(Saturn, Deterministic)
{
    Program p = vecStream(64, 32);
    SaturnModel m(SaturnConfig::make(512, 256, true));
    EXPECT_EQ(m.run(p).cycles, m.run(p).cycles);
}

TEST(Saturn, NameEncodesConfig)
{
    SaturnModel m(SaturnConfig::make(512, 256, true));
    EXPECT_EQ(m.name(), "saturn-v512d256-shuttle");
    EXPECT_EQ(m.vlmax(), 16);
}

TEST(Saturn, RejectsConfigsTheEngineCannotRun)
{
    // dlen 0 divided by zero; vqDepth 0 drained an empty queue.
    SaturnConfig c = SaturnConfig::make(512, 256, false);
    c.dlen = 0;
    EXPECT_DEATH(SaturnModel{c}, "dlen and vqDepth");
    c = SaturnConfig::make(512, 256, false);
    c.vqDepth = 0;
    EXPECT_DEATH(SaturnModel{c}, "dlen and vqDepth");
    c = SaturnConfig::make(512, 256, true);
    c.frontend.issueWidth = 0;
    EXPECT_DEATH(SaturnModel{c}, "widths must be in");
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

TEST(Saturn, GoldenCyclesOnQuadSolveStreams)
{
    // Cycles, region count and region-cycle digest of the 5-iteration
    // quadrotor solve (VLEN-512 emission) on VLEN 256/512 x DLEN
    // 128/256 x Rocket/Shuttle, pinned from the separate single-config
    // loop the engine's one-lane pass replaced. The AoS reference must
    // agree. The hand-optimized mapping never groups registers, so
    // VLEN only shows on the LMUL-4 library rows.
    using matlib::NumericFormat;
    using tinympc::MappingStyle;
    struct Golden
    {
        NumericFormat fmt;
        MappingStyle style;
        bool lmul4;          ///< library mapping at LMUL 4
        uint64_t cycles[8];  ///< configs in cfgs order
        size_t regions;
        uint64_t regionDigest[8];
    };
    const Golden golden[] = {
        {NumericFormat::F32, MappingStyle::Library, false,
         {20440, 18412, 19807, 17306, 20440, 18412, 19807, 17306},
         224,
         {0xed9a4dbb0a05980bull, 0xbaf8748de93024a1ull, 0x32469214a093f486ull,
          0x42e8e4850bfe2867ull, 0xed9a4dbb0a05980bull, 0xbaf8748de93024a1ull,
          0x32469214a093f486ull, 0x42e8e4850bfe2867ull}},
        {NumericFormat::F32, MappingStyle::LibraryPerStep, false,
         {21125, 19242, 20427, 18386, 21125, 19242, 20427, 18386},
         529,
         {0x36bfabf76a585b40ull, 0x8a4cb4d1f3d368a7ull, 0xd01e3826114709f6ull,
          0xc22d761923cbf20dull, 0x36bfabf76a585b40ull, 0x8a4cb4d1f3d368a7ull,
          0xd01e3826114709f6ull, 0xc22d761923cbf20dull}},
        {NumericFormat::F32, MappingStyle::Fused, false,
         {20178, 18522, 19649, 17751, 20178, 18522, 19649, 17751},
         529,
         {0xbc475c8e22096043ull, 0xe4cc8948cfabd2fdull, 0x108be85124cefe88ull,
          0xa3ab7dc7dae82f1eull, 0xbc475c8e22096043ull, 0xe4cc8948cfabd2fdull,
          0x108be85124cefe88ull, 0xa3ab7dc7dae82f1eull}},
        {NumericFormat::I16, MappingStyle::Library, false,
         {17992, 15961, 17647, 15417, 17992, 15961, 17647, 15417},
         224,
         {0x8a721dac31383e8dull, 0x58d1d42e68120ac0ull, 0xd89287b2f6e9ff84ull,
          0x85d2c6c43295d406ull, 0x8a721dac31383e8dull, 0x58d1d42e68120ac0ull,
          0xd89287b2f6e9ff84ull, 0x85d2c6c43295d406ull}},
        {NumericFormat::I16, MappingStyle::LibraryPerStep, false,
         {19807, 17826, 19472, 17432, 19807, 17826, 19472, 17432},
         529,
         {0x6edac6521694982cull, 0xfb69a9f0bf6f5dc5ull, 0xbc647367cf7518cbull,
          0xd4f97b7b7994336dull, 0x6edac6521694982cull, 0xfb69a9f0bf6f5dc5ull,
          0xbc647367cf7518cbull, 0xd4f97b7b7994336dull}},
        {NumericFormat::I16, MappingStyle::Fused, false,
         {19031, 17203, 18735, 16809, 19031, 17203, 18735, 16809},
         529,
         {0x554f159fa56eaa90ull, 0x9305319bab9e1bb6ull, 0xc8428257333c3930ull,
          0xe0b30717cc073420ull, 0x554f159fa56eaa90ull, 0x9305319bab9e1bb6ull,
          0xc8428257333c3930ull, 0xe0b30717cc073420ull}},
        {NumericFormat::F32, MappingStyle::Library, true,
         {177999, 174046, 144187, 139327, 248706, 244961, 177999, 174046},
         224,
         {0x412239f3e95b9820ull, 0x8d86d88004415f18ull, 0xa883b3867961f515ull,
          0xe5fa01aca296b593ull, 0xae1db2002aa00f70ull, 0x05da45a3b68e854bull,
          0x412239f3e95b9820ull, 0x8d86d88004415f18ull}},
        {NumericFormat::I16, MappingStyle::Library, true,
         {176059, 171576, 142430, 137032, 246226, 241943, 176059, 171576},
         224,
         {0x59d2d52fca60c773ull, 0xdc81d0f981277a51ull, 0x53ce54e74b5f211cull,
          0x8d433baa20ecb0d8ull, 0x3ac0fe1749253662ull, 0x9be8850f3c018d0full,
          0x59d2d52fca60c773ull, 0xdc81d0f981277a51ull}},
    };
    std::vector<SaturnConfig> cfgs;
    for (int vlen : {256, 512})
        for (int dlen : {128, 256})
            for (bool shuttle : {false, true})
                cfgs.push_back(SaturnConfig::make(vlen, dlen, shuttle));
    for (const Golden &g : golden) {
        matlib::RvvBackend b(512, g.lmul4
                                      ? matlib::RvvMapping::library(4)
                                      : matlib::RvvMapping::handOptimized());
        b.setFormat(g.fmt);
        auto prog = bench::emitQuadSolveCached(b, g.style);
        for (size_t c = 0; c < cfgs.size(); ++c) {
            const std::string label =
                std::string(matlib::formatName(g.fmt)) + " style " +
                std::to_string(static_cast<int>(g.style)) +
                (g.lmul4 ? " lmul4 " : " ") + cfgs[c].name;
            const SaturnModel m(cfgs[c]);
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
} // namespace rtoc::vector
