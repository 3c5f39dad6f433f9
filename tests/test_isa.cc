/**
 * @file
 * Tests for the micro-op IR: kind classification, FLOP accounting,
 * program building and kernel-region bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "isa/disk_cache.hh"
#include "isa/program.hh"
#include "isa/schedule.hh"
#include "isa/uop.hh"

namespace rtoc::isa {
namespace {

TEST(Uop, KindClassificationIsPartition)
{
    for (int k = 0; k < static_cast<int>(UopKind::NumKinds); ++k) {
        UopKind kind = static_cast<UopKind>(k);
        int classes = (isScalar(kind) ? 1 : 0) +
                      (isVector(kind) ? 1 : 0) + (isRocc(kind) ? 1 : 0);
        EXPECT_EQ(classes, 1) << "kind " << uopName(kind);
    }
}

TEST(Uop, FlopWeights)
{
    EXPECT_DOUBLE_EQ(flopsPerElement(UopKind::FpFma), 2.0);
    EXPECT_DOUBLE_EQ(flopsPerElement(UopKind::FpAdd), 1.0);
    EXPECT_DOUBLE_EQ(flopsPerElement(UopKind::Load), 0.0);
    EXPECT_DOUBLE_EQ(flopsPerElement(UopKind::VFma), 2.0);
}

TEST(Uop, Helpers)
{
    Uop s = Uop::scalar(UopKind::FpAdd, 3, 1, 2);
    EXPECT_EQ(s.dst, 3u);
    EXPECT_EQ(s.src0, 1u);
    EXPECT_EQ(s.src1, 2u);

    Uop m = Uop::mem(UopKind::Load, 5, 4, 8);
    EXPECT_EQ(m.bytes, 8u);

    Uop v = Uop::vec(UopKind::VFma, 1, 2, 3, 16, 16);
    EXPECT_EQ(v.vl, 16u);
    EXPECT_EQ(v.lmul8, 16);

    Uop r = Uop::rocc(UopKind::RoccCompute, 4, 4, 64);
    EXPECT_EQ(r.rows, 4);
    EXPECT_EQ(r.cols, 4);
}

TEST(Program, RegisterSpacesAreDisjoint)
{
    Program p;
    uint32_t s = p.newReg();
    uint32_t v = p.newVReg();
    EXPECT_FALSE(Program::isVReg(s));
    EXPECT_TRUE(Program::isVReg(v));
    EXPECT_FALSE(Program::isVReg(kNoReg));
}

TEST(Program, FlopAccounting)
{
    Program p;
    p.push(Uop::scalar(UopKind::FpFma, p.newReg()));  // 2
    p.push(Uop::vec(UopKind::VFma, p.newVReg(), kNoReg, kNoReg, 8)); // 16
    p.push(Uop::vec(UopKind::VArith, p.newVReg(), kNoReg, kNoReg, 4)); // 4
    p.push(Uop::rocc(UopKind::RoccCompute, 4, 4)); // 32
    p.push(Uop::mem(UopKind::Load, p.newReg(), kNoReg)); // 0
    EXPECT_DOUBLE_EQ(p.flops(), 2 + 16 + 4 + 32);
}

TEST(Program, CountsByClass)
{
    Program p;
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    p.push(Uop::scalar(UopKind::FpAdd, p.newReg()));
    p.push(Uop::vec(UopKind::VLoad, p.newVReg(), kNoReg, kNoReg, 8));
    p.push(Uop::rocc(UopKind::RoccFence, 0, 0));
    EXPECT_EQ(p.countScalar(), 2u);
    EXPECT_EQ(p.countVector(), 1u);
    EXPECT_EQ(p.countRocc(), 1u);
}

TEST(Program, KernelRegions)
{
    Program p;
    p.beginKernel("a");
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    p.endKernel();
    p.beginKernel("b");
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    p.endKernel();

    ASSERT_EQ(p.kernels().size(), 2u);
    EXPECT_EQ(p.kernels()[0].name(), "a");
    EXPECT_EQ(p.kernels()[0].end - p.kernels()[0].begin, 1u);
    EXPECT_EQ(p.kernels()[1].end - p.kernels()[1].begin, 2u);
}

TEST(Program, AccumulateKernelCyclesMergesByName)
{
    KernelId fwd = internKernel("fwd");
    KernelId bwd = internKernel("bwd");
    std::vector<KernelRegion> regions = {
        {fwd, 0, 2}, {bwd, 2, 4}, {fwd, 4, 6}};
    std::vector<uint64_t> cycles = {10, 20, 30};
    auto merged = accumulateKernelCycles(regions, cycles);
    ASSERT_EQ(merged.size(), 2u);
    // Alphabetical order from the map: bwd then fwd.
    EXPECT_EQ(merged[0].name, "bwd");
    EXPECT_EQ(merged[0].cycles, 20u);
    EXPECT_EQ(merged[1].name, "fwd");
    EXPECT_EQ(merged[1].cycles, 40u);
    EXPECT_EQ(merged[1].invocations, 2u);
}

TEST(Program, ClearDropsUopsKeepsRegCounter)
{
    Program p;
    uint32_t r1 = p.newReg();
    p.push(Uop::scalar(UopKind::IntAlu, r1));
    p.clear();
    EXPECT_EQ(p.size(), 0u);
    uint32_t r2 = p.newReg();
    EXPECT_NE(r1, r2);
}

TEST(Program, UnwrittenReadsInFirstReadOrder)
{
    Program p;
    EXPECT_TRUE(p.unwrittenReads().empty());
    // A uop reads its sources before it writes its dst, so one that
    // reads and writes the same fresh id reads it unwritten.
    const uint32_t a = p.newReg();
    p.push(Uop::scalar(UopKind::IntAlu, a, a));
    const uint32_t b = p.newReg();
    p.push(Uop::scalar(UopKind::FpAdd, b, a, b));
    // Ids newReg() never handed out count too, each only once.
    p.push(Uop::scalar(UopKind::FpFma, p.newReg(), 5000, 5000, 70000));
    p.push(Uop::scalar(UopKind::FpAdd, p.newReg(), 70000, a));
    p.push(Uop::scalar(UopKind::FpMove, 80000));
    p.push(Uop::scalar(UopKind::FpAdd, p.newReg(), 80000));
    // The vector file: an unwritten vreg, then one a load writes.
    const uint32_t v = p.newVReg();
    const uint32_t w = p.newVReg();
    p.push(Uop::vec(UopKind::VLoad, w, a, kNoReg, 8));
    p.push(Uop::vec(UopKind::VFma, p.newVReg(), v, w, 8));
    const std::vector<uint32_t> want = {a, b, 5000, 70000, v};
    EXPECT_EQ(p.unwrittenReads(), want);
}

TEST(Program, UnwrittenReadsTakeEachOperandInItsModelFile)
{
    // A scalar uop reads and writes the scalar file whatever file its
    // ids name; a store or RoCC command writes no register; vsetvl and
    // a reduction write the scalar file, a vector load the vector file.
    // Recorded ids name the file that was read.
    Program p;
    const uint32_t v = p.newVReg();
    const uint32_t s = p.newReg();
    ASSERT_EQ(v & 0x7fffffffu, s);
    p.push(Uop::vec(UopKind::VLoad, v, kNoReg, kNoReg, 8));
    p.push(Uop::scalar(UopKind::FpAdd, s, v)); // scalar row of v: s
    const uint32_t w = p.newVReg();
    p.push(Uop::scalar(UopKind::FpMove, w)); // writes w's scalar row
    p.push(Uop::vec(UopKind::VArith, p.newVReg(), w, kNoReg, 8));
    const uint32_t u = p.newVReg();
    p.push(Uop::vec(UopKind::VStore, u, v, s, 8));
    p.push(Uop::vec(UopKind::VArith, p.newVReg(), u, kNoReg, 8));
    const uint32_t r = p.newReg();
    p.push(Uop::vec(UopKind::VRed, r | 0x80000000u, v, kNoReg, 8));
    p.push(Uop::scalar(UopKind::FpAdd, p.newReg(), r));
    const uint32_t q = p.newReg();
    p.push(Uop::vec(UopKind::VLoad, q, s, kNoReg, 8));
    p.push(Uop::scalar(UopKind::FpAdd, p.newReg(), q));
    p.push(Uop::vec(UopKind::VArith, p.newVReg(), q | 0x80000000u, v, 8));
    Uop mvin = Uop::rocc(UopKind::RoccMvin, 4, 4, 64);
    mvin.dst = p.newReg();
    p.push(mvin);
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg(), mvin.dst));
    const std::vector<uint32_t> want = {s, w, u, q, mvin.dst};
    EXPECT_EQ(p.unwrittenReads(), want);
}

TEST(Program, ClearDropsUnwrittenReads)
{
    Program p;
    const uint32_t a = p.newReg();
    p.push(Uop::scalar(UopKind::IntAlu, a, 7000));
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg(), a));
    ASSERT_EQ(p.unwrittenReads(), std::vector<uint32_t>{7000});
    p.clear();
    EXPECT_TRUE(p.unwrittenReads().empty());
    // The uop that wrote a is gone with it.
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg(), a));
    EXPECT_EQ(p.unwrittenReads(), std::vector<uint32_t>{a});
}

/** Regions of two interleavable chains whose heads read unwritten
 *  scalar and vector registers, plus unregioned uops between them. */
Program
chainsReadingUnwrittenHeads()
{
    Program p;
    const uint32_t head_v = p.newVReg();
    for (const char *name : {"first", "second"}) {
        p.beginKernel(name);
        for (int chain = 0; chain < 2; ++chain) {
            uint32_t acc = p.newReg(); // never written
            for (int i = 0; i < 6; ++i) {
                const uint32_t next = p.newReg();
                p.push(Uop::scalar(UopKind::FpFma, next, acc, acc));
                acc = next;
            }
        }
        p.endKernel();
        p.push(Uop::vec(UopKind::VArith, p.newVReg(), head_v, kNoReg, 8));
    }
    return p;
}

TEST(Program, UnwrittenReadsSurviveDecodeAndSchedule)
{
    const Program p = chainsReadingUnwrittenHeads();
    ASSERT_FALSE(p.unwrittenReads().empty());

    const std::optional<Program> back = decodeProgram(encodeProgram(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->unwrittenReads(), p.unwrittenReads());

    // A schedule permutes uops only within the dependence order, so
    // the set is the same; its first-read order may change.
    SchedSpec spec;
    spec.steps = {{SchedKind::Unroll, 2}};
    const ScheduleResult sr = applySchedule(p, spec);
    bool moved = false;
    for (size_t i = 0; i < sr.perm.size(); ++i)
        moved |= sr.perm[i] != i;
    ASSERT_TRUE(moved);
    std::vector<uint32_t> got = sr.prog.unwrittenReads();
    std::vector<uint32_t> want = p.unwrittenReads();
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace rtoc::isa
