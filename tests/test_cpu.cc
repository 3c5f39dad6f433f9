/**
 * @file
 * Tests for the scalar core timing models: in-order scoreboard
 * behaviour (dependency stalls, structural hazards, branch bubbles,
 * dual issue) and OoO greedy-dataflow behaviour (ILP extraction,
 * front-end and ROB limits), plus cross-model ordering properties.
 * Both engines walk kernel regions in segments; hand-built programs
 * with every kind of region boundary hold them to the AoS reference.
 * The OoO issue-slot search (SlotMap) is checked against a one-cycle
 * probe, in-order and OoO cycles on the quadrotor solve streams are
 * pinned, and configs or uops the engines cannot run are rejected.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
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

TEST(Ooo, ScalarCoreRejectsVectorUops)
{
    Program p;
    p.push(Uop::scalar(UopKind::IntAlu, p.newReg()));
    p.push(Uop::vec(UopKind::VLoad, p.newVReg(), kNoReg, kNoReg, 8));
    OooCore boom(OooConfig::boomMedium());
    EXPECT_DEATH(boom.run(p), "BOOM cores are evaluated scalar-only");
    EXPECT_DEATH(boom.runAos(p), "BOOM cores are evaluated scalar-only");
}

TEST(Ooo, RejectsWidthsTheEngineCannotCount)
{
    // A zero width never issues or never fetches, an empty ROB never
    // holds a uop, and an issue width past 255 overflows the per-cycle
    // claim count of its SlotMap.
    const char *const msg = "front width and ROB size must be >= 1";
    for (int bad : {0, -1}) {
        OooConfig c = OooConfig::boomMedium();
        c.frontWidth = bad;
        EXPECT_DEATH(OooCore{c}, msg);
        c = OooConfig::boomMedium();
        c.robSize = bad;
        EXPECT_DEATH(OooCore{c}, msg);
    }
    for (int bad : {0, 256}) {
        OooConfig c = OooConfig::boomMedium();
        c.intIssue = bad;
        EXPECT_DEATH(OooCore{c}, msg);
        c = OooConfig::boomMedium();
        c.memIssue = bad;
        EXPECT_DEATH(OooCore{c}, msg);
        c = OooConfig::boomMedium();
        c.fpIssue = bad;
        EXPECT_DEATH(OooCore{c}, msg);
    }
    // A negative latency would complete a uop before it issues.
    for (int OooConfig::*lat :
         {&OooConfig::loadLatency, &OooConfig::fpLatency,
          &OooConfig::fpDivLatency, &OooConfig::intMulLatency}) {
        OooConfig c = OooConfig::boomMedium();
        c.*lat = -1;
        EXPECT_DEATH(OooCore{c}, "latencies must be >= 0");
    }
    // The limits themselves run, and agree with the AoS loop.
    OooConfig c = OooConfig::boomMedium();
    c.frontWidth = 1;
    c.robSize = 1;
    c.intIssue = 255;
    c.memIssue = 255;
    c.fpIssue = 1;
    const Program p = independentOps(300);
    EXPECT_EQ(OooCore(c).run(p).cycles, OooCore(c).runAos(p).cycles);
    c.frontWidth = 8;
    c.robSize = 512;
    c.fpIssue = 255;
    EXPECT_EQ(OooCore(c).run(p).cycles, OooCore(c).runAos(p).cycles);
    c.loadLatency = c.fpLatency = c.fpDivLatency = c.intMulLatency = 0;
    EXPECT_EQ(OooCore(c).run(p).cycles, OooCore(c).runAos(p).cycles);
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

/**
 * Push @p n uops of mixed kinds, each reading @p acc: loads, FMAs,
 * divides, multiplies, stores and taken branches. The uops that write
 * a register carry the chain on through @p acc.
 */
void
pushWork(Program &p, uint32_t &acc, int n)
{
    for (int i = 0; i < n; ++i) {
        const uint32_t v = p.newReg();
        switch (i % 6) {
          case 0: p.push(Uop::mem(UopKind::Load, v, acc)); break;
          case 1: p.push(Uop::scalar(UopKind::FpFma, v, acc, acc)); break;
          case 2: p.push(Uop::scalar(UopKind::FpDiv, v, acc)); break;
          case 3: p.push(Uop::scalar(UopKind::IntMul, v, acc)); break;
          case 4: p.push(Uop::mem(UopKind::Store, kNoReg, acc)); continue;
          default: {
            Uop br = Uop::scalar(UopKind::Branch, kNoReg, acc);
            br.taken = 1;
            p.push(br);
            continue;
          }
        }
        acc = v;
    }
}

/**
 * Regions at every kind of boundary, the last one ending at the last
 * uop: an empty region before any uop, unregioned uops, two adjacent
 * regions, a gap, an empty region right before a region, and a run of
 * narrow (sew16) uops.
 */
Program
regionsToTheLastUop()
{
    Program p;
    uint32_t acc = p.newReg();
    p.beginKernel("empty_first");
    p.endKernel();
    p.push(Uop::scalar(UopKind::FpMove, acc));
    pushWork(p, acc, 5);
    p.beginKernel("a");
    pushWork(p, acc, 9);
    p.endKernel();
    p.beginKernel("b");
    pushWork(p, acc, 7);
    p.endKernel();
    pushWork(p, acc, 4);
    p.beginKernel("empty_mid");
    p.endKernel();
    p.beginKernel("narrow");
    p.setEmitWidth(16);
    pushWork(p, acc, 8);
    p.setEmitWidth(32);
    p.endKernel();
    p.beginKernel("last");
    pushWork(p, acc, 11);
    p.endKernel();
    return p;
}

/** A region from uop 0, a region of one uop, two back-to-back empty
 *  regions, then trailing unregioned uops and an empty region after
 *  the last uop. */
Program
regionsWithTrailingUops()
{
    Program p;
    uint32_t acc = p.newReg();
    p.beginKernel("first");
    p.push(Uop::scalar(UopKind::FpMove, acc));
    pushWork(p, acc, 12);
    p.endKernel();
    p.beginKernel("one");
    pushWork(p, acc, 1);
    p.endKernel();
    p.beginKernel("empty_a");
    p.endKernel();
    p.beginKernel("empty_b");
    p.endKernel();
    pushWork(p, acc, 3);
    p.beginKernel("mid");
    pushWork(p, acc, 6);
    p.endKernel();
    pushWork(p, acc, 10);
    p.beginKernel("empty_after");
    p.endKernel();
    return p;
}

TEST(Models, RegionSegmentsMatchAosAtEveryBoundary)
{
    // runAos prices regions from a prefix max over every uop's finish
    // time; the engines walk them in segments. Each family's runStream
    // and each lane of a 2-lane batch must agree with it.
    const InOrderCore rocket(InOrderConfig::rocket());
    const InOrderCore shuttle(InOrderConfig::shuttle());
    const OooCore small(OooConfig::boomSmall());
    const OooCore mega(OooConfig::boomMega());
    const std::vector<std::vector<const TimingModel *>> families = {
        {&rocket, &shuttle}, {&small, &mega}};
    for (const Program &p :
         {regionsToTheLastUop(), regionsWithTrailingUops()}) {
        for (const std::vector<const TimingModel *> &pair : families) {
            const std::vector<TimingResult> batch =
                pair[0]->runStreamBatch(p.stream(), pair);
            ASSERT_EQ(batch.size(), 2u);
            for (size_t k = 0; k < 2; ++k) {
                const TimingResult want = pair[k]->runAos(p);
                ASSERT_EQ(want.regionCycles.size(), p.kernels().size());
                uint64_t sum = 0;
                for (size_t r = 0; r < p.kernels().size(); ++r) {
                    const isa::KernelRegion &kr = p.kernels()[r];
                    if (kr.begin == kr.end) {
                        EXPECT_EQ(want.regionCycles[r], 0u) << kr.name();
                    }
                    sum += want.regionCycles[r];
                }
                EXPECT_GT(sum, 0u);
                EXPECT_LE(sum, want.cycles);
                const TimingResult single = pair[k]->runStream(p.stream());
                for (const TimingResult *got : {&single, &batch[k]}) {
                    const std::string where =
                        pair[k]->name() +
                        (got == &single ? " single" : " batch lane");
                    EXPECT_EQ(got->cycles, want.cycles) << where;
                    EXPECT_EQ(got->regionCycles, want.regionCycles)
                        << where;
                    EXPECT_EQ(got->stats.counters(),
                              want.stats.counters())
                        << where;
                }
            }
        }
    }
}

/**
 * A seeded random scalar program of @p n uops over every scalar kind.
 * Sources are mostly recent results, sometimes kNoReg or any earlier
 * result, and, with @p unwritten, ids past every newReg() so far that
 * no uop has written yet; some uops overwrite an older register or
 * run at sew16. Regions open and close at random, so some are empty,
 * some adjacent, and uops trail the last one.
 */
Program
randomScalarProgram(Rng &rng, int n, bool unwritten)
{
    static const char *const names[] = {"r0", "r1", "r2", "r3"};
    Program p;
    std::vector<uint32_t> live = {p.newReg()};
    p.push(Uop::scalar(UopKind::FpMove, live[0]));
    auto source = [&]() -> uint32_t {
        switch (rng.uniformInt(12)) {
          case 0: return kNoReg;
          case 1: return unwritten ? p.newReg() + 3 : live.front();
          case 2: return live[rng.uniformInt(live.size())];
          default:
            return live[live.size() - 1 - rng.uniformInt(
                std::min<size_t>(live.size(), 4))];
        }
    };
    bool open = false;
    for (int i = 0; i < n; ++i) {
        if (rng.uniformInt(16) == 0) {
            // Close the open region, or open one; sometimes twice in a
            // row, so regions come out empty or adjacent.
            for (int k = 0; k < 1 + static_cast<int>(rng.uniformInt(3));
                 ++k) {
                if (open)
                    p.endKernel();
                else
                    p.beginKernel(names[rng.uniformInt(4)]);
                open = !open;
            }
        }
        if (rng.uniformInt(40) == 0)
            p.setEmitWidth(p.emitWidth() == 32 ? 16 : 32);
        const auto kind = static_cast<UopKind>(
            rng.uniformInt(static_cast<uint64_t>(UopKind::Branch) + 1));
        Uop u = Uop::scalar(kind, kNoReg, source(), source(), source());
        if (kind == UopKind::Branch) {
            u.taken = static_cast<uint8_t>(rng.uniformInt(2));
        } else if (kind != UopKind::Store) {
            u.dst = rng.uniformInt(8) == 0
                        ? live[rng.uniformInt(live.size())]
                        : p.newReg();
            live.push_back(u.dst);
        }
        p.push(u);
    }
    if (open)
        p.endKernel();
    p.setEmitWidth(32);
    return p;
}

/** A random in-order config: widths 1-4, latencies 1-40. */
InOrderConfig
randomInOrder(Rng &rng)
{
    auto lat = [&] { return 1 + static_cast<int>(rng.uniformInt(40)); };
    InOrderConfig c = rng.uniformInt(2) ? InOrderConfig::rocket()
                                        : InOrderConfig::shuttle();
    c.name += "-rand";
    c.issueWidth = 1 + static_cast<int>(rng.uniformInt(4));
    c.fpuCount = 1 + static_cast<int>(rng.uniformInt(2));
    c.memPorts = 1 + static_cast<int>(rng.uniformInt(2));
    c.branchBubble = static_cast<int>(rng.uniformInt(6));
    c.loadLatency = lat();
    c.fpLatency = lat();
    c.fpDivLatency = lat();
    c.intMulLatency = lat();
    return c;
}

/** A random OoO config over the engine's edge cases: ROB sizes around
 *  the ring's powers of two, issue widths 1-3 and 255. */
OooConfig
randomOoo(Rng &rng)
{
    static const int robs[] = {1, 2, 63, 64, 96, 97, 192};
    static const int widths[] = {1, 2, 3, 255};
    auto lat = [&] { return 1 + static_cast<int>(rng.uniformInt(40)); };
    OooConfig c;
    c.name = "boom-rand";
    c.frontWidth = 1 + static_cast<int>(rng.uniformInt(4));
    c.robSize = robs[rng.uniformInt(7)];
    c.intIssue = widths[rng.uniformInt(4)];
    c.memIssue = widths[rng.uniformInt(4)];
    c.fpIssue = widths[rng.uniformInt(4)];
    c.loadLatency = lat();
    c.fpLatency = lat();
    c.fpDivLatency = lat();
    c.intMulLatency = lat();
    return c;
}

TEST(Models, RandomScalarProgramsMatchAosSingleAndBatched)
{
    // The engines zero only the ready rows a program reads unwritten,
    // reuse OoO slot words up to the last run's final cycle, and index
    // the ROB ring by uop number; every lane must still equal runAos.
    // A long program runs first, so the short ones after it replay on
    // scratch a longer stream has grown on this thread.
    Rng rng(20261019);
    std::vector<std::unique_ptr<TimingModel>> owned;
    std::vector<const TimingModel *> inorder, ooo;
    for (const InOrderConfig &c :
         {InOrderConfig::rocket(), InOrderConfig::shuttle()}) {
        owned.push_back(std::make_unique<InOrderCore>(c));
        inorder.push_back(owned.back().get());
    }
    for (int k = 0; k < 6; ++k) {
        owned.push_back(std::make_unique<InOrderCore>(randomInOrder(rng)));
        inorder.push_back(owned.back().get());
    }
    for (const OooConfig &c :
         {OooConfig::boomSmall(), OooConfig::boomMega()}) {
        owned.push_back(std::make_unique<OooCore>(c));
        ooo.push_back(owned.back().get());
    }
    for (int k = 0; k < 10; ++k) {
        owned.push_back(std::make_unique<OooCore>(randomOoo(rng)));
        ooo.push_back(owned.back().get());
    }

    for (int prog_no = 0; prog_no < 10; ++prog_no) {
        const int n = prog_no == 0
                          ? 20000
                          : 50 + static_cast<int>(rng.uniformInt(600));
        const Program p = randomScalarProgram(rng, n, prog_no % 2 == 0);
        if (prog_no % 2 == 0) {
            ASSERT_FALSE(p.unwrittenReads().empty());
        }
        for (const std::vector<const TimingModel *> *family :
             {&inorder, &ooo}) {
            std::vector<TimingResult> want;
            for (const TimingModel *m : *family)
                want.push_back(m->runAos(p));
            auto expect_match = [&](const TimingResult &got, size_t m,
                                    const std::string &how) {
                const std::string where = "program " +
                                          std::to_string(prog_no) + ", " +
                                          (*family)[m]->name() + " " + how;
                EXPECT_EQ(got.cycles, want[m].cycles) << where;
                EXPECT_EQ(got.regionCycles, want[m].regionCycles) << where;
                EXPECT_EQ(got.stats.counters(), want[m].stats.counters())
                    << where;
            };
            for (size_t m = 0; m < family->size(); ++m)
                expect_match((*family)[m]->runStream(p.stream()), m,
                             "single");
            for (size_t lanes : {1, 3, 8}) {
                std::vector<const TimingModel *> group;
                std::vector<size_t> idx;
                for (size_t l = 0; l < lanes; ++l) {
                    idx.push_back((prog_no + 3 * l) % family->size());
                    group.push_back((*family)[idx.back()]);
                }
                const std::vector<TimingResult> got =
                    group.front()->runStreamBatch(p.stream(), group);
                ASSERT_EQ(got.size(), lanes);
                for (size_t l = 0; l < lanes; ++l)
                    expect_match(got[l], idx[l],
                                 std::to_string(lanes) + "-lane batch");
            }
        }
    }
}

TEST(Models, OpenLastRegionPanicsInBothEngines)
{
    Program p;
    uint32_t acc = p.newReg();
    p.beginKernel("closed");
    pushWork(p, acc, 4);
    p.endKernel();
    p.beginKernel("open");
    pushWork(p, acc, 4);
    const InOrderCore rocket(InOrderConfig::rocket());
    const OooCore boom(OooConfig::boomSmall());
    EXPECT_DEATH(rocket.runStream(p.stream()), "'open' still open");
    EXPECT_DEATH(boom.runStream(p.stream()), "'open' still open");
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

TEST(SlotMap, CursorRunsClearOnlyWhatTheyClaimed)
{
    // The OoO engine's use of one map across runs: reserve ahead of
    // the claims, claim through the cursor, end with claimedBelow().
    // A long run comes first, then short runs whose widths move
    // between 1 (no claim counts) and wider: each must start empty.
    SlotMap fast;
    Rng rng(20261019);
    for (int run = 0; run < 16; ++run) {
        const int width = run % 3 == 0 ? 1 : 1 + run % 4;
        const int claims =
            run == 0 ? 40000 : 1 + static_cast<int>(rng.uniformInt(400));
        fast.reset(width);
        LinearSlotMap ref;
        ref.reset(width);
        uint64_t end = 0; // one past the latest claim
        for (int k = 0; k < claims; ++k) {
            uint64_t t = end > 8 ? end - rng.uniformInt(8) : 0;
            if (rng.uniformInt(16) == 0)
                t = rng.uniformInt(end + 1);
            else if (rng.uniformInt(64) == 0)
                t = end + rng.uniformInt(1000);
            const SlotMap::Cursor c = fast.reserve(std::max(t, end) + 1);
            const uint64_t got = SlotMap::claim(c, t);
            ASSERT_EQ(got, ref.claimFrom(t))
                << "run " << run << " width " << width << " claim " << k;
            end = std::max(end, got + 1);
        }
        fast.claimedBelow(end);
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
