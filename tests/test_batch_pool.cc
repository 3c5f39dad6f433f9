/**
 * @file
 * Tests for the batched design-point replay path and the
 * work-stealing thread pool.
 *
 * Batched replay: every lane of a runStreamBatch must be bit-identical
 * to its model's AoS reference loop (runAos) for every timing family,
 * across emission styles, >=8-config design sweeps and every lane
 * count. Each family's runStream is the one-lane pass of the same
 * engine (OoO batches run it lane by lane), so runAos, not runStream,
 * is the independent reference. A batch of mixed families must group
 * them by family and return every result in its model's input slot.
 *
 * Pool: work stealing makes execution order nondeterministic; these
 * tests pin what must NOT change — every index runs exactly once,
 * results are independent of thread count (1/4/7), grain, and
 * adversarial task-length skew, nested submits run inline, and
 * exceptions propagate while the range still drains.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

using cpu::TimingModel;
using cpu::TimingResult;

/**
 * Every lane must match its model's runAos bit-for-bit: cycles, region
 * cycles and the stat counters (stall breakdowns, fence/queue
 * telemetry). Lane counts 1..N each replay a different rotation of
 * @p models, so each config runs beside many different neighbours.
 */
void
expectLanesMatchAos(const isa::Program &prog,
                    const std::vector<const TimingModel *> &models,
                    const char *label)
{
    ASSERT_FALSE(models.empty());
    std::vector<TimingResult> aos;
    for (const TimingModel *m : models)
        aos.push_back(m->runAos(prog));
    for (size_t lanes = 1; lanes <= models.size(); ++lanes) {
        std::vector<const TimingModel *> group;
        std::vector<size_t> cfg;
        for (size_t j = 0; j < lanes; ++j) {
            cfg.push_back((lanes + j) % models.size());
            group.push_back(models[cfg.back()]);
        }
        std::vector<TimingResult> got =
            group.front()->runStreamBatch(prog.stream(), group);
        ASSERT_EQ(got.size(), lanes) << label;
        for (size_t j = 0; j < lanes; ++j) {
            const TimingResult &want = aos[cfg[j]];
            const std::string where = std::string(label) + ", " +
                                      std::to_string(lanes) +
                                      " lanes, lane " + std::to_string(j) +
                                      " (" + group[j]->name() + ")";
            EXPECT_EQ(got[j].cycles, want.cycles) << where;
            EXPECT_EQ(got[j].regionCycles, want.regionCycles) << where;
            EXPECT_EQ(got[j].stats.counters(), want.stats.counters())
                << where;
        }
    }
}

/**
 * A copy of @p base whose first uop, of kind @p kind, reads scalar
 * register 1 and vector register 2 before any uop writes them. Every
 * emitted stream writes each register before reading it, so these are
 * the only rows the engines must zero; scalar 1 is usually written
 * later, and a scalar uop reads the vector id from the scalar file.
 */
isa::Program
withUnwrittenReads(const isa::Program &base, isa::UopKind kind)
{
    constexpr uint32_t kVReg2 = 2u | 0x80000000u;
    isa::Program p;
    p.push(isa::isScalar(kind)
               ? isa::Uop::scalar(kind, base.scalarRegCount(), 1, kVReg2)
               : isa::Uop::vec(kind, base.vectorRegCount() | 0x80000000u,
                               1, kVReg2, 8));
    for (size_t i = 0; i < base.size(); ++i)
        p.push(base.uop(i));
    std::vector<isa::KernelRegion> regions = base.kernels();
    for (isa::KernelRegion &r : regions) {
        ++r.begin;
        ++r.end;
    }
    p.assemble(std::move(regions), base.scalarRegCount(),
               base.vectorRegCount());
    EXPECT_FALSE(p.unwrittenReads().empty());
    return p;
}

std::vector<cpu::InOrderConfig>
inOrderSweep()
{
    using cpu::InOrderConfig;
    std::vector<InOrderConfig> cfgs = {InOrderConfig::rocket(),
                                       InOrderConfig::shuttle()};
    // Design axes: issue width, FPU/mem ports, latency tables.
    InOrderConfig c = InOrderConfig::shuttle();
    c.name = "shuttle-2fpu";
    c.fpuCount = 2;
    cfgs.push_back(c);
    c = InOrderConfig::shuttle();
    c.name = "shuttle-2mem";
    c.memPorts = 2;
    cfgs.push_back(c);
    c = InOrderConfig::rocket();
    c.name = "rocket-slowld";
    c.loadLatency = 6;
    cfgs.push_back(c);
    c = InOrderConfig::rocket();
    c.name = "rocket-fastfp";
    c.fpLatency = 2;
    cfgs.push_back(c);
    c = InOrderConfig::shuttle();
    c.name = "shuttle-wide";
    c.issueWidth = 4;
    c.fpuCount = 2;
    c.memPorts = 2;
    cfgs.push_back(c);
    c = InOrderConfig::rocket();
    c.name = "rocket-bb5";
    c.branchBubble = 5;
    c.fpDivLatency = 24;
    cfgs.push_back(c);
    return cfgs;
}

TEST(BatchedReplay, InOrderFamilyAcrossStylesAndConfigs)
{
    for (auto style : {tinympc::MappingStyle::Library,
                       tinympc::MappingStyle::LibraryPerStep,
                       tinympc::MappingStyle::Fused}) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        auto prog = bench::emitQuadSolveCached(b, style);

        std::vector<std::unique_ptr<cpu::InOrderCore>> cores;
        std::vector<const TimingModel *> models;
        for (const auto &cfg : inOrderSweep()) {
            cores.push_back(std::make_unique<cpu::InOrderCore>(cfg));
            models.push_back(cores.back().get());
        }
        ASSERT_GE(models.size(), 8u);
        expectLanesMatchAos(*prog, models, "inorder");
        expectLanesMatchAos(withUnwrittenReads(*prog, isa::UopKind::FpAdd),
                            models, "inorder, unwritten reads");
    }
}

TEST(BatchedReplay, OooFamilyAcrossStylesAndConfigs)
{
    // The i16 stream's sew16 FPU uops are priced as LatClass::FpNarrow
    // at narrowFpLatency().
    using cpu::OooConfig;
    for (auto [fmt, style] :
         {std::pair{matlib::NumericFormat::F32,
                    tinympc::MappingStyle::Library},
          std::pair{matlib::NumericFormat::F32,
                    tinympc::MappingStyle::Fused},
          std::pair{matlib::NumericFormat::I16,
                    tinympc::MappingStyle::Library}}) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        b.setFormat(fmt);
        auto prog = bench::emitQuadSolveCached(b, style);

        std::vector<OooConfig> cfgs = {
            OooConfig::boomSmall(), OooConfig::boomMedium(),
            OooConfig::boomLarge(), OooConfig::boomMega()};
        OooConfig c = OooConfig::boomSmall();
        c.name = "boom-tiny-rob";
        c.robSize = 8;
        cfgs.push_back(c);
        c = OooConfig::boomMedium();
        c.name = "boom-slow-ld";
        c.loadLatency = 7;
        cfgs.push_back(c);
        c = OooConfig::boomLarge();
        c.name = "boom-slow-fp";
        c.fpLatency = 8;
        cfgs.push_back(c);
        c = OooConfig::boomMega();
        c.name = "boom-narrow-int";
        c.intIssue = 1;
        cfgs.push_back(c);

        std::vector<std::unique_ptr<cpu::OooCore>> cores;
        std::vector<const TimingModel *> models;
        for (const auto &cfg : cfgs) {
            cores.push_back(std::make_unique<cpu::OooCore>(cfg));
            models.push_back(cores.back().get());
        }
        ASSERT_EQ(models.size(), 8u);
        const std::string label =
            fmt == matlib::NumericFormat::I16 ? "ooo i16" : "ooo";
        expectLanesMatchAos(*prog, models, label.c_str());
        expectLanesMatchAos(withUnwrittenReads(*prog, isa::UopKind::FpAdd),
                            models, (label + ", unwritten reads").c_str());
    }
}

TEST(BatchedReplay, SaturnFamilyAcrossStylesAndConfigs)
{
    using vector::SaturnConfig;
    for (auto style : {tinympc::MappingStyle::Library,
                       tinympc::MappingStyle::Fused}) {
        matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
        auto prog = bench::emitQuadSolveCached(b, style);

        std::vector<SaturnConfig> cfgs = {
            SaturnConfig::make(256, 128, false),
            SaturnConfig::make(512, 128, false),
            SaturnConfig::make(256, 128, true),
            SaturnConfig::make(512, 256, false),
            SaturnConfig::make(512, 128, true),
            SaturnConfig::make(512, 256, true)};
        SaturnConfig c = SaturnConfig::make(512, 256, true);
        c.name += "-vq2";
        c.vqDepth = 2;
        cfgs.push_back(c);
        c = SaturnConfig::make(512, 256, false);
        c.name += "-slowmem";
        c.memLat = 14;
        c.chainLat = 4;
        cfgs.push_back(c);
        // Non-power-of-two datapath exercises the division fallback.
        c = SaturnConfig::make(512, 192, true);
        cfgs.push_back(c);
        // Lane-major queue corners: the minimum queue depth forces a
        // back-pressure drain on nearly every vector op in that lane
        // while deeper lanes run free, and a deep queue with slow
        // scalar moves skews the chain/epilogue timing between lanes.
        c = SaturnConfig::make(256, 128, true);
        c.name += "-vq1";
        c.vqDepth = 1;
        cfgs.push_back(c);
        c = SaturnConfig::make(512, 128, false);
        c.name += "-vq16-slowsm";
        c.vqDepth = 16;
        c.scalarMoveLat = 9;
        cfgs.push_back(c);
        c = SaturnConfig::make(256, 128, false);
        c.name += "-deeppipe";
        c.pipeLat = 11;
        c.chainLat = 1;
        cfgs.push_back(c);

        std::vector<std::unique_ptr<vector::SaturnModel>> ms;
        std::vector<const TimingModel *> models;
        for (const auto &cfg : cfgs) {
            ms.push_back(std::make_unique<vector::SaturnModel>(cfg));
            models.push_back(ms.back().get());
        }
        ASSERT_GE(models.size(), 8u);
        expectLanesMatchAos(*prog, models, "saturn");
        expectLanesMatchAos(withUnwrittenReads(*prog, isa::UopKind::VArith),
                            models, "saturn, unwritten reads");
    }
}

TEST(BatchedReplay, GemminiFamilyAcrossStylesAndConfigs)
{
    using systolic::GemminiConfig;
    for (auto style : {tinympc::MappingStyle::Library,
                       tinympc::MappingStyle::LibraryPerStep}) {
        matlib::GemminiBackend b(
            matlib::GemminiMapping::fullyOptimized());
        auto prog = bench::emitQuadSolveCached(b, style);

        std::vector<GemminiConfig> cfgs = {
            GemminiConfig::os4x4(64), GemminiConfig::os4x4(32),
            GemminiConfig::ws4x4(64), GemminiConfig::os4x4HwGemv(64)};
        GemminiConfig c = GemminiConfig::os4x4(64);
        c.name += "-rob4";
        c.robDepth = 4;
        cfgs.push_back(c);
        c = GemminiConfig::os4x4(64);
        c.name += "-slowdma";
        c.dmaFixed = 90;
        c.fenceMemPenalty = 1200;
        cfgs.push_back(c);
        c = GemminiConfig::os4x4(64);
        c.name += "-bus8";
        c.busBytes = 8;
        cfgs.push_back(c);
        // Non-power-of-two bus exercises the division fallback.
        c = GemminiConfig::os4x4(64);
        c.name += "-bus12";
        c.busBytes = 12;
        cfgs.push_back(c);

        std::vector<std::unique_ptr<systolic::GemminiModel>> ms;
        std::vector<const TimingModel *> models;
        for (const auto &cfg : cfgs) {
            ms.push_back(std::make_unique<systolic::GemminiModel>(cfg));
            models.push_back(ms.back().get());
        }
        ASSERT_GE(models.size(), 8u);
        expectLanesMatchAos(*prog, models, "gemmini");
        expectLanesMatchAos(withUnwrittenReads(*prog, isa::UopKind::FpAdd),
                            models, "gemmini, unwritten reads");
    }
}

TEST(BatchedReplay, ReplayedStreamsReadNoRegisterUnwritten)
{
    // Every stream the replay benchmark prices writes each register
    // before reading it, so its engines zero no register row; the
    // naive scalar flavor's element loops read their index first.
    using tinympc::MappingStyle;
    for (const char *backend : {"scalar", "rvv", "gemmini"}) {
        for (auto fmt :
             {matlib::NumericFormat::F32, matlib::NumericFormat::I16}) {
            for (auto style : {MappingStyle::Library,
                               MappingStyle::LibraryPerStep,
                               MappingStyle::Fused}) {
                std::unique_ptr<matlib::Backend> b;
                if (backend == std::string("scalar")) {
                    b = std::make_unique<matlib::ScalarBackend>(
                        matlib::ScalarFlavor::Optimized);
                } else if (backend == std::string("rvv")) {
                    b = std::make_unique<matlib::RvvBackend>(
                        512, matlib::RvvMapping::handOptimized());
                } else if (style != MappingStyle::Fused) {
                    b = std::make_unique<matlib::GemminiBackend>(
                        matlib::GemminiMapping::fullyOptimized());
                } else {
                    continue;
                }
                b->setFormat(fmt);
                const auto prog = bench::emitQuadSolveCached(*b, style);
                EXPECT_TRUE(prog->unwrittenReads().empty())
                    << backend << " " << static_cast<int>(style) << " "
                    << matlib::formatName(fmt);
            }
        }
    }
    matlib::ScalarBackend naive(matlib::ScalarFlavor::Naive);
    EXPECT_FALSE(bench::emitQuadSolveCached(naive, MappingStyle::Library)
                     ->unwrittenReads()
                     .empty());
}

/**
 * A seeded random program of @p n uops, half scalar and half of the
 * @p coproc kinds, whose register operands name either file at random.
 * Both files hold ids 1-47 before the first uop, so every id has a row
 * in both files; some ids are never written, and kNoReg appears too.
 * Regions open and close at random.
 */
isa::Program
randomMixedFileProgram(Rng &rng, const std::vector<isa::UopKind> &coproc,
                       int n)
{
    isa::Program p;
    for (int k = 0; k < 47; ++k) {
        p.newReg();
        p.newVReg();
    }
    auto reg = [&]() -> uint32_t {
        if (rng.uniformInt(8) == 0)
            return isa::kNoReg;
        const uint32_t idx = 1 + static_cast<uint32_t>(rng.uniformInt(47));
        return rng.uniformInt(2) ? idx | 0x80000000u : idx;
    };
    bool open = false;
    for (int i = 0; i < n; ++i) {
        if (rng.uniformInt(24) == 0) {
            if (open)
                p.endKernel();
            else
                p.beginKernel("mixed");
            open = !open;
        }
        isa::Uop u;
        u.kind = rng.uniformInt(2)
                     ? coproc[rng.uniformInt(coproc.size())]
                     : static_cast<isa::UopKind>(rng.uniformInt(
                           static_cast<uint64_t>(isa::UopKind::Branch) + 1));
        u.dst = reg();
        u.src0 = reg();
        u.src1 = reg();
        u.src2 = reg();
        u.vl = 1 + static_cast<uint32_t>(rng.uniformInt(64));
        u.sew = rng.uniformInt(4) ? 32 : 16;
        u.lmul8 = rng.uniformInt(4) ? 8 : 16;
        u.bytes = 4 * (1 + static_cast<uint32_t>(rng.uniformInt(64)));
        u.rows = static_cast<uint16_t>(1 + rng.uniformInt(8));
        u.cols = static_cast<uint16_t>(1 + rng.uniformInt(8));
        u.taken = static_cast<uint8_t>(rng.uniformInt(2));
        p.push(u);
    }
    if (open)
        p.endKernel();
    return p;
}

TEST(BatchedReplay, RandomMixedFileProgramsMatchAos)
{
    // Program::push takes each operand in the file the models access
    // it in, whatever file its id names; the engines zero only the rows
    // it records. Programs that mix the files at random must still
    // replay as runAos prices them, a long one first on this thread.
    using isa::UopKind;
    using systolic::GemminiConfig;
    using vector::SaturnConfig;
    const std::vector<UopKind> rvv = {
        UopKind::VSetVl,       UopKind::VLoad, UopKind::VStore,
        UopKind::VLoadStrided, UopKind::VArith, UopKind::VFma,
        UopKind::VRed,         UopKind::VMove};
    const std::vector<UopKind> rocc = {
        UopKind::RoccConfig,  UopKind::RoccMvin,    UopKind::RoccMvout,
        UopKind::RoccPreload, UopKind::RoccCompute, UopKind::RoccFence};
    const vector::SaturnModel sat_a(SaturnConfig::make(512, 256, true));
    const vector::SaturnModel sat_b(SaturnConfig::make(256, 128, false));
    const vector::SaturnModel sat_c(SaturnConfig::make(512, 192, true));
    const systolic::GemminiModel gem_a(GemminiConfig::os4x4(64));
    const systolic::GemminiModel gem_b(GemminiConfig::ws4x4(64));
    const systolic::GemminiModel gem_c(GemminiConfig::os4x4HwGemv(64));
    Rng rng(20261019);
    for (int k = 0; k < 6; ++k) {
        const int n =
            k == 0 ? 6000 : 50 + static_cast<int>(rng.uniformInt(400));
        const isa::Program vec_prog = randomMixedFileProgram(rng, rvv, n);
        ASSERT_FALSE(vec_prog.unwrittenReads().empty());
        expectLanesMatchAos(vec_prog, {&sat_a, &sat_b, &sat_c},
                            "saturn, mixed files");
        const isa::Program rocc_prog = randomMixedFileProgram(rng, rocc, n);
        expectLanesMatchAos(rocc_prog, {&gem_a, &gem_b, &gem_c},
                            "gemmini, mixed files");
    }
}

TEST(BatchedReplay, RegisterIdsNewRegNeverHandedOutMatchAosInEveryFamily)
{
    // A hand-built uop may name ids newReg() never handed out, or a
    // vector id that a scalar uop writes and reads in the scalar file.
    // push() raises the counters past them in the file each id is
    // accessed in, so every engine sizes its ready files to hold them
    // and prices the stream as runAos does, single and batched. Each
    // engine run gets a new thread, whose scratch starts empty: an
    // earlier run on this thread may have grown it past every id.
    isa::Program ids;
    const uint32_t a = ids.newReg();
    ids.push(isa::Uop::scalar(isa::UopKind::FpDiv, a));
    ids.push(isa::Uop::scalar(isa::UopKind::FpFma, 5000, a));
    ids.push(isa::Uop::scalar(isa::UopKind::FpFma, 70000, 5000));
    ids.push(
        isa::Uop::scalar(isa::UopKind::FpAdd, ids.newReg(), 70000, 5000));
    EXPECT_GT(ids.scalarRegCount(), 70000u);

    // FpMove a; FpDiv v5 <- a; FpAdd <- v5, with 3 scalar ids handed
    // out: the divide's result lives in scalar row 5.
    isa::Program cross;
    const uint32_t b = cross.newReg();
    const uint32_t v5 = 5u | 0x80000000u;
    ASSERT_TRUE(isa::Program::isVReg(v5));
    cross.push(isa::Uop::scalar(isa::UopKind::FpMove, b));
    cross.push(isa::Uop::scalar(isa::UopKind::FpDiv, v5, b));
    cross.push(isa::Uop::scalar(isa::UopKind::FpAdd, cross.newReg(), v5));
    EXPECT_GT(cross.scalarRegCount(), 5u);

    using vector::SaturnConfig;
    using systolic::GemminiConfig;
    const cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    const cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    const cpu::OooCore boom_m(cpu::OooConfig::boomMedium());
    const cpu::OooCore boom_s(cpu::OooConfig::boomSmall());
    const vector::SaturnModel sat_s(SaturnConfig::make(512, 256, true));
    const vector::SaturnModel sat_r(SaturnConfig::make(512, 256, false));
    const systolic::GemminiModel os(GemminiConfig::os4x4(64));
    const systolic::GemminiModel ws(GemminiConfig::ws4x4(64));
    const std::vector<std::pair<const TimingModel *, const TimingModel *>>
        families = {{&rocket, &shuttle},
                    {&boom_m, &boom_s},
                    {&sat_s, &sat_r},
                    {&os, &ws}};
    for (const isa::Program *p : {&ids, &cross}) {
        const std::string which = p == &ids ? "ids" : "cross";
        for (const auto &[first, second] : families) {
            TimingResult single;
            std::vector<TimingResult> batch;
            std::thread([&] {
                single = first->run(*p);
                batch = first->runStreamBatch(p->stream(), {first, second});
            }).join();
            const Cycles want = first->runAos(*p).cycles;
            EXPECT_EQ(single.cycles, want) << which << " " << first->name();
            ASSERT_EQ(batch.size(), 2u);
            EXPECT_EQ(batch[0].cycles, want) << which << " " << first->name();
            EXPECT_EQ(batch[1].cycles, second->runAos(*p).cycles)
                << which << " " << second->name();
        }
    }
}

TEST(BatchedReplay, MixedFamiliesGroupByFamilyInInputOrder)
{
    // One call over six models of all four families, interleaved so
    // each family's lanes are split by other families' lanes, and
    // dispatched through a model outside the list: each result must
    // land in its model's input slot and equal that model's runAos.
    // Saturn and Gemmini price the scalar stream on their frontends;
    // their unit stats tell them apart from the in-order lanes.
    matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
    auto prog =
        bench::emitQuadSolveCached(b, tinympc::MappingStyle::Library);

    const cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    const cpu::OooCore boom(cpu::OooConfig::boomMedium());
    const vector::SaturnModel saturn(
        vector::SaturnConfig::make(512, 256, true));
    const systolic::GemminiModel gemmini(
        systolic::GemminiConfig::os4x4(64));
    const cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    const cpu::OooCore mega(cpu::OooConfig::boomMega());
    const cpu::OooCore dispatcher(cpu::OooConfig::boomSmall());
    const std::vector<const TimingModel *> models = {
        &rocket, &boom, &saturn, &gemmini, &shuttle, &mega};

    std::vector<TimingResult> got =
        dispatcher.runStreamBatch(prog->stream(), models);
    ASSERT_EQ(got.size(), models.size());
    for (size_t i = 0; i < models.size(); ++i) {
        const TimingResult want = models[i]->runAos(*prog);
        const std::string where =
            "slot " + std::to_string(i) + " (" + models[i]->name() + ")";
        EXPECT_EQ(got[i].cycles, want.cycles) << where;
        EXPECT_EQ(got[i].regionCycles, want.regionCycles) << where;
        EXPECT_EQ(got[i].stats.counters(), want.stats.counters())
            << where;
    }
}

// --- work-stealing pool ---

/** Deterministic per-index work with adversarial length skew. */
uint64_t
skewedTask(size_t i)
{
    // A few long poles (sleep) between many short tasks: the shape
    // that starves a single-queue pool's tail and that stealing must
    // absorb.
    if (i % 11 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    uint64_t h = 0x9e3779b97f4a7c15ull ^ (i * 0x2545f4914f6cdd1dull);
    h ^= h >> 29;
    return h;
}

TEST(WorkStealingPool, SkewedTasksDeterministicAcrossThreadCounts)
{
    const size_t n = 67;
    std::vector<uint64_t> expect(n);
    for (size_t i = 0; i < n; ++i)
        expect[i] = skewedTask(i);

    for (int threads : {1, 4, 7}) {
        ThreadPool pool(threads);
        std::vector<uint64_t> got(n, 0);
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(n, [&](size_t i) {
            got[i] = skewedTask(i);
            ++hits[i];
        });
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(hits[i].load(), 1)
                << "threads=" << threads << " index " << i;
            EXPECT_EQ(got[i], expect[i])
                << "threads=" << threads << " index " << i;
        }
    }
}

TEST(WorkStealingPool, GrainDoesNotChangeResults)
{
    const size_t n = 53;
    std::vector<uint64_t> expect(n);
    for (size_t i = 0; i < n; ++i)
        expect[i] = skewedTask(i);

    ThreadPool pool(4);
    for (size_t grain : {size_t(1), size_t(3), size_t(16), size_t(100)}) {
        std::vector<uint64_t> got(n, 0);
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(
            n,
            [&](size_t i) {
                got[i] = skewedTask(i);
                ++hits[i];
            },
            grain);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "grain=" << grain;
            EXPECT_EQ(got[i], expect[i]) << "grain=" << grain;
        }
    }
}

TEST(WorkStealingPool, NestedSubmitUnderSkewRunsInline)
{
    for (int threads : {1, 4, 7}) {
        ThreadPool pool(threads);
        std::atomic<int> total{0};
        pool.parallelFor(13, [&](size_t i) {
            if (i % 5 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            pool.parallelFor(7, [&](size_t) { ++total; });
        });
        EXPECT_EQ(total.load(), 13 * 7) << "threads=" << threads;
    }
}

TEST(WorkStealingPool, ExceptionPropagatesAndRangeDrains)
{
    ThreadPool pool(4);
    // Grain > 1 matters: the throwing index must not abort the rest
    // of its grain chunk (the sweep's auto grain batches episodes).
    for (size_t grain : {size_t(1), size_t(4), size_t(31)}) {
        std::vector<std::atomic<int>> hits(31);
        for (auto &h : hits)
            h = 0;
        EXPECT_THROW(pool.parallelFor(
                         hits.size(),
                         [&](size_t i) {
                             ++hits[i];
                             if (i == 7)
                                 throw std::runtime_error("boom");
                         },
                         grain),
                     std::runtime_error);
        // The whole range still drained exactly once each.
        for (auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "grain=" << grain;
    }
    // The pool survives and stays usable.
    std::atomic<int> n{0};
    pool.parallelFor(9, [&](size_t) { ++n; });
    EXPECT_EQ(n.load(), 9);
}

TEST(WorkStealingPool, StealingActuallyMigratesWork)
{
    // One pole task in block [0, 16) that holds its thread until
    // another task of that block has run: with stealing, total wall
    // time approaches the pole, not pole + rest. Verify the mechanism
    // (not wall time, which is flaky on CI): record which thread ran
    // each index and require at least two distinct threads to have
    // executed tasks from the pole's block. The pole is the first task
    // of the block to start (index 0 on the caller, unless a thief took
    // the whole block first), so every other task of the block runs on
    // another thread. It waits for one instead of sleeping a fixed
    // time, because on a loaded machine the other participants may not
    // run at all during a short sleep; the deadline only bounds a
    // failing run.
    ThreadPool pool(4);
    const size_t n = 64;
    std::vector<std::thread::id> ran(n);
    std::atomic<bool> pole_started{false}, stolen{false};
    pool.parallelFor(n, [&](size_t i) {
        if (i < 16 && !pole_started.exchange(true)) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!stolen.load() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        } else if (i < 16) {
            stolen.store(true);
        }
        ran[i] = std::this_thread::get_id();
    });
    // Participant 0 (the caller) owns block [0, 16); the rest of the
    // block must have been stolen while the pole held its thread.
    std::set<std::thread::id> block0_threads(ran.begin(),
                                             ran.begin() + 16);
    EXPECT_GE(block0_threads.size(), 2u)
        << "no stealing observed on the skewed block";
}

// --- sweep grain ---

TEST(SweepGrain, DefaultGrainHeuristic)
{
    EXPECT_EQ(hil::SweepRunner::defaultGrain(0, 1), 1u);
    EXPECT_EQ(hil::SweepRunner::defaultGrain(64, 1), 64u); // serial
    EXPECT_EQ(hil::SweepRunner::defaultGrain(6, 4), 1u);
    EXPECT_EQ(hil::SweepRunner::defaultGrain(64, 4), 4u);
    EXPECT_EQ(hil::SweepRunner::defaultGrain(1000, 8), 31u);
}

TEST(SweepGrain, ChunkedEpisodesBitIdenticalToSerial)
{
    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    hil::HilConfig cfg;
    cfg.timing = hil::vectorControllerTiming(drone, 0.02, 10);
    cfg.socFreqHz = 100e6;

    ThreadPool serial(1);
    auto base = hil::SweepRunner(serial).runEpisodes(
        drone, plant::Difficulty::Easy, 6, cfg);

    ThreadPool pooled(4);
    for (int grain : {1, 2, 5}) {
        auto got = hil::SweepRunner(pooled).setGrain(grain).runEpisodes(
            drone, plant::Difficulty::Easy, 6, cfg);
        ASSERT_EQ(got.size(), base.size()) << "grain=" << grain;
        for (size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(got[i].success, base[i].success) << i;
            EXPECT_EQ(got[i].missionTimeS, base[i].missionTimeS) << i;
            EXPECT_EQ(got[i].rotorEnergyJ, base[i].rotorEnergyJ) << i;
            EXPECT_EQ(got[i].socEnergyJ, base[i].socEnergyJ) << i;
        }
    }
}

} // namespace
} // namespace rtoc
