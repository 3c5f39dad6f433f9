/**
 * @file
 * Tests for the schedule transform pass and the schedule searcher.
 *
 * Transform legality: every candidate recipe, applied to real emitted
 * streams from all backend families, must produce a region-local
 * permutation that preserves register def/use order (checked by the
 * independent verifySchedule oracle), the region table, and the uop
 * multiset. Replays of scheduled streams must reconcile region uop
 * and invocation sums exactly with the baseline on all four timing
 * families, and batched replay of a scheduled stream must stay
 * bit-identical to sequential.
 *
 * Search: deterministic across repeated serial runs and a 4-thread
 * pool; winners round-trip through the SchedSpec codec and the
 * DiskCache "sched" namespace; the codec rejects truncated, bit-flipped
 * and oversized-count payloads; corrupt blobs (bad envelope bytes or a
 * valid envelope holding garbage) are re-searched and overwritten.
 *
 * Calibration: each named target's fit over scheduled streams equals
 * the line through the scheduled replays at the longer points.
 *
 * This binary latches RTOC_SCHED=1 before main so the opt-in layer is
 * live here; the off-mode identity contract lives in
 * test_schedule_off.cc (own process, env untouched).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "hil/timing.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "isa/sched_search.hh"
#include "isa/schedule.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "obs/registry.hh"
#include "plant/registry.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

using isa::Program;
using isa::SchedSpec;
using isa::Uop;
using isa::UopKind;

/** Latch the schedule layer on before any schedEnabled() call. */
const bool kSchedEnv = [] {
    setenv("RTOC_SCHED", "1", 1);
    return true;
}();

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/rtoc-sched-test-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    return dir ? dir : "/tmp/rtoc-sched-test-fallback";
}

/** Emitted streams from every backend family (small forced solves). */
std::vector<std::shared_ptr<const Program>>
familyStreams()
{
    std::vector<std::shared_ptr<const Program>> out;
    matlib::ScalarBackend scalar(matlib::ScalarFlavor::Optimized);
    out.push_back(
        bench::emitQuadSolveCached(scalar, tinympc::MappingStyle::Library));
    matlib::RvvBackend rvv(512, matlib::RvvMapping::handOptimized());
    out.push_back(
        bench::emitQuadSolveCached(rvv, tinympc::MappingStyle::Fused));
    matlib::GemminiBackend gem(matlib::GemminiMapping::fullyOptimized());
    out.push_back(
        bench::emitQuadSolveCached(gem, tinympc::MappingStyle::Library));
    return out;
}

/** Two independent FP chains in one region: serial emission stalls an
 *  in-order core on every op, so interleaving schedules must win. */
Program
twoChainProgram(int chain_len)
{
    Program p;
    p.beginKernel("body");
    for (int chain = 0; chain < 2; ++chain) {
        uint32_t acc = p.newReg();
        p.push(Uop::scalar(UopKind::FpMove, acc));
        for (int i = 0; i < chain_len; ++i) {
            uint32_t next = p.newReg();
            p.push(Uop::scalar(UopKind::FpFma, next, acc));
            acc = next;
        }
    }
    p.endKernel();
    return p;
}

TEST(ScheduleTransforms, CandidatesLegalOnEveryFamilyStream)
{
    for (const auto &prog : familyStreams()) {
        for (const SchedSpec &spec : isa::enumerateSchedSpecs()) {
            isa::ScheduleResult r = isa::applySchedule(*prog, spec);
            std::string why;
            EXPECT_TRUE(isa::verifySchedule(*prog, r.prog, r.perm, &why))
                << spec.describe() << ": " << why;

            // Permutations never add or drop uops, and the region
            // table (ids and [begin, end) ranges) is untouched.
            ASSERT_EQ(r.prog.size(), prog->size()) << spec.describe();
            ASSERT_EQ(r.prog.kernels().size(), prog->kernels().size());
            for (size_t k = 0; k < prog->kernels().size(); ++k) {
                EXPECT_EQ(r.prog.kernels()[k].id, prog->kernels()[k].id);
                EXPECT_EQ(r.prog.kernels()[k].begin,
                          prog->kernels()[k].begin);
                EXPECT_EQ(r.prog.kernels()[k].end,
                          prog->kernels()[k].end);
            }
            for (size_t i = 0; i < r.perm.size(); ++i) {
                ASSERT_LT(r.perm[i], prog->size());
                EXPECT_EQ(r.prog.uop(i), prog->uop(r.perm[i]))
                    << spec.describe() << " index " << i;
            }
        }
    }
}

TEST(ScheduleTransforms, IdentitySpecIsIdentity)
{
    matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
    auto prog =
        bench::emitQuadSolveCached(b, tinympc::MappingStyle::Library);
    isa::ScheduleResult r = isa::applySchedule(*prog, SchedSpec{});
    ASSERT_EQ(r.prog.size(), prog->size());
    for (size_t i = 0; i < r.perm.size(); ++i) {
        EXPECT_EQ(r.perm[i], i);
        ASSERT_EQ(r.prog.uop(i), prog->uop(i));
    }
}

TEST(ScheduleTransforms, VerifierRejectsIllegalReorder)
{
    // Swap a dependent FMA pair by hand: the oracle must refuse it.
    Program p = twoChainProgram(4);
    std::vector<uint32_t> perm(p.size());
    for (size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<uint32_t>(i);
    // Uop 1 defines the reg uop 2 reads: swapping them breaks RAW.
    std::swap(perm[1], perm[2]);
    Program bad;
    for (uint32_t o : perm)
        bad.push(p.uop(o));
    bad.assemble(p.kernels(), p.scalarRegCount(), p.vectorRegCount());
    std::string why;
    EXPECT_FALSE(isa::verifySchedule(p, bad, perm, &why));
    EXPECT_FALSE(why.empty());
}

TEST(ScheduleTransforms, RegionSumsReconcileOnAllFourFamilies)
{
    // One interleaving recipe per family stream; the scheduled replay
    // must attribute exactly the baseline's per-region uop counts and
    // invocations (permutation within regions cannot move work across
    // region boundaries), and region cycles must sum consistently.
    SchedSpec reorder8{{{isa::SchedKind::Reorder, 8}}, {}};

    auto streams = familyStreams();
    cpu::InOrderCore inorder(cpu::InOrderConfig::shuttle());
    cpu::OooCore ooo(cpu::OooConfig::boomMedium());
    vector::SaturnModel saturn(vector::SaturnConfig::make(512, 256, true));
    systolic::GemminiModel gemmini(systolic::GemminiConfig::os4x4());

    struct Case
    {
        const cpu::TimingModel *model;
        const Program *prog;
        const char *label;
    };
    std::vector<Case> cases = {
        {&inorder, streams[0].get(), "inorder"},
        {&ooo, streams[0].get(), "ooo"},
        {&saturn, streams[1].get(), "saturn"},
        {&gemmini, streams[2].get(), "gemmini"},
    };
    for (const Case &c : cases) {
        isa::ScheduleResult r = isa::applySchedule(*c.prog, reorder8);
        std::string why;
        ASSERT_TRUE(isa::verifySchedule(*c.prog, r.prog, r.perm, &why))
            << c.label << ": " << why;

        cpu::TimingResult base = c.model->run(*c.prog);
        cpu::TimingResult sched = c.model->run(r.prog);
        EXPECT_GT(sched.cycles, 0u) << c.label;

        // Per-region-name uop counts are invariant by construction.
        std::map<std::string, uint64_t> base_uops, sched_uops;
        for (const isa::KernelRegion &k : c.prog->kernels())
            base_uops[k.name()] += k.end - k.begin;
        for (const isa::KernelRegion &k : r.prog.kernels())
            sched_uops[k.name()] += k.end - k.begin;
        EXPECT_EQ(base_uops, sched_uops) << c.label;

        auto base_bd = base.kernelBreakdown(*c.prog);
        auto sched_bd = sched.kernelBreakdown(r.prog);
        ASSERT_EQ(base_bd.size(), sched_bd.size()) << c.label;
        uint64_t base_sum = 0, sched_sum = 0;
        for (size_t k = 0; k < base_bd.size(); ++k) {
            EXPECT_EQ(base_bd[k].name, sched_bd[k].name) << c.label;
            EXPECT_EQ(base_bd[k].invocations, sched_bd[k].invocations)
                << c.label << " region " << base_bd[k].name;
            base_sum += base_bd[k].cycles;
            sched_sum += sched_bd[k].cycles;
        }
        // Region attribution covers the stream on both replays: sums
        // are bounded by the totals on each side.
        EXPECT_LE(sched_sum, sched.cycles) << c.label;
        EXPECT_LE(base_sum, base.cycles) << c.label;

        // Batched replay of a *scheduled* stream stays bit-exact.
        std::vector<const cpu::TimingModel *> group = {c.model, c.model};
        std::vector<cpu::TimingResult> batch =
            c.model->runStreamBatch(r.prog.stream(), group);
        ASSERT_EQ(batch.size(), 2u) << c.label;
        EXPECT_EQ(batch[0].cycles, sched.cycles) << c.label;
        EXPECT_EQ(batch[1].cycles, sched.cycles) << c.label;
    }
}

TEST(ScheduleSearch, FindsInterleavingWinOnSerialChains)
{
    Program p = twoChainProgram(12);
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    auto cost = [&](const Program &prog) {
        return shuttle.run(prog).cycles;
    };
    isa::SchedSearchResult res = isa::searchSchedule(p, cost, 24);
    EXPECT_GT(res.candidatesScored, 0);
    // Two independent latency-4 chains emitted serially: any
    // interleaving candidate roughly halves the stall time, so the
    // search must find a strict win.
    EXPECT_LT(res.bestCycles, res.baseCycles);
    EXPECT_FALSE(res.spec.empty());

    // The winner's cost claim is reproducible.
    isa::ScheduleResult r = isa::applySchedule(p, res.spec);
    EXPECT_EQ(cost(r.prog), res.bestCycles);
    std::string why;
    EXPECT_TRUE(isa::verifySchedule(p, r.prog, r.perm, &why)) << why;
}

TEST(ScheduleSearch, DeterministicSerialAndAcrossPoolThreads)
{
    Program p = twoChainProgram(10);
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    auto cost = [&](const Program &prog) {
        return shuttle.run(prog).cycles;
    };
    isa::SchedSearchResult serial = isa::searchSchedule(p, cost, 24);
    isa::SchedSearchResult again = isa::searchSchedule(p, cost, 24);
    EXPECT_EQ(serial.spec.describe(), again.spec.describe());
    EXPECT_EQ(serial.bestCycles, again.bestCycles);
    EXPECT_EQ(serial.candidatesScored, again.candidatesScored);

    ThreadPool pool(4);
    std::vector<isa::SchedSearchResult> results(8);
    pool.parallelFor(results.size(), [&](size_t i) {
        cpu::InOrderCore local(cpu::InOrderConfig::shuttle());
        results[i] = isa::searchSchedule(
            p, [&](const Program &prog) { return local.run(prog).cycles; },
            24);
    });
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].spec.describe(), serial.spec.describe())
            << i;
        EXPECT_EQ(results[i].bestCycles, serial.bestCycles) << i;
    }
}

TEST(ScheduleSearch, CapLimitsScoredCandidates)
{
    Program p = twoChainProgram(10);
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    auto cost = [&](const Program &prog) {
        return shuttle.run(prog).cycles;
    };
    isa::SchedSearchResult res = isa::searchSchedule(p, cost, 3);
    EXPECT_LE(res.candidatesScored, 3);
}

TEST(SchedSpecCodec, RoundTripAndDigest)
{
    SchedSpec spec;
    spec.steps = {{isa::SchedKind::Fission, 0},
                  {isa::SchedKind::Reorder, 8}};
    spec.overrides.push_back({"fp1", {{isa::SchedKind::Unroll, 2}}});
    spec.overrides.push_back({"gemv", {}});

    std::string blob = isa::encodeSchedSpec(spec);
    std::optional<SchedSpec> dec = isa::decodeSchedSpec(blob);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(dec->describe(), spec.describe());
    EXPECT_EQ(isa::schedSpecDigest(*dec), isa::schedSpecDigest(spec));

    // Distinct specs get distinct digests; the empty spec is "0".
    EXPECT_EQ(isa::schedSpecDigest(SchedSpec{}), "0");
    SchedSpec other;
    other.steps = {{isa::SchedKind::Reorder, 4}};
    EXPECT_NE(isa::schedSpecDigest(other), isa::schedSpecDigest(spec));

    // Truncated and garbage payloads decode to nullopt, not UB.
    EXPECT_FALSE(isa::decodeSchedSpec(blob.substr(0, blob.size() / 2))
                     .has_value());
    EXPECT_FALSE(isa::decodeSchedSpec("not a sched spec").has_value());
    EXPECT_FALSE(isa::decodeSchedSpec("").has_value());
}

TEST(SchedSpecCodec, HostilePayloadsRejected)
{
    // Every proper prefix of a valid spec with two overrides decodes to
    // nullopt, and so do step and override counts of 65, 4097 and
    // 0xFFFFFFFF. A single-bit flip decodes to nullopt or to the spec
    // whose encoding is the flipped payload.
    SchedSpec spec;
    spec.steps = {{isa::SchedKind::Fission, 0},
                  {isa::SchedKind::Reorder, 8}};
    spec.overrides.push_back({"fp1", {{isa::SchedKind::Unroll, 2}}});
    spec.overrides.push_back({"gemv", {}});
    const std::string good = isa::encodeSchedSpec(spec);
    ASSERT_TRUE(isa::decodeSchedSpec(good).has_value());

    for (size_t n = 0; n < good.size(); ++n)
        EXPECT_FALSE(isa::decodeSchedSpec(good.substr(0, n)).has_value())
            << "prefix " << n;
    for (size_t bit = 0; bit < 8 * good.size(); ++bit) {
        std::string flipped = good;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        const std::optional<SchedSpec> d = isa::decodeSchedSpec(flipped);
        if (d) {
            EXPECT_EQ(isa::encodeSchedSpec(*d), flipped) << "bit " << bit;
        }
    }

    // u32 version; u32 step count and 3 bytes per step; u32 override
    // count; per override a u32-length region name and its steps.
    const size_t steps_at = 4;
    const size_t ovr_at = steps_at + 4 + 3 * spec.steps.size();
    const size_t ovr0_steps_at =
        ovr_at + 4 + 4 + spec.overrides[0].region.size();
    const size_t ovr1_steps_at = ovr0_steps_at + 4 +
                                 3 * spec.overrides[0].steps.size() + 4 +
                                 spec.overrides[1].region.size();
    ASSERT_EQ(ovr1_steps_at + 4, good.size());
    const std::pair<size_t, uint32_t> counts[] = {
        {steps_at, 2}, {ovr_at, 2}, {ovr0_steps_at, 1}, {ovr1_steps_at, 0}};
    for (const auto &[at, want] : counts) {
        uint32_t n = 0;
        std::memcpy(&n, &good[at], sizeof(n));
        ASSERT_EQ(n, want) << "count at " << at;
        for (uint32_t bad : {65u, 4097u, 0xFFFFFFFFu}) {
            std::string hostile = good;
            std::memcpy(&hostile[at], &bad, sizeof(bad));
            EXPECT_FALSE(isa::decodeSchedSpec(hostile).has_value())
                << "count " << bad << " at " << at;
        }
    }
}

TEST(ScheduledStream, MemoDiskRoundTripAndCorruptRegeneration)
{
    ASSERT_TRUE(isa::schedEnabled()) << "env latch failed";
    const std::string dir = makeTempDir();

    Program built = twoChainProgram(12);
    auto baseline = std::make_shared<const Program>(std::move(built));
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    std::atomic<int> cost_calls{0};
    auto cost = [&](const Program &prog) {
        ++cost_calls;
        return shuttle.run(prog).cycles;
    };
    const std::string model_key = "modelA";
    const std::string prog_key = "progK";
    const std::string search_key = csprintf(
        "sched1|%s|%s|cap%d", model_key.c_str(), prog_key.c_str(),
        isa::kSchedCap);

    // Cold: searches (cost called), persists the recipe, returns a
    // scheduled stream distinct from the baseline.
    isa::DiskCache disk(dir, "test-fp");
    isa::ProgramCache cache(&disk);
    isa::schedMemo().clear();
    auto s1 = isa::scheduledStream(model_key, prog_key, baseline, cost,
                                   cache, &disk);
    EXPECT_GT(cost_calls.load(), 0);
    ASSERT_NE(s1, nullptr);
    EXPECT_NE(s1.get(), baseline.get());
    EXPECT_EQ(s1->size(), baseline->size());
    const uint64_t sched_cycles = shuttle.run(*s1).cycles;
    EXPECT_LT(sched_cycles, shuttle.run(*baseline).cycles);

    // Memo hit: same pointer, no new search.
    const int calls_after_search = cost_calls.load();
    auto s2 = isa::scheduledStream(model_key, prog_key, baseline, cost,
                                   cache, &disk);
    EXPECT_EQ(s2.get(), s1.get());
    EXPECT_EQ(cost_calls.load(), calls_after_search);

    // Warm process (memo dropped): the recipe decodes from disk —
    // zero cost replays — and re-applies to the same cycles.
    isa::schedMemo().clear();
    cost_calls = 0;
    isa::DiskCache disk2(dir, "test-fp");
    isa::ProgramCache cache2(&disk2);
    auto s3 = isa::scheduledStream(model_key, prog_key, baseline, cost,
                                   cache2, &disk2);
    EXPECT_EQ(cost_calls.load(), 0);
    EXPECT_EQ(shuttle.run(*s3).cycles, sched_cycles);

    // Corrupt envelope bytes: checksum rejects, search re-runs and
    // overwrites.
    {
        const std::string path = disk2.pathFor("sched", search_key);
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(12);
        f.write("\xde\xad\xbe\xef", 4);
    }
    isa::schedMemo().clear();
    cost_calls = 0;
    isa::DiskCache disk3(dir, "test-fp");
    isa::ProgramCache cache3(&disk3);
    auto s4 = isa::scheduledStream(model_key, prog_key, baseline, cost,
                                   cache3, &disk3);
    EXPECT_GT(cost_calls.load(), 0);
    EXPECT_EQ(shuttle.run(*s4).cycles, sched_cycles);

    // Valid envelope holding an undecodable payload: decode fails,
    // search re-runs and overwrites with a good blob.
    disk3.put("sched", search_key, "garbage payload");
    isa::schedMemo().clear();
    cost_calls = 0;
    auto s5 = isa::scheduledStream(model_key, prog_key, baseline, cost,
                                   cache3, &disk3);
    EXPECT_GT(cost_calls.load(), 0);
    EXPECT_EQ(shuttle.run(*s5).cycles, sched_cycles);
    isa::schedMemo().clear();
    cost_calls = 0;
    auto s6 = isa::scheduledStream(model_key, prog_key, baseline, cost,
                                   cache3, &disk3);
    EXPECT_EQ(cost_calls.load(), 0);
    EXPECT_EQ(shuttle.run(*s6).cycles, sched_cycles);
}

TEST(CalibrationPremise, ScheduledShortFitEqualsTheLongOne)
{
    // With schedule search on, a calibration replays each fit point's
    // searched schedule, so the premise of fitting at 5 and 10 ADMM
    // iterations and 1 and 2 Riccati sweeps must hold for scheduled
    // streams too: every field of the fit equals the line through the
    // scheduled replays at (5, 25) and (2, 8), on every named target
    // and registry plant. One element width bounds the searches' cost;
    // test_timing_cache checks both widths and every point between.
    struct Target
    {
        const char *name;
        std::unique_ptr<cpu::TimingModel> model;
        std::unique_ptr<matlib::Backend> backend;
        tinympc::MappingStyle style;
    };
    Target targets[] = {
        {"scalar",
         std::make_unique<cpu::InOrderCore>(cpu::InOrderConfig::shuttle()),
         std::make_unique<matlib::ScalarBackend>(
             matlib::ScalarFlavor::Optimized),
         tinympc::MappingStyle::Library},
        {"vector",
         std::make_unique<vector::SaturnModel>(
             vector::SaturnConfig::make(512, 256, true)),
         std::make_unique<matlib::RvvBackend>(
             512, matlib::RvvMapping::handOptimized()),
         tinympc::MappingStyle::Fused},
        {"gemmini",
         std::make_unique<systolic::GemminiModel>(
             systolic::GemminiConfig::os4x4()),
         std::make_unique<matlib::GemminiBackend>(
             matlib::GemminiMapping::fullyOptimized()),
         tinympc::MappingStyle::Library},
    };
    const plant::ScenarioRegistry &reg = plant::ScenarioRegistry::global();
    for (Target &t : targets) {
        // Each stream is scheduled as a calibration schedules it, with
        // the winning recipes in the process memo and the disk cache.
        // The scheduled programs stay in a cache of the test's own.
        isa::ProgramCache scheduled;
        auto scheduled_cycles = [&](const std::string &key, Program prog) {
            const std::shared_ptr<const Program> s = isa::scheduledStream(
                t.model->cacheKey(), key,
                std::make_shared<const Program>(std::move(prog)),
                [&](const Program &p) { return t.model->run(p).cycles; },
                scheduled, &isa::DiskCache::global());
            return static_cast<double>(t.model->run(*s).cycles);
        };
        for (const std::string &name : reg.plantNames()) {
            const std::unique_ptr<plant::Plant> p = reg.makePlant(name);
            auto solve = [&](int iters) {
                Program prog;
                hil::emitSolveStream(prog, *t.backend, t.style, *p, 0.02, 10,
                                     iters);
                return scheduled_cycles(
                    hil::solveStreamKey(*t.backend, t.style, p->nx(),
                                        p->nu(), 10, iters),
                    std::move(prog));
            };
            auto refresh = [&](int sweeps) {
                Program prog;
                tinympc::Workspace ws = p->buildWorkspace(0.02, 10);
                t.backend->setProgram(&prog);
                tinympc::emitModelRefresh(ws, *t.backend, sweeps);
                t.backend->setProgram(nullptr);
                return scheduled_cycles(
                    csprintf("premise-refresh:%s:nx%d:nu%d:it%d",
                             t.backend->cacheKey().c_str(), p->nx(),
                             p->nu(), sweeps),
                    std::move(prog));
            };
            const double c5 = solve(5);
            const double c25 = solve(25);
            const double r2 = refresh(2);
            const double r8 = refresh(8);
            const double per_iter = (c25 - c5) / 20.0;
            const double refresh_per_iter = (r8 - r2) / 6.0;
            const std::string label = csprintf("%s %s", t.name, name.c_str());
            const hil::ControllerTiming got =
                hil::namedControllerTiming(t.name, *p, 0.02, 10, true);
            EXPECT_EQ(got.cyclesPerIter, per_iter) << label;
            EXPECT_EQ(got.baseCycles, std::max(c5 - 5.0 * per_iter, 0.0))
                << label;
            EXPECT_EQ(got.refreshCyclesPerIter, refresh_per_iter) << label;
            EXPECT_EQ(got.refreshBaseCycles,
                      std::max(r2 - 2.0 * refresh_per_iter, 0.0))
                << label;
        }
    }
}

TEST(ScheduledStream, CountersAndKeySuffixLive)
{
    // RTOC_SCHED=1 in this binary: the key suffix is non-empty and
    // the schedule counters exist on the registry after use.
    EXPECT_EQ(isa::schedKeySuffix(),
              csprintf("|sched:v1:cap%d", isa::kSchedCap));
    obs::Snapshot snap = obs::Registry::global().snapshot();
    EXPECT_GT(snap.get("sched.searches"), 0u);
    EXPECT_GT(snap.get("sched.candidates_scored"), 0u);
}

} // namespace
} // namespace rtoc
