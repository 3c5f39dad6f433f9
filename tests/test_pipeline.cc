/**
 * @file
 * Tests for the trace-cached micro-op pipeline and the parallel sweep
 * engine: cached-vs-fresh stream bit-exactness across backends and
 * mapping styles, timing-model determinism over replays (the scratch
 * reuse must never leak state between runs or threads), thread-pool
 * semantics, and serial-vs-parallel sweep equality under fixed seeds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#include "bench_util.hh"
#include "common/ring_fifo.hh"
#include "common/thread_pool.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "hil/sweep.hh"
#include "hil/timing.hh"
#include "isa/memo.hh"
#include "isa/program_cache.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "plant/quad_plant.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

bool
samePrograms(const isa::Program &a, const isa::Program &b)
{
    if (a.size() != b.size() || a.kernels().size() != b.kernels().size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a.uop(i) != b.uop(i))
            return false;
    for (size_t i = 0; i < a.kernels().size(); ++i) {
        const auto &ka = a.kernels()[i];
        const auto &kb = b.kernels()[i];
        if (ka.id != kb.id || ka.begin != kb.begin || ka.end != kb.end)
            return false;
    }
    return true;
}

// --- kernel-name interning ---

TEST(KernelIntern, StableIdsAndRoundTrip)
{
    isa::KernelId a1 = isa::internKernel("intern_test_a");
    isa::KernelId b = isa::internKernel("intern_test_b");
    isa::KernelId a2 = isa::internKernel("intern_test_a");
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_EQ(isa::kernelName(a1), "intern_test_a");
    EXPECT_EQ(isa::kernelName(b), "intern_test_b");
}

// --- cached vs fresh emission, all backends x mapping styles ---

struct EmitCase
{
    const char *label;
    std::function<std::unique_ptr<matlib::Backend>()> make;
    tinympc::MappingStyle style;
};

std::vector<EmitCase>
emitCases()
{
    using tinympc::MappingStyle;
    std::vector<EmitCase> cases;
    for (auto style : {MappingStyle::Library, MappingStyle::LibraryPerStep,
                       MappingStyle::Fused}) {
        cases.push_back({"scalar",
                         [] {
                             return std::make_unique<matlib::ScalarBackend>(
                                 matlib::ScalarFlavor::Optimized);
                         },
                         style});
        cases.push_back({"rvv",
                         [] {
                             return std::make_unique<matlib::RvvBackend>(
                                 512,
                                 matlib::RvvMapping::handOptimized());
                         },
                         style});
    }
    // Gemmini: the library-style mappings the paper evaluates.
    for (auto style :
         {tinympc::MappingStyle::Library,
          tinympc::MappingStyle::LibraryPerStep}) {
        cases.push_back({"gemmini",
                         [] {
                             return std::make_unique<matlib::GemminiBackend>(
                                 matlib::GemminiMapping::fullyOptimized());
                         },
                         style});
    }
    return cases;
}

TEST(ProgramCache, CachedReplayBitIdenticalToFreshEmission)
{
    for (const auto &c : emitCases()) {
        auto fresh_backend = c.make();
        isa::Program fresh =
            bench::emitQuadSolve(*fresh_backend, c.style);

        auto cached_backend = c.make();
        auto cached =
            bench::emitQuadSolveCached(*cached_backend, c.style);
        ASSERT_TRUE(cached != nullptr);
        EXPECT_TRUE(samePrograms(fresh, *cached))
            << c.label << " style " << static_cast<int>(c.style);

        // Second fetch returns the same shared object (a hit).
        auto again_backend = c.make();
        auto again = bench::emitQuadSolveCached(*again_backend, c.style);
        EXPECT_EQ(cached.get(), again.get());
    }
}

TEST(ProgramCache, EmissionIsDroneIndependent)
{
    // The solve-stream key (hil::solveStreamKey) deliberately omits
    // the drone: parameters change the numbers flowing through the
    // stream, never the stream itself. Pin that premise across
    // all three Table-1 drones and two solve shapes.
    for (auto style : {tinympc::MappingStyle::Library,
                       tinympc::MappingStyle::Fused}) {
        matlib::RvvBackend b0(512, matlib::RvvMapping::handOptimized());
        isa::Program cf = bench::emitQuadSolve(
            b0, style, 5, quad::DroneParams::crazyflie());
        matlib::RvvBackend b1(512, matlib::RvvMapping::handOptimized());
        isa::Program hawk = bench::emitQuadSolve(
            b1, style, 5, quad::DroneParams::hawk());
        matlib::RvvBackend b2(512, matlib::RvvMapping::handOptimized());
        isa::Program heron = bench::emitQuadSolve(
            b2, style, 5, quad::DroneParams::heron());
        EXPECT_TRUE(samePrograms(cf, hawk));
        EXPECT_TRUE(samePrograms(cf, heron));
    }
}

TEST(ProgramCache, StatsCountHitsAndMisses)
{
    isa::ProgramCache cache;
    int emissions = 0;
    auto emit = [&](isa::Program &p) {
        ++emissions;
        p.push(isa::Uop::scalar(isa::UopKind::IntAlu, p.newReg()));
    };
    auto a = cache.getOrEmit("k1", emit);
    auto b = cache.getOrEmit("k1", emit);
    auto c = cache.getOrEmit("k2", emit);
    EXPECT_EQ(emissions, 2);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    isa::MemoStats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(cache.cachedUops(), 2u);
}

// --- isa::Memo: one compute per key, distinct keys in parallel ---

TEST(Memo, RacingRequestsOfOneKeyComputeOnce)
{
    isa::Memo<std::shared_ptr<const int>> memo;
    ThreadPool pool(4);
    constexpr size_t kRequests = 16;
    std::atomic<int> computes{0};
    std::vector<std::shared_ptr<const int>> got(kRequests);
    pool.parallelFor(kRequests, [&](size_t i) {
        got[i] = memo.get("k", [&] {
            ++computes;
            // Hold the key so the other workers queue on it.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::make_shared<const int>(42);
        });
    });
    EXPECT_EQ(computes.load(), 1);
    for (const auto &v : got)
        EXPECT_EQ(v.get(), got[0].get());
    isa::MemoStats st = memo.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, kRequests - 1);
    EXPECT_EQ(st.computes, 1u);
}

TEST(Memo, DistinctKeysComputeInParallel)
{
    isa::Memo<int> memo;
    std::mutex mu;
    std::condition_variable cv;
    int started = 0;
    // Each compute waits, bounded, for the other key's compute to
    // start; one lock serializing distinct keys would time out and
    // let the first compute see only itself.
    auto compute = [&] {
        std::unique_lock<std::mutex> lk(mu);
        ++started;
        cv.notify_all();
        cv.wait_for(lk, std::chrono::seconds(10),
                    [&] { return started == 2; });
        return started;
    };
    int a = 0, b = 0;
    std::thread ta([&] { a = memo.get("a", compute); });
    std::thread tb([&] { b = memo.get("b", compute); });
    ta.join();
    tb.join();
    EXPECT_EQ(a, 2);
    EXPECT_EQ(b, 2);
}

// --- timing models over cached replays: determinism, thread safety ---

TEST(TimingReplay, RepeatedRunsIdenticalOnAllModels)
{
    matlib::ScalarBackend sb(matlib::ScalarFlavor::Optimized);
    auto sp =
        bench::emitQuadSolveCached(sb, tinympc::MappingStyle::Library);
    matlib::RvvBackend rb(512, matlib::RvvMapping::handOptimized());
    auto rp = bench::emitQuadSolveCached(rb, tinympc::MappingStyle::Fused);
    matlib::GemminiBackend gb(matlib::GemminiMapping::fullyOptimized());
    auto gp =
        bench::emitQuadSolveCached(gb, tinympc::MappingStyle::Library);

    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    cpu::OooCore boom(cpu::OooConfig::boomMedium());
    vector::SaturnModel saturn(vector::SaturnConfig::make(512, 256, true));
    systolic::GemminiModel gem(systolic::GemminiConfig::os4x4(64));

    for (int rep = 0; rep < 3; ++rep) {
        static uint64_t first[4] = {0, 0, 0, 0};
        uint64_t got[4] = {shuttle.run(*sp).cycles, boom.run(*sp).cycles,
                           saturn.run(*rp).cycles, gem.run(*gp).cycles};
        for (int i = 0; i < 4; ++i) {
            if (rep == 0)
                first[i] = got[i];
            else
                EXPECT_EQ(got[i], first[i]) << "model " << i;
        }
    }
}

TEST(TimingReplay, ConcurrentRunsMatchSerialRuns)
{
    matlib::RvvBackend rb(512, matlib::RvvMapping::handOptimized());
    auto prog =
        bench::emitQuadSolveCached(rb, tinympc::MappingStyle::Fused);
    vector::SaturnModel saturn(vector::SaturnConfig::make(512, 256, true));
    uint64_t expect = saturn.run(*prog).cycles;

    ThreadPool pool(4);
    std::vector<uint64_t> got(16, 0);
    pool.parallelFor(got.size(), [&](size_t i) {
        got[i] = saturn.run(*prog).cycles;
    });
    for (uint64_t g : got)
        EXPECT_EQ(g, expect);
}

// --- thread pool semantics ---

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline)
{
    ThreadPool pool(3);
    std::atomic<int> total{0};
    pool.parallelFor(5, [&](size_t) {
        pool.parallelFor(7, [&](size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 35);
}

TEST(ThreadPoolTest, ExceptionPropagates)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](size_t i) {
                                      if (i == 3)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool survives the throw and stays usable.
    std::atomic<int> n{0};
    pool.parallelFor(4, [&](size_t) { ++n; });
    EXPECT_EQ(n.load(), 4);
}

// --- ring fifo ---

TEST(RingFifoTest, FifoOrderAcrossGrowth)
{
    RingFifo f;
    EXPECT_TRUE(f.empty());
    for (uint64_t i = 0; i < 100; ++i)
        f.pushBack(i);
    for (uint64_t i = 0; i < 50; ++i) {
        EXPECT_EQ(f.front(), i);
        f.popFront();
    }
    for (uint64_t i = 100; i < 300; ++i)
        f.pushBack(i); // forces wrap + growth with live elements
    for (uint64_t i = 50; i < 300; ++i) {
        EXPECT_EQ(f.front(), i);
        f.popFront();
    }
    EXPECT_TRUE(f.empty());
    f.clear();
    f.pushBack(7);
    EXPECT_EQ(f.front(), 7u);
}

// --- serial vs parallel sweeps ---

TEST(Sweep, ParallelEpisodesBitIdenticalToSerial)
{
    const plant::QuadrotorPlant drone(quad::DroneParams::crazyflie());
    hil::HilConfig cfg;
    cfg.timing = hil::vectorControllerTiming(drone, 0.02, 10);
    cfg.socFreqHz = 100e6;

    ThreadPool serial(1);
    ThreadPool pooled(4);
    auto a = hil::SweepRunner(serial).runEpisodes(
        drone, plant::Difficulty::Easy, 4, cfg);
    auto b = hil::SweepRunner(pooled).runEpisodes(
        drone, plant::Difficulty::Easy, 4, cfg);

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].success, b[i].success) << i;
        EXPECT_EQ(a[i].crashed, b[i].crashed) << i;
        EXPECT_EQ(a[i].waypointsReached, b[i].waypointsReached) << i;
        EXPECT_EQ(a[i].missionTimeS, b[i].missionTimeS) << i;
        EXPECT_EQ(a[i].rotorEnergyJ, b[i].rotorEnergyJ) << i;
        EXPECT_EQ(a[i].socEnergyJ, b[i].socEnergyJ) << i;
        ASSERT_EQ(a[i].solveTimesS.size(), b[i].solveTimesS.size()) << i;
        for (size_t s = 0; s < a[i].solveTimesS.samples().size(); ++s) {
            EXPECT_EQ(a[i].solveTimesS.samples()[s],
                      b[i].solveTimesS.samples()[s]);
        }
    }
}

TEST(Sweep, MapPreservesIndexOrder)
{
    hil::SweepRunner sweep;
    auto out = sweep.map<size_t>(64, [](size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 64u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

// --- kernel-region guards ---

TEST(ProgramGuards, NestedBeginPanics)
{
    isa::Program p;
    p.beginKernel("outer_region");
    EXPECT_DEATH(p.beginKernel("inner_region"), "still open");
}

TEST(ProgramGuards, UnmatchedEndPanics)
{
    isa::Program p;
    EXPECT_DEATH(p.endKernel(), "no region open");
}

TEST(ProgramGuards, TimingOpenRegionPanics)
{
    isa::Program p;
    p.beginKernel("half_open");
    p.push(isa::Uop::scalar(isa::UopKind::IntAlu, p.newReg()));
    cpu::InOrderCore rocket(cpu::InOrderConfig::rocket());
    EXPECT_DEATH(rocket.run(p), "still open");
}

TEST(ProgramGuards, ClearWithOpenRegionPanics)
{
    isa::Program p;
    p.beginKernel("pending_region");
    EXPECT_DEATH(p.clear(), "still open");
}

} // namespace
} // namespace rtoc
