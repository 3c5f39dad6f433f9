/**
 * @file
 * Tests for the columnar micro-op stream refactor and the persistent
 * program/calibration cache: SoA-vs-AoS bit-exact cycle counts on all
 * four timing-model families x mapping styles, column/view fidelity,
 * disk round-trips (cold write -> warm read with zero re-emissions),
 * corrupt, truncated, bit-flipped, oversized, appended-to and
 * fingerprint-mismatched file rejection, the checksum over every
 * payload length to 80 bytes, threads sharing one key, the RTOC_CACHE=0
 * bypass, the one solve-stream identity shared by calibrations and
 * benches, the calibration's premise (replay affine in iterations and
 * sweeps) against replay, and registry-driven episode counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "cpu/inorder.hh"
#include "cpu/ooo.hh"
#include "hil/timing.hh"
#include "isa/disk_cache.hh"
#include "isa/program_cache.hh"
#include "matlib/gemmini_backend.hh"
#include "matlib/rvv_backend.hh"
#include "matlib/scalar_backend.hh"
#include "plant/quad_plant.hh"
#include "plant/registry.hh"
#include "plant/rover.hh"
#include "systolic/gemmini.hh"
#include "vector/saturn.hh"

namespace rtoc {
namespace {

std::string
makeTempDir()
{
    char tmpl[] = "/tmp/rtoc-cache-test-XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "/tmp/rtoc-cache-test-fallback";
}

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

void
expectRunsMatch(const cpu::TimingModel &model, const isa::Program &prog,
                const std::string &label)
{
    cpu::TimingResult soa = model.run(prog);
    cpu::TimingResult aos = model.runAos(prog);
    EXPECT_EQ(static_cast<uint64_t>(soa.cycles),
              static_cast<uint64_t>(aos.cycles))
        << label;
    ASSERT_EQ(soa.regionCycles.size(), aos.regionCycles.size()) << label;
    for (size_t i = 0; i < soa.regionCycles.size(); ++i) {
        ASSERT_EQ(soa.regionCycles[i], aos.regionCycles[i])
            << label << " region " << i;
    }
}

// --- SoA vs AoS bit-exactness, all four model families ---

TEST(UopStream, SoaMatchesAosOnScalarModels)
{
    using tinympc::MappingStyle;
    for (auto style : {MappingStyle::Library, MappingStyle::LibraryPerStep,
                       MappingStyle::Fused}) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        auto prog = bench::emitQuadSolveCached(b, style);
        std::string tag = "style " + std::to_string(static_cast<int>(style));
        expectRunsMatch(cpu::InOrderCore(cpu::InOrderConfig::rocket()),
                        *prog, "rocket " + tag);
        expectRunsMatch(cpu::InOrderCore(cpu::InOrderConfig::shuttle()),
                        *prog, "shuttle " + tag);
        expectRunsMatch(cpu::OooCore(cpu::OooConfig::boomSmall()), *prog,
                        "boom-small " + tag);
        expectRunsMatch(cpu::OooCore(cpu::OooConfig::boomMega()), *prog,
                        "boom-mega " + tag);
    }
}

TEST(UopStream, SoaMatchesAosOnSaturn)
{
    using tinympc::MappingStyle;
    for (auto style : {MappingStyle::Library, MappingStyle::LibraryPerStep,
                       MappingStyle::Fused}) {
        matlib::RvvBackend b(512, matlib::RvvMapping::handOptimized());
        auto prog = bench::emitQuadSolveCached(b, style);
        std::string tag = "style " + std::to_string(static_cast<int>(style));
        expectRunsMatch(
            vector::SaturnModel(vector::SaturnConfig::make(512, 256, false)),
            *prog, "saturn-rocket " + tag);
        expectRunsMatch(
            vector::SaturnModel(vector::SaturnConfig::make(512, 256, true)),
            *prog, "saturn-shuttle " + tag);
    }
}

TEST(UopStream, SoaMatchesAosOnGemmini)
{
    using tinympc::MappingStyle;
    for (auto style :
         {MappingStyle::Library, MappingStyle::LibraryPerStep}) {
        matlib::GemminiBackend b(matlib::GemminiMapping::fullyOptimized());
        auto prog = bench::emitQuadSolveCached(b, style);
        std::string tag = "style " + std::to_string(static_cast<int>(style));
        expectRunsMatch(
            systolic::GemminiModel(systolic::GemminiConfig::os4x4(64)),
            *prog, "os4x4 " + tag);
        expectRunsMatch(
            systolic::GemminiModel(systolic::GemminiConfig::ws4x4(64)),
            *prog, "ws4x4 " + tag);
        expectRunsMatch(
            systolic::GemminiModel(
                systolic::GemminiConfig::os4x4HwGemv(64)),
            *prog, "os4x4hwgemv " + tag);
    }
}

// --- column store fidelity ---

TEST(UopStream, PushStampsTheEmitWidthIntoTheColumns)
{
    // push() is the store's only translation: each record's fields go
    // to the columns, below width 32 with the emit width stamped over
    // sew and the byte count scaled by it (at least 1 when nonzero),
    // and the class byte decoded from the kind and the stored width.
    // Width 32 keeps a record as built, sew16 ones too (the decoder
    // relies on it). uop(i) and the view read the columns back. One
    // record per kind, odd byte counts included.
    std::vector<isa::Uop> records;
    for (uint32_t k = 0; k < static_cast<uint32_t>(isa::UopKind::NumKinds);
         ++k) {
        isa::Uop u = isa::Uop::scalar(static_cast<isa::UopKind>(k), 1, 2,
                                      isa::kNoReg, 3);
        u.vl = 4 * k;
        u.sew = k % 3 == 1 ? 16 : 32;
        u.lmul8 = 16;
        u.bytes = k % 4 == 0 ? 0 : 2 * k - 1;
        u.rows = static_cast<uint16_t>(k);
        u.cols = static_cast<uint16_t>(k + 1);
        u.taken = static_cast<uint8_t>(k & 1);
        records.push_back(u);
    }
    for (uint16_t width : {32, 16}) {
        isa::Program p;
        p.setEmitWidth(width);
        for (const isa::Uop &u : records)
            p.push(u);
        const isa::UopStreamView v = p.stream();
        ASSERT_EQ(v.n, records.size());
        EXPECT_EQ(v.program, &p);
        for (size_t i = 0; i < v.n; ++i) {
            isa::Uop want = records[i];
            if (width != 32) {
                want.sew = width;
                if (want.bytes)
                    want.bytes =
                        std::max<uint32_t>(1, want.bytes * width / 32);
            }
            EXPECT_EQ(p.uop(i), want) << width << " " << i;
            EXPECT_EQ(v.kind[i], want.kind) << i;
            EXPECT_EQ(v.cls[i], isa::decodeClass(want.kind, want.sew)) << i;
            EXPECT_EQ((v.cls[i] & isa::kClsScalar) != 0,
                      isa::isScalar(want.kind))
                << i;
            EXPECT_EQ(v.dst[i], want.dst) << i;
            EXPECT_EQ(v.src0[i], want.src0) << i;
            EXPECT_EQ(v.src1[i], want.src1) << i;
            EXPECT_EQ(v.src2[i], want.src2) << i;
            EXPECT_EQ(v.vl[i], want.vl) << i;
            EXPECT_EQ(v.sew[i], want.sew) << i;
            EXPECT_EQ(v.lmul8[i], want.lmul8) << i;
            EXPECT_EQ(v.bytes[i], want.bytes) << i;
            EXPECT_EQ(v.rows[i], want.rows) << i;
            EXPECT_EQ(v.cols[i], want.cols) << i;
            EXPECT_EQ(v.taken[i], want.taken) << i;
        }
    }
}

TEST(UopStream, MutationInvalidatesColumns)
{
    isa::Program p;
    p.push(isa::Uop::scalar(isa::UopKind::IntAlu, p.newReg()));
    isa::UopStreamView v1 = p.stream();
    EXPECT_EQ(v1.n, 1u);
    p.push(isa::Uop::scalar(isa::UopKind::FpAdd, p.newReg()));
    isa::UopStreamView v2 = p.stream();
    EXPECT_EQ(v2.n, 2u);
    EXPECT_EQ(v2.kind[1], isa::UopKind::FpAdd);

    // Copies own their columns.
    isa::Program q(p);
    isa::UopStreamView vq = q.stream();
    EXPECT_EQ(vq.n, 2u);
    EXPECT_EQ(vq.program, &q);
    EXPECT_NE(vq.kind, v2.kind);
    EXPECT_EQ(q.uop(1), p.uop(1));
}

// --- program serialization + disk cache ---

TEST(DiskCache, ProgramPayloadRoundTrip)
{
    // Every backend x style x format solve stream and every backend's
    // model-refresh stream round-trips: the decoder's register-id and
    // counter bounds reject no emitted program, and the decoded
    // program encodes to the same bytes.
    using tinympc::MappingStyle;
    auto expect_round_trip = [](const isa::Program &prog,
                                const std::string &label) {
        const std::string payload = isa::encodeProgram(prog);
        auto back = isa::decodeProgram(payload);
        ASSERT_TRUE(back.has_value()) << label;
        EXPECT_TRUE(samePrograms(prog, *back)) << label;
        EXPECT_TRUE(isa::encodeProgram(*back) == payload) << label;
        EXPECT_EQ(back->scalarRegCount(), prog.scalarRegCount()) << label;
        EXPECT_EQ(back->vectorRegCount(), prog.vectorRegCount()) << label;
    };
    std::vector<std::unique_ptr<matlib::Backend>> backends;
    backends.push_back(std::make_unique<matlib::ScalarBackend>(
        matlib::ScalarFlavor::Optimized));
    backends.push_back(std::make_unique<matlib::RvvBackend>(
        512, matlib::RvvMapping::handOptimized()));
    backends.push_back(std::make_unique<matlib::GemminiBackend>(
        matlib::GemminiMapping::fullyOptimized()));
    for (auto &b : backends) {
        for (auto fmt : {matlib::NumericFormat::F32,
                         matlib::NumericFormat::I16}) {
            b->setFormat(fmt);
            for (auto style : {MappingStyle::Library,
                               MappingStyle::LibraryPerStep,
                               MappingStyle::Fused}) {
                // Gemmini's tiled matmuls cannot fuse per step.
                if (style == MappingStyle::Fused &&
                    dynamic_cast<matlib::GemminiBackend *>(b.get())) {
                    continue;
                }
                expect_round_trip(bench::emitQuadSolve(*b, style, 2),
                                  b->cacheKey() + " style " +
                                      std::to_string(
                                          static_cast<int>(style)));
            }
            tinympc::Workspace ws =
                plant::QuadrotorPlant(quad::DroneParams::crazyflie())
                    .buildWorkspace(0.02, 10);
            isa::Program refresh;
            b->setProgram(&refresh);
            tinympc::emitModelRefresh(ws, *b, 3);
            b->setProgram(nullptr);
            expect_round_trip(refresh, b->cacheKey() + " refresh");
        }
    }
}

TEST(DiskCache, MalformedPayloadRejected)
{
    EXPECT_FALSE(isa::decodeProgram("").has_value());
    EXPECT_FALSE(isa::decodeProgram("garbage").has_value());
    // A valid payload truncated mid-stream must not decode.
    matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
    isa::Program prog =
        bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    std::string payload = isa::encodeProgram(prog);
    EXPECT_FALSE(
        isa::decodeProgram(payload.substr(0, payload.size() / 2))
            .has_value());

    // Register ids and counters: a two-uop blob with scalar counter 4
    // (ids 1..3 allocated) and vector counter 1 (none allocated).
    isa::Program two;
    const uint32_t a = two.newReg(), b1 = two.newReg(), c = two.newReg();
    two.push(isa::Uop::scalar(isa::UopKind::FpAdd, a, b1, c));
    two.push(isa::Uop::scalar(isa::UopKind::FpMul, b1, a));
    const std::string blob = isa::encodeProgram(two);
    ASSERT_TRUE(isa::decodeProgram(blob).has_value());
    // Layout: version u32, uop count u64, region count u64, scalar and
    // vector counters u32, then per uop kind u8, dst/src0/src1/src2 u32.
    constexpr size_t kNextReg = 4 + 8 + 8, kNextVReg = kNextReg + 4;
    constexpr size_t kDst0 = kNextVReg + 4 + 1, kSrc0 = kDst0 + 4;
    auto decodes_patched = [&](size_t off, uint32_t v) {
        std::string out = blob;
        std::memcpy(&out[off], &v, sizeof v);
        return isa::decodeProgram(out).has_value();
    };
    // An id far past the counter: replay would size its scoreboard
    // from it (2^30 entries) instead of rejecting the stream.
    EXPECT_FALSE(decodes_patched(kDst0, 0x40000000u));
    EXPECT_FALSE(decodes_patched(kSrc0, 4));
    EXPECT_TRUE(decodes_patched(kSrc0, isa::kNoReg));
    // Vector ids are bounded by the vector counter (none allocated).
    EXPECT_FALSE(decodes_patched(kDst0, 0x80000001u));
    // Two uops name at most 8 ids, so the counters stop at 9.
    EXPECT_TRUE(decodes_patched(kNextReg, 9));
    EXPECT_FALSE(decodes_patched(kNextReg, 10));
    EXPECT_TRUE(decodes_patched(kNextVReg, 9));
    EXPECT_FALSE(decodes_patched(kNextVReg, 10));
    EXPECT_FALSE(decodes_patched(kNextReg, 0xffffffffu));
}

TEST(DiskCache, ColdWriteWarmReadWithZeroEmissions)
{
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");

    // Cold process: the emitter runs once and the stream is persisted.
    isa::ProgramCache cold(&disk);
    int emissions = 0;
    auto emit = [&](isa::Program &p) {
        ++emissions;
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        p = bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    };
    auto first = cold.getOrEmit("k", emit);
    EXPECT_EQ(emissions, 1);
    EXPECT_EQ(cold.stats().computes, 1u);
    EXPECT_EQ(disk.stats().writes, 1u);

    // Warm process (fresh in-memory cache, same directory): the
    // stream comes back bit-identical without invoking the emitter.
    isa::ProgramCache warm(&disk);
    auto second = warm.getOrEmit("k", [&](isa::Program &) {
        ADD_FAILURE() << "warm read must not re-emit";
    });
    ASSERT_TRUE(second != nullptr);
    EXPECT_TRUE(samePrograms(*first, *second));
    EXPECT_EQ(warm.stats().computes, 0u);
    EXPECT_EQ(warm.stats().diskHits, 1u);
}

TEST(DiskCache, CorruptFileRejectedAndRegenerated)
{
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");
    isa::ProgramCache cold(&disk);
    auto emit = [&](isa::Program &p) {
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        p = bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    };
    auto first = cold.getOrEmit("k", emit);

    // Flip bytes in the middle of the file: the checksum must reject
    // it, delete it, and the next process regenerates.
    const std::string path = disk.pathFor("prog", "k");
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(200);
        f.write("\xde\xad\xbe\xef", 4);
    }
    isa::DiskCache disk2(dir, "test-fp");
    isa::ProgramCache warm(&disk2);
    int emissions = 0;
    auto reemit = [&](isa::Program &p) {
        ++emissions;
        matlib::ScalarBackend b(matlib::ScalarFlavor::Optimized);
        p = bench::emitQuadSolve(b, tinympc::MappingStyle::Library, 2);
    };
    auto second = warm.getOrEmit("k", reemit);
    EXPECT_EQ(emissions, 1);
    EXPECT_EQ(disk2.stats().rejected, 1u);
    EXPECT_TRUE(samePrograms(*first, *second));

    // The regenerated file is valid again.
    isa::DiskCache disk3(dir, "test-fp");
    isa::ProgramCache again(&disk3);
    auto third = again.getOrEmit("k", [&](isa::Program &) {
        ADD_FAILURE() << "regenerated file must serve the warm read";
    });
    EXPECT_TRUE(samePrograms(*first, *third));
}

/**
 * The file of one valid cache entry, which a test rewrites: each
 * rewrite it expects rejected must make get return nullopt, count one
 * rejection and delete the file.
 */
struct EntryFile
{
    const isa::DiskCache &disk;
    std::string ns, key, path;
    std::string good;      ///< the valid entry's bytes
    uint64_t rejected = 0; ///< rejections counted so far

    EntryFile(const isa::DiskCache &d, std::string n, std::string k)
        : disk(d), ns(std::move(n)), key(std::move(k)),
          path(disk.pathFor(ns, key)), rejected(disk.stats().rejected)
    {
        std::ifstream f(path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(f), {});
    }

    void
    expectRejected(const std::string &bytes, const std::string &what)
    {
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f.write(bytes.data(),
                    static_cast<std::streamsize>(bytes.size()));
        }
        EXPECT_FALSE(disk.get(ns, key).has_value()) << what;
        EXPECT_EQ(disk.stats().rejected, ++rejected) << what;
        EXPECT_FALSE(std::filesystem::exists(path)) << what;
    }

    /** Every proper prefix (the empty file too), then every single-bit
     *  flip of the valid file. */
    void
    expectPrefixesAndBitFlipsRejected()
    {
        for (size_t n = 0; n < good.size(); ++n)
            expectRejected(good.substr(0, n), "prefix " + std::to_string(n));
        for (size_t bit = 0; bit < 8 * good.size(); ++bit) {
            std::string flipped = good;
            flipped[bit / 8] =
                static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
            expectRejected(flipped, "bit " + std::to_string(bit));
        }
    }
};

TEST(DiskCache, HostileCalibFilesRejected)
{
    // The file of a valid calib entry, then every proper prefix of it
    // (the empty file too), every single-bit flip, 0xFFFFFFFF in each
    // string-length field, 2^64-1 in the payload length and bytes
    // after the checksum: each get returns nullopt, counts one
    // rejection and deletes the file.
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");
    hil::ControllerTiming t;
    t.archName = "shuttle";
    t.mappingName = "scalar-opt";
    t.baseCycles = 12345.6789;
    t.cyclesPerIter = 98765.4321;
    const cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    const matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);
    const std::string ns = "calib";
    const std::string key = shuttle.cacheKey() + "|" +
                            backend.cacheKey() + "|style0|nx12|nu4|h10";
    const std::string payload = hil::encodeTiming(t);
    disk.put(ns, key, payload);
    EntryFile file(disk, ns, key);
    ASSERT_EQ(disk.get(ns, key), payload);

    file.expectPrefixesAndBitFlipsRejected();
    // The 8-byte magic, then the fingerprint, namespace and key, each a
    // u32 length and its bytes, then the u64 payload length.
    const std::string &good = file.good;
    size_t at = 8;
    for (const std::string &str : {std::string("test-fp"), ns, key}) {
        uint32_t len = 0;
        std::memcpy(&len, &good[at], sizeof(len));
        ASSERT_EQ(len, str.size());
        std::string huge = good;
        std::memset(&huge[at], 0xff, sizeof(len));
        file.expectRejected(huge, "string length at " + std::to_string(at));
        at += sizeof(len) + str.size();
    }
    uint64_t len = 0;
    std::memcpy(&len, &good[at], sizeof(len));
    ASSERT_EQ(len, payload.size());
    std::string huge = good;
    std::memset(&huge[at], 0xff, sizeof(len));
    file.expectRejected(huge, "payload length");
    file.expectRejected(good + std::string(8, '\0'), "8 bytes appended");
    file.expectRejected(good + "x", "1 byte appended");
    EXPECT_EQ(disk.stats().hits, 1u);
    EXPECT_EQ(disk.stats().misses, 0u);
}

TEST(DiskCache, ChecksumCoversEveryLaneAndTheTail)
{
    // The calib payload above is shorter than one 32-byte block of the
    // checksum's four word lanes. Round-trip every length from 0 to 80
    // (no words, a tail alone, words after the last block, one and two
    // blocks), then run the prefix and bit-flip corpus on 203 bytes:
    // six blocks, one word after them and a 3-byte tail.
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");
    auto bytes = [](size_t n) {
        std::string s(n, '\0');
        for (size_t i = 0; i < n; ++i)
            s[i] = static_cast<char>(i * 37 + 11);
        return s;
    };
    for (size_t n = 0; n <= 80; ++n) {
        const std::string key = "len" + std::to_string(n);
        disk.put("calib", key, bytes(n));
        EXPECT_EQ(disk.get("calib", key), bytes(n)) << n;
    }
    EXPECT_EQ(disk.stats().hits, 81u);
    EXPECT_EQ(disk.stats().rejected, 0u);

    disk.put("calib", "corpus", bytes(203));
    EntryFile file(disk, "calib", "corpus");
    ASSERT_EQ(file.good.size() - bytes(203).size(),
              8 + 3 * 4 + std::string("test-fp" "calib" "corpus").size() +
                  2 * 8);
    file.expectPrefixesAndBitFlipsRejected();
}

TEST(DiskCache, ThreadsSharingOneKeyNeverReadATornFile)
{
    // Threads put their own payload under one key and read the key
    // back. Each put writes its own temp file and renames it over the
    // entry, so every get after a thread's first put reads one whole
    // payload: none misses and none is rejected.
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");
    constexpr int kThreads = 4;
    constexpr int kRounds = 50;
    std::vector<std::string> payloads;
    for (int t = 0; t < kThreads; ++t)
        payloads.emplace_back(size_t{1} << 20, static_cast<char>('a' + t));
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                disk.put("calib", "one-key", payloads[t]);
                const std::optional<std::string> got =
                    disk.get("calib", "one-key");
                if (got && std::find(payloads.begin(), payloads.end(),
                                     *got) == payloads.end()) {
                    ++wrong;
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    const isa::DiskCacheStats s = disk.stats();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.hits, uint64_t{kThreads * kRounds});
    EXPECT_EQ(s.writes, uint64_t{kThreads * kRounds});
    // Every temp file was renamed: the entry is the directory's only file.
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              1);
    std::filesystem::remove_all(dir);
}

TEST(DiskCache, FingerprintMismatchInvalidates)
{
    const std::string dir = makeTempDir();
    isa::DiskCache old_build(dir, "fingerprint-A");
    old_build.put("prog", "k", "payload-bytes");
    ASSERT_TRUE(old_build.get("prog", "k").has_value());

    // A different build fingerprint must treat the file as stale.
    isa::DiskCache new_build(dir, "fingerprint-B");
    EXPECT_FALSE(new_build.get("prog", "k").has_value());
    EXPECT_EQ(new_build.stats().rejected, 1u);
    // ... and the stale file is gone, so the next probe is a miss.
    isa::DiskCache probe(dir, "fingerprint-B");
    EXPECT_FALSE(probe.get("prog", "k").has_value());
    EXPECT_EQ(probe.stats().misses, 1u);
}

TEST(DiskCache, EnvControls)
{
    // Preserve the ambient configuration.
    const char *old_cache = std::getenv("RTOC_CACHE");
    const char *old_dir = std::getenv("RTOC_CACHE_DIR");
    std::string saved_cache = old_cache ? old_cache : "";
    std::string saved_dir = old_dir ? old_dir : "";

    setenv("RTOC_CACHE_DIR", "/tmp/rtoc-env-test", 1);
    unsetenv("RTOC_CACHE");
    isa::DiskCache enabled = isa::DiskCache::fromEnv();
    EXPECT_TRUE(enabled.enabled());
    EXPECT_EQ(enabled.dir(), "/tmp/rtoc-env-test");

    // RTOC_CACHE=0 bypasses persistence even with a directory set.
    setenv("RTOC_CACHE", "0", 1);
    isa::DiskCache disabled = isa::DiskCache::fromEnv();
    EXPECT_FALSE(disabled.enabled());
    disabled.put("prog", "k", "payload");
    EXPECT_FALSE(disabled.get("prog", "k").has_value());
    EXPECT_EQ(disabled.stats().writes, 0u);

    if (!saved_cache.empty())
        setenv("RTOC_CACHE", saved_cache.c_str(), 1);
    else
        unsetenv("RTOC_CACHE");
    if (!saved_dir.empty())
        setenv("RTOC_CACHE_DIR", saved_dir.c_str(), 1);
    else
        unsetenv("RTOC_CACHE_DIR");
}

// --- calibration persistence ---

TEST(CalibCache, TimingPayloadRoundTrip)
{
    hil::ControllerTiming t;
    t.archName = "shuttle";
    t.mappingName = "scalar-opt";
    t.baseCycles = 12345.6789;
    t.cyclesPerIter = 98765.4321;
    auto back = hil::decodeTiming(hil::encodeTiming(t));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->archName, t.archName);
    EXPECT_EQ(back->mappingName, t.mappingName);
    EXPECT_EQ(back->baseCycles, t.baseCycles);
    EXPECT_EQ(back->cyclesPerIter, t.cyclesPerIter);
    EXPECT_FALSE(hil::decodeTiming("junk").has_value());
}

TEST(CalibCache, TimingDecoderRejectsHostilePayloads)
{
    // Every proper prefix, every single-bit flip and a 0xFFFFFFFF
    // string length of a valid payload decode to nullopt or to a timing
    // whose four cycle fields are finite; a NaN or infinite field is
    // rejected outright.
    hil::ControllerTiming t;
    t.archName = "rocket";
    t.mappingName = "scalar-opt";
    t.baseCycles = 12345.6789;
    t.cyclesPerIter = 98765.4321;
    t.refreshBaseCycles = 4321.5;
    // Finite, with an exponent one bit short of all ones: some flips
    // turn it into an infinity or a NaN.
    t.refreshCyclesPerIter = std::numeric_limits<double>::max();
    const std::string good = hil::encodeTiming(t);
    auto finiteOrNone = [](const std::string &payload) {
        const auto d = hil::decodeTiming(payload);
        return !d || (std::isfinite(d->baseCycles) &&
                      std::isfinite(d->cyclesPerIter) &&
                      std::isfinite(d->refreshBaseCycles) &&
                      std::isfinite(d->refreshCyclesPerIter));
    };
    ASSERT_TRUE(hil::decodeTiming(good).has_value());
    for (size_t n = 0; n < good.size(); ++n)
        EXPECT_FALSE(hil::decodeTiming(good.substr(0, n)).has_value()) << n;
    for (size_t bit = 0; bit < 8 * good.size(); ++bit) {
        std::string flipped = good;
        flipped[bit / 8] =
            static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        EXPECT_TRUE(finiteOrNone(flipped)) << "bit " << bit;
    }
    // The version word, then the first string's length field.
    std::string huge = good;
    std::memset(&huge[4], 0xff, 4);
    EXPECT_FALSE(hil::decodeTiming(huge).has_value());

    const double inf = std::numeric_limits<double>::infinity();
    double hil::ControllerTiming::*const fields[] = {
        &hil::ControllerTiming::baseCycles,
        &hil::ControllerTiming::cyclesPerIter,
        &hil::ControllerTiming::refreshBaseCycles,
        &hil::ControllerTiming::refreshCyclesPerIter};
    for (double bad : {std::nan(""), inf, -inf}) {
        for (double hil::ControllerTiming::*f : fields) {
            hil::ControllerTiming b = t;
            b.*f = bad;
            EXPECT_FALSE(hil::decodeTiming(hil::encodeTiming(b)).has_value())
                << bad;
        }
    }
}

TEST(CalibCache, ColdWriteWarmReadIdenticalTiming)
{
    const std::string dir = makeTempDir();
    isa::DiskCache disk(dir, "test-fp");
    plant::QuadrotorPlant plant;
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    matlib::ScalarBackend backend(matlib::ScalarFlavor::Optimized);

    isa::MemoStats before = hil::calibMemo().stats();
    hil::ControllerTiming cold = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, &disk);
    isa::MemoStats mid = hil::calibMemo().stats();
    EXPECT_EQ(mid.computes, before.computes + 1);
    EXPECT_EQ(disk.stats().writes, 1u);

    // Warm read: served from disk, bit-identical fit, no replay.
    hil::ControllerTiming warm = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, &disk);
    isa::MemoStats after = hil::calibMemo().stats();
    EXPECT_EQ(after.computes, mid.computes);
    EXPECT_EQ(after.diskHits, mid.diskHits + 1);
    EXPECT_EQ(warm.archName, cold.archName);
    EXPECT_EQ(warm.mappingName, cold.mappingName);
    EXPECT_EQ(warm.baseCycles, cold.baseCycles);
    EXPECT_EQ(warm.cyclesPerIter, cold.cyclesPerIter);

    // A corrupt calibration file is rejected and recomputed to the
    // same deterministic fit. The fit is the directory's one entry
    // (its streams sit in the process cache), so the test need not
    // restate the key.
    std::vector<std::string> entries;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        entries.push_back(e.path().string());
    ASSERT_EQ(entries.size(), 1u);
    const std::string &path = entries[0];
    ASSERT_EQ(path.rfind(dir + "/calib-", 0), 0u) << path;
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(30);
        f.write("\x42\x42", 2);
    }
    isa::DiskCache disk2(dir, "test-fp");
    hil::ControllerTiming redo = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, &disk2);
    EXPECT_EQ(disk2.stats().rejected, 1u);
    EXPECT_EQ(redo.baseCycles, cold.baseCycles);
    EXPECT_EQ(redo.cyclesPerIter, cold.cyclesPerIter);

    // nullptr bypasses persistence entirely.
    isa::MemoStats pre_null = hil::calibMemo().stats();
    hil::ControllerTiming direct = hil::calibrateTiming(
        shuttle, backend, tinympc::MappingStyle::Library, plant, 0.02,
        10, nullptr);
    EXPECT_EQ(hil::calibMemo().stats().computes, pre_null.computes + 1);
    EXPECT_EQ(direct.baseCycles, cold.baseCycles);
}

// --- one solve-stream identity ---

/** One named timing target's model, backend and style. */
struct NamedTarget
{
    const char *name;
    std::unique_ptr<cpu::TimingModel> model;
    std::unique_ptr<matlib::Backend> backend;
    tinympc::MappingStyle style;
};

/** The three targets namedControllerTiming dispatches to. */
std::vector<NamedTarget>
namedTargets()
{
    std::vector<NamedTarget> out;
    out.push_back({"scalar",
                   std::make_unique<cpu::InOrderCore>(
                       cpu::InOrderConfig::shuttle()),
                   std::make_unique<matlib::ScalarBackend>(
                       matlib::ScalarFlavor::Optimized),
                   tinympc::MappingStyle::Library});
    out.push_back({"vector",
                   std::make_unique<vector::SaturnModel>(
                       vector::SaturnConfig::make(512, 256, true)),
                   std::make_unique<matlib::RvvBackend>(
                       512, matlib::RvvMapping::handOptimized()),
                   tinympc::MappingStyle::Fused});
    out.push_back({"gemmini",
                   std::make_unique<systolic::GemminiModel>(
                       systolic::GemminiConfig::os4x4()),
                   std::make_unique<matlib::GemminiBackend>(
                       matlib::GemminiMapping::fullyOptimized()),
                   tinympc::MappingStyle::Library});
    return out;
}

// Horizon 7 is requested by no other test here, so each first request
// misses. The checks count misses, not computes: a warm disk cache
// serves a second key without a compute, never without a miss.

TEST(SolveStreamIdentity, CalibrationsAndBenchesShareOneStream)
{
    // A fit without a disk tier always replays its streams (a named
    // calibration whose fit is on disk requests none), so after it
    // the benches' requests, at any dt, and the region breakdown's
    // must all hit.
    const plant::QuadrotorPlant quad;
    for (NamedTarget &t : namedTargets()) {
        hil::calibrateTiming(*t.model, *t.backend, t.style, quad, 0.02, 7,
                             nullptr);
        const isa::MemoStats before = isa::ProgramCache::global().stats();
        ASSERT_TRUE(hil::solveStream(*t.backend, t.style, quad, 0.02, 7, 5));
        ASSERT_TRUE(
            hil::solveStream(*t.backend, t.style, quad, 0.04, 7, 10));
        hil::regionBreakdown(t.name, quad, 0.02, 7, 5);
        EXPECT_EQ(isa::ProgramCache::global().stats().misses,
                  before.misses)
            << t.name;
    }
}

TEST(SolveStreamIdentity, DtSharesOneCalibration)
{
    // bench_sched_rt's 25 Hz rover task: a fit depends on the timing
    // model and the streams it replays, and neither depends on dt.
    const plant::RoverPlant rover;
    const std::string at_50hz = hil::encodeTiming(
        hil::namedControllerTiming("scalar", rover, 0.02, 7));
    const isa::MemoStats calib = hil::calibMemo().stats();
    const isa::MemoStats progs = isa::ProgramCache::global().stats();
    const std::string at_25hz = hil::encodeTiming(
        hil::namedControllerTiming("scalar", rover, 0.04, 7));
    EXPECT_EQ(hil::calibMemo().stats().misses, calib.misses);
    EXPECT_EQ(isa::ProgramCache::global().stats().misses, progs.misses);
    EXPECT_EQ(at_25hz, at_50hz);
}

TEST(SolveStreamIdentity, KeysMatchExactlyWhenStreamsDo)
{
    // Fresh emissions, no cache: the three targets' backends at three
    // formats, the four registry shapes, two iteration counts and two
    // dts. Two requests share a key exactly when their streams match.
    struct Request
    {
        std::string label, key, stream;
    };
    std::vector<Request> reqs;
    const plant::ScenarioRegistry &reg = plant::ScenarioRegistry::global();
    for (NamedTarget &t : namedTargets()) {
        matlib::Backend &backend = *t.backend;
        for (matlib::NumericFormat fmt :
             {matlib::NumericFormat::F32, matlib::NumericFormat::BF16,
              matlib::NumericFormat::I16}) {
            backend.setFormat(fmt);
            for (const std::string &name : reg.plantNames()) {
                std::unique_ptr<plant::Plant> p = reg.makePlant(name);
                for (int iters : {1, 5}) {
                    for (double dt : {0.02, 0.04}) {
                        isa::Program prog;
                        hil::emitSolveStream(prog, backend, t.style, *p,
                                             dt, 10, iters);
                        reqs.push_back(
                            {csprintf("%s %s %s it%d dt%g", t.name,
                                      matlib::formatName(fmt),
                                      name.c_str(), iters, dt),
                             hil::solveStreamKey(backend, t.style, p->nx(),
                                                 p->nu(), 10, iters),
                             isa::encodeProgram(prog)});
                    }
                }
            }
        }
    }
    ASSERT_EQ(reqs.size(), 144u);
    for (size_t i = 0; i < reqs.size(); ++i) {
        for (size_t j = i + 1; j < reqs.size(); ++j) {
            EXPECT_EQ(reqs[i].key == reqs[j].key,
                      reqs[i].stream == reqs[j].stream)
                << reqs[i].label << " vs " << reqs[j].label;
        }
    }
}

// --- the calibration's premise, against replay ---

/** Cycles of @p model replaying @p plant's model-refresh stream at
 *  @p sweeps Riccati sweeps, emitted fresh as a calibration emits it. */
int64_t
refreshReplayCycles(const cpu::TimingModel &model, matlib::Backend &backend,
                    const plant::Plant &plant, int horizon, int sweeps)
{
    isa::Program prog;
    tinympc::Workspace ws = plant.buildWorkspace(0.02, horizon);
    backend.setProgram(&prog);
    tinympc::emitModelRefresh(ws, backend, sweeps);
    backend.setProgram(nullptr);
    return static_cast<int64_t>(model.run(prog).cycles);
}

TEST(CalibrationPremise, ReplayIsAffineAndTheShortFitEqualsTheLongOne)
{
    // fitTiming fits the solve line at 5 and 10 ADMM iterations and
    // the refresh line at 1 and 2 Riccati sweeps. That is exact only
    // if replay is affine in iterations at the multiples of the
    // 5-iteration termination check and in sweeps from the first
    // sweep. Check both on every named target, registry plant and
    // element width, and check that every field of the fit equals the
    // line through the longer points (5, 25) and (2, 8).
    const int horizon = 10;
    const plant::ScenarioRegistry &reg = plant::ScenarioRegistry::global();
    for (NamedTarget &t : namedTargets()) {
        for (matlib::NumericFormat fmt :
             {matlib::NumericFormat::F32, matlib::NumericFormat::I16}) {
            t.backend->setFormat(fmt);
            for (const std::string &name : reg.plantNames()) {
                const std::unique_ptr<plant::Plant> p = reg.makePlant(name);
                const std::string label = csprintf(
                    "%s %s %s", t.name, matlib::formatName(fmt),
                    name.c_str());
                std::map<int, int64_t> solve, refresh;
                for (int iters : {5, 10, 15, 20, 25}) {
                    isa::Program prog;
                    hil::emitSolveStream(prog, *t.backend, t.style, *p,
                                         0.02, horizon, iters);
                    solve[iters] =
                        static_cast<int64_t>(t.model->run(prog).cycles);
                }
                for (int sweeps : {1, 2, 3, 4, 8})
                    refresh[sweeps] = refreshReplayCycles(
                        *t.model, *t.backend, *p, horizon, sweeps);
                for (const auto &[iters, c] : solve)
                    EXPECT_EQ(c - solve[5],
                              (iters - 5) / 5 * (solve[10] - solve[5]))
                        << label << " solve at " << iters;
                for (const auto &[sweeps, c] : refresh)
                    EXPECT_EQ(c - refresh[1],
                              (sweeps - 1) * (refresh[2] - refresh[1]))
                        << label << " refresh at " << sweeps;

                const hil::ControllerTiming got = hil::namedControllerTiming(
                    t.name, *p, 0.02, horizon, true, fmt);
                const double c5 = static_cast<double>(solve[5]);
                const double c25 = static_cast<double>(solve[25]);
                const double r2 = static_cast<double>(refresh[2]);
                const double r8 = static_cast<double>(refresh[8]);
                const double per_iter = (c25 - c5) / 20.0;
                const double refresh_per_iter = (r8 - r2) / 6.0;
                EXPECT_EQ(got.cyclesPerIter, per_iter) << label;
                EXPECT_EQ(got.baseCycles,
                          std::max(c5 - 5.0 * per_iter, 0.0))
                    << label;
                EXPECT_EQ(got.refreshCyclesPerIter, refresh_per_iter)
                    << label;
                EXPECT_EQ(got.refreshBaseCycles,
                          std::max(r2 - 2.0 * refresh_per_iter, 0.0))
                    << label;
            }
        }
    }
}

// --- registry-driven episode counts ---

TEST(Registry, SpecsCarryEpisodeCounts)
{
    auto specs = plant::ScenarioRegistry::global().specs();
    ASSERT_FALSE(specs.empty());
    for (const auto &s : specs)
        EXPECT_EQ(s.episodes, s.prototype->defaultEpisodes()) << s.id;

    // An explicit spec may override the plant default, and find()
    // surfaces it to sweep drivers.
    plant::ScenarioSpec custom = specs.front();
    custom.id = "quadrotor-episode-override-test";
    custom.episodes = 3;
    plant::ScenarioRegistry::global().addSpec(custom);
    auto found = plant::ScenarioRegistry::global().find(
        "quadrotor-episode-override-test");
    ASSERT_TRUE(found != nullptr);
    EXPECT_EQ(found->episodes, 3);
}

} // namespace
} // namespace rtoc
