#include "disk_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/stat.h>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

#if __has_include("rtoc_fingerprint.hh")
#include "rtoc_fingerprint.hh"
#endif
#ifndef RTOC_BUILD_FINGERPRINT
#define RTOC_BUILD_FINGERPRINT "dev"
#endif

namespace rtoc::isa {

namespace {

constexpr char kMagic[8] = {'R', 'T', 'O', 'C', 'C', 'H', 'E', '1'};
constexpr uint32_t kProgramPayloadVersion = 1;
/** Bytes of one uop record in a program payload. */
constexpr uint64_t kUopRecordBytes = 1 + 4 * 4 + 4 + 2 + 2 + 4 + 2 + 2 + 1;

uint64_t
fnv1a(const void *data, size_t n, uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

using blob::putRaw;
using blob::putStr;
using blob::Reader;

/** mkdir -p. Returns false when a component cannot be created. */
bool
makeDirs(const std::string &dir)
{
    std::string partial;
    size_t i = 0;
    while (i <= dir.size()) {
        if (i == dir.size() || dir[i] == '/') {
            if (!partial.empty() && partial != "/") {
                if (::mkdir(partial.c_str(), 0755) != 0 &&
                    errno != EEXIST) {
                    return false;
                }
            }
            if (i < dir.size())
                partial += '/';
        } else {
            partial += dir[i];
        }
        ++i;
    }
    return true;
}

/** The bytes of @p path, or nullopt when it cannot be opened. */
std::optional<std::string>
readFile(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return std::nullopt;
    std::string out;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

} // namespace

const std::string &
buildFingerprint()
{
    static const std::string fp =
        std::string("rtoc-cache-v1:") + RTOC_BUILD_FINGERPRINT;
    return fp;
}

DiskCache::DiskCache(std::string dir, std::string fingerprint)
    : dir_(std::move(dir)), fp_(std::move(fingerprint))
{
}

DiskCache
DiskCache::fromEnv()
{
    const char *toggle = std::getenv("RTOC_CACHE");
    if (toggle && std::string(toggle) == "0")
        return DiskCache();
    const char *dir = std::getenv("RTOC_CACHE_DIR");
    if (dir && *dir)
        return DiskCache(dir);
    const char *xdg = std::getenv("XDG_CACHE_HOME");
    if (xdg && *xdg)
        return DiskCache(std::string(xdg) + "/rtoc");
    const char *home = std::getenv("HOME");
    if (home && *home)
        return DiskCache(std::string(home) + "/.cache/rtoc");
    return DiskCache();
}

DiskCache &
DiskCache::global()
{
    static DiskCache *cache = [] {
        auto *c = new DiskCache(fromEnv());
        // Mirror the process-wide instance into the registry (cache
        // warmth shows up here: a warm CI re-run is all disk.hits).
        obs::Registry &reg = obs::Registry::global();
        reg.gauge("disk.hits", [c] { return c->stats().hits; });
        reg.gauge("disk.misses", [c] { return c->stats().misses; });
        reg.gauge("disk.writes", [c] { return c->stats().writes; });
        reg.gauge("disk.rejected", [c] { return c->stats().rejected; });
        return c;
    }();
    return *cache;
}

std::string
DiskCache::pathFor(const std::string &ns, const std::string &key) const
{
    uint64_t h = fnv1a(key.data(), key.size());
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return dir_ + "/" + ns + "-" + hex + ".rtoc";
}

std::optional<std::string>
DiskCache::get(const std::string &ns, const std::string &key) const
{
    if (!enabled())
        return std::nullopt;
    RTOC_SPAN("disk.get", "cache");
    const std::string path = pathFor(ns, key);
    const std::optional<std::string> file = readFile(path);
    if (!file) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.misses;
        return std::nullopt;
    }

    auto reject = [&]() -> std::optional<std::string> {
        ::remove(path.c_str());
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.rejected;
        return std::nullopt;
    };

    Reader r(*file);
    char magic[sizeof(kMagic)];
    if (r.left < sizeof(magic))
        return reject();
    std::memcpy(magic, r.p, sizeof(magic));
    r.p += sizeof(magic);
    r.left -= sizeof(magic);
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return reject();
    if (r.str() != fp_ || !r.ok)
        return reject();
    if (r.str() != ns || !r.ok)
        return reject();
    if (r.str() != key || !r.ok)
        return reject();
    uint64_t payload_len = r.raw<uint64_t>();
    // The length field itself is not checksummed; guard the
    // subtraction rather than the (overflowable) sum.
    if (!r.ok || payload_len > r.left ||
        r.left - payload_len < sizeof(uint64_t)) {
        return reject();
    }
    std::string payload(r.p, payload_len);
    r.p += payload_len;
    r.left -= payload_len;
    uint64_t want = r.raw<uint64_t>();
    if (!r.ok || fnv1a(payload.data(), payload.size()) != want)
        return reject();

    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.hits;
    return payload;
}

void
DiskCache::put(const std::string &ns, const std::string &key,
               const std::string &payload) const
{
    if (!enabled())
        return;
    RTOC_SPAN("disk.put", "cache");
    if (!makeDirs(dir_))
        return;

    std::string file;
    file.append(kMagic, sizeof(kMagic));
    putStr(file, fp_);
    putStr(file, ns);
    putStr(file, key);
    putRaw<uint64_t>(file, payload.size());
    file.append(payload);
    putRaw<uint64_t>(file, fnv1a(payload.data(), payload.size()));

    const std::string path = pathFor(ns, key);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return;
    size_t wrote = std::fwrite(file.data(), 1, file.size(), f);
    bool ok = std::fclose(f) == 0 && wrote == file.size();
    if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
        ::remove(tmp.c_str());
        return;
    }
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.writes;
}

DiskCacheStats
DiskCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::string
encodeProgram(const Program &prog)
{
    std::string out;
    const UopStreamView v = prog.stream();
    const auto &kernels = prog.kernels();
    putRaw<uint32_t>(out, kProgramPayloadVersion);
    putRaw<uint64_t>(out, v.n);
    putRaw<uint64_t>(out, kernels.size());
    putRaw<uint32_t>(out, prog.scalarRegCount());
    putRaw<uint32_t>(out, prog.vectorRegCount());
    // The records have a fixed size: size the payload once, then
    // store each field (its column's type) in turn.
    const size_t at = out.size();
    out.resize(at + v.n * kUopRecordBytes);
    char *p = &out[at];
    auto put = [&p](auto field) {
        std::memcpy(p, &field, sizeof(field));
        p += sizeof(field);
    };
    for (size_t i = 0; i < v.n; ++i) {
        put(static_cast<uint8_t>(v.kind[i]));
        put(v.dst[i]);
        put(v.src0[i]);
        put(v.src1[i]);
        put(v.src2[i]);
        put(v.vl[i]);
        put(v.sew[i]);
        put(v.lmul8[i]);
        put(v.bytes[i]);
        put(v.rows[i]);
        put(v.cols[i]);
        put(v.taken[i]);
    }
    // Regions carry their *names*: interned ids are process-local.
    for (const KernelRegion &k : kernels) {
        putStr(out, k.name());
        putRaw<uint64_t>(out, k.begin);
        putRaw<uint64_t>(out, k.end);
    }
    return out;
}

std::optional<Program>
decodeProgram(const std::string &payload)
{
    Reader r(payload);
    if (r.raw<uint32_t>() != kProgramPayloadVersion || !r.ok)
        return std::nullopt;
    uint64_t n_uops = r.raw<uint64_t>();
    uint64_t n_kernels = r.raw<uint64_t>();
    uint32_t next_reg = r.raw<uint32_t>();
    uint32_t next_vreg = r.raw<uint32_t>();
    if (!r.ok)
        return std::nullopt;

    // Guard against absurd counts before allocating (divide, not
    // multiply: a crafted 64-bit count must not overflow the check).
    constexpr uint64_t kKernelRecordBytes = 4 + 8 + 8; // min (name "")
    if (n_uops > r.left / kUopRecordBytes)
        return std::nullopt;
    if (n_kernels > (r.left - n_uops * kUopRecordBytes) /
                        kKernelRecordBytes) {
        return std::nullopt;
    }
    // Replay sizes its register scoreboards from these ids, so each id
    // must be kNoReg or below its file's counter, and a counter may not
    // exceed what the uops can name (4 ids per uop; counters start at
    // 1). The count check above bounds n_uops, so 4 * n_uops + 1 fits.
    if (next_reg > 4 * n_uops + 1 || next_vreg > 4 * n_uops + 1)
        return std::nullopt;
    auto reg_ok = [&](uint32_t reg) {
        if (reg == kNoReg)
            return true;
        if (Program::isVReg(reg))
            return (reg & 0x7fffffffu) < next_vreg;
        return reg < next_reg;
    };

    // Records are pushed at the default emit width, which stamps
    // nothing: they already carry their widths.
    Program prog;
    prog.reserve(static_cast<size_t>(n_uops), 0);
    for (uint64_t i = 0; i < n_uops; ++i) {
        Uop u;
        u.kind = static_cast<UopKind>(r.raw<uint8_t>());
        u.dst = r.raw<uint32_t>();
        u.src0 = r.raw<uint32_t>();
        u.src1 = r.raw<uint32_t>();
        u.src2 = r.raw<uint32_t>();
        u.vl = r.raw<uint32_t>();
        u.sew = r.raw<uint16_t>();
        u.lmul8 = r.raw<uint16_t>();
        u.bytes = r.raw<uint32_t>();
        u.rows = r.raw<uint16_t>();
        u.cols = r.raw<uint16_t>();
        u.taken = r.raw<uint8_t>();
        if (!r.ok ||
            static_cast<uint8_t>(u.kind) >=
                static_cast<uint8_t>(UopKind::NumKinds) ||
            !reg_ok(u.dst) || !reg_ok(u.src0) || !reg_ok(u.src1) ||
            !reg_ok(u.src2)) {
            return std::nullopt;
        }
        prog.push(u);
    }

    std::vector<KernelRegion> kernels;
    kernels.reserve(static_cast<size_t>(n_kernels));
    uint64_t prev_end = 0;
    for (uint64_t i = 0; i < n_kernels; ++i) {
        std::string name = r.str();
        uint64_t begin = r.raw<uint64_t>();
        uint64_t end = r.raw<uint64_t>();
        if (!r.ok || name.empty() || begin > end || end > n_uops ||
            begin < prev_end) {
            return std::nullopt;
        }
        prev_end = end;
        kernels.push_back(
            {internKernel(name), static_cast<size_t>(begin),
             static_cast<size_t>(end)});
    }
    if (r.left != 0)
        return std::nullopt;

    prog.assemble(std::move(kernels), next_reg, next_vreg);
    return prog;
}

} // namespace rtoc::isa
