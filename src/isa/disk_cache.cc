#include "disk_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
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

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t
fnv1a(const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = kFnvOffset;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/**
 * One checksum step. For a fixed word it is a bijection of the state
 * (xor, an odd multiply and an xorshift each invert), and for a fixed
 * state a bijection of the word, so a changed word changes the state
 * and every later step carries the change to the end.
 */
inline uint64_t
mix(uint64_t h, uint64_t w)
{
    h = (h ^ w) * kFnvPrime;
    return h ^ (h >> 29);
}

/**
 * Checksum of @p n bytes at @p p: word k of each 32-byte block feeds
 * lane k, so the four lanes' multiplies overlap (the lanes are named
 * locals: as an array they ran at half the speed), the words after
 * the last block feed lane 0 and the last n % 8 bytes one tail word.
 * The length, the tail word and the lanes then fold through mix() in
 * turn. A change confined to one word or to the tail changes that
 * word's lane or the tail word alone, so every single-bit flip changes
 * the sum.
 */
uint64_t
checksum(const char *p, size_t n)
{
    auto word = [p](size_t at) {
        uint64_t w = 0;
        std::memcpy(&w, p + at, sizeof(w));
        return w;
    };
    uint64_t h0 = kFnvOffset, h1 = kFnvOffset, h2 = kFnvOffset,
             h3 = kFnvOffset;
    size_t i = 0;
    for (; n - i >= 32; i += 32) {
        h0 = mix(h0, word(i));
        h1 = mix(h1, word(i + 8));
        h2 = mix(h2, word(i + 16));
        h3 = mix(h3, word(i + 24));
    }
    for (; n - i >= 8; i += 8)
        h0 = mix(h0, word(i));
    uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    const uint64_t h = mix(mix(kFnvOffset, n), tail);
    return mix(mix(mix(mix(h, h0), h1), h2), h3);
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

/**
 * The envelope's head, every byte before the payload: the magic, the
 * fingerprint, namespace and key (u32 length + bytes each) and the
 * u64 payload length.
 */
std::string
envelopeHead(const std::string &fp, const std::string &ns,
             const std::string &key, uint64_t payload_len)
{
    std::string head(kMagic, sizeof(kMagic));
    putStr(head, fp);
    putStr(head, ns);
    putStr(head, key);
    putRaw<uint64_t>(head, payload_len);
    return head;
}

/** A file descriptor, closed when it leaves scope or by close(). */
class Fd
{
  public:
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }

    /** Close now; false when close fails (a write may be lost). */
    bool
    close()
    {
        const int fd = fd_;
        fd_ = -1;
        return ::close(fd) == 0;
    }

  private:
    int fd_;
};

using IoFn = ssize_t (*)(int, const iovec *, int);

/**
 * Move every byte of @p iov through @p io (readv or writev) on @p fd,
 * resuming after short transfers and EINTR; false on an error or an
 * early end of file.
 */
bool
transferAll(IoFn io, int fd, iovec *iov, int n)
{
    while (n > 0) {
        const ssize_t got = io(fd, iov, n);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        size_t left = static_cast<size_t>(got);
        while (n > 0 && left >= iov->iov_len) {
            left -= iov->iov_len;
            ++iov;
            --n;
        }
        if (n > 0) {
            iov->iov_base = static_cast<char *>(iov->iov_base) + left;
            iov->iov_len -= left;
        }
    }
    return true;
}

} // namespace

const std::string &
buildFingerprint()
{
    static const std::string fp =
        std::string("rtoc-cache-v2:") + RTOC_BUILD_FINGERPRINT;
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
    const Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (fd.get() < 0) {
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

    // A valid file is this entry's head, the payload and the checksum,
    // and its size fixes the payload length; one read places each part
    // in its own buffer, the payload in the string returned.
    std::string want = envelopeHead(fp_, ns, key, 0);
    const size_t head_len = want.size();
    struct stat st{};
    if (::fstat(fd.get(), &st) != 0 ||
        static_cast<uint64_t>(st.st_size) < head_len + sizeof(uint64_t)) {
        return reject();
    }
    const uint64_t payload_len =
        static_cast<uint64_t>(st.st_size) - head_len - sizeof(uint64_t);
    std::memcpy(&want[head_len - sizeof(uint64_t)], &payload_len,
                sizeof(payload_len));
    std::string head(head_len, '\0');
    std::string payload(payload_len, '\0');
    uint64_t sum = 0;
    iovec iov[3] = {{head.data(), head_len},
                    {payload.data(), payload.size()},
                    {&sum, sizeof(sum)}};
    // The head holds the stored payload length, so bytes after the
    // checksum (or missing before it) fail this comparison.
    if (!transferAll(::readv, fd.get(), iov, 3) || head != want ||
        checksum(payload.data(), payload.size()) != sum) {
        return reject();
    }

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

    const std::string head = envelopeHead(fp_, ns, key, payload.size());
    uint64_t sum = checksum(payload.data(), payload.size());

    // Each call writes its own temp file, so threads persisting one
    // key never write into the same file.
    static std::atomic<uint64_t> seq{0};
    const std::string path = pathFor(ns, key);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(seq.fetch_add(1));
    Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0666));
    if (fd.get() < 0)
        return;
    iovec iov[3] = {{const_cast<char *>(head.data()), head.size()},
                    {const_cast<char *>(payload.data()), payload.size()},
                    {&sum, sizeof(sum)}};
    const bool wrote = transferAll(::writev, fd.get(), iov, 3);
    if (!fd.close() || !wrote || ::rename(tmp.c_str(), path.c_str()) != 0) {
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
