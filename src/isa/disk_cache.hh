/**
 * @file
 * Versioned on-disk cache for emitted micro-op programs and timing
 * calibrations.
 *
 * Emission and calibration are data-independent and deterministic, so
 * their results are valid across processes: persisting them means
 * separate bench binaries and CI re-runs stop re-emitting ~1e5-uop
 * streams and re-fitting cycle models at startup. Entries are keyed
 * by (namespace, key string) and stamped with a build fingerprint —
 * a hash over the library sources — so a rebuild that could change
 * emission or timing invalidates every entry. Corrupt, truncated or
 * fingerprint-mismatched files are rejected, deleted and regenerated.
 *
 * Environment controls:
 *   RTOC_CACHE=0       disable persistence entirely
 *   RTOC_CACHE_DIR=d   cache root (default $XDG_CACHE_HOME/rtoc or
 *                      $HOME/.cache/rtoc; disabled when neither is
 *                      set)
 *
 * File layout: the magic "RTOCCHE1", the fingerprint, namespace and
 * key (each a u32 length and its bytes), the u64 payload length, the
 * payload, and a u64 checksum of the payload, all in host byte order.
 * The checksum runs four independent lanes over the payload's 8-byte
 * words plus one word for the byte tail, each step a bijection of its
 * lane's state, so every single-bit flip changes it. A payload crosses
 * memory once each way: put writes the head, the payload and the
 * checksum from their own buffers in one gathered write, and get sizes
 * one read by fstat, scattering the file into the head, the returned
 * payload string and the checksum. Any file that is not exactly this
 * entry's head, a payload of the stated length and its checksum (bytes
 * after the checksum included) is rejected.
 *
 * Writes are atomic: each put writes its own temp file, named
 * <path>.tmp.<pid>.<n> with n a process-wide counter, then renames it
 * over the entry, so threads and processes (ctest workers included)
 * may share one cache directory and a reader sees a whole old or a
 * whole new file.
 */

#ifndef RTOC_ISA_DISK_CACHE_HH
#define RTOC_ISA_DISK_CACHE_HH

#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>

#include "isa/program.hh"

namespace rtoc::isa {

/** Counters for disk-cache effectiveness reporting. */
struct DiskCacheStats
{
    uint64_t hits = 0;     ///< payloads served from disk
    uint64_t misses = 0;   ///< keys not present on disk
    uint64_t writes = 0;   ///< payloads persisted
    uint64_t rejected = 0; ///< corrupt/mismatched files discarded
};

/**
 * Library build fingerprint: cache-format schema plus the source hash
 * injected by the build system (RTOC_BUILD_FINGERPRINT).
 */
const std::string &buildFingerprint();

/** Keyed, fingerprinted blob store rooted at one directory. */
class DiskCache
{
  public:
    /** Disabled cache: every get misses, every put drops. */
    DiskCache() = default;

    /** Cache rooted at @p dir (created on first put). */
    explicit DiskCache(std::string dir,
                       std::string fingerprint = buildFingerprint());

    /** Build from RTOC_CACHE / RTOC_CACHE_DIR / XDG / HOME. */
    static DiskCache fromEnv();

    /** Process-wide cache, configured from the environment once. */
    static DiskCache &global();

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }
    const std::string &fingerprint() const { return fp_; }

    /**
     * Payload stored under (@p ns, @p key); nullopt on miss. A file
     * that fails validation (empty or truncated, bad magic, foreign
     * fingerprint, key collision, checksum mismatch) is deleted and
     * counted in `rejected`, so the caller's regeneration overwrites
     * it.
     */
    std::optional<std::string> get(const std::string &ns,
                                   const std::string &key) const;

    /** Atomically persist @p payload under (@p ns, @p key). */
    void put(const std::string &ns, const std::string &key,
             const std::string &payload) const;

    /** Snapshot of the counters. */
    DiskCacheStats stats() const;

    /** On-disk path of (@p ns, @p key) — tests corrupt it directly. */
    std::string pathFor(const std::string &ns,
                        const std::string &key) const;

  private:
    std::string dir_;
    std::string fp_;
    mutable std::mutex mu_; ///< guards stats_ only
    mutable DiskCacheStats stats_;
};

/**
 * Minimal length-prefixed binary payload helpers shared by every
 * cache blob codec (programs here, calibrations in hil/timing.cc).
 * Reader is bounds-checked: any short read flips ok and returns
 * zero/empty, so codecs validate with one flag test.
 */
namespace blob {

template <typename T>
void
putRaw(std::string &out, const T &v)
{
    static_assert(std::is_trivially_copyable<T>::value, "raw pod only");
    out.append(reinterpret_cast<const char *>(&v), sizeof(T));
}

inline void
putStr(std::string &out, const std::string &s)
{
    putRaw<uint32_t>(out, static_cast<uint32_t>(s.size()));
    out.append(s);
}

struct Reader
{
    const char *p;
    size_t left;
    bool ok = true;

    explicit Reader(const std::string &s) : p(s.data()), left(s.size())
    {}

    template <typename T>
    T
    raw()
    {
        T v{};
        if (left < sizeof(T)) {
            ok = false;
            return v;
        }
        std::memcpy(&v, p, sizeof(T));
        p += sizeof(T);
        left -= sizeof(T);
        return v;
    }

    std::string
    str()
    {
        uint32_t n = raw<uint32_t>();
        if (!ok || left < n) {
            ok = false;
            return {};
        }
        std::string s(p, n);
        p += n;
        left -= n;
        return s;
    }
};

} // namespace blob

/** Serialize @p prog (stream, regions, counters) to a byte string. */
std::string encodeProgram(const Program &prog);

/**
 * Decode an encodeProgram payload; nullopt when malformed: truncated,
 * an unknown uop kind, a register id that is neither kNoReg nor below
 * its file's counter, a counter above 4 * uops + 1, or bad regions
 * (kernel names are re-interned, so ids are valid in this process).
 */
std::optional<Program> decodeProgram(const std::string &payload);

} // namespace rtoc::isa

#endif // RTOC_ISA_DISK_CACHE_HH
