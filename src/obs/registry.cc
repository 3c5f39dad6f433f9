#include "registry.hh"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/thread_pool.hh"
#include "isa/disk_cache.hh"

namespace rtoc::obs {

namespace {

constexpr size_t kShardChunk = 256; ///< counter slots per shard chunk

/**
 * One thread's counter shard: chunked arrays of relaxed atomics
 * indexed by StatId. The owning thread is the only incrementer;
 * snapshot() reads the atomics cross-thread. Chunks never move once
 * allocated; `grow_mu` serializes allocation against snapshot's
 * chunk-list walk (same discipline as the trace buffers).
 */
struct Shard
{
    std::mutex grow_mu;
    std::deque<std::unique_ptr<std::atomic<uint64_t>[]>> chunks;

    void
    add(StatId id, uint64_t delta)
    {
        size_t chunk = id / kShardChunk;
        if (chunk >= chunks.size()) {
            std::lock_guard<std::mutex> lk(grow_mu);
            while (chunks.size() <= chunk)
                chunks.emplace_back(
                    new std::atomic<uint64_t>[kShardChunk]());
        }
        chunks[chunk][id % kShardChunk].fetch_add(
            delta, std::memory_order_relaxed);
    }

    /** Cross-thread read; takes grow_mu so the chunk-list walk never
     *  races the owner's chunk allocation. */
    uint64_t
    read(StatId id)
    {
        std::lock_guard<std::mutex> lk(grow_mu);
        size_t chunk = id / kShardChunk;
        if (chunk >= chunks.size())
            return 0;
        return chunks[chunk][id % kShardChunk].load(
            std::memory_order_relaxed);
    }
};

struct RegState
{
    mutable std::mutex mu; ///< shards list, registered ids, gauges
    std::vector<Shard *> shards; ///< leaked on purpose: counts from
                                 ///< exited threads must survive
    std::map<StatId, bool> registered; ///< id -> unstable flag
    std::map<std::string, std::function<uint64_t()>> gauges;
};

RegState &
regState()
{
    static RegState *s = new RegState; // leaked: usable at exit
    return *s;
}

/** Copy the shard list under the registry lock (cold paths). */
std::vector<Shard *>
lockedShards(const RegState &s)
{
    std::lock_guard<std::mutex> lk(s.mu);
    return s.shards;
}

thread_local Shard *t_shard = nullptr;

Shard &
threadShard()
{
    if (!t_shard) {
        auto *sh = new Shard; // leaked on purpose (see above)
        RegState &s = regState();
        std::lock_guard<std::mutex> lk(s.mu);
        s.shards.push_back(sh);
        t_shard = sh;
    }
    return *t_shard;
}

/** Sum counter @p id across all shards (caller holds no locks). */
uint64_t
sumCounter(StatId id, const std::vector<Shard *> &shards)
{
    uint64_t total = 0;
    for (Shard *sh : shards)
        total += sh->read(id);
    return total;
}

void
appendJsonEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char hex[8];
            snprintf(hex, sizeof(hex), "\\u%04x", c);
            out += hex;
        } else {
            out += c;
        }
    }
}

/**
 * The RTOC_* knobs recorded in the manifest. RTOC_TRACE and RTOC_LOG
 * are deliberately absent: both are output-neutral by contract, and
 * recording them would break the traced-vs-untraced byte-identity of
 * golden artifacts.
 */
const char *const kManifestKnobs[] = {
    "RTOC_THREADS", "RTOC_CACHE",  "RTOC_CACHE_DIR",
    "RTOC_SCHED",   "RTOC_FORMAT", "RTOC_FAULT",
};

} // namespace

uint64_t
Snapshot::get(const std::string &name) const
{
    auto it = vals_.find(name);
    return it == vals_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t>
Snapshot::diff(const Snapshot &base) const
{
    std::map<std::string, uint64_t> d;
    for (const auto &kv : vals_) {
        uint64_t before = base.get(kv.first);
        d[kv.first] = kv.second >= before ? kv.second - before : 0;
    }
    return d;
}

Registry &
Registry::global()
{
    static Registry *r = new Registry; // leaked: usable at exit
    return *r;
}

StatId
Registry::counter(const std::string &name, bool unstable)
{
    StatId id = internStat(name);
    RegState &s = regState();
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.registered.find(id);
    if (it == s.registered.end())
        s.registered.emplace(id, unstable);
    else if (unstable)
        it->second = true;
    return id;
}

void
Registry::inc(StatId id, uint64_t delta)
{
    threadShard().add(id, delta);
}

void
Registry::gauge(const std::string &name, std::function<uint64_t()> fn)
{
    RegState &s = regState();
    std::lock_guard<std::mutex> lk(s.mu);
    s.gauges[name] = std::move(fn);
}

uint64_t
Registry::value(StatId id) const
{
    return sumCounter(id, lockedShards(regState()));
}

Snapshot
Registry::snapshot() const
{
    RegState &s = regState();
    std::vector<Shard *> shards = lockedShards(s);
    std::map<StatId, bool> registered;
    std::map<std::string, std::function<uint64_t()>> gauges;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        registered = s.registered;
        gauges = s.gauges;
    }
    Snapshot snap;
    for (const auto &kv : registered)
        snap.vals_[statName(kv.first)] = sumCounter(kv.first, shards);
    for (const auto &kv : gauges)
        snap.vals_[kv.first] = kv.second();
    return snap;
}

void
Registry::writeJsonSections(FILE *f) const
{
    RegState &s = regState();
    std::vector<Shard *> shards = lockedShards(s);
    std::map<StatId, bool> registered;
    std::map<std::string, std::function<uint64_t()>> gauges;
    {
        std::lock_guard<std::mutex> lk(s.mu);
        registered = s.registered;
        gauges = s.gauges;
    }
    // Name-sorted stable counters + gauges.
    std::map<std::string, uint64_t> vals;
    for (const auto &kv : registered)
        if (!kv.second)
            vals[statName(kv.first)] = sumCounter(kv.first, shards);
    for (const auto &kv : gauges)
        vals[kv.first] = kv.second();

    std::string out = "  \"metrics\": {";
    bool first = true;
    char num[64];
    for (const auto &kv : vals) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        appendJsonEscaped(out, kv.first);
        snprintf(num, sizeof(num), "\": %llu",
                 static_cast<unsigned long long>(kv.second));
        out += num;
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"manifest\": ";
    out += manifestJson();
    out += ",\n";
    std::fputs(out.c_str(), f);
}

std::string
manifestJson()
{
    std::string out = "{\n    \"build\": \"";
    appendJsonEscaped(out, isa::buildFingerprint());
    out += "\",\n";
    char num[64];
    snprintf(num, sizeof(num), "    \"threads\": %d,\n",
             ThreadPool::global().threads());
    out += num;
    out += "    \"cache_mode\": \"";
    out += isa::DiskCache::global().enabled() ? "disk" : "off";
    out += "\",\n    \"env\": {";
    bool first = true;
    for (const char *knob : kManifestKnobs) {
        const char *v = std::getenv(knob);
        if (!v)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "      \"";
        out += knob;
        out += "\": \"";
        appendJsonEscaped(out, v);
        out += '"';
    }
    out += first ? "}\n  }" : "\n    }\n  }";
    return out;
}

} // namespace rtoc::obs
