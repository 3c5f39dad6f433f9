#include "program_cache.hh"

#include "common/logging.hh"
#include "obs/trace.hh"

namespace rtoc::isa {

namespace {

std::string
encodeShared(const std::shared_ptr<const Program> &prog)
{
    return encodeProgram(*prog);
}

std::optional<std::shared_ptr<const Program>>
decodeShared(const std::string &payload)
{
    obs::Span span("isa.disk_load", "cache");
    std::optional<Program> prog = decodeProgram(payload);
    if (!prog)
        return std::nullopt;
    span.arg("uops", prog->size());
    return std::make_shared<const Program>(std::move(*prog));
}

const DiskTier<std::shared_ptr<const Program>> kProgTier{
    "prog", encodeShared, decodeShared};

} // namespace

ProgramCache::ProgramCache(const DiskCache *disk)
    : ProgramCache(disk, "")
{}

ProgramCache::ProgramCache(const DiskCache *disk, const std::string &name)
    : disk_(disk), memo_(name, kProgTier)
{}

std::shared_ptr<const Program>
ProgramCache::getOrEmit(const std::string &key, const Emitter &emit)
{
    auto emit_once = [&]() -> std::shared_ptr<const Program> {
        obs::Span span("isa.emit", "cache");
        auto prog = std::make_shared<Program>();
        // A fixed reservation (typical instrumented solves run to
        // ~1e5 uops) keeps an emitter that appends in place from
        // reallocating its way up; one that assigns a whole Program
        // discards it.
        prog->reserve(1 << 16, 1 << 10);
        emit(*prog);
        if (prog->kernelOpen())
            rtoc_panic("ProgramCache: emitter for '%s' left a kernel "
                       "region open", key.c_str());
        span.arg("uops", prog->size());
        return prog;
    };
    return memo_.get(key, emit_once, disk_);
}

uint64_t
ProgramCache::cachedUops() const
{
    uint64_t uops = 0;
    memo_.forEach([&](const std::shared_ptr<const Program> &prog) {
        uops += prog->size();
    });
    return uops;
}

ProgramCache &
ProgramCache::global()
{
    // Leaked: the registry polls its counters until exit.
    static ProgramCache *cache =
        new ProgramCache(&DiskCache::global(), "prog_cache");
    return *cache;
}

} // namespace rtoc::isa
