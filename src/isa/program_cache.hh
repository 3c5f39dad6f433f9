/**
 * @file
 * Memoization of emitted micro-op streams.
 *
 * TinyMPC emission is data-independent: given a backend configuration,
 * a mapping style, problem dimensions, a horizon and a forced
 * iteration count, the solver emits bit-identical streams regardless
 * of the numerical state it solves from. Re-emitting the ~1e5-uop
 * stream on every calibration or design-point evaluation is therefore
 * pure waste — the ProgramCache emits once per distinct key and hands
 * out shared, immutable replays. The solve stream has one key and one
 * emitter (hil::solveStreamKey, hil::emitSolveStream) that every
 * calibration, design space and bench fetches it through
 * (hil::solveStream), so each distinct stream is emitted and stored
 * once.
 *
 * The cache is an isa::Memo (memo.hh) of frozen programs: getOrEmit
 * may be called concurrently from sweep workers, racing workers emit
 * a key exactly once while distinct keys emit in parallel, and hits
 * return a shared_ptr without touching the emitter.
 *
 * When constructed over a DiskCache, the memo's "prog" tier serves a
 * key's first request from disk before running the emitter and
 * persists fresh emissions, so a warm process (second bench binary,
 * CI re-run) fills its memory with zero re-emissions. MemoStats
 * computes counts how often the emitter actually ran.
 */

#ifndef RTOC_ISA_PROGRAM_CACHE_HH
#define RTOC_ISA_PROGRAM_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "isa/memo.hh"
#include "isa/program.hh"

namespace rtoc::isa {

/** Keyed store of immutable emitted Programs. */
class ProgramCache
{
  public:
    /** Emitter callback: fill @p prog with the stream for a key. */
    using Emitter = std::function<void(Program &prog)>;

    /** In-memory cache, optionally backed by @p disk (not owned). */
    explicit ProgramCache(const DiskCache *disk = nullptr);

    /**
     * Return the Program cached under @p key, emitting it via
     * @p emit on the first request. The returned Program is shared
     * and must not be mutated.
     */
    std::shared_ptr<const Program> getOrEmit(const std::string &key,
                                             const Emitter &emit);

    /** Hits, misses, emissions (computes), disk hits and entries. */
    MemoStats stats() const { return memo_.stats(); }

    /** Total uops held by the cached programs. */
    uint64_t cachedUops() const;

    /**
     * Process-wide cache used by the benches and HIL calibration. Its
     * MemoStats (and only its — tests build private instances) are
     * mirrored into the obs::Registry as "prog_cache.*".
     */
    static ProgramCache &global();

  private:
    ProgramCache(const DiskCache *disk, const std::string &name);

    const DiskCache *disk_ = nullptr;
    Memo<std::shared_ptr<const Program>> memo_;
};

} // namespace rtoc::isa

#endif // RTOC_ISA_PROGRAM_CACHE_HH
