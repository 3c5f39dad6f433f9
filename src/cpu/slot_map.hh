/**
 * @file
 * SlotMap: per-cycle issue-slot occupancy of one OoO issue pipe.
 *
 * The greedy-dataflow OoO model issues each uop at the earliest cycle
 * >= its ready time that still has a free slot in its pipe. Behind a
 * saturated pipe that search used to probe one full cycle at a time.
 * SlotMap keeps a bitset with one bit per cycle, plus a per-cycle
 * claim count when the pipe is wider than one slot (at width 1 the bit
 * records everything the count would); the invariant is
 *
 *     bit c of full is set  <=>  all of cycle c's slots are taken.
 *
 * So "earliest free cycle >= t" is "earliest clear bit >= t", found 64
 * cycles per word with a count-trailing-zeros. The rule itself (claim
 * the earliest cycle with used < width) is unchanged, so every claim
 * returns the cycle the one-at-a-time probe would have returned.
 *
 * A run claims through a Cursor, plain pointers the OoO engine keeps
 * in locals: the claim counts are bytes, and a byte store may alias
 * any object in memory, so bounds read back from the map itself would
 * be reloaded after every claim. The cursor carries no bound. Every
 * cycle from one past the latest claim on is free, so a run reserves
 * the cycles a stretch of claims can reach before making them, and
 * growth stays out of the claim. The buffers keep their capacity
 * across runs, and reset() clears only the words the last run may
 * have claimed.
 */

#ifndef RTOC_CPU_SLOT_MAP_HH
#define RTOC_CPU_SLOT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace rtoc::cpu {

/** Per-cycle issue-slot occupancy for one pipeline class. */
class SlotMap
{
  public:
    /** The map's buffers and width, as a run's claims use them. */
    struct Cursor
    {
        uint64_t *full = nullptr; ///< bit c set <=> cycle c is full
        uint8_t *used = nullptr;  ///< claims per cycle (width > 1 only)
        uint64_t width = 1;
        uint64_t end = 0; ///< cycles reserved: every claim lies below
    };

    /**
     * Rearm for a new run of @p width slots per cycle (1..255: the
     * per-cycle count is a byte), clearing the cycles the last run
     * reserved, or only those below its claimedBelow() bound.
     */
    void
    reset(int width)
    {
        const size_t words = std::min(wordsFor(reach_), full_.size());
        std::fill_n(full_.begin(), words, 0);
        std::fill_n(used_.begin(), std::min(words * 64, used_.size()), 0);
        width_ = static_cast<uint8_t>(width);
        reach_ = 0;
        next_ = 0;
    }

    /**
     * The cursor, with every cycle below @p cycles addressable. Cycles
     * added by growth start empty.
     */
    Cursor
    reserve(uint64_t cycles)
    {
        const size_t words = wordsFor(cycles);
        if (words > full_.size())
            full_.resize(std::max(words, full_.size() * 2), 0);
        if (width_ > 1 && used_.size() < full_.size() * 64)
            used_.resize(full_.size() * 64, 0);
        reach_ = std::max(reach_, cycles);
        return {full_.data(), used_.data(), width_, cycles};
    }

    /**
     * Earliest cycle >= t with a free slot in @p c's map; claims it.
     * The cursor must reach that cycle: max(t, one past the run's
     * latest claim) is free, so reserving through it suffices.
     */
    static uint64_t
    claim(const Cursor &c, uint64_t t)
    {
        // Cycle t itself is usually free: testing its bit first lets a
        // predicted branch hand t on without waiting for the search.
        size_t w = static_cast<size_t>(t >> 6);
        uint64_t cyc = t;
        if ((c.full[w] >> (t & 63)) & 1) {
            uint64_t free = ~c.full[w] & (~uint64_t{0} << (t & 63));
            while (free == 0)
                free = ~c.full[++w];
            cyc = (static_cast<uint64_t>(w) << 6) |
                  static_cast<uint64_t>(__builtin_ctzll(free));
        }
        rtoc_assert(cyc < c.end);
        if (c.width == 1) {
            c.full[w] |= uint64_t{1} << (cyc & 63);
        } else {
            const uint64_t n = ++c.used[cyc];
            c.full[w] |= static_cast<uint64_t>(n == c.width) << (cyc & 63);
        }
        return cyc;
    }

    /** claim() with its own reservation (the reference loop). */
    uint64_t
    claimFrom(uint64_t t)
    {
        const uint64_t cyc = claim(reserve(std::max(t, next_) + 1), t);
        next_ = std::max(next_, cyc + 1);
        return cyc;
    }

    /**
     * End the run: it claimed no cycle at or past @p end, so the next
     * reset() clears only the words below it.
     */
    void
    claimedBelow(uint64_t end)
    {
        reach_ = std::min(reach_, end);
    }

  private:
    /** Words holding cycles [0, @p cycles). */
    static size_t
    wordsFor(uint64_t cycles)
    {
        return static_cast<size_t>((cycles + 63) >> 6);
    }

    uint8_t width_ = 1;
    uint64_t reach_ = 0; ///< cycles reset() must clear
    uint64_t next_ = 0;  ///< one past claimFrom's latest claim
    std::vector<uint8_t> used_;  ///< claimed slots per cycle
    std::vector<uint64_t> full_; ///< bit c set <=> cycle c is full
};

} // namespace rtoc::cpu

#endif // RTOC_CPU_SLOT_MAP_HH
