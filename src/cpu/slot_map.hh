/**
 * @file
 * SlotMap: per-cycle issue-slot occupancy of one OoO issue pipe.
 *
 * The greedy-dataflow OoO model issues each uop at the earliest cycle
 * >= its ready time that still has a free slot in its pipe. Behind a
 * saturated pipe that search used to probe one full cycle at a time.
 * SlotMap keeps a per-cycle claim count plus a bitset with one bit per
 * cycle; the invariant is
 *
 *     bit c of full_ is set  <=>  used_[c] == width (all slots taken).
 *
 * So "earliest free cycle >= t" is "earliest clear bit >= t", found 64
 * cycles per word with a count-trailing-zeros. The rule itself (claim
 * the earliest cycle with used < width) is unchanged, so every claim
 * returns the cycle the one-at-a-time probe would have returned.
 */

#ifndef RTOC_CPU_SLOT_MAP_HH
#define RTOC_CPU_SLOT_MAP_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rtoc::cpu {

/** Per-cycle issue-slot occupancy for one pipeline class. */
class SlotMap
{
  public:
    /**
     * Rearm for a new run of @p width slots per cycle (1..255: the
     * per-cycle count is a byte). Keeps buffer capacity.
     */
    void
    reset(int width)
    {
        width_ = static_cast<uint8_t>(width);
        std::fill(used_.begin(), used_.end(), 0);
        std::fill(full_.begin(), full_.end(), 0);
    }

    /** Earliest cycle >= t with a free slot; claims it. */
    uint64_t
    claimFrom(uint64_t t)
    {
        size_t w = static_cast<size_t>(t >> 6);
        if (w >= full_.size())
            grow(w);
        uint64_t free = ~full_[w] & (~uint64_t{0} << (t & 63));
        while (free == 0) {
            if (++w == full_.size())
                grow(w);
            free = ~full_[w];
        }
        const uint64_t c =
            (static_cast<uint64_t>(w) << 6) |
            static_cast<uint64_t>(__builtin_ctzll(free));
        if (++used_[c] == width_)
            full_[w] |= uint64_t{1} << (c & 63);
        return c;
    }

  private:
    /** Make word @p w addressable; new cycles start empty. */
    void
    grow(size_t w)
    {
        const size_t words = w * 2 + 1;
        full_.resize(words, 0);
        used_.resize(words * 64, 0);
    }

    uint8_t width_ = 1;
    std::vector<uint8_t> used_;  ///< claimed slots per cycle
    std::vector<uint64_t> full_; ///< bit c set <=> used_[c] == width_
};

} // namespace rtoc::cpu

#endif // RTOC_CPU_SLOT_MAP_HH
