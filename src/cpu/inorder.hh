/**
 * @file
 * Scoreboarded in-order core model covering Rocket (single-issue) and
 * Shuttle (dual-issue superscalar in-order), the two scalar front ends
 * the paper drives Saturn and Gemmini with (§4, §5.1.1).
 */

#ifndef RTOC_CPU_INORDER_HH
#define RTOC_CPU_INORDER_HH

#include <string>

#include "cpu/core_model.hh"

namespace rtoc::cpu {

/** Microarchitectural parameters of an in-order core. */
struct InOrderConfig
{
    std::string name = "rocket";
    int issueWidth = 1;   ///< instructions issued per cycle
    int fpuCount = 1;     ///< pipelined FPUs (FMA-capable)
    int memPorts = 1;     ///< loads+stores per cycle
    int loadLatency = 3;  ///< L1-hit load-use latency
    int fpLatency = 4;    ///< fadd/fmul/fma latency
    int fpDivLatency = 16;
    int intMulLatency = 3;
    int branchBubble = 2; ///< taken-branch redirect penalty

    /** Latency of pipelined FPU ops at sub-32-bit element width
     *  (LatClass::FpNarrow): half-width FMAs shave a stage. */
    int
    narrowFpLatency() const
    {
        return fpLatency > 1 ? fpLatency - 1 : 1;
    }

    /**
     * Panics unless the issue, FPU and memory-port widths are in
     * [1, kMaxWidth]: a zero width never issues, and the engine counts
     * each width in a 15-bit field. The Saturn and Gemmini models check
     * their frontend with it too.
     */
    void check() const;

    /** Widest issue, FPU or memory-port count the engine can count. */
    static constexpr int kMaxWidth = 0x7fff;

    /** Rocket: classic 5-stage single-issue in-order. */
    static InOrderConfig rocket();

    /** Shuttle: dual-issue superscalar in-order. */
    static InOrderConfig shuttle();
};

/** Scoreboard timing model for an in-order scalar pipeline. */
class InOrderCore : public TimingModel
{
  public:
    /** Panics unless @p cfg passes InOrderConfig::check(). */
    explicit InOrderCore(InOrderConfig cfg);

    TimingResult runAos(const isa::Program &prog) const override;

    std::string name() const override { return cfg_.name; }

    std::string cacheKey() const override;

    /**
     * The AoS reference loop behind the runAos of this core, Saturn
     * and Gemmini: one config over Program::uop(i), invoking @p coproc
     * for non-scalar kinds. @p coproc receives the uop, the cycle at
     * which the frontend presents it and the register files, and
     * returns {release, done}: the cycle at which the frontend may
     * proceed (coprocessor back-pressure) and the uop's completion.
     */
    template <typename CoprocFn>
    TimingResult runWithCoproc(const isa::Program &prog,
                               CoprocFn &&coproc) const;

  protected:
    /** One replayInOrder pass advances one scoreboard per lane. */
    void runLanes(const isa::UopStreamView &view,
                  const TimingModel *const *models, size_t n,
                  TimingResult *out) const override;

  private:
    InOrderConfig cfg_;
};

} // namespace rtoc::cpu

#include "cpu/inorder_impl.hh"

#endif // RTOC_CPU_INORDER_HH
