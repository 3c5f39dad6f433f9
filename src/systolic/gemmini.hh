/**
 * @file
 * Timing model of a Gemmini-like systolic array driven over RoCC by a
 * scalar core, per §4.2/§5.1.3.
 *
 * Modelled mechanisms, each needed by a paper finding:
 *  - RoCC command construction cost on the scalar core (the emitters
 *    add the bit-shifting/address-arithmetic uops; static mapping
 *    removes most of them — Fig. 6);
 *  - a bounded in-order command queue (ROB) with frontend
 *    back-pressure;
 *  - fences that drain the queue, plus the store→load memory-ordering
 *    stall of up to ~600 cycles the paper measures, because Gemmini's
 *    ROB does not track RAW hazards across memory operations (§4.2.4);
 *  - scratchpad-resident operation (results written back to the
 *    scratchpad avoid mvout/mvin round-trips entirely — Fig. 7);
 *  - column-vector mvin/mvout moving one element per cycle (the GEMV
 *    packing inefficiency discussed in §4.2.4);
 *  - activation (ReLU) and max-pool engines fused with mvout
 *    (§4.2.6), used for abs/clip and residual reductions.
 */

#ifndef RTOC_SYSTOLIC_GEMMINI_HH
#define RTOC_SYSTOLIC_GEMMINI_HH

#include <string>

#include "cpu/inorder.hh"

namespace rtoc::systolic {

/** Dataflow of the mesh. */
enum class Dataflow { OutputStationary, WeightStationary };

/** Gemmini configuration. */
struct GemminiConfig
{
    std::string name = "gemmini-os4x4-rocket";
    int meshDim = 4;     ///< mesh is meshDim x meshDim FP32 PEs
    Dataflow dataflow = Dataflow::OutputStationary;
    int spadKb = 64;     ///< scratchpad capacity
    int accKb = 0;       ///< accumulator memory (WS designs only)
    int robDepth = 16;   ///< queued RoCC commands before back-pressure
    int issueLat = 2;    ///< RoCC untethering latency
    int configLat = 2;   ///< config_ex/ld/st execution
    int dmaFixed = 30;   ///< fixed DMA startup for mvin/mvout
    int busBytes = 16;   ///< DMA bytes per cycle
    int fenceBase = 20;  ///< queue-drain bookkeeping on a fence
    int fenceMemPenalty = 600; ///< store->load ordering stall
    /** §4.2.4 future-work extension: hardware GEMV support packs
     *  vectors across scratchpad rows, so column-vector mvin/mvout
     *  runs at full DMA bandwidth instead of one element/cycle. */
    bool hardwareGemv = false;
    cpu::InOrderConfig frontend = cpu::InOrderConfig::rocket();

    /** The paper's principal design point: OS 4x4 FP32 mesh. */
    static GemminiConfig os4x4(int spad_kb = 64);

    /** Area-comparison WS design with a 1KB accumulator. */
    static GemminiConfig ws4x4(int spad_kb = 64);

    /** OS 4x4 plus the hardware-GEMV extension (§4.2.4 future work). */
    static GemminiConfig os4x4HwGemv(int spad_kb = 64);
};

/** Gemmini accelerator + scalar frontend timing model. */
class GemminiModel : public cpu::TimingModel
{
  public:
    /** Panics unless busBytes and robDepth are >= 1 and the frontend
     *  passes InOrderConfig::check(). */
    explicit GemminiModel(GemminiConfig cfg);

    cpu::TimingResult runAos(const isa::Program &prog) const override;

    std::string name() const override { return cfg_.name; }

    std::string cacheKey() const override;

    const GemminiConfig &config() const { return cfg_; }

  protected:
    /**
     * One in-order engine pass advances one (frontend scoreboard +
     * RoCC command queue) pair per lane; lanes may differ in
     * mesh/DMA/fence knobs and frontend.
     */
    void runLanes(const isa::UopStreamView &view,
                  const cpu::TimingModel *const *models, size_t n,
                  cpu::TimingResult *out) const override;

  private:
    GemminiConfig cfg_;
};

} // namespace rtoc::systolic

#endif // RTOC_SYSTOLIC_GEMMINI_HH
