/**
 * @file
 * Timing model of a Saturn-like short-vector RVV unit attached to an
 * in-order scalar frontend (Rocket or Shuttle), per §4.1/§5.1.2.
 *
 * Modelled mechanisms, each needed by a paper finding:
 *  - frontend coupling: every vector instruction consumes a scalar
 *    issue slot, so a single-issue Rocket frontend starves the vector
 *    unit on short-vector kernels (Fig. 11);
 *  - instruction occupancy in datapath beats: ceil(VL*SEW/DLEN) for a
 *    partially-filled register, but a grouped (LMUL>1) instruction
 *    walks the whole register group, which is why LMUL helps large
 *    elementwise kernels yet hurts the short GEMVs of the iterative
 *    passes (Fig. 4);
 *  - chaining between producer/consumer vector instructions;
 *  - a bounded in-flight vector queue providing back-pressure;
 *  - scalar-read-of-vector synchronization (reductions, vfmv.f.s).
 */

#ifndef RTOC_VECTOR_SATURN_HH
#define RTOC_VECTOR_SATURN_HH

#include <string>

#include "cpu/inorder.hh"

namespace rtoc::vector {

/** Saturn configuration: vector lengths plus frontend choice. */
struct SaturnConfig
{
    std::string name = "saturn-v512d256-rocket";
    int vlen = 512;        ///< architectural vector length (bits)
    int dlen = 256;        ///< datapath width (bits/cycle)
    int vqDepth = 8;       ///< in-flight vector instructions
    int pipeLat = 4;       ///< dispatch-to-first-result latency
    int chainLat = 2;      ///< extra beats before a consumer may chain
    int memLat = 6;        ///< vector load fixed latency
    int scalarMoveLat = 3; ///< vector->scalar transfer latency
    cpu::InOrderConfig frontend = cpu::InOrderConfig::rocket();

    /** Named configuration helper, e.g. saturn(512, 256, shuttle). */
    static SaturnConfig make(int vlen, int dlen, bool shuttle_frontend);
};

/** Saturn vector machine: in-order frontend + decoupled vector unit. */
class SaturnModel : public cpu::TimingModel
{
  public:
    /** Panics unless dlen and vqDepth are >= 1 and the frontend
     *  passes InOrderConfig::check(). */
    explicit SaturnModel(SaturnConfig cfg);

    cpu::TimingResult runAos(const isa::Program &prog) const override;

    std::string name() const override { return cfg_.name; }

    std::string cacheKey() const override;

    /** Maximum elements per vector register for @p sew bits. */
    int vlmax(int sew = 32) const { return cfg_.vlen / sew; }

  protected:
    /**
     * One in-order engine pass advances one (frontend scoreboard +
     * vector unit) pair per lane; lanes may differ in VLEN/DLEN/queue
     * depth and frontend.
     */
    void runLanes(const isa::UopStreamView &view,
                  const cpu::TimingModel *const *models, size_t n,
                  cpu::TimingResult *out) const override;

  private:
    SaturnConfig cfg_;
};

} // namespace rtoc::vector

#endif // RTOC_VECTOR_SATURN_HH
