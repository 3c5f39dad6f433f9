/**
 * @file
 * The RTOC_SCHED=0 contract: with the schedule layer off (the
 * default; this binary never sets the env var) every golden output
 * must stay byte-identical to the pre-schedule builds. That reduces
 * to three invariants, pinned here in a process whose env latch is
 * guaranteed off: scheduledStream returns the baseline stream pointer
 * untouched, schedKeySuffix() is empty (calibration and DSE cell keys
 * are unchanged), and no "sched.*" counters are ever registered (the
 * metrics JSON section is unchanged).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "cpu/inorder.hh"
#include "isa/program.hh"
#include "isa/program_cache.hh"
#include "isa/sched_search.hh"
#include "obs/registry.hh"

namespace rtoc {
namespace {

using isa::Program;
using isa::Uop;
using isa::UopKind;

/** Guarantee the off state regardless of the ctest environment. */
const bool kSchedEnv = [] {
    unsetenv("RTOC_SCHED");
    return true;
}();

Program
smallProgram()
{
    Program p;
    p.beginKernel("body");
    uint32_t acc = p.newReg();
    p.push(Uop::scalar(UopKind::FpMove, acc));
    for (int i = 0; i < 8; ++i) {
        uint32_t next = p.newReg();
        p.push(Uop::scalar(UopKind::FpFma, next, acc));
        acc = next;
    }
    p.endKernel();
    return p;
}

TEST(ScheduleOff, LayerIsInert)
{
    ASSERT_FALSE(isa::schedEnabled());
    EXPECT_EQ(isa::schedKeySuffix(), "");

    auto baseline = std::make_shared<const Program>(smallProgram());
    cpu::InOrderCore shuttle(cpu::InOrderConfig::shuttle());
    int cost_calls = 0;
    auto s = isa::scheduledStream(
        "modelA", "progK", baseline,
        [&](const Program &p) {
            ++cost_calls;
            return shuttle.run(p).cycles;
        });
    // Same pointer — not a copy, not a searched schedule — and the
    // cost model (i.e. the search) never ran.
    EXPECT_EQ(s.get(), baseline.get());
    EXPECT_EQ(cost_calls, 0);

    // No schedule counters leak into the registry snapshot, so the
    // metrics JSON of sched-off runs is byte-identical to pre-PR
    // builds.
    obs::Snapshot snap = obs::Registry::global().snapshot();
    EXPECT_EQ(snap.get("sched.searches"), 0u);
    EXPECT_EQ(snap.get("sched.memo.hits"), 0u);
    EXPECT_EQ(snap.get("sched.candidates_scored"), 0u);
}

} // namespace
} // namespace rtoc
