#include "isa/schedule.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/logging.hh"
#include "isa/disk_cache.hh"
#include "isa/uop_stream.hh"

namespace rtoc::isa {

namespace {

constexpr uint32_t kNone = 0xffffffffu;

/** Segments larger than this keep their original order: the list
 *  scheduler is O(segment * ready-set) and kernel-region bodies are
 *  tens to hundreds of uops — a larger "region" means markers are
 *  misused and identity is the safe schedule. */
constexpr size_t kMaxSegment = 4096;

/**
 * Register def/use + ordering DAG over a whole program. Edges always
 * point from a lower original index to a higher one; succs may hold a
 * bounded number of duplicates (indegrees count multiplicity, so the
 * scheduler stays consistent).
 */
struct DepDag
{
    std::vector<std::vector<uint32_t>> succs;
};

DepDag
buildDag(const Program &base)
{
    const UopStreamView v = base.stream();
    const size_t n = v.n;
    DepDag dag;
    dag.succs.assign(n, {});

    auto add_edge = [&](uint32_t a, uint32_t b) {
        if (a == b || a == kNone)
            return;
        std::vector<uint32_t> &s = dag.succs[a];
        if (!s.empty() && s.back() == b)
            return; // adjacent-duplicate dedupe (cheap, common case)
        s.push_back(b);
    };

    // Per-register last writer + readers-since-last-write, split by
    // register file (scalar / vector share the id space minus the
    // vreg bit).
    std::vector<uint32_t> last_w[2];
    std::vector<std::vector<uint32_t>> readers[2];
    last_w[0].assign(base.scalarRegCount(), kNone);
    last_w[1].assign(base.vectorRegCount(), kNone);
    readers[0].resize(base.scalarRegCount());
    readers[1].resize(base.vectorRegCount());

    uint32_t last_coproc = kNone;
    uint32_t last_branch = kNone;
    uint32_t last_store = kNone;
    std::vector<uint32_t> loads_since_store;

    for (uint32_t i = 0; i < n; ++i) {
        const uint8_t cls = v.cls[i];

        for (uint32_t r : {v.src0[i], v.src1[i], v.src2[i]}) {
            if (r == kNoReg)
                continue;
            const int f = Program::isVReg(r) ? 1 : 0;
            const uint32_t idx = r & 0x7fffffffu;
            if (idx >= last_w[f].size())
                continue;
            add_edge(last_w[f][idx], i); // RAW
            readers[f][idx].push_back(i);
        }
        const uint32_t dst = v.dst[i];
        if (dst != kNoReg) {
            const int f = Program::isVReg(dst) ? 1 : 0;
            const uint32_t idx = dst & 0x7fffffffu;
            if (idx < last_w[f].size()) {
                add_edge(last_w[f][idx], i); // WAW
                for (uint32_t rd : readers[f][idx])
                    add_edge(rd, i); // WAR
                readers[f][idx].clear();
                last_w[f][idx] = i;
            }
        }

        if (!(cls & kClsScalar)) {
            // Coprocessor state (vsetvl context, queue occupancy,
            // chaining, fences) is sequenced through every coproc op.
            add_edge(last_coproc, i);
            last_coproc = i;
            continue;
        }

        const LatClass lc = latClassOf(cls);
        if (lc == LatClass::Branch) {
            add_edge(last_branch, i);
            last_branch = i;
        } else if (lc == LatClass::Load) {
            add_edge(last_store, i);
            loads_since_store.push_back(i);
        } else if (lc == LatClass::Store) {
            add_edge(last_store, i);
            for (uint32_t ld : loads_since_store)
                add_edge(ld, i);
            loads_since_store.clear();
            last_store = i;
        }
    }
    return dag;
}

/** Fission phase rank of a class byte: loads, integer address
 *  arithmetic, compute (FP and coproc), stores, branches. */
int
classRank(uint8_t cls)
{
    if (!(cls & kClsScalar))
        return 2;
    switch (latClassOf(cls)) {
      case LatClass::Load: return 0;
      case LatClass::IntAlu:
      case LatClass::IntMul: return 1;
      case LatClass::Store: return 3;
      case LatClass::Branch: return 4;
      default: return 2; // FP families and moves
    }
}

/**
 * One list-scheduling pass over a region segment. @p ord holds the
 * segment's original uop indices in their current order (a contiguous
 * [begin, begin+m) range in some permutation); returns the new order.
 * Only DAG edges internal to the segment constrain the schedule —
 * edges into earlier / out of later segments are satisfied because
 * segments never reorder relative to each other.
 */
std::vector<uint32_t>
schedulePass(const std::vector<uint32_t> &ord, uint32_t begin,
             const DepDag &dag, const uint8_t *cls_col,
             const SchedStep &step)
{
    const size_t m = ord.size();
    const auto local = [&](uint32_t orig) { return orig - begin; };
    const auto in_seg = [&](uint32_t orig) {
        return orig >= begin && orig < begin + m;
    };

    // pos[local] = current position; indeg over internal edges.
    std::vector<uint32_t> pos(m), indeg(m, 0);
    for (size_t p = 0; p < m; ++p)
        pos[local(ord[p])] = static_cast<uint32_t>(p);
    for (size_t p = 0; p < m; ++p) {
        for (uint32_t s : dag.succs[ord[p]])
            if (in_seg(s))
                ++indeg[local(s)];
    }

    std::vector<uint32_t> ready; // locals, unsorted (picks scan)
    ready.reserve(m);
    for (uint32_t l = 0; l < m; ++l)
        if (indeg[l] == 0)
            ready.push_back(l);

    std::vector<uint8_t> done(m, 0);
    // hot[l] == k+1 when l consumes the value produced by the k-th
    // pick (Reorder avoids back-to-back dependent issue).
    std::vector<uint32_t> hot(m, 0);

    std::vector<uint32_t> out;
    out.reserve(m);
    size_t scan = 0;        // min position of any unscheduled item
    uint32_t rr_chunk = 0;  // Unroll round-robin cursor
    const uint32_t K = std::max<uint16_t>(step.param, 2);
    const uint32_t W = std::max<uint16_t>(step.param, 1);

    for (size_t k = 0; k < m; ++k) {
        while (scan < m && done[local(ord[scan])])
            ++scan;

        // Pick the best ready item for this step's priority.
        size_t pick_at = 0;
        {
            rtoc_assert(!ready.empty());
            uint64_t best_key = ~0ull;
            for (size_t r = 0; r < ready.size(); ++r) {
                const uint32_t l = ready[r];
                const uint64_t p = pos[l];
                uint64_t key = 0;
                switch (step.kind) {
                  case SchedKind::Reorder: {
                    // (beyond-window, depends-on-last-pick, pos):
                    // hoist an independent op from the window; fall
                    // back to stream order.
                    const uint64_t far = p >= scan + W ? 1 : 0;
                    const uint64_t dep = hot[l] == k ? 1 : 0;
                    key = (far << 63) | (dep << 62) | p;
                    break;
                  }
                  case SchedKind::Unroll: {
                    const uint64_t chunk =
                        (p * K) / static_cast<uint64_t>(m);
                    const uint64_t delta = (chunk + K - rr_chunk) % K;
                    key = (delta << 32) | p;
                    break;
                  }
                  case SchedKind::Fission: {
                    const uint64_t rank = static_cast<uint64_t>(
                        classRank(cls_col[begin + l]));
                    key = (rank << 32) | p;
                    break;
                  }
                }
                if (key < best_key) {
                    best_key = key;
                    pick_at = r;
                }
            }
        }

        const uint32_t l = ready[pick_at];
        ready[pick_at] = ready.back();
        ready.pop_back();
        done[l] = 1;
        out.push_back(begin + l);
        if (step.kind == SchedKind::Unroll)
            rr_chunk = static_cast<uint32_t>(
                           (static_cast<uint64_t>(pos[l]) * K) / m + 1) %
                       K;
        for (uint32_t s : dag.succs[begin + l]) {
            if (!in_seg(s))
                continue;
            const uint32_t sl = local(s);
            hot[sl] = static_cast<uint32_t>(k) + 1;
            if (--indeg[sl] == 0)
                ready.push_back(sl);
        }
    }
    return out;
}

void
putSteps(std::string &out, const std::vector<SchedStep> &steps)
{
    blob::putRaw<uint32_t>(out, static_cast<uint32_t>(steps.size()));
    for (const SchedStep &s : steps) {
        blob::putRaw<uint8_t>(out, static_cast<uint8_t>(s.kind));
        blob::putRaw<uint16_t>(out, s.param);
    }
}

bool
readSteps(blob::Reader &rd, std::vector<SchedStep> &steps)
{
    const uint32_t n = rd.raw<uint32_t>();
    if (!rd.ok || n > 64)
        return false;
    steps.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
        const uint8_t kind = rd.raw<uint8_t>();
        steps[i].param = rd.raw<uint16_t>();
        if (!rd.ok || kind > static_cast<uint8_t>(SchedKind::Fission))
            return false;
        steps[i].kind = static_cast<SchedKind>(kind);
    }
    return true;
}

std::string
describeSteps(const std::vector<SchedStep> &steps)
{
    if (steps.empty())
        return "identity";
    std::string s;
    for (const SchedStep &st : steps) {
        if (!s.empty())
            s += "+";
        s += schedKindName(st.kind);
        if (st.kind != SchedKind::Fission)
            s += std::to_string(st.param);
    }
    return s;
}

} // namespace

const char *
schedKindName(SchedKind k)
{
    switch (k) {
      case SchedKind::Reorder: return "reorder";
      case SchedKind::Unroll: return "unroll";
      case SchedKind::Fission: return "fission";
    }
    return "?";
}

const std::vector<SchedStep> &
SchedSpec::stepsFor(const std::string &name) const
{
    for (const Override &o : overrides)
        if (o.region == name)
            return o.steps;
    return steps;
}

std::string
SchedSpec::describe() const
{
    std::string s = describeSteps(steps);
    for (const Override &o : overrides)
        s += "; " + o.region + "=" + describeSteps(o.steps);
    return s;
}

std::string
encodeSchedSpec(const SchedSpec &spec)
{
    std::string out;
    blob::putRaw<uint32_t>(out, 1u); // payload version
    putSteps(out, spec.steps);
    blob::putRaw<uint32_t>(out,
                           static_cast<uint32_t>(spec.overrides.size()));
    for (const SchedSpec::Override &o : spec.overrides) {
        blob::putStr(out, o.region);
        putSteps(out, o.steps);
    }
    return out;
}

std::optional<SchedSpec>
decodeSchedSpec(const std::string &payload)
{
    blob::Reader rd(payload);
    if (rd.raw<uint32_t>() != 1u || !rd.ok)
        return std::nullopt;
    SchedSpec spec;
    if (!readSteps(rd, spec.steps))
        return std::nullopt;
    const uint32_t novr = rd.raw<uint32_t>();
    if (!rd.ok || novr > 4096)
        return std::nullopt;
    spec.overrides.resize(novr);
    for (uint32_t i = 0; i < novr; ++i) {
        spec.overrides[i].region = rd.str();
        if (!rd.ok || !readSteps(rd, spec.overrides[i].steps))
            return std::nullopt;
    }
    return rd.left == 0 ? std::optional<SchedSpec>(std::move(spec))
                        : std::nullopt;
}

std::string
schedSpecDigest(const SchedSpec &spec)
{
    if (spec.empty())
        return "0";
    const std::string e = encodeSchedSpec(spec);
    uint64_t h = 1469598103934665603ull;
    for (char c : e) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

ScheduleResult
applySchedule(const Program &base, const SchedSpec &spec)
{
    ScheduleResult res;
    const size_t n = base.size();
    res.perm.resize(n);
    std::iota(res.perm.begin(), res.perm.end(), 0u);
    if (spec.empty() || n == 0) {
        res.prog = base;
        return res;
    }

    const DepDag dag = buildDag(base);
    const uint8_t *cls_col = base.stream().cls;

    for (const KernelRegion &r : base.kernels()) {
        const size_t len = r.end - r.begin;
        if (len < 2 || len > kMaxSegment)
            continue;
        const std::vector<SchedStep> &steps = spec.stepsFor(r.name());
        if (steps.empty())
            continue;
        std::vector<uint32_t> ord(len);
        std::iota(ord.begin(), ord.end(),
                  static_cast<uint32_t>(r.begin));
        for (const SchedStep &step : steps)
            ord = schedulePass(ord, static_cast<uint32_t>(r.begin), dag,
                               cls_col, step);
        std::copy(ord.begin(), ord.end(), res.perm.begin() + r.begin);
    }

    res.prog.reserve(n, 0);
    for (size_t i = 0; i < n; ++i)
        res.prog.push(base.uop(res.perm[i]));
    res.prog.assemble(base.kernels(), base.scalarRegCount(),
                      base.vectorRegCount());
    return res;
}

bool
verifySchedule(const Program &base, const Program &sched,
               const std::vector<uint32_t> &perm, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    const size_t n = base.size();
    if (sched.size() != n || perm.size() != n)
        return fail("size mismatch");

    // Region-local permutation check.
    std::vector<uint8_t> seen(n, 0);
    for (uint32_t o : perm) {
        if (o >= n || seen[o])
            return fail("perm is not a permutation");
        seen[o] = 1;
    }
    if (sched.kernels().size() != base.kernels().size())
        return fail("region count changed");
    std::vector<uint32_t> region_of(n, kNone);
    for (size_t ri = 0; ri < base.kernels().size(); ++ri) {
        const KernelRegion &a = base.kernels()[ri];
        const KernelRegion &b = sched.kernels()[ri];
        if (a.id != b.id || a.begin != b.begin || a.end != b.end)
            return fail("region " + a.name() + " moved");
        for (size_t i = a.begin; i < a.end; ++i)
            region_of[i] = static_cast<uint32_t>(ri);
    }
    for (size_t i = 0; i < n; ++i) {
        if (region_of[i] != region_of[perm[i]])
            return fail(csprintf("uop %zu crossed a region boundary", i));
        if (region_of[i] == kNone && perm[i] != i)
            return fail(csprintf("uop %zu moved outside a region", i));
    }

    // Field-wise uop identity through the permutation.
    for (size_t i = 0; i < n; ++i) {
        if (sched.uop(i) != base.uop(perm[i]))
            return fail(csprintf("uop %zu payload diverged", i));
    }

    // Observed-writer oracle on the base program: for each uop, the
    // original index of the write each source read observed, the
    // previous write its own write replaced, and the last store each
    // load/store followed.
    struct Obs
    {
        uint32_t src[3] = {kNone, kNone, kNone};
        uint32_t prev_write = kNone;
        uint32_t prev_store = kNone;
    };
    std::vector<Obs> obs(n);
    {
        std::vector<uint32_t> last_w[2];
        last_w[0].assign(base.scalarRegCount(), kNone);
        last_w[1].assign(base.vectorRegCount(), kNone);
        uint32_t last_store = kNone;
        for (uint32_t i = 0; i < n; ++i) {
            const Uop u = base.uop(i);
            const uint32_t srcs[3] = {u.src0, u.src1, u.src2};
            for (int s = 0; s < 3; ++s) {
                if (srcs[s] == kNoReg)
                    continue;
                const int f = Program::isVReg(srcs[s]) ? 1 : 0;
                const uint32_t idx = srcs[s] & 0x7fffffffu;
                if (idx < last_w[f].size())
                    obs[i].src[s] = last_w[f][idx];
            }
            if (u.dst != kNoReg) {
                const int f = Program::isVReg(u.dst) ? 1 : 0;
                const uint32_t idx = u.dst & 0x7fffffffu;
                if (idx < last_w[f].size()) {
                    obs[i].prev_write = last_w[f][idx];
                    last_w[f][idx] = i;
                }
            }
            const uint8_t cls = decodeClass(u.kind);
            if (cls & kClsScalar) {
                const LatClass lc = latClassOf(cls);
                if (lc == LatClass::Load || lc == LatClass::Store)
                    obs[i].prev_store = last_store;
                if (lc == LatClass::Store)
                    last_store = i;
            }
        }
    }

    // Replay the scheduled order against the oracle.
    std::vector<uint32_t> last_w[2];
    last_w[0].assign(base.scalarRegCount(), kNone);
    last_w[1].assign(base.vectorRegCount(), kNone);
    uint32_t last_store = kNone;
    uint32_t last_coproc = kNone;
    uint32_t last_branch = kNone;
    for (size_t i = 0; i < n; ++i) {
        const uint32_t o = perm[i];
        const Uop u = base.uop(o);
        const uint32_t srcs[3] = {u.src0, u.src1, u.src2};
        for (int s = 0; s < 3; ++s) {
            if (srcs[s] == kNoReg)
                continue;
            const int f = Program::isVReg(srcs[s]) ? 1 : 0;
            const uint32_t idx = srcs[s] & 0x7fffffffu;
            if (idx < last_w[f].size() &&
                last_w[f][idx] != obs[o].src[s]) {
                return fail(csprintf(
                    "uop %u reads reg %u from the wrong writer", o,
                    srcs[s]));
            }
        }
        if (u.dst != kNoReg) {
            const int f = Program::isVReg(u.dst) ? 1 : 0;
            const uint32_t idx = u.dst & 0x7fffffffu;
            if (idx < last_w[f].size()) {
                if (last_w[f][idx] != obs[o].prev_write)
                    return fail(csprintf(
                        "uop %u write order broken on reg %u", o,
                        u.dst));
                last_w[f][idx] = o;
            }
        }
        const uint8_t cls = decodeClass(u.kind);
        if (!(cls & kClsScalar)) {
            if (last_coproc != kNone && o < last_coproc)
                return fail("coprocessor order broken");
            last_coproc = o;
            continue;
        }
        const LatClass lc = latClassOf(cls);
        if (lc == LatClass::Branch) {
            if (last_branch != kNone && o < last_branch)
                return fail("branch order broken");
            last_branch = o;
        } else if (lc == LatClass::Load || lc == LatClass::Store) {
            if (last_store != obs[o].prev_store)
                return fail(csprintf("memory order broken at uop %u", o));
            if (lc == LatClass::Store)
                last_store = o;
        }
    }
    return true;
}

std::vector<SchedSpec>
enumerateSchedSpecs()
{
    std::vector<SchedSpec> out;
    auto one = [&](SchedKind k, uint16_t p) {
        SchedSpec s;
        s.steps.push_back({k, p});
        out.push_back(std::move(s));
    };
    one(SchedKind::Reorder, 4);
    one(SchedKind::Reorder, 8);
    one(SchedKind::Reorder, 16);
    one(SchedKind::Unroll, 2);
    one(SchedKind::Unroll, 4);
    one(SchedKind::Fission, 0);
    SchedSpec both;
    both.steps.push_back({SchedKind::Fission, 0});
    both.steps.push_back({SchedKind::Reorder, 8});
    out.push_back(std::move(both));
    return out;
}

} // namespace rtoc::isa
