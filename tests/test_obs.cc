/**
 * @file
 * Tests for the unified observability layer: trace-span JSON validity
 * and correct nesting under a 4-thread work-stealing pool, registry
 * snapshot/diff round-trips, the threaded counter stress test, run
 * manifests capturing RTOC_* env knobs, region profiles summing to
 * the total attributed cycles, and the golden-output contract — the
 * same computation is bit-exact with tracing off and on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "hil/timing.hh"
#include "obs/region_profile.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "plant/quad_plant.hh"

namespace rtoc {
namespace {

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON parser: enough to validate a trace
// file and walk its events without external dependencies.
// ---------------------------------------------------------------------

struct Json
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool has(const std::string &k) const { return obj.count(k) > 0; }
    const Json &at(const std::string &k) const { return obj.at(k); }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : p_(text.c_str()), end_(text.c_str() + text.size())
    {
    }

    /** Parse one complete document; ok() reports success. */
    Json
    parse()
    {
        Json v = value();
        skipWs();
        if (p_ != end_)
            ok_ = false;
        return v;
    }

    bool ok() const { return ok_; }

  private:
    void
    skipWs()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                              *p_ == '\r')) {
            ++p_;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (p_ == end_ || *p_ != c) {
            ok_ = false;
            return false;
        }
        ++p_;
        return true;
    }

    Json
    value()
    {
        skipWs();
        if (p_ == end_) {
            ok_ = false;
            return {};
        }
        switch (*p_) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return stringValue();
        case 't':
        case 'f':
            return boolean();
        case 'n':
            return null();
        default:
            return number();
        }
    }

    Json
    object()
    {
        Json v;
        v.kind = Json::Obj;
        consume('{');
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return v;
        }
        while (ok_) {
            Json key = stringValue();
            if (!ok_ || !consume(':'))
                break;
            v.obj[key.str] = value();
            skipWs();
            if (p_ != end_ && *p_ == ',') {
                ++p_;
                skipWs();
                continue;
            }
            consume('}');
            break;
        }
        return v;
    }

    Json
    array()
    {
        Json v;
        v.kind = Json::Arr;
        consume('[');
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return v;
        }
        while (ok_) {
            v.arr.push_back(value());
            skipWs();
            if (p_ != end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            consume(']');
            break;
        }
        return v;
    }

    Json
    stringValue()
    {
        Json v;
        v.kind = Json::Str;
        if (!consume('"'))
            return v;
        while (p_ != end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ == end_)
                    break;
                switch (*p_) {
                case '"': v.str += '"'; break;
                case '\\': v.str += '\\'; break;
                case '/': v.str += '/'; break;
                case 'n': v.str += '\n'; break;
                case 't': v.str += '\t'; break;
                case 'r': v.str += '\r'; break;
                case 'b': v.str += '\b'; break;
                case 'f': v.str += '\f'; break;
                case 'u':
                    // Escaped control char; decode as one byte (the
                    // writer only emits \u00XX).
                    if (end_ - p_ >= 5) {
                        v.str += static_cast<char>(
                            std::strtol(std::string(p_ + 1, p_ + 5).c_str(),
                                        nullptr, 16));
                        p_ += 4;
                    } else {
                        ok_ = false;
                    }
                    break;
                default: ok_ = false; break;
                }
                ++p_;
            } else {
                v.str += *p_++;
            }
        }
        if (p_ == end_)
            ok_ = false;
        else
            ++p_; // closing quote
        return v;
    }

    Json
    boolean()
    {
        Json v;
        v.kind = Json::Bool;
        if (end_ - p_ >= 4 && std::strncmp(p_, "true", 4) == 0) {
            v.b = true;
            p_ += 4;
        } else if (end_ - p_ >= 5 && std::strncmp(p_, "false", 5) == 0) {
            v.b = false;
            p_ += 5;
        } else {
            ok_ = false;
        }
        return v;
    }

    Json
    null()
    {
        Json v;
        if (end_ - p_ >= 4 && std::strncmp(p_, "null", 4) == 0)
            p_ += 4;
        else
            ok_ = false;
        return v;
    }

    Json
    number()
    {
        Json v;
        v.kind = Json::Num;
        char *next = nullptr;
        v.num = std::strtod(p_, &next);
        if (next == p_)
            ok_ = false;
        p_ = next;
        return v;
    }

    const char *p_;
    const char *end_;
    bool ok_ = true;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const char *stem)
{
    char tmpl[128];
    std::snprintf(tmpl, sizeof(tmpl), "/tmp/rtoc-obs-%s-XXXXXX", stem);
    int fd = mkstemp(tmpl);
    EXPECT_GE(fd, 0);
    if (fd >= 0)
        close(fd);
    return tmpl;
}

// ---------------------------------------------------------------------
// StatId interning + StatGroup fast path
// ---------------------------------------------------------------------

TEST(ObsStats, InternRoundTrip)
{
    StatId a = internStat("test.obs.intern_a");
    StatId b = internStat("test.obs.intern_b");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, internStat("test.obs.intern_a"));
    EXPECT_EQ(statName(a), "test.obs.intern_a");
    EXPECT_EQ(statName(b), "test.obs.intern_b");
}

TEST(ObsStats, StatGroupDualApiSharesStore)
{
    StatGroup g;
    StatId id = internStat("test.obs.group_counter");
    g.inc(id, 5);
    g.inc("test.obs.group_counter", 2);
    EXPECT_EQ(g.get(id), 7u);
    EXPECT_EQ(g.get("test.obs.group_counter"), 7u);
    EXPECT_TRUE(g.has(id));
    EXPECT_TRUE(g.has("test.obs.group_counter"));

    g.set(id, 100);
    EXPECT_EQ(g.counters().at("test.obs.group_counter"), 100u);

    // Untouched ids read as zero and are absent from the view.
    StatId other = internStat("test.obs.group_untouched");
    EXPECT_EQ(g.get(other), 0u);
    EXPECT_FALSE(g.has(other));
    EXPECT_EQ(g.counters().count("test.obs.group_untouched"), size_t(0));
}

// ---------------------------------------------------------------------
// Registry: snapshot/diff, unstable exclusion, threaded stress
// ---------------------------------------------------------------------

TEST(ObsRegistry, SnapshotDiffRoundTrip)
{
    obs::Registry &reg = obs::Registry::global();
    StatId a = reg.counter("test.obs.reg_a");
    StatId b = reg.counter("test.obs.reg_b");

    obs::Snapshot before = reg.snapshot();
    reg.inc(a, 3);
    reg.inc(a);
    reg.inc(b, 10);
    obs::Snapshot after = reg.snapshot();

    std::map<std::string, uint64_t> d = after.diff(before);
    EXPECT_EQ(d.at("test.obs.reg_a"), 4u);
    EXPECT_EQ(d.at("test.obs.reg_b"), 10u);

    // Zero deltas are kept: every registered name appears in a diff.
    StatId idle = reg.counter("test.obs.reg_idle");
    (void)idle;
    obs::Snapshot again = reg.snapshot();
    EXPECT_EQ(again.diff(after).at("test.obs.reg_idle"), 0u);
    EXPECT_EQ(again.diff(after).at("test.obs.reg_a"), 0u);
}

TEST(ObsRegistry, UnstableCountersExcludedFromJson)
{
    obs::Registry &reg = obs::Registry::global();
    StatId stable = reg.counter("test.obs.json_stable");
    StatId unstable = reg.counter("test.obs.json_unstable", true);
    reg.inc(stable, 7);
    reg.inc(unstable, 9);

    // Snapshots see both...
    obs::Snapshot snap = reg.snapshot();
    EXPECT_GE(snap.get("test.obs.json_stable"), 7u);
    EXPECT_GE(snap.get("test.obs.json_unstable"), 9u);

    // ...but the JSON sections carry only the stable one.
    std::string path = tempPath("sections");
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "{\n");
    reg.writeJsonSections(f);
    std::fprintf(f, "  \"end\": 1\n}\n");
    std::fclose(f);

    std::string text = readFile(path);
    JsonParser parser(text);
    Json doc = parser.parse();
    ASSERT_TRUE(parser.ok()) << text;
    ASSERT_TRUE(doc.has("metrics"));
    ASSERT_TRUE(doc.has("manifest"));
    EXPECT_TRUE(doc.at("metrics").has("test.obs.json_stable"));
    EXPECT_FALSE(doc.at("metrics").has("test.obs.json_unstable"));
    EXPECT_TRUE(doc.at("manifest").has("build"));
    EXPECT_TRUE(doc.at("manifest").has("threads"));
    EXPECT_TRUE(doc.at("manifest").has("cache_mode"));
    EXPECT_TRUE(doc.at("manifest").has("env"));
    std::remove(path.c_str());
}

TEST(ObsRegistry, ThreadedCounterStress)
{
    obs::Registry &reg = obs::Registry::global();
    StatId id = reg.counter("test.obs.stress");
    uint64_t before = reg.value(id);

    // Hammer one counter from a 4-thread work-stealing pool; per-thread
    // shards must make the total exact, not approximately right.
    const size_t n = 20000;
    uint64_t expected = 0;
    for (size_t i = 0; i < n; ++i)
        expected += 1 + i % 3;
    ThreadPool pool(4);
    pool.parallelFor(n, [&](size_t i) { obs::count(id, 1 + i % 3); });

    EXPECT_EQ(reg.value(id) - before, expected);
}

TEST(ObsRegistry, ManifestCapturesEnvKnobs)
{
    // manifestJson reads the environment live, so a knob set here must
    // land in the env section (and parse as JSON). RTOC_FAULT is one
    // manifestJson does not consume itself (it does consume
    // RTOC_THREADS and RTOC_CACHE* when it creates the global pool and
    // cache), and nothing in this suite latches it.
    ASSERT_EQ(setenv("RTOC_FAULT", "spike@2+1x2.5", 1), 0);
    std::string manifest = obs::manifestJson();
    unsetenv("RTOC_FAULT");

    JsonParser parser(manifest);
    Json doc = parser.parse();
    ASSERT_TRUE(parser.ok()) << manifest;
    ASSERT_TRUE(doc.has("env"));
    ASSERT_TRUE(doc.at("env").has("RTOC_FAULT"));
    EXPECT_EQ(doc.at("env").at("RTOC_FAULT").str, "spike@2+1x2.5");
    // RTOC_TRACE must never leak into the manifest (it would break the
    // traced-vs-untraced byte identity of golden artifacts).
    EXPECT_FALSE(doc.at("env").has("RTOC_TRACE"));
}

// ---------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------

struct SpanEvent
{
    std::string name;
    uint64_t tid = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

uint64_t
usToNs(double us)
{
    return static_cast<uint64_t>(us * 1000.0 + 0.5);
}

TEST(ObsTrace, ValidJsonWithNestedSpansUnderPool)
{
    std::string path = tempPath("trace");
    obs::TraceWriter &tw = obs::TraceWriter::global();
    tw.enable(path);
    ASSERT_TRUE(obs::traceEnabled());

    {
        RTOC_SPAN("test.root", "test");
        ThreadPool pool(4);
        pool.parallelFor(64, [&](size_t i) {
            RTOC_SPAN_NAMED(outer, "test.outer", "test");
            outer.arg("index", i);
            {
                RTOC_SPAN("test.inner", "test");
                volatile uint64_t sink = 0;
                for (uint64_t k = 0; k < 500; ++k)
                    sink += k;
            }
        });
        tw.instant("test.marker", "test");
        tw.counter("test.gauge", 42.0);
    }
    EXPECT_GT(tw.bufferedEvents(), size_t(64));
    tw.disable(); // flushes
    EXPECT_FALSE(obs::traceEnabled());

    std::string text = readFile(path);
    JsonParser parser(text);
    Json doc = parser.parse();
    ASSERT_TRUE(parser.ok());
    ASSERT_TRUE(doc.has("traceEvents"));
    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, Json::Arr);

    size_t inner = 0, outer = 0, instants = 0, counters = 0;
    std::map<uint64_t, std::vector<SpanEvent>> by_tid;
    for (const Json &e : events.arr) {
        ASSERT_TRUE(e.has("name"));
        ASSERT_TRUE(e.has("ph"));
        ASSERT_TRUE(e.has("pid"));
        ASSERT_TRUE(e.has("tid"));
        const std::string ph = e.at("ph").str;
        if (ph == "M")
            continue;
        ASSERT_TRUE(e.has("ts"));
        // The pool emits its own pool.steal instants; count only ours.
        if (ph == "i" && e.at("name").str == "test.marker")
            ++instants;
        if (ph == "C" && e.at("name").str == "test.gauge")
            ++counters;
        if (ph != "X")
            continue;
        ASSERT_TRUE(e.has("dur"));
        SpanEvent s;
        s.name = e.at("name").str;
        s.tid = static_cast<uint64_t>(e.at("tid").num);
        s.start_ns = usToNs(e.at("ts").num);
        s.end_ns = s.start_ns + usToNs(e.at("dur").num);
        by_tid[s.tid].push_back(s);
        if (s.name == "test.inner")
            ++inner;
        if (s.name == "test.outer") {
            ++outer;
            ASSERT_TRUE(e.has("args"));
            EXPECT_TRUE(e.at("args").has("index"));
        }
    }
    EXPECT_EQ(inner, size_t(64));
    EXPECT_EQ(outer, size_t(64));
    EXPECT_EQ(instants, size_t(1));
    EXPECT_EQ(counters, size_t(1));

    // Spans on one thread must nest: sorted by (start asc, end desc),
    // every span fits inside whatever enclosing span is still open.
    // Partial overlap means a broken RAII scope or a torn flush.
    for (auto &kv : by_tid) {
        std::vector<SpanEvent> &spans = kv.second;
        std::sort(spans.begin(), spans.end(),
                  [](const SpanEvent &a, const SpanEvent &b) {
                      if (a.start_ns != b.start_ns)
                          return a.start_ns < b.start_ns;
                      return a.end_ns > b.end_ns;
                  });
        std::vector<const SpanEvent *> stack;
        for (const SpanEvent &s : spans) {
            while (!stack.empty() && stack.back()->end_ns <= s.start_ns)
                stack.pop_back();
            if (!stack.empty()) {
                EXPECT_LE(s.end_ns, stack.back()->end_ns)
                    << s.name << " partially overlaps "
                    << stack.back()->name << " on tid " << kv.first;
            }
            stack.push_back(&s);
        }
    }
    std::remove(path.c_str());
}

TEST(ObsTrace, DisabledSpansBufferNothing)
{
    ASSERT_FALSE(obs::traceEnabled());
    obs::TraceWriter &tw = obs::TraceWriter::global();
    size_t before = tw.bufferedEvents();
    {
        RTOC_SPAN("test.disabled", "test");
        tw.instant("test.disabled_instant", "test");
        tw.counter("test.disabled_gauge", 1.0);
    }
    EXPECT_EQ(tw.bufferedEvents(), before);
    EXPECT_EQ(tw.path(), "");
}

// ---------------------------------------------------------------------
// Region profiles + the golden bit-exactness contract
// ---------------------------------------------------------------------

TEST(ObsProfile, SumsToTotalAttributedCycles)
{
    plant::QuadrotorPlant plant;
    std::vector<isa::KernelCycles> kernels =
        hil::regionBreakdown("scalar", plant, 0.02, 10);
    ASSERT_FALSE(kernels.empty());
    uint64_t attributed = 0;
    for (const isa::KernelCycles &k : kernels)
        attributed += k.cycles;
    ASSERT_GT(attributed, 0u);

    obs::RegionProfile prof;
    EXPECT_TRUE(prof.empty());
    prof.add("scalar", "quad", kernels);
    prof.add("scalar", "quad_b", kernels);
    EXPECT_FALSE(prof.empty());

    // Two identical plants: totals double, and the per-backend total,
    // the row sum, and the shares all reconcile exactly.
    EXPECT_EQ(prof.totalCycles(), 2 * attributed);
    EXPECT_EQ(prof.backendCycles("scalar"), 2 * attributed);
    uint64_t row_sum = 0;
    double share_sum = 0.0;
    for (const obs::RegionRow &r : prof.rows()) {
        EXPECT_EQ(r.backend, "scalar");
        EXPECT_EQ(r.perPlant.count, size_t(2));
        row_sum += r.cycles;
        share_sum += r.share;
    }
    EXPECT_EQ(row_sum, 2 * attributed);
    EXPECT_NEAR(share_sum, 1.0, 1e-9);

    std::string table = prof.table();
    EXPECT_NE(table.find("backend scalar"), std::string::npos);
    EXPECT_NE(table.find(kernels.front().name), std::string::npos);
}

TEST(ObsProfile, RegionBreakdownBitExactTraceOnOff)
{
    plant::QuadrotorPlant plant;
    ASSERT_FALSE(obs::traceEnabled());
    std::vector<isa::KernelCycles> off =
        hil::regionBreakdown("scalar", plant, 0.02, 10);
    hil::ControllerTiming t_off =
        hil::scalarControllerTiming(plant, 0.02, 10);

    // The same computation, traced: cycle attribution and calibration
    // must be bit-identical — tracing may never perturb modelled time.
    std::string path = tempPath("goldtrace");
    obs::TraceWriter::global().enable(path);
    std::vector<isa::KernelCycles> on =
        hil::regionBreakdown("scalar", plant, 0.02, 10);
    hil::ControllerTiming t_on =
        hil::scalarControllerTiming(plant, 0.02, 10);
    obs::TraceWriter::global().disable();

    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i].name, on[i].name);
        EXPECT_EQ(off[i].cycles, on[i].cycles);
        EXPECT_EQ(off[i].invocations, on[i].invocations);
    }
    EXPECT_EQ(hil::encodeTiming(t_off), hil::encodeTiming(t_on));
    std::remove(path.c_str());
}

} // namespace
} // namespace rtoc
