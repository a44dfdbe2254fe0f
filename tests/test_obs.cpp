/**
 * @file
 * Tests for the observability layer: trace spans and their Chrome
 * JSON export (round-tripped through the common/json parser),
 * histogram bucket math at the boundaries, concurrent metric updates
 * under parallelFor, and agreement between the metrics registry and
 * the legacy SearchStats counters on a real DSE run.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/profile.hpp"
#include "common/trace.hpp"
#include "dse/explorer.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

namespace {

/** Scoped tracing toggle so a failing test can't leak tracing on. */
struct TracingOn
{
    TracingOn() { obs::setTracingEnabled(true); }
    ~TracingOn() { obs::setTracingEnabled(false); }
};

Model
miniModel()
{
    Model m("mini", 64);
    m.addLayer(makeConv("a1", 32, 32, 128, 64, 3, 3, 1));
    m.addLayer(makeConv("b", 16, 16, 256, 128, 1, 1, 1));
    m.addLayer(makeConv("a2", 32, 32, 128, 64, 3, 3, 1));
    return m;
}

DseResult
miniSweep(int threads, double progressSeconds = 0.0)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    opt.threads = threads;
    opt.detailedMetrics = true;
    opt.progressSeconds = progressSeconds;
    return explore(miniModel(), opt, defaultTech());
}

} // namespace

TEST(Trace, DisabledRecordsNothing)
{
    obs::setTracingEnabled(false);
    const size_t before = obs::snapshotTrace().size();
    {
        NNBATON_TRACE_SCOPE("test.should_not_appear");
    }
    EXPECT_EQ(obs::snapshotTrace().size(), before);
}

TEST(Trace, SpansNestAndCarryDurations)
{
    const size_t before = obs::snapshotTrace().size();
    {
        TracingOn on;
        NNBATON_TRACE_SCOPE("test.outer");
        {
            NNBATON_TRACE_SCOPE("test.inner");
        }
    }
    const std::vector<obs::TraceEvent> all = obs::snapshotTrace();
    ASSERT_GE(all.size(), before + 2);
    bool sawOuter = false, sawInner = false;
    for (size_t i = before; i < all.size(); ++i) {
        if (std::string(all[i].name) == "test.outer")
            sawOuter = true;
        if (std::string(all[i].name) == "test.inner")
            sawInner = true;
    }
    EXPECT_TRUE(sawOuter);
    EXPECT_TRUE(sawInner);
}

TEST(Trace, ChromeJsonRoundTripsThroughParser)
{
    {
        TracingOn on;
        NNBATON_TRACE_SCOPE("roundtrip.phase_a");
        {
            NNBATON_TRACE_SCOPE("roundtrip.phase_b");
        }
    }
    std::ostringstream ss;
    obs::writeChromeTrace(ss);

    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error << " at offset "
                             << parsed.errorOffset;
    ASSERT_TRUE(parsed.value.isObject());

    const JsonValue *events = parsed.value.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GE(events->array.size(), 3u); // metadata + 2 spans

    bool sawA = false, sawB = false;
    for (const JsonValue &e : events->array) {
        ASSERT_TRUE(e.isObject());
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string != "X")
            continue;
        // Complete events must carry numeric ts/dur and a category.
        const JsonValue *ts = e.find("ts");
        const JsonValue *dur = e.find("dur");
        const JsonValue *cat = e.find("cat");
        const JsonValue *name = e.find("name");
        ASSERT_NE(ts, nullptr);
        ASSERT_NE(dur, nullptr);
        ASSERT_NE(cat, nullptr);
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(ts->isNumber());
        EXPECT_TRUE(dur->isNumber());
        EXPECT_GE(dur->number, 0.0);
        if (name->string == "roundtrip.phase_a") {
            sawA = true;
            EXPECT_EQ(cat->string, "roundtrip");
        }
        if (name->string == "roundtrip.phase_b")
            sawB = true;
    }
    EXPECT_TRUE(sawA);
    EXPECT_TRUE(sawB);
}

TEST(Histogram, BucketIndexBoundaries)
{
    using H = obs::Histogram;
    EXPECT_EQ(H::bucketIndex(-5), 0);
    EXPECT_EQ(H::bucketIndex(0), 0);
    EXPECT_EQ(H::bucketIndex(1), 1);
    EXPECT_EQ(H::bucketIndex(2), 2);
    EXPECT_EQ(H::bucketIndex(3), 2);
    EXPECT_EQ(H::bucketIndex(4), 3);
    EXPECT_EQ(H::bucketIndex(7), 3);
    EXPECT_EQ(H::bucketIndex(8), 4);
    EXPECT_EQ(H::bucketIndex(1023), 10);
    EXPECT_EQ(H::bucketIndex(1024), 11);
    EXPECT_EQ(H::bucketIndex(std::numeric_limits<int64_t>::max()),
              H::kBuckets - 1);
}

TEST(Histogram, BucketBoundsAreConsistent)
{
    using H = obs::Histogram;
    for (int b = 1; b < H::kBuckets - 1; ++b) {
        const int64_t lo = H::bucketLowerBound(b);
        const int64_t hi = H::bucketUpperBound(b);
        EXPECT_EQ(H::bucketIndex(lo), b) << b;
        EXPECT_EQ(H::bucketIndex(hi), b) << b;
        if (b > 1) {
            EXPECT_EQ(H::bucketLowerBound(b), H::bucketUpperBound(b - 1) + 1);
        }
    }
    EXPECT_EQ(H::bucketUpperBound(H::kBuckets - 1),
              std::numeric_limits<int64_t>::max());
}

TEST(Histogram, RecordCountsSumAndBuckets)
{
    obs::Histogram h;
    h.record(0);
    h.record(1);
    h.record(3);
    h.record(4);
    h.record(7);
    EXPECT_EQ(h.count(), 5);
    EXPECT_EQ(h.sum(), 15);
    EXPECT_EQ(h.bucketCount(0), 1);
    EXPECT_EQ(h.bucketCount(1), 1);
    EXPECT_EQ(h.bucketCount(2), 1);
    EXPECT_EQ(h.bucketCount(3), 2);
}

TEST(Metrics, ConcurrentIncrementsUnderParallelFor)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    obs::Counter &c = reg.counter("test.concurrent.counter");
    obs::Histogram &h = reg.histogram("test.concurrent.hist");
    c.reset();
    h.reset();

    constexpr int64_t kN = 20000;
    ThreadPool pool(4);
    pool.parallelFor(kN, [&](int64_t i) {
        c.add(1);
        h.record(i % 100);
    });
    EXPECT_EQ(c.value(), kN);
    EXPECT_EQ(h.count(), kN);
}

TEST(Metrics, RegistryTotalsMatchSearchStats)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.reset();

    const DseResult r = miniSweep(2);

    // The registry's counters are incremented at the same sites as
    // the deterministic SearchStats fields, so totals must agree.
    EXPECT_EQ(reg.counter("mapper.candidates.evaluated").value(),
              r.search.evaluated);
    EXPECT_EQ(reg.counter("mapper.candidates.pruned").value(),
              r.search.pruned);
    EXPECT_EQ(reg.counter("mapper.cache.hits").value(),
              r.search.cacheHits);
    EXPECT_EQ(reg.counter("mapper.cache.misses").value(),
              r.search.cacheMisses);
    EXPECT_EQ(reg.counter("dse.points.swept").value(), r.swept);

    // The per-shard split partitions the aggregate counts.
    int64_t shardHits = 0, shardMisses = 0;
    for (const auto &[name, v] :
         reg.snapshot().counters) {
        if (name.find("mapper.cache.shard") != 0)
            continue;
        if (name.find(".hits") != std::string::npos)
            shardHits += v;
        else
            shardMisses += v;
    }
    EXPECT_EQ(shardHits, r.search.cacheHits);
    EXPECT_EQ(shardMisses, r.search.cacheMisses);

    // Detailed metrics recorded one latency sample per layer search
    // and one per evaluated design point.
    const int64_t lookups = r.search.cacheHits + r.search.cacheMisses;
    EXPECT_EQ(reg.histogram("mapper.layer_search_us").count(), lookups);
    EXPECT_GT(reg.histogram("dse.point_latency_us").count(), 0);
}

TEST(Determinism, TracingDoesNotChangeResults)
{
    const DseResult plain = miniSweep(1);
    DseResult traced;
    {
        TracingOn on;
        traced = miniSweep(4);
    }
    EXPECT_EQ(plain.swept, traced.swept);
    EXPECT_EQ(plain.search.evaluated, traced.search.evaluated);
    EXPECT_EQ(plain.search.pruned, traced.search.pruned);
    ASSERT_EQ(plain.points.size(), traced.points.size());
    for (size_t i = 0; i < plain.points.size(); ++i) {
        EXPECT_EQ(plain.points[i].cost.energy.total(),
                  traced.points[i].cost.energy.total());
        EXPECT_EQ(plain.points[i].edp(), traced.points[i].edp());
    }
    // The traced parallel sweep covered every instrumented phase.
    std::set<std::string> phases;
    for (const obs::TraceEvent &e : obs::snapshotTrace())
        phases.insert(e.name);
    for (const char *expected :
         {"dse.explore", "dse.enumerate_space", "dse.design_point",
          "dse.collect", "mapper.map_model", "mapper.cache_lookup",
          "mapper.candidates", "mapper.pick_best",
          "mapper.bound_prune", "mapper.c3p_analysis"}) {
        EXPECT_TRUE(phases.count(expected)) << expected;
    }
}

TEST(Determinism, FullObservabilityStackDoesNotChangeResults)
{
    // Everything at once — tracing, the always-on flight recorder, a
    // very chatty progress heartbeat and detailed metrics — must be
    // observation-only: the parallel sweep returns the same results
    // and deterministic counters as a bare serial one.
    const DseResult plain = miniSweep(1);
    DseResult observed;
    {
        TracingOn on;
        obs::setFlightRecorderEnabled(true);
        observed = miniSweep(4, /*progressSeconds=*/0.01);
    }
    EXPECT_EQ(plain.swept, observed.swept);
    EXPECT_EQ(plain.infeasible, observed.infeasible);
    EXPECT_EQ(plain.areaRejected, observed.areaRejected);
    EXPECT_EQ(plain.search.evaluated, observed.search.evaluated);
    EXPECT_EQ(plain.search.pruned, observed.search.pruned);
    ASSERT_EQ(plain.points.size(), observed.points.size());
    for (size_t i = 0; i < plain.points.size(); ++i) {
        EXPECT_EQ(plain.points[i].cost.energy.total(),
                  observed.points[i].cost.energy.total());
        EXPECT_EQ(plain.points[i].edp(), observed.points[i].edp());
    }
    // The heartbeat left its gauges behind (done == total at exit).
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    EXPECT_DOUBLE_EQ(reg.gauge("dse.progress.done").value(),
                     reg.gauge("dse.progress.total").value());
    EXPECT_GT(reg.gauge("dse.progress.total").value(), 0.0);
}

TEST(Profile, AggregatesPerPhase)
{
    std::vector<obs::TraceEvent> events;
    events.push_back({"p.a", 1, 0, 2000});
    events.push_back({"p.a", 1, 5000, 4000});
    events.push_back({"p.b", 2, 0, 1000});
    const obs::ProfileReport report = obs::buildProfile(events);
    ASSERT_EQ(report.phases.size(), 2u);
    // Sorted by total time: p.a (6us) before p.b (1us).
    EXPECT_EQ(report.phases[0].name, "p.a");
    EXPECT_EQ(report.phases[0].count, 2);
    EXPECT_DOUBLE_EQ(report.phases[0].totalMs, 6e-3);
    EXPECT_DOUBLE_EQ(report.phases[0].meanUs, 3.0);
    EXPECT_DOUBLE_EQ(report.phases[0].maxUs, 4.0);
    EXPECT_EQ(report.phases[1].name, "p.b");

    // And the JSON form parses back.
    std::ostringstream ss;
    JsonWriter j(ss);
    obs::writeProfileJson(j, report);
    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const JsonValue *phases = parsed.value.find("phases");
    ASSERT_NE(phases, nullptr);
    EXPECT_EQ(phases->array.size(), 2u);
}

TEST(Metrics, JsonSnapshotRoundTrips)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
    reg.counter("test.json.counter").add(42);
    reg.gauge("test.json.gauge").set(1.5);
    reg.histogram("test.json.hist").record(9);

    std::ostringstream ss;
    JsonWriter j(ss);
    obs::writeMetricsJson(j, reg.snapshot());
    const JsonParseResult parsed = parseJson(ss.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    const JsonValue *counters = parsed.value.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *c = counters->find("test.json.counter");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->number, 42.0);

    const JsonValue *hists = parsed.value.find("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue *h = hists->find("test.json.hist");
    ASSERT_NE(h, nullptr);
    const JsonValue *buckets = h->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_GE(buckets->array.size(), 1u);
}
