/**
 * @file
 * The parallel sweep engine's central promise: explore() produces
 * bit-identical results (points, scores and work counters) at any
 * thread count, and mapModel() gives the same mapping choices and
 * counters whether it runs alone or on parallel lanes, with or
 * without the shared cross-point cache.
 */

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "dse/explorer.hpp"
#include "mapper/cache.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

namespace {

/** Small model with a repeated layer shape so the cache sees hits. */
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
sweep(int threads, bool pruning = true)
{
    DseOptions opt;
    opt.totalMacs = 2048;
    opt.proportionalMem = true;
    opt.effort = SearchEffort::Fast;
    opt.threads = threads;
    opt.boundPruning = pruning;
    return explore(miniModel(), opt, defaultTech());
}

/** @p model mapped once per lane on a pool of @p threads, every lane
 *  running its own mapModel() call (as explore() does per point). */
std::vector<ModelMappingResult>
mapOnLanes(const Model &model, SearchEffort effort, int threads,
           MappingCache *cache = nullptr)
{
    std::vector<ModelMappingResult> out(static_cast<size_t>(threads) * 2);
    ThreadPool pool(threads);
    pool.parallelFor(static_cast<int64_t>(out.size()), [&](int64_t i) {
        out[static_cast<size_t>(i)] =
            mapModel(model, caseStudyConfig(), defaultTech(), effort,
                     Objective::MinEnergy, SearchOptions{}, cache);
    });
    return out;
}

void
expectSameChoices(const ModelMappingResult &a,
                  const ModelMappingResult &b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.cost.energy.total(), b.cost.energy.total());
    EXPECT_EQ(a.cost.cycles, b.cost.cycles);
    ASSERT_EQ(a.choices.size(), b.choices.size());
    for (size_t i = 0; i < a.choices.size(); ++i) {
        EXPECT_EQ(a.choices[i].mapping.toString(),
                  b.choices[i].mapping.toString())
            << i;
        EXPECT_EQ(a.choices[i].energy.total(),
                  b.choices[i].energy.total())
            << i;
    }
}

void
expectIdentical(const DseResult &a, const DseResult &b)
{
    EXPECT_EQ(a.swept, b.swept);
    EXPECT_EQ(a.areaRejected, b.areaRejected);
    EXPECT_EQ(a.infeasible, b.infeasible);
    EXPECT_EQ(a.search.evaluated, b.search.evaluated);
    EXPECT_EQ(a.search.pruned, b.search.pruned);
    EXPECT_EQ(a.search.cacheHits, b.search.cacheHits);
    EXPECT_EQ(a.search.cacheMisses, b.search.cacheMisses);
    EXPECT_EQ(a.cacheEntries, b.cacheEntries);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        const DesignPoint &p = a.points[i];
        const DesignPoint &q = b.points[i];
        EXPECT_EQ(p.compute.chiplets, q.compute.chiplets) << i;
        EXPECT_EQ(p.compute.cores, q.compute.cores) << i;
        EXPECT_EQ(p.compute.lanes, q.compute.lanes) << i;
        EXPECT_EQ(p.compute.vectorSize, q.compute.vectorSize) << i;
        EXPECT_EQ(p.memory.ol1Bytes, q.memory.ol1Bytes) << i;
        EXPECT_EQ(p.memory.al1Bytes, q.memory.al1Bytes) << i;
        EXPECT_EQ(p.memory.wl1Bytes, q.memory.wl1Bytes) << i;
        EXPECT_EQ(p.memory.al2Bytes, q.memory.al2Bytes) << i;
        // Bit-identical scores: EXPECT_EQ on doubles, no tolerance.
        EXPECT_EQ(p.cost.energy.total(), q.cost.energy.total()) << i;
        EXPECT_EQ(p.cost.cycles, q.cost.cycles) << i;
        EXPECT_EQ(p.edp(), q.edp()) << i;
    }
}

} // namespace

TEST(Determinism, ExploreParallelMatchesSerial)
{
    const DseResult serial = sweep(1);
    for (int threads : {2, 4}) {
        const DseResult parallel = sweep(threads);
        SCOPED_TRACE(threads);
        expectIdentical(serial, parallel);
    }
}

TEST(Determinism, ExplorePruningPreservesPoints)
{
    // Pruning may only skip full evaluations, never change any
    // surviving point's score or the chosen best.
    const DseResult pruned = sweep(1, /*pruning=*/true);
    const DseResult full = sweep(1, /*pruning=*/false);
    EXPECT_EQ(pruned.swept, full.swept);
    ASSERT_EQ(pruned.points.size(), full.points.size());
    for (size_t i = 0; i < pruned.points.size(); ++i) {
        EXPECT_EQ(pruned.points[i].cost.energy.total(),
                  full.points[i].cost.energy.total());
        EXPECT_EQ(pruned.points[i].edp(), full.points[i].edp());
    }
    EXPECT_LE(pruned.search.evaluated, full.search.evaluated);
    EXPECT_EQ(full.search.pruned, 0);
    EXPECT_EQ(pruned.search.evaluated + pruned.search.pruned,
              full.search.evaluated);
    ASSERT_EQ(pruned.bestEdp().has_value(), full.bestEdp().has_value());
    if (pruned.bestEdp())
        EXPECT_EQ(*pruned.bestEdp(), *full.bestEdp());
}

TEST(Determinism, ExploreCountersAreConsistent)
{
    const DseResult r = sweep(4);
    // The repeated layer shape hits the cache within each point, and
    // every lookup is either a hit or a miss.
    EXPECT_GT(r.search.cacheHits, 0);
    EXPECT_GT(r.search.cacheMisses, 0);
    // Each distinct (shape, config) was searched exactly once.
    EXPECT_EQ(r.search.cacheMisses, r.cacheEntries);
    EXPECT_GT(r.search.evaluated, 0);
}

TEST(Determinism, MapModelParallelMatchesSerial)
{
    const Model model = miniModel();
    const ModelMappingResult serial =
        mapModel(model, caseStudyConfig(), defaultTech(),
                 SearchEffort::Fast, Objective::MinEnergy, SearchOptions{});

    for (int threads : {2, 4}) {
        SCOPED_TRACE(threads);
        // Private caches: every lane does the serial call's work.
        for (const ModelMappingResult &lane :
             mapOnLanes(model, SearchEffort::Fast, threads)) {
            expectSameChoices(lane, serial);
            EXPECT_EQ(lane.stats.evaluated, serial.stats.evaluated);
            EXPECT_EQ(lane.stats.pruned, serial.stats.pruned);
            EXPECT_EQ(lane.stats.cacheHits, serial.stats.cacheHits);
            EXPECT_EQ(lane.stats.cacheMisses, serial.stats.cacheMisses);
        }
        // One shared cache: each key is searched exactly once across
        // the lanes, and every lane still sees the same choices.
        MappingCache shared;
        int64_t misses = 0;
        for (const ModelMappingResult &lane :
             mapOnLanes(model, SearchEffort::Fast, threads, &shared)) {
            expectSameChoices(lane, serial);
            misses += lane.stats.cacheMisses;
        }
        EXPECT_EQ(misses, serial.stats.cacheMisses);
        EXPECT_EQ(static_cast<int64_t>(shared.size()), misses);
    }
}

TEST(Determinism, MapModelLegacyOverloadUnchanged)
{
    // The four-argument overload must behave exactly like the new one
    // with default options (serial, pruning on): existing callers see
    // identical results.
    const Model model = miniModel();
    const AcceleratorConfig cfg = caseStudyConfig();
    const ModelMappingResult legacy =
        mapModel(model, cfg, defaultTech(), SearchEffort::Fast);
    const ModelMappingResult current =
        mapModel(model, cfg, defaultTech(), SearchEffort::Fast,
                 Objective::MinEnergy, SearchOptions{});
    EXPECT_EQ(legacy.cost.energy.total(), current.cost.energy.total());
    EXPECT_EQ(legacy.cost.cycles, current.cost.cycles);
}

TEST(Determinism, TransformerLayersAcrossThreadsAndModes)
{
    // Transformer-era shapes (batched GEMMs, the lowered attention
    // block with its vector-op tail) must keep the bit-identical
    // promise on parallel lanes under every search effort; the
    // repeated GEMM exercises the batch/postOps-aware cache key on
    // the way.
    Model m("tf", 24);
    appendAttentionBlock(m, "a", 24, 96, 4, 2);
    m.addLayer(makeGemm("g1", 48, 64, 96, 3, 2));
    m.addLayer(makeGemm("g2", 48, 64, 96, 3, 2)); // cache repeat

    for (SearchEffort effort : {SearchEffort::Exhaustive,
                                SearchEffort::Fast, SearchEffort::Sketch}) {
        const ModelMappingResult serial =
            mapModel(m, caseStudyConfig(), defaultTech(), effort,
                     Objective::MinEnergy, SearchOptions{});
        SCOPED_TRACE(static_cast<int>(effort));
        ASSERT_TRUE(serial.feasible);
        EXPECT_EQ(serial.stats.cacheHits, 1); // g2 repeats g1 exactly
        for (int threads : {2, 4}) {
            SCOPED_TRACE(threads);
            for (const ModelMappingResult &lane :
                 mapOnLanes(m, effort, threads))
                expectSameChoices(lane, serial);
        }
    }
}

TEST(Determinism, BatchChangesCacheKeyNotDeterminism)
{
    // Two layers identical except for batch must occupy distinct
    // cache entries (a batch-1 winner reused for batch-4 would break
    // replay), and the mapped totals must scale deterministically.
    Model m("bk", 16);
    m.addLayer(makeGemm("b1", 48, 64, 96, 1));
    m.addLayer(makeGemm("b4", 48, 64, 96, 4));
    MappingCache cache;
    const ModelMappingResult r =
        mapModel(m, caseStudyConfig(), defaultTech(),
                 SearchEffort::Fast, Objective::MinEnergy,
                 SearchOptions{}, &cache);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(r.stats.cacheHits, 0);
    EXPECT_EQ(r.stats.cacheMisses, 2);
}

TEST(Determinism, SharedCacheDoesNotChangeResults)
{
    const Model model = miniModel();
    const AcceleratorConfig cfg = caseStudyConfig();
    MappingCache cache;
    const ModelMappingResult fresh =
        mapModel(model, cfg, defaultTech(), SearchEffort::Fast,
                 Objective::MinEnergy, SearchOptions{}, &cache);
    // Two distinct shapes -> two entries, one hit for the repeat.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(fresh.stats.cacheMisses, 2);
    EXPECT_EQ(fresh.stats.cacheHits, 1);

    // A second run against the warmed cache: all hits, same cost,
    // and no new search work.
    const ModelMappingResult warmed =
        mapModel(model, cfg, defaultTech(), SearchEffort::Fast,
                 Objective::MinEnergy, SearchOptions{}, &cache);
    EXPECT_EQ(warmed.stats.cacheHits, 3);
    EXPECT_EQ(warmed.stats.cacheMisses, 0);
    EXPECT_EQ(warmed.stats.evaluated, 0);
    EXPECT_EQ(warmed.cost.energy.total(), fresh.cost.energy.total());
    EXPECT_EQ(warmed.cost.cycles, fresh.cost.cycles);
}
