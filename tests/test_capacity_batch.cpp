/**
 * @file
 * The capacity-batched sweep (docs/architecture.md, "Capacity-batched
 * sweep") against the per-point path it replaces: batched capacity
 * groups must reproduce per-point mapModel() design points, search
 * counters and cache entries bit for bit at any thread count; the
 * split bound must equal scoreLowerBound() bit for bit; enumeration
 * must not depend on the W-L1 / A-L2 sizes; footprint ladders must
 * resolve exactly like analyzeBuffer(); and overlapping cache batches
 * must search each key once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "c3p/analysis.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/util.hpp"
#include "dataflow/loopnest.hpp"
#include "dse/slice.hpp"
#include "mapper/bound.hpp"
#include "mapper/cache.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"
#include "verif/fault.hpp"

using namespace nnbaton;

namespace {

const TechnologyModel &
tech()
{
    static const TechnologyModel t = defaultTech();
    return t;
}

/** Bitwise double equality (EXPECT_EQ on doubles is exact too, but
 *  this also separates -0.0 from 0.0 and compares NaN payloads). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameEnergy(const EnergyBreakdown &a, const EnergyBreakdown &b,
                 const std::string &ctx)
{
    EXPECT_TRUE(sameBits(a.dram, b.dram)) << ctx;
    EXPECT_TRUE(sameBits(a.d2d, b.d2d)) << ctx;
    EXPECT_TRUE(sameBits(a.noc, b.noc)) << ctx;
    EXPECT_TRUE(sameBits(a.al2, b.al2)) << ctx;
    EXPECT_TRUE(sameBits(a.al1, b.al1)) << ctx;
    EXPECT_TRUE(sameBits(a.wl1, b.wl1)) << ctx;
    EXPECT_TRUE(sameBits(a.ol1, b.ol1)) << ctx;
    EXPECT_TRUE(sameBits(a.ol2, b.ol2)) << ctx;
    EXPECT_TRUE(sameBits(a.mac, b.mac)) << ctx;
    EXPECT_TRUE(sameBits(a.vector, b.vector)) << ctx;
}

void
expectSameStats(const SearchStats &a, const SearchStats &b,
                const std::string &ctx)
{
    EXPECT_EQ(a.evaluated, b.evaluated) << ctx;
    EXPECT_EQ(a.pruned, b.pruned) << ctx;
    EXPECT_EQ(a.cacheHits, b.cacheHits) << ctx;
    EXPECT_EQ(a.cacheMisses, b.cacheMisses) << ctx;
}

void
expectSamePoint(const DesignPoint &a, const DesignPoint &b,
                const std::string &ctx)
{
    EXPECT_EQ(a.toString(), b.toString()) << ctx;
    EXPECT_TRUE(sameBits(a.area.total(), b.area.total())) << ctx;
    EXPECT_TRUE(sameBits(a.edp(), b.edp())) << ctx;
    EXPECT_EQ(a.cost.cycles, b.cost.cycles) << ctx;
    expectSameEnergy(a.cost.energy, b.cost.energy, ctx);
    ASSERT_EQ(a.cost.layers.size(), b.cost.layers.size()) << ctx;
    for (size_t l = 0; l < a.cost.layers.size(); ++l) {
        const LayerCost &x = a.cost.layers[l];
        const LayerCost &y = b.cost.layers[l];
        const std::string lctx = ctx + " layer " + x.layerName;
        EXPECT_EQ(x.layerName, y.layerName) << lctx;
        EXPECT_EQ(x.cycles, y.cycles) << lctx;
        EXPECT_TRUE(sameBits(x.utilization, y.utilization)) << lctx;
        expectSameEnergy(x.energy, y.energy, lctx);
    }
}

const std::vector<int64_t> kSketchWl1 = {
    64, // below lanes x P for every compute below: W-L1-infeasible
    2_KB,  3_KB,  4_KB,  6_KB,   8_KB,   12_KB,  16_KB, 24_KB,
    32_KB, 48_KB, 64_KB, 96_KB, 128_KB, 192_KB, 256_KB};
const std::vector<int64_t> kSketchAl2 = {32_KB,  48_KB,  64_KB, 96_KB,
                                         128_KB, 192_KB, 256_KB};
// Exhaustive effort is ~40x the work per point: a thinner slice of
// the same ladders, still spanning infeasible, small and huge sizes.
const std::vector<int64_t> kExhaustiveWl1 = {64, 2_KB, 12_KB, 256_KB};
const std::vector<int64_t> kExhaustiveAl2 = {32_KB, 96_KB, 256_KB};

/**
 * A reduced fig15-style grid at 4096 MACs: each compute allocation
 * is one capacity group (O-L1 96 B, A-L1 8 KB) over every listed
 * W-L1 x A-L2 variant, in the canonical order (W-L1, then A-L2,
 * innermost).
 */
std::vector<SweepTask>
reducedGrid(const std::vector<ComputeAllocation> &computes,
            const std::vector<int64_t> &wl1s,
            const std::vector<int64_t> &al2s)
{
    std::vector<SweepTask> tasks;
    for (const ComputeAllocation &c : computes) {
        for (const int64_t wl1 : wl1s) {
            for (const int64_t al2 : al2s)
                tasks.push_back({c, MemoryAllocation{96, 8_KB, wl1, al2}});
        }
    }
    return tasks;
}

struct GridCase
{
    const char *model;
    SearchEffort effort;
    Objective objective;
    // Pinned per-point totals: an anchor for the reference itself, so
    // a change to the shared search loop cannot move both sides.
    int64_t evaluated, pruned, hits, misses;
};

std::string
caseName(const ::testing::TestParamInfo<GridCase> &info)
{
    return std::string(info.param.model) +
           (info.param.effort == SearchEffort::Sketch ? "_Sketch"
                                                      : "_Exhaustive") +
           (info.param.objective == Objective::MinEdp ? "_MinEdp"
                                                      : "_MinEnergy");
}

Model
buildModel(const std::string &name)
{
    return name == "alexnet" ? makeAlexNet(224) : makeDarkNet19(224);
}

class CapacityBatchGrid : public ::testing::TestWithParam<GridCase>
{
};

} // namespace

TEST_P(CapacityBatchGrid, BatchedGroupsMatchPerPointMapModel)
{
    const GridCase gc = GetParam();
    const Model model = buildModel(gc.model);
    const bool sketch = gc.effort == SearchEffort::Sketch;
    const std::vector<ComputeAllocation> computes =
        sketch ? std::vector<ComputeAllocation>{{2, 16, 16, 8},
                                                {4, 8, 8, 16},
                                                {1, 16, 16, 16}}
               : std::vector<ComputeAllocation>{{2, 16, 16, 8},
                                                {4, 8, 8, 16}};
    const std::vector<SweepTask> tasks =
        sketch ? reducedGrid(computes, kSketchWl1, kSketchAl2)
               : reducedGrid(computes, kExhaustiveWl1, kExhaustiveAl2);
    DseOptions opt;
    opt.totalMacs = 4096;
    opt.areaLimitMm2 = 3.0;
    opt.effort = gc.effort;
    opt.objective = gc.objective;
    const int64_t n = static_cast<int64_t>(tasks.size());

    // Reference: every design point mapped on its own.
    MappingCache ref_cache;
    std::vector<SweepPointOutcome> ref_out(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i)
        ref_out[i] =
            evaluateSweepPoint(model, opt, tech(), tasks[i], ref_cache);
    const DseResult ref = collectSweepOutcomes(tasks, ref_out);
    EXPECT_EQ(ref.search.evaluated, gc.evaluated);
    EXPECT_EQ(ref.search.pruned, gc.pruned);
    EXPECT_EQ(ref.search.cacheHits, gc.hits);
    EXPECT_EQ(ref.search.cacheMisses, gc.misses);
    EXPECT_EQ(static_cast<int64_t>(ref_cache.size()), gc.misses);
    // The grid covers every outcome class the batch must preserve.
    ASSERT_GT(ref.areaRejected, 0);
    ASSERT_GT(ref.infeasible, 0);
    ASSERT_GT(ref.points.size(), 0u);
    ASSERT_EQ(capacityGroups(tasks, 0, n).size(), computes.size());

    for (const int threads : {1, 2, 4}) {
        const std::string ctx = "threads " + std::to_string(threads);
        MappingCache cache;
        std::vector<SweepPointOutcome> out(tasks.size());
        const auto groups = capacityGroups(tasks, 0, n);
        ThreadPool pool(threads);
        pool.parallelFor(
            static_cast<int64_t>(groups.size()), [&](int64_t g) {
                const auto [first, last] = groups[static_cast<size_t>(g)];
                evaluateSweepGroup(model, opt, tech(), tasks, first, last,
                                   &cache,
                                   &out[static_cast<size_t>(first)]);
            });
        for (size_t i = 0; i < tasks.size(); ++i) {
            EXPECT_EQ(out[i].kind, ref_out[i].kind) << ctx << " #" << i;
            expectSameStats(out[i].stats, ref_out[i].stats,
                            ctx + " #" + std::to_string(i));
        }
        const DseResult got = collectSweepOutcomes(tasks, out);
        EXPECT_EQ(got.swept, ref.swept) << ctx;
        EXPECT_EQ(got.areaRejected, ref.areaRejected) << ctx;
        EXPECT_EQ(got.infeasible, ref.infeasible) << ctx;
        EXPECT_TRUE(got.poisoned.empty()) << ctx;
        expectSameStats(got.search, ref.search, ctx);
        EXPECT_EQ(cache.size(), ref_cache.size()) << ctx;
        ASSERT_EQ(got.points.size(), ref.points.size()) << ctx;
        for (size_t p = 0; p < ref.points.size(); ++p)
            expectSamePoint(got.points[p], ref.points[p],
                            ctx + " point " + ref.points[p].toString());
    }
}

INSTANTIATE_TEST_SUITE_P(
    ReducedFig15Grid, CapacityBatchGrid,
    ::testing::Values(
        GridCase{"alexnet", SearchEffort::Sketch, Objective::MinEnergy,
                 130268, 118736, 0, 2128},
        GridCase{"alexnet", SearchEffort::Sketch, Objective::MinEdp,
                 105468, 143536, 0, 2128},
        GridCase{"alexnet", SearchEffort::Exhaustive,
                 Objective::MinEnergy, 419616, 619320, 0, 144},
        GridCase{"alexnet", SearchEffort::Exhaustive, Objective::MinEdp,
                 364840, 674096, 0, 144},
        GridCase{"darknet19", SearchEffort::Sketch, Objective::MinEnergy,
                 242340, 261772, 2128, 2926},
        GridCase{"darknet19", SearchEffort::Sketch, Objective::MinEdp,
                 228232, 275880, 2128, 2926},
        GridCase{"darknet19", SearchEffort::Exhaustive,
                 Objective::MinEnergy, 658072, 1673240, 144, 198},
        GridCase{"darknet19", SearchEffort::Exhaustive,
                 Objective::MinEdp, 429528, 1901784, 144, 198}),
    caseName);

TEST(CapacityBatch, VariantsMatchAnUnprunedOracle)
{
    // Independent of the search loop: the batched winner of every
    // variant is the first candidate with the minimum exactly
    // evaluated score (sound pruning can neither drop nor tie it).
    const Model model = makeAlexNet(224);
    std::vector<AcceleratorConfig> cfgs;
    for (const int64_t wl1 : {2_KB, 24_KB, 256_KB}) {
        for (const int64_t al2 : {32_KB, 256_KB})
            cfgs.push_back(makeConfig({2, 16, 16, 8},
                                      {96, 8_KB, wl1, al2}));
    }
    for (const Objective obj : {Objective::MinEnergy, Objective::MinEdp}) {
        const std::vector<VariantMappingResult> batched =
            mapModelVariants(model, cfgs, tech(), SearchEffort::Sketch,
                             obj, SearchOptions{});
        for (size_t v = 0; v < cfgs.size(); ++v) {
            ASSERT_FALSE(batched[v].error);
            const ModelMappingResult &r = batched[v].mapped;
            ASSERT_TRUE(r.feasible);
            for (size_t l = 0; l < model.layers().size(); ++l) {
                const ConvLayer &layer = model.layers()[l];
                double best = 0.0;
                std::optional<MappingChoice> oracle;
                for (const Mapping &m : enumerateCandidates(
                         layer, cfgs[v], SearchEffort::Sketch)) {
                    MappingChoice c =
                        evaluateMapping(layer, cfgs[v], tech(), m);
                    const double s = obj == Objective::MinEnergy
                                         ? c.energy.total()
                                         : c.edp();
                    if (!oracle || s < best) {
                        best = s;
                        oracle = std::move(c);
                    }
                }
                ASSERT_TRUE(oracle.has_value());
                const MappingChoice &got = r.choices[l];
                EXPECT_EQ(got.mapping.toString(),
                          oracle->mapping.toString())
                    << layer.name << " " << cfgs[v].toString();
                expectSameEnergy(got.energy, oracle->energy,
                                 layer.name + " " + cfgs[v].toString());
                EXPECT_EQ(got.runtime.cycles, oracle->runtime.cycles);
            }
        }
    }
}

TEST(CapacityBatch, SplitBoundEqualsScoreLowerBound)
{
    // Random candidates x capacities: the per-candidate floor priced
    // per variant must reproduce scoreLowerBound() bit for bit.
    std::mt19937 gen(20261017);
    const Model models[] = {makeAlexNet(224), makeDarkNet19(224)};
    const ComputeAllocation computes[] = {
        {2, 16, 16, 8}, {4, 8, 8, 16}, {1, 16, 16, 16}, {8, 4, 8, 16}};
    std::uniform_int_distribution<size_t> pick_wl1(1, kSketchWl1.size() -
                                                          1);
    std::uniform_int_distribution<size_t> pick_al2(0, kSketchAl2.size() -
                                                          1);
    int64_t checked = 0;
    for (const Model &model : models) {
        for (const ComputeAllocation &c : computes) {
            const AcceleratorConfig group =
                makeConfig(c, {96, 8_KB, 2_KB, 32_KB});
            for (const ConvLayer &layer : model.layers()) {
                CandidateBlock block;
                enumerateCandidatesInto(layer, group,
                                        SearchEffort::Exhaustive, block);
                std::uniform_int_distribution<size_t> pick_cand(
                    0, block.empty() ? 0 : block.size() - 1);
                for (int k = 0; k < 8 && !block.empty(); ++k) {
                    const Mapping &m = block.mapping(pick_cand(gen));
                    const MappingShapes s = deriveShapes(layer, group, m);
                    for (const Objective obj :
                         {Objective::MinEnergy, Objective::MinEdp}) {
                        const BoundFloor f =
                            boundFloor(layer, group, tech(), s, m, obj);
                        for (int v = 0; v < 4; ++v) {
                            AcceleratorConfig cfg = group;
                            cfg.core.wl1Bytes = kSketchWl1[pick_wl1(gen)];
                            cfg.chiplet.al2Bytes =
                                kSketchAl2[pick_al2(gen)];
                            const double split = priceBound(
                                f,
                                tech().sramEnergyPerBit(
                                    cfg.chiplet.al2Bytes),
                                tech().sramEnergyPerBit(
                                    cfg.core.wl1Bytes),
                                obj);
                            const double whole = scoreLowerBound(
                                layer, cfg, tech(), m, obj);
                            ASSERT_TRUE(sameBits(split, whole))
                                << layer.name << " " << m.toString()
                                << " " << cfg.toString() << ": "
                                << split << " vs " << whole;
                            ++checked;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 1000);
}

TEST(CapacityBatch, EnumerationIgnoresW1AndA2Sizes)
{
    // Any two feasible variants of a group enumerate identical blocks:
    // same mappings, ordinals and lane classes, in the same order.
    const Model models[] = {makeAlexNet(224), makeDarkNet19(224)};
    for (const Model &model : models) {
        for (const ComputeAllocation &c :
             {ComputeAllocation{2, 16, 16, 8},
              ComputeAllocation{4, 8, 8, 16}}) {
            const AcceleratorConfig a =
                makeConfig(c, {96, 8_KB, 2_KB, 32_KB});
            const AcceleratorConfig b =
                makeConfig(c, {96, 8_KB, 256_KB, 192_KB});
            ASSERT_TRUE(isCapacityVariant(a, b));
            for (const ConvLayer &layer : model.layers()) {
                for (const SearchEffort effort :
                     {SearchEffort::Sketch, SearchEffort::Exhaustive}) {
                    CandidateBlock x, y;
                    enumerateCandidatesInto(layer, a, effort, x);
                    enumerateCandidatesInto(layer, b, effort, y);
                    ASSERT_EQ(x.size(), y.size()) << layer.name;
                    for (size_t i = 0; i < x.size(); ++i) {
                        EXPECT_EQ(x.mapping(i).toString(),
                                  y.mapping(i).toString());
                        EXPECT_EQ(x.ordinal(i), y.ordinal(i));
                        EXPECT_EQ(x.fullLane(i), y.fullLane(i));
                    }
                }
            }
        }
    }
    // A-L1 is part of the group: a different A-L1 is another group.
    EXPECT_FALSE(isCapacityVariant(
        makeConfig({2, 16, 16, 8}, {96, 8_KB, 2_KB, 32_KB}),
        makeConfig({2, 16, 16, 8}, {96, 16_KB, 2_KB, 32_KB})));
}

TEST(CapacityBatch, MapModelVariantsRejectsMixedGroups)
{
    const std::vector<AcceleratorConfig> cfgs = {
        makeConfig({2, 16, 16, 8}, {96, 8_KB, 2_KB, 32_KB}),
        makeConfig({2, 16, 16, 8}, {144, 8_KB, 2_KB, 32_KB})};
    try {
        mapModelVariants(makeAlexNet(224), cfgs, tech(),
                         SearchEffort::Sketch, Objective::MinEnergy,
                         SearchOptions{});
        ADD_FAILURE() << "mixed O-L1 accepted";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
    }
}

TEST(CapacityBatch, LadderResolvesLikeAnalyzeBuffer)
{
    // Every nest of every candidate of a few layers, at capacities
    // from below the atom to above the whole nest.
    const Model model = makeDarkNet19(224);
    const AcceleratorConfig cfg =
        makeConfig({2, 16, 16, 8}, {96, 8_KB, 2_KB, 32_KB});
    const int64_t caps[] = {1,      64,     512,    2_KB,  6_KB,
                            32_KB,  96_KB,  256_KB, 4_MB, 1LL << 40};
    int64_t checked = 0;
    for (size_t li = 0; li < model.layers().size(); li += 3) {
        const ConvLayer &layer = model.layers()[li];
        for (const Mapping &m :
             enumerateCandidates(layer, cfg, SearchEffort::Sketch)) {
            const NestSet nests =
                buildNests(layer, cfg, m, deriveShapes(layer, cfg, m));
            for (const LoopNest *nest : {&nests.perCore, &nests.perChiplet}) {
                for (const Tensor t :
                     {Tensor::Weights, Tensor::Activations}) {
                    FootprintLadder ladder;
                    buildFootprintLadder(*nest, t, layer, ladder);
                    for (const int64_t cap : caps) {
                        const ReuseResult ref =
                            analyzeBuffer(*nest, t, layer, cap);
                        ReuseResult got;
                        ladder.resolveInto(cap, got);
                        ASSERT_EQ(got.fillBytes, ref.fillBytes);
                        ASSERT_EQ(got.footprintAtFit, ref.footprintAtFit);
                        ASSERT_EQ(got.fitBoundary, ref.fitBoundary);
                        ASSERT_EQ(got.intrinsicBytes, ref.intrinsicBytes);
                        ASSERT_EQ(got.criticalPoints.size(),
                                  ref.criticalPoints.size());
                        for (size_t k = 0; k < ref.criticalPoints.size();
                             ++k) {
                            EXPECT_EQ(got.criticalPoints[k].boundary,
                                      ref.criticalPoints[k].boundary);
                            EXPECT_EQ(
                                got.criticalPoints[k].criticalCapacity,
                                ref.criticalPoints[k].criticalCapacity);
                        }
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 1000);
}

TEST(CapacityBatch, OverlappingBatchesSearchEachKeyOnce)
{
    // Two callers batch overlapping key sets at the same time (the
    // serve daemon's concurrent pre requests): every key is searched
    // exactly once, both see every value, and hits + misses add up.
    MappingCache cache;
    const ConvLayer layer = makeConv("k", 8, 8, 16, 16, 3, 3, 1);
    std::vector<MappingCache::Key> all;
    for (int i = 0; i < 24; ++i) {
        AcceleratorConfig cfg = caseStudyConfig();
        cfg.core.wl1Bytes = 1024 * (i + 2);
        all.push_back(MappingCache::makeKey(layer, cfg, tech(),
                                            SearchEffort::Sketch,
                                            Objective::MinEnergy));
    }
    std::map<int64_t, std::atomic<int>> searched;
    for (const MappingCache::Key &k : all)
        searched[k.wl1Bytes] = 0;
    auto caller = [&](size_t from, size_t to,
                      std::vector<MappingCache::BatchSlot> &slots) {
        const std::vector<MappingCache::Key> keys(all.begin() + from,
                                                  all.begin() + to);
        cache.lookupOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &missing,
                std::vector<MappingCache::BatchSlot> &out) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                for (const size_t i : missing) {
                    ++searched.at(keys[i].wl1Bytes);
                    MappingChoice c;
                    c.runtime.cycles = keys[i].wl1Bytes;
                    out[i].value = c;
                }
            },
            slots);
    };
    std::vector<MappingCache::BatchSlot> a, b;
    std::thread t1([&] { caller(0, 16, a); });
    std::thread t2([&] { caller(8, 24, b); });
    t1.join();
    t2.join();
    for (const auto &[wl1, count] : searched)
        EXPECT_EQ(count.load(), 1) << "W-L1 " << wl1;
    int64_t hits = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].value.has_value());
        EXPECT_EQ(a[i].value->runtime.cycles, all[i].wl1Bytes);
        hits += a[i].hit;
    }
    for (size_t i = 0; i < b.size(); ++i) {
        ASSERT_TRUE(b[i].value.has_value());
        EXPECT_EQ(b[i].value->runtime.cycles, all[8 + i].wl1Bytes);
        hits += b[i].hit;
    }
    EXPECT_EQ(hits, 8); // the overlap is found by exactly one side
    EXPECT_EQ(cache.misses(), 24);
    EXPECT_EQ(cache.hits(), 8);
    EXPECT_EQ(cache.size(), 24u);
}

TEST(CapacityBatch, FailedKeysAreNotLatched)
{
    // A batch whose search throws for one key publishes the others;
    // the failed key is searched again by the next caller.
    MappingCache cache;
    const ConvLayer layer = makeConv("k", 8, 8, 16, 16, 3, 3, 1);
    std::vector<MappingCache::Key> keys;
    for (int i = 0; i < 3; ++i) {
        AcceleratorConfig cfg = caseStudyConfig();
        cfg.chiplet.al2Bytes = 32_KB * (i + 1);
        keys.push_back(MappingCache::makeKey(layer, cfg, tech(),
                                             SearchEffort::Sketch,
                                             Objective::MinEnergy));
    }
    std::vector<MappingCache::BatchSlot> slots;
    cache.lookupOrComputeBatch(
        keys,
        [&](const std::vector<size_t> &missing,
            std::vector<MappingCache::BatchSlot> &out) {
            for (const size_t i : missing) {
                if (i == 1)
                    out[i].error = std::make_exception_ptr(
                        StatusError(errInternal("boom")));
                else
                    out[i].value = MappingChoice{};
            }
        },
        slots);
    EXPECT_TRUE(slots[1].error);
    EXPECT_FALSE(slots[0].error);
    EXPECT_EQ(cache.misses(), 2);

    int runs = 0;
    cache.lookupOrComputeBatch(
        keys,
        [&](const std::vector<size_t> &missing,
            std::vector<MappingCache::BatchSlot> &out) {
            runs += static_cast<int>(missing.size());
            for (const size_t i : missing)
                out[i].value = MappingChoice{};
        },
        slots);
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(slots[0].hit);
    EXPECT_FALSE(slots[1].hit);
    EXPECT_TRUE(slots[2].hit);
}

TEST(CapacityBatch, SearchFaultPoisonsOnePointOfItsGroup)
{
    // A fault thrown from one variant's rung poll quarantines
    // that design point only; the rest of its group maps unchanged.
    const Model model = makeAlexNet(224);
    const std::vector<SweepTask> tasks = reducedGrid(
        {{2, 16, 16, 8}}, {2_KB, 12_KB, 256_KB}, {32_KB, 256_KB});
    DseOptions opt;
    opt.totalMacs = 4096;
    opt.effort = SearchEffort::Sketch;
    const int64_t n = static_cast<int64_t>(tasks.size());

    std::vector<SweepPointOutcome> ref(tasks.size());
    {
        MappingCache cache;
        evaluateSweepGroup(model, opt, tech(), tasks, 0, n, &cache,
                           ref.data());
    }
    verif::FaultPlan plan;
    plan.failAtSearchBlock = 7;
    verif::armFaultPlan(plan);
    std::vector<SweepPointOutcome> out(tasks.size());
    MappingCache cache;
    evaluateSweepGroup(model, opt, tech(), tasks, 0, n, &cache, out.data());
    verif::disarmFaultPlan();

    int poisoned = 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (out[i].kind == SweepPointOutcome::Poisoned) {
            ++poisoned;
            EXPECT_NE(out[i].error.find("inside mapping search"),
                      std::string::npos);
            continue;
        }
        ASSERT_EQ(out[i].kind, SweepPointOutcome::Valid);
        expectSamePoint(out[i].point, ref[i].point, std::to_string(i));
        expectSameStats(out[i].stats, ref[i].stats, std::to_string(i));
    }
    EXPECT_EQ(poisoned, 1);
}
