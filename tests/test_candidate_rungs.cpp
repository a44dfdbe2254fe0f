/**
 * @file
 * The rung invariant the mapping search is built on
 * (mapper/candidates.hpp, kOrderPairs): legal leaves come in runs of
 * kOrderPairs consecutive ordinals that differ only in the two loop
 * orders, and legality, derived shapes, lane class and the bound
 * floor are identical across a rung — which is what lets enumeration
 * check legality once per rung and the bound pass derive shapes and
 * floors once per rung.  Plus pinned exhaustive search counters for
 * the post / serve path, which guard the candidate visit order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "arch/config.hpp"
#include "common/util.hpp"
#include "dse/space.hpp"
#include "mapper/bound.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

using namespace nnbaton;

namespace {

int
pick(std::mt19937 &g, std::initializer_list<int> values)
{
    std::uniform_int_distribution<size_t> d(0, values.size() - 1);
    return *(values.begin() + d(g));
}

AcceleratorConfig
randomConfig(std::mt19937 &g)
{
    AcceleratorConfig cfg;
    cfg.package.chiplets = pick(g, {1, 2, 4, 8});
    cfg.chiplet.cores = pick(g, {1, 2, 4, 8, 16});
    cfg.core.lanes = pick(g, {4, 8, 16});
    cfg.core.vectorSize = pick(g, {4, 8, 16});
    cfg.core.ol1Bytes = pick(g, {96, 768, 1536, 3072});
    cfg.core.al1Bytes = pick(g, {800, 2048, 8192});
    cfg.core.wl1Bytes = pick(g, {8192, 18432, 65536});
    cfg.chiplet.al2Bytes = pick(g, {32768, 65536, 262144});
    cfg.validate();
    return cfg;
}

/** Dense, strided, point-wise, depthwise and narrow (degraded-lane)
 *  layers. */
ConvLayer
randomLayer(std::mt19937 &g)
{
    switch (pick(g, {0, 1, 2, 3})) {
      case 0:
        return makeDepthwiseConv("dw", pick(g, {7, 14, 28}),
                                 pick(g, {7, 14, 28}),
                                 pick(g, {32, 64, 128}), 3,
                                 pick(g, {1, 2}));
      case 1:
        return makeConv("narrow", pick(g, {7, 28}), pick(g, {7, 28}),
                        pick(g, {2, 4, 8}), pick(g, {3, 16}), 3, 3, 1);
      default:
        return makeConv("conv", pick(g, {7, 14, 28, 56}),
                        pick(g, {7, 14, 28, 56}),
                        pick(g, {32, 64, 256}), pick(g, {16, 64, 256}),
                        pick(g, {1, 3, 7}), pick(g, {1, 3}),
                        pick(g, {1, 2}));
    }
}

constexpr SearchEffort kEfforts[] = {
    SearchEffort::Exhaustive, SearchEffort::Fast, SearchEffort::Sketch};

const char *
effortName(SearchEffort e)
{
    return e == SearchEffort::Exhaustive ? "Exhaustive"
           : e == SearchEffort::Fast     ? "Fast"
                                         : "Sketch";
}

/** Every field but the two loop orders. */
bool
sameButOrders(const Mapping &a, const Mapping &b)
{
    Mapping x = a;
    x.pkgOrder = b.pkgOrder;
    x.chipOrder = b.chipOrder;
    return x.toString() == b.toString();
}

bool
sameShape(const WorkShape &a, const WorkShape &b)
{
    return a.ho == b.ho && a.wo == b.wo && a.co == b.co;
}

bool
sameShapes(const MappingShapes &a, const MappingShapes &b)
{
    return sameShape(a.chipletMacro, b.chipletMacro) &&
           sameShape(a.chipletTile, b.chipletTile) &&
           sameShape(a.coreMacro, b.coreMacro) &&
           sameShape(a.coreTile, b.coreTile) &&
           a.pkgTripsH == b.pkgTripsH && a.pkgTripsW == b.pkgTripsW &&
           a.pkgTripsC == b.pkgTripsC && a.chipTripsH == b.chipTripsH &&
           a.chipTripsW == b.chipTripsW && a.chipTripsC == b.chipTripsC &&
           a.batchTrips == b.batchTrips;
}

/** BoundFloor compared bit for bit (BoundFloor is plain doubles). */
bool
sameFloor(const BoundFloor &a, const BoundFloor &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** The loop-order setting of leaf @p order within its rung. */
std::pair<LoopOrder, LoopOrder>
ordersOf(int64_t order)
{
    const auto of = [](int64_t bit) {
        return bit ? LoopOrder::PlanePriority : LoopOrder::ChannelPriority;
    };
    return {of(order / 2), of(order % 2)};
}

/** Subtree @p i's legal leaves, one makeLeaf() per grid coordinate in
 *  ascending-ordinal order: the per-leaf reference walk. */
std::vector<CandidateSpace::Leaf>
gridLeaves(const CandidateSpace &space, size_t i)
{
    const CandidateSpace::Subtree &st = space.subtree(i);
    std::vector<CandidateSpace::Leaf> out;
    for (size_t ih = 0; ih < st.ladderH.size(); ++ih)
        for (size_t iw = 0; iw < st.ladderW.size(); ++iw)
            for (size_t ic = 0; ic < st.ladderC.size(); ++ic)
                for (size_t o = 0; o < static_cast<size_t>(kOrderPairs);
                     ++o) {
                    if (auto leaf = space.makeLeaf(i, ih, iw, ic, o))
                        out.push_back(*leaf);
                }
    return out;
}

/** Drive @p body over random (layer, config, effort) cases. */
template <class Body>
void
forRandomSpaces(uint32_t seed, int cases, Body body)
{
    std::mt19937 g(seed);
    for (int c = 0; c < cases; ++c) {
        const AcceleratorConfig cfg = randomConfig(g);
        const ConvLayer layer = randomLayer(g);
        for (const SearchEffort effort : kEfforts) {
            const std::string ctx = std::string(effortName(effort)) +
                                    " " + layer.toString() + " on " +
                                    cfg.toString();
            body(layer, cfg, effort, ctx);
        }
    }
}

} // namespace

TEST(CandidateRungs, LegalLeavesComeInWholeRungs)
{
    forRandomSpaces(11, 12, [](const ConvLayer &layer,
                               const AcceleratorConfig &cfg,
                               SearchEffort effort,
                               const std::string &ctx) {
        const CandidateSpace space(layer, cfg, effort);
        for (size_t i = 0; i < space.size(); ++i) {
            const CandidateSpace::Subtree &st = space.subtree(i);
            EXPECT_EQ(st.firstOrdinal % kOrderPairs, 0) << ctx;
            // Every grid rung is legal for all its orders or for none.
            for (size_t ih = 0; ih < st.ladderH.size(); ++ih)
                for (size_t iw = 0; iw < st.ladderW.size(); ++iw)
                    for (size_t ic = 0; ic < st.ladderC.size(); ++ic) {
                        int n = 0;
                        for (int64_t o = 0; o < kOrderPairs; ++o)
                            n += space.makeLeaf(i, ih, iw, ic,
                                                static_cast<size_t>(o))
                                     .has_value();
                        EXPECT_TRUE(n == 0 || n == kOrderPairs)
                            << ctx << " rung " << ih << "," << iw << ","
                            << ic << ": " << n << " legal orders";
                    }
            // So the legal leaves come in runs of kOrderPairs
            // consecutive ordinals that differ only in the orders.
            const std::vector<CandidateSpace::Leaf> leaves =
                gridLeaves(space, i);
            const size_t pairs = static_cast<size_t>(kOrderPairs);
            ASSERT_EQ(leaves.size() % pairs, 0u) << ctx;
            for (size_t k = 0; k < leaves.size(); ++k) {
                const CandidateSpace::Leaf &first = leaves[k - k % pairs];
                const auto order = static_cast<int64_t>(k % pairs);
                const CandidateSpace::Leaf &leaf = leaves[k];
                EXPECT_EQ(first.ordinal % kOrderPairs, 0) << ctx;
                EXPECT_EQ(leaf.ordinal, first.ordinal + order) << ctx;
                EXPECT_TRUE(sameButOrders(leaf.mapping, first.mapping))
                    << ctx << ": " << leaf.mapping.toString() << " vs "
                    << first.mapping.toString();
                const auto [pkg, chip] = ordersOf(order);
                EXPECT_EQ(leaf.mapping.pkgOrder, pkg) << ctx;
                EXPECT_EQ(leaf.mapping.chipOrder, chip) << ctx;
                EXPECT_EQ(leaf.fullLane, first.fullLane) << ctx;
            }
        }
    });
}

TEST(CandidateRungs, LegalityShapesLaneAndFloorIgnoreTheOrders)
{
    const TechnologyModel tech = defaultTech();
    int64_t legal_rungs = 0, illegal_rungs = 0;
    forRandomSpaces(23, 40, [&](const ConvLayer &layer,
                                const AcceleratorConfig &cfg,
                                SearchEffort effort,
                                const std::string &ctx) {
        const CandidateSpace space(layer, cfg, effort);
        for (size_t i = 0; i < space.size(); ++i) {
            const CandidateSpace::Subtree &st = space.subtree(i);
            for (size_t ih = 0; ih < st.ladderH.size(); ++ih)
                for (size_t iw = 0; iw < st.ladderW.size(); ++iw)
                    for (size_t ic = 0; ic < st.ladderC.size(); ++ic) {
                        // The rung's mappings built by hand, illegal
                        // ones included, so checkMapping's reason is
                        // compared as well as its verdict.
                        Mapping base;
                        base.pkgSpatial = st.pkg;
                        base.pkgSplit = st.pkgSplit;
                        base.chipSpatial = st.chip;
                        base.chipChannelWays = st.cw;
                        base.chipSplit = st.chipSplit;
                        base.chipletTile = {
                            std::min(st.baseH * st.ladderH[ih],
                                     st.macro.ho),
                            std::min(st.baseW * st.ladderW[iw],
                                     st.macro.wo),
                            std::min(st.baseC * st.ladderC[ic],
                                     st.macro.co)};
                        base.hoC = st.hoC;
                        base.woC = st.woC;
                        const std::string reason =
                            checkMapping(layer, cfg, base);
                        const bool legal = reason.empty();
                        ++(legal ? legal_rungs : illegal_rungs);
                        std::optional<MappingShapes> shapes;
                        std::optional<BoundFloor> energy_floor, edp_floor;
                        if (legal) {
                            shapes = deriveShapes(layer, cfg, base);
                            energy_floor =
                                boundFloor(layer, cfg, tech, *shapes, base,
                                           Objective::MinEnergy);
                            edp_floor = boundFloor(layer, cfg, tech,
                                                   *shapes, base,
                                                   Objective::MinEdp);
                        }
                        for (int64_t o = 1; o < kOrderPairs; ++o) {
                            Mapping m = base;
                            std::tie(m.pkgOrder, m.chipOrder) =
                                ordersOf(o);
                            EXPECT_EQ(checkMapping(layer, cfg, m), reason)
                                << ctx << " " << m.toString();
                            if (!legal)
                                continue;
                            const MappingShapes s =
                                deriveShapes(layer, cfg, m);
                            EXPECT_TRUE(sameShapes(s, *shapes))
                                << ctx << " " << m.toString();
                            EXPECT_EQ(s.coreMacro.co >= cfg.core.lanes,
                                      shapes->coreMacro.co >=
                                          cfg.core.lanes)
                                << ctx;
                            EXPECT_TRUE(sameFloor(
                                boundFloor(layer, cfg, tech, s, m,
                                           Objective::MinEnergy),
                                *energy_floor))
                                << ctx << " " << m.toString();
                            EXPECT_TRUE(sameFloor(
                                boundFloor(layer, cfg, tech, s, m,
                                           Objective::MinEdp),
                                *edp_floor))
                                << ctx << " " << m.toString();
                        }
                    }
        }
    });
    EXPECT_GT(legal_rungs, 0);
    EXPECT_GT(illegal_rungs, 0);
}

TEST(CandidateRungs, EnumerationIsTheLaneFilteredExpandConcatenation)
{
    int degraded = 0;
    forRandomSpaces(37, 16, [&](const ConvLayer &layer,
                                const AcceleratorConfig &cfg,
                                SearchEffort effort,
                                const std::string &ctx) {
        const CandidateSpace space(layer, cfg, effort);
        std::vector<CandidateSpace::Leaf> all;
        bool any_full = false;
        for (size_t i = 0; i < space.size(); ++i) {
            for (const CandidateSpace::Leaf &leaf : gridLeaves(space, i)) {
                any_full = any_full || leaf.fullLane;
                all.push_back(leaf);
            }
        }
        std::vector<CandidateSpace::Leaf> want;
        for (const CandidateSpace::Leaf &leaf : all) {
            if (leaf.fullLane == any_full)
                want.push_back(leaf);
        }
        degraded += !any_full && !want.empty();

        CandidateBlock block;
        block.push(Mapping{}, -1, true); // stale content is cleared
        enumerateCandidatesInto(space, block);
        ASSERT_EQ(block.size(), want.size()) << ctx;
        for (size_t k = 0; k < want.size(); ++k) {
            EXPECT_EQ(block.ordinal(k), want[k].ordinal) << ctx;
            EXPECT_EQ(block.fullLane(k), want[k].fullLane) << ctx;
            EXPECT_EQ(block.mapping(k).toString(),
                      want[k].mapping.toString())
                << ctx;
        }
        // The vector form is the same sequence of mappings.
        const std::vector<Mapping> flat =
            enumerateCandidates(layer, cfg, effort);
        ASSERT_EQ(flat.size(), want.size()) << ctx;
        for (size_t k = 0; k < want.size(); ++k)
            EXPECT_EQ(flat[k].toString(), want[k].mapping.toString())
                << ctx;
    });
    // The narrow layers must exercise the degraded-lane fallback.
    EXPECT_GT(degraded, 0);
}

namespace {

struct PinCase
{
    const char *model;
    bool fig15; //!< the fig15 winner config, else caseStudyConfig()
    Objective objective;
    int64_t evaluated, pruned, hits, misses;
};

// Captured before the rung-shared walk; the candidate visit order,
// the prune blocks and the incumbents all feed these counts.
constexpr PinCase kPins[] = {
    {"alexnet", false, Objective::MinEnergy, 18352, 71952, 0, 8},
    {"alexnet", false, Objective::MinEdp, 7060, 83244, 0, 8},
    {"alexnet", true, Objective::MinEnergy, 15652, 36912, 0, 8},
    {"alexnet", true, Objective::MinEdp, 7796, 44768, 0, 8},
    {"resnet50", false, Objective::MinEnergy, 191604, 167500, 33, 21},
    {"resnet50", false, Objective::MinEdp, 105784, 253320, 33, 21},
    {"resnet50", true, Objective::MinEnergy, 77420, 141252, 33, 21},
    {"resnet50", true, Objective::MinEdp, 64428, 154244, 33, 21},
};

} // namespace

TEST(CandidateRungs, ExhaustivePostSearchCountersArePinned)
{
    // The recommended point of the paper's Fig. 15 DarkNet-19 sweep.
    const AcceleratorConfig fig15 =
        makeConfig(ComputeAllocation{2, 16, 16, 8},
                   MemoryAllocation{96, 8_KB, 6_KB, 96_KB});
    for (const PinCase &pin : kPins) {
        const Model model = std::string(pin.model) == "alexnet"
                                ? makeAlexNet(224)
                                : makeResNet50(224);
        SearchOptions search;
        const ModelMappingResult r =
            mapModel(model, pin.fig15 ? fig15 : caseStudyConfig(),
                     defaultTech(), SearchEffort::Exhaustive,
                     pin.objective, search);
        const std::string ctx =
            std::string(pin.model) + (pin.fig15 ? " fig15" : " case") +
            (pin.objective == Objective::MinEdp ? " MinEdp"
                                                : " MinEnergy");
        EXPECT_TRUE(r.feasible) << ctx;
        EXPECT_EQ(r.stats.evaluated, pin.evaluated) << ctx;
        EXPECT_EQ(r.stats.pruned, pin.pruned) << ctx;
        EXPECT_EQ(r.stats.cacheHits, pin.hits) << ctx;
        EXPECT_EQ(r.stats.cacheMisses, pin.misses) << ctx;
    }
}
