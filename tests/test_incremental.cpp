/**
 * @file
 * The incremental C3P evaluator (c3p/incremental.hpp) against the
 * full reference path: seeded random-walk fuzz over single-field
 * mapping diffs, enumeration-stream equality with nest-memo reuse,
 * the cross-check mode, the fast buffer scan against the quadratic
 * reference, and the candidate blocks against the vector enumeration
 * and the per-leaf makeLeaf() grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "baton/baton.hpp"
#include "c3p/incremental.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "verif/random_mapping.hpp"

using namespace nnbaton;

namespace {

std::mt19937 &
rng(uint32_t seed)
{
    static std::mt19937 gen;
    gen.seed(seed);
    return gen;
}

template <typename T>
T
pick(std::mt19937 &g, std::initializer_list<T> options)
{
    std::uniform_int_distribution<size_t> d(0, options.size() - 1);
    return *(options.begin() + d(g));
}

/** Random layer in the shape ranges the case-study config can run. */
ConvLayer
randomLayer(std::mt19937 &g)
{
    const int ho = pick(g, {7, 14, 28, 56});
    const int wo = pick(g, {7, 14, 28, 56});
    const int co = pick(g, {16, 64, 256, 512});
    const int ci = pick(g, {16, 64, 256});
    const int k = pick(g, {1, 3, 5});
    const int s = pick(g, {1, 2});
    return makeConv("fuzz", ho, wo, co, ci, k, k, s);
}

/** @p mapping evaluated the way the search does: prepare() with the
 *  derived shapes, beginInto() and resolveInto(), then priced. */
MappingChoice
evaluateIncremental(IncrementalAnalyzer &inc, const ConvLayer &layer,
                    const AcceleratorConfig &cfg,
                    const TechnologyModel &tech, const Mapping &mapping)
{
    MappingChoice c;
    c.mapping = mapping;
    inc.prepare(mapping, deriveShapes(layer, cfg, mapping));
    inc.beginInto(c.analysis);
    inc.resolveInto(cfg, c.analysis);
    c.energy = computeEnergy(c.analysis.counts, cfg, tech);
    c.runtime = estimateRuntime(layer, cfg, c.analysis, tech);
    return c;
}

/** All comparable fields of one evaluation, bit-exact. */
void
expectChoicesIdentical(const MappingChoice &inc,
                       const MappingChoice &full,
                       const std::string &context)
{
    const AccessCounts &a = inc.analysis.counts;
    const AccessCounts &b = full.analysis.counts;
    EXPECT_EQ(a.dramReadActBits, b.dramReadActBits) << context;
    EXPECT_EQ(a.dramReadWeightBits, b.dramReadWeightBits) << context;
    EXPECT_EQ(a.dramWriteBits, b.dramWriteBits) << context;
    EXPECT_EQ(a.d2dBits, b.d2dBits) << context;
    EXPECT_EQ(a.nocBits, b.nocBits) << context;
    EXPECT_EQ(a.al2ReadBits, b.al2ReadBits) << context;
    EXPECT_EQ(a.al2WriteBits, b.al2WriteBits) << context;
    EXPECT_EQ(a.al1ReadBits, b.al1ReadBits) << context;
    EXPECT_EQ(a.al1WriteBits, b.al1WriteBits) << context;
    EXPECT_EQ(a.wl1ReadBits, b.wl1ReadBits) << context;
    EXPECT_EQ(a.wl1WriteBits, b.wl1WriteBits) << context;
    EXPECT_EQ(a.ol1RmwBits, b.ol1RmwBits) << context;
    EXPECT_EQ(a.ol1ReadBits, b.ol1ReadBits) << context;
    EXPECT_EQ(a.ol2ReadBits, b.ol2ReadBits) << context;
    EXPECT_EQ(a.ol2WriteBits, b.ol2WriteBits) << context;
    EXPECT_EQ(a.macOps, b.macOps) << context;
    EXPECT_EQ(a.vectorOps, b.vectorOps) << context;
    EXPECT_EQ(a.ol2Bytes, b.ol2Bytes) << context;
    EXPECT_EQ(inc.analysis.wl1.fillBytes, full.analysis.wl1.fillBytes)
        << context;
    EXPECT_EQ(inc.analysis.al1.fillBytes, full.analysis.al1.fillBytes)
        << context;
    EXPECT_EQ(inc.analysis.al2.fillBytes, full.analysis.al2.fillBytes)
        << context;
    // Energy and runtime are pure functions of the counts/analysis,
    // so bit-equality must carry through to the scores the search
    // ranks by.
    EXPECT_EQ(inc.energy.total(), full.energy.total()) << context;
    EXPECT_EQ(inc.runtime.cycles, full.runtime.cycles) << context;
    EXPECT_EQ(inc.edp(), full.edp()) << context;
}

/** Mutate exactly one mapping field (the diffs the analyzer covers —
 *  and, past legality walls, plenty it must fall back on). */
Mapping
mutateOneField(std::mt19937 &g, const Mapping &m, const ConvLayer &layer)
{
    Mapping out = m;
    switch (g() % 8) {
      case 0:
        out.chipletTile.ho = std::max(
            1, pick(g, {0, 1}) ? m.chipletTile.ho * 2
                               : m.chipletTile.ho / 2);
        break;
      case 1:
        out.chipletTile.wo = std::max(
            1, pick(g, {0, 1}) ? m.chipletTile.wo * 2
                               : m.chipletTile.wo / 2);
        break;
      case 2:
        out.chipletTile.co = std::max(
            1, pick(g, {0, 1}) ? m.chipletTile.co * 2
                               : m.chipletTile.co / 2);
        break;
      case 3:
        out.pkgOrder = m.pkgOrder == LoopOrder::ChannelPriority
                           ? LoopOrder::PlanePriority
                           : LoopOrder::ChannelPriority;
        break;
      case 4:
        out.chipOrder = m.chipOrder == LoopOrder::ChannelPriority
                            ? LoopOrder::PlanePriority
                            : LoopOrder::ChannelPriority;
        break;
      case 5:
        out.hoC = std::max(1, pick(g, {0, 1}) ? m.hoC * 2 : m.hoC / 2);
        break;
      case 6:
        out.woC = std::max(1, pick(g, {0, 1}) ? m.woC * 2 : m.woC / 2);
        break;
      default: {
        PlanarSplit flip{m.chipSplit.fw, m.chipSplit.fh};
        out.chipSplit = flip;
        break;
      }
    }
    (void)layer;
    return out;
}

} // namespace

TEST(Incremental, EnumerationStreamMatchesFullEvaluation)
{
    // The exact stream the search feeds the analyzer: every candidate
    // of a case-study layer in ascending-ordinal order.  Results must
    // be bit-identical, and enumeration neighbours must hit the nest
    // memo.
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();
    const RepresentativeLayers rep = representativeLayers(224);
    for (const ConvLayer &layer :
         {rep.common, rep.pointWise, rep.weightIntensive}) {
        CandidateBlock block;
        enumerateCandidatesInto(layer, cfg, SearchEffort::Fast, block);
        ASSERT_FALSE(block.empty()) << layer.toString();
        IncrementalAnalyzer inc(layer, cfg);
        for (size_t i = 0; i < block.size(); ++i) {
            const Mapping &m = block.mapping(i);
            expectChoicesIdentical(
                evaluateIncremental(inc, layer, cfg, tech, m),
                evaluateMapping(layer, cfg, tech, m),
                layer.name + " " + m.toString());
        }
        const IncrementalStats &st = inc.stats();
        EXPECT_EQ(st.evaluations,
                  static_cast<int64_t>(block.size()));
        EXPECT_GT(st.nestReuses, st.nestScans) << layer.toString();
    }
}

TEST(Incremental, CrossCheckModeValidatesEveryEvaluation)
{
    const AcceleratorConfig cfg = caseStudyConfig();
    const ConvLayer layer = representativeLayers(224).common;
    CandidateBlock block;
    enumerateCandidatesInto(layer, cfg, SearchEffort::Sketch, block);
    ASSERT_FALSE(block.empty());
    const TechnologyModel &tech = defaultTech();
    IncrementalAnalyzer inc(layer, cfg);
    inc.setCrossCheck(true);
    for (size_t i = 0; i < block.size(); ++i) // panics on divergence
        evaluateIncremental(inc, layer, cfg, tech, block.mapping(i));
    EXPECT_EQ(inc.stats().crossChecks, inc.stats().evaluations);
    EXPECT_GT(inc.stats().crossChecks, 0);
}

class IncrementalFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(IncrementalFuzz, RandomWalkMatchesFullEvaluation)
{
    // Random-walk fuzz: a chain of single-field mapping mutations
    // (legality-gated) through one stateful analyzer, each step
    // compared bit-for-bit against the independent full evaluation.
    // Failures shrink through the differential minimiser before being
    // reported.
    std::mt19937 &g = rng(GetParam());
    const AcceleratorConfig cfg = caseStudyConfig();
    const TechnologyModel &tech = defaultTech();
    const ConvLayer layer = randomLayer(g);

    const std::optional<Mapping> start = randomMapping(g, layer, cfg);
    if (!start)
        GTEST_SKIP() << "no legal mapping for " << layer.toString();

    const auto diverges = [&](const DiffCase &dc) {
        IncrementalAnalyzer probe(dc.layer, dc.cfg);
        // Analyze the case's own mapping twice, so the second pass is
        // served from the nest memo.
        evaluateIncremental(probe, dc.layer, dc.cfg, tech, dc.mapping);
        const MappingChoice via_memo = evaluateIncremental(
            probe, dc.layer, dc.cfg, tech, dc.mapping);
        const AccessAnalysis full =
            analyzeMapping(dc.layer, dc.cfg, dc.mapping);
        return via_memo.analysis.counts.toString() !=
               full.counts.toString();
    };

    IncrementalAnalyzer inc(layer, cfg);
    Mapping cur = *start;
    int accepted = 0;
    for (int step = 0; step < 120; ++step) {
        const Mapping next = mutateOneField(g, cur, layer);
        if (!checkMapping(layer, cfg, next).empty())
            continue; // illegal mutation; draw again from cur
        ++accepted;
        const MappingChoice via_inc =
            evaluateIncremental(inc, layer, cfg, tech, next);
        const MappingChoice via_full =
            evaluateMapping(layer, cfg, tech, next);
        const bool same =
            via_inc.analysis.counts.toString() ==
                via_full.analysis.counts.toString() &&
            via_inc.energy.total() == via_full.energy.total() &&
            via_inc.runtime.cycles == via_full.runtime.cycles;
        if (!same) {
            const DiffCase shrunk =
                minimizeFailure({layer, cfg, next}, diverges);
            expectChoicesIdentical(via_inc, via_full,
                                   "shrunk to: " + shrunk.toString());
            FAIL() << "incremental != full; minimal case "
                   << shrunk.toString();
        }
        cur = next;
    }
    // Single-field steps keep meeting nests the memo already holds
    // (an order flip and back, a tile factor and back).
    if (accepted > 10) {
        EXPECT_GT(inc.stats().nestReuses, 0) << layer.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz,
                         ::testing::Range(0u, 24u));

class BufferFastFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BufferFastFuzz, FastScanMatchesReferenceScan)
{
    // analyzeBufferFast() must be bit-identical to analyzeBuffer() on
    // every field, including the critical-point list, for the nests
    // real mappings lower to, across all three buffers and a ladder
    // of capacities spanning never-fits to always-fits.
    std::mt19937 &g = rng(GetParam() ^ 0x5eed);
    const AcceleratorConfig cfg = caseStudyConfig();
    const ConvLayer layer = randomLayer(g);
    const std::optional<Mapping> m = randomMapping(g, layer, cfg);
    if (!m)
        GTEST_SKIP() << "no legal mapping for " << layer.toString();
    const MappingShapes shapes = deriveShapes(layer, cfg, *m);
    const NestSet nests = buildNests(layer, cfg, *m, shapes);
    for (const LoopNest *nest : {&nests.perCore, &nests.perChiplet}) {
        for (Tensor t : {Tensor::Weights, Tensor::Activations,
                         Tensor::Outputs}) {
            for (int64_t cap = 1; cap <= (int64_t(1) << 40); cap <<= 4) {
                const ReuseResult ref =
                    analyzeBuffer(*nest, t, layer, cap);
                const ReuseResult fast =
                    analyzeBufferFast(*nest, t, layer, cap);
                ASSERT_EQ(fast.fillBytes, ref.fillBytes) << cap;
                ASSERT_EQ(fast.footprintAtFit, ref.footprintAtFit);
                ASSERT_EQ(fast.fitBoundary, ref.fitBoundary);
                ASSERT_EQ(fast.intrinsicBytes, ref.intrinsicBytes);
                ASSERT_EQ(fast.criticalPoints.size(),
                          ref.criticalPoints.size());
                for (size_t i = 0; i < ref.criticalPoints.size();
                     ++i) {
                    ASSERT_EQ(fast.criticalPoints[i].boundary,
                              ref.criticalPoints[i].boundary);
                    ASSERT_EQ(
                        fast.criticalPoints[i].criticalCapacity,
                        ref.criticalPoints[i].criticalCapacity);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferFastFuzz,
                         ::testing::Range(0u, 16u));

TEST(CandidateBlocks, BlockEnumerationMatchesVectorEnumeration)
{
    // The SoA block path must emit exactly the mappings the original
    // vector enumeration emits, in the same order, with strictly
    // ascending ordinals (the enumeration-neighbour contract the
    // incremental analyzer depends on).
    const AcceleratorConfig cfg = caseStudyConfig();
    const RepresentativeLayers rep = representativeLayers(224);
    for (const ConvLayer &layer : {rep.common, rep.activationIntensive}) {
        for (SearchEffort effort :
             {SearchEffort::Sketch, SearchEffort::Fast,
              SearchEffort::Exhaustive}) {
            const std::vector<Mapping> vec =
                enumerateCandidates(layer, cfg, effort);
            CandidateBlock block;
            enumerateCandidatesInto(layer, cfg, effort, block);
            ASSERT_EQ(block.size(), vec.size()) << layer.toString();
            for (size_t i = 0; i < vec.size(); ++i) {
                EXPECT_EQ(block.mapping(i).toString(),
                          vec[i].toString());
                if (i > 0) {
                    EXPECT_LT(block.ordinal(i - 1), block.ordinal(i));
                }
            }
        }
    }
}

TEST(CandidateBlocks, ExpandIntoMatchesExpandAndReusesStorage)
{
    // One block refilled across layers and efforts must hold exactly
    // the per-leaf reference each time: every makeLeaf() grid leaf in
    // ordinal order, reduced to the preferred lane class.
    const AcceleratorConfig cfg = caseStudyConfig();
    const RepresentativeLayers rep = representativeLayers(224);
    CandidateBlock block; // reused by every refill
    for (const ConvLayer &layer : {rep.common, rep.pointWise}) {
        for (SearchEffort effort :
             {SearchEffort::Exhaustive, SearchEffort::Fast,
              SearchEffort::Sketch}) {
            const CandidateSpace space(layer, cfg, effort);
            std::vector<CandidateSpace::Leaf> want;
            bool any_full = false;
            for (size_t i = 0; i < space.size(); ++i) {
                const CandidateSpace::Subtree &st = space.subtree(i);
                for (size_t ih = 0; ih < st.ladderH.size(); ++ih)
                    for (size_t iw = 0; iw < st.ladderW.size(); ++iw)
                        for (size_t ic = 0; ic < st.ladderC.size(); ++ic)
                            for (size_t o = 0;
                                 o < static_cast<size_t>(kOrderPairs);
                                 ++o) {
                                const auto leaf =
                                    space.makeLeaf(i, ih, iw, ic, o);
                                if (!leaf)
                                    continue;
                                any_full = any_full || leaf->fullLane;
                                want.push_back(*leaf);
                            }
            }
            std::erase_if(want, [&](const CandidateSpace::Leaf &l) {
                return l.fullLane != any_full;
            });
            enumerateCandidatesInto(space, block);
            ASSERT_EQ(block.size(), want.size()) << layer.toString();
            for (size_t k = 0; k < want.size(); ++k) {
                EXPECT_EQ(block.ordinal(k), want[k].ordinal);
                EXPECT_EQ(block.fullLane(k), want[k].fullLane);
                EXPECT_EQ(block.mapping(k).toString(),
                          want[k].mapping.toString());
            }
        }
    }
}

TEST(CandidateBlocks, KeepOnlyFiltersInPlacePreservingOrder)
{
    CandidateBlock block;
    Mapping m;
    block.push(m, 3, true);
    block.push(m, 5, false);
    block.push(m, 9, true);
    block.push(m, 12, false);
    EXPECT_TRUE(block.anyFullLane());
    block.keepOnly(true);
    ASSERT_EQ(block.size(), 2u);
    EXPECT_EQ(block.ordinal(0), 3);
    EXPECT_EQ(block.ordinal(1), 9);
    EXPECT_TRUE(block.fullLane(0));
    block.clear();
    EXPECT_TRUE(block.empty());
    EXPECT_FALSE(block.anyFullLane());
}
