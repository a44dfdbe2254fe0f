/**
 * @file
 * Tests for the Simba weight-centric baseline model.
 */

#include <gtest/gtest.h>

#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "simba/simba.hpp"

using namespace nnbaton;

TEST(Simba, LegalArrangementForRepresentativeLayers)
{
    const AcceleratorConfig cfg = caseStudyConfig();
    const RepresentativeLayers reps = representativeLayers(224);
    for (const ConvLayer *l :
         {&reps.activationIntensive, &reps.weightIntensive,
          &reps.largeKernel, &reps.pointWise, &reps.common}) {
        const SimbaLayerCost c = simbaLayerCost(*l, cfg, defaultTech());
        EXPECT_GT(c.energy.total(), 0.0) << l->name;
        EXPECT_GT(c.runtime.cycles, 0) << l->name;
        EXPECT_EQ(c.counts.macOps, l->macs()) << l->name;
        // Grid covers the resources.
        EXPECT_EQ(c.mapping.pkgRows * c.mapping.pkgCols,
                  cfg.package.chiplets);
        EXPECT_EQ(c.mapping.chipRows * c.mapping.chipCols,
                  cfg.chiplet.cores);
    }
}

TEST(Simba, PsumTrafficPresentWithRowSplit)
{
    // Whenever input channels are split across rows, 24-bit partial
    // sums must flow between cores or chiplets.
    const ConvLayer layer = makeConv("t", 28, 28, 512, 256, 3, 3, 1);
    const SimbaLayerCost c =
        simbaLayerCost(layer, caseStudyConfig(), defaultTech());
    if (c.mapping.chipRows > 1) {
        EXPECT_GT(c.counts.nocBits, 0);
    }
    if (c.mapping.pkgRows > 1) {
        EXPECT_GT(c.counts.d2dBits, 0);
    }
    EXPECT_GT(c.counts.nocBits + c.counts.d2dBits, 0);
}

TEST(Simba, OutputTrafficIsExact)
{
    const ConvLayer layer = makeConv("t", 28, 28, 512, 256, 3, 3, 1);
    const SimbaLayerCost c =
        simbaLayerCost(layer, caseStudyConfig(), defaultTech());
    EXPECT_EQ(c.counts.dramWriteBits, layer.outputVolume() * 8);
}

TEST(Simba, WeightsLoadedAtLeastOnce)
{
    const ConvLayer layer = makeConv("t", 28, 28, 512, 256, 3, 3, 1);
    const SimbaLayerCost c =
        simbaLayerCost(layer, caseStudyConfig(), defaultTech());
    EXPECT_GE(c.counts.dramReadBits(), layer.weightVolume() * 8);
}

TEST(Simba, SingleChipletHasNoD2dActivationShare)
{
    AcceleratorConfig one = caseStudyConfig();
    one.package.chiplets = 1;
    const ConvLayer layer = makeConv("t", 28, 28, 256, 128, 3, 3, 1);
    const SimbaLayerCost c = simbaLayerCost(layer, one, defaultTech());
    EXPECT_EQ(c.counts.d2dBits, 0);
    EXPECT_EQ(c.mapping.pkgRows, 1);
    EXPECT_EQ(c.mapping.pkgCols, 1);
}

TEST(Simba, PointWiseEdgeLayers)
{
    // 1x1 kernels have no halo: the weight-centric dataflow's
    // temporal plane tiling must not charge any redundant input
    // reloads, and the invariants must hold down to a 1x1 output map
    // (the FC-as-conv reorganisation).
    const AcceleratorConfig cfg = caseStudyConfig();
    for (const ConvLayer &layer :
         {makeConv("pw", 28, 28, 256, 64, 1, 1, 1),
          makeConv("pw-s2", 28, 28, 256, 64, 1, 1, 2),
          makeFullyConnected("fc", 1000, 2048)}) {
        const SimbaLayerCost c = simbaLayerCost(layer, cfg,
                                                defaultTech());
        EXPECT_EQ(c.counts.macOps, layer.macs()) << layer.name;
        EXPECT_EQ(c.counts.dramWriteBits, layer.outputVolume() * 8)
            << layer.name;
        EXPECT_GE(c.counts.dramReadBits(), layer.weightVolume() * 8)
            << layer.name;
        EXPECT_GT(c.runtime.cycles, 0) << layer.name;
        // Without a halo the input can never be read redundantly
        // beyond the spatial duplication across output-channel
        // columns of the grid.
        const int64_t max_dup =
            static_cast<int64_t>(cfg.package.chiplets) *
            cfg.chiplet.cores;
        EXPECT_LE(c.counts.dramReadActBits,
                  layer.inputVolume() * 8 * max_dup)
            << layer.name;
    }
}

TEST(Simba, StrideTwoEdgeLayers)
{
    // Stride-2 layers (downsampling convs and shortcut 1x1/s2) have
    // input footprints larger than the output plane; the baseline's
    // access accounting must stay consistent.
    const AcceleratorConfig cfg = caseStudyConfig();
    for (const ConvLayer &layer :
         {makeConv("s2", 56, 56, 128, 64, 3, 3, 2),
          makeConv("s2-k7", 112, 112, 64, 3, 7, 7, 2),
          makeConv("s2-pw", 28, 28, 512, 256, 1, 1, 2)}) {
        const SimbaLayerCost c = simbaLayerCost(layer, cfg,
                                                defaultTech());
        EXPECT_EQ(c.counts.macOps, layer.macs()) << layer.name;
        EXPECT_EQ(c.counts.dramWriteBits, layer.outputVolume() * 8)
            << layer.name;
        // The strided input footprint must be loaded at least once.
        EXPECT_GE(c.counts.dramReadActBits,
                  static_cast<int64_t>(layer.ho * layer.stride - 1) *
                      (layer.wo * layer.stride - 1) / 4)
            << layer.name;
        EXPECT_GT(c.energy.total(), 0.0) << layer.name;
        EXPECT_GT(c.runtime.cycles, c.runtime.computeCycles - 1)
            << layer.name;
    }
}

TEST(Simba, EdgeLayersBeatOrMatchNothingSmallerThanOneCore)
{
    // Degenerate single-core, single-chiplet hardware still yields a
    // legal 1x1 grid on edge layers.
    AcceleratorConfig tiny = caseStudyConfig();
    tiny.package.chiplets = 1;
    tiny.chiplet.cores = 1;
    const ConvLayer layer = makeConv("pw", 7, 7, 32, 16, 1, 1, 2);
    const SimbaLayerCost c = simbaLayerCost(layer, tiny, defaultTech());
    EXPECT_EQ(c.mapping.pkgRows * c.mapping.pkgCols, 1);
    EXPECT_EQ(c.mapping.chipRows * c.mapping.chipCols, 1);
    // No psum reduction across a 1x1 grid; nocBits stays nonzero
    // because input delivery rides the per-PE routers in Simba.
    EXPECT_EQ(c.counts.d2dBits, 0);
    EXPECT_GT(c.counts.nocBits, 0);
    EXPECT_EQ(c.counts.macOps, layer.macs());
}

TEST(Simba, ModelCostAggregates)
{
    const Model model = makeVgg16(224);
    const SimbaModelCost mc =
        simbaModelCost(model, caseStudyConfig(), defaultTech());
    EXPECT_EQ(mc.modelName, "VGG-16");
    EXPECT_GT(mc.energy.total(), 0.0);
    EXPECT_GT(mc.cycles, 0);

    // Aggregate exceeds any single layer.
    const SimbaLayerCost one = simbaLayerCost(
        model.layer("conv1"), caseStudyConfig(), defaultTech());
    EXPECT_GT(mc.energy.total(), one.energy.total());
}

TEST(Simba, MappingToString)
{
    SimbaMapping m{2, 2, 4, 2, 8, 16};
    EXPECT_EQ(m.toString(), "pkg 2x2 chip 4x2 tile 8x16");
}

/**
 * The headline behavioural claim of figure 12: on activation-heavy
 * large-feature-map layers, NN-Baton's output-centric dataflow beats
 * the weight-centric Simba dataflow (which reloads halos and moves
 * 24-bit psums across the package), while on weight-intensive and
 * point-wise layers the two are close.
 */
TEST(Simba, OutputCentricWinsOnActivationHeavyLayers)
{
    const AcceleratorConfig cfg = caseStudyConfig();
    const RepresentativeLayers reps = representativeLayers(512);

    const auto baton =
        searchLayer(reps.activationIntensive, cfg, defaultTech());
    ASSERT_TRUE(baton.has_value());
    const SimbaLayerCost simba =
        simbaLayerCost(reps.activationIntensive, cfg, defaultTech());
    EXPECT_LT(baton->energy.total(), simba.energy.total());
}

TEST(Simba, CloseOnWeightIntensiveLayers)
{
    // Paper: "in layers with smaller feature sizes ... both perform
    // similarly".  Allow a generous band rather than equality.
    const AcceleratorConfig cfg = caseStudyConfig();
    const RepresentativeLayers reps = representativeLayers(224);
    const auto baton =
        searchLayer(reps.weightIntensive, cfg, defaultTech());
    ASSERT_TRUE(baton.has_value());
    const SimbaLayerCost simba =
        simbaLayerCost(reps.weightIntensive, cfg, defaultTech());
    const double ratio =
        baton->energy.total() / simba.energy.total();
    EXPECT_LT(ratio, 1.05);
    EXPECT_GT(ratio, 0.3);
}
