#include "c3p/access.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "common/util.hpp"
#include "dataflow/loopnest.hpp"

namespace nnbaton {

std::string
AccessCounts::toString() const
{
    return strprintf(
        "dramR %lld dramW %lld d2d %lld | al2 %lld/%lld al1 %lld/%lld "
        "wl1 %lld/%lld ol1 %lld ol2 %lld/%lld | macs %lld vec %lld",
        static_cast<long long>(dramReadBits()),
        static_cast<long long>(dramWriteBits),
        static_cast<long long>(d2dBits),
        static_cast<long long>(al2ReadBits),
        static_cast<long long>(al2WriteBits),
        static_cast<long long>(al1ReadBits),
        static_cast<long long>(al1WriteBits),
        static_cast<long long>(wl1ReadBits),
        static_cast<long long>(wl1WriteBits),
        static_cast<long long>(ol1RmwBits),
        static_cast<long long>(ol2ReadBits),
        static_cast<long long>(ol2WriteBits),
        static_cast<long long>(macOps),
        static_cast<long long>(vectorOps));
}

AccessAnalysis
analyzeMapping(const ConvLayer &layer, const AcceleratorConfig &cfg,
               const Mapping &mapping, const AnalysisOptions &options)
{
    const std::string reason = checkMapping(layer, cfg, mapping);
    if (!reason.empty()) {
        throwStatus(errInvalidArgument(
            "analyzeMapping(%s, %s): illegal mapping: %s",
            layer.name.c_str(), mapping.toString().c_str(),
            reason.c_str()));
    }
    const MappingShapes shapes = deriveShapes(layer, cfg, mapping);
    const NestSet nests = buildNests(layer, cfg, mapping, shapes);

    // C3P buffer analyses.  W-L1 buffers of the pw cores sharing one
    // weight stream are merged into one pool (paper section III-A.2).
    const int64_t wl1_capacity =
        cfg.core.wl1Bytes *
        (options.wl1Pooling ? mapping.chipSplit.parts() : 1);
    const ReuseResult wl1 = analyzeBuffer(nests.perCore, Tensor::Weights,
                                          layer, wl1_capacity);
    const ReuseResult al1 = analyzeBuffer(
        nests.perCore, Tensor::Activations, layer, cfg.core.al1Bytes);
    const ReuseResult al2 =
        analyzeBuffer(nests.perChiplet, Tensor::Activations, layer,
                      cfg.chiplet.al2Bytes);
    return composeAccessAnalysis(layer, cfg, mapping, options, shapes,
                                 wl1, al1, al2);
}

AccessAnalysis
composeAccessAnalysis(const ConvLayer &layer,
                      const AcceleratorConfig &cfg,
                      const Mapping &mapping,
                      const AnalysisOptions &options,
                      const MappingShapes &shapes, const ReuseResult &wl1,
                      const ReuseResult &al1, const ReuseResult &al2)
{
    AccessAnalysis out;
    composeAccessAnalysisInto(layer, cfg, mapping, options, shapes, wl1,
                              al1, al2, out);
    return out;
}

void
composeAccessAnalysisInto(const ConvLayer &layer,
                          const AcceleratorConfig &cfg,
                          const Mapping &mapping,
                          const AnalysisOptions &options,
                          const MappingShapes &shapes,
                          const ReuseResult &wl1, const ReuseResult &al1,
                          const ReuseResult &al2, AccessAnalysis &out)
{
    // The ReuseResult assignments reuse any criticalPoints capacity
    // @p out already carries (the evaluation hot loops feed the same
    // AccessAnalysis back in every call).
    out.shapes = shapes;
    out.wl1 = wl1;
    out.al1 = al1;
    out.al2 = al2;
    composeFixedCountsInto(layer, cfg, mapping, options, out);
    addFillCountsInto(cfg, mapping, options, out);
}

void
composeFixedCountsInto(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const Mapping &mapping,
                       const AnalysisOptions &options,
                       AccessAnalysis &out)
{
    out.counts = AccessCounts{};
    const MappingShapes &s = out.shapes;

    // The parallel-unit counts are promoted to int64 up front so every
    // product below is 64-bit from the first multiplication; batch>1
    // transformer shapes push the int32 boundary otherwise.
    const int64_t np = cfg.package.chiplets;
    const int64_t nc = cfg.chiplet.cores;
    const int64_t cw = mapping.chipChannelWays;
    const int64_t pw = mapping.chipSplit.parts();
    const int p =
        std::min<int>(cfg.core.vectorSize, layer.ciPerGroup());

    AccessCounts &c = out.counts;

    // --- weights: W-L1 -> PE (fills: addFillCountsInto) -------------
    // PE-side reads: each core tile consumes its weights once; a
    // merged pool is read once and broadcast to its pw PE arrays.
    const int64_t w_per_tile =
        static_cast<int64_t>(s.coreTile.co) * layer.ciPerGroup() *
        layer.kh * layer.kw;
    c.wl1ReadBits +=
        s.coreTilesPerChiplet() * cw * w_per_tile * 8 * np;

    // --- activations: A-L2 -> A-L1 -> PE (A-L2 fills: addFill...) ---
    // pw distinct planar streams per chiplet; the cw cores of a
    // channel group receive the same stream via bus multicast.
    c.al2ReadBits +=
        out.al1.fillBytes * (options.al2Multicast ? pw : nc) * 8 * np;
    c.al1WriteBits += out.al1.fillBytes * nc * 8 * np;

    const int64_t macs = layer.macs();
    c.macOps = macs;
    // Post-MAC element-wise passes (softmax on attention scores) run
    // on the vector ALU once per output element per pass.
    c.vectorOps = layer.vectorOps();
    // Active lanes share one P-wide activation vector per cycle.
    c.al1ReadBits += mulDivFloor(macs, 8, std::max(1, s.coreTile.co));

    // --- outputs: O-L1 (RF) -> O-L2 -> DRAM --------------------------
    // One 24-bit accumulator read-modify-write per vector-MAC result.
    c.ol1RmwBits += ceilDiv(macs, p) * 24;
    c.ol1ReadBits += layer.outputVolume() * 24; // requantisation drain
    c.ol2WriteBits += layer.outputVolume() * 8;
    c.ol2ReadBits += layer.outputVolume() * 8;
    c.dramWriteBits += layer.outputVolume() * 8;
    c.ol2Bytes = s.chipletTile.volume();

    // --- utilisation --------------------------------------------------
    out.laneUtilization =
        static_cast<double>(s.coreTile.co) / cfg.core.lanes;
    // Depthwise layers reduce over the kernel window instead of the
    // input channels, so the vector slots fill with kernel taps.
    const int64_t vec_work = layer.isDepthwise()
                                 ? static_cast<int64_t>(layer.kh) *
                                       layer.kw
                                 : layer.ciPerGroup();
    out.vectorUtilization =
        static_cast<double>(vec_work) /
        static_cast<double>(ceilDiv(vec_work, cfg.core.vectorSize) *
                            cfg.core.vectorSize);
}

void
addFillCountsInto(const AcceleratorConfig &cfg, const Mapping &mapping,
                  const AnalysisOptions &options, AccessAnalysis &out)
{
    const int64_t np = cfg.package.chiplets;
    const int64_t nc = cfg.chiplet.cores;
    const int64_t cw = mapping.chipChannelWays;
    AccessCounts &c = out.counts;
    const bool acts_shared = options.rotationSharing &&
        mapping.pkgSpatial == PackagePartition::Channel && np > 1;
    const bool weights_shared = options.rotationSharing &&
        mapping.pkgSpatial == PackagePartition::Plane && np > 1;

    // --- weights: DRAM -> (ring) -> W-L1 ----------------------------
    // cw distinct weight streams per chiplet; each stream fills its
    // merged W-L1 pool once per analysis.
    const int64_t w_streams = options.wl1Pooling ? cw : nc;
    const int64_t w_chip_bits = out.wl1.fillBytes * w_streams * 8;
    if (weights_shared) {
        c.dramReadWeightBits += w_chip_bits;
        c.d2dBits += w_chip_bits * (np - 1);
    } else {
        c.dramReadWeightBits += w_chip_bits * np;
    }
    c.wl1WriteBits += w_chip_bits * np;

    // --- activations: DRAM -> (ring) -> A-L2 ------------------------
    const int64_t a2_chip_bits = out.al2.fillBytes * 8;
    if (acts_shared) {
        c.dramReadActBits += a2_chip_bits;
        c.d2dBits += a2_chip_bits * (np - 1);
    } else {
        c.dramReadActBits += a2_chip_bits * np;
    }
    c.al2WriteBits += a2_chip_bits * np;
}

} // namespace nnbaton
