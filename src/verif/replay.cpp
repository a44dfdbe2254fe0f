#include "verif/replay.hpp"

#include <algorithm>
#include <array>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/util.hpp"
#include "dataflow/loopnest.hpp"
#include "mapper/search.hpp"
#include "sim/runtime.hpp"

namespace nnbaton {

namespace {

/**
 * Unique tensor coordinates one tile of @p span touches, counted by
 * the reference interpreter on a loop-less nest (capacity large enough
 * to always retain).  No footprint formula involved.
 */
int64_t
countTileCoordinates(Tensor tensor, const TileSpan &span,
                     const ConvLayer &layer)
{
    LoopNest tile;
    tile.atom = span;
    return referenceFills(tile, tensor, layer, INT64_MAX / 2).fillBytes;
}

/**
 * Vector-MAC issue slots needed to compute one core tile, counted by
 * literally stepping the weight-stationary schedule: dense layers
 * sweep the kernel window and the input channels in P-wide steps per
 * output position; depthwise layers pack the kernel window into the
 * vector instead.
 */
int64_t
countIssuesPerTile(const ConvLayer &layer, const AcceleratorConfig &cfg,
                   const WorkShape &core_tile)
{
    int64_t issues = 0;
    for (int h = 0; h < core_tile.ho; ++h) {
        for (int w = 0; w < core_tile.wo; ++w) {
            if (layer.isDepthwise()) {
                int64_t taps =
                    static_cast<int64_t>(layer.kh) * layer.kw;
                while (taps > 0) {
                    ++issues;
                    taps -= cfg.core.vectorSize;
                }
                continue;
            }
            const int p = std::min<int>(cfg.core.vectorSize,
                                        layer.ciPerGroup());
            for (int kh = 0; kh < layer.kh; ++kh) {
                for (int kw = 0; kw < layer.kw; ++kw) {
                    for (int ci = 0; ci < layer.ciPerGroup(); ci += p)
                        ++issues;
                }
            }
        }
    }
    return issues;
}

} // namespace

ReplayResult
replayMapping(const ConvLayer &layer, const AcceleratorConfig &cfg,
              const TechnologyModel &tech, const Mapping &mapping,
              const AnalysisOptions &options, const CancelToken *cancel)
{
    NNBATON_TRACE_SCOPE("verif.replay");
    static obs::Counter &replays =
        obs::MetricsRegistry::instance().counter("verif.replays");
    replays.add();

    const std::string reason = checkMapping(layer, cfg, mapping);
    if (!reason.empty()) {
        throwStatus(errInvalidArgument(
            "replayMapping(%s, %s): illegal mapping: %s",
            layer.name.c_str(), mapping.toString().c_str(),
            reason.c_str()));
    }

    ReplayResult r;
    r.shapes = deriveShapes(layer, cfg, mapping);
    const MappingShapes &s = r.shapes;
    const NestSet nests = buildNests(layer, cfg, mapping, s);

    const int np = cfg.package.chiplets;
    const int nc = cfg.chiplet.cores;
    const int cw = mapping.chipChannelWays;
    const int pw = mapping.chipSplit.parts();
    const int p =
        std::min<int>(cfg.core.vectorSize, layer.ciPerGroup());

    // --- measured per-level fills (coordinate enumeration) -----------
    const int64_t wl1_capacity =
        cfg.core.wl1Bytes * (options.wl1Pooling ? pw : 1);
    const ReferenceResult wl1 = referenceFills(
        nests.perCore, Tensor::Weights, layer, wl1_capacity, cancel);
    const ReferenceResult al1 =
        referenceFills(nests.perCore, Tensor::Activations, layer,
                       cfg.core.al1Bytes, cancel);
    const ReferenceResult al2 =
        referenceFills(nests.perChiplet, Tensor::Activations, layer,
                       cfg.chiplet.al2Bytes, cancel);
    r.wl1 = {wl1.fillBytes, wl1.retainedTiles};
    r.al1 = {al1.fillBytes, al1.retainedTiles};
    r.al2 = {al2.fillBytes, al2.retainedTiles};

    // --- explicit core-tile schedule walk ----------------------------
    // Walk the package-temporal and chiplet-temporal primitives tile
    // by tile in the mapping's priority order; the analytical engine
    // only ever multiplies trip counts.
    auto tripsInOrder = [](LoopOrder order, int th, int tw,
                           int tc) -> std::array<int, 3> {
        if (order == LoopOrder::ChannelPriority)
            return {th, tw, tc};
        return {tc, th, tw};
    };
    const auto pkg = tripsInOrder(mapping.pkgOrder, s.pkgTripsH,
                                  s.pkgTripsW, s.pkgTripsC);
    const auto chip = tripsInOrder(mapping.chipOrder, s.chipTripsH,
                                   s.chipTripsW, s.chipTripsC);
    for (int bt = 0; bt < s.batchTrips; ++bt)
        for (int a = 0; a < pkg[0]; ++a)
            for (int b = 0; b < pkg[1]; ++b)
                for (int c = 0; c < pkg[2]; ++c) {
                    if (cancel && cancel->cancelled())
                        throwStatus(cancel->toStatus());
                    for (int d = 0; d < chip[0]; ++d)
                        for (int e = 0; e < chip[1]; ++e)
                            for (int f = 0; f < chip[2]; ++f)
                                ++r.tilesWalked;
                }

    // --- access composition over the measured fills ------------------
    // The tensor the package spatial primitive shares rotates over the
    // ring: one DRAM load plus (N_P - 1) die-to-die forwards.
    AccessCounts &c = r.counts;
    const bool acts_rotate = options.rotationSharing && np > 1 &&
        mapping.pkgSpatial == PackagePartition::Channel;
    const bool weights_rotate = options.rotationSharing && np > 1 &&
        mapping.pkgSpatial == PackagePartition::Plane;

    // Weights: each of the cw weight streams of a chiplet fills its
    // (pooled) W-L1 with the measured fill bytes; without pooling all
    // nc cores fill privately.
    const int64_t w_chip_bits =
        wl1.fillBytes * (options.wl1Pooling ? cw : nc) * 8;
    c.dramReadWeightBits =
        weights_rotate ? w_chip_bits : w_chip_bits * np;
    if (weights_rotate)
        c.d2dBits += w_chip_bits * (np - 1);
    c.wl1WriteBits = w_chip_bits * np;
    // Each walked core tile re-reads its weight coordinates from W-L1
    // once per stream group.
    TileSpan w_tile;
    w_tile.co = s.coreTile.co;
    w_tile.ci = layer.ciPerGroup();
    w_tile.kh = layer.kh;
    w_tile.kw = layer.kw;
    const int64_t w_tile_elems =
        countTileCoordinates(Tensor::Weights, w_tile, layer);
    c.wl1ReadBits = r.tilesWalked * cw * w_tile_elems * 8 * np;

    // Activations: DRAM -> (ring) -> A-L2 -> A-L1 -> PE.
    const int64_t a2_chip_bits = al2.fillBytes * 8;
    c.dramReadActBits = acts_rotate ? a2_chip_bits : a2_chip_bits * np;
    if (acts_rotate)
        c.d2dBits += a2_chip_bits * (np - 1);
    c.al2WriteBits = a2_chip_bits * np;
    c.al2ReadBits =
        al1.fillBytes * (options.al2Multicast ? pw : nc) * 8 * np;
    c.al1WriteBits = al1.fillBytes * nc * 8 * np;

    // PE-side reads and MACs, reconstructed from the issue walk: every
    // vector issue consumes one P-wide activation vector shared by the
    // active lanes.
    const int64_t issues_per_tile =
        countIssuesPerTile(layer, cfg, s.coreTile);
    const int64_t macs = static_cast<int64_t>(layer.batch) * layer.ho *
                         layer.wo * layer.co * layer.ciPerGroup() *
                         layer.kh * layer.kw;
    c.macOps = macs;
    c.al1ReadBits = mulDivFloor(macs, 8, std::max(1, s.coreTile.co));

    // Outputs: one 24-bit accumulation per vector-MAC result, one
    // requantisation drain, exactly one externalised output copy.
    const int64_t out_elems = static_cast<int64_t>(layer.batch) *
                              layer.ho * layer.wo * layer.co;
    // Post-MAC vector passes (softmax) touch each output element once
    // per pass; recomputed here from the walked output volume.
    c.vectorOps = out_elems * layer.postOps;
    c.ol1RmwBits = ceilDiv(macs, p) * 24;
    c.ol1ReadBits = out_elems * 24;
    c.ol2WriteBits = out_elems * 8;
    c.ol2ReadBits = out_elems * 8;
    c.dramWriteBits = out_elems * 8;
    c.ol2Bytes = static_cast<int64_t>(s.chipletTile.ho) *
                 s.chipletTile.wo * s.chipletTile.co;

    // --- cycle replay: per-tile max of the pipelined phases ----------
    // Each walked tile overlaps its compute with the next tile's DRAM
    // and ring transfers (double buffering); the first tile pays its
    // load in full.
    const int64_t dram_per_chiplet = ceilDiv(c.dramBits(), np);
    const int64_t dram_per_tile =
        ceilDiv(ceilDiv(dram_per_chiplet, r.tilesWalked),
                tech.dramBitsPerCycle);
    const int64_t ring_per_tile =
        np > 1 ? ceilDiv(ceilDiv(ceilDiv(c.d2dBits, np), r.tilesWalked),
                         tech.d2dBitsPerCycle)
               : 0;
    int64_t now = dram_per_tile; // pipeline fill
    for (int64_t t = 0; t < r.tilesWalked; ++t) {
        r.computeCycles += issues_per_tile;
        now += std::max({issues_per_tile, dram_per_tile, ring_per_tile});
    }
    r.cycles = now;

    r.energy = computeEnergy(c, cfg, tech);
    return r;
}

std::string
DifferentialReport::toString() const
{
    std::string out;
    for (const FieldDiff &d : diffs) {
        out += strprintf("  %-22s analytical %.17g != replay %.17g\n",
                         d.field.c_str(), d.analytical, d.replayed);
    }
    return out;
}

DifferentialReport
diffMapping(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, const Mapping &mapping,
            const AnalysisOptions &options, const CancelToken *cancel)
{
    DifferentialReport report;
    report.replay =
        replayMapping(layer, cfg, tech, mapping, options, cancel);
    const MappingChoice choice =
        evaluateMapping(layer, cfg, tech, mapping, options);

    auto check = [&](const char *field, double analytical,
                     double replayed) {
        if (analytical != replayed)
            report.diffs.push_back({field, analytical, replayed});
    };
    const AccessCounts &a = choice.analysis.counts;
    const AccessCounts &r = report.replay.counts;
    check("dramReadActBits", a.dramReadActBits, r.dramReadActBits);
    check("dramReadWeightBits", a.dramReadWeightBits,
          r.dramReadWeightBits);
    check("dramWriteBits", a.dramWriteBits, r.dramWriteBits);
    check("d2dBits", a.d2dBits, r.d2dBits);
    check("nocBits", a.nocBits, r.nocBits);
    check("al2ReadBits", a.al2ReadBits, r.al2ReadBits);
    check("al2WriteBits", a.al2WriteBits, r.al2WriteBits);
    check("al1ReadBits", a.al1ReadBits, r.al1ReadBits);
    check("al1WriteBits", a.al1WriteBits, r.al1WriteBits);
    check("wl1ReadBits", a.wl1ReadBits, r.wl1ReadBits);
    check("wl1WriteBits", a.wl1WriteBits, r.wl1WriteBits);
    check("ol1RmwBits", a.ol1RmwBits, r.ol1RmwBits);
    check("ol1ReadBits", a.ol1ReadBits, r.ol1ReadBits);
    check("ol2ReadBits", a.ol2ReadBits, r.ol2ReadBits);
    check("ol2WriteBits", a.ol2WriteBits, r.ol2WriteBits);
    check("macOps", a.macOps, r.macOps);
    check("vectorOps", a.vectorOps, r.vectorOps);
    check("ol2Bytes", a.ol2Bytes, r.ol2Bytes);

    check("wl1.fillBytes", choice.analysis.wl1.fillBytes,
          report.replay.wl1.fillBytes);
    check("al1.fillBytes", choice.analysis.al1.fillBytes,
          report.replay.al1.fillBytes);
    check("al2.fillBytes", choice.analysis.al2.fillBytes,
          report.replay.al2.fillBytes);
    check("schedule.tiles",
          static_cast<double>(
              choice.analysis.shapes.coreTilesPerChiplet()),
          static_cast<double>(report.replay.tilesWalked));

    check("cycles", static_cast<double>(choice.runtime.cycles),
          static_cast<double>(report.replay.cycles));
    check("computeCycles",
          static_cast<double>(choice.runtime.computeCycles),
          static_cast<double>(report.replay.computeCycles));
    check("energy.total", choice.energy.total(),
          report.replay.energy.total());

    if (!report.ok()) {
        static obs::Counter &mismatches =
            obs::MetricsRegistry::instance().counter(
                "verif.mismatches");
        mismatches.add();
    }
    return report;
}

} // namespace nnbaton
