#include "simba/simba.hpp"

#include <algorithm>
#include <optional>

#include "c3p/analysis.hpp"
#include "common/logging.hpp"
#include "common/status.hpp"
#include "common/util.hpp"
#include "dataflow/loopnest.hpp"

namespace nnbaton {

std::string
SimbaMapping::toString() const
{
    return strprintf("pkg %dx%d chip %dx%d tile %dx%d", pkgRows, pkgCols,
                     chipRows, chipCols, hoT, woT);
}

namespace {

/** Derived per-level extents for one Simba arrangement. */
struct SimbaShapes
{
    int ciChip = 1; //!< input channels per chiplet row
    int ciCore = 1; //!< input channels per core row
    int coCore = 1; //!< output channels per core column
    int icTrips = 1;
    int ocTrips = 1;
    int thTrips = 1;
    int twTrips = 1;
};

SimbaShapes
deriveSimba(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const SimbaMapping &m)
{
    SimbaShapes s;
    // Depthwise layers have one reducible input channel per output;
    // the CI-split rows cannot be filled (a known weakness of the
    // weight-centric arrangement).
    s.ciChip = static_cast<int>(
        ceilDiv(layer.ciPerGroup(), m.pkgRows));
    s.ciCore = static_cast<int>(ceilDiv(s.ciChip, m.chipRows));
    const int co_chip = static_cast<int>(ceilDiv(layer.co, m.pkgCols));
    s.coCore = static_cast<int>(ceilDiv(co_chip, m.chipCols));
    s.icTrips = static_cast<int>(
        ceilDiv(s.ciCore, std::min(cfg.core.vectorSize, s.ciCore)));
    s.ocTrips = static_cast<int>(
        ceilDiv(s.coCore, std::min(cfg.core.lanes, s.coCore)));
    s.thTrips = static_cast<int>(ceilDiv(layer.ho, m.hoT));
    s.twTrips = static_cast<int>(ceilDiv(layer.wo, m.woT));
    return s;
}

/** Evaluate one Simba arrangement; nullopt if illegal. */
std::optional<SimbaLayerCost>
evaluateSimba(const ConvLayer &layer, const AcceleratorConfig &cfg,
              const TechnologyModel &tech, const SimbaMapping &m,
              bool plane_outer)
{
    const int np = cfg.package.chiplets;
    const int nc = cfg.chiplet.cores;
    if (m.pkgRows * m.pkgCols != np || m.chipRows * m.chipCols != nc)
        return std::nullopt;

    const SimbaShapes s = deriveSimba(layer, cfg, m);
    const int lane_active = std::min(cfg.core.lanes, s.coCore);
    const int vec_active = std::min(cfg.core.vectorSize, s.ciCore);

    // O-L1 must hold a temporal tile of partial sums.
    if (static_cast<int64_t>(m.hoT) * m.woT * cfg.core.lanes * 24 >
        cfg.core.ol1Bytes * 8) {
        return std::nullopt;
    }
    // A-L1 must hold one vector-step input slice.
    if (static_cast<int64_t>(inputExtent(m.hoT, layer.kh, layer.stride)) *
            inputExtent(m.woT, layer.kw, layer.stride) * vec_active >
        cfg.core.al1Bytes) {
        return std::nullopt;
    }

    // ---- per-PE nest for W-L1 / A-L1 ------------------------------
    LoopNest pe;
    auto push = [](LoopNest &n, Dim d, int64_t trips) {
        if (trips > 1)
            n.loops.push_back({d, trips});
    };
    if (plane_outer) {
        push(pe, Dim::OH, s.thTrips);
        push(pe, Dim::OW, s.twTrips);
        push(pe, Dim::OC, s.ocTrips);
    } else {
        push(pe, Dim::OC, s.ocTrips);
        push(pe, Dim::OH, s.thTrips);
        push(pe, Dim::OW, s.twTrips);
    }
    push(pe, Dim::IC, s.icTrips);
    push(pe, Dim::KH, layer.kh);
    push(pe, Dim::KW, layer.kw);
    push(pe, Dim::OH, m.hoT);
    push(pe, Dim::OW, m.woT);
    pe.atom = TileSpan{};
    pe.atom.co = lane_active;
    pe.atom.ci = vec_active;

    // ---- per-chiplet nest for the global buffer (A-L2 role) --------
    LoopNest gb;
    if (plane_outer) {
        push(gb, Dim::OH, s.thTrips);
        push(gb, Dim::OW, s.twTrips);
        push(gb, Dim::OC, s.ocTrips);
    } else {
        push(gb, Dim::OC, s.ocTrips);
        push(gb, Dim::OH, s.thTrips);
        push(gb, Dim::OW, s.twTrips);
    }
    gb.atom = TileSpan{};
    gb.atom.ho = m.hoT;
    gb.atom.wo = m.woT;
    gb.atom.co = lane_active * m.chipCols;
    gb.atom.ci = s.ciChip;
    gb.atom.kh = layer.kh;
    gb.atom.kw = layer.kw;

    const ReuseResult wl1 =
        analyzeBuffer(pe, Tensor::Weights, layer, cfg.core.wl1Bytes);
    const ReuseResult al1 =
        analyzeBuffer(pe, Tensor::Activations, layer, cfg.core.al1Bytes);
    const ReuseResult al2 =
        analyzeBuffer(gb, Tensor::Activations, layer,
                      cfg.chiplet.al2Bytes);

    SimbaLayerCost out;
    out.mapping = m;
    AccessCounts &c = out.counts;
    const int64_t macs = layer.macs();
    const int64_t outv = layer.outputVolume();

    // Weights: disjoint across every PE.
    c.dramReadWeightBits += wl1.fillBytes * 8 * nc * np;
    c.wl1WriteBits += wl1.fillBytes * 8 * nc * np;
    const int64_t tiles_per_pe =
        static_cast<int64_t>(s.thTrips) * s.twTrips * s.ocTrips;
    c.wl1ReadBits += tiles_per_pe * lane_active * s.ciCore * layer.kh *
                     layer.kw * 8 * nc * np;

    // Activations: a chiplet row shares one input slice; within a
    // chiplet, a core row's stream is multicast across the columns.
    c.dramReadActBits += al2.fillBytes * 8 * m.pkgRows;
    c.d2dBits += al2.fillBytes * 8 * m.pkgRows * (m.pkgCols - 1);
    c.al2WriteBits += al2.fillBytes * 8 * np;
    c.al2ReadBits += al1.fillBytes * 8 * m.chipRows * np;
    c.al1WriteBits += al1.fillBytes * 8 * nc * np;
    c.al1ReadBits += mulDivFloor(macs, 8, std::max(1, lane_active));

    // Partial sums: 24-bit hops down the rows (NoC) and across the
    // chiplet rows (NoP), once per output element per temporal
    // input-channel pass (the systolic accumulation of figure 4(c)).
    const int active_chip_rows =
        std::min<int>(m.chipRows, s.ciChip);
    const int active_pkg_rows =
        std::min<int>(m.pkgRows, layer.ciPerGroup());
    c.nocBits += outv * 24 * (active_chip_rows - 1) * s.icTrips;
    // Across chiplets each die first accumulates its local CI share,
    // then the partial outputs reduce once over the NoP.
    c.d2dBits += outv * 24 * (active_pkg_rows - 1);
    // Input delivery rides the same router network (the unified
    // NoC interface with per-PE routers), one hop per delivered byte,
    // unlike NN-Baton's central-bus multicast.
    c.nocBits += al1.fillBytes * 8 * nc * np;

    c.macOps = macs;
    // Post-MAC vector work (softmax) is mapping-independent — the
    // baseline pays the same bill as NN-Baton.
    c.vectorOps = layer.vectorOps();
    c.ol1RmwBits += ceilDiv(macs, std::max(1, vec_active)) * 24;
    c.ol1ReadBits += outv * 24;
    c.ol2WriteBits += outv * 8;
    c.ol2ReadBits += outv * 8;
    c.dramWriteBits += outv * 8;
    c.ol2Bytes = static_cast<int64_t>(m.hoT) * m.woT * lane_active *
                 m.chipCols;

    out.energy = computeEnergy(c, cfg, tech);

    // Runtime: same double-buffered phase model as the NN-Baton
    // estimator, with psum hops riding the ring budget.
    const int64_t tiles = std::max<int64_t>(tiles_per_pe, 1);
    const int64_t compute_per_tile =
        static_cast<int64_t>(m.hoT) * m.woT * layer.kh * layer.kw *
        s.icTrips;
    const int64_t dram_per_tile =
        ceilDiv(ceilDiv(c.dramBits(), np), tiles * tech.dramBitsPerCycle);
    const int64_t ring_per_tile =
        np > 1 ? ceilDiv(ceilDiv(c.d2dBits, np),
                         tiles * tech.d2dBitsPerCycle)
               : 0;
    RuntimeResult &r = out.runtime;
    r.computeCycles = tiles * compute_per_tile;
    r.cycles = tiles * std::max({compute_per_tile, dram_per_tile,
                                 ring_per_tile}) +
               dram_per_tile;
    r.stallCycles = r.cycles - r.computeCycles;
    const double peak = static_cast<double>(cfg.totalMacs()) * r.cycles;
    r.utilization = peak > 0 ? static_cast<double>(macs) / peak : 0.0;
    return out;
}

} // namespace

namespace {

/**
 * Simba's basic dataflow uses a fixed near-square grid with input
 * channels down the rows and output channels across the columns
 * (e.g. the 2x2 package of the 4-chiplet prototype, 4x2 cores per
 * chiplet); rows >= cols since CI leads the systolic reduction.
 */
std::pair<int, int>
fixedGrid(int units)
{
    // The smallest rows >= cols factorisation is the most square one.
    int rows = units;
    for (auto [a, b] : factorPairs(units)) {
        if (a >= b && a < rows)
            rows = a;
    }
    return {rows, units / rows};
}

} // namespace

SimbaLayerCost
simbaLayerCost(const ConvLayer &layer, const AcceleratorConfig &cfg,
               const TechnologyModel &tech)
{
    std::optional<SimbaLayerCost> best;
    const int64_t max_plane = cfg.core.maxCoreTilePlane(24);

    const auto [pkg_rows, pkg_cols] = fixedGrid(cfg.package.chiplets);
    const auto [chip_rows, chip_cols] = fixedGrid(cfg.chiplet.cores);
    {
        {
            const int pr = pkg_rows, pc = pkg_cols;
            const int cr = chip_rows, cc = chip_cols;
            // Temporal tiles: Simba rasters the plane, preferring wide
            // stripes; enumerate power-of-two heights with the widest
            // legal width each.
            for (int hot = 1;
                 hot <= std::min<int64_t>(layer.ho, max_plane);
                 hot *= 2) {
                int wot = static_cast<int>(
                    std::min<int64_t>(layer.wo, max_plane / hot));
                for (; wot >= 1; wot /= 2) {
                    SimbaMapping m{pr, pc, cr, cc, hot, wot};
                    for (bool plane_outer : {true, false}) {
                        auto cost = evaluateSimba(layer, cfg, tech, m,
                                                  plane_outer);
                        if (!cost)
                            continue;
                        if (!best || cost->energy.total() <
                                         best->energy.total()) {
                            best = std::move(cost);
                        }
                    }
                    if (wot == 1)
                        break;
                }
            }
        }
    }
    if (!best) {
        throwStatus(errInvalidArgument(
            "simbaLayerCost: no legal Simba arrangement for %s on %s",
            layer.name.c_str(), cfg.computeId().c_str()));
    }
    return *best;
}

SimbaModelCost
simbaModelCost(const Model &model, const AcceleratorConfig &cfg,
               const TechnologyModel &tech)
{
    SimbaModelCost total;
    total.modelName = model.name();
    for (const ConvLayer &layer : model.layers()) {
        SimbaLayerCost lc = simbaLayerCost(layer, cfg, tech);
        total.energy += lc.energy;
        total.cycles += lc.runtime.cycles;
    }
    return total;
}

} // namespace nnbaton
